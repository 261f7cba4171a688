"""Record the reference output digest of every catalog key.

    python3 perfbench/record_digests.py [workload ...]

Runs every key of the named workloads (all by default) once, applies the
workload's own check, and rewrites those workloads' entries of
``digests.json``.  Run it only on code whose outputs are the reference:
the digests hold later versions to byte-identical output.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench import digest  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(w) -> dict[str, str]:
    t = NullTracer()
    out: dict[str, str] = {}
    for pick in w.catalog():
        for item in w.setup([pick], t):
            result = w.request(item, t)
            problem = w.check(item, result)
            if problem:
                raise RuntimeError(f"{w.name} {item.key}: {problem}")
            out[item.key] = digest(w.digest_text(item, result))
    return out


def main(names) -> int:
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        start = time.perf_counter()
        table[name] = record(WORKLOADS[name])
        print(f"{name}: {len(table[name])} keys in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
