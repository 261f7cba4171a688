"""Run the benchmark over several seeds and write ``results/BENCH_<label>.json``.

    python3 perfbench/baseline.py --label seed --seeds 1-10
    python3 perfbench/baseline.py --label seed-repeat --no-trace --compare seed

For every workload of ``BENCHMARK.json``, runs ``run.py`` untraced once per
seed, then traced once on the first seed, one run at a time.  For each
end-to-end metric it records the values, their median and quartiles and
the spread (the interquartile distance as a share of the median), and flags
a spread above a third of the metric's bound.  With ``--compare``, it also
records how far each median moved from the same median in an earlier
file, as a share of that median, and flags a move beyond the bound.
Machine information and the load average go in the same file.  The file
is always written afresh, from this one invocation.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--compare", metavar="LABEL", help="an earlier result of the same code")
    args = p.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    earlier = None
    if args.compare:
        earlier = json.loads((HERE / "results" / f"BENCH_{args.compare}.json").read_text())

    out = HERE / "results" / f"BENCH_{args.label}.json"
    doc = {
        "label": args.label,
        "seconds": args.seconds,
        "seeds": seeds,
        "machine": machine_info(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        load_start = list(os.getloadavg())
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            e2e[name] = summarize(values) if len(values) >= 2 else {"values": values}
            e2e[name]["unit"] = runs[0]["metrics"][name]["unit"]
            spread = e2e[name].get("spread")
            flag = "" if spread is None or spread <= bound / 3 else "  <-- above bound/3"
            if earlier is not None:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                move = statistics.median(values) / before - 1
                e2e[name]["move_vs_" + args.compare] = move
                flag += f"  moved {move:+.3f}" + ("  <-- beyond bound" if abs(move) > bound else "")
            print(f"{workload:14s} {name:16s} median {statistics.median(values):10.4f}"
                  f"  spread {spread if spread is not None else float('nan'):.4f}"
                  f"  bound {bound}{flag}", file=sys.stderr)
        entry = {
            "loadavg_start": load_start,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "end_to_end": e2e,
        }
        if not args.no_trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
        entry["loadavg_end"] = list(os.getloadavg())
        doc["workloads"][workload] = entry
    doc["machine"]["loadavg_end"] = list(os.getloadavg())
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
