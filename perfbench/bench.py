"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints the result as one JSON object on the last
line of standard output.  The loop is closed with a single client: each
request starts when the previous one has returned.
"""

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100
MIN_TRACED_REQUESTS = 20
# a slow machine may stretch a run to reach MIN_REQUESTS, but not past this
MAX_STRETCH = 3.0
SETUP_REPEATS = 3
# the import is timed in this interpreter and in this many more fresh ones
IMPORT_PROBES = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); s = time.perf_counter(); "
    "import phylolattice; print(time.perf_counter() - s)"
)

# (name, unit): a "ms" metric is the median over units of the per-unit self
# time in that call, a ratio the quotient of the run totals of two counts
# (RATIOS), and any other metric the median over units of a per-unit count.
PER_LAYER = [
    ("newick.parse_newick.ms", "ms"),
    ("newick.ultranetwork_from_newick.ms", "ms"),
    ("networks.is_ultranetwork.ms", "ms"),
    ("grams.treegram_from_ultranetwork.ms", "ms"),
    ("grams.join_grams.ms", "ms"),
    ("grams.cliquegram_from_network.ms", "ms"),
    ("grams.network_from_cliquegram.ms", "ms"),
    ("grams.levels", "count"),
    ("grams.level_faces", "count"),
    ("grams.distinct_face_ratio", "ratio"),
    ("mergegram.join_mergegram_of_treegrams.ms", "ms"),
    ("mergegram.labeled_mergegram.ms", "ms"),
    ("mergegram.entries", "count"),
    ("mergegram.candidates", "count"),
    ("mergegram.candidate_yield", "ratio"),
    ("reeb.face_reeb_graph.ms", "ms"),
    ("metrics.bottleneck_distance.ms", "ms"),
    ("metrics.points", "count"),
    ("metrics.point_pairs", "count"),
    ("metrics.facegram_interleaving.ms", "ms"),
    ("formats.parse_matrix_csv.ms", "ms"),
    ("formats.parse_gram_json.ms", "ms"),
    ("formats.gram_json.ms", "ms"),
    ("formats.gram_json.bytes", "bytes"),
    ("formats.reeb_dot.ms", "ms"),
    ("formats.labeled_mergegram_json.ms", "ms"),
    ("formats.parse_mergegram_json.ms", "ms"),
    ("clustering.agglomerative_ultrametric.ms", "ms"),
    ("experiments.partial_joins.ms", "ms"),
    ("trace.overhead_frac", "frac"),
]
RATIOS = {
    "grams.distinct_face_ratio": ("mergegram.entries", "grams.level_faces"),
    "mergegram.candidate_yield": ("mergegram.entries", "mergegram.candidates"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--max-requests", type=int, default=None, help="stop early (for tests)"
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import phylolattice from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import phylolattice

    if Path(phylolattice.__file__).resolve().parent != SRC / "phylolattice":
        raise ImportError(f"phylolattice came from {phylolattice.__file__}, not {SRC}")


def import_seconds(first: float) -> float:
    """Median time to import phylolattice: ``first``, this interpreter's,
    and that of IMPORT_PROBES fresh interpreters, one after another."""
    times = [first]
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(workload: str) -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())[workload]


class Verifier:
    """Digest check on every output; the workload's own check once per key."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.checked: set[str] = set()
        self.problems: list[str] = []

    def __call__(self, item, out) -> bool:
        got = digest(self.workload.digest_text(item, out))
        want = self.expected.get(item.key)
        problem = None
        if got != want:
            problem = f"output digest {got} differs from the reference {want}"
        elif item.key not in self.checked:
            self.checked.add(item.key)
            problem = self.workload.check(item, out)
        if problem:
            if len(self.problems) < 20:
                self.problems.append(f"{item.key}: {problem}")
            return False
        return True


def request_stream(items, seed):
    """Endless passes over the run's items.  A pass shuffles each group and
    deals one item of every group in turn, so that a run cut off mid-pass
    still holds the groups in equal shares."""
    rng = random.Random(f"{seed}/order")
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(item.group, []).append(item)
    while True:
        hands = [rng.sample(g, len(g)) for g in groups.values()]
        rng.shuffle(hands)
        for i in range(max(map(len, hands))):
            yield from (h[i] for h in hands if i < len(h))


def main(argv=None) -> int:
    args = parse_args(argv)
    s = perf_counter()
    import_program()
    import_s = perf_counter() - s

    sys.path.insert(0, str(HERE))
    from tracing import NullTracer, Tracer, median_or_zero, per_unit_counts, per_unit_ms
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    null = NullTracer()
    tracer = Tracer() if args.trace else null

    picks = w.picks(args.seed)
    setup_times = []
    for r in range(SETUP_REPEATS):
        tracer.begin(f"setup#{r}")
        s = perf_counter()
        items = w.setup(picks, tracer)
        setup_times.append(perf_counter() - s)
        tracer.end()
    verify = Verifier(w, load_digests(w.name))

    stream = request_stream(items, args.seed)
    latencies: list[float] = []  # untraced run: every request
    traced_lat: list[float] = []  # traced run: each request, traced ...
    paired_lat: list[float] = []  # ... and the same request untraced
    attempted = failed = 0
    cache: dict = {}
    minimum = MIN_TRACED_REQUESTS if args.trace else MIN_REQUESTS
    loop_start = perf_counter()
    deadline = loop_start + args.seconds
    hard_stop = loop_start + args.seconds * MAX_STRETCH
    while True:
        now = perf_counter()
        if now >= hard_stop or (now >= deadline and attempted >= minimum):
            break
        if args.max_requests is not None and attempted >= args.max_requests:
            break
        item = next(stream)
        attempted += 1
        unit = f"request#{attempted}"
        ok = True
        try:
            if not args.trace:
                s = perf_counter()
                out = w.request(item, null)
                latencies.append(perf_counter() - s)
                ok = verify(item, out)
            else:
                # alternate which mode runs first, so warm-up favours neither
                for t in (null, tracer) if attempted % 2 else (tracer, null):
                    t.begin(unit)
                    try:
                        s = perf_counter()
                        out = w.request(item, t)
                        dt = perf_counter() - s
                    finally:
                        t.end()
                    if t is tracer:
                        traced_lat.append(dt)
                        tracer.add_counts(unit, w.counts(item, out, cache))
                    else:
                        paired_lat.append(dt)
                    ok = verify(item, out) and ok
        except Exception as exc:  # a request that raises counts as failed
            ok = False
            if len(verify.problems) < 20:
                verify.problems.append(f"{item.key}: {type(exc).__name__}: {exc}")
        if not ok:
            failed += 1
    for p in verify.problems:
        print(f"FAILED {p}", file=sys.stderr)
    if attempted < minimum and args.max_requests is None:
        print(
            f"error: only {attempted} requests in {args.seconds * MAX_STRETCH:g} s, "
            f"fewer than the {minimum} the metrics need",
            file=sys.stderr,
        )
        return 3

    if args.trace:
        spans_ms = per_unit_ms(tracer.spans)
        counts = per_unit_counts(tracer.counts)
        metrics = {}
        for name, unit in PER_LAYER:
            if name in RATIOS:
                num, den = (sum(counts.get(k, ())) for k in RATIOS[name])
                value = num / den if den else 0.0
            elif name == "trace.overhead_frac":
                value = 1 - sum(paired_lat) / sum(traced_lat) if traced_lat else 0.0
            elif unit == "ms":
                value = median_or_zero(spans_ms.get(name[: -len(".ms")], ()))
            else:
                value = median_or_zero(counts.get(name, ()))
            metrics[name] = {"value": value, "unit": unit}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{w.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()))
    else:
        ms = [x * 1e3 for x in latencies]
        metrics = {
            "setup_s": {
                "value": import_seconds(import_s) + statistics.median(setup_times),
                "unit": "s",
            },
            "latency_p50_ms": {"value": statistics.median(ms) if ms else 0.0, "unit": "ms"},
            "latency_p90_ms": {
                "value": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else 0.0,
                "unit": "ms",
            },
            # a closed loop with one client: completed requests over the sum
            # of their latencies, which is 1 / mean latency
            "throughput_rps": {
                "value": (attempted - failed) / sum(latencies) if latencies else 0.0,
                "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "success_rate": {"value": 1 - failed / attempted, "unit": "frac"},
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
