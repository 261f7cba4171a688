"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bench import PER_LAYER, digest, load_digests  # noqa: E402
from tracing import NullTracer, Tracer, per_unit_ms, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_deterministic_under_a_seed(name):
    w = WORKLOADS[name]
    t = NullTracer()
    assert w.picks(7) == w.picks(7)
    picks = w.picks(7)[:2]
    first = [(i.key, i.data) for i in w.setup(picks, t)]
    again = [(i.key, i.data) for i in w.setup(picks, t)]
    assert first == again


@pytest.mark.parametrize("name", NAMES)
def test_seeds_pick_variants_from_the_catalog(name):
    w = WORKLOADS[name]
    catalog = set(w.catalog())
    runs = [w.picks(s) for s in range(6)]
    for picks in runs:
        assert set(picks) <= catalog
        assert len(picks) == len(w.classes) * w.per_class
    assert len({tuple(p) for p in runs}) == (1 if w.per_class == w.variants else 6)


def test_digest_table_covers_every_catalog_key():
    for name, w in WORKLOADS.items():
        keys = set(load_digests(name))
        t = NullTracer()
        # progression expands one pick into one key per row and mode
        items = w.setup(w.catalog()[:1], t)
        assert {i.key for i in items} <= keys
        assert len(keys) == len(w.catalog()) * len(items)


def test_request_stream_deals_groups_in_turn():
    from bench import request_stream
    from workloads import Item

    items = [Item(f"{g}{i}", g, ()) for g in "abc" for i in range(4)]
    stream = request_stream(items, 5)
    first_pass = [next(stream) for _ in range(12)]
    assert sorted(i.key for i in first_pass) == sorted(i.key for i in items)
    for r in range(4):
        assert sorted(i.group for i in first_pass[3 * r : 3 * r + 3]) == ["a", "b", "c"]
    again = request_stream(items, 5)
    assert [next(again).key for _ in range(12)] == [i.key for i in first_pass]


def test_self_time_subtracts_the_union_of_children():
    # name, start, end, parent, unit
    spans = [
        ["root", 0, 100, None, "u1"],
        ["a", 10, 40, 0, "u1"],
        ["b", 30, 60, 0, "u1"],  # overlaps a
        ["leaf", 15, 20, 1, "u1"],
        ["c", 90, 120, 0, "u1"],  # sticks out of root
        ["root", 200, 210, None, "u2"],
        ["a", 202, 206, 5, "u2"],
    ]
    # root: 100 - |[10,60] u [90,100]| = 40; a: 30 - 5; root of u2: 10 - 4
    assert self_times(spans) == [40, 25, 30, 5, 30, 6, 4]
    ms = per_unit_ms(spans)
    assert ms["root"] == [40e-6, 6e-6]
    assert ms["a"] == [25e-6, 4e-6]


def test_tracer_nests_calls_and_times_them():
    t = Tracer()
    t.begin("request#1")
    assert t.call("outer", lambda: t.call("inner", sum, [1, 2])) == 3
    t.end()
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("request", None, "request#1"), ("outer", 0, "request#1"), ("inner", 1, "request#1")]
    assert all(s[2] >= s[1] for s in t.spans)


@pytest.mark.parametrize("name", NAMES)
def test_smallest_request_matches_its_reference(name):
    w = WORKLOADS[name]
    t = NullTracer()
    label = next(iter(w.classes))
    items = w.setup([(label, 0)], t)
    expected = load_digests(name)
    for item in items[:3] + items[-1:]:
        out = w.request(item, t)
        assert w.check(item, out) is None
        assert digest(w.digest_text(item, out)) == expected[item.key]


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", NAMES)
def test_short_run_passes_its_checks(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--max-requests", "4")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_a_run_too_short_for_p90_prints_no_result():
    proc = run_bench("--workload", "network-sweep", "--seed", "3", "--seconds", "0.05")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_traced_run_reports_every_layer_metric():
    proc = run_bench(
        "--workload", "network-sweep", "--seed", "3", "--seconds", "1",
        "--trace", "1", "--max-requests", "4",
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert set(result["metrics"]) == {n for n, _ in PER_LAYER}
    assert result["metrics"]["grams.cliquegram_from_network.ms"]["value"] > 0


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fast-join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
