"""Tests of the benchmark's own code: tracer arithmetic and coverage, the
per-analysis checks, and a tiny-size run of every workload."""

import copy
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    fns = {}

    def leaf():
        clock.now += 2

    def middle():
        clock.now += 10
        fns["leaf"]()
        fns["leaf"]()

    def outer():
        clock.now += 5
        fns["middle"]()
        clock.now += 3
        fns["leaf"]()

    fns["leaf"] = tracer._hot_wrapper("t.leaf", leaf)
    fns["middle"] = tracer._span_wrapper("t.middle", middle)
    fns["outer"] = tracer._span_wrapper("t.outer", outer)
    tracer.start("synthetic")
    clock.now += 1
    fns["outer"]()
    clock.now += 1
    trace = tracer.stop()
    totals = trace.totals()
    assert totals["t.leaf"] == [3, 6]
    assert totals["t.middle"] == [1, 10]  # 14 long, 4 in its two leaves
    assert totals["t.outer"] == [1, 8]  # 24 long, 14 in middle, 2 in a leaf
    root = [s for s in trace.spans if s[0] == trace.root_id]
    assert root == [(trace.root_id, "analysis", 0, 0, 26, 24)]
    # hot calls are counted per parent span, not recorded one by one
    middle_id = next(s[0] for s in trace.spans if s[1] == "t.middle")
    outer_id = next(s[0] for s in trace.spans if s[1] == "t.outer")
    assert trace.hot == {(middle_id, "t.leaf"): [2, 4], (outer_id, "t.leaf"): [1, 2]}
    assert len(trace.spans) == 3


def test_tracer_patches_every_binding_and_restores_them():
    run.import_package()
    import lpdensity
    from lpdensity import cli, lpfunc, translate_system

    original = lpfunc.pair
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        for module in (lpdensity, lpfunc, translate_system, cli):
            assert module.pair is not original
            assert module.pair.__wrapped__ is original
        # a binding the tracer missed is reported
        translate_system.pair = original
        assert tracer.unwrapped_bindings() == ["lpdensity.translate_system.pair"]
    finally:
        tracer.uninstall()
    assert translate_system.pair is original and lpdensity.pair is original
    assert "__wrapped__" not in vars(lpfunc.PiecewiseFn.__init__)


def _bench(tmp_path, name, reference=None):
    run.import_package()
    bench = run.Bench(name, 3, tmp_path / name, size="tiny", reference=reference)
    bench.setup()
    return bench


def _reports(bench):
    return {
        f"{out.name}/{p.name}": json.loads(p.read_text())
        for _, out in bench.invocations
        for p in sorted(out.glob("*_report.json"))
    }


@pytest.mark.parametrize("name", ["gaussian-bessel", "reciprocal-dichotomy", "lattice2d-geometry"])
def test_wrong_reference_counts_as_failed(tmp_path, name):
    right = workloads.headline(name, _reports(_bench(tmp_path / "probe", name)))
    bench = _bench(tmp_path, name, reference=right)
    bench.run_once()
    assert (bench.attempted, bench.failed) == (2, 0)
    wrong = copy.deepcopy(right)
    if name == "gaussian-bessel":
        wrong["bessel_bound"] *= 1 + 1e-9
    elif name == "reciprocal-dichotomy":
        wrong["witness_counts"][-1] += 1
    else:
        wrong["part_count"] += 1
    bench.reference = wrong
    assert min(bench.run_once()) > 0
    assert (bench.attempted, bench.failed) == (3, 1)


def test_reference_floats_allow_reordering_error_only():
    assert workloads.mismatches({"x": [1.0 + 1e-13]}, {"x": [1.0]}) == []
    assert workloads.mismatches({"x": [1.0 + 1e-11]}, {"x": [1.0]}) != []
    assert workloads.mismatches({"n": 3, "v": "bounded"}, {"n": 3, "v": "divergent"}) != []


def test_changed_outputs_count_as_failed(tmp_path):
    bench = _bench(tmp_path, "haar-contrast")
    spec, _ = bench.invocations[0]
    entry = json.loads(spec.read_text())
    entry[0]["seed"] += 1
    spec.write_text(json.dumps(entry))
    bench.run_once()
    assert (bench.attempted, bench.failed) == (2, 1)


def test_seeded_inputs_repeat(tmp_path):
    for name in workloads.WORKLOADS:
        files = []
        for i, seed in enumerate((5, 5, 6)):
            work = tmp_path / f"{name}-{i}"
            workloads.write_inputs(name, seed, work, size="tiny")
            files.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
        assert files[0] == files[1]
        if name in ("lattice2d-geometry", "haar-contrast"):
            assert files[0] != files[2]
    rows = (tmp_path / "lattice2d-geometry-0" / "jitter.csv").read_text().splitlines()[1:]
    assert len(set(rows)) == len(rows) == workloads.SIZES["tiny"]["jitter_points"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_named_metric(tmp_path, name):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = run.run_benchmark(name, 1, 0.01, trace, work=tmp_path / str(trace), size="tiny")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        named = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == named
        assert "seed 1" in lines[0]
    pair_calls = result["metrics"]["lpfunc.pair.calls"]["value"]
    assert (pair_calls == 0) == (name == "lattice2d-geometry")
    assert (tmp_path / "1" / "spans.jsonl").stat().st_size > 0
