"""lpdensity benchmark: one workload through the real CLI entry point, in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its `src` directory, and
inputs and reports go under `.bench_work/`.  Every analysis calls
`lpdensity.cli.main(["run", "--spec", ...])` for each of the workload's spec
files and is then checked: exit codes, verdicts, the pinned headline values
in `reference.json`, and byte identity with the previous analysis of the run
(the report timestamp excluded).

--trace 0 measures the end-to-end metrics with tracing off: setup_s,
analysis_s and peak_alloc_mb.  Times are CPU seconds of this process, which
for this single-threaded program equal wall seconds on an idle host but
leave out time the host gives to other tenants, rescaled to a host of fixed
speed by timing two fixed loops alongside the analyses; see NOTES.md.  --trace 1 alternates untraced and traced
analyses and reports per-layer call counts and self times, plus the tracing
overhead.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import gc
import importlib
import json
import math
import os
import re
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# One thread, before numpy loads: a second OpenBLAS thread would compete with
# the first for the host's two vCPUs, and its spin-waits would count as CPU
# time of the process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, headline, mismatches, write_inputs

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).with_name("reference.json")
SETUPS = 5  # setup_s is the median of up to this many set-ups
# Least CPU seconds of the two host-speed loops below on the machine that
# NOTES.md describes; times are rescaled to a host of that speed.
REFERENCE_LOOP_S = (0.0080, 0.0065)
_TIMESTAMP = re.compile(rb'^ *"timestamp": "[^"\n]*",?\n', re.M)


def _clocks():
    """(CPU seconds of this process, wall seconds).  CPU time leaves out the
    time the host gives this virtual CPU to other tenants (steal time)."""
    return time.process_time(), time.perf_counter()


def _since(start):
    """(CPU seconds, wall seconds) elapsed since `start`, a `_clocks()` pair."""
    cpu, wall = _clocks()
    return cpu - start[0], wall - start[1]


_stream = []


def _python_loop():
    total = 0
    for i in range(150_000):
        total += i * i
    return total


def _numpy_pass():
    if not _stream:
        import numpy as np  # not before the timed import of the package, which imports numpy

        _stream.append(np.random.default_rng(0).random(4_000_000))  # 32 MB
    return float((_stream[0] * 1.5 + 2.0).sum())


def _cpu_seconds(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def loop_times():
    """CPU seconds of a pure-Python loop and of a numpy pass over 32 MB,
    each the best of two: how fast the host runs this process right now."""
    return [min(_cpu_seconds(loop) for _ in range(2)) for loop in (_python_loop, _numpy_pass)]


def host_scale(samples, pick=min) -> float:
    """Factor that rescales CPU times taken alongside `samples` (pairs from
    `loop_times`) to a host as fast as the reference one: the geometric mean
    over the two loops of reference time over `pick` of the times seen.
    Scale a least time by the least loop times, a median by the medians."""
    ratios = [ref / pick(column) for ref, column in zip(REFERENCE_LOOP_S, zip(*samples))]
    return math.prod(ratios) ** (1 / len(ratios))


def import_package():
    """Import the CLI from the checkout's sources; return (CPU, wall) seconds taken."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    start = _clocks()
    importlib.import_module("lpdensity.cli")
    return _since(start)


class Bench:
    """One workload's inputs, analyses and per-analysis checks."""

    def __init__(self, name: str, seed: int, work: Path, size: str = "full", reference=None):
        from lpdensity.cli import main

        self.name = name
        self.seed = seed
        self.work = Path(work)
        self.size = size
        self.reference = reference
        self.invocations = []
        self.attempted = 0
        self.failed = 0
        self._main = main
        self._previous = None

    def setup(self):
        """Write fresh inputs and run one checked warm-up analysis; return the
        (CPU, wall) seconds spent writing and analysing."""
        shutil.rmtree(self.work, ignore_errors=True)
        start = _clocks()
        self.invocations = write_inputs(self.name, self.seed, self.work, self.size)
        written = _since(start)
        analysed = self.run_once()
        return written[0] + analysed[0], written[1] + analysed[1]

    def analyse(self):
        """One analysis, untimed checks excluded: (CPU seconds, wall seconds,
        exit codes).  The clocks start when `main` is first called and stop
        when the last call has written its reports."""
        for _, out in self.invocations:
            shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        codes = []
        start = _clocks()
        for spec, out in self.invocations:
            try:
                codes.append(self._main(["run", "--spec", str(spec), "--out", str(out)]))
            except Exception:
                traceback.print_exc()
                codes.append(None)
        return (*_since(start), codes)

    def run_once(self):
        """One checked analysis; returns its (CPU, wall) seconds."""
        cpu, wall, codes = self.analyse()
        self.check(codes)
        return cpu, wall

    def check(self, codes) -> None:
        """Count one attempted analysis; any problem found makes it a failed
        one, reported on stderr."""
        problems = [f"exit code {c}" for c in codes if c != 0]
        snapshot, reports = {}, {}
        for _, out in self.invocations:
            for path in sorted(out.glob("*")):
                key = f"{out.name}/{path.name}"
                data = path.read_bytes()
                if path.name.endswith("_report.json"):
                    reports[key] = json.loads(data)
                    data = _TIMESTAMP.sub(b"", data)
                snapshot[key] = data
        for key, report in sorted(reports.items()):
            false = sorted(k for k, v in report["verdicts"].items() if v is not True)
            if false:
                problems.append(f"{key}: verdicts {false} are not true")
        if self.reference is not None:
            try:
                problems += mismatches(headline(self.name, reports), self.reference, "reference")
            except KeyError as exc:
                problems.append(f"report value missing: {exc}")
        if self._previous is not None and snapshot != self._previous:
            changed = sorted(
                k for k in snapshot.keys() | self._previous.keys() if snapshot.get(k) != self._previous.get(k)
            )
            problems.append(f"outputs differ from the previous analysis: {changed}")
        self._previous = snapshot
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"analysis {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)


def _measure_until(deadline: float, step, cost) -> list:
    """Call step() until the next call would end past the wall-clock
    `deadline`, judged by the median cost in seconds so far; at least once.
    Returns the results."""
    results = []
    while not results or time.perf_counter() + statistics.median(map(cost, results)) <= deadline:
        results.append(step())
    return results


def end_to_end(bench: Bench, import_s, seconds: float):
    """Everything inside `seconds`: one analysis under tracemalloc after the
    first set-up, then timed analyses with the other set-ups spread evenly
    between them.  Work that would end past `seconds` is left out, but at
    least one analysis is timed."""
    start = time.perf_counter()
    setups = [bench.setup()]
    memory_start = time.perf_counter()
    tracemalloc.start()
    try:
        _, _, codes = bench.analyse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    memory_s = time.perf_counter() - memory_start
    bench.check(codes)
    times, loops = [], []
    while True:
        now = time.perf_counter()
        typical = statistics.median(w for _, w in times) if times else setups[0][1]
        if times and now + typical > start + seconds:
            break
        if len(setups) < SETUPS and now >= start + seconds * len(setups) / SETUPS:
            setups.append(bench.setup())
        else:
            loops.append(loop_times())
            times.append(bench.run_once())
    cpu = [c for c, _ in times]
    setup_cpu = [import_s[0] + c for c, _ in setups]
    scale, typical_scale = host_scale(loops), host_scale(loops, statistics.median)
    metrics = {
        "analysis_s": {"value": min(cpu) * scale, "unit": "s"},
        "peak_alloc_mb": {"value": peak / 1e6, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_cpu) * typical_scale, "unit": "s"},
    }
    ms = " and ".join
    notes = [
        f"host scale {scale:.4f} from least loop CPU times "
        f"{ms(f'{min(c) * 1e3:.2f}' for c in zip(*loops))} ms, {typical_scale:.4f} from median ones "
        f"{ms(f'{statistics.median(c) * 1e3:.2f}' for c in zip(*loops))} ms; "
        f"reference {ms(f'{r * 1e3:.2f}' for r in REFERENCE_LOOP_S)} ms",
        f"analysis_s: least CPU time of {len(times)} timed analyses, times the least-time scale (median CPU "
        f"{statistics.median(cpu):.4f} s, median wall {statistics.median(w for _, w in times):.4f} s): "
        + " ".join(f"{t:.4f}" for t in cpu),
        f"setup_s: median CPU time of {len(setups)} set-ups spread over the run, times the median-time scale "
        f"(import {import_s[0]:.4f} s, inputs, one warm-up analysis; "
        f"median wall {statistics.median(import_s[1] + w for _, w in setups):.4f} s): "
        + " ".join(f"{t:.4f}" for t in setup_cpu),
        f"peak_alloc_mb: tracemalloc peak of one separate analysis ({memory_s:.1f} s wall)",
    ]
    return metrics, notes, []


def traced(bench: Bench, seconds: float, spans_path: Path):
    """Alternate untraced and traced analyses for `seconds`; per-layer metrics
    are medians of self time over the traced ones, counts must repeat."""
    bench.setup()
    tracer = Tracer()
    problems = []

    def pair_of_analyses():
        plain = bench.run_once()
        tracer.install()
        try:
            problems.extend(f"traced run bypasses the wrapper: {b}" for b in tracer.unwrapped_bindings())
            tracer.start(f"{bench.name}/seed-{bench.seed}/{len(tracer.traces)}")
            try:
                cpu, wall, codes = bench.analyse()
            finally:
                tracer.stop()
        finally:
            tracer.uninstall()
        # byte identity with the untraced analysis just before it
        bench.check(codes)
        return plain, (cpu, wall)

    pairs = _measure_until(time.perf_counter() + seconds, pair_of_analyses, cost=lambda p: p[0][1] + p[1][1])
    per_trace = [layer_metrics(t) for t in tracer.traces]
    counts = [{k: v for k, v in m.items() if not k.endswith("self_s")} for m in per_trace]
    if any(c != counts[0] for c in counts):
        problems.append("call or work counts differ between traced analyses")
    metrics = {}
    for key, value in per_trace[0].items():
        if key.endswith("self_s"):
            metrics[key] = {"value": statistics.median(m[key] for m in per_trace), "unit": "s"}
        elif key.endswith("_frac"):
            metrics[key] = {"value": value, "unit": "fraction"}
        else:
            metrics[key] = {"value": value, "unit": "count"}
    plain = statistics.median(p[0] for p, _ in pairs)
    with_trace = statistics.median(t[0] for _, t in pairs)
    metrics["trace_overhead_frac"] = {"value": with_trace / plain - 1, "unit": "fraction"}
    write_spans(tracer, spans_path)
    notes = [
        f"{len(pairs)} untraced and {len(pairs)} traced analyses; "
        f"median CPU time untraced {plain:.4f} s, traced {with_trace:.4f} s",
        f"spans written to {spans_path}",
    ]
    return metrics, notes, problems


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON line per span, and one per hot-call counter keyed by its parent span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    span_keys = ("span", "name", "parent", "start_ns", "end_ns", "child_ns")
    with path.open("w") as fh:
        for trace in tracer.traces:
            for span in trace.spans:
                fh.write(json.dumps({"trace": trace.label, **dict(zip(span_keys, span))}) + "\n")
            for (parent, name), (calls, self_ns) in sorted(trace.hot.items()):
                record = {"trace": trace.label, "parent": parent, "name": name, "calls": calls, "self_ns": self_ns}
                fh.write(json.dumps(record) + "\n")


def run_benchmark(workload, seed, seconds, trace, work=None, size="full", reference=None):
    """Run one benchmark invocation; return (result object, summary lines)."""
    import_s = import_package()
    work = Path(work) if work is not None else WORK / workload
    if reference is None and size == "full":
        reference = json.loads(REFERENCE.read_text()).get(workload)
    bench = Bench(workload, seed, work / "inputs", size=size, reference=reference)
    if trace:
        metrics, notes, problems = traced(bench, seconds, work / "spans.jsonl")
    else:
        metrics, notes, problems = end_to_end(bench, import_s, seconds)
    for problem in problems:
        print(f"self-test failed: {problem}", file=sys.stderr)
    fail_frac = bench.failed / bench.attempted
    if trace:
        metrics["fail_frac"] = {"value": fail_frac, "unit": "fraction"}
    lines = [f"workload {workload}  seed {seed}  size {size}  trace {int(bool(trace))}"]
    lines += [f"  {note}" for note in notes]
    lines += [f"  {name:<48} {m['value']!r} {m['unit']}" for name, m in sorted(metrics.items())]
    if not trace:
        lines.append(f"  {'fail_frac':<48} {fail_frac!r} fraction ({bench.failed} of {bench.attempted})")
    result = {
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
