"""Per-layer call tracing applied from outside the package.

`Tracer.install` replaces each traced public function of `lpdensity` with a
timing wrapper in every module namespace that binds it: the package modules
import each other's functions with `from .x import y`, so patching only the
defining module would let most calls bypass the wrapper.  Constructors are
traced by patching `__init__` on the class, which every binding shares.

Each traced analysis is one trace.  Calls to analysis-level functions become
spans (id, name, parent id, start, end, time covered by child spans).  The
hot leaf calls (`pair`, `translate` and the two constructors) run millions
of times per analysis, so they are aggregated into counters keyed by their
parent span instead, which keeps memory bounded.  Self time is a call's
duration minus the time its traced children cover.
"""

import functools
import itertools
import sys
import time

PACKAGE = "lpdensity"

TRACED = {
    "pointset": (
        "PointSet.init",
        "make_lattice",
        "make_reciprocal",
        "union_point_sets",
        "min_separation",
        "decompose_separated",
        "nu_plus",
        "density_profile",
        "detect_accumulation",
        "grid_occupancy",
    ),
    "lpfunc": (
        "PiecewiseFn.init",
        "pair",
        "translate",
        "restrict",
        "canonicalize",
        "lp_norm_pow",
        "sample_catalog_function",
        "scale",
    ),
    "translate_system": (
        "bessel_sum",
        "bessel_bound_estimate",
        "blowup_witness",
        "cq_indicator_sweep",
        "system_localized_mass",
        "dichotomy_report",
    ),
    "haar_uncond": (
        "haar_fn",
        "dual_fn",
        "build_expansion_fn",
        "prop43_check",
        "coefficient_sandwich_check",
        "unconditional_constant_estimate",
    ),
    "io": ("ingest_points", "ingest_function", "ingest_system", "emit_json", "write_csv"),
    "cli": ("run",),
}

HOT = frozenset({"lpfunc.pair", "lpfunc.translate", "pointset.PointSet.init", "lpfunc.PiecewiseFn.init"})

# counters measured where the work happens, reported next to the call counts
PIECE_PAIRS = "lpfunc.pair.piece_pairs"
NONZERO_PAIRS = "lpfunc.pair.nonzero"
POINTS = "pointset.PointSet.points"


def traced_names() -> list:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


class Trace:
    """Everything recorded during one traced analysis."""

    def __init__(self, label: str, root_id: int):
        self.label = label
        self.root_id = root_id
        self.spans = []  # (span id, name, parent id, start ns, end ns, child ns)
        self.hot = {}  # (parent span id, name) -> [calls, self ns]
        self.counters = dict.fromkeys((PIECE_PAIRS, NONZERO_PAIRS, POINTS), 0)

    def totals(self) -> dict:
        """name -> [calls, self ns] over every traced function, including
        those never called."""
        out = {name: [0, 0] for name in traced_names()}
        for span_id, name, _, start, end, child in self.spans:
            if span_id != self.root_id:
                agg = out.setdefault(name, [0, 0])
                agg[0] += 1
                agg[1] += end - start - child
        for (_, name), (calls, self_ns) in self.hot.items():
            agg = out.setdefault(name, [0, 0])
            agg[0] += calls
            agg[1] += self_ns
        return out


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.traces = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._stack = []  # open frames: [span id, child ns]
        self._trace = None
        self._root_start = 0
        self._originals = {}  # id(original) -> original
        self._patches = []  # (namespace owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for module_name, names in TRACED.items():
            module = modules[f"{PACKAGE}.{module_name}"]
            for name in names:
                metric = f"{module_name}.{name}"
                if name.endswith(".init"):
                    cls = getattr(module, name.split(".")[0])
                    original = cls.__dict__["__init__"]
                    self._patch(cls, "__init__", original, self._wrap(metric, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(metric, original)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._originals[id(original)] = original
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list:
        """Namespace entries that still hold an original traced function; empty
        while the tracer is installed."""
        bad = []
        for mod_name, mod in package_modules().items():
            for key, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    bad.append(f"{mod_name}.{key}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    init = value.__dict__.get("__init__")
                    if init is not None and self._originals.get(id(init)) is init:
                        bad.append(f"{mod_name}.{key}.__init__")
        return bad

    # -- recording -----------------------------------------------------------

    def start(self, label: str) -> None:
        root = [next(self._ids), 0]
        self._trace = Trace(label, root[0])
        self._stack[:] = [root]
        self._root_start = self._clock()

    def stop(self) -> Trace:
        end = self._clock()
        root_id, child = self._stack.pop()
        trace = self._trace
        trace.spans.append((root_id, "analysis", 0, self._root_start, end, child))
        self.traces.append(trace)
        self._trace = None
        return trace

    def _wrap(self, metric: str, fn):
        if metric in HOT:
            return self._hot_wrapper(metric, fn)
        return self._span_wrapper(metric, fn)

    def _span_wrapper(self, metric: str, fn):
        clock = self._clock
        stack = self._stack
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                self._trace.spans.append((frame[0], metric, parent[0], start, end, frame[1]))

        return wrapper

    def _hot_wrapper(self, metric: str, fn):
        clock = self._clock
        stack = self._stack
        count = _WORK_COUNTS.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                agg = self._trace.hot.setdefault((parent[0], metric), [0, 0])
                agg[0] += 1
                agg[1] += elapsed - frame[1]
            if count is not None:
                count(self._trace.counters, args, result)
            return result

        return wrapper


def _count_pair(counters, args, result):
    h, f = args
    counters[PIECE_PAIRS] += len(h.pieces) * len(f.pieces)
    counters[NONZERO_PAIRS] += result != 0


def _count_points(counters, args, result):
    counters[POINTS] += len(args[0].points)


_WORK_COUNTS = {"lpfunc.pair": _count_pair, "pointset.PointSet.init": _count_points}


def package_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def layer_metrics(trace: Trace) -> dict:
    """Per-function calls and self seconds, per-module self seconds and the
    work counters of one trace, as metric name -> value."""
    out = {}
    module_self = dict.fromkeys(TRACED, 0)
    for name, (calls, self_ns) in trace.totals().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9
        module_self[name.split(".")[0]] += self_ns
    for module, self_ns in module_self.items():
        out[f"{module}.self_s"] = self_ns / 1e9
    calls = out["lpfunc.pair.calls"]
    out[PIECE_PAIRS] = trace.counters[PIECE_PAIRS]
    out["lpfunc.pair.nonzero_frac"] = trace.counters[NONZERO_PAIRS] / calls if calls else 0.0
    out[POINTS] = trace.counters[POINTS]
    return out
