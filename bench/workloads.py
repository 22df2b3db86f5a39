"""The benchmark's workloads: seeded input files, chained `run` specs, and the
headline values each analysis is checked against.

A workload is a list of CLI invocations.  Each invocation is one spec file
(a chained `run` list) plus its own output directory; the program sees only
the files written here and the arguments passed to `main`.

Sizes are fixed per workload under "full"; "tiny" keeps every command and
code path but shrinks the inputs so the benchmark's own tests run in seconds.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = (
    "lattice2d-geometry",
    "gaussian-bessel",
    "reciprocal-dichotomy",
    "haar-contrast",
)

SIZES = {
    "full": {
        "lattice_window": 20,
        "lattice_h": [1, 2, 4, 8, 16, 32],
        "jitter_points": 1600,
        "gauss_window": 20,
        "gauss_step": 1 / 32,
        "gauss_test_step": 1 / 128,
        "gauss_h": [0.5, 0.25, 0.125, 0.0625, 0.03125],
        "recip_radii": [70, 140, 280],
        "haar": {"cutoff": 8, "num_tests": 20, "batch_size": 300},
    },
    "tiny": {
        "lattice_window": 6,
        "lattice_h": [1, 2, 4, 8],
        "jitter_points": 60,
        "gauss_window": 8,
        "gauss_step": 1 / 8,
        "gauss_test_step": 1 / 16,
        "gauss_h": [0.5, 0.25, 0.125, 0.0625],
        "recip_radii": [40, 60],
        "haar": {"cutoff": 3, "num_tests": 2, "batch_size": 10},
    },
}

UNIT = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")


def _jittered_csv(path: Path, count: int, rng: random.Random) -> None:
    """`count` distinct 2-d points: a square grid of spacing 1, each point
    moved by up to 0.3 per axis.  Floats are written with repr, which
    round-trips exactly."""
    side = math.isqrt(count - 1) + 1
    rows = []
    seen = set()
    for k in range(count):
        while True:
            row = (k % side + rng.uniform(-0.3, 0.3), k // side + rng.uniform(-0.3, 0.3))
            if row not in seen:
                break
        seen.add(row)
        rows.append(row)
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))


def _gaussian_pieces(step: float, half_width: float = 3.0) -> dict:
    """Explicit-piece spec of the midpoint-sampled Gaussian on [-3, 3)."""
    count = round(2 * half_width / step)
    pieces = []
    for i in range(count):
        lo = -half_width + i * step
        up = lo + step
        mid = (lo + up) / 2
        pieces.append({"lower": [lo], "upper": [up], "re": math.exp(-mid * mid)})
    return {"dimension": 1, "pieces": pieces}


def write_inputs(name: str, seed: int, work: Path, size: str = "full") -> list:
    """Write the workload's input files under `work`; return its invocations
    as (spec path, output directory) pairs, in the order they run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    z = SIZES[size]
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    if name == "lattice2d-geometry":
        lattice = {
            "kind": "lattice",
            "spacing": 1.0,
            "window": z["lattice_window"],
            "dimension": 2,
        }
        _write_json(
            work / "lattice.json",
            [
                {"command": "density", "points": lattice, "h_values": z["lattice_h"]},
                {"command": "separate", "points": lattice, "delta": 1.5},
            ],
        )
        _jittered_csv(work / "jitter.csv", z["jitter_points"], rng)
        # a second invocation: `run` names reports by command, so a second
        # density entry in the same chain would overwrite the first report
        _write_json(
            work / "jitter.json",
            [{"command": "density", "points": "jitter.csv", "h_values": z["lattice_h"]}],
        )
        return [(work / "lattice.json", work / "out-lattice"), (work / "jitter.json", work / "out-jitter")]
    if name == "gaussian-bessel":
        _write_json(work / "gauss_test.json", _gaussian_pieces(z["gauss_test_step"]))
        gauss = {
            "kind": "sampled",
            "expression": "gaussian",
            "step": z["gauss_step"],
            "support": {"lower": [-3.0], "upper": [3.0]},
        }
        system = {
            "p": 2.0,
            "generators": [
                {
                    "f": gauss,
                    "gamma": {
                        "kind": "lattice",
                        "spacing": 3.0,
                        "window": z["gauss_window"],
                        "dimension": 1,
                    },
                    "label": "gauss",
                }
            ],
        }
        _write_json(
            work / "gauss.json",
            [
                {
                    "command": "bessel",
                    "system": system,
                    "tests": [{"path": "gauss_test.json"}],
                    "p_prime": 2.0,
                },
                {"command": "cq-sweep", "system": system, "h_values": z["gauss_h"]},
            ],
        )
        return [(work / "gauss.json", work / "out")]
    if name == "reciprocal-dichotomy":
        radii = z["recip_radii"]
        system = {
            "p": 2.0,
            "generators": [
                {"f": UNIT, "gamma": {"kind": "reciprocal", "N": radii[0]}, "label": "recip"},
                {
                    "f": UNIT,
                    "gamma": {"kind": "lattice", "spacing": 1.0, "window": radii[0], "dimension": 1},
                    "label": "Z",
                },
            ],
        }
        _write_json(
            work / "dichotomy.json",
            [
                {
                    "command": "dichotomy",
                    "system": system,
                    "truncation_radii": radii,
                    "h_values": [0.25, 0.125],
                    "p_prime": 2.0,
                }
            ],
        )
        return [(work / "dichotomy.json", work / "out")]
    haar_seed = rng.randrange(2**31)
    _write_json(
        work / "haar.json",
        [{"command": "haar-check", "p": 3.0, "seed": haar_seed, **z["haar"]}],
    )
    return [(work / "haar.json", work / "out")]


# ---------------------------------------------------------------------------
# headline values


def headline(name: str, reports: dict) -> dict:
    """The values pinned for `name`, read from its parsed reports.

    `reports` maps "<output dir name>/<report file name>" to parsed JSON.
    Seeded workloads pin nothing: their reports are checked by their own
    verdicts and by rep-to-rep byte identity.
    """
    if name == "lattice2d-geometry":
        sep = reports["out-lattice/separate_report.json"]["outputs"]["separation"]
        rows = reports["out-lattice/density_report.json"]["outputs"]["profile"]["rows"]
        return {
            "part_count": sep["part_count"],
            "min_gap": sep["min_gap"],
            "nu": [[r["h"], r["nu_lower"], r["nu_upper"]] for r in rows],
        }
    if name == "gaussian-bessel":
        bessel = reports["out/bessel_report.json"]["outputs"]["bessel"]
        sweep = reports["out/cq_sweep_report.json"]["outputs"]["sweep"]
        return {
            "bessel_bound": bessel["bound_estimate"],
            "k_required": [r["k_required"] for r in sweep["rows"]],
            "verdict": sweep["verdict"],
        }
    if name == "reciprocal-dichotomy":
        dich = reports["out/dichotomy_report.json"]["outputs"]["dichotomy"]
        return {
            "horn": dich["horn"],
            "witness_counts": [r["witness_count"] for r in dich["bessel_rows"]],
            "subadditivity_rows": [
                [r["h"], r["union_count"], r["parts_sum"], r["holds"]]
                for r in dich["subadditivity_rows"]
            ],
        }
    return {}


def mismatches(got, want, path: str = "", rel: float = 1e-12) -> list:
    """Where `got` differs from the reference `want`: integers, strings and
    booleans exactly, floats within `rel` relative, lists element-wise."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return [f"{path}: {got!r} != {want!r}"]
        if got == want or abs(got - want) <= rel * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{path}.{k}", rel)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]", rel)]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
