"""Byte pins for the reports of the cube-measuring commands and haar-check.

Each spec runs through `cli.main`; the report, with its timestamp line
removed, and any CSV table must hash to the recorded sha256 digests.  The
digests pin the exact bytes, so a change that moves any float of these
reports by one ulp, or renames a field, fails here.  The haar-check reports
also hold values rounded by numpy (the sandwich flanks and the
unconditional constant estimate), so their digests hold for numpy builds
that round those as the one they were recorded with.
"""

import hashlib
import json

import pytest

from lpdensity.cli import main

UNIT_1D = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}
BOX_2D = {"kind": "indicator", "box": {"lower": [0.0, 0.0], "upper": [1.0, 0.5]}, "value": 0.75}
LATTICE_2D = {"kind": "lattice", "spacing": 0.5, "window": 3, "dimension": 2}
SHEARED_2D = {
    "kind": "lattice",
    "basis": [[1.0, 0.5], [0.0, 1.0]],
    "window": 3,
    "offset": [0.1, 0.2],
}
SLAB_2D = {
    "dimension": 2,
    "pieces": [
        {"lower": [-0.25, 0.0], "upper": [0.25, 1.0], "re": 1.0, "im": -0.5},
        {"lower": [0.25, 0.0], "upper": [0.7, 0.3], "re": 0.3, "im": 0.0},
    ],
}

SPECS = {
    "localized-mass-1d": {
        "command": "localized-mass",
        "generator": {
            "f": UNIT_1D,
            "gamma": {"kind": "lattice", "spacing": 0.3, "window": 10, "dimension": 1},
        },
        "cube": {"center": [-0.3], "side": 0.7},
        "p": 1.5,
    },
    "localized-mass-2d": {
        "command": "localized-mass",
        "generator": {"f": BOX_2D, "gamma": LATTICE_2D, "label": "half-lattice"},
        "cube": {"center": [0.2, -1.1], "side": 1.3},
        "p": 3.0,
    },
    "mass-decay": {
        "command": "mass-decay",
        "generator": {
            "f": {"kind": "indicator", "box": {"lower": [0.0], "upper": [0.01]}},
            "gamma": {"kind": "reciprocal", "N": 40},
        },
        "x": [0.05],
        "h_values": [0.5, 0.2, 0.1, 0.05, 0.02],
        "p": 1.5,
    },
    "cq-sweep": {
        "command": "cq-sweep",
        "system": {
            "p": 3.0,
            "generators": [
                {"f": BOX_2D, "gamma": LATTICE_2D, "label": "half-lattice"},
                {"f": SLAB_2D, "gamma": SHEARED_2D, "label": "sheared"},
            ],
        },
        "h_values": [0.5, 0.3, 0.2, 0.1],
    },
    # exhaustive sign patterns (12 terms) at p = 3, sampled ones at p = 1.5
    "haar-check-p3": {
        "command": "haar-check",
        "p": 3.0,
        "seed": 11,
        "cutoff": 6,
        "num_tests": 4,
        "batch_size": 40,
    },
    "haar-check-p1.5": {
        "command": "haar-check",
        "p": 1.5,
        "seed": 12,
        "cutoff": 5,
        "num_tests": 4,
        "batch_size": 40,
        "terms": 14,
        "trials": 64,
    },
}

# (exit code, {file name: sha256 of its bytes, timestamp line removed})
PINNED = {
    "localized-mass-1d": (
        0,
        {"localized_mass_report.json": "d8940e5852c5030808b8085bd63c296051ce980351e0c1ede3be0d4aed457d8b"},
    ),
    "localized-mass-2d": (
        0,
        {"localized_mass_report.json": "5da942367b340e7dbf379e5e529737cffd54530bdf454e1ea884ab86f878b07b"},
    ),
    "mass-decay": (
        0,
        {"mass_decay_report.json": "071c84755c9e674e8d5c64931d3dd7206685966b279ffed0aada658f02eae251"},
    ),
    "cq-sweep": (
        0,
        {
            "cq_sweep.csv": "83b9f81fc2cc91e3ecd48d0ec56c6a3ed8ac2134edf9f543d789de16d266ec9f",
            "cq_sweep_report.json": "ceddfefcd76bcc0820b3825d05ade76ad82d46923f2ebcc4a474671ecd0b8573",
        },
    ),
    "haar-check-p3": (
        0,
        {"haar_check_report.json": "cfcd5837d26415fe700746b51b44b4e55faac1ef613901a6ce5f529e4fe7fed1"},
    ),
    "haar-check-p1.5": (
        0,
        {"haar_check_report.json": "0fbd076474b4ce000f5711d7bd127921caca43822c8a8bf323e4fb2821d3a890"},
    ),
}


def _digests(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["run", "--spec", str(path), "--out", str(tmp_path)])
    out = {}
    for name in sorted(p.name for p in tmp_path.iterdir() if p.name != "spec.json"):
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        kept = "".join(line for line in lines if '"timestamp"' not in line)
        out[name] = hashlib.sha256(kept.encode()).hexdigest()
    return code, out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_bytes_are_pinned(tmp_path, name):
    assert _digests(tmp_path, SPECS[name]) == PINNED[name]
