"""Byte pins for the reports of the cube-measuring commands, haar-check,
blowup-witness, a density run over a CSV file and a bessel run over a system
file that names further files.

Each spec runs through `cli.main`, next to its input files; the report, with
its timestamp line removed, and any CSV table must hash to the recorded
sha256 digests.  The
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

# a 2-d witness, whose centre beta the report serializes
SPECS["blowup-witness"] = {
    "command": "blowup-witness",
    "f": BOX_2D,
    "f_dual": {"kind": "indicator", "box": {"lower": [0.0, 0.0], "upper": [0.5, 1.0]}},
    "points": {"kind": "lattice", "spacing": 0.25, "window": 2, "dimension": 2},
    "epsilon": 0.1,
    "p_prime": 2.0,
}
# f and f_dual whose lower corners tie on axis 0 under the shifts to most of
# these sites, since x + 1e-20 rounds to x: the witness scan and the direct
# Bessel sum pair translates whose pieces share an axis-0 corner
TIE_PIECES = {
    "dimension": 2,
    "pieces": [
        {"lower": [0.0, 5.0], "upper": [1.0, 6.0], "re": 1.0, "im": 0.0},
        {"lower": [1e-20, 0.0], "upper": [2.0, 1.0], "re": 5e-17, "im": 0.0},
        {"lower": [1e-20, 1.0], "upper": [2.0, 2.0], "re": 5e-17, "im": -1e-17},
    ],
}
SPECS["blowup-witness-tie"] = {
    "command": "blowup-witness",
    "f": TIE_PIECES,
    "f_dual": TIE_PIECES,
    "points": {
        "kind": "explicit",
        "rows": [[0.5, 0], [0, 0.125], [1, 0.25], [-0.25, 0.375], [0, 0.5], [0.75, 0.625], [0.125, 0.75]],
    },
    "epsilon": 0.25,
    "p_prime": 2,
}
# sites read from a CSV in a subdirectory through a relative {"path": ...}
SPECS["density-csv"] = {
    "command": "density",
    "points": {"path": "data/sites.csv"},
    "h_values": [1.0, 2.0, 4.0],
}
SITES_CSV = "x,y\n" + "".join(f"{k % 7 + 0.125 * (k % 3)!r},{k // 7 - 0.25 * (k % 2)!r}\n" for k in range(49))

# a system file whose generator names its own function and site files,
# read against data/; the report digests all three
SPECS["bessel-nested"] = {
    "command": "bessel",
    "system": {"path": "data/system.json"},
    "tests": [UNIT_1D, {"kind": "indicator", "box": {"lower": [-0.5], "upper": [0.75]}, "value": 2.0}],
    "p_prime": 1.5,
}
NESTED_SYSTEM = {"p": 3.0, "generators": [{"f": {"path": "unit.json"}, "gamma": {"path": "sites.csv"}}]}

# input files written next to each spec, by path relative to it
INPUTS = {
    "density-csv": {"data/sites.csv": SITES_CSV},
    "bessel-nested": {
        "data/system.json": json.dumps(NESTED_SYSTEM) + "\n",
        "data/unit.json": json.dumps(UNIT_1D) + "\n",
        "data/sites.csv": "x\n0.0\n1.0\n2.5\n-1.25\n",
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
        {"haar_check_report.json": "7a66b9c479ecfc761b987da245d7962e33fc30343cbf6aaf9d9a0e4dc4bc442a"},
    ),
    "haar-check-p1.5": (
        0,
        {"haar_check_report.json": "73b0d6875df638f2731f1cfbcc6ca6f699db8941fddf878336ac6627f31663e5"},
    ),
    "blowup-witness": (
        0,
        {"blowup_witness_report.json": "36b51600e17cbb09c44ebcb2e4a0fb1a5762f6598933c7dbeaba4d36fc41cdae"},
    ),
    "blowup-witness-tie": (
        0,
        {"blowup_witness_report.json": "ee97f2f61b30074a3644f06531187acd29f8549ac7a5a03dc806a38b3d227a31"},
    ),
    "bessel-nested": (
        0,
        {"bessel_report.json": "98c1ed5ce061015735f5963c3652a5df0c36bd54eacc5a1632bb7cd198fa237d"},
    ),
    "density-csv": (
        0,
        {
            "density_profile.csv": "5b1a766ee40f60b8e4e5efa7f48cd6726a012cb6841436e0df67fa1578b5d8ad",
            "density_report.json": "4e7fc6afec878086ccc5f2aa39afb3ce65ff9a4f804c4745427d3179c881ec83",
        },
    ),
}


def _digests(tmp_path, spec, inputs):
    spec_dir = tmp_path / "spec"
    spec_dir.mkdir()
    for rel, text in inputs.items():
        (spec_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        (spec_dir / rel).write_text(text)
    path = spec_dir / "spec.json"
    path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    code = main(["run", "--spec", str(path), "--out", str(out_dir)])
    out = {}
    for name in sorted(p.name for p in out_dir.iterdir()):
        lines = (out_dir / name).read_text().splitlines(keepends=True)
        kept = "".join(line for line in lines if '"timestamp"' not in line)
        out[name] = hashlib.sha256(kept.encode()).hexdigest()
    return code, out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_bytes_are_pinned(tmp_path, name):
    assert _digests(tmp_path, SPECS[name], INPUTS.get(name, {})) == PINNED[name]
