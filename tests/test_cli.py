"""Experiment runner: spec dispatch, file formats, exit codes, determinism."""

import cmath
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import HaarIndex, PointSet, make_lattice, make_reciprocal
from lpdensity import cli, lpfunc, pointset, translate_system
from lpdensity.cli import main
from lpdensity.lpfunc import pair, pair_modulated
from lpdensity.io import emit_json, ingest_function, ingest_points
from lpdensity.pointset import UnionProvenance

from oracles import (
    brute_nu_plus,
    expansion_from_draws,
    function_spec,
    interval,
    point_set_spec,
    riemann_value,
    scalar_count,
)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def points_to_csv(s, path):
    """Write each site of s as one CSV row of .17g coordinates."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([format(c, ".17g") for c in row] for row in s.as_array.tolist())


def read_report(tmp_path, command):
    path = tmp_path / f"{command.replace('-', '_')}_report.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# ingestion round trips


def test_points_csv_round_trip(tmp_path):
    s = make_lattice(0.5, 3, 2)
    path = tmp_path / "pts.csv"
    points_to_csv(s, path)
    back = ingest_points(str(path))
    assert back.points == s.points


def test_three_column_csv_gives_3d_points(tmp_path):
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(100, 3))
    path = tmp_path / "cloud.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    s = ingest_points(str(path))
    assert s.dimension == 3
    assert len(s) == 100


def test_point_set_spec_round_trip():
    s = PointSet(((0.5, 1.0), (-1.25, 3.0)))
    assert ingest_points(point_set_spec(s)).points == s.points


def test_function_spec_round_trip():
    f = interval(0.25, 1.5, 2.0 - 1.0j)
    assert ingest_function(function_spec(f)) == f


def test_reciprocal_descriptor():
    s = ingest_points({"kind": "reciprocal", "N": 50})
    assert len(s) == 50
    assert min(p[0] for p in s.points) == pytest.approx(1 / 50)
    alias = ingest_points({"kind": "reciprocal", "count": 50})
    assert alias.points == s.points


def test_union_descriptor_with_children():
    s = ingest_points(
        {
            "kind": "union",
            "children": [
                {"label": "a", "points": {"kind": "lattice", "spacing": 1.0, "window": 3, "dimension": 1}},
                {"label": "b", "points": {"kind": "explicit", "rows": [[0.5], [1.5]]}},
            ],
        }
    )
    assert len(s) == 9
    assert isinstance(s.provenance, UnionProvenance)


def test_shifted_lattice_descriptor():
    s = ingest_points(
        {"kind": "lattice", "spacing": 1.0, "window": 3, "dimension": 1, "offset": [0.25]}
    )
    assert all((p[0] - 0.25) == int(p[0] - 0.25) for p in s.points)
    assert max(abs(p[0]) for p in s.points) <= 3.0


def test_csv_duplicate_row_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x\n1.0\n2.0\n1.0\n")
    with pytest.raises(Exception, match="duplicate"):
        ingest_points(str(path))


def test_overlapping_pieces_canonicalized_with_warning():
    spec = {
        "dimension": 1,
        "pieces": [
            {"lower": [0.0], "upper": [1.0], "re": 1.0},
            {"lower": [0.5], "upper": [1.5], "re": 1.0},
        ],
    }
    with pytest.warns(UserWarning, match="canonicaliz"):
        f = ingest_function(spec)
    assert riemann_value(f, np.array([0.25, 0.75, 1.25])).tolist() == [1.0, 2.0, 1.0]


def test_emit_json_17_digits_and_specials():
    txt = emit_json({"a": 1.0 / 3.0, "b": math.inf, "c": [1, True, None]})
    assert "0.33333333333333331" in txt
    assert "Infinity" in txt
    assert json.loads(txt)["a"] == 1.0 / 3.0


# ---------------------------------------------------------------------------
# commands and exit codes


def test_density_command_on_lattice_csv(tmp_path):
    points_to_csv(make_lattice(1.0, 60, 1), tmp_path / "z.csv")
    spec = write_spec(
        tmp_path,
        "density.json",
        {"points": {"path": "z.csv"}, "h_values": [2.0, 4.0, 8.0]},
    )
    assert main(["density", "--spec", spec, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "density")
    assert report["outputs"]["profile"]["density_estimate"] == pytest.approx(1.0)
    csv_lines = (tmp_path / "density_profile.csv").read_text().splitlines()
    assert csv_lines[0] == "h,nu_lower,nu_upper,ratio_lower,ratio_upper"
    assert len(csv_lines) == 4
    # the run recorded a digest of the ingested CSV
    assert "z.csv" in report["provenance"]["inputs"]


def test_missing_input_file_exits_2(tmp_path):
    spec = write_spec(
        tmp_path, "bad.json", {"points": {"path": "nope.csv"}, "h_values": [1.0]}
    )
    assert main(["density", "--spec", spec, "--out", str(tmp_path)]) == 2


def test_malformed_spec_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["density", "--spec", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("content", [b'{"h_values": [1.0]} \xe9', b"\xff\xfe{"])
def test_spec_file_that_is_no_utf8_json_exits_2(tmp_path, capsys, content):
    (tmp_path / "spec.json").write_bytes(content)
    assert main(["density", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert "cannot parse" in err and "\n" not in err


def test_duplicate_csv_row_exits_3(tmp_path):
    (tmp_path / "dup.csv").write_text("1.0\n1.0\n")
    spec = write_spec(
        tmp_path, "dup.json", {"points": {"path": "dup.csv"}, "h_values": [1.0]}
    )
    assert main(["density", "--spec", spec, "--out", str(tmp_path)]) == 3


def test_window_precondition_exits_3(tmp_path):
    spec = write_spec(
        tmp_path,
        "density.json",
        {
            "points": {"kind": "lattice", "spacing": 1.0, "window": 5, "dimension": 1},
            "h_values": [20.0],
        },
    )
    assert main(["density", "--spec", spec, "--out", str(tmp_path)]) == 3


UNIT_SPEC = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}


def _run_exit(tmp_path, capsys, payload):
    spec = write_spec(tmp_path, "spec.json", payload)
    code = main(["run", "--spec", spec, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err.strip()


def test_cube_without_side_exits_2(tmp_path, capsys):
    lattice = {"kind": "lattice", "spacing": 1.0, "window": 5, "dimension": 1}
    code, err = _run_exit(
        tmp_path,
        capsys,
        {
            "command": "localized-mass",
            "generator": {"f": UNIT_SPEC, "gamma": lattice},
            "cube": {"center": [0.0]},
            "p": 2.0,
        },
    )
    assert code == 2 and "'side'" in err and "\n" not in err
    # the same omission inside a function spec
    code, err = _run_exit(
        tmp_path,
        capsys,
        {"command": "pair", "h": {"kind": "indicator", "cube": {"center": [0.0]}}, "f": UNIT_SPEC},
    )
    assert code == 2 and "'side'" in err and "\n" not in err


def test_singular_lattice_basis_exits_2(tmp_path, capsys):
    code, err = _run_exit(
        tmp_path,
        capsys,
        {
            "command": "density",
            "points": {"kind": "lattice", "basis": [[1.0, 0.0], [2.0, 0.0]], "window": 3},
            "h_values": [1.0, 2.0],
        },
    )
    assert code == 2 and "not invertible" in err and "\n" not in err


def test_non_numeric_h_values_exit_2(tmp_path, capsys):
    lattice = {"kind": "lattice", "spacing": 1.0, "window": 5, "dimension": 1}
    code, err = _run_exit(
        tmp_path, capsys, {"command": "density", "points": lattice, "h_values": ["x"]}
    )
    assert code == 2 and "h_values" in err and "\n" not in err


def test_cq_sweep_command(tmp_path):
    spec = write_spec(
        tmp_path,
        "sweep.json",
        {
            "system": {
                "p": 2.0,
                "generators": [
                    {
                        "f": {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}},
                        "gamma": {"kind": "lattice", "spacing": 1.0, "window": 20, "dimension": 1},
                        "label": "Z",
                    }
                ],
            },
            "h_values": [2.0**-k for k in range(2, 9)],
        },
    )
    assert main(["cq-sweep", "--spec", spec, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "cq-sweep")
    assert report["outputs"]["sweep"]["verdict"] == "divergent"
    assert report["verdicts"]["proof_inequality"] is True
    lines = (tmp_path / "cq_sweep.csv").read_text().splitlines()
    header, first = lines[0].split(","), lines[1].split(",")
    k = float(first[header.index("K_required")])
    h = float(first[header.index("h")])
    assert k == pytest.approx(h**-0.5, rel=1e-12)


def test_pair_and_modulated_commands(tmp_path):
    fn_spec = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}
    spec = write_spec(tmp_path, "pair.json", {"h": fn_spec, "f": fn_spec})
    assert main(["pair", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "pair")["outputs"]["pairing"]["re"] == 1.0
    spec2 = write_spec(tmp_path, "mod.json", {"h": fn_spec, "freq": [1.0]})
    assert main(["pair", "--spec", spec2, "--out", str(tmp_path)]) == 0
    got = read_report(tmp_path, "pair")["outputs"]["modulated_pairing"]
    assert abs(complex(got["re"], got["im"])) < 1e-15


def test_blowup_command_sound(tmp_path):
    spec = write_spec(
        tmp_path,
        "blowup.json",
        {
            "f": {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}},
            "f_dual": {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}},
            "points": {
                "kind": "explicit",
                "rows": [[k / 40] for k in range(40)],
            },
            "epsilon": 0.5,
            "p_prime": 2.0,
        },
    )
    assert main(["blowup-witness", "--spec", spec, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "blowup-witness")
    assert report["verdicts"]["witness_sound"] is True
    assert report["outputs"]["witness"]["count"] >= 30


TENT = {
    "kind": "sampled",
    "expression": "tent",
    "step": 0.125,
    "support": {"lower": [-1.0], "upper": [1.0]},
}


def test_blowup_witness_on_sampled_tents_reaches_the_pruned_kernel(tmp_path, capsys):
    # 16 pieces against 16 make more piece pairs than the kernel evaluates
    # densely, so each centre is scored by the pruned sums
    payload = {
        "command": "blowup-witness",
        "f": TENT,
        "f_dual": TENT,
        "points": {"kind": "reciprocal", "N": 40},
        "epsilon": 0.3,
        "p_prime": 2.0,
    }
    with mock.patch.object(lpfunc, "_pruned_sums", wraps=lpfunc._pruned_sums) as pruned:
        code, err = _run_exit(tmp_path, capsys, payload)
    witness = read_report(tmp_path, "blowup-witness")["outputs"]["witness"]
    assert code == 0 and err == "" and pruned.call_count > 0
    tent = ingest_function(TENT)
    assert witness["count"] == 40
    assert witness["count"] == scalar_count(tent, tent, make_reciprocal(40), witness["beta"], 0.3)


def test_separate_bessel_mass_commands(tmp_path):
    unit_fn = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}
    lattice = {"kind": "lattice", "spacing": 1.0, "window": 20, "dimension": 1}
    gen = {"f": unit_fn, "gamma": lattice, "label": "Z"}

    sep = write_spec(
        tmp_path,
        "sep.json",
        {"points": {"kind": "explicit", "rows": [[0.0], [0.1], [1.0], [1.1]]}, "delta": 0.5},
    )
    assert main(["separate", "--spec", sep, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "separate")["outputs"]["separation"]["part_count"] == 2

    bes = write_spec(
        tmp_path,
        "bessel.json",
        {"system": {"p": 2.0, "generators": [gen]}, "tests": [unit_fn], "p_prime": 2.0},
    )
    assert main(["bessel", "--spec", bes, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "bessel")["outputs"]["bessel"]["bound_estimate"] == 1.0

    lm = write_spec(
        tmp_path,
        "mass.json",
        {"generator": gen, "cube": {"center": [0.0], "side": 0.5}, "p": 2.0},
    )
    assert main(["localized-mass", "--spec", lm, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "localized-mass")
    assert report["outputs"]["localized_mass"]["total"] == 0.5
    assert report["verdicts"]["mass_within_bound"] is True

    md = write_spec(
        tmp_path,
        "decay.json",
        {
            "generator": gen,
            "x": [0.0],
            "h_values": [0.5, 0.25, 0.125],
            "p": 2.0,
            "tolerance": 0.2,
        },
    )
    assert main(["mass-decay", "--spec", md, "--out", str(tmp_path)]) == 0
    verdicts = read_report(tmp_path, "mass-decay")["verdicts"]
    assert verdicts == {"monotone": True, "decays_below_tolerance": True}


def test_haar_check_requires_seed(tmp_path):
    spec = write_spec(tmp_path, "haar.json", {"p": 1.5, "num_tests": 3, "batch_size": 20})
    assert main(["haar-check", "--spec", spec, "--out", str(tmp_path)]) == 3
    assert main(["haar-check", "--spec", spec, "--out", str(tmp_path), "--seed", "7"]) == 0
    report = read_report(tmp_path, "haar-check")
    assert report["verdicts"]["biorthogonal_offdiag_zero"] is True
    assert report["provenance"]["seed"] == 7


def test_dichotomy_command(tmp_path):
    spec = write_spec(
        tmp_path,
        "dich.json",
        {
            "system": {
                "p": 2.0,
                "generators": [
                    {
                        "f": {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}},
                        "gamma": {"kind": "lattice", "spacing": 1.0, "window": 20, "dimension": 1},
                        "label": "Z",
                    }
                ],
            },
            "truncation_radii": [5, 10, 20],
            "h_values": [2.0**-k for k in range(2, 8)],
            "p_prime": 2.0,
        },
    )
    assert main(["dichotomy", "--spec", spec, "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path, "dichotomy")
    assert report["outputs"]["dichotomy"]["horn"] == "cq_divergent"
    assert report["verdicts"]["dichotomy_holds"] is True


def test_dichotomy_in_the_plane(tmp_path, capsys):
    # the unit square over the lattice of spacing 0.02: an inner site has 20
    # others within 0.05, past the threshold of 10, so each truncation needs
    # a witness, found in the plane.  At beta = 0 a
    # site x counts where (1 - |x_0|)(1 - |x_1|) > 1/2, so all 441 sites of
    # radius 0.2 and all but the 4 corners of radius 0.3; the sweep's tests
    # reach past both windows
    square = {"kind": "indicator", "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}
    fine = {"kind": "lattice", "spacing": 0.02, "window": 0.3, "dimension": 2}
    system = {"p": 2.0, "generators": [{"f": square, "gamma": fine}]}
    payload = {**DICHOTOMY, "system": system, "truncation_radii": [0.2, 0.3], "h_values": [0.25, 0.125]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_exit(tmp_path, capsys, payload) == (0, "")
    dichotomy = read_report(tmp_path, "dichotomy")["outputs"]["dichotomy"]
    assert dichotomy["accumulation_detected"] is True
    assert [r["witness_count"] for r in dichotomy["bessel_rows"]] == [441, 957]
    assert [r["total_sites"] for r in dichotomy["density_rows"]] == [441, 961]
    assert dichotomy["horn"] == "bessel_divergent"
    assert dichotomy["cq_failure"].startswith("truncation too small")


def test_undetermined_dichotomy_exits_4(tmp_path):
    # the sweep's reach check blocks the cq horn and the Bessel ratios stay
    # flat, so no divergent horn can be certified: a declared verdict failure
    spec = write_spec(
        tmp_path,
        "undetermined.json",
        {
            "system": {
                "p": 2.0,
                "generators": [
                    {
                        "f": {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}},
                        "gamma": {"kind": "lattice", "spacing": 1.0, "window": 1, "dimension": 1},
                        "label": "tiny",
                    }
                ],
            },
            "truncation_radii": [0.5, 1.0],
            "h_values": [1.0, 0.5],
            "p_prime": 2.0,
        },
    )
    assert main(["dichotomy", "--spec", spec, "--out", str(tmp_path)]) == 4
    report = read_report(tmp_path, "dichotomy")
    assert report["verdicts"]["dichotomy_holds"] is False
    assert report["outputs"]["dichotomy"]["cq_failure"] is not None


def test_dichotomy_with_both_horns_divergent(tmp_path, capsys):
    # the truncations of Z at radii 1 and 2 hold 3 and 5 sites, all inside
    # the test [-10, 10), so the Bessel ratio reads 0.15 then 0.25 and moves
    # by 0.4; the sweep reads K_required = h^(-1/2), slope 0.5, so the cq
    # horn diverges too
    spec = write_spec(
        tmp_path,
        "both.json",
        {
            "system": {
                "p": 2.0,
                "generators": [
                    {
                        "f": {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}},
                        "gamma": {"kind": "lattice", "spacing": 1.0, "window": 1, "dimension": 1},
                        "label": "Z",
                    }
                ],
            },
            "truncation_radii": [1, 2],
            "h_values": [0.25, 0.125],
            "p_prime": 2.0,
            "bessel_tests": [{"kind": "indicator", "box": {"lower": [-10.0], "upper": [10.0]}}],
        },
    )
    assert main(["dichotomy", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = read_report(tmp_path, "dichotomy")
    dichotomy = report["outputs"]["dichotomy"]
    assert dichotomy["horn"] == "both_divergent"
    assert dichotomy["bessel_variation"] == 0.4
    assert dichotomy["cq_bounded"] is False and dichotomy["cq_failure"] is None
    assert report["verdicts"]["dichotomy_holds"] is True


UNION = {
    "kind": "union",
    "children": [
        {"label": "Z", "points": {"kind": "lattice", "spacing": 1.0, "window": 20, "dimension": 1}},
        {"label": "recip", "points": {"kind": "reciprocal", "N": 40}},
    ],
}


def test_density_on_a_union_reads_its_members_provenance(tmp_path, capsys):
    # the reciprocal member makes the union a truncated family, and the
    # lattice member bounds its window extent at 40
    h_values = [1.0, 2.0, 4.0]
    code, err = _run_exit(tmp_path, capsys, {**_density(UNION), "h_values": h_values})
    profile = read_report(tmp_path, "density")["outputs"]["profile"]
    assert code == 0 and err == "" and profile["truncation_bias"] is True
    rows = ingest_points(UNION).points
    assert [r["nu_lower"] for r in profile["rows"]] == [brute_nu_plus(rows, h) for h in h_values]
    code, err = _run_exit(tmp_path, capsys, {**_density(UNION), "h_values": [41.0]})
    assert code == 3 and err.endswith("h=41.0 exceeds the generator window extent 40.0")


def test_dichotomy_regrows_a_union_generator(tmp_path, capsys):
    system = {"p": 2.0, "generators": [{"f": UNIT_SPEC, "gamma": UNION, "label": "U"}]}
    payload = {
        "command": "dichotomy",
        "system": system,
        "truncation_radii": [10, 20, 40],
        "h_values": [0.25, 0.125],
        "p_prime": 2.0,
    }
    code, err = _run_exit(tmp_path, capsys, payload)
    dichotomy = read_report(tmp_path, "dichotomy")["outputs"]["dichotomy"]
    assert code == 0 and err == "" and dichotomy["horn"] == "bessel_divergent"
    # each radius r regrows both members, Z in [-r, r] and 1/n for n <= r,
    # which share the site 1
    assert [r["total_sites"] for r in dichotomy["density_rows"]] == [30, 60, 120]


def test_run_subcommand_chains_specs(tmp_path):
    fn_spec = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}
    chain = [
        {"command": "pair", "h": fn_spec, "f": fn_spec},
        {
            "command": "density",
            "points": {"kind": "lattice", "spacing": 0.5, "window": 30, "dimension": 1},
            "h_values": [2.0, 4.0],
        },
    ]
    spec = write_spec(tmp_path, "chain.json", chain)
    assert main(["run", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "density")["outputs"]["profile"]["density_estimate"] == 2.0


def test_subcommand_spec_command_mismatch(tmp_path):
    spec = write_spec(tmp_path, "x.json", {"command": "separate", "points": {}, "delta": 1})
    assert main(["density", "--spec", spec, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", [*cli.COMMANDS, "run"])
def test_every_command_name_parses(tmp_path, capsys, command):
    # the parse succeeds, and the run stops at the missing spec file
    assert len(cli.COMMANDS) == 10
    assert main([command, "--spec", str(tmp_path / "none.json"), "--seed", "3"]) == 2
    assert "spec file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["densty", "--spec", "x.json"],
        ["density"],
        ["run", "--spec", "x.json", "--seed", "1.5"],
        ["--spec", "x.json"],
    ],
    ids=["unknown-command", "missing-spec", "non-integer-seed", "missing-command"],
)
def test_malformed_command_lines_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "usage: lpdensity" in capsys.readouterr().err


def test_determinism_byte_identical_reports(tmp_path):
    spec = write_spec(
        tmp_path,
        "density.json",
        {
            "points": {"kind": "lattice", "spacing": 1.0, "window": 40, "dimension": 1},
            "h_values": [2.0, 4.0, 8.0],
            "seed": 11,
        },
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["density", "--spec", spec, "--out", str(out_a)]) == 0
    assert main(["density", "--spec", spec, "--out", str(out_b)]) == 0

    def strip_timestamp(path):
        return [
            line
            for line in (path / "density_report.json").read_text().splitlines()
            if '"timestamp"' not in line
        ]

    assert strip_timestamp(out_a) == strip_timestamp(out_b)
    assert (out_a / "density_profile.csv").read_text() == (
        out_b / "density_profile.csv"
    ).read_text()


LATTICE_1D = {"kind": "lattice", "spacing": 1.0, "window": 5, "dimension": 1}
SYSTEM = {"p": 2.0, "generators": [{"f": UNIT_SPEC, "gamma": LATTICE_1D, "label": "Z"}]}
DICHOTOMY = {
    "command": "dichotomy",
    "system": SYSTEM,
    "truncation_radii": [2, 4],
    "h_values": [0.5, 0.25],
    "p_prime": 2.0,
}
BLOWUP = {
    "command": "blowup-witness",
    "f": UNIT_SPEC,
    "f_dual": UNIT_SPEC,
    "points": {"kind": "explicit", "rows": [[0.0], [0.5]]},
    "epsilon": 0.5,
    "p_prime": 2.0,
}
HAAR = {"command": "haar-check", "p": 3.0, "seed": 1, "num_tests": 1, "batch_size": 4}
GENERATOR = {"f": UNIT_SPEC, "gamma": LATTICE_1D}
MASS = {"command": "localized-mass", "generator": GENERATOR, "cube": {"center": [0.0], "side": 1.0}}
DECAY = {"command": "mass-decay", "generator": GENERATOR, "x": [0.0], "h_values": [0.5], "p": 2.0}


def _chain_outputs(out, chain):
    """Run the chain of command specs into `out`; each report's outputs and
    verdicts, and each CSV's text, by file name."""
    spec = out / "chain.json"
    out.mkdir()
    spec.write_text(json.dumps(chain))
    assert main(["run", "--spec", str(spec), "--out", str(out / "reports")]) == 0
    got = {}
    for path in sorted((out / "reports").iterdir()):
        if path.suffix == ".json":
            report = json.loads(path.read_text())
            got[path.name] = (report["outputs"], report["verdicts"])
        else:
            got[path.name] = path.read_text()
    return got


def test_overlapping_function_spec_runs_as_its_disjoint_cells(tmp_path):
    # canonicalize sums the two pieces on the cells their endpoints cut, so
    # every command reads the same function from either spec
    def line(*rows):
        pieces = [{"lower": [lo], "upper": [up], "re": re, "im": im} for lo, up, re, im in rows]
        return {"dimension": 1, "pieces": pieces}

    overlapping = line((0.0, 1.0, 1.0, 0.0), (0.5, 1.5, 1.0, 0.5))
    cells = line((0.0, 0.5, 1.0, 0.0), (0.5, 1.0, 2.0, 0.5), (1.0, 1.5, 1.0, 0.5))

    def chain(f):
        generator = {"f": f, "gamma": LATTICE_1D}
        return [
            {"command": "pair", "h": f, "f": UNIT_SPEC},
            {"command": "bessel", "system": {"p": 2.0, "generators": [generator]}, "tests": [f, UNIT_SPEC], "p_prime": 2.0},
            {"command": "cq-sweep", "system": {"p": 2.0, "generators": [generator]}, "h_values": [0.25, 0.125]},
            {"command": "localized-mass", "generator": generator, "cube": {"center": [0.25], "side": 1.0}, "p": 3.0},
            {**BLOWUP, "f": f, "f_dual": f, "points": {"kind": "reciprocal", "N": 40}},
        ]

    with pytest.warns(UserWarning, match="canonicaliz"):
        got = _chain_outputs(tmp_path / "overlapping", chain(overlapping))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _chain_outputs(tmp_path / "cells", chain(cells))
    assert len(got) == 6 and got == want


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"command": "separate", "points": LATTICE_1D, "delta": "x"}, "delta"),
        ({**DICHOTOMY, "p_prime": "x"}, "p_prime"),
        ({**DICHOTOMY, "truncation_radii": [2, "x"]}, "truncation_radii"),
        ({**DICHOTOMY, "tolerances": {"epsilon_fraction": "x"}}, "epsilon_fraction"),
        ({**DICHOTOMY, "accumulation_threshold": "x"}, "accumulation_threshold"),
        ({**DICHOTOMY, "bessel_variation_tol": None}, "bessel_variation_tol"),
        ({**DICHOTOMY, "accumulation_radius": []}, "accumulation_radius"),
        ({**DICHOTOMY, "subadditivity_h_values": ["x"]}, "subadditivity_h_values"),
        ({**BLOWUP, "epsilon": "x"}, "epsilon"),
        ({**BLOWUP, "p": "x"}, "'p'"),
        ({"command": "bessel", "system": SYSTEM, "tests": [UNIT_SPEC], "p_prime": "x"}, "p_prime"),
        ({**MASS, "cube": {"center": [0.0], "side": "x"}, "p": 2.0}, "side"),
        ({**MASS, "p": "x"}, "'p'"),
        ({**DECAY, "tolerance": "x"}, "tolerance"),
        ({**DECAY, "x": ["x"]}, "'x'"),
        ({**HAAR, "p": "x"}, "'p'"),
        ({**HAAR, "cutoff": "x"}, "cutoff"),
        ({**HAAR, "num_tests": "x"}, "num_tests"),
        ({**HAAR, "terms": "x"}, "terms"),
        ({**HAAR, "batch_size": 1.5e400}, "batch_size"),
        ({**HAAR, "trials": "x"}, "trials"),
        # integer fields take JSON integers only, never a float or a boolean
        ({**HAAR, "terms": 12.5}, "terms"),
        ({**DICHOTOMY, "accumulation_threshold": True}, "accumulation_threshold"),
    ],
)
def test_scalar_field_that_is_no_number_exits_2(tmp_path, capsys, payload, key):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 2 and key in err and "\n" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        *[("bessel_variation_tol", v) for v in (math.nan, -1.0, 0.0, math.inf)],
        *[("epsilon_fraction", v) for v in (math.nan, -1.0, 0.0, math.inf, 1.0)],
    ],
)
def test_dichotomy_tolerance_out_of_range_exits_3(tmp_path, capsys, key, value):
    # refused before any work, with or without accumulation on the lattice
    with mock.patch("lpdensity.translate_system.bessel_bound_estimate") as work:
        code, err = _run_exit(tmp_path, capsys, {**DICHOTOMY, "tolerances": {key: value}})
    assert code == 3 and key in err and "\n" not in err
    assert not work.called


def test_cq_sweep_over_two_h_values(tmp_path):
    z20 = {"f": UNIT_SPEC, "gamma": {**LATTICE_1D, "window": 20}, "label": "Z"}
    spec = {"command": "cq-sweep", "system": {"p": 2.0, "generators": [z20]}, "h_values": [0.25, 0.125]}
    assert main(["run", "--spec", write_spec(tmp_path, "s.json", spec), "--out", str(tmp_path)]) == 0
    sweep = read_report(tmp_path, "cq-sweep")["outputs"]["sweep"]
    # K_required = h^(-1/2) on Z: the fit over both rows, not the last alone
    assert sweep["growth_exponent"] == pytest.approx(0.5, abs=1e-9)
    assert sweep["verdict"] == "divergent"


@pytest.mark.parametrize(
    "spec_seed, flag",
    [("x", None), (1.5, None), (-1, None), (True, None), (None, "-1")],
)
def test_seed_that_is_no_non_negative_integer_exits_2(tmp_path, capsys, spec_seed, flag):
    spec = write_spec(tmp_path, "haar.json", {**HAAR, "seed": spec_seed})
    argv = ["run", "--spec", spec, "--out", str(tmp_path)] + (["--seed", flag] if flag else [])
    with mock.patch("lpdensity.cli.run", side_effect=AssertionError):
        code = main(argv)
    err = capsys.readouterr().err.strip()
    assert code == 2 and "'seed'" in err and "\n" not in err


def test_out_naming_an_existing_file_exits_2_before_running(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", _density(LATTICE_1D))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    with mock.patch("lpdensity.cli.run", side_effect=AssertionError):
        code = main(["run", "--spec", spec, "--out", str(afile)])
    err = capsys.readouterr().err.strip()
    assert code == 2 and "afile" in err and "\n" not in err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize(
    "blocked, out",
    [("density_report.json", "out"), ("density_profile.csv", "out"), (None, "afile/out")],
    ids=["report", "csv", "under-a-file"],
)
def test_report_that_cannot_be_written_exits_2(tmp_path, capsys, blocked, out):
    # a directory where the report or the CSV goes, or an output directory
    # below a file, makes the write raise OSError
    (tmp_path / "out").mkdir()
    (tmp_path / "afile").write_text("")
    if blocked:
        (tmp_path / "out" / blocked).mkdir()
    spec = write_spec(tmp_path, "spec.json", _density(LATTICE_1D))
    code = main(["run", "--spec", spec, "--out", str(tmp_path / out)])
    err = capsys.readouterr().err.strip()
    assert "Traceback" not in err
    assert code == 2 and "cannot write the report" in err and "\n" not in err


def test_chain_repeating_a_command_exits_2_before_running(tmp_path, capsys):
    density = {"command": "density", "points": LATTICE_1D, "h_values": [1.0]}
    chain = [density, {"command": "separate", "points": LATTICE_1D, "delta": 0.5}, density]
    code, err = _run_exit(tmp_path, capsys, chain)
    assert code == 2 and "'density' twice" in err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize(
    "chain, message",
    [
        (
            [{"command": "density", "points": LATTICE_1D, "h_values": [1.0]}, 1],
            "each spec entry must be a JSON object",
        ),
        ([{"command": "nope"}], "spec has unknown command 'nope'"),
        ({"h_values": [1.0]}, "spec has unknown command None"),
    ],
    ids=["not-an-object", "unknown", "missing"],
)
def test_chain_entry_without_a_known_command_exits_2(tmp_path, capsys, chain, message):
    # the first entry is not run either: every entry is checked before any runs
    with mock.patch("lpdensity.cli.run", side_effect=AssertionError):
        code, err = _run_exit(tmp_path, capsys, chain)
    assert code == 2 and err == f"lpdensity: {message}"


@pytest.mark.parametrize(
    "points",
    [
        {"kind": "lattice", "basis": [[1.0, 0.0], [1.0, 1e-9]], "window": 3},
        {"kind": "lattice", "spacing": 1e-6, "window": 1e3, "dimension": 2},
        {"kind": "lattice", "spacing": 1.0, "window": math.inf, "dimension": 1},
    ],
)
def test_lattice_over_the_site_budget_exits_3(tmp_path, capsys, points):
    payload = {"command": "density", "points": points, "h_values": [1.0]}
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and "site budget" in err


@pytest.mark.parametrize("terms", [0, -1, 64, 10**9])
def test_haar_terms_outside_the_drawable_indices_exit_2(tmp_path, capsys, terms):
    # levels 0..5 hold 63 distinct indices; more terms would never be drawn
    code, err = _run_exit(tmp_path, capsys, {**HAAR, "terms": terms})
    assert code == 2 and "'terms'" in err and "1..63" in err and "\n" not in err
    assert not (tmp_path / "haar_check_report.json").exists()


def test_haar_terms_at_the_limit_runs(tmp_path, capsys):
    code, _ = _run_exit(tmp_path, capsys, {**HAAR, "terms": 63, "batch_size": 2})
    assert code in (0, 4)
    assert read_report(tmp_path, "haar-check")["spec"]["terms"] == 63


def test_haar_cutoff_over_the_index_budget_exits_3(tmp_path, capsys):
    code, err = _run_exit(tmp_path, capsys, {**HAAR, "cutoff": 40})
    assert code == 3 and "budget" in err and "\n" not in err


@pytest.mark.parametrize(
    "fields",
    [
        {"terms": 63, "batch_size": 16645},  # 1,048,635 expansion terms
        {"num_tests": 2**13, "cutoff": 8},  # 2^21 Haar pairings
        {"num_tests": 10**9, "cutoff": 0},
        {"num_tests": 1, "cutoff": 10**12},
    ],
)
def test_haar_check_over_the_budget_exits_3_before_drawing(tmp_path, capsys, fields):
    code, err = _run_exit(tmp_path, capsys, {**HAAR, **fields})
    assert code == 3 and "budget of 1048576" in err and "\n" not in err
    assert not (tmp_path / "haar_check_report.json").exists()


def test_haar_check_sampled_sign_patterns_over_the_budget_exit_3(tmp_path, capsys):
    # 13 terms are sampled with `trials` sign patterns
    code, err = _run_exit(tmp_path, capsys, {**HAAR, "terms": 13, "trials": 10**12})
    assert code == 3 and "budget" in err and "\n" not in err


@pytest.mark.parametrize(
    "fields",
    [
        {"terms": 13, "trials": 10**12},
        {"terms": 13, "trials": 27595},  # x 38 cut-grid cells is over 2^20
        {"terms": 40, "trials": 8896},  # x 119 cells is over 2^20
        {"trials": 0},
    ],
)
def test_haar_check_refuses_sign_patterns_before_the_first_draw(tmp_path, capsys, fields):
    with mock.patch("lpdensity.cli._RunContext.rng", side_effect=AssertionError):
        code, err = _run_exit(tmp_path, capsys, {**HAAR, **fields})
    assert code == 3 and "\n" not in err
    assert not (tmp_path / "haar_check_report.json").exists()


def _inflate_held_row(real):
    """coefficient_sandwich_check whose second call (the held-out batch) puts
    its first row at lhs = 2.5 mid, outside beta = 2."""
    calls = []

    def check(batch, p):
        report = real(batch, p)
        calls.append(report)
        if len(calls) == 2:
            row = report.rows[0]
            rows = (dataclasses.replace(row, lhs=2.5 * row.mid),) + report.rows[1:]
            report = dataclasses.replace(report, rows=rows)
        return report

    return check


@pytest.mark.parametrize(
    "target, effect, code",
    [
        ("coefficient_sandwich_check", "held row", 4),
        ("unconditional_constant_estimate", 2.0 * (1 + 1e-13), 0),  # inside the slack
        ("unconditional_constant_estimate", 2.0 * (1 + 1e-11), 4),
    ],
)
def test_burkholder_verdict_reads_both_batches_and_the_estimate(
    tmp_path, capsys, target, effect, code
):
    real = getattr(cli, target)
    fake = _inflate_held_row(real) if effect == "held row" else (lambda *a, **k: effect)
    with mock.patch(f"lpdensity.cli.{target}", side_effect=fake):
        got, _ = _run_exit(tmp_path, capsys, HAAR)
    report = read_report(tmp_path, "haar-check")
    assert got == code
    assert report["verdicts"]["burkholder_bounds_hold"] is (code == 0)
    assert report["outputs"]["burkholder"]["rows_outside"] == (effect == "held row")


@pytest.mark.parametrize("seed", [1443871097, 1691932228])
def test_haar_check_passes_where_fitted_constants_failed(tmp_path, capsys, seed):
    # these seeds drew held-out rows above 1.1x the constants fitted on the
    # first batch; Burkholder's beta = 2 bounds both batches
    payload = {**HAAR, "seed": seed, "cutoff": 8, "num_tests": 20, "batch_size": 300}
    code, _ = _run_exit(tmp_path, capsys, payload)
    report = read_report(tmp_path, "haar-check")
    assert code == 0
    assert report["verdicts"] == {"biorthogonal_offdiag_zero": True, "burkholder_bounds_hold": True}
    assert report["outputs"]["sandwich_fit"]["held_out_violations"] > 0
    assert report["outputs"]["burkholder"]["beta"] == 2.0


class _GivenDraws:
    """An rng that returns the given (levels, offsets, normals) blocks in
    turn, checking that each call asks for the shape the block has."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.levels = None

    def integers(self, low, high, size=None):
        assert low == 0
        if self.levels is None:
            self.levels, self.offsets, self.normals = map(np.array, self.blocks.pop(0))
            assert high == cli._LEVELS and size == self.levels.shape
            return self.levels
        assert size is None and np.array_equal(high, 1 << self.levels)
        self.levels = None
        return self.offsets

    def normal(self, size):
        assert size == self.normals.shape
        return self.normals


def test_random_expansions_follow_the_term_by_term_loop():
    terms = 3  # blocks of 6 draws per row
    first = [
        [(0, 0), (1, 1), (0, 0), (2, 3), (1, 0), (1, 1)],  # repeat, then full at the 4th draw
        [(0, 0)] * 6,  # one index: carries on into the second block
        [(2, 0), (2, 1), (2, 2), (2, 3), (0, 0), (0, 0)],
        [(1, 0), (1, 1), (1, 0), (1, 1), (1, 0), (1, 1)],  # two indices: carries on
    ]
    second = [
        [(0, 0), (1, 0), (1, 0), (5, 31), (4, 9), (3, 2)],
        [(1, 1), (5, 0), (5, 0), (5, 1), (3, 7), (3, 7)],
    ]
    blocks, draws = [], [[] for _ in first]
    for rows, owners in ((first, [0, 1, 2, 3]), (second, [1, 3])):
        keys = np.array(rows)
        normals = np.arange(keys[..., 0].size * 2, dtype=float).reshape(*keys.shape[:2], 2)
        normals += 1000 * len(blocks) + 0.5
        blocks.append((keys[..., 0], keys[..., 1], normals))
        for r, row_keys, row_normals in zip(owners, rows, normals.tolist()):
            draws[r] += [(*key, *n) for key, n in zip(row_keys, row_normals)]
    rng = _GivenDraws(blocks)
    got = cli._random_expansions(rng, terms, len(first))
    assert rng.blocks == [] and rng.levels is None
    assert got == [expansion_from_draws(row, terms) for row in draws]
    assert [tuple(i for i, _ in e.terms) for e in got] == [
        ((0, 0), (1, 1), (2, 3)),
        ((0, 0), (1, 0), (5, 31)),
        ((2, 0), (2, 1), (2, 2)),
        ((1, 0), (1, 1), (5, 0)),
    ]
    assert dict(got[0].terms)[HaarIndex(0, 0)] == complex(*draws[0][2][2:])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    terms=st.integers(1, cli._MAX_TERMS),
    count=st.integers(0, 12),
)
def test_random_expansions_hold_terms_distinct_indices(seed, terms, count):
    got = cli._random_expansions(np.random.default_rng(seed), terms, count)
    assert len(got) == count
    for e in got:
        indices = [i for i, _ in e.terms]
        assert len(e) == len(set(indices)) == terms
        assert all(0 <= i.level < cli._LEVELS and 0 <= i.offset < 2**i.level for i in indices)
    assert cli._random_expansions(np.random.default_rng(seed), terms, count) == got


CUBE_FN = {"kind": "indicator", "cube": {"center": [0.0], "side": 1.0}}
PIECES_FN = {"dimension": 1, "pieces": [{"lower": [0.0], "upper": [1.0], "re": 1.0}]}
SAMPLED_FN = {
    "kind": "sampled",
    "expression": "tent",
    "step": 0.25,
    "support": {"lower": [-1.0], "upper": [1.0]},
}


def _density(points):
    return {"command": "density", "points": points, "h_values": [1.0]}


def _pair(h):
    return {"command": "pair", "h": h, "f": UNIT_SPEC}


def test_sampled_grid_over_the_budget_exits_3(tmp_path, capsys):
    code, err = _run_exit(tmp_path, capsys, _pair({**SAMPLED_FN, "step": 1e-320}))
    assert code == 3 and "1048576 cells" in err and "\n" not in err


def _pieces(boxes):
    pieces = [{"lower": list(lo), "upper": list(up), "re": 1.0} for lo, up in boxes]
    return {"dimension": len(boxes[0][0]), "pieces": pieces}


@pytest.mark.parametrize(
    "h, message",
    [
        # 200 nested squares cover 10,666,600 cells of their 399 x 399 grid
        (_pieces([((-k, -k), (k, k)) for k in range(1, 201)]), "10666600 grid cells"),
        (_pieces([((k,), (k + 1,)) for k in range(2049)]), "2049 pieces"),
    ],
)
@pytest.mark.filterwarnings("ignore:overlapping pieces")
def test_explicit_pieces_over_the_budget_exit_3(tmp_path, capsys, h, message):
    code, err = _run_exit(tmp_path, capsys, _pair(h))
    assert code == 3 and message in err and "budget" in err and "\n" not in err


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"command": "bessel", "system": {**SYSTEM, "p": "x"}, "tests": [UNIT_SPEC]}, "'p'"),
        (_density({**LATTICE_1D, "spacing": "x"}), "spacing"),
        (_density({**LATTICE_1D, "window": [1]}), "window"),
        (_density({**LATTICE_1D, "dimension": "x"}), "dimension"),
        (_density({**LATTICE_1D, "offset": ["x"]}), "offset"),
        (_density({"kind": "lattice", "basis": [["x", 0.0], [0.0, 1.0]], "window": 3}), "basis"),
        (_density({"kind": "reciprocal", "N": "x"}), "'N'"),
        (_density({"kind": "explicit", "rows": [["x"]]}), "rows"),
        (_density({"kind": "explicit", "rows": [1.0, 2.0]}), "rows"),
        (_pair({**UNIT_SPEC, "box": {"lower": ["x"], "upper": [1.0]}}), "lower"),
        (_pair({**UNIT_SPEC, "value": "x"}), "value"),
        (_pair({**CUBE_FN, "cube": {"center": ["x"], "side": 1.0}}), "center"),
        (_pair({**CUBE_FN, "cube": {"center": [0.0], "side": "x"}}), "side"),
        (_pair({**PIECES_FN, "dimension": "x"}), "dimension"),
        (_pair({**PIECES_FN, "pieces": [{"lower": [0.0], "upper": ["x"]}]}), "upper"),
        (_pair({**PIECES_FN, "pieces": [{"lower": [0.0], "upper": [1.0], "re": "x"}]}), "'re'"),
        (_pair({**PIECES_FN, "pieces": [{"lower": [0.0], "upper": [1.0], "im": [1]}]}), "'im'"),
        (_pair({**SAMPLED_FN, "step": "x"}), "step"),
        ({"command": "cq-sweep", "system": {**SYSTEM, "p": None}, "h_values": [0.5, 0.25]}, "'p'"),
        (_pair({**PIECES_FN, "pieces": 3}), "'pieces'"),
        ({"command": "pair", "h": UNIT_SPEC, "freq": "ab"}, "'freq'"),
        ({"command": "pair", "h": UNIT_SPEC, "freq": 3}, "'freq'"),
        # int() would run 10 sites for 10.7 and 1 site for true
        (_density({"kind": "reciprocal", "N": 10.7}), "'N'"),
        (_density({"kind": "reciprocal", "N": True}), "'N'"),
        (_density({"kind": "reciprocal", "N": "10"}), "'N'"),
    ],
)
def test_ingested_field_that_is_no_number_exits_2(tmp_path, capsys, payload, key):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 2 and key in err and "\n" not in err


def _bessel(system, tests=(UNIT_SPEC,)):
    return {"command": "bessel", "system": system, "tests": tests, "p_prime": 2.0}


_INF_GENERATOR = {"f": {**UNIT_SPEC, "value": "inf"}, "gamma": LATTICE_1D}
_INF_PIECES = {**PIECES_FN, "pieces": [{"lower": [0.0], "upper": [1.0], "re": "1e400"}]}


@pytest.mark.parametrize(
    "payload, message",
    [
        (_pair({**UNIT_SPEC, "value": math.nan}), "piece values must be finite"),
        (_pair(_INF_PIECES), "piece values must be finite"),
        (_bessel({**SYSTEM, "generators": [_INF_GENERATOR]}), "piece values must be finite"),
        ({"command": "pair", "h": UNIT_SPEC, "freq": [math.nan]}, "frequency must be finite"),
        ({"command": "pair", "h": UNIT_SPEC, "freq": [math.inf]}, "frequency must be finite"),
        ({"command": "pair", "h": UNIT_SPEC, "freq": [1e308]}, "phase"),
    ],
)
def test_non_finite_values_and_frequencies_exit_3(tmp_path, capsys, payload, message):
    # each of these used to write a NaN value with exit code 0; json writes
    # nan and inf as NaN and Infinity, and "1e400" becomes a bare 1e400
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload).replace('"1e400"', "1e400"))
    code = main(["run", "--spec", str(spec), "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert code == 3 and message in err and "\n" not in err and "Traceback" not in err


_BIG_GENERATOR = {"f": {**UNIT_SPEC, "value": 1e200}, "gamma": LATTICE_1D}


@pytest.mark.parametrize(
    "payload",
    [
        {**MASS, "generator": _BIG_GENERATOR, "p": 2.0},
        _bessel({**SYSTEM, "generators": [{**_BIG_GENERATOR, "label": "Z"}]}),
    ],
    ids=["localized-mass", "bessel"],
)
def test_finite_values_whose_powers_overflow_exit_3(tmp_path, capsys, payload):
    # 1e200 squared is past the double range: both ended in an OverflowError
    # traceback, exit code 1
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and "overflows double precision" in err and "Traceback" not in err


def _mass(rows, center, side, value=1.0, p=2.0):
    """A localized-mass spec: value times the indicator of [0, 1)^d at rows."""
    d = len(rows[0])
    f = {"kind": "indicator", "box": {"lower": [0.0] * d, "upper": [1.0] * d}, "value": value}
    generator = {"f": f, "gamma": {"kind": "explicit", "rows": rows}}
    cube = {"center": center, "side": side}
    return {"command": "localized-mass", "generator": generator, "cube": cube, "p": p}


@pytest.mark.parametrize(
    "payload, message",
    [
        # the squared gap underflows, min_separation reads 0 and the block
        # size was 0: ZeroDivisionError
        (_mass([[0.0], [1e-300]], [0.0], 1.0), "separation of the sites of 'gen' reads 0.0"),
        # reach / epsilon is inf: math.ceil raised OverflowError
        (_mass([[0.0], [1e-10]], [0.0], 1e300), "finiteness bound"),
        # (2 blocks)^2 is past the double range: ** raised OverflowError
        (_mass([[0.0, 0.0], [1e-10, 0.0]], [0.0, 0.0], 1e200), "finiteness bound"),
        # two masses of 1.44e308 each: the report read "total": Infinity, exit 0
        (_mass([[0.0], [0.5]], [0.5], 3.0, value=1.2e154), "localized mass"),
    ],
    ids=["zero-separation", "infinite-block-count", "block-power", "mass-sum"],
)
def test_localized_mass_out_of_the_double_range_exits_3(tmp_path, capsys, payload, message):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and message in err and "\n" not in err
    assert not (tmp_path / "localized_mass_report.json").exists()


def test_localized_mass_within_the_double_range_keeps_its_bits(tmp_path, capsys):
    # two masses of 1e300 and a bound of 2 x 8 blocks times 1e300 stay finite
    code, _ = _run_exit(tmp_path, capsys, _mass([[0.0], [0.5]], [0.5], 3.0, value=1e150))
    report = read_report(tmp_path, "localized_mass")["outputs"]["localized_mass"]
    assert code == 0 and report["total"] == 2 * (abs(1e150) ** 2.0 * 1.0)
    bound = report["finiteness_bound"]
    assert bound["blocks_per_side"] == 8 and bound["value"] == 16 * (abs(1e150) ** 2.0 * 1.0)


@pytest.mark.parametrize(
    "rows, reads",
    [
        # the squared gap overflows: the report read "min_gap": Infinity, exit
        # 0, after numpy's overflow RuntimeWarnings
        ([[0.0], [1e300]], "inf"),
        ([[0.0, 0.0], [1e300, 0.0]], "inf"),
        # the squared gap underflows: the report read "min_gap": 0, exit 0
        ([[0.0], [1e-300]], "0.0"),
    ],
    ids=["overflow-1d", "overflow-2d", "underflow"],
)
def test_separate_with_a_gap_out_of_the_double_range_exits_3(tmp_path, capsys, rows, reads):
    payload = {"command": "separate", "points": {"kind": "explicit", "rows": rows}, "delta": 1}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and f"the separation of the sites reads {reads} in double precision" in err
    assert not caught and "\n" not in err
    assert not (tmp_path / "separate_report.json").exists()


_extreme = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-10, 0.5, 1.0, 1e154, 1e300, 1.7e308])
_coordinates = st.one_of(_extreme, _extreme.map(lambda x: -x), st.floats(-1e6, 1e6))
_positive = st.one_of(_extreme.filter(lambda x: x > 0), st.floats(1e-300, 1e308))


@st.composite
def _mass_specs(draw):
    """localized-mass and mass-decay specs with tiny gaps, huge sides,
    centres and values, and large p, on at most 4 sites."""
    d = draw(st.integers(1, 2))
    site = st.lists(_coordinates, min_size=d, max_size=d)
    rows = draw(st.lists(site, min_size=1, max_size=4, unique_by=tuple))
    value = draw(st.one_of(_positive, _positive.map(lambda x: -x), st.just(1.2e154)))
    center = draw(st.lists(_coordinates, min_size=d, max_size=d))
    p = draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 1e3, 1e300]), st.floats(1.0, 1e6)))
    spec = _mass(rows, center, draw(_positive), value, p)
    if draw(st.booleans()):
        return spec
    h_values = sorted(set(draw(st.lists(_positive, min_size=1, max_size=3))), reverse=True)
    return {"command": "mass-decay", "generator": spec["generator"], "x": center, "h_values": h_values, "p": p}


def _assert_exits_cleanly(payload):
    # main() runs in-process, so a traceback would be an exception here
    with tempfile.TemporaryDirectory() as out:
        spec = pathlib.Path(out) / "spec.json"
        spec.write_text(json.dumps(payload))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", "--spec", str(spec), "--out", out])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 0:
            text = (pathlib.Path(out) / f"{payload['command'].replace('-', '_')}_report.json").read_text()
            assert "Infinity" not in text and "NaN" not in text


@settings(max_examples=300, deadline=None)
@given(_mass_specs())
def test_mass_specs_exit_cleanly_with_finite_reports(payload):
    _assert_exits_cleanly(payload)


_sides = st.one_of(
    st.sampled_from([1e-320, 1e-300, 1e-120, 1e-100, 1e-10, 1.0, 1e100, 1e154, 1e200, 1e300]),
    st.floats(1e-320, 1e300),
    st.floats(1e-3, 1e3),
)


@st.composite
def _density_specs(draw):
    """density specs on 2 to 4 explicit sites in 1-d to 3-d, with window
    sides from 1e-320 to 1e300."""
    d = draw(st.integers(1, 3))
    site = st.lists(_coordinates, min_size=d, max_size=d)
    rows = draw(st.lists(site, min_size=2, max_size=4, unique_by=tuple))
    h_values = sorted(set(draw(st.lists(_sides, min_size=1, max_size=3))))
    return {"command": "density", "points": {"kind": "explicit", "rows": rows}, "h_values": h_values}


@settings(max_examples=300, deadline=None)
@given(_density_specs())
def test_density_specs_exit_cleanly_with_finite_reports(payload):
    _assert_exits_cleanly(payload)


@st.composite
def _sweep_specs(draw):
    """cq-sweep specs on the unit cube's indicator over a lattice, with p up
    to 1e3 and two decreasing h values from 1e300 down to 1e-300."""
    d = draw(st.integers(1, 2))
    unit = {"kind": "indicator", "box": {"lower": [0.0] * d, "upper": [1.0] * d}}
    unit["value"] = draw(st.sampled_from([1.0, -2.5, 1e-100, 1e100, 1e200]))
    window = draw(st.sampled_from([1, 5, 20]))
    gamma = {"kind": "lattice", "spacing": draw(st.sampled_from([0.5, 1.0])), "window": window, "dimension": d}
    p = draw(st.one_of(st.sampled_from([1.5, 2.0, 3.0, 1e3]), st.floats(1.0, 1e3)))
    hs = st.one_of(
        st.sampled_from([1e-300, 1e-150, 1e-10, 0.25, 2.0, 1e10, 1e300]),
        st.floats(1e-300, 1e300),
        st.floats(1e-300, 4.0),
    )
    h_values = sorted(draw(st.lists(hs, min_size=2, max_size=2, unique=True)), reverse=True)
    system = {"p": p, "generators": [{"f": unit, "gamma": gamma}]}
    return {"command": "cq-sweep", "system": system, "h_values": h_values}


@settings(max_examples=300, deadline=None)
@given(_sweep_specs())
def test_sweep_specs_exit_cleanly_with_finite_reports(payload):
    _assert_exits_cleanly(payload)


def _split_unit(at, end=1.0):
    """The indicator of [0, end) cut at `at` into two pieces of value 1."""
    pieces = [{"lower": [0.0], "upper": [at], "re": 1.0}, {"lower": [at], "upper": [end], "re": 1.0}]
    return {"dimension": 1, "pieces": pieces}


def _witness(f, f_dual, points=None):
    points = points or {"kind": "reciprocal", "N": 70}
    return {"command": "blowup-witness", "f": f, "f_dual": f_dual, "points": points, "epsilon": 0.5, "p_prime": 2.0}


_PLANE = {"kind": "explicit", "rows": [[0.0, 0.0], [0.5, 0.5]]}


@pytest.mark.parametrize(
    "payload, grid",
    [
        # the step, a quarter of 5e-324, reads 0: a ZeroDivisionError
        (_witness(_split_unit(5e-324), UNIT_SPEC), "step 0.0 over the reach 1.0 in dimension 1"),
        # reach / step reads inf: an OverflowError
        (
            _witness(_split_unit(1e-10), {"kind": "indicator", "box": {"lower": [0.0], "upper": [1e308]}}),
            "step 2.5e-11 over the reach 1e+308 in dimension 1",
        ),
        # 8e7 keys, which the search built as tuples, 4e7 of them at once
        (_witness(_split_unit(1e-7), UNIT_SPEC), "step 2.5e-08 over the reach 1.0 in dimension 1"),
        # (8e300)^2 keys: an OverflowError
        (
            _witness(
                {"kind": "indicator", "box": {"lower": [0.0, 0.0], "upper": [1e300, 1.0]}},
                {"kind": "indicator", "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
                _PLANE,
            ),
            "step 0.25 over the reach 1e+300 in dimension 2",
        ),
        # the witness a dichotomy draws at the first truncation
        (
            {**DICHOTOMY, "system": {"p": 2.0, "generators": [{"f": _split_unit(1e-7), "gamma": {"kind": "reciprocal", "N": 40}}]}, "truncation_radii": [20, 40]},
            "step 2.5e-08 over the reach 1.0 in dimension 1",
        ),
    ],
    ids=["piece-of-width-5e-324", "reach-over-step-past-the-double-range", "split-at-1e-7", "plane-reach-1e300", "dichotomy"],
)
def test_epsilon_grid_over_the_budget_exits_3_before_any_key_is_built(tmp_path, capsys, payload, grid):
    kernel = mock.patch.object(translate_system, "cross_pairings", side_effect=AssertionError("a key was paired"))
    with warnings.catch_warnings(), kernel:
        warnings.simplefilter("error")  # a numpy RuntimeWarning would end the run otherwise
        tracemalloc.start()
        try:
            code, err = _run_exit(tmp_path, capsys, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    message = f"the epsilon-grid of {grid} holds more than {pointset._SITE_BUDGET} keys"
    assert code == 3 and err == f"lpdensity {payload['command']}: precondition violated: {message}"
    assert peak < 2e6


def test_epsilon_grid_of_exactly_the_budget_runs(tmp_path, capsys):
    # step 2^-19 over the reach 1: 2 x 2^19 keys, the budget; <T_x f, 1_[0,1)>
    # = 1 - |x| fails 0.5 first at x = -1/2, of ring 2^19.  A reach one step
    # longer adds 2 keys, and is refused
    code, err = _run_exit(tmp_path, capsys, _witness(_split_unit(2**-17), UNIT_SPEC))
    assert code == 0 and err == ""
    witness = read_report(tmp_path, "blowup-witness")["outputs"]["witness"]
    assert witness["count"] == 70 and witness["window_side"] == (2**19 - 1) * 2**-19
    longer = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1 + 2**-19]}}
    code, err = _run_exit(tmp_path, capsys, _witness(_split_unit(2**-17), longer))
    assert code == 3 and err.endswith(f"over the reach {1 + 2**-19} in dimension 1 holds more than 1048576 keys")


_splits = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-160, 1e-10, 1e-7, 2**-17, 2**-14, 2**-8, 0.25, 0.5]),
    st.floats(5e-324, 0.5),
)


@st.composite
def _split_functions(draw):
    """A step function on [0, end), end from 1 to 1e308, cut at up to 3
    points of (0, 1/2] into at most 4 pieces of moderate or extreme, real or
    complex values."""
    end = draw(st.just(1.0) | st.sampled_from([2.0, 1e10, 1e154, 1e300, 1e308]))
    edges = [0.0, *sorted(set(draw(st.lists(_splits, max_size=3)))), end]
    magnitude = st.floats(0.25, 4.0) | _positive
    value = magnitude | magnitude.map(lambda x: -x)
    pieces = [
        {"lower": [a], "upper": [b], "re": draw(value), "im": draw(st.just(0.0) | value)}
        for a, b in zip(edges, edges[1:])
    ]
    return {"dimension": 1, "pieces": pieces}


@st.composite
def _blowup_specs(draw):
    """blowup-witness specs on split functions, with epsilon extreme or a
    fraction of |<f, f_dual>|, extreme p_prime, and reciprocal or at most 4
    extreme sites."""
    f = draw(_split_functions())
    f_dual = f if draw(st.booleans()) else draw(_split_functions())
    points = draw(
        st.just({"kind": "reciprocal", "N": 20})
        | st.lists(st.lists(_coordinates, min_size=1, max_size=1), min_size=1, max_size=4, unique_by=tuple).map(
            lambda rows: {"kind": "explicit", "rows": rows}
        )
    )
    v = pair(ingest_function(f), ingest_function(f_dual))
    base = math.hypot(v.real, v.imag)  # abs() raises OverflowError past the double range
    fraction = draw(st.sampled_from([None, 0.1, 0.5, 0.99]))
    epsilon = draw(_positive) if fraction is None or not 0 < base < math.inf else fraction * base
    p_prime = draw(st.sampled_from([1.5, 2.0, 3.0]) | st.sampled_from([1.0, 1e3, 1e300]) | st.floats(1.0, 1e6))
    return {"command": "blowup-witness", "f": f, "f_dual": f_dual, "points": points, "epsilon": epsilon, "p_prime": p_prime}


@settings(max_examples=200, deadline=5000)
@given(_blowup_specs())
def test_blowup_specs_exit_cleanly_with_finite_reports(payload):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning ends the run as an exception
        _assert_exits_cleanly(payload)


_wrong = st.sampled_from(["3", None, [], {}, True, 2.5, -1, 0, -(2**63), float("inf"), float("-inf"), float("nan")])


@st.composite
def _haar_specs(draw):
    """haar-check specs whose fields are each small enough to run, extreme,
    of a wrong type, negative, not finite, or left out.  An extreme size is
    over the budget alone, so it is refused before any draw."""
    fields = {
        "p": (st.sampled_from([1.5, 2.0, 3.0]) | st.floats(1.0, 20.0), st.sampled_from([1.0, 1.0000001, 1e3, 1e300])),
        "cutoff": (st.integers(0, 8), st.sampled_from([21, 64, 10**30])),
        "terms": (st.integers(1, 16), st.sampled_from([63, 64, 10**30])),
        "batch_size": (st.integers(1, 40), st.sampled_from([2**20 + 1, 10**30])),
        "num_tests": (st.integers(1, 5), st.sampled_from([2**20 + 1, 10**30])),
        "trials": (st.integers(1, 50), st.sampled_from([2**20, 10**30])),
        "seed": (st.integers(0, 2**64), st.just(10**30)),
    }
    spec = {"command": "haar-check"}
    for key, (small, extreme) in fields.items():
        kind = draw(st.sampled_from(["small"] * 5 + ["extreme", "wrong", "left out"]))
        if kind != "left out":
            spec[key] = draw({"small": small, "extreme": extreme, "wrong": _wrong}[kind])
    return spec


@settings(max_examples=150, deadline=5000)
@given(_haar_specs())
def test_haar_specs_exit_cleanly_with_finite_reports(payload):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning ends the run as an exception
        _assert_exits_cleanly(payload)


def test_haar_check_refuses_a_q_norm_that_underflows(tmp_path, capsys):
    # p = 1 + 2^-52 gives q = 4.5e15: every |v|^q of the test underflows,
    # and its Bessel ratio divided by 0 (found by the spec fuzz above)
    payload = {"command": "haar-check", "p": 1.0000000000000002, "cutoff": 0, "batch_size": 1, "num_tests": 1, "seed": 1}
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and err.startswith("lpdensity haar-check: precondition violated: the q-norm of test 'test-0' at q = ")
    assert err.endswith(" reads 0 in double precision")


def _one_piece(value, end=1.0):
    return {"dimension": 1, "pieces": [{"lower": [0.0], "upper": [end], "re": value.real, "im": value.imag}]}


def _two_pieces(a, b):
    return {"dimension": 1, "pieces": [{"lower": [0.0], "upper": [1.0], "re": a}, {"lower": [1.0], "upper": [2.0], "re": b}]}


@pytest.mark.parametrize(
    "payload, message",
    [
        # |1.5e308 + 1.5e308i| is past the double range, and abs() raised
        # OverflowError
        (
            _witness(_one_piece(1.5e308 + 1.5e308j), UNIT_SPEC),
            "|<f, f_dual>| reads inf in double precision",
        ),
        # the window centres move f_dual past the double range, which numpy
        # warned of before the refusal; the refusal names the window
        (
            {**_witness(_one_piece(-1.0, 1e308), _one_piece(-1.0, 1e308), {"kind": "explicit", "rows": [[1.0]]}), "epsilon": 1e154},
            "the witness window of side 1.75e+308 centred at (8.75e+307,) moves a piece of f_dual "
            "past the double range or collapses it",
        ),
        # max|f| max|f_dual| = 1e310 in the count bound, which numpy warned of
        (
            {**_witness(_two_pieces(1e300, 1.0), _two_pieces(1e-300, 1e10)), "epsilon": 1e9, "p_prime": 1.5},
            "the power sum at exponent 1.5 overflows double precision",
        ),
    ],
    ids=["modulus-past-the-double-range", "centre-moves-f-dual-past-the-double-range", "count-bound-scale-overflows"],
)
def test_witness_past_the_double_range_exits_3_without_warnings(tmp_path, capsys, payload, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and err == f"lpdensity blowup-witness: precondition violated: {message}"


_RECIPROCAL_SYSTEM = {
    "p": 2.0,
    "generators": [{"f": UNIT_SPEC, "gamma": {"kind": "reciprocal", "N": 40}, "label": "recip"}],
}


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"command": "density", "points": {"kind": "explicit", "rows": [[0, 0], [1, 1]]}, "h_values": [1e200]},
            "h = 1e+200 to the power d = 2 reads inf in double precision",
        ),
        (
            {"command": "density", "points": {"kind": "explicit", "rows": [[0, 0, 0], [1, 1, 1]]}, "h_values": [1e-120]},
            "h = 1e-120 to the power d = 3 reads 0.0 in double precision",
        ),
        (
            {"command": "density", "points": {"kind": "explicit", "rows": [[0], [1e-310]]}, "h_values": [1e-320]},
            "the count ratio 1 / h^d at h = 1e-320 overflows double precision",
        ),
        # the report read "density_estimate": Infinity
        (
            {"command": "density", "points": {"kind": "explicit", "rows": [[0], [1]]}, "h_values": [1e-320]},
            "h = 1e-320 puts a site coordinate at |x / h| of 2^53 or more",
        ),
        # the int64 cast gave two sites one bogus key, and the report nu_lower 2
        (
            {"command": "density", "points": {"kind": "explicit", "rows": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}, "h_values": [1e-100]},
            "h = 1e-100 puts a site coordinate at |x / h| of 2^53 or more",
        ),
        # every window anchored at a site read empty, and nu_plus took the max of none
        (
            {"command": "density", "points": {"kind": "explicit", "rows": [[1e-10, 0.0], [0.5, 0.0]]}, "h_values": [1e-120]},
            "h = 1e-120 puts a site coordinate at |x / h| of 2^53 or more",
        ),
        (
            {**DICHOTOMY, "system": _RECIPROCAL_SYSTEM, "truncation_radii": [20, 40.7]},
            "reciprocal family needs a whole count in 1..1048576, got 40.7",
        ),
        (
            {**DICHOTOMY, "system": _RECIPROCAL_SYSTEM, "truncation_radii": [20, math.inf]},
            "truncation radii must be positive and finite, got [20.0, inf]",
        ),
        (
            {**DICHOTOMY, "system": _RECIPROCAL_SYSTEM, "truncation_radii": [math.nan, 20]},
            "truncation radii must be positive and finite, got [nan, 20.0]",
        ),
        (
            {"command": "density", "points": {"kind": "reciprocal", "N": 10**12}, "h_values": [1.0]},
            "reciprocal family needs a whole count in 1..1048576, got 1000000000000",
        ),
        # each |<t, T_n f>|^1.5 = (1e-300)^1.5 underflows, so the sum read 0 and
        # K_required inf, as if the test annihilated the lattice
        (
            {"command": "cq-sweep", "system": {**SYSTEM, "p": 1.5}, "h_values": [1e-150, 1e-300]},
            "the required constant at p = 1.5 reads inf in double precision, though the test does "
            "not annihilate the truncation",
        ),
    ],
    ids=[
        "density-h-power-overflows",
        "density-h-power-underflows",
        "density-ratio-overflows",
        "density-unit-sites-at-1e-320",
        "density-grid-index-past-2^53",
        "density-window-below-resolution",
        "dichotomy-fractional-reciprocal-radius",
        "dichotomy-infinite-radius",
        "dichotomy-nan-radius",
        "reciprocal-count-over-budget",
        "cq-sweep-power-sum-underflows",
    ],
)
def test_degenerate_sides_and_counts_exit_3_without_warnings(tmp_path, capsys, payload, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would end the run otherwise
        code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and err == f"lpdensity {payload['command']}: precondition violated: {message}"


def test_density_window_past_the_double_range_runs_without_warnings(tmp_path, capsys):
    # the window anchored at 1.7e308 ends past the largest double; the scan
    # printed two numpy overflow warnings for it
    payload = {**_density({"kind": "explicit", "rows": [[1.7e308], [0.0]]}), "h_values": [1e308]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run_exit(tmp_path, capsys, payload)
    row = read_report(tmp_path, "density")["outputs"]["profile"]["rows"][0]
    assert code == 0 and err == ""
    assert (row["nu_lower"], row["nu_upper"], row["exact"]) == (1, 1, True)


def test_cq_sweep_holder_verdict_reads_an_overflowing_power_as_inf(tmp_path, capsys):
    # ||chi_[-h, h)||_q^1000 is past the double range; the verdict's q_norm ** p
    # raised OverflowError after the sweep had succeeded
    lattice = {"kind": "lattice", "spacing": 1.0, "window": 20, "dimension": 1}
    system = {"p": 1000.0, "generators": [{"f": UNIT_SPEC, "gamma": lattice}]}
    code, err = _run_exit(tmp_path, capsys, {"command": "cq-sweep", "system": system, "h_values": [4, 2]})
    assert code == 0 and err == ""
    report = read_report(tmp_path, "cq_sweep")
    assert report["verdicts"] == {"proof_inequality": True}
    assert all(row["p_power_sum"] > 0 for row in report["outputs"]["sweep"]["rows"])


def test_reciprocal_radius_given_as_an_integral_float_runs(tmp_path, capsys):
    payload = {**DICHOTOMY, "system": _RECIPROCAL_SYSTEM, "truncation_radii": [20, 70.0]}
    code, _ = _run_exit(tmp_path, capsys, payload)
    rows = read_report(tmp_path, "dichotomy")["outputs"]["dichotomy"]["density_rows"]
    assert code in (0, 4) and [r["total_sites"] for r in rows] == [20, 70]


def test_finite_frequencies_keep_their_bits():
    piece = {"lower": [-0.5], "upper": [0.75], "re": 2.0, "im": -1.0}
    h = ingest_function({"dimension": 1, "pieces": [piece]})
    for b in (1.0, 3e-7, 1e300, -2.5e10):
        tau = -2j * math.pi * b
        want = complex(2.0, -1.0) * ((cmath.exp(tau * 0.75) - cmath.exp(tau * -0.5)) / tau)
        assert pair_modulated(h, [b]) == want


@pytest.mark.parametrize(
    "payload, key",
    [
        (_bessel({**SYSTEM, "generators": 3}), "'generators'"),
        (_bessel({**SYSTEM, "generators": [7]}), "'f'"),
        (_bessel(SYSTEM, tests=3), "'tests'"),
        (_density({"kind": "union", "children": 5}), "'children'"),
        (_density(5), "point set"),
        ({**DICHOTOMY, "bessel_tests": 3}, "'bessel_tests'"),
        ({**DICHOTOMY, "tolerances": 3}, "'tolerances'"),
        # a string is no list of its characters
        ({"command": "density", "points": LATTICE_1D, "h_values": "124"}, "'h_values'"),
        (_density({"kind": "explicit", "rows": ["12", "34"]}), "'rows'"),
        ({**DECAY, "x": "12"}, "'x'"),
    ],
)
def test_spec_of_the_wrong_shape_exits_2(tmp_path, capsys, payload, key):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 2 and key in err and "\n" not in err


@pytest.mark.parametrize("chain", [["self.json"], ["a.json", "b.json"]])
def test_point_set_file_that_refers_back_to_itself_exits_2(tmp_path, capsys, chain):
    # each file holds {"path": <the next file>}, and the last names the first
    for name, target in zip(chain, chain[1:] + chain[:1]):
        (tmp_path / name).write_text(json.dumps({"path": target}))
    code, err = _run_exit(tmp_path, capsys, _density({"path": chain[0]}))
    assert code == 2 and "refers back to itself" in err and "\n" not in err


def test_references_resolve_against_the_file_that_holds_them(tmp_path, capsys):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "unit.json").write_text(json.dumps(UNIT_SPEC))
    (sub / "sites.csv").write_text("x\n0.0\n1.0\n2.0\n")
    system = {"p": 2.0, "generators": [{"f": {"path": "unit.json"}, "gamma": "sites.csv"}]}
    (sub / "system.json").write_text(json.dumps(system))
    code, _ = _run_exit(tmp_path, capsys, _bessel("sub/system.json", tests=[{"path": "sub/unit.json"}]))
    assert code == 0
    assert read_report(tmp_path, "bessel")["outputs"]["bessel"]["bound_estimate"] == 1.0


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_digests_every_file_the_run_parsed(tmp_path):
    # the README's layout: chain.json -> data/system.json -> unit.json, sites.csv
    data = tmp_path / "data"
    data.mkdir()
    (data / "unit.json").write_text(json.dumps(UNIT_SPEC) + "\n")
    (data / "sites.csv").write_text("x\n0.0\n1.0\n2.5\n")
    system = {"p": 2.0, "generators": [{"f": {"path": "unit.json"}, "gamma": {"path": "sites.csv"}}]}
    (data / "system.json").write_text(json.dumps(system) + "\n")
    chain = [
        {"command": "density", "points": {"path": "data/sites.csv"}, "h_values": [1.0, 2.0]},
        _bessel({"path": "data/system.json"}, tests=[{"path": "data/unit.json"}]),
    ]
    spec = write_spec(tmp_path, "chain.json", chain)
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "out")]) == 0
    inputs = read_report(tmp_path / "out", "bessel")["provenance"]["inputs"]
    names = ("data/system.json", "data/unit.json", "data/sites.csv")
    assert inputs == {name: _sha256(tmp_path / name) for name in names}
    density = read_report(tmp_path / "out", "density")["provenance"]["inputs"]
    assert density == {"data/sites.csv": _sha256(data / "sites.csv")}


@pytest.mark.parametrize("unread", [{"path": "unit.json"}, "unit.json"])
def test_report_leaves_out_references_the_command_never_reads(tmp_path, unread):
    (tmp_path / "unit.json").write_text(json.dumps(UNIT_SPEC))
    (tmp_path / "h.json").write_text(json.dumps(UNIT_SPEC))
    # with "freq" present, pair reads no "f"
    spec = write_spec(tmp_path, "mod.json", {"h": "h.json", "freq": [1.0], "f": unread})
    assert main(["pair", "--spec", spec, "--out", str(tmp_path)]) == 0
    inputs = read_report(tmp_path, "pair")["provenance"]["inputs"]
    assert inputs == {"h.json": _sha256(tmp_path / "h.json")}


def test_digest_keys_are_paths_relative_to_the_spec(tmp_path):
    points_to_csv(make_lattice(1.0, 3, 1), tmp_path / "z.csv")
    absolute = str(tmp_path / "z.csv")
    spec = write_spec(tmp_path, "density.json", _density({"path": "./z.csv"}))
    assert main(["run", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "density")["provenance"]["inputs"] == {"z.csv": _sha256(tmp_path / "z.csv")}
    spec = write_spec(tmp_path, "density.json", _density(absolute))
    assert main(["run", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path, "density")["provenance"]["inputs"] == {absolute: _sha256(tmp_path / "z.csv")}


def test_two_generators_may_read_the_same_csv(tmp_path, capsys):
    (tmp_path / "sites.csv").write_text("0.0\n1.0\n2.0\n")
    gen = {"f": UNIT_SPEC, "gamma": "sites.csv"}
    code, _ = _run_exit(tmp_path, capsys, _bessel({"p": 2.0, "generators": [gen, gen]}))
    assert code == 0
    assert list(read_report(tmp_path, "bessel")["provenance"]["inputs"]) == ["sites.csv"]


def test_union_child_that_names_its_own_file_exits_2(tmp_path, capsys):
    union = {"kind": "union", "children": [{"points": {"path": "u.json"}}]}
    (tmp_path / "u.json").write_text(json.dumps(union))
    code, err = _run_exit(tmp_path, capsys, _density("u.json"))
    assert code == 2 and "refers back to itself" in err and "\n" not in err


def test_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "latin1.csv").write_bytes("x\n0.5\n1.5\n# caf\xe9\n".encode("latin-1"))
    code, err = _run_exit(tmp_path, capsys, _density({"path": "latin1.csv"}))
    assert code == 2 and "latin1.csv" in err and "\n" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("x\n0.5\n\n1.5,abc\n", "sites.csv:4: non-numeric field in ['1.5', 'abc']"),
        ("x,y\n\n", "sites.csv: no data rows"),
    ],
    ids=["non-numeric", "header-only"],
)
def test_csv_without_numeric_rows_exits_2(tmp_path, capsys, text, message):
    (tmp_path / "sites.csv").write_text(text)
    code, err = _run_exit(tmp_path, capsys, _density({"path": "sites.csv"}))
    assert code == 2 and err.endswith(message) and "\n" not in err


def test_mass_decay_point_of_another_dimension_exits_3(tmp_path, capsys):
    code, err = _run_exit(tmp_path, capsys, {**DECAY, "x": [0.0, 7.0]})
    assert code == 3 and "dimension" in err and "\n" not in err
    assert not (tmp_path / "mass_decay_report.json").exists()


# ---------------------------------------------------------------------------
# spec fuzzes of separate, pair, bessel and dichotomy.  A spec is either well
# formed, each field small enough to run or extreme, or faulty, where a field
# may also be of a wrong type, a reference to a file that holds no such
# value, or left out.  An extreme size is over a budget alone, so it is
# refused before anything of its size is built

_refs = st.sampled_from(
    [{"path": "spec.json"}, {"path": "missing.json"}, {"path": 3}, {"path": {"path": "spec.json"}}, "missing.csv"]
)


def _fields(draw, spec, fields, faulty):
    """spec with each (small, extreme) field of `fields` drawn small seven
    times as often as extreme; in a faulty spec a field is also, as often as
    extreme, of a wrong type, a reference or left out."""
    kinds = ["small"] * 7 + ["extreme"] + (["wrong", "reference", "left out"] if faulty else [])
    for key, (good, extreme) in fields.items():
        kind = draw(st.sampled_from(kinds))
        if kind != "left out":
            spec[key] = draw({"small": good, "extreme": extreme, "wrong": _wrong, "reference": _refs}[kind])
    return spec


_quarters = st.integers(-8, 8).map(lambda k: k / 4)


def _boxes(d, corners=_quarters):
    sides = st.lists(st.lists(corners, min_size=2, max_size=2, unique=True).map(sorted), min_size=d, max_size=d)
    return sides.map(lambda s: {"lower": [a for a, _ in s], "upper": [b for _, b in s]})


_values = st.sampled_from([1.0, -2.5, 0.5])


@st.composite
def _fuzz_functions(draw, d, faulty):
    """A function spec in dimension d: an indicator of a box or cube, up to 4
    pieces that may overlap, or a sampled catalog function."""
    kind = draw(st.sampled_from(["box", "cube", "pieces", "sampled"]))
    if kind == "box":
        fields = {"box": (_boxes(d), _boxes(d, _coordinates)), "value": (_values, _coordinates)}
        return _fields(draw, {"kind": "indicator"}, fields, faulty)
    if kind == "cube":
        fields = {
            "center": (st.lists(_quarters, min_size=d, max_size=d), st.lists(_coordinates, min_size=d, max_size=d)),
            "side": (st.sampled_from([0.5, 1.0, 2.0]), _positive),
        }
        cube = _fields(draw, {}, fields, faulty)
        return _fields(draw, {"kind": "indicator", "cube": cube}, {"value": (st.just("1+2j"), _coordinates)}, faulty)
    if kind == "pieces":
        boxes = draw(st.lists(_boxes(d), min_size=1, max_size=4))
        parts = {"re": (_values, _coordinates), "im": (_values, _coordinates)}
        pieces = [_fields(draw, dict(box), parts, faulty) for box in boxes]
        return _fields(draw, {"pieces": pieces}, {"dimension": (st.just(d), st.sampled_from([0, 3, 10**30]))}, faulty)
    fields = {
        "expression": (st.sampled_from(["gaussian", "tent"]), st.just("no such expression")),
        "step": (st.sampled_from([0.25, 0.5]), st.sampled_from([5e-324, 1e-10, 0.0, -1.0, 1e300])),
        "support": (_boxes(d), _boxes(d, _coordinates)),
    }
    return _fields(draw, {"kind": "sampled"}, fields, faulty)


@st.composite
def _fuzz_points(draw, d, faulty, kinds=("explicit", "lattice", "reciprocal", "union")):
    """A point-set spec in dimension d (reciprocal families only on the
    line): at most 4 explicit rows, a lattice of at most 13^d sites, a
    reciprocal family of at most 20, or a union of two of these."""
    kind = draw(st.sampled_from([k for k in kinds if d == 1 or k != "reciprocal"]))
    if kind == "explicit":
        rows = st.lists(st.lists(_coordinates, min_size=d, max_size=d), min_size=1, max_size=4, unique_by=tuple)
        return _fields(draw, {"kind": "explicit"}, {"rows": (rows, st.sampled_from([[], [[0.0] * d] * 2]))}, faulty)
    if kind == "lattice":
        fields = {
            "spacing": (st.sampled_from([0.5, 1.0, 1e300]), st.sampled_from([5e-324, 1e-10, 0.0, -1.0])),
            "window": (st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([1e300, 0.0, -1.0])),
            "dimension": (st.just(d), st.sampled_from([0, 30, 10**30])),
        }
        return _fields(draw, {"kind": "lattice"}, fields, faulty)
    if kind == "reciprocal":
        counts = (st.sampled_from([1, 2, 5, 20]), st.sampled_from([0, 2**20 + 1, 10**30, 20.5]))
        return _fields(draw, {"kind": "reciprocal"}, {"N": counts}, faulty)
    members = st.lists(_fuzz_points(d, faulty, [k for k in kinds if k != "union"]), min_size=1, max_size=2)
    children = [{"label": f"m{i}", "points": m} for i, m in enumerate(draw(members))]
    return _fields(draw, {"kind": "union"}, {"children": (st.just(children), st.just([]))}, faulty)


@st.composite
def _fuzz_systems(draw, d, faulty, kinds=("explicit", "lattice", "reciprocal", "union")):
    generators = [
        {"f": draw(_fuzz_functions(d, faulty)), "gamma": draw(_fuzz_points(d, faulty, kinds)), "label": f"g{i}"}
        for i in range(draw(st.integers(1, 2)))
    ]
    fields = {
        "p": (st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([1.0, 1e300])),
        "generators": (st.just(generators), st.just([])),
    }
    return _fields(draw, {}, fields, faulty)


_p_primes = (st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([1.0, 1e3, 1e300]))


@st.composite
def _separate_specs(draw):
    d, faulty = draw(st.integers(1, 3)), draw(st.booleans())
    points = _fuzz_points(d, faulty)
    fields = {"points": (points, points), "delta": (_positive, st.sampled_from([0.0, -1.0, 5e-324]))}
    return _fields(draw, {"command": "separate"}, fields, faulty)


@st.composite
def _pair_specs(draw):
    d, faulty = draw(st.integers(1, 2)), draw(st.booleans())
    functions = (_fuzz_functions(d, faulty), _fuzz_functions(3 - d, faulty))
    fields = {"h": functions}
    if draw(st.booleans()):
        fields["freq"] = (st.lists(_quarters, min_size=d, max_size=d), st.lists(_coordinates, max_size=3))
    else:
        fields["f"] = functions
    return _fields(draw, {"command": "pair"}, fields, faulty)


@st.composite
def _bessel_specs(draw):
    d, faulty = draw(st.integers(1, 2)), draw(st.booleans())
    tests = st.lists(_fuzz_functions(d, faulty), min_size=1, max_size=3)
    fields = {
        "system": (_fuzz_systems(d, faulty), _fuzz_systems(3 - d, faulty)),
        "tests": (tests, st.lists(_fuzz_functions(3 - d, faulty), max_size=2)),
        "p_prime": _p_primes,
    }
    return _fields(draw, {"command": "bessel"}, fields, faulty)


@st.composite
def _dichotomy_specs(draw):
    """dichotomy specs whose radii regrow lattices to at most 9^d sites and
    reciprocal families to at most 2."""
    d, faulty = draw(st.integers(1, 2)), draw(st.booleans())
    radii = st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=3, unique=True)
    hs = st.lists(st.sampled_from([2.0, 0.5, 0.25, 0.125]), min_size=2, max_size=3, unique=True)
    regrown = ("lattice", "reciprocal", "union")
    fields = {
        "system": (_fuzz_systems(d, faulty, regrown), _fuzz_systems(d, faulty, ("explicit", "lattice"))),
        "truncation_radii": (
            radii.map(sorted),
            st.sampled_from([[5.0, 1e300], [1.0, math.inf], [20.5, 40.0], [2.0, 1.0], [1.0]]),
        ),
        "h_values": (hs.map(lambda h: sorted(h, reverse=True)), st.sampled_from([[1e300, 1e-300], [1.0, 1.0], [1.0]])),
        "p_prime": _p_primes,
        "bessel_tests": (
            st.lists(_fuzz_functions(d, faulty), max_size=2),
            st.lists(_fuzz_functions(3 - d, faulty), max_size=1),
        ),
        "accumulation_radius": (st.sampled_from([0.05, 0.5, 2.0]), st.sampled_from([5e-324, 1e300])),
        "accumulation_threshold": (st.sampled_from([2, 3, 10]), st.sampled_from([1, 10**30])),
        "epsilon_fraction": (st.sampled_from([0.25, 0.5, 0.9]), st.sampled_from([0.0, 1.0, 5e-324])),
        "bessel_variation_tol": (st.sampled_from([0.01, 0.1]), st.sampled_from([0.0, 1e300])),
        "subadditivity_h_values": (st.lists(st.sampled_from([0.5, 1.0, 4.0]), max_size=3), st.just([1e300, 1e-300])),
    }
    return _fields(draw, {"command": "dichotomy"}, fields, faulty)


def test_sweep_over_an_annihilated_indicator_writes_no_infinity(tmp_path, capsys):
    # 1_[1/4, 1/2) over Z: no translate meets [-1/4, 1/4), so K_required is
    # unbounded at h = 1/4 and decides the verdict.  The report read
    # "k_required": Infinity and "growth_exponent": Infinity, found by the
    # dichotomy spec fuzz below
    f = {"kind": "indicator", "box": {"lower": [0.25], "upper": [0.5]}}
    system = {"p": 1.5, "generators": [{"f": f, "gamma": {**LATTICE_1D, "window": 1.0}}]}
    payload = {"command": "cq-sweep", "system": system, "h_values": [0.5, 0.25]}
    assert _run_exit(tmp_path, capsys, payload) == (0, "")
    text = (tmp_path / "cq_sweep_report.json").read_text()
    assert "Infinity" not in text
    sweep = json.loads(text)["outputs"]["sweep"]
    assert [r["k_required"] is None for r in sweep["rows"]] == [False, True]
    assert (sweep["verdict"], sweep["growth_exponent"], sweep["r_squared"]) == ("divergent", None, None)
    assert (tmp_path / "cq_sweep.csv").read_text().splitlines()[2].split(",")[3] == ""


@pytest.mark.parametrize(
    "specs",
    [_separate_specs(), _pair_specs(), _bessel_specs(), _dichotomy_specs()],
    ids=["separate", "pair", "bessel", "dichotomy"],
)
def test_specs_exit_cleanly_with_finite_reports(specs):
    @settings(max_examples=150, deadline=5000)
    @given(specs)
    def run(payload):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning ends the run as an exception
            warnings.filterwarnings("ignore", "overlapping pieces", UserWarning)  # the spec's own warning
            _assert_exits_cleanly(payload)

    run()


# a refusal each that runs through main only here: (payload, the field its
# one stderr line names); a CSV file named "ragged.csv" holds rows of two lengths
_REFUSED_FIELDS = [
    ({**_density(LATTICE_1D), "h_values": []}, "h_values"),
    ({**_density(LATTICE_1D), "h_values": [-1.0]}, "h_values"),
    ({**_density(LATTICE_1D), "h_values": [2.0, 1.0]}, "h_values"),
    (_density({**LATTICE_1D, "offset": [0.0, 0.0]}), "lattice offset"),
    (_density({"kind": "lattice", "basis": [[1.0, 0.0]], "window": 3}), "lattice basis"),
    (_density({"kind": "explicit", "rows": [[math.inf]]}), "point coordinates"),
    (_density({"path": "ragged.csv"}), "point dimensions"),
    ({**BLOWUP, "points": {"kind": "explicit", "rows": [[0.0, 0.0], [0.5, 0.0]]}}, "dimension"),
    ({**HAAR, "cutoff": -1}, "cutoff"),
    ({**DICHOTOMY, "truncation_radii": [5]}, "truncation radii"),
    ({**DICHOTOMY, "truncation_radii": [5, 3]}, "truncation radii"),
    ({**DICHOTOMY, "accumulation_radius": 0}, "radius"),
    ({**DICHOTOMY, "accumulation_threshold": 1}, "threshold"),
    ({"command": "cq-sweep", "system": SYSTEM, "h_values": [1.0]}, "h_values"),
    ({**DECAY, "h_values": [1.0, 2.0]}, "h_values"),
]


@pytest.mark.parametrize("payload, field", _REFUSED_FIELDS)
def test_refused_field_exits_3_with_one_line(tmp_path, capsys, payload, field):
    (tmp_path / "ragged.csv").write_text("0.0,0.0\n1.0\n")
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and field in err and "\n" not in err, err


_ONE_SITE = {"f": UNIT_SPEC, "gamma": {"kind": "explicit", "rows": [[100.0]]}}


@pytest.mark.parametrize(
    "payload",
    [
        # no site meets the cube, so no Lp norm was formed and the total read 0
        *({**MASS, "generator": _ONE_SITE, "p": p} for p in (0.5, "NaN", -3)),
        {**DECAY, "generator": {**_ONE_SITE, "gamma": {"kind": "explicit", "rows": [[100.0], [200.0]]}}, "p": -1},
        # the sweep's refusal was kept as cq_failure, and the run ended on its verdicts
        *({**DICHOTOMY, "h_values": h_values} for h_values in ([-1, -2], [0.125, 0.25], [0.25])),
        # one lattice generator forms no subadditivity row, where the values were checked
        {**DICHOTOMY, "subadditivity_h_values": [-1.0]},
    ],
    ids=["mass-p-0.5", "mass-p-nan", "mass-p-minus-3", "decay-p-minus-1", "dichotomy-h-negative",
         "dichotomy-h-increasing", "dichotomy-one-h", "dichotomy-subadditivity-h-negative"],
)
def test_exponent_or_h_value_refused_before_any_report(tmp_path, capsys, payload):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 3 and "\n" not in err, err
    assert not list(tmp_path.glob("*_report.json"))


def test_sampled_function_reads_no_exponent(tmp_path, capsys):
    # "p" fed only an error bound that no report held; 0 ended in a ZeroDivisionError
    for d in ("zero", "none"):
        (tmp_path / d).mkdir()
    assert _run_exit(tmp_path / "zero", capsys, _pair({**SAMPLED_FN, "p": 0})) == (0, "")
    assert _run_exit(tmp_path / "none", capsys, _pair(SAMPLED_FN)) == (0, "")
    pairings = [read_report(tmp_path / d, "pair")["outputs"]["pairing"] for d in ("zero", "none")]
    assert pairings[0] == pairings[1] == {"im": 0.0, "re": 0.5}
