"""Experiment runner: spec dispatch, file formats, exit codes, determinism."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

from lpdensity import PointSet, indicator_interval, make_lattice, pt
from lpdensity import cli
from lpdensity.cli import main
from lpdensity.io import (
    emit_json,
    function_from_spec,
    function_spec,
    ingest_points,
    point_set_from_spec,
    point_set_spec,
    points_to_csv,
)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    assert [p.coords for p in back.points] == [p.coords for p in s.points]


def test_three_column_csv_gives_3d_points(tmp_path):
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(100, 3))
    path = tmp_path / "cloud.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    s = ingest_points(str(path))
    assert s.dimension == 3
    assert len(s) == 100


def test_point_set_spec_round_trip():
    s = PointSet((pt(0.5, 1.0), pt(-1.25, 3.0)))
    assert point_set_from_spec(point_set_spec(s)).points == s.points


def test_function_spec_round_trip():
    f = indicator_interval(0.25, 1.5, 2.0 - 1.0j)
    assert function_from_spec(function_spec(f)) == f


def test_reciprocal_descriptor():
    s = point_set_from_spec({"kind": "reciprocal", "N": 50})
    assert len(s) == 50
    assert min(p.coords[0] for p in s.points) == pytest.approx(1 / 50)
    alias = point_set_from_spec({"kind": "reciprocal", "count": 50})
    assert alias.points == s.points


def test_union_descriptor_with_children():
    s = point_set_from_spec(
        {
            "kind": "union",
            "children": [
                {"label": "a", "points": {"kind": "lattice", "spacing": 1.0, "window": 3, "dimension": 1}},
                {"label": "b", "points": {"kind": "explicit", "rows": [[0.5], [1.5]]}},
            ],
        }
    )
    assert len(s) == 9
    assert s.provenance.kind == "union"


def test_shifted_lattice_descriptor():
    s = point_set_from_spec(
        {"kind": "lattice", "spacing": 1.0, "window": 3, "dimension": 1, "offset": [0.25]}
    )
    assert all((p.coords[0] - 0.25) == int(p.coords[0] - 0.25) for p in s.points)
    assert max(abs(p.coords[0]) for p in s.points) <= 3.0


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
        f = function_from_spec(spec)
    assert f.value_at((0.75,)) == 2.0


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
    ],
)
def test_scalar_field_that_is_no_number_exits_2(tmp_path, capsys, payload, key):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 2 and key in err and "\n" not in err


def test_chain_repeating_a_command_exits_2_before_running(tmp_path, capsys):
    density = {"command": "density", "points": LATTICE_1D, "h_values": [1.0]}
    chain = [density, {"command": "separate", "points": LATTICE_1D, "delta": 0.5}, density]
    code, err = _run_exit(tmp_path, capsys, chain)
    assert code == 2 and "'density' twice" in err
    assert not list(tmp_path.glob("*_report.json"))


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


@pytest.mark.parametrize("seed", [191451571, 1072204709])
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
        (_pair({**SAMPLED_FN, "p": "x"}), "'p'"),
        (_pair({**PIECES_FN, "pieces": 3}), "'pieces'"),
    ],
)
def test_ingested_field_that_is_no_number_exits_2(tmp_path, capsys, payload, key):
    code, err = _run_exit(tmp_path, capsys, payload)
    assert code == 2 and key in err and "\n" not in err
