"""Translate-system analysis: Bessel sums, witnesses, required constants, mass."""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from lpdensity import (
    DichotomyConfig,
    DimensionMismatchError,
    ExponentPair,
    Generator,
    PiecewiseFn,
    PointSet,
    PreconditionError,
    TranslateSystem,
    bessel_bound_estimate,
    bessel_sum,
    blowup_witness,
    cq_indicator_sweep,
    cq_required_constant,
    dichotomy_report,
    localized_mass,
    lp_norm,
    make_lattice,
    make_reciprocal,
    mass_decay_sweep,
    pair,
    scale,
    system_localized_mass,
    translate,
    union_point_sets,
    zero_fn,
)
from lpdensity import translate_system
from lpdensity.cli import main
from lpdensity.lpfunc import Box, indicator

from oracles import budgeted_lsq_error, interval, line_set


UNIT = interval(0, 1)


def z_system(window=10, p=2.0, f=UNIT):
    return TranslateSystem((Generator(f, make_lattice(1.0, window, 1), "Z"),), ExponentPair(p))


def test_power_sums_and_masses_past_the_double_range_are_refused():
    # the unit test pairs to 1e200 with the site-0 copy of a 1e200 generator
    big = interval(0, 1, 1e200)
    with pytest.raises(PreconditionError, match="overflows double precision"):
        bessel_sum(z_system(f=big), UNIT, 2.0)
    with pytest.raises(PreconditionError, match="overflows double precision"):
        cq_required_constant(z_system(f=big), UNIT)
    gen = Generator(big, make_lattice(1.0, 3, 1), "Z")
    with pytest.raises(PreconditionError, match="overflows double precision"):
        localized_mass(gen, Box.cube((0.0,), 1.0), 2.0)
    # two generators of mass 1.44e308 each: the system's sum read inf
    edge = tuple(Generator(interval(0, 1, 1.2e154), line_set(0.0), k) for k in "ab")
    with pytest.raises(PreconditionError, match="overflows double precision"):
        system_localized_mass(TranslateSystem(edge, ExponentPair(2.0)), Box.cube((0.5,), 1.0), 2.0)
    # inside the range every bit stays
    ok = interval(0, 1, 1e150 + 2e149j)
    assert bessel_sum(z_system(f=ok), UNIT, 2.0) == abs(pair(UNIT, ok)) ** 2.0
    mass = localized_mass(Generator(ok, make_lattice(1.0, 3, 1), "Z"), Box.cube((0.0,), 1.0), 2.0)
    assert mass.total == 2 * (abs(1e150 + 2e149j) ** 2.0 * 0.5)


# ---------------------------------------------------------------------------
# bessel_sum


def test_bessel_sum_integer_translates_single_overlap():
    for p_prime in (1.5, 2.0, 3.0):
        assert bessel_sum(z_system(), UNIT, p_prime) == pytest.approx(1.0)


def test_bessel_sum_two_full_overlaps():
    assert bessel_sum(z_system(), interval(0, 2), 2.0) == pytest.approx(2.0)


def test_bessel_sum_partial_overlap():
    sys_ = TranslateSystem(
        (Generator(UNIT, line_set(0.0, 0.5), "g"),), ExponentPair(2.0)
    )
    # overlaps 1 at gamma=0 and 0.5 at gamma=0.5; direct integral oracle
    assert bessel_sum(sys_, UNIT, 2.0) == pytest.approx(1.0 + 0.25)


def test_bessel_sum_zero_test_rejected():
    from lpdensity import zero_fn

    with pytest.raises(PreconditionError):
        bessel_sum(z_system(), zero_fn(1), 2.0)


# ---------------------------------------------------------------------------
# bessel_bound_estimate


def test_bessel_estimate_unit_test():
    est = bessel_bound_estimate(z_system(), [UNIT], 2.0)
    assert est.bound_estimate == pytest.approx(1.0)


def test_bessel_estimate_two_tests():
    est = bessel_bound_estimate(z_system(), [UNIT, interval(0, 2)], 2.0)
    # ||chi_[0,2)||_2^2 = 2, sum = 2 -> ratio 1
    assert [r.ratio for r in est.per_test] == pytest.approx([1.0, 1.0])
    assert est.bound_estimate == pytest.approx(1.0)


def test_bessel_estimate_scale_invariant():
    rng = np.random.default_rng(21)
    sys_ = z_system()
    tests = [interval(0, 1.5), interval(-0.5, 2.0, 0.7)]
    for c in rng.uniform(0.1, 5.0, size=4):
        a = bessel_bound_estimate(sys_, tests, 2.0)
        b = bessel_bound_estimate(sys_, [scale(t, c) for t in tests], 2.0)
        assert b.bound_estimate == pytest.approx(a.bound_estimate, rel=1e-12)


_UNIT_SPEC = {"kind": "indicator", "box": {"lower": [0.0], "upper": [1.0]}}

# one fault each: (library call arguments, bessel spec fields, error, message)
_BESSEL_REFUSALS = [
    *(
        ([UNIT], p_prime, None, {"p_prime": p_prime}, PreconditionError,
         f"p_prime must lie in (1, inf), got {p_prime}")
        for p_prime in (1.0, 0.5, math.nan, math.inf)
    ),
    ([UNIT, zero_fn(1)], 2.0, None,
     {"tests": [_UNIT_SPEC, {**_UNIT_SPEC, "value": 0.0}]},
     PreconditionError, "zero test function 'test-1'"),
    ([UNIT, indicator(Box((0.0, 0.0), (1.0, 1.0)))], 2.0, None,
     {"tests": [_UNIT_SPEC, {"kind": "indicator", "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}}]},
     DimensionMismatchError, "test function dimension does not match the system"),
    ([UNIT], 2.0, ["a", "b"], None, PreconditionError, "labels must match tests one to one"),
    # 1e200 squared is past the double range, in the power sum before the q-norm
    ([UNIT, interval(0, 1, 1e200)], 2.0, None,
     {"tests": [_UNIT_SPEC, {**_UNIT_SPEC, "value": 1e200}]},
     PreconditionError, "the power sum at exponent 2.0 overflows double precision"),
    ([], 2.0, None, {"tests": []}, PreconditionError, "bessel_bound_estimate needs at least one test"),
]


@pytest.mark.parametrize("value, reads", [(1e100, "inf"), (1e-200, "0.0")])
def test_bessel_estimate_refuses_a_norm_power_out_of_range_before_any_sum(value, reads):
    # no site meets the test, so its power sum is 0; ||t||_q ** 4 is 1e400
    # or 1e-800, which s / ||t||_q ** p_prime met as OverflowError or
    # ZeroDivisionError
    far = interval(100, 101, value)
    with mock.patch.object(translate_system, "_system_power_sums", side_effect=AssertionError):
        with pytest.raises(PreconditionError) as info:
            bessel_bound_estimate(z_system(window=3), [UNIT, far], 4.0)
    assert str(info.value) == (
        f"the q-norm of test 'test-1' to the power p_prime = 4.0 reads {reads} in double precision"
    )


@pytest.mark.parametrize("tests, p_prime, labels, fields, error, message", _BESSEL_REFUSALS)
def test_bessel_estimate_refusals_keep_their_messages(tests, p_prime, labels, fields, error, message):
    with pytest.raises(error) as info:
        bessel_bound_estimate(z_system(), tests, p_prime, labels=labels)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "fields, message", [(f, m) for *_, f, _, m in _BESSEL_REFUSALS if f is not None]
)
def test_bessel_spec_refusals_exit_3(tmp_path, capsys, fields, message):
    lattice = {"kind": "lattice", "spacing": 1.0, "window": 10, "dimension": 1}
    system = {"p": 2.0, "generators": [{"f": _UNIT_SPEC, "gamma": lattice, "label": "Z"}]}
    spec = {"command": "bessel", "system": system, "tests": [_UNIT_SPEC], "p_prime": 2.0, **fields}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # nan and inf as NaN and Infinity
    code = main(["run", "--spec", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    assert code == 3 and err == f"lpdensity bessel: precondition violated: {message}"


def _witness_spec(value, epsilon, p_prime):
    f = {**_UNIT_SPEC, "value": value}
    points = {"kind": "reciprocal", "N": 40}
    return {"command": "blowup-witness", "f": f, "f_dual": f, "points": points,
            "epsilon": epsilon, "p_prime": p_prime}


def _far_test_spec(value):
    system = {"p": 2.0, "generators": [{"f": _UNIT_SPEC, "gamma": {
        "kind": "lattice", "spacing": 1.0, "window": 3, "dimension": 1}}]}
    far = {"kind": "indicator", "box": {"lower": [100.0], "upper": [101.0]}, "value": value}
    return {"command": "bessel", "system": system, "tests": [far], "p_prime": 4.0}


def _ratio_spec():
    spec = _far_test_spec(1e-75)
    spec["system"]["generators"][0]["f"] = {**_UNIT_SPEC, "value": 1e150}
    spec["tests"] = [{**_UNIT_SPEC, "value": 1e-75}]
    return spec


@pytest.mark.parametrize(
    "spec, message",
    [
        (_witness_spec(1e200, 0.5, 2.0), "|<f, f_dual>| reads inf in double precision"),
        (_witness_spec(1e100, 1e199, 4.0),
         "epsilon ** p_prime at p_prime = 4.0 overflows double precision"),
        (_far_test_spec(1e100),
         "the q-norm of test 'test-0' to the power p_prime = 4.0 reads inf in double precision"),
        (_far_test_spec(1e-200),
         "the q-norm of test 'test-0' to the power p_prime = 4.0 reads 0.0 in double precision"),
        # a power sum of 1e300 over a divisor of 1e-300: the ratio read Infinity
        (_ratio_spec(), "the Bessel ratio of test 'test-0' overflows double precision"),
    ],
    ids=["witness-pairing", "witness-epsilon-power", "bessel-norm-power", "bessel-norm-power-0",
         "bessel-ratio"],
)
def test_specs_past_the_double_range_exit_3_without_warnings(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would end the run otherwise
        code = main(["run", "--spec", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    assert code == 3 and err == f"lpdensity {spec['command']}: precondition violated: {message}"


# ---------------------------------------------------------------------------
# blowup_witness


def test_blowup_witness_dense_grid():
    gamma = PointSet(tuple((k / 100,) for k in range(100)))
    w = blowup_witness(UNIT, UNIT, gamma, 0.5, 2.0)
    # enumeration oracle at the returned center: tent(g - beta) > 1/2
    direct = sum(
        1 for g in gamma.points if max(0.0, 1.0 - abs(g[0] - w.beta[0])) > 0.5
    )
    assert w.count == direct
    assert w.count >= 95
    assert w.sum_lower_bound == pytest.approx(w.count * 0.25)


def test_blowup_witness_separated_lattice_count_one():
    w = blowup_witness(UNIT, UNIT, make_lattice(1.0, 10, 1), 0.5, 2.0)
    assert w.window_side < 1.0
    assert w.count == 1


def test_blowup_witness_single_point():
    w = blowup_witness(UNIT, UNIT, line_set(0.0), 0.99, 2.0)
    assert w.count == 1
    assert w.beta[0] == pytest.approx(0.5, abs=0.5)


def test_blowup_witness_epsilon_precondition():
    with pytest.raises(PreconditionError):
        blowup_witness(UNIT, UNIT, line_set(0.0), 1.0, 2.0)


def test_blowup_witness_refuses_values_past_the_double_range_before_its_scan():
    big = interval(0, 1, 1e200)
    gamma = make_reciprocal(40)
    with mock.patch.object(translate_system, "cross_pairings", side_effect=AssertionError):
        # |<f, f_dual>| = 1e400 reads inf
        with pytest.raises(PreconditionError, match=r"\|<f, f_dual>\| reads inf in double"):
            blowup_witness(big, big, gamma, 0.5, 2.0)
        # |<f, f_dual>| = 1e200 is finite, and epsilon ** p_prime = 1e796 is not
        huge = interval(0, 1, 1e100)
        with pytest.raises(PreconditionError, match=r"epsilon \*\* p_prime .* overflows double"):
            blowup_witness(huge, huge, gamma, 1e199, 4.0)


def test_blowup_witness_names_a_centre_that_collapses_f_dual():
    # f_dual's piece is 2^-12 wide, below half an ulp at the centre 2^45 +
    # 1/2: translate would collapse it, and the kernel refused with its own
    # wording, which named neither the witness nor the centre
    f_dual = interval(0, 2**-12)
    with pytest.raises(
        PreconditionError,
        match=r"^the witness window of side 0\.99969482421875 centred at \(35184372088832\.5,\) "
        r"moves a piece of f_dual past the double range or collapses it$",
    ):
        blowup_witness(interval(-0.5, 0.5), f_dual, line_set(2.0**45), 2**-13, 2.0)


def test_blowup_witness_plane_grid():
    square = PiecewiseFn(((Box((0.0, 0.0), (1.0, 1.0)), 1.0),), 2)
    pts = PointSet(tuple((i / 20, j / 20) for i in range(20) for j in range(20)))
    w = blowup_witness(square, square, pts, 0.5, 2.0)
    direct = sum(
        1
        for p in pts.points
        if abs(pair(translate(square, p), translate(square, w.beta))) > 0.5
    )
    assert w.count == direct
    assert w.count >= 200  # most of the 400-point grid lands in the window
    assert w.sum_lower_bound == pytest.approx(w.count * 0.25)


def test_blowup_witness_sound_against_bessel_sum():
    for n in (50, 150):
        gamma = PointSet(tuple((k / n,) for k in range(n)))
        w = blowup_witness(UNIT, UNIT, gamma, 0.5, 2.0)
        sys_ = TranslateSystem((Generator(UNIT, gamma, "g"),), ExponentPair(2.0))
        direct = bessel_sum(sys_, translate(UNIT, w.beta), 2.0)
        assert w.sum_lower_bound <= direct


# ---------------------------------------------------------------------------
# cq_required_constant


def test_cq_required_closed_form():
    sys_ = z_system(window=20)
    for h in (0.25, 0.0625):
        test = interval(-h, h)
        assert cq_required_constant(sys_, test) == pytest.approx(h**-0.5, rel=1e-12)


def test_cq_required_translation_covariance():
    beta = 0.375
    sys_a = z_system(window=20)
    shifted = PointSet(tuple((x[0] + beta,) for x in make_lattice(1.0, 20, 1).points))
    sys_b = TranslateSystem((Generator(UNIT, shifted, "Z+b"),), ExponentPair(2.0))
    test = interval(-0.25, 0.25)
    assert cq_required_constant(sys_b, translate(test, (beta,))) == pytest.approx(
        cq_required_constant(sys_a, test), rel=1e-12
    )


def test_cq_required_unbounded_witness():
    sys_ = TranslateSystem((Generator(UNIT, line_set(100.0), "far"),), ExponentPair(2.0))
    assert cq_required_constant(sys_, interval(-0.25, 0.25)) == math.inf


# ---------------------------------------------------------------------------
# cq_indicator_sweep


def test_sweep_matches_closed_form_and_diverges():
    sw = cq_indicator_sweep(z_system(window=20), [2.0**-k for k in range(2, 11)])
    for row in sw.rows:
        assert row.k_required == pytest.approx(row.h**-0.5, abs=1e-9)
        # the exact proof inequality: power sum <= q-norm^p * localized mass
        assert row.p_power_sum <= row.q_norm**2 * row.localized_mass * (1 + 1e-12)
    assert sw.verdict == "divergent"
    assert sw.growth_exponent == pytest.approx(0.5, abs=1e-9)
    assert sw.r_squared > 0.999


def test_sweep_fixed_test_is_bounded():
    sw = cq_indicator_sweep(
        z_system(window=20), [2.0**-k for k in range(2, 8)], fixed_test=UNIT
    )
    ks = [r.k_required for r in sw.rows]
    assert max(ks) == pytest.approx(min(ks), rel=1e-12)
    assert sw.verdict == "bounded"


def test_sweep_with_two_h_values_fits_both_rows():
    # the fit runs over at least two rows: one row gives polyfit a
    # minimum-norm slope with R^2 = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = cq_indicator_sweep(
            z_system(window=20), [0.25, 0.125], fixed_test=interval(0.0, 0.5)
        )
        sw = cq_indicator_sweep(z_system(window=20), [0.25, 0.125])
    assert [r.k_required for r in flat.rows] == [pytest.approx(math.sqrt(2), rel=1e-12)] * 2
    assert flat.verdict == "bounded" and abs(flat.growth_exponent) <= 1e-9
    assert sw.verdict == "divergent"
    assert sw.growth_exponent == pytest.approx(0.5, abs=1e-9)


def test_sweep_empty_overlap_unbounded_rows():
    sys_ = TranslateSystem((Generator(UNIT, line_set(100.0), "far"),), ExponentPair(2.0))
    sw = cq_indicator_sweep(sys_, [0.25, 0.125])
    assert all(math.isinf(r.k_required) for r in sw.rows)
    assert sw.verdict == "divergent"


def test_sweep_reach_check_rejects_small_lattice_window():
    with pytest.raises(PreconditionError, match="truncation too small"):
        cq_indicator_sweep(z_system(window=1), [4.0, 2.0])


def test_sweep_reach_check_rejects_reciprocal():
    sys_ = TranslateSystem(
        (Generator(UNIT, make_reciprocal(100), "recip"),), ExponentPair(2.0)
    )
    with pytest.raises(PreconditionError, match="truncation too small"):
        cq_indicator_sweep(sys_, [0.25, 0.125])


def test_sweep_reach_check_recurses_into_unions():
    union = union_point_sets(
        [("wide", make_lattice(1.0, 20, 1)), ("narrow", make_lattice(1.0, 1, 1))]
    )
    sys_ = TranslateSystem((Generator(UNIT, union, "u"),), ExponentPair(2.0))
    with pytest.raises(PreconditionError, match="truncation too small"):
        cq_indicator_sweep(sys_, [4.0, 2.0])


# ---------------------------------------------------------------------------
# localized_mass / mass_decay_sweep


def test_localized_mass_tiling_identity():
    gen = Generator(UNIT, make_lattice(1.0, 30, 1), "Z")
    for center, h in ((0.0, 0.5), (0.3125, 0.5), (-2.25, 0.75)):
        rep = localized_mass(gen, Box.cube((center,), h), 2.0)
        assert rep.total == h  # integer translates of [0,1) tile the line
        assert rep.finiteness_bound is not None
        assert rep.total <= rep.finiteness_bound.value


def test_localized_mass_double_cover():
    gen = Generator(interval(0, 2), make_lattice(1.0, 30, 1), "Z")
    rep = localized_mass(gen, Box.cube((0.0,), 0.5), 2.0)
    # direct summation oracle: every point of the window lies in two supports
    oracle = sum(
        max(0.0, min(0.25, g + 2) - max(-0.25, g))
        for g in np.arange(-30.0, 31.0)
        if g + 2 > -0.25 and g < 0.25
    )
    assert rep.total == pytest.approx(oracle, abs=1e-15)
    assert rep.total == pytest.approx(1.0)


def test_mass_decay_halves_exactly():
    gen = Generator(UNIT, make_lattice(1.0, 30, 1), "Z")
    rows = mass_decay_sweep(gen, (0.0,), [0.5, 0.25, 0.125, 0.0625], 2.0)
    for (_, a), (_, b) in zip(rows, rows[1:]):
        assert b == a / 2
    assert rows[-1][1] < 0.1


def test_mass_growth_for_reciprocal_family():
    h = 0.5
    masses = {}
    for n in (100, 200):
        gen = Generator(UNIT, make_reciprocal(n), "recip")
        rep = localized_mass(gen, Box.cube((0.0,), h), 2.0)
        # direct summation oracle over n <= N
        oracle = sum(
            max(0.0, min(h / 2, 1.0 / k + 1.0) - max(-h / 2, 1.0 / k))
            for k in range(1, n + 1)
        )
        assert rep.total == pytest.approx(oracle, rel=1e-12)
        masses[n] = rep.total
    assert masses[200] / masses[100] == pytest.approx(2.0, rel=0.1)


def test_mass_single_point_small():
    gen = Generator(UNIT, line_set(0.0), "one")
    rows = mass_decay_sweep(gen, (0.0,), [0.5, 0.25], 2.0)
    assert rows[0][1] <= min(1.0, 0.5)
    assert rows[1][1] == rows[0][1] / 2


def test_localized_mass_translation_covariance():
    beta = 0.4375
    gamma = make_lattice(1.0, 10, 1)
    shifted = PointSet(tuple((x[0] + beta,) for x in gamma.points))
    base = localized_mass(Generator(UNIT, gamma, "Z"), Box.cube((0.25,), 0.5), 2.0)
    moved = localized_mass(Generator(UNIT, shifted, "Z+b"), Box.cube((0.25 + beta,), 0.5), 2.0)
    assert moved.total == pytest.approx(base.total, rel=1e-12)


def test_localized_mass_tiling_2d():
    square = PiecewiseFn(((Box((0.0, 0.0), (1.0, 1.0)), 1.0),), 2)
    gen = Generator(square, make_lattice(1.0, 8, 2), "Z2")
    for center, h in (((0.0, 0.0), 0.5), ((0.25, -1.5), 1.25)):
        rep = localized_mass(gen, Box.cube(tuple(center), h), 2.0)
        assert rep.total == pytest.approx(h * h, abs=1e-15)


def test_bessel_sum_translation_covariance():
    beta = 0.375
    gamma = make_lattice(1.0, 10, 1)
    shifted = PointSet(tuple((x[0] + beta,) for x in gamma.points))
    sys_a = TranslateSystem((Generator(UNIT, gamma, "Z"),), ExponentPair(2.0))
    sys_b = TranslateSystem((Generator(UNIT, shifted, "Z+b"),), ExponentPair(2.0))
    test = interval(-0.5, 1.25)
    assert bessel_sum(sys_b, translate(test, (beta,)), 2.0) == pytest.approx(
        bessel_sum(sys_a, test, 2.0), rel=1e-12
    )


def test_system_localized_mass_sums_generators():
    g1 = Generator(UNIT, make_lattice(1.0, 10, 1), "a")
    g2 = Generator(interval(0, 2), make_lattice(1.0, 10, 1), "b")
    sys_ = TranslateSystem((g1, g2), ExponentPair(2.0))
    cube = Box.cube((0.0,), 0.5)
    assert system_localized_mass(sys_, cube, 2.0) == pytest.approx(
        localized_mass(g1, cube, 2.0).total + localized_mass(g2, cube, 2.0).total
    )


# ---------------------------------------------------------------------------
# lq-budget synthesis oracle (p = q = 2): exhaustive least squares over the
# span must be consistent with the dual required constant.  If some test h has
# K_required(h) > K, then for the normalized target f = h/||h|| and any
# combination g with coefficient budget ||a||_2 <= K,
#   ||f - g|| >= |<h, f-g>|/||h|| >= 1 - K/K_required,
# so the best constrained approximation error cannot fall below that gap.


def test_synthesis_oracle_consistent_with_required_constant():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        sites = np.sort(rng.uniform(-2, 2, size=m))
        gamma = PointSet(tuple((float(x),) for x in np.unique(sites)))
        sys_ = TranslateSystem((Generator(UNIT, gamma, "g"),), ExponentPair(2.0))
        cuts = np.sort(rng.uniform(-2.5, 2.5, size=4))
        pieces = [
            (Box((float(a),), (float(c),)), complex(rng.normal(), rng.normal()))
            for a, c in zip(cuts, cuts[1:])
            if c > a
        ]
        if not pieces:
            continue
        test = PiecewiseFn(tuple(pieces), 1)
        k_req = cq_required_constant(sys_, test)
        if math.isinf(k_req):
            continue
        budget = 0.8 * k_req
        fns = [translate(UNIT, g) for g in gamma.points]
        target = scale(test, 1.0 / lp_norm(test, 2.0))
        err = budgeted_lsq_error(fns, target, budget)
        gap = 1.0 - budget / k_req
        assert err >= gap - 1e-9
        checked += 1
    assert checked >= 80


# ---------------------------------------------------------------------------
# dichotomy_report


def recip_system(p=2.0):
    return TranslateSystem(
        (Generator(UNIT, make_reciprocal(100), "recip"),), ExponentPair(p)
    )


def test_dichotomy_lattice_horn():
    rep = dichotomy_report(
        z_system(window=20),
        DichotomyConfig(
            truncation_radii=(5, 10, 20),
            sweep_h_values=tuple(2.0**-k for k in range(2, 9)),
            p_prime=2.0,
        ),
    )
    assert rep.bessel_bounded
    assert rep.cq_bounded is False
    assert rep.horn == "cq_divergent"
    assert rep.dichotomy_holds
    assert not rep.accumulation_detected


def test_dichotomy_reciprocal_horn():
    rep = dichotomy_report(
        recip_system(),
        DichotomyConfig(
            truncation_radii=(100, 200, 400),
            sweep_h_values=(0.25, 0.125),
            p_prime=2.0,
        ),
    )
    assert not rep.bessel_bounded
    assert rep.accumulation_detected
    assert rep.horn == "bessel_divergent"
    assert rep.cq_failure is not None and "truncation" in rep.cq_failure
    assert rep.dichotomy_holds
    # the counting table grows linearly with the truncation
    nus = [r.nu_plus_at_h for r in rep.density_rows]
    assert nus == [100, 200, 400]


def test_dichotomy_scans_each_generators_epsilon_grid_once():
    # 1_[0, 1) split at 2^-14: a grid of step 2^-16 over the reach 1, whose
    # keys are paired in ring order up to the first failing one, 65,536 of
    # them; each of the three truncations needs a witness, and scanning the
    # grid at each paired 196,608 keys
    split = PiecewiseFn(
        ((Box((0.0,), (2.0**-14,)), 1.0), (Box((2.0**-14,), (1.0,)), 1.0)), 1
    )
    sys_ = TranslateSystem((Generator(split, make_reciprocal(80), "recip"),), ExponentPair(2.0))
    config = DichotomyConfig(truncation_radii=(20, 40, 80), sweep_h_values=(0.25, 0.125), p_prime=2.0)
    keys = []
    real = translate_system.cross_pairings

    def spy(h, f, shifts, *args, **kwargs):
        keys.append(len(shifts))
        return real(h, f, shifts, *args, **kwargs)

    with mock.patch.object(translate_system, "cross_pairings", side_effect=spy):
        rep = dichotomy_report(sys_, config)
    assert sum(keys) == 65536
    assert [r.witness_count for r in rep.bessel_rows] == [20, 40, 80]
    # each witness is the one blowup_witness finds on its own
    for radius, row in zip((20, 40, 80), rep.bessel_rows):
        witness = blowup_witness(split, split, make_reciprocal(radius), 0.5 * pair(split, split).real, 2.0)
        assert (witness.count, witness.sum_lower_bound) == (row.witness_count, row.witness_bound)


def test_dichotomy_union_subadditivity_rows():
    gens = (
        Generator(UNIT, make_lattice(1.0, 20, 1), "Z"),
        Generator(interval(0, 2), make_lattice(1.0, 20, 1), "Z+"),
    )
    rep = dichotomy_report(
        TranslateSystem(gens, ExponentPair(2.0)),
        DichotomyConfig(
            truncation_radii=(10, 20),
            sweep_h_values=tuple(2.0**-k for k in range(2, 8)),
            p_prime=2.0,
        ),
    )
    assert rep.subadditivity_rows
    assert rep.subadditivity_holds
    assert rep.dichotomy_holds


def test_dichotomy_requires_provenance():
    sys_ = TranslateSystem(
        (Generator(UNIT, line_set(0.0, 1.0), "explicit"),), ExponentPair(2.0)
    )
    with pytest.raises(PreconditionError, match="provenance"):
        dichotomy_report(
            sys_,
            DichotomyConfig(
                truncation_radii=(1, 2), sweep_h_values=(0.5, 0.25), p_prime=2.0
            ),
        )
