"""Exact piecewise-constant calculus: norms, pairings, canonical form."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import (
    Box,
    DimensionMismatchError,
    ExponentPair,
    PiecewiseFn,
    PreconditionError,
    canonicalize,
    conjugate_exponent,
    indicator,
    lp_norm,
    lp_norm_pow,
    pair,
    pair_modulated,
    restrict,
    sample_catalog_function,
    scale,
    translate,
)

from oracles import bits, box_translated, first_overlap, interval, riemann_value


def random_fn_1d(rng, max_pieces=4, lo=-3.0, hi=3.0, dyadic=False):
    cuts = rng.uniform(lo, hi, size=int(rng.integers(2, max_pieces + 2)))
    if dyadic:
        cuts = np.round(cuts * 64) / 64
    cuts = np.unique(cuts)
    if cuts.size < 2:
        cuts = np.array([lo, hi])
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        v = complex(rng.normal(), rng.normal())
        if dyadic:
            v = complex(round(v.real * 16) / 16, round(v.imag * 16) / 16)
        if v != 0:
            pieces.append((Box((float(a),), (float(b),)), v))
    if not pieces:
        pieces = [(Box((float(cuts[0]),), (float(cuts[-1]),)), 1.0 + 0j)]
    return PiecewiseFn(tuple(pieces), 1)


# ---------------------------------------------------------------------------
# types


def test_box_needs_positive_volume():
    with pytest.raises(PreconditionError):
        Box((0.0,), (0.0,))


def test_box_cube_corners_and_side():
    q = Box.cube((0.3, -1.0), 0.7)
    assert q.lower == (0.3 - 0.35, -1.0 - 0.35) and q.upper == (0.3 + 0.35, -1.0 + 0.35)
    assert Box.cube([2.0], 1) == Box((1.5,), (2.5,))
    for side in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="^cube side must be a positive finite real"):
            Box.cube((0.0,), side)


def test_overlapping_pieces_rejected():
    with pytest.raises(PreconditionError, match="canonicalize"):
        PiecewiseFn(((Box((0.0,), (1.0,)), 1.0), (Box((0.5,), (1.5,)), 1.0)), 1)


@st.composite
def _raw_pieces(draw):
    """Boxes on a coarse grid, so that overlaps, shared faces and repeats are
    common, in 1-d to 3-d; some values are zero."""
    d = draw(st.integers(1, 3))
    corner = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0])
    pieces = []
    for _ in range(draw(st.integers(0, 10))):
        lower = tuple(draw(corner) for _ in range(d))
        upper = tuple(a + draw(st.sampled_from([0.5, 1.0, 2.0])) for a in lower)
        pieces.append((Box(lower, upper), draw(st.sampled_from([0.0, 1.0, -2j]))))
    return pieces, d


@settings(max_examples=400, deadline=None)
@given(case=_raw_pieces())
def test_overlap_test_finds_the_all_pairs_first_pair(case):
    pieces, d = case
    want = first_overlap(pieces)
    if want is None:
        assert len(PiecewiseFn(tuple(pieces), d).pieces) == sum(v != 0 for _, v in pieces)
    else:
        with pytest.raises(PreconditionError) as err:
            PiecewiseFn(tuple(pieces), d)
        assert str(err.value) == want


def test_zero_pieces_dropped():
    f = PiecewiseFn(((Box((0.0,), (1.0,)), 0.0), (Box((2.0,), (3.0,)), 2.0)), 1)
    assert len(f.pieces) == 1


def test_scale_refuses_a_product_that_is_not_finite():
    f = interval(0.0, 1.0, 1e308)
    for c in (10.0, 1e308j, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="must be finite"):
            scale(f, c)
    assert scale(f, 0.5).pieces == ((Box((0.0,), (1.0,)), 5e307 + 0j),)


def test_exponent_pair():
    e = ExponentPair(1.5)
    assert e.q == pytest.approx(3.0)
    assert ExponentPair(2.0).q == 2.0
    with pytest.raises(PreconditionError):
        ExponentPair(1.0)
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)


# ---------------------------------------------------------------------------
# translate


def test_translate_shifts_box():
    f = translate(interval(0, 1), (2.0,))
    assert f.pieces[0][0].lower == (2.0,)
    assert f.pieces[0][0].upper == (3.0,)


def test_translate_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = random_fn_1d(rng, dyadic=True)
        g = translate(translate(f, (0.625,)), (-0.625,))
        assert g == f


def test_translate_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_fn_1d(rng)
        gamma = float(rng.normal())
        for p in (1.5, 2.0, 3.0):
            assert lp_norm(translate(f, (gamma,)), p) == pytest.approx(
                lp_norm(f, p), rel=1e-12
            )


def test_translate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        translate(interval(0, 1), (1.0, 2.0))


# corners and offsets that round when added, tie, and meet -0.0
translate_coords = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, 1 / 3, -2.5, 1e-17, 1e16]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def strips(draw):
    """Step functions of 1 to 5 strips along axis 0, in 1 or 2 dimensions."""
    dim = draw(st.sampled_from([1, 2]))
    xs = sorted(set(draw(st.lists(translate_coords, min_size=2, max_size=6))))
    if len(xs) < 2:
        xs = [xs[0], xs[0] + 1.0]
    rest = sorted(draw(st.lists(translate_coords, min_size=2, max_size=2, unique=True)))
    pieces = [
        (Box((a,) + (rest[0],) * (dim - 1), (b,) + (rest[1],) * (dim - 1)), complex(k + 1, -k))
        for k, (a, b) in enumerate(zip(xs, xs[1:]))
    ]
    return PiecewiseFn(tuple(pieces), dim)


@given(strips(), st.data())
def test_translate_corners_match_box_by_box_translation(f, data):
    offset = data.draw(st.lists(translate_coords, min_size=f.dimension, max_size=f.dimension))
    try:
        want = [(box_translated(b, offset), v) for b, v in f.pieces]
    except PreconditionError as exc:
        # a shift that collapses a piece: the same refusal, word for word
        with pytest.raises(PreconditionError) as info:
            translate(f, offset)
        assert str(info.value) == str(exc)
        return
    want.sort(key=lambda bv: (bv[0].lower, bv[0].upper))
    got = translate(f, offset).pieces
    # bit for bit, so that 0.0 and -0.0 differ
    assert [[bits(c) for c in b.lower + b.upper + (v,)] for b, v in got] == [
        [bits(c) for c in b.lower + b.upper + (v,)] for b, v in want
    ]


@pytest.mark.parametrize(
    "offset",
    [(math.nan,), (math.inf,), (-math.inf,), (1e6,)],
    ids=["nan", "inf", "-inf", "collapsing"],
)
def test_translate_refusals_keep_the_box_message(offset):
    # [0, 1e-12) + 1e6 rounds to an empty interval
    f = PiecewiseFn(((Box((0.0,), (1e-12,)), 1.0),), 1)
    with pytest.raises(PreconditionError) as want:
        box_translated(f.pieces[0][0], offset)
    with pytest.raises(PreconditionError) as got:
        translate(f, offset)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("box needs lower < upper componentwise, got (")


# ---------------------------------------------------------------------------
# lp_norm


def test_norm_unit_indicator():
    f = interval(0, 1)
    for p in (1.0, 1.5, 2.0, 7.0):
        assert lp_norm(f, p) == 1.0


def test_norm_scaled_half_interval():
    f = interval(0, 0.5, 2.0)
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(2.0))


def test_norm_symmetric_interval_conjugate_exponent():
    for h in (0.25, 0.5, 1.0, 2.0):
        for q in (1.5, 2.0, 3.0):
            f = interval(-h, h)
            assert lp_norm(f, q) == pytest.approx((2 * h) ** (1 / q), rel=1e-14)


def test_norm_pow_avoids_root_round_trip():
    f = interval(0, 0.125)
    assert lp_norm_pow(f, 2.0) == 0.125


# ---------------------------------------------------------------------------
# restrict



def test_norm_pow_past_the_double_range_is_refused():
    # a power past the range raises OverflowError in Python's **, a product
    # with the volume rounds to inf, and so does abs of a huge complex value
    for f in (
        interval(0.0, 1.0, 1e200),
        interval(0.0, 1e10, 1e150),
        interval(0.0, 1.0, complex(1e308, 1e308)),
    ):
        with pytest.raises(PreconditionError, match="overflows double precision"):
            lp_norm_pow(f, 2.0)
        with pytest.raises(PreconditionError, match="overflows double precision"):
            lp_norm(f, 2.0)
    # inside the range every bit stays
    v = complex(1e153, -3e152)
    assert lp_norm_pow(interval(0.0, 2.0, v), 2.0) == abs(v) ** 2.0 * 2.0


def test_restrict_clips_to_cube():
    f = restrict(interval(0, 2), Box.cube((0.0,), 1.0))
    assert f.pieces[0][0].lower == (0.0,)
    assert f.pieces[0][0].upper == (0.5,)


def test_restrict_identity_when_support_inside():
    f = interval(-0.25, 0.25, 1.5)
    assert restrict(f, Box.cube((0.0,), 2.0)) == f


def test_restrict_overlap_measure():
    # |[0,1) ∩ [-h/2, h/2)| = min(h/2, 1)
    for h in (0.2, 0.7, 1.0, 1.9, 2.0, 3.5):
        got = lp_norm_pow(restrict(interval(0, 1), Box.cube((0.0,), h)), 2.0)
        assert got == pytest.approx(min(h / 2, 1.0), abs=1e-15)


def test_restrict_never_grows_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_fn_1d(rng)
        cube = Box.cube((float(rng.normal()),), float(rng.uniform(0.2, 3.0)))
        assert lp_norm(restrict(f, cube), 2.0) <= lp_norm(f, 2.0) + 1e-12


# ---------------------------------------------------------------------------
# pair


def test_pair_unit_overlap():
    f = interval(0, 1)
    assert pair(f, f) == 1.0 + 0j


def test_pair_tent_function():
    f = interval(0, 1)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-1.5, 1.5, size=50):
        got = pair(translate(f, (float(x),)), f)
        assert got.imag == 0.0
        assert got.real == pytest.approx(max(0.0, 1.0 - abs(x)), abs=1e-12)


def test_pair_conjugates_second_slot():
    f = interval(0, 1)
    g = interval(0.5, 1.5, 1j)
    assert pair(f, g) == pytest.approx(-0.5j)


def test_pair_translation_invariance_exact_on_dyadics():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = random_fn_1d(rng, dyadic=True)
        f = random_fn_1d(rng, dyadic=True)
        beta = float(rng.integers(-8, 9)) / 4.0
        assert pair(translate(h, (beta,)), translate(f, (beta,))) == pair(h, f)


def test_pair_sesquilinear():
    rng = np.random.default_rng(6)
    f = random_fn_1d(rng)
    g = random_fn_1d(rng)
    h = random_fn_1d(rng)
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    combo = canonicalize(scale(f, a).pieces + scale(g, b).pieces, 1)
    lhs = pair(combo, h)
    assert lhs == pytest.approx(a * pair(f, h) + b * pair(g, h), rel=1e-12)
    rhs = pair(h, combo)
    assert rhs == pytest.approx(
        a.conjugate() * pair(h, f) + b.conjugate() * pair(h, g), rel=1e-12
    )


def test_holder_inequality():
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0):
        q = conjugate_exponent(p)
        for _ in range(20):
            h = random_fn_1d(rng)
            f = random_fn_1d(rng)
            assert abs(pair(h, f)) <= lp_norm(h, q) * lp_norm(f, p) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# pair_modulated


def test_modulated_zero_frequency_is_measure():
    f = interval(0, 1)
    assert pair_modulated(f, (0.0,)) == pytest.approx(1.0)


def test_modulated_integer_frequency_vanishes():
    f = interval(0, 1)
    for m in (1, 2, -3):
        assert abs(pair_modulated(f, (float(m),))) < 1e-15


def test_modulated_half_interval_closed_form():
    got = pair_modulated(interval(0, 0.5), (1.0,))
    assert got == pytest.approx(-1j / math.pi, abs=1e-15)


def test_modulated_matches_riemann_sum():
    # midpoint rule per piece, so no cell straddles a jump of the integrand
    rng = np.random.default_rng(8)
    n = 100_000
    for _ in range(5):
        f = random_fn_1d(rng)
        b = float(rng.uniform(-4, 4))
        riemann = 0j
        for box, v in f.pieces:
            lo, hi = box.lower[0], box.upper[0]
            xs = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
            riemann += v * np.exp(-2j * math.pi * b * xs).sum() * (hi - lo) / n
        assert pair_modulated(f, (b,)) == pytest.approx(riemann, abs=1e-8)


def test_modulated_2d_product_structure():
    f = indicator(Box((0.0, 0.0), (0.5, 1.0)))
    got = pair_modulated(f, (1.0, 0.0))
    assert got == pytest.approx(-1j / math.pi, abs=1e-15)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_overlapping_indicators():
    f = canonicalize(
        [(Box((0.0,), (1.0,)), 1.0), (Box((0.5,), (1.5,)), 1.0)],
    )
    assert [(b.lower[0], b.upper[0], v) for b, v in f.pieces] == [
        (0.0, 0.5, 1.0),
        (0.5, 1.0, 2.0),
        (1.0, 1.5, 1.0),
    ]


def test_canonicalize_drops_cancelled_pieces():
    f = canonicalize(
        [(Box((0.0,), (1.0,)), 1.0), (Box((0.0,), (1.0,)), -1.0)],
    )
    assert f.is_zero


def test_canonicalize_refuses_pieces_over_the_cell_budget_before_summing():
    # 100 nested squares: a 199 x 199 grid, but the pieces cover 1,333,300 cells
    nested = [(Box((-k, -k), (k, k)), 1.0) for k in range(1, 101)]
    with mock.patch("lpdensity.lpfunc.itertools.product", side_effect=AssertionError):
        with pytest.raises(PreconditionError, match="1333300 grid cells"):
            canonicalize(nested, 2)
    # 50 cover 166,650 cells and are summed; zero pieces cover nothing
    f = canonicalize(nested[:50] + [(box, 0.0) for box, _ in nested], 2)
    assert len(f.pieces) == 99 * 99
    assert f.pieces[0][1] == 1.0 and f.pieces[99 * 49 + 49][1] == 50.0


def test_joined_functions_share_the_canonicalize_cell_budget():
    # 1100 unit stripes along each axis cut the square [0, 1100]^2 into 1100 x 1100 cells
    across = canonicalize([(Box((k, 0), (k + 1, 1)), 1.0) for k in range(1100)], 2)
    down = canonicalize([(Box((2000, k), (2001, k + 1)), 1.0) for k in range(1100)], 2)
    square = indicator(Box((0, 0), (1100, 1100)))
    assert len(canonicalize(across.pieces + down.pieces, 2).pieces) == 2200
    with mock.patch("lpdensity.lpfunc.itertools.product", side_effect=AssertionError):
        with pytest.raises(PreconditionError, match="1212200 grid cells"):
            canonicalize(across.pieces + down.pieces + square.pieces, 2)


def test_canonicalize_idempotent_and_invariant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = random_fn_1d(rng)
        g = canonicalize(f.pieces, 1)
        assert canonicalize(g.pieces, 1) == g
        assert lp_norm(g, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)
        probe = random_fn_1d(rng)
        assert pair(probe, g) == pytest.approx(pair(probe, f), rel=1e-12, abs=1e-12)


def test_canonicalize_2d_cross():
    f = canonicalize(
        [(Box((0.0, 0.0), (2.0, 1.0)), 1.0), (Box((0.5, -1.0), (1.0, 2.0)), 2.0)],
    )
    # both values positive: the L1 mass is the plain sum of the two integrals
    assert lp_norm_pow(f, 1.0) == pytest.approx(1.0 * 2.0 + 2.0 * 1.5)
    assert riemann_value(f, [(0.75, 0.5), (0.25, 0.5), (0.75, -0.5)]).tolist() == [3.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# sampled catalog functions


def test_sampled_gaussian_error_bound():
    support = Box((-3.0,), (3.0,))
    fn = sample_catalog_function("gaussian", 1 / 64, support)
    # the grid oscillation bound L * step / 2 * vol(support)^(1/2), with
    # sqrt(2/e) the largest slope of exp(-x^2)
    bound = math.sqrt(2.0 / math.e) * (1 / 64) / 2.0 * math.sqrt(6.0)
    xs = np.linspace(-3, 3, 50_000, endpoint=False) + 3 / 50_000
    exact = np.exp(-(xs**2))
    approx = riemann_value(fn, xs).real
    l2_err = math.sqrt(((exact - approx) ** 2).mean() * 6.0)
    assert l2_err <= bound
    assert bound < 0.05


def test_sampled_tent_hits_exact_values_on_grid_centers():
    fn = sample_catalog_function("tent", 0.25, Box((-1.0,), (1.0,)))
    assert riemann_value(fn, np.array([0.125]))[0] == pytest.approx(1.0 - 0.125)


@pytest.mark.parametrize(
    "step, support",
    [
        (1e-320, Box((-1.0,), (1.0,))),
        (1 / 1025, Box((0.0, 0.0), (1.0, 1.0))),
        (1e-4, Box((-3.0, -3.0), (3.0, 3.0))),
    ],
)
def test_sampled_grid_over_the_budget_is_refused(step, support):
    with pytest.raises(PreconditionError, match="1048576 cells"):
        sample_catalog_function("tent", step, support)


def test_sampled_unknown_name():
    with pytest.raises(PreconditionError):
        sample_catalog_function("sinc", 0.1, Box((0.0,), (1.0,)))


def test_modulated_2d_general_frequency_vs_riemann():
    f = indicator(Box((0.25, -0.5), (1.0, 0.75)), 1.5 - 0.5j)
    freq = (1.3, -2.1)
    n = 1200
    xs = np.linspace(0.25, 1.0, n, endpoint=False) + 0.75 / (2 * n)
    ys = np.linspace(-0.5, 0.75, n, endpoint=False) + 1.25 / (2 * n)
    phase = np.exp(-2j * math.pi * (freq[0] * xs[:, None] + freq[1] * ys[None, :]))
    riemann = (1.5 - 0.5j) * phase.sum() * (0.75 * 1.25) / (n * n)
    assert pair_modulated(f, freq) == pytest.approx(riemann, abs=1e-6)
