"""Pairings and norms of dyadic step functions against exact rationals.

On corners k/8 (|k| <= 24), values k/4 (|k| <= 16) and shifts k/4 (|k| <=
24), every float the calculus forms is exact: translated corners are
multiples of 1/8 below 9 in size, widths and volumes multiples of 1/64
below 36, value products multiples of 1/16 below 32, and each term and
partial sum a multiple of 2^-10 below 2^18, all within the 53 bits of a
double.  So pair, cross_pairings and lp_norm_pow must equal the
`fractions.Fraction` evaluation of the same integral with ==, and any
error in a formula they share with the float oracles shows here.

The analyses are held to the same standard on real-valued generators over
dyadic lattices (sites multiples of 1/4, |x| <= 2, at most 81 of them): a
pairing is a multiple of 2^-10 below 2^10, its square a multiple of 2^-20
below 2^20, and a Bessel power sum at p_prime = 2 stays below 2^29, so
within 49 bits; each localized mass term at p = 2 is a multiple of 2^-10
below 2^10.  Complex values are left out: abs() of one rounds.

The cubes at p_prime = 3 and p = 3 take shrunk draws: corners k/4 (|k| <=
8) and whole values |k| <= 4.  A pairing is then a multiple of 2^-4 below
2^8, its cube a multiple of 2^-12 below 2^24, and a Bessel power sum over at
most 2 x 81 sites stays below 2^32, within 44 bits; a localized mass term
|v|^3 vol is a multiple of 2^-4 below 2^10.

The window counts take sites k/4 (|k| <= 8) and sides k/4 (1 <= k <= 8):
every face x + h, x +- h/2 and h n +- h/2 is then exact, and many sites lie
on a closed lower or an open upper face, where an off-by-one would show.
"""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import (
    Box,
    ExponentPair,
    PiecewiseFn,
    PointSet,
    bessel_sum,
    cross_pairings,
    lp_norm_pow,
    grid_occupancy,
    lpfunc,
    make_lattice,
    pair,
    system_localized_mass,
    translate,
)
from lpdensity.pointset import anchored_windows, centred_windows
from lpdensity.translate_system import Generator, TranslateSystem

from oracles import fraction_bessel_sum, fraction_mass, fraction_norm_pow, fraction_pair

eighths = st.integers(-24, 24).map(lambda k: k / 8)
quarters = st.integers(-16, 16).map(lambda k: k / 4)
# the shrunk draws of the cubes
small_corners = st.integers(-8, 8).map(lambda k: k / 4)
small_values = st.integers(-4, 4).map(float)
shift_parts = st.integers(-24, 24).map(lambda k: k / 4)
dims = st.sampled_from([1, 2])


def dyadic_boxes(dim, corners=eighths):
    return st.lists(
        st.lists(corners, min_size=2, max_size=2, unique=True).map(sorted), min_size=dim, max_size=dim
    ).map(lambda sides: Box(*zip(*sides)))


@st.composite
def dyadic_fns(draw, dim, real=False, corners=eighths, values=quarters):
    """Up to 5 drawn boxes, each kept unless it overlaps one kept before."""
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        box = draw(dyadic_boxes(dim, corners))
        v = complex(draw(values), 0.0 if real else draw(values))
        if all(box.overlap_volume(b) == 0.0 for b, _ in pieces):
            pieces.append((box, v))
    return PiecewiseFn(tuple(pieces), dim)


def shifts(dim, max_size):
    return st.lists(st.tuples(*[shift_parts] * dim), max_size=max_size).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, dim)
    )


def exact(z, want) -> bool:
    # float == Fraction compares the float's exact value
    return z.real == want[0] and z.imag == want[1]


@st.composite
def pairing_cases(draw):
    dim = draw(dims)
    return draw(dyadic_fns(dim)), draw(dyadic_fns(dim)), draw(shifts(dim, 6)), draw(shifts(dim, 4))


# (tile size, dense limit): the defaults, and one row per tile with every pair pruned
layouts = st.sampled_from([(lpfunc._TILE, lpfunc._DENSE_PAIRS), (1, 0)])


@settings(max_examples=200)
@given(pairing_cases())
def test_pair_of_a_translate_is_exact(case):
    h, f, s, t = case
    for row in s:
        assert exact(pair(translate(h, tuple(row)), f), fraction_pair(h, f, row))
    for row in t:
        assert exact(pair(h, translate(f, tuple(row))), fraction_pair(h, f, None, row))


@settings(max_examples=200)
@given(pairing_cases(), layouts)
def test_cross_pairings_are_exact(case, layout):
    h, f, s, t = case
    with mock.patch.multiple(lpfunc, _TILE=layout[0], _DENSE_PAIRS=layout[1]):
        one_sided = cross_pairings(h, f, s)
        two_sided = cross_pairings(h, f, s, t)
    for i, row in enumerate(s):
        assert exact(one_sided[i], fraction_pair(h, f, row))
        for j, col in enumerate(t):
            assert exact(two_sided[j, i], fraction_pair(h, f, row, col))


@settings(max_examples=200)
@given(dims.flatmap(lambda d: st.tuples(dyadic_fns(d, real=True), shifts(d, 3))))
def test_lp_norm_powers_are_exact(case):
    f, s = case
    for p in (2, 3):
        want = fraction_norm_pow(f, p)
        assert lp_norm_pow(f, float(p)) == want
        for row in s:
            assert lp_norm_pow(translate(f, tuple(row)), float(p)) == want


# (spacing, window) of the dyadic lattices
lattices = st.sampled_from([(0.25, 1.0), (0.5, 1.5), (1.0, 2.0), (0.5, 2.0)])


def nonzero_real_fns(dim, small=False):
    fns = dyadic_fns(dim, True, small_corners, small_values) if small else dyadic_fns(dim, real=True)
    return fns.filter(lambda g: not g.is_zero)


@st.composite
def dyadic_systems(draw, dim, small=False):
    """One or two real-valued nonzero generators on dyadic lattices."""
    gens = []
    for k in range(draw(st.integers(1, 2))):
        f = draw(nonzero_real_fns(dim, small))
        spacing, window = draw(lattices)
        gens.append(Generator(f, make_lattice(spacing, window, dim), f"g{k}"))
    return TranslateSystem(tuple(gens), ExponentPair(2.0))


@settings(max_examples=100)
@given(dims.flatmap(lambda d: st.tuples(dyadic_systems(d), nonzero_real_fns(d))))
def test_bessel_sums_at_p_prime_2_are_exact(case):
    sys, h = case
    assert bessel_sum(sys, h, 2.0) == fraction_bessel_sum(sys, h)


@settings(max_examples=100)
@given(dims.flatmap(lambda d: st.tuples(dyadic_systems(d), dyadic_boxes(d))))
def test_localized_masses_at_p_2_are_exact(case):
    sys, region = case
    assert system_localized_mass(sys, region, 2.0) == fraction_mass(sys, region)


@settings(max_examples=100)
@given(dims.flatmap(lambda d: st.tuples(dyadic_systems(d, small=True), nonzero_real_fns(d, small=True))))
def test_bessel_sums_at_p_prime_3_are_exact(case):
    sys, h = case
    assert bessel_sum(sys, h, 3.0) == fraction_bessel_sum(sys, h, 3)


@settings(max_examples=100)
@given(dims.flatmap(lambda d: st.tuples(dyadic_systems(d, small=True), dyadic_boxes(d, small_corners))))
def test_localized_masses_at_p_3_are_exact(case):
    sys, region = case
    assert system_localized_mass(sys, region, 3.0) == fraction_mass(sys, region, 3)


# ---------------------------------------------------------------------------
# window counts


@st.composite
def dyadic_sites(draw):
    """(rows, h): up to 12 distinct sites k/4 in 1-d to 3-d and a side k/4."""
    d = draw(st.integers(1, 3))
    site = st.tuples(*[st.integers(-8, 8).map(lambda k: k / 4)] * d)
    return draw(st.lists(site, min_size=1, max_size=12, unique=True)), draw(st.integers(1, 8)) / 4


def fraction_count(rows, lower, h) -> int:
    """The rows in the half-open box prod [lower_j, lower_j + h), in Fractions."""
    return sum(all(a <= Fraction(x) < a + h for a, x in zip(lower, row)) for row in rows)


def windows(centres, counts) -> list:
    return sorted(zip(map(tuple, centres.tolist()), counts.tolist()))


@settings(max_examples=200)
@given(dyadic_sites())
def test_grid_occupancy_counts_are_exact(case):
    rows, h = case
    H = Fraction(h)
    # x lies in Q_h(h n) = [h n - h/2, h n + h/2) exactly when n = floor(x/h + 1/2)
    want = Counter(tuple(math.floor(Fraction(x) / H + Fraction(1, 2)) for x in row) for row in rows)
    assert grid_occupancy(PointSet(rows), h) == dict(want)


@settings(max_examples=200)
@given(dyadic_sites())
def test_centred_window_counts_are_exact(case):
    rows, h = case
    H = Fraction(h)
    want = [(row, fraction_count(rows, [Fraction(x) - H / 2 for x in row], H)) for row in rows]
    assert windows(*centred_windows(PointSet(rows), h, len(rows))) == sorted(want)


@settings(max_examples=200)
@given(dyadic_sites())
def test_anchored_window_counts_are_exact(case):
    rows, h = case
    H, d = Fraction(h), len(rows[0])
    if d == 1:
        # [x, x + h) anchored at each site
        lowers = [(Fraction(x),) for (x,) in rows]
    elif d == 2:
        # [x, x + h) x [y, y + h) for each site's x and each y of a site in that slab
        lowers = sorted(
            {(Fraction(ax), Fraction(y)) for (ax, _) in rows for (x, y) in rows if ax <= x < ax + h}
        )
    else:
        # the occupied grid cubes [h n - h/2, h n + h/2)
        keys = {tuple(math.floor(Fraction(x) / H + Fraction(1, 2)) for x in row) for row in rows}
        lowers = [tuple(k * H - H / 2 for k in key) for key in keys]
    want = sorted((tuple(float(a + H / 2) for a in lower), fraction_count(rows, lower, H)) for lower in lowers)
    got = windows(*anchored_windows(PointSet(rows), h, len(rows) ** 2))
    assert got == want
