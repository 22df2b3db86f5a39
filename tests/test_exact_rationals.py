"""Pairings and norms of dyadic step functions against exact rationals.

On corners k/8 (|k| <= 24), values k/4 (|k| <= 16) and shifts k/4 (|k| <=
24), every float the calculus forms is exact: translated corners are
multiples of 1/8 below 9 in size, widths and volumes multiples of 1/64
below 36, value products multiples of 1/16 below 32, and each term and
partial sum a multiple of 2^-10 below 2^18, all within the 53 bits of a
double.  So pair, cross_pairings and lp_norm_pow must equal the
`fractions.Fraction` evaluation of the same integral with ==, and any
error in a formula they share with the float oracles shows here.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import Box, PiecewiseFn, cross_pairings, lp_norm_pow, lpfunc, pair, translate

from oracles import fraction_norm_pow, fraction_pair

eighths = st.integers(-24, 24).map(lambda k: k / 8)
quarters = st.integers(-16, 16).map(lambda k: k / 4)
shift_parts = st.integers(-24, 24).map(lambda k: k / 4)
dims = st.sampled_from([1, 2])


@st.composite
def dyadic_fns(draw, dim, real=False):
    """Up to 5 drawn boxes, each kept unless it overlaps one kept before."""
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        sides = [sorted(draw(st.lists(eighths, min_size=2, max_size=2, unique=True))) for _ in range(dim)]
        box = Box(*zip(*sides))
        v = complex(draw(quarters), 0.0 if real else draw(quarters))
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
