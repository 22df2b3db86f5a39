"""The batched pairing kernel against the scalar pair it replaces.

`cross_pairings(h, f, shifts)[i]` must carry the same bits as
`pair(translate(h, shifts[i]), f)`, and `cross_pairings(h, f, shifts,
f_shifts)[j, i]` those of `pair(translate(h, shifts[i]), translate(f,
f_shifts[j]))`.  The blowup witness built on it must count exactly what the
per-site scalar loop counted.
"""

import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import (
    Box,
    ExponentPair,
    PiecewiseFn,
    PointSet,
    PreconditionError,
    blowup_witness,
    cross_pairings,
    pair,
    make_lattice,
    make_reciprocal,
    union_point_sets,
    sample_catalog_function,
    scale,
    translate,
)
from lpdensity import lpfunc, pointset
from lpdensity import translate_system
from lpdensity.errors import DimensionMismatchError
from lpdensity.translate_system import (
    Generator,
    TranslateSystem,
    _count_spans,
    _exceeds,
    _system_power_sums,
    _window_center_candidates,
)

from oracles import bits, line_set, loop_power_sum, scalar_count, scalar_grid_side, scan_candidates


def assert_matches_scalar(h, f, shifts):
    got = cross_pairings(h, f, shifts)
    assert got.shape == (len(shifts),)
    for s, g in zip(shifts, got):
        assert bits(g) == bits(pair(translate(h, tuple(s)), f)), s


def assert_both_sides_match_scalar(h, f, shifts, f_shifts):
    got = cross_pairings(h, f, shifts, f_shifts)
    assert got.shape == (len(f_shifts), len(shifts))
    for t, row in zip(f_shifts, got):
        moved = translate(f, tuple(t))
        for s, g in zip(shifts, row):
            assert bits(g) == bits(pair(translate(h, tuple(s)), moved)), (s, t)


# ---------------------------------------------------------------------------
# strategies

# endpoints on dyadic, ternary and decimal grids, plus arbitrary floats
endpoints = st.one_of(
    st.integers(-48, 48).map(lambda k: k / 16),
    st.integers(-24, 24).map(lambda k: k / 3),
    st.integers(-30, 30).map(lambda k: k / 10),
    st.floats(-3.0, 3.0, allow_nan=False),
)
parts = st.floats(-8.0, 8.0, allow_nan=False).filter(lambda x: x == 0 or abs(x) > 1e-6)
values = st.one_of(parts.map(complex), st.builds(complex, parts, parts))
cuts = st.lists(endpoints, min_size=2, max_size=6, unique=True).map(sorted)
short_cuts = st.lists(endpoints, min_size=2, max_size=4, unique=True).map(sorted)


@st.composite
def step_functions(draw, dim):
    """Disjoint pieces in a guillotine layout: strips along one axis, each cut
    independently along the other, so upper[0] is not monotone in the
    lexicographic piece order when the strips run along axis 1.  In 3-d the
    slabs are cut twice more, along the axes in a drawn order."""
    if dim == 3:
        order = draw(st.permutations(range(3)))
        pieces = []
        slabs = draw(short_cuts)
        for a, b in zip(slabs, slabs[1:]):
            rows = draw(short_cuts)
            for c, e in zip(rows, rows[1:]):
                cells = draw(short_cuts)
                for g, k in zip(cells, cells[1:]):
                    lo, up = [0.0] * 3, [0.0] * 3
                    for axis, (x, y) in zip(order, ((a, b), (c, e), (g, k))):
                        lo[axis], up[axis] = x, y
                    pieces.append((Box(lo, up), draw(values)))
        return PiecewiseFn(tuple(pieces), 3)
    if dim == 1:
        xs = draw(cuts)
        pieces = [(Box((a,), (b,)), draw(values)) for a, b in zip(xs, xs[1:])]
    else:
        strips = draw(cuts)
        across_axis0 = draw(st.booleans())
        pieces = []
        for a, b in zip(strips, strips[1:]):
            inner = draw(cuts)
            for c, e in zip(inner, inner[1:]):
                lo, up = ((c, a), (e, b)) if across_axis0 else ((a, c), (b, e))
                pieces.append((Box(lo, up), draw(values)))
    return PiecewiseFn(tuple(pieces), dim)


def shift_arrays(dim, max_size=12):
    coord = st.one_of(
        endpoints,
        st.floats(-12.0, 12.0, allow_nan=False),
        st.sampled_from([-100.0, 100.0, 1e6]),  # no overlap at all
    )
    return st.lists(st.tuples(*[coord] * dim), max_size=max_size).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, dim)
    )


@st.composite
def kernel_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    return draw(step_functions(dim)), draw(step_functions(dim)), draw(shift_arrays(dim))


# (tile size, dense limit): the defaults, one row and one candidate per tile
# with every pair pruned, and every pair evaluated densely
layouts = st.sampled_from([(lpfunc._TILE, lpfunc._DENSE_PAIRS), (1, 0), (5, 0), (5, 10**9)])


# ---------------------------------------------------------------------------
# kernel entries against the scalar pair


@settings(max_examples=300)
@given(kernel_cases(), layouts)
def test_kernel_is_bit_identical_to_scalar_pair(case, layout):
    h, f, shifts = case
    with mock.patch.multiple(lpfunc, _TILE=layout[0], _DENSE_PAIRS=layout[1]):
        try:
            translated = [translate(h, tuple(s)) for s in shifts]
        except PreconditionError:
            # a shift collapses a piece of h: translate refuses it, so must the kernel
            with pytest.raises(PreconditionError):
                cross_pairings(h, f, shifts)
            return
        got = cross_pairings(h, f, shifts)
    for s, th, g in zip(shifts, translated, got):
        assert bits(g) == bits(pair(th, f)), s


@st.composite
def two_sided_cases(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    h, f = draw(step_functions(dim)), draw(step_functions(dim))
    return h, f, draw(shift_arrays(dim, 6)), draw(shift_arrays(dim, 4))


@settings(max_examples=200)
@given(two_sided_cases(), layouts)
def test_translated_right_argument_is_bit_identical_to_scalar_pair(case, layout):
    h, f, shifts, f_shifts = case
    with mock.patch.multiple(lpfunc, _TILE=layout[0], _DENSE_PAIRS=layout[1]):
        try:
            moved_h = [translate(h, tuple(s)) for s in shifts]
            moved_f = [translate(f, tuple(t)) for t in f_shifts]
        except PreconditionError:
            # translate refuses a shift; so must the kernel whenever it has
            # a term to compute
            if len(shifts) and len(f_shifts) and not (h.is_zero or f.is_zero):
                with pytest.raises(PreconditionError):
                    cross_pairings(h, f, shifts, f_shifts)
            return
        got = cross_pairings(h, f, shifts, f_shifts)
    assert got.shape == (len(f_shifts), len(shifts))
    for t, tf, row in zip(f_shifts, moved_f, got):
        for s, th, g in zip(shifts, moved_h, row):
            assert bits(g) == bits(pair(th, tf)), (s, t)


def test_sampled_functions_on_grid_and_off_grid_shifts():
    gauss = sample_catalog_function("gaussian", 1 / 8, Box((-3.0,), (3.0,)))
    tent = sample_catalog_function("tent", 1 / 3, Box((-1.0,), (1.0,)))
    shifts = np.array([[k / 8] for k in range(-60, 61, 7)] + [[1 / k] for k in range(1, 30)])
    assert_matches_scalar(gauss, tent, shifts)
    assert_matches_scalar(tent, gauss, shifts)
    assert_matches_scalar(gauss, gauss, shifts)


def test_pruned_path_with_non_monotone_upper_corners():
    # a wide bottom strip sorts first, then narrow pieces above it: the pieces'
    # upper[0] goes down and up again, which a plain bisection would miss
    pieces = [(Box((0.0, 0.0), (4.0, 1.0)), 1 + 2j)]
    pieces += [(Box((k / 2, 1.0), (k / 2 + 0.5, 2.0)), complex(k, -1)) for k in range(8)]
    pieces += [(Box((k / 3, 2.0), ((k + 1) / 3, 2.5)), complex(0.5, k)) for k in range(12)]
    f = PiecewiseFn(tuple(pieces), 2)
    shifts = np.array([[x / 7, y / 5] for x in range(-30, 31, 4) for y in range(-12, 13, 3)])
    assert_matches_scalar(f, f, shifts)


def test_empty_shifts_and_zero_functions():
    h = PiecewiseFn(((Box((0.0,), (1.0,)), 1j),), 1)
    zero = PiecewiseFn((), 1)
    for shifts in (np.zeros((0, 1)), np.zeros(0), []):
        got = cross_pairings(h, h, shifts)
        assert got.shape == (0,) and got.dtype == complex
    assert cross_pairings(zero, h, [[0.5]]).tolist() == [0j]
    assert cross_pairings(h, zero, [0.5, 2.0]).tolist() == [0j, 0j]


def test_shifts_with_no_overlap_are_zero():
    h = PiecewiseFn(((Box((0.0,), (1.0,)), 3.0), (Box((1.0,), (2.0,)), -1j)), 1)
    got = cross_pairings(h, h, [[2.0], [-2.0], [50.0], [-1e9]])
    assert [bits(g) for g in got] == [bits(0j)] * 4


def test_bad_shifts_are_refused():
    h = PiecewiseFn(((Box((0.0, 0.0), (1.0, 1.0)), 1.0),), 2)
    with pytest.raises(DimensionMismatchError):
        cross_pairings(h, h, [[0.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        cross_pairings(h, PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1), [[0.0, 0.0]])
    with pytest.raises(PreconditionError):
        cross_pairings(h, h, [[0.0, math.nan]])
    with pytest.raises(PreconditionError):
        cross_pairings(h, h, [[math.inf, 0.0]])


def test_shift_that_collapses_a_piece_is_refused_like_translate():
    h = PiecewiseFn(((Box((0.0,), (1e-12,)), 1.0),), 1)
    with pytest.raises(PreconditionError):
        translate(h, 1e6)
    with pytest.raises(PreconditionError):
        cross_pairings(h, h, [[0.0], [1e6]])


def test_rows_whose_translation_re_sorts_the_pieces_follow_translate():
    # after adding 1 to axis 0, A's lower corner ties with B's and C's;
    # translate keeps the order A, B, C and pair sums in that order
    a = (Box((0.0, 5.0), (1.0, 6.0)), 1.0)
    b = (Box((1e-20, 0.0), (2.0, 1.0)), 5e-17)
    c = (Box((1e-20, 1.0), (2.0, 2.0)), 5e-17)
    h = PiecewiseFn((a, b, c), 2)
    f = PiecewiseFn(((Box((-10.0, -10.0), (10.0, 10.0)), 1.0),), 2)
    moved = translate(h, (1.0, 0.0))
    assert [v for _, v in moved.pieces] == [1.0, 5e-17, 5e-17]
    # the sum in lexicographic order B, C, A would round differently
    assert (1.0 + 1e-16) + 1e-16 != (1e-16 + 1e-16) + 1.0
    assert_matches_scalar(h, f, np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.25]]))


def test_f_shifts_whose_translation_re_sorts_the_pieces_follow_translate():
    # the same pieces on the right: under the f shift (1, 0) translate
    # keeps f's order A, B, C, and that column must sum in that order
    a = (Box((0.0, 5.0), (1.0, 6.0)), 1.0)
    b = (Box((1e-20, 0.0), (2.0, 1.0)), 5e-17)
    c = (Box((1e-20, 1.0), (2.0, 2.0)), 5e-17)
    f = PiecewiseFn((a, b, c), 2)
    h = PiecewiseFn(((Box((-10.0, -10.0), (10.0, 10.0)), 1.0),), 2)
    assert [v for _, v in translate(f, (1.0, 0.0)).pieces] == [1.0, 5e-17, 5e-17]
    f_shifts = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.25]])
    shifts = np.array([[0.0, 0.0], [0.25, -0.5], [1.0, 0.0]])
    assert_both_sides_match_scalar(h, f, shifts, f_shifts)
    assert_both_sides_match_scalar(f, f, shifts, f_shifts)
    got = cross_pairings(h, f, shifts, f_shifts)
    assert bits(got[0, 0]) == bits(pair(h, f))  # the kept order rounds as unshifted


@pytest.mark.parametrize("layout", [(lpfunc._TILE, lpfunc._DENSE_PAIRS), (1, 0)])
def test_f_shift_that_collapses_a_piece_or_is_not_finite_is_refused(layout):
    f = PiecewiseFn(((Box((0.0,), (1e-12,)), 1.0), (Box((1.0,), (2.0,)), 2j)), 1)
    h = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    for bad in (1e6, math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            translate(f, bad)
        with mock.patch.multiple(lpfunc, _TILE=layout[0], _DENSE_PAIRS=layout[1]):
            with pytest.raises(PreconditionError):
                cross_pairings(h, f, [[0.0], [0.5]], [[0.0], [bad]])
    with pytest.raises(DimensionMismatchError):
        cross_pairings(h, f, [[0.0]], [[0.0, 0.0]])
    assert cross_pairings(h, f, [[0.0], [0.5]], np.zeros((0, 1))).shape == (0, 2)


def test_non_finite_shift_is_refused_even_with_no_term_to_compute():
    h = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    zero = PiecewiseFn((), 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            translate(h, bad)
        # f has no pieces, or there is no f shift: no pairing is left to compute
        with pytest.raises(PreconditionError):
            cross_pairings(h, zero, [[bad]])
        with pytest.raises(PreconditionError):
            cross_pairings(h, h, [[bad]], [])
        # the same on the right: there are no shifts, or h has no pieces
        with pytest.raises(PreconditionError):
            cross_pairings(h, h, [], [[bad]])
        with pytest.raises(PreconditionError):
            cross_pairings(zero, h, [[0.0]], [[bad]])
        # translate takes any offset of a function with no pieces, and so do these
        assert translate(zero, bad) == zero
        assert cross_pairings(zero, h, [[bad]]).tolist() == [0j]
        assert cross_pairings(h, zero, [[0.0]], [[bad]]).tolist() == [[0j]]


@pytest.mark.parametrize("tile", [lpfunc._TILE, 1])
def test_collapsing_shift_is_refused_even_with_no_term_to_compute(tile):
    h = PiecewiseFn(((Box((0.0,), (1e-12,)), 1.0),), 1)
    zero = PiecewiseFn((), 1)
    with pytest.raises(PreconditionError):
        translate(h, 1e6)
    with mock.patch.object(lpfunc, "_TILE", tile):
        # f has no pieces, or there is no f shift: no pairing is left to compute
        with pytest.raises(PreconditionError, match="collapses a piece of h"):
            cross_pairings(h, zero, [[0.0], [1e6]])
        with pytest.raises(PreconditionError, match="collapses a piece of h"):
            cross_pairings(h, h, [[0.0], [1e6]], [])
        # the same on the right: there are no shifts, or h has no pieces
        with pytest.raises(PreconditionError, match="collapses a piece of f"):
            cross_pairings(h, h, [], [[0.0], [1e6]])
        with pytest.raises(PreconditionError, match="collapses a piece of f"):
            cross_pairings(zero, h, [[0.0]], [[0.0], [1e6]])
        # translate moves a function with no pieces anywhere, and so do these
        assert cross_pairings(zero, h, [[1e6]]).tolist() == [0j]
        assert cross_pairings(h, zero, [[0.0]], [[1e6]]).tolist() == [[0j]]


def test_shift_that_overflows_a_corner_is_refused_like_translate():
    big = PiecewiseFn(((Box((0.0,), (1.7e308,)), 1.0),), 1)
    f = PiecewiseFn(((Box((1e308,), (1.5e308,)), 1.0),), 1)
    with pytest.raises(PreconditionError):
        translate(big, 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(PreconditionError, match="not finite or collapses a piece of h"):
            cross_pairings(big, f, [[0.0], [1e308]])
        with pytest.raises(PreconditionError, match="not finite or collapses a piece of f"):
            cross_pairings(f, big, [[0.0]], [[1e308]])
    # the shift that moves the upper corner down to 0 is fine
    assert cross_pairings(big, f, [[-1.7e308]]).tolist() == [pair(translate(big, -1.7e308), f)]


def test_memory_stays_bounded_on_large_functions():
    # 384 x 384 piece pairs at 2000 shifts: an unpruned broadcast would hold
    # 2000 * 384 * 384 complex terms, about 4.7 GB
    gauss = sample_catalog_function("gaussian", 1 / 64, Box((-3.0,), (3.0,)))
    assert len(gauss.pieces) == 384
    shifts = np.array([[1 / k] for k in range(1, 2001)])
    tracemalloc.start()
    try:
        got = cross_pairings(gauss, gauss, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    for k in (0, 1, 2, 63, 999, 1999):
        assert bits(got[k]) == bits(pair(translate(gauss, tuple(shifts[k])), gauss))


# h and f of the products past the double range: 1e200 * 1e200 is inf, and
# pair's complex product of inf + 0j by the volume reads inf + nanj, where
# the kernel's real and imaginary planes would read inf + 0j
HUGE_H = PiecewiseFn(((Box((0.0,), (1.0,)), 1e200),), 1)
HUGE_F = PiecewiseFn(((Box((0.5,), (1.5,)), 1e200), (Box((3.0,), (4.0,)), 1e200)), 1)


@pytest.mark.parametrize("layout", [(lpfunc._TILE, lpfunc._DENSE_PAIRS), (1, 0), (5, 0)])
@pytest.mark.parametrize("h", [HUGE_H, scale(HUGE_H, 1j)], ids=["real", "imaginary"])
def test_products_past_the_double_range_take_the_scalar_pair(h, layout):
    z = pair(h, HUGE_F)
    assert math.isinf(abs(z)) and math.isnan(z.imag if h is HUGE_H else z.real)
    shifts = np.array([[0.0], [0.25], [2.75], [-5.0], [3.0]])
    f_shifts = np.array([[0.0], [-0.5], [0.125]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.multiple(lpfunc, _TILE=layout[0], _DENSE_PAIRS=layout[1]):
            assert_matches_scalar(h, HUGE_F, shifts)
            assert_both_sides_match_scalar(h, HUGE_F, shifts, f_shifts)
            assert_both_sides_match_scalar(HUGE_F, h, shifts, f_shifts)


def test_terms_past_the_double_range_stay_on_the_kernel():
    # the products are finite, and their products by the volume 1e10 are
    # not: pair reads inf there too, and the kernel keeps its planes
    h = PiecewiseFn(((Box((0.0,), (1e10,)), 1e300 - 2e299j),), 1)
    f = PiecewiseFn(((Box((-1e10,), (1e10,)), 1.0),), 1)
    shifts = np.array([[0.0], [-5e9], [2e10]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(lpfunc, "pair", side_effect=AssertionError):
            got = cross_pairings(h, f, shifts)
    assert bits(got[0]) == bits(complex(math.inf, -math.inf)) == bits(pair(h, f))
    assert_matches_scalar(h, f, shifts)


# ---------------------------------------------------------------------------
# tied rows and f shifts at the edges of the kernel's blocks

# the pieces of the re-sorting tests above: a shift with an axis-0
# coordinate of 0 keeps their order, one of 1/4 or more in size ties A with
# B and C, since x + 1e-20 rounds to x
RESORTING = PiecewiseFn(
    (
        (Box((0.0, 5.0), (1.0, 6.0)), 1.0),
        (Box((1e-20, 0.0), (2.0, 1.0)), 5e-17),
        (Box((1e-20, 1.0), (2.0, 2.0)), 5e-17 - 1e-17j),
    ),
    2,
)
WIDE = PiecewiseFn(((Box((-10.0, -10.0), (10.0, 10.0)), 1.0 + 0.5j),), 2)


def tied_at(xs, ys):
    """Shift rows (x, y); those with x != 0 tie the pieces of RESORTING."""
    return np.array(list(zip(xs, ys)), dtype=float)


# 11 rows, tied at 0, 2, 4, 7 and 10: with RESORTING on both sides (9 piece
# pairs) and _TILE 27, the row tiles are 0-2, 3-5, 6-8 and 9-10, so tied rows
# open, close and sit inside tiles.  7 f shifts, tied at 0, 2, 4 and 6: with
# _TILE 297 a block runs over 3 of them, 0-2, 3-5 and 6.
BLOCK_ROWS = tied_at(
    [1.0, 0.0, -0.5, 0.0, 2.0, 0.0, 0.0, 0.25, 0.0, 0.0, 1.0], [k / 8 for k in range(11)]
)
BLOCK_F_SHIFTS = tied_at([1.0, 0.0, 0.5, 0.0, -1.0, 0.0, 3.0], [k / 4 - 1 for k in range(7)])


@pytest.mark.parametrize("dense", [lpfunc._DENSE_PAIRS, 0])
@pytest.mark.parametrize("tile", [1, 5, 27, 297, lpfunc._TILE])
def test_tied_rows_and_f_shifts_at_block_edges_take_the_scalar_pair(tile, dense):
    assert [k for k, (x, _) in enumerate(BLOCK_ROWS) if x] == [0, 2, 4, 7, 10]
    assert [k for k, (x, _) in enumerate(BLOCK_F_SHIFTS) if x] == [0, 2, 4, 6]
    for shifts in (BLOCK_ROWS, BLOCK_F_SHIFTS):
        for x, y in shifts:
            # translate keeps the order of the tied copies: A, valued 1, stays first
            assert translate(RESORTING, (x, y)).pieces[0][1] == 1.0
    with mock.patch.multiple(lpfunc, _TILE=tile, _DENSE_PAIRS=dense):
        for h, f in ((RESORTING, RESORTING), (RESORTING, WIDE), (WIDE, RESORTING)):
            assert_both_sides_match_scalar(h, f, BLOCK_ROWS, BLOCK_F_SHIFTS)
            assert_matches_scalar(h, f, BLOCK_ROWS)


def test_a_tied_translate_and_its_re_sorted_copy_keep_their_own_power_sums():
    # equality compares pieces in order, so the two tests stay distinct in
    # _system_power_sums, and each sum keeps the bits of its own scalar loop;
    # on this system those differ in the last bit
    t = translate(RESORTING, (1.0, 0.0))
    resorted = PiecewiseFn(t.pieces, 2)
    assert [v for _, v in t.pieces] != [v for _, v in resorted.pieces]
    assert t != resorted and len({t, resorted}) == 2
    sys = TranslateSystem((Generator(WIDE, make_lattice(1.0, 2, 2), "wide"),), ExponentPair(2.0))
    got = _system_power_sums(sys, [t, resorted], 2.0)
    want = [loop_power_sum(sys, test, 2.0) for test in (t, resorted)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert want[0] != want[1]


@pytest.mark.parametrize("terms", [1, 9, 50, 99, 10**6])
@pytest.mark.parametrize("tile", [5, 27, lpfunc._TILE])
def test_blocks_cover_the_matrix_once_within_their_term_budget(terms, tile):
    with mock.patch.object(lpfunc, "_TILE", tile):
        want = cross_pairings(RESORTING, RESORTING, BLOCK_ROWS, BLOCK_F_SHIFTS)
        shape, blocks = lpfunc._pairing_blocks(
            RESORTING, RESORTING, BLOCK_ROWS, BLOCK_F_SHIFTS, terms
        )
        seen = np.zeros(shape, dtype=int)
        got = np.zeros(shape, dtype=complex)
        arrivals = []
        for cols, rows, planes in blocks:
            two, m, n = planes.shape
            # one f shift per block past the budget; every row tile within _TILE
            assert two == 2 and (m == 1 or m * n * 9 <= terms)
            assert n * 9 <= max(tile, 9)
            seen[cols, rows] += 1
            got.real[cols, rows], got.imag[cols, rows] = planes
            arrivals.append((cols.start, cols.stop, rows.start, rows.stop))
    assert shape == (7, 11) and (seen == 1).all()
    assert [bits(z) for z in got.flat] == [bits(z) for z in want.flat]
    # every row tile of one run of f shifts arrives, in order, before the
    # next run starts where it ended
    for (c0, c1, _, r1), (d0, d1, s0, _) in zip(arrivals, arrivals[1:]):
        assert ((d0, d1) == (c0, c1) and s0 == r1) or (d0 == c1 and r1 == 11 and s0 == 0)
    assert arrivals[0][::2] == (0, 0) and arrivals[-1][1::2] == (7, 11)


# ---------------------------------------------------------------------------
# the witness against the scalar loop it replaced


def assert_witness_matches_scalar(f, f_dual, gamma, epsilon):
    w = blowup_witness(f, f_dual, gamma, epsilon, 2.0)
    assert w.window_side == scalar_grid_side(f, f_dual, epsilon)
    best = (-1, None)
    for beta in map(tuple, _window_center_candidates(gamma, w.window_side, 512).tolist()):
        count = scalar_count(f, f_dual, gamma, beta, epsilon)
        if count > best[0]:
            best = (count, beta)
    assert (w.count, w.beta) == best
    return w


line_cuts = st.lists(
    st.one_of(st.integers(-16, 16).map(lambda k: k / 8), st.integers(-6, 6).map(lambda k: k / 3)),
    min_size=2,
    max_size=5,
    unique=True,
).map(sorted)


@st.composite
def line_functions(draw):
    xs = draw(line_cuts)
    return PiecewiseFn(tuple((Box((a,), (b,)), draw(values)) for a, b in zip(xs, xs[1:])), 1)


@st.composite
def witness_cases(draw):
    f = draw(line_functions())
    f_dual = f if draw(st.booleans()) else draw(line_functions())
    base = abs(pair(f, f_dual))
    sites = draw(
        st.lists(
            st.one_of(st.integers(-40, 40).map(lambda k: k / 16), st.integers(1, 30).map(lambda k: 1 / k)),
            min_size=1,
            max_size=15,
            unique=True,
        )
    )
    fraction = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    return f, f_dual, line_set(*sites), fraction * base


@settings(max_examples=40)
@given(witness_cases())
def test_witness_counts_equal_scalar_recount(case):
    f, f_dual, gamma, epsilon = case
    if not epsilon > 0:
        return  # <f, f_dual> == 0: no witness exists
    assert_witness_matches_scalar(f, f_dual, gamma, epsilon)


def test_witness_with_complex_dual_and_epsilon_within_an_ulp():
    pieces = ((0.0, 1 / 3, 1.0), (1 / 3, 0.5, 0.5 + 0.25j), (0.5, 1.0, 0.3 - 0.7j))
    f = PiecewiseFn(tuple((Box((a,), (b,)), v) for a, b, v in pieces), 1)
    # a multiple of f: every pairing stays below |<f, f_dual>|, so each one
    # can serve as a threshold
    f_dual = scale(f, 0.6 - 0.8j)
    sites = [k / 10 for k in range(-4, 5)] + [1 / k for k in range(11, 22)]
    gamma = line_set(*sites)
    base = abs(pair(f, f_dual))
    # each pairing at the densest centre becomes a threshold, nudged one ulp
    # either way, so the counts there turn on the last bit of a modulus
    t_dual = translate(f_dual, blowup_witness(f, f_dual, gamma, base / 4, 2.0).beta)
    moduli = {abs(pair(translate(f, (x,)), t_dual)) for x in sites}
    for m in sorted(moduli - {0.0}):
        for epsilon in (math.nextafter(m, 0.0), m, math.nextafter(m, math.inf)):
            if epsilon < base:
                assert_witness_matches_scalar(f, f_dual, gamma, epsilon)


@pytest.mark.parametrize("tile", [1, translate_system._TILE, 1 << 15])
def test_witness_in_the_plane_matches_the_scalar_loop(tile):
    # a 2 x 2-piece generator on a coarse lattice plus a cluster near the
    # origin; tile 1 scores one centre per block, 1 << 15 all at once
    cells = ((0.0, 0.0, 1.0), (0.0, 0.5, 0.5j), (0.5, 0.0, -0.25), (0.5, 0.5, 0.75 + 0.25j))
    f = PiecewiseFn(tuple((Box((x, y), (x + 0.5, y + 0.5)), v) for x, y, v in cells), 2)
    cluster = PointSet(tuple((1 / k, 1 / (k + 1)) for k in range(2, 14)))
    gamma = union_point_sets([("lattice", make_lattice(1.0, 2, 2)), ("cluster", cluster)])
    with mock.patch.object(translate_system, "_TILE", tile):
        for f_dual in (f, scale(f, 0.6 - 0.8j)):
            base = abs(pair(f, f_dual))
            w = assert_witness_matches_scalar(f, f_dual, gamma, base / 3)
            assert w.count >= 2


@pytest.mark.parametrize("witness_tile", [1, 7, translate_system._TILE])
@pytest.mark.parametrize("kernel_tile", [9, 27, lpfunc._TILE])
def test_witness_with_tied_sites_and_centres_matches_the_scalar_loop(witness_tile, kernel_tile):
    # sites with x != 0 tie the pieces of RESORTING, and so do most of the
    # centres the witness draws from them; kernel tiles of 1 and 3 rows put
    # tied sites at the first, an inner and the last row of a tile, and the
    # witness's own tile scores every centre in one block
    sites = tied_at([0.5, 0.0, 1.0, -0.25, 0.0, 0.0, 0.0, 0.75, 0.125], [k / 8 for k in range(9)])
    assert [k for k, (x, _) in enumerate(sites) if x] == [0, 2, 3, 7, 8]
    gamma = PointSet(sites)
    with mock.patch.object(translate_system, "_TILE", witness_tile):
        with mock.patch.object(lpfunc, "_TILE", kernel_tile):
            w = assert_witness_matches_scalar(RESORTING, RESORTING, gamma, 0.25)
            centres = _window_center_candidates(gamma, w.window_side, 512).tolist()
    assert w.count >= 2
    assert {x == 0.0 for x, _ in centres} == {True, False}


# ---------------------------------------------------------------------------
# the epsilon-grid's ring scan against the scalar bisection


@st.composite
def split_functions(draw, dim, k):
    """A complex step function cut on each axis at lo, lo + 2^-k and one end
    further on: in 1-d up to 1 past the split, in 2-d within 3 splits, so
    that the scalar oracle's windows stay small."""
    split = 2.0**-k
    axes = []
    for _ in range(dim):
        lo = draw(st.integers(-1, 1)) * split
        far = draw(st.integers(1, 4)) / 4 if dim == 1 else draw(st.integers(1, 2)) * split
        axes.append((lo, lo + split, lo + split + far))
    pieces = []
    for idx in itertools.product(range(2), repeat=dim):
        box = Box([c[i] for c, i in zip(axes, idx)], [c[i + 1] for c, i in zip(axes, idx)])
        pieces.append((box, draw(values.filter(lambda v: v != 0))))
    return PiecewiseFn(tuple(pieces), dim)


@st.composite
def grid_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(0, 8))
    f = draw(split_functions(dim, k))
    f_dual = draw(st.sampled_from([f, scale(f, 0.6 - 0.8j)]) | split_functions(dim, k))
    return f, f_dual, draw(st.sampled_from([0.1, 0.25, 0.5, 0.9, 0.99]))


@settings(max_examples=60, deadline=None)
@given(grid_cases(), st.sampled_from([1, 7, None]))
def test_grid_scan_matches_the_scalar_bisection(case, batch):
    # batch patches the keys per kernel call, so that a failing key falls
    # at the first, an inner or the last key of a batch
    f, f_dual, fraction = case
    epsilon = fraction * abs(pair(f, f_dual))
    if not epsilon > 0:
        return  # <f, f_dual> == 0: no witness exists
    with mock.patch.object(translate_system, "_GRID_BATCH", batch or translate_system._GRID_BATCH):
        w = blowup_witness(f, f_dual, PointSet(((0.0,) * f.dimension,)), epsilon, 2.0)
    assert w.window_side == scalar_grid_side(f, f_dual, epsilon)


def split_unit(split):
    return PiecewiseFn(((Box((0.0,), (split,)), 1.0), (Box((split,), (1.0,)), 1.0)), 1)


def test_grid_scan_at_a_split_of_2_to_the_minus_14_pairs_each_key_of_its_rings_once():
    # step 2^-16 and reach 1 make a grid of 2^17 keys; <T_x f, 1_[0,1)> = 1 -
    # |x| fails 0.5 first at the key -2^15, of ring 2^16, so the scan pairs
    # the 2^16 keys of the window of side 2^16, 64 full batches, and no key
    # twice
    unit = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    paired = []

    def spy(h, g, shifts, *rest):
        paired.extend(shifts[:, 0].tolist())
        return cross_pairings(h, g, shifts, *rest)

    with mock.patch.object(translate_system, "cross_pairings", spy):
        w = blowup_witness(split_unit(2.0**-14), unit, make_reciprocal(70), 0.5, 2.0)
    assert w.window_side == (2**16 - 1) * 2**-16
    assert w.count == 70
    assert len(paired) == 65_536
    assert sorted(paired) == [k * 2**-16 for k in range(-(2**15), 2**15)]


def test_grid_scan_memory_at_a_split_of_2_to_the_minus_14_is_bounded():
    # the bisection's key tuples and its memo of every key peaked at 14.1 MB;
    # a first call leaves out numpy's one-time allocations
    unit = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    gamma = make_reciprocal(70)
    blowup_witness(split_unit(0.25), unit, gamma, 0.5, 2.0)
    tracemalloc.start()
    try:
        w = blowup_witness(split_unit(2.0**-14), unit, gamma, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.window_side == (2**16 - 1) * 2**-16
    assert peak < 8e6


# ---------------------------------------------------------------------------
# the pruned centre scan against the full scalar scan

grid_cuts = st.lists(
    st.one_of(st.integers(-12, 12).map(lambda k: k / 8), st.integers(-4, 4).map(lambda k: k / 3)),
    min_size=2,
    max_size=4,
    unique=True,
).map(sorted)
site_parts = st.one_of(st.integers(-24, 24).map(lambda k: k / 16), st.integers(1, 30).map(lambda k: 1 / k))


@st.composite
def grid_functions(draw, dim):
    """A step function on the cells of drawn cuts per axis: complex values,
    or one value with alternating signs, Haar-like, where the count bound is
    loose."""
    axes = [draw(grid_cuts) for _ in range(dim)]
    sign_value = draw(st.one_of(st.none(), values.filter(lambda v: v != 0)))
    pieces = []
    for idx in itertools.product(*(range(len(c) - 1) for c in axes)):
        box = Box([c[i] for c, i in zip(axes, idx)], [c[i + 1] for c, i in zip(axes, idx)])
        pieces.append((box, draw(values) if sign_value is None else sign_value * (-1) ** sum(idx)))
    return PiecewiseFn(tuple(pieces), dim)


@st.composite
def pruned_witness_cases(draw):
    """(f, f_dual, sites, epsilon), epsilon a fraction of |<f, f_dual>| or a
    pairing between a site and a site-centred candidate, nudged an ulp."""
    dim = draw(st.sampled_from([1, 2]))
    f = draw(grid_functions(dim))
    f_dual = draw(st.sampled_from([f, scale(f, 0.6 - 0.8j)]) | grid_functions(dim))
    rows = draw(st.lists(st.tuples(*[site_parts] * dim), min_size=1, max_size=12, unique=True))
    base = abs(pair(f, f_dual))
    occurring = sorted(
        {abs(pair(translate(f, s), translate(f_dual, c))) for s in rows for c in rows} - {0.0}
    )
    occurring = [m for m in occurring if math.nextafter(m, math.inf) < base]
    if occurring and draw(st.booleans()):
        m = draw(st.sampled_from(occurring))
        epsilon = draw(st.sampled_from([math.nextafter(m, 0.0), m, math.nextafter(m, math.inf)]))
    else:
        epsilon = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])) * base
    return f, f_dual, PointSet(rows), epsilon


@settings(max_examples=60)
@given(pruned_witness_cases(), st.sampled_from([1, 3, None]), st.sampled_from([1, 7, None]))
def test_pruned_witness_matches_the_full_scalar_scan(case, rows_per_tile, witness_tile):
    # rows_per_tile patches the kernel's _TILE so that its row tiles hold that
    # many sites, and the sites span several of them; witness_tile patches the
    # witness's terms per block, down to one centre per run; None keeps each
    f, f_dual, gamma, epsilon = case
    if not epsilon > 0:
        return  # <f, f_dual> == 0: no witness exists
    n_pairs = len(f.pieces) * len(f_dual.pieces)
    per_row = max(n_pairs if n_pairs <= lpfunc._DENSE_PAIRS else 0, len(f.pieces))
    kernel_tile = lpfunc._TILE if rows_per_tile is None else rows_per_tile * per_row
    with mock.patch.object(lpfunc, "_TILE", kernel_tile):
        with mock.patch.object(translate_system, "_TILE", witness_tile or translate_system._TILE):
            w = blowup_witness(f, f_dual, gamma, epsilon, 2.0)
    best = (-1, None)
    for beta in scan_candidates(gamma, w.window_side, 512):
        count = scalar_count(f, f_dual, gamma, beta, epsilon)
        if count > best[0]:
            best = (count, beta)
    assert (w.count, w.beta) == best


@settings(max_examples=150)
@given(pruned_witness_cases(), st.data())
def test_count_spans_hold_every_site_the_kernel_counts(case, data):
    f, f_dual, gamma, epsilon = case
    if not epsilon > 0:
        return
    d = f.dimension
    centres = np.concatenate((gamma.as_array, data.draw(shift_arrays(d))))
    spans = _count_spans(f, f_dual, gamma, centres, epsilon)
    assert spans is not None
    v = cross_pairings(f, f_dual, gamma.as_array, centres)
    lo, hi = spans
    x = gamma.as_array[:, 0]
    for j, i in zip(*np.nonzero(_exceeds((v.real, v.imag), epsilon))):
        assert lo[j] <= x[i] <= hi[j], (centres[j], gamma.as_array[i])


def test_count_spans_hold_sites_the_kernel_counts_by_the_last_bit():
    # indicators of constant modulus: a pairing is the modulus squared times
    # the axis-0 overlap as the kernel rounds it, so the bound is tight, and
    # an epsilon an ulp below a pairing needs the slack and the widening for
    # rounded corners, most of all at sites near 1000
    unit = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    strip = PiecewiseFn(((Box((0.0, 0.0), (1.0, 1 / 3)), 0.6 - 0.8j),), 2)
    # the unit indicator cut into 40 pieces: the overlap is a sum of many
    # rounded widths
    cut = PiecewiseFn(tuple((Box((k / 40,), ((k + 1) / 40,)), 1.0) for k in range(40)), 1)
    for f, offset in itertools.product((unit, strip, cut), (0.0, 1000.0)):
        rows = [(offset + k / 10, k / 7)[: f.dimension] for k in range(-12, 13)]
        gamma = PointSet(rows)
        centres = np.array([(offset + k / 10 + 0.01, 0.0)[: f.dimension] for k in range(-7, 8)])
        v = cross_pairings(f, f, gamma.as_array, centres)
        x = gamma.as_array[:, 0]
        for m in sorted({abs(complex(z)) for z in v.flat} - {0.0}):
            epsilon = math.nextafter(m, 0.0)
            lo, hi = _count_spans(f, f, gamma, centres, epsilon)
            for j, i in zip(*np.nonzero(_exceeds((v.real, v.imag), epsilon))):
                assert lo[j] <= x[i] <= hi[j], (epsilon, centres[j], rows[i])


def test_witness_keeps_the_first_centre_among_equal_counts_past_a_looser_bound():
    # a Haar-like generator: <T_x f, f> = 1 - 3|x| for |x| <= 1/2, so at
    # epsilon 0.3 the sites -0.3 and -0.32 lie inside centre A's bound but do
    # not count.  A, second in candidate order, has bound 10 and count 8; B
    # has bound 8 and count 8, and is scored after A, as its bound equals the
    # best count and it comes first in candidate order, which it wins
    f = PiecewiseFn(((Box((0.0,), (0.5,)), 1.0), (Box((0.5,), (1.0,)), -1.0)), 1)
    near = [k / 50 for k in range(8)] + [-0.3, -0.32]
    gamma = line_set(*(near + [10 + k / 50 for k in range(8)]))
    a, b = (0.0,), (10.07,)
    with mock.patch.object(translate_system, "_window_center_candidates", return_value=np.array([b, a])):
        with mock.patch.object(translate_system, "_TILE", 1):
            w = blowup_witness(f, f, gamma, 0.3, 2.0)
    lo, hi = _count_spans(f, f, gamma, np.array([b, a]), 0.3)
    xs = gamma.as_array[:, 0]
    assert [int(((lo[j] <= xs) & (xs <= hi[j])).sum()) for j in (0, 1)] == [8, 10]
    assert [scalar_count(f, f, gamma, c, 0.3) for c in (b, a)] == [8, 8]
    assert (w.count, w.beta) == (8, b)


def test_witness_on_the_benchmark_family_scores_under_a_tenth_of_its_centres():
    # the radius-280 witness of the reciprocal-dichotomy analysis: every one
    # of its 559 centres was scored; the count bound is exact for the unit
    # indicator, so the first block finds count 279 and no later centre can
    # beat it
    f = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    gamma = make_reciprocal(280)
    scored = []

    def counted(planes, epsilon):
        if np.ndim(planes[0]) == 2:  # a block of the centre scan, not the grid search
            scored.append(len(planes[0]))
        return _exceeds(planes, epsilon)

    with mock.patch.object(translate_system, "_exceeds", counted):
        w = blowup_witness(f, f, gamma, 0.5, 2.0)
    assert len(_window_center_candidates(gamma, w.window_side, 512)) == 559
    assert (w.count, w.beta) == (279, (0.37857142857142856,))
    assert 0 < sum(scored) < 0.1 * 559


def test_witness_memory_on_a_large_reciprocal_family_is_bounded():
    # 2000 sites: each block scores one centre, and the counts go into one
    # preallocated array; a first call leaves out numpy's one-time
    # allocations
    f = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    gamma = make_reciprocal(2000)
    blowup_witness(f, f, make_reciprocal(50), 0.5, 2.0)
    tracemalloc.start()
    try:
        w = blowup_witness(f, f, gamma, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
    assert w.count == scalar_count(f, f, gamma, w.beta, 0.5)


def test_witness_scratch_on_the_benchmark_family_stays_at_its_earlier_peak():
    # the witness the reciprocal-dichotomy analysis makes at radius 280: its
    # blocks hold 2^11 terms, and with blocks of 2^10 terms and a complex
    # copy of their sums this call peaked at 139,104 bytes (numpy 2.4,
    # Python 3.11); a first call leaves out numpy's one-time allocations
    f = PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    blowup_witness(f, f, make_reciprocal(50), 0.5, 2.0)
    gamma = make_reciprocal(280)
    tracemalloc.start()
    try:
        w = blowup_witness(f, f, gamma, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert translate_system._TILE == 1 << 11
    assert peak <= 139_104
    assert w.count == scalar_count(f, f, gamma, w.beta, 0.5) == 279


def test_witness_memory_with_a_many_piece_dual_is_bounded():
    # the 192-piece Gaussian as the dual, scored at 1,024 centres: their
    # translated corners alone are 2 x 192 x 1024 doubles, 3.1 MB, where the
    # set-up translates them in tiles and each block only its own; a first
    # call leaves out numpy's one-time allocations
    gauss = sample_catalog_function("gaussian", 1 / 32, Box((-3.0,), (3.0,)))
    f = PiecewiseFn(((Box((0.0,), (1 / 16,)), 1.0),), 1)
    gamma = make_reciprocal(520)
    epsilon = abs(pair(f, gauss)) / 2
    blowup_witness(f, gauss, make_reciprocal(50), epsilon, 2.0)
    tracemalloc.start()
    try:
        w = blowup_witness(f, gauss, gamma, epsilon, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gauss.pieces) == 192
    assert len(_window_center_candidates(gamma, w.window_side, 512)) >= 1000
    assert peak < 2.5e6
    assert w.count == scalar_count(f, gauss, gamma, w.beta, epsilon)


@given(st.lists(st.builds(complex, parts, parts), min_size=1, max_size=30))
def test_count_decision_matches_python_abs(zs):
    vals = np.array(zs, dtype=complex)
    for z in zs:
        m = abs(z)
        for epsilon in (math.nextafter(m, 0.0), m, math.nextafter(m, math.inf)):
            if epsilon > 0:
                got = _exceeds((vals.real, vals.imag), epsilon)
                assert got.tolist() == [abs(v) > epsilon for v in zs]


# ---------------------------------------------------------------------------
# the tiled candidate scan against the per-site window counts


grid_coords = st.one_of(
    st.integers(-12, 12).map(lambda k: k / 8),
    st.integers(-9, 9).map(lambda k: k / 3),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def site_sets(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[grid_coords] * d), min_size=1, max_size=25, unique=True))
    return PointSet(rows)


@given(
    site_sets(),
    st.sampled_from([0.25, 1 / 3, 0.5, 1.0, 2.5]),
    st.sampled_from([1, 3, 512]),
    st.sampled_from([1, 5, 1 << 15]),
)
def test_tiled_candidates_match_the_tensor(gamma, h, limit, tile):
    with mock.patch.object(pointset, "_PAIR_TILE", tile):
        got = _window_center_candidates(gamma, h, limit)
    assert got.shape == (len(got), gamma.dimension)
    assert list(map(tuple, got.tolist())) == scan_candidates(gamma, h, limit)


@pytest.mark.parametrize(
    "gamma, h",
    [(make_reciprocal(2000), 0.25), (make_lattice(0.5, 12, 2), 0.75)],
    ids=["reciprocal-2000", "lattice-2d-2401"],
)
def test_candidate_scan_memory_is_bounded(gamma, h):
    # the tensor held 8.2 MB for 2000 reciprocal sites and 24 MB for the
    # lattice; a first call leaves out numpy's one-time allocations
    want = scan_candidates(gamma, h, 512)
    tracemalloc.start()
    try:
        got = _window_center_candidates(gamma, h, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert list(map(tuple, got.tolist())) == want


def test_candidates_keep_the_first_of_equal_centres_in_candidate_order():
    # the route through tuples and dict.fromkeys, where -0.0 and 0.0 are one key
    anchored = np.array([[0.5, -0.0], [2.0, 1.0], [0.5, 0.0], [-1.0, 3.0]])
    centred = np.array([[2.0, 1.0], [-3.0, 0.0], [0.5, 0.0], [-3.0, -0.0]])
    with mock.patch.object(translate_system, "anchored_windows", return_value=(anchored, None)):
        with mock.patch.object(translate_system, "centred_windows", return_value=(centred, None)):
            got = _window_center_candidates(None, 1.0, 4)
    want = list(dict.fromkeys(map(tuple, np.concatenate((anchored, centred)).tolist())))
    assert list(map(tuple, got.tolist())) == want == [(0.5, -0.0), (2.0, 1.0), (-1.0, 3.0), (-3.0, 0.0)]
    assert [bits(x) for x in got[:, 1]] == [bits(y) for _, y in want]
