"""Array-backed site sets against the per-site tuple code they replaced.

The oracles, in `oracles.py`, are the per-point constructions and loops that
the array code replaced: lattice, basis-lattice, reciprocal and
union construction, the duplicate check and its message, the anchored window
scan, and the per-site support prefilter of power sums and masses.
Coordinates are compared bit for bit, so 0.0 and -0.0 differ.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpdensity import (
    Box,
    ExponentPair,
    Generator,
    PiecewiseFn,
    PointSet,
    PreconditionError,
    TranslateSystem,
    bessel_bound_estimate,
    lp_norm,
    make_lattice,
    make_lattice_basis,
    make_reciprocal,
    nu_plus,
    union_point_sets,
)
from lpdensity.pointset import anchored_windows
from lpdensity.translate_system import _generator_mass, _meeting_sites, _system_power_sums

from oracles import (
    anchor_windows,
    bits,
    brute_nu_plus,
    loop_mass,
    loop_power_sum,
    loop_sites,
    shift_overlaps,
    slab_anchors,
    top_windows,
    tuple_duplicate_message,
    tuple_lattice,
    tuple_lattice_basis,
    tuple_union,
)


def hexrows(rows):
    return [tuple(float(c).hex() for c in row) for row in rows]


# ---------------------------------------------------------------------------
# strategies

# few distinct values, so that coordinates repeat across sites, rows repeat,
# and 0.0 meets -0.0
shared = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0])
coords = st.one_of(shared, st.floats(-4.0, 4.0, allow_nan=False))


def site_rows(dim, min_size=1, max_size=12, unique=False):
    return st.lists(
        st.tuples(*[coords] * dim), min_size=min_size, max_size=max_size, unique=unique
    )


dims = st.sampled_from([1, 2])
sides = st.sampled_from([0.25, 1 / 3, 0.5, 0.75, 1.0, 1.5])


# ---------------------------------------------------------------------------
# construction


@given(
    dims.flatmap(lambda d: site_rows(d, max_size=10)),
    st.sampled_from(["lists", "tuples", "array"]),
)
def test_construction_matches_tuple_of_points(rows, form):
    given_rows = {
        "lists": lambda: [list(r) for r in rows],
        "tuples": lambda: rows,
        "array": lambda: np.array(rows, dtype=float),
    }[form]()
    message = tuple_duplicate_message(rows)
    if message is not None:
        with pytest.raises(PreconditionError) as exc:
            PointSet(given_rows)
        assert str(exc.value) == message
        return
    s = PointSet(given_rows)
    assert hexrows(s.as_array.tolist()) == hexrows(rows)
    assert hexrows(s.points) == hexrows(rows)
    assert s.order.tolist() == sorted(range(len(rows)), key=lambda i: rows[i])


def test_duplicate_message_names_signed_zero():
    with pytest.raises(PreconditionError) as exc:
        PointSet(((1.0, 0.0), (0.0, 2.0), (-0.0, 2.0), (0.0, 2.0)))
    assert str(exc.value) == "duplicate point (-0.0, 2.0) at positions 1 and 2"


def test_non_finite_row_rejected_with_its_coordinates():
    with pytest.raises(PreconditionError, match=r"finite, got \(1.0, inf\)"):
        PointSet([(0.0, 0.0), (1.0, math.inf)])


@settings(max_examples=60)
@given(
    st.sampled_from([0.5, 1 / 3, 0.1, 0.7, 1.0]),
    st.sampled_from([1.0, 2.5, 3.0, 1 / 3]),
    st.integers(1, 3),
    st.booleans(),
    st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3),
)
def test_lattice_matches_tuple_construction(spacing, window, dimension, shifted, offset):
    offset = tuple(offset[:dimension]) if shifted else None
    s = make_lattice(spacing, window, dimension, offset=offset)
    want = tuple_lattice(spacing, window, dimension, offset)
    assert hexrows(s.as_array.tolist()) == hexrows(want)


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.lists(st.floats(-0.6, 0.6, allow_nan=False), min_size=9, max_size=9),
    st.sampled_from([1.0, 1.7, 2.5]),
    st.none() | st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3),
)
def test_sheared_basis_lattice_matches_tuple_construction(d, shear, window, offset):
    # unit diagonal plus shears of at most 0.6; nearly singular draws are skipped
    basis = [[1.0 if i == j else shear[3 * i + j] for j in range(d)] for i in range(d)]
    if abs(np.linalg.det(np.array(basis))) < 0.05:
        return
    offset = offset[:d] if offset is not None else None
    s = make_lattice_basis(basis, window, offset=offset)
    assert hexrows(s.as_array.tolist()) == hexrows(tuple_lattice_basis(basis, window, offset))


def test_reciprocal_matches_tuple_construction():
    s = make_reciprocal(500)
    assert hexrows(s.as_array.tolist()) == hexrows((1.0 / n,) for n in range(500, 0, -1))


@st.composite
def union_members(draw):
    d = draw(dims)
    members = draw(st.lists(site_rows(d, 0, 8, unique=True), max_size=3))
    # a last member at the origin, which an earlier -0.0 row coincides with
    return d, members + [[(0.0,) * d]]


@given(union_members())
def test_union_keeps_the_first_of_coinciding_points(case):
    d, members = case
    sets = [(f"m{i}", PointSet(rows, dimension=d)) for i, rows in enumerate(members)]
    u = union_point_sets(sets)
    assert hexrows(u.as_array.tolist()) == hexrows(tuple_union(members))


# ---------------------------------------------------------------------------
# the anchored-window scan


@given(site_rows(1, max_size=15), sides)
def test_nu_plus_1d_matches_brute_anchors(rows, h):
    rows = list(dict.fromkeys(rows))
    s = PointSet(rows)
    assert nu_plus(s, h) == (brute_nu_plus(rows, h),) * 2 + (True,)
    centres, counts = anchored_windows(s, h, len(rows))
    want = top_windows(anchor_windows(rows, h), len(rows))
    assert hexrows(centres.tolist()) == hexrows(x for _, x in want)
    assert counts.tolist() == [c for c, _ in want]


@given(site_rows(2, max_size=15), sides)
def test_nu_plus_2d_matches_brute_anchors(rows, h):
    rows = list(dict.fromkeys(rows))
    s = PointSet(rows)
    assert nu_plus(s, h) == (brute_nu_plus(rows, h),) * 2 + (True,)
    want = top_windows(slab_anchors(rows, h), len(rows) ** 2)
    centres, counts = anchored_windows(s, h, len(rows) ** 2)
    assert hexrows(centres.tolist()) == hexrows(x for _, x in want)
    assert counts.tolist() == [c for c, _ in want]


# lattices, where equal counts are everywhere and only the centres rank them
lattice_rows = st.builds(
    lambda spacing, window, d: make_lattice(spacing, window, d).points,
    st.sampled_from([0.25, 0.5, 1.0]),
    st.sampled_from([0.5, 1.0, 1.5]),
    dims,
)


@given(st.one_of(dims.flatmap(site_rows), lattice_rows), sides, st.sampled_from([1, 3, None]))
# the third column's count 3 waits unranked beside the first column's 2 and
# 1, so the fourth column's 2 enters only if the threshold reads the top
@example([(4.0, 4.0), (0.0, 2.0), (3.0, 4.0), (2.0, 4.0)], 3.0, 3)
def test_anchored_windows_are_the_top_oracle_windows(rows, h, limit):
    rows = list(dict.fromkeys(rows))
    windows = anchor_windows(rows, h)
    limit = limit or len(windows)
    want = top_windows(windows, limit)
    centres, counts = anchored_windows(PointSet(rows), h, limit)
    assert hexrows(centres.tolist()) == hexrows(x for _, x in want)
    assert counts.tolist() == [c for c, _ in want]


def test_a_later_column_that_ties_the_running_top_on_count_enters():
    # 1.5 + h/2 and 2.5 + h/2 round to one centre, but 2.5 + h rounds past
    # 1.5 + h, so only the second column holds the third site; its window
    # ties the first column's count 2 and ranks first by its lower centre
    h = 2.0**54
    rows = [(1.5, 0.0), (2.5, 1.0), (h, -10.0)]
    assert 1.5 + h / 2 == 2.5 + h / 2 and 1.5 + h < 2.5 + h
    want = top_windows(slab_anchors(rows, h), 1)
    assert want == [(2, (1.5 + h / 2, 2.0**53 - 10))]
    centres, counts = anchored_windows(PointSet(rows), h, 1)
    assert (counts.tolist(), centres.tolist()) == ([2], [[1.5 + h / 2, 2.0**53 - 10]])


def jittered_grid(count, seed):
    """`count` distinct sites of the square grid of spacing 1, each moved by
    up to 0.3 per axis: the site set of the lattice2d-geometry benchmark."""
    rng = random.Random(seed)
    side = math.isqrt(count - 1) + 1
    rows = {}
    for k in range(count):
        row = None
        while row is None or row in rows:
            row = (k % side + rng.uniform(-0.3, 0.3), k // side + rng.uniform(-0.3, 0.3))
        rows[row] = None
    return PointSet(list(rows))


def test_nu_plus_2d_memory_is_bounded():
    # keeping every anchored window peaked at 59.5 MB; a first call leaves
    # out numpy's one-time allocations
    s = jittered_grid(1600, 1)
    want = nu_plus(s, 32.0)
    tracemalloc.start()
    try:
        got = nu_plus(s, 32.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert got == want == (1039, 1039, True)


# ---------------------------------------------------------------------------
# the site prefilter of power sums and masses

dyadic = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def step_fns(draw, dim):
    """Strips along axis 0 over a common extent on the other axes, with
    dyadic corners so that shifted supports often touch exactly."""
    xs = sorted(draw(st.lists(dyadic, min_size=2, max_size=4, unique=True)))
    lo, up = sorted(draw(st.lists(dyadic, min_size=2, max_size=2, unique=True)))
    pieces = []
    for a, b in zip(xs, xs[1:]):
        value = complex(draw(st.sampled_from([1.0, -0.5, 2.0])), draw(st.sampled_from([0.0, 0.75])))
        pieces.append((Box((a,) + (lo,) * (dim - 1), (b,) + (up,) * (dim - 1)), value))
    return PiecewiseFn(tuple(pieces), dim)


@st.composite
def systems(draw):
    dim = draw(dims)
    gens = []
    for k in range(draw(st.integers(1, 2))):
        rows = draw(st.lists(st.tuples(*[dyadic] * dim), min_size=1, max_size=12, unique=True))
        gens.append(Generator(draw(step_fns(dim)), PointSet(rows), f"g{k}"))
    return TranslateSystem(tuple(gens), ExponentPair(2.0)), draw(step_fns(dim))


@given(systems(), st.sampled_from([2.0, 1.5, 3.0]))
def test_masked_power_sum_matches_site_loop(case, exponent):
    sys, test = case
    assert _system_power_sums(sys, [test], exponent)[0].hex() == loop_power_sum(sys, test, exponent).hex()
    # a site whose shifted support only touches the target pairs to 0, so
    # the sum cannot tell whether the prefilter dropped it; compare the sites
    for gen in sys.generators:
        walked = list(_meeting_sites(gen, [test.support_box]))
        assert walked == [(list(site), [True]) for site in loop_sites(gen, test.support_box)]


@given(systems(), st.data(), dyadic, st.sampled_from([0.5, 1.0, 2.25]))
def test_site_walk_rows_match_the_site_loop_per_box(case, data, centre, side):
    sys, test = case
    gen = sys.generators[0]
    other = data.draw(step_fns(gen.f.dimension))
    boxes = [test.support_box, Box.cube((centre,) * gen.f.dimension, side), other.support_box]
    want = [
        (list(site), [shift_overlaps(gen.f.support_box, site, b) for b in boxes])
        for site in sorted(gen.gamma.points)
    ]
    assert list(_meeting_sites(gen, boxes)) == [(site, row) for site, row in want if any(row)]


@given(systems(), dyadic, st.sampled_from([0.5, 1.0, 2.25]), st.sampled_from([2.0, 3.0]))
def test_masked_mass_matches_site_loop(case, centre, side, p):
    sys, _ = case
    gen = sys.generators[0]
    region = Box.cube((centre,) * gen.f.dimension, side)
    assert _generator_mass(gen, region, p).hex() == loop_mass(gen, region, p).hex()


def rebuilt(f, zero=0.0, shift=0.0):
    """f built anew as a separate object, every corner moved by shift and
    every zero corner replaced by `zero` (0.0 or -0.0): equal to f when
    shift is 0."""
    def corner(c):
        return tuple(zero if v + shift == 0 else v + shift for v in c)

    return PiecewiseFn(tuple((Box(corner(b.lower), corner(b.upper)), v) for b, v in f.pieces), f.dimension)


@st.composite
def bessel_cases(draw):
    """Systems of 1 to 3 generators, some sharing their f, and test lists
    that repeat tests as separate equal objects (some with -0.0 corners where
    the other copy has 0.0) and hold tests far from every site."""
    dim = draw(dims)
    fns = draw(st.lists(step_fns(dim), min_size=1, max_size=3))
    gens = []
    for k in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.tuples(*[dyadic] * dim), min_size=1, max_size=12, unique=True))
        f = rebuilt(draw(st.sampled_from(fns)), draw(st.sampled_from([0.0, -0.0])))
        gens.append(Generator(f, PointSet(rows), f"g{k}"))
    pool = draw(st.lists(step_fns(dim), min_size=1, max_size=3))
    variants = st.tuples(st.sampled_from(pool), st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, 0.0, 100.0]))
    tests = [rebuilt(f, zero, shift) for f, zero, shift in draw(st.lists(variants, min_size=1, max_size=6))]
    return TranslateSystem(tuple(gens), ExponentPair(2.0)), tests


@given(bessel_cases(), st.sampled_from([2.0, 1.5, 3.0]))
def test_one_pass_bessel_rows_match_the_loop_per_test(case, p_prime):
    sys, tests = case
    est = bessel_bound_estimate(sys, tests, p_prime)
    for row, test in zip(est.per_test, tests):
        want = loop_power_sum(sys, test, p_prime)
        assert bits(row.bessel_sum) == bits(want)
        assert bits(row.ratio) == bits(want / lp_norm(test, sys.p.q) ** p_prime)
