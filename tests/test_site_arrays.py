"""Array-backed site sets against the per-site tuple code they replaced.

The oracles below are the per-point constructions and loops that the array
code replaced, kept as references: lattice, basis-lattice, reciprocal and
union construction, the duplicate check and its message, the anchored window
scan, and the per-site support prefilter of power sums and masses.
Coordinates are compared bit for bit, so 0.0 and -0.0 differ.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import (
    Box,
    ExponentPair,
    Generator,
    PiecewiseFn,
    PointSet,
    PreconditionError,
    TranslateSystem,
    lp_norm_pow,
    make_lattice,
    make_lattice_basis,
    make_reciprocal,
    nu_plus,
    pair,
    restrict,
    translate,
    union_point_sets,
)
from lpdensity.pointset import anchored_windows
from lpdensity.translate_system import _generator_mass, _overlapping_sites, _system_power_sum


def hexrows(rows):
    return [tuple(float(c).hex() for c in row) for row in rows]


# ---------------------------------------------------------------------------
# oracles: the per-site tuple code


def tuple_lattice(spacing, window, dimension, offset):
    off = tuple(offset) if offset is not None else (0.0,) * dimension
    kmax = int(math.ceil((window + max(abs(o) for o in off)) / spacing)) + 1
    axes = [
        [k * spacing + o for k in range(-kmax, kmax + 1) if abs(k * spacing + o) <= window]
        for o in off
    ]
    return list(itertools.product(*axes))


def tuple_lattice_basis(basis, window, offset):
    d = len(basis)
    off = np.array(offset, dtype=float) if offset is not None else np.zeros(d)
    mat = np.array(basis, dtype=float).T
    inv = np.linalg.inv(mat)
    bounds = [
        int(math.ceil((window + float(np.abs(off).max())) * np.abs(inv[i]).sum())) + 1
        for i in range(d)
    ]
    pts = []
    for n in itertools.product(*(range(-b, b + 1) for b in bounds)):
        x = mat @ np.array(n, dtype=float) + off
        if np.all(np.abs(x) <= window):
            pts.append(tuple(float(v) for v in x))
    pts.sort()
    return pts


def tuple_duplicate_message(rows):
    seen = {}
    for i, coords in enumerate(rows):
        if coords in seen:
            return f"duplicate point {coords} at positions {seen[coords]} and {i}"
        seen[coords] = i
    return None


def tuple_union(members):
    seen = set()
    pts = []
    for rows in members:
        for coords in rows:
            if coords not in seen:
                seen.add(coords)
                pts.append(coords)
    pts.sort()
    return pts


def slab_anchors(rows, h):
    """(count, centre) of every window anchored at an x coordinate and at a y
    coordinate of a site in that x slab, by direct counting."""
    out = []
    for ax in sorted({x for x, _ in rows}):
        slab = sorted({y for x, y in rows if ax <= x < ax + h})
        for ay in slab:
            count = sum(1 for x, y in rows if ax <= x < ax + h and ay <= y < ay + h)
            out.append((count, (ax + h / 2, ay + h / 2)))
    return out


def brute_nu_plus(rows, h):
    """Largest count over windows anchored at every (x_i, y_j) pair."""
    axes = [sorted({r[j] for r in rows}) for j in range(len(rows[0]))]
    return max(
        sum(1 for r in rows if all(a <= c < a + h for a, c in zip(anchor, r)))
        for anchor in itertools.product(*axes)
    )


def shift_overlaps(f_box, site, target):
    for lo, up, g, tlo, tup in zip(f_box.lower, f_box.upper, site, target.lower, target.upper):
        if lo + g >= tup or up + g <= tlo:
            return False
    return True


def loop_sites(gen, target):
    """The sites kept by the per-site prefilter, in lexicographic order."""
    return [
        site
        for site in sorted(gen.gamma.points)
        if shift_overlaps(gen.f.support_box, site, target)
    ]


def loop_power_sum(sys, test, exponent):
    total = 0.0
    for gen in sys.generators:
        for site in loop_sites(gen, test.support_box):
            v = pair(test, translate(gen.f, site))
            if v != 0:
                total += abs(v) ** exponent
    return total


def loop_mass(gen, region, p):
    total = 0.0
    for site in loop_sites(gen, Box(region.lower, region.upper)):
        total += lp_norm_pow(restrict(translate(gen.f, site), region), p)
    return total


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
    centres, counts = anchored_windows(s, h)
    want = sorted((sum(1 for (y,) in rows if x <= y < x + h), x + h / 2) for (x,) in rows)
    got = sorted(zip(counts.tolist(), centres[:, 0].tolist()))
    assert got == want


@given(site_rows(2, max_size=15), sides)
def test_nu_plus_2d_matches_brute_anchors(rows, h):
    rows = list(dict.fromkeys(rows))
    s = PointSet(rows)
    assert nu_plus(s, h) == (brute_nu_plus(rows, h),) * 2 + (True,)
    centres, counts = anchored_windows(s, h)
    got = [(c, tuple(x)) for c, x in zip(counts.tolist(), centres.tolist())]
    assert hexrows(x for _, x in got) == hexrows(x for _, x in slab_anchors(rows, h))
    assert [c for c, _ in got] == [c for c, _ in slab_anchors(rows, h)]


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
    assert _system_power_sum(sys, test, exponent).hex() == loop_power_sum(sys, test, exponent).hex()
    # a site whose shifted support only touches the target pairs to 0, so
    # the sum cannot tell whether the prefilter dropped it; compare the sites
    for gen in sys.generators:
        kept = _overlapping_sites(gen.gamma, gen.f.support_box, test.support_box)
        assert kept == [list(site) for site in loop_sites(gen, test.support_box)]


@given(systems(), dyadic, st.sampled_from([0.5, 1.0, 2.25]), st.sampled_from([2.0, 3.0]))
def test_masked_mass_matches_site_loop(case, centre, side, p):
    sys, _ = case
    gen = sys.generators[0]
    region = Box.cube((centre,) * gen.f.dimension, side)
    assert _generator_mass(gen, region, p).hex() == loop_mass(gen, region, p).hex()
