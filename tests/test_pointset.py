"""Point-set geometry: separation, counting, density profiles."""

import math

import numpy as np
import pytest

from lpdensity import (
    Box,
    DimensionMismatchError,
    Generator,
    PointSet,
    PreconditionError,
    decompose_separated,
    density_profile,
    detect_accumulation,
    grid_occupancy,
    localized_mass,
    make_lattice,
    make_lattice_basis,
    make_reciprocal,
    min_separation,
    nu_plus,
    union_point_sets,
)
from lpdensity.pointset import centred_windows

from oracles import brute_nu_plus, exact_chromatic, interval, line_set, min_gap


# ---------------------------------------------------------------------------
# construction invariants


def test_duplicate_points_rejected():
    with pytest.raises(PreconditionError, match="duplicate"):
        PointSet(((0.0,), (1.0,), (0.0,)))


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatchError):
        PointSet(((0.0,), (1.0, 2.0)))


def test_empty_set_needs_dimension():
    with pytest.raises(PreconditionError):
        PointSet(())
    s = PointSet(np.zeros((0, 2)))
    assert s.dimension == 2
    assert nu_plus(s, 1.0) == (0, 0, True)


def test_non_finite_coordinates_rejected():
    with pytest.raises(PreconditionError):
        PointSet(((math.inf,),))


# ---------------------------------------------------------------------------
# min_separation


def test_min_separation_line():
    assert min_separation(line_set(0, 0.5, 1.0, 2.0)) == 0.5


def test_min_separation_plane():
    assert min_separation(PointSet(((0, 0), (3, 4)))) == 5.0


def test_min_separation_reciprocal_vs_brute():
    s = make_reciprocal(100)
    oracle = min_gap(list(s.points))
    got = min_separation(s)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.0 / 9900.0, rel=1e-12)  # 1/99 - 1/100


def test_min_separation_needs_two_points():
    with pytest.raises(PreconditionError, match="separation"):
        min_separation(line_set(1.0))


# ---------------------------------------------------------------------------
# decompose_separated


def test_decompose_two_interleaved_progressions():
    s = line_set(0, 0.1, 1, 1.1, 2, 2.1)
    rep = decompose_separated(s, 0.5)
    assert rep.part_count == 2
    groups = [sorted(s.points[i][0] for i in part) for part in rep.parts]
    assert sorted(groups) == [[0.0, 1.0, 2.0], [0.1, 1.1, 2.1]]


def test_decompose_already_separated():
    rep = decompose_separated(line_set(0, 1, 2), 0.5)
    assert rep.part_count == 1
    assert rep.min_gap == 1.0


def test_decompose_parts_are_delta_separated_and_partition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        s = PointSet(tuple(tuple(rng.uniform(-2, 2, size=2)) for _ in range(n)))
        delta = float(rng.uniform(0.05, 1.0))
        rep = decompose_separated(s, delta)
        seen = sorted(i for part in rep.parts for i in part)
        assert seen == list(range(n))
        for part in rep.parts:
            coords = [s.points[i] for i in part]
            if len(coords) >= 2:
                assert min_gap(coords) >= delta


def test_decompose_reciprocal_vs_exact_coloring():
    s = make_reciprocal(10)
    rep = decompose_separated(s, 0.3)
    oracle = exact_chromatic(list(s.points), 0.3)
    # {1/3..1/10} is a conflict clique of size 8
    assert oracle == 8
    assert rep.part_count >= 4
    assert rep.part_count >= oracle


def test_decompose_delta_positive():
    with pytest.raises(PreconditionError):
        decompose_separated(line_set(0, 1), 0.0)


# ---------------------------------------------------------------------------
# half-open counting


def test_count_integers_in_unit_cube():
    s = make_lattice(1.0, 5, 1)
    assert grid_occupancy(s, 1.0) == {(k,): 1 for k in range(-5, 6)}


def test_count_half_open_boundary():
    s = make_lattice(1.0, 5, 1)
    # Q_2(2n) = [2n - 1, 2n + 1) holds 2n - 1 and 2n; 2n + 1 is on its right face
    assert grid_occupancy(s, 2.0) == {(-2,): 2, (-1,): 2, (0,): 2, (1,): 2, (2,): 2, (3,): 1}


def test_count_excludes_right_face():
    s = line_set(0, 0.5, 1.0, 2.0)
    centres, counts = centred_windows(s, 1.0, 4)
    # Q_1(0.5) = [0, 1) excludes 1.0, Q_1(1.0) = [0.5, 1.5) excludes nothing
    assert dict(zip(map(tuple, centres.tolist()), counts.tolist())) == {
        (0.0,): 1, (0.5,): 2, (1.0,): 2, (2.0,): 1
    }


def test_count_dimension_mismatch():
    gen = Generator(interval(0, 1), line_set(0, 1), "g")
    with pytest.raises(DimensionMismatchError):
        localized_mass(gen, Box.cube((0, 0), 1.0), 2.0)


def test_grid_cubes_tile_the_set():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        for _ in range(10):
            n = int(rng.integers(1, 40))
            s = PointSet(tuple(tuple(rng.uniform(-3, 3, size=d)) for _ in range(n)))
            h = float(rng.uniform(0.2, 2.0))
            occ = grid_occupancy(s, h)
            assert sum(occ.values()) == n
            # bucket counts agree with direct half-open cube counting
            for key, c in occ.items():
                cube = Box.cube(tuple(k * h for k in key), h)
                inside = (s.as_array >= cube.lower) & (s.as_array < cube.upper)
                assert int(inside.all(axis=1).sum()) == c


# ---------------------------------------------------------------------------
# nu_plus


def test_nu_plus_window_examples():
    s = line_set(0, 0.5, 1.0, 2.0)
    assert nu_plus(s, 1.0) == (2, 2, True)
    assert nu_plus(s, 1.1) == (3, 3, True)
    # oracle agreement
    xs = [0, 0.5, 1.0, 2.0]
    assert brute_nu_plus(xs, 1.0) == 2
    assert brute_nu_plus(xs, 1.1) == 3


def test_nu_plus_half_integer_plane():
    s = make_lattice(0.5, 4, 2)
    assert nu_plus(s, 1.0) == (4, 4, True)


def test_nu_plus_random_1d_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        xs = list(rng.uniform(-5, 5, size=n))
        s = line_set(*xs)
        h = float(rng.uniform(0.1, 3.0))
        assert nu_plus(s, h).lower == brute_nu_plus(xs, h)


def test_nu_plus_random_2d_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        points = [tuple(rng.uniform(-3, 3, size=2)) for _ in range(n)]
        s = PointSet(tuple(tuple(c) for c in points))
        h = float(rng.uniform(0.2, 2.5))
        assert nu_plus(s, h).lower == brute_nu_plus(points, h)


def test_nu_plus_high_dim_sandwich():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 50))
        s = PointSet(tuple(tuple(rng.uniform(-2, 2, size=3)) for _ in range(n)))
        h = float(rng.uniform(0.3, 1.5))
        lower, upper, exact = nu_plus(s, h)
        assert not exact
        assert lower <= n
        assert upper == 8 * lower


def test_nu_plus_grid_bound_brackets_exact_value():
    # the d<=2 exact value must sit inside the d>=3-style sandwich
    rng = np.random.default_rng(19)
    for d in (1, 2):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            s = PointSet(tuple(tuple(rng.uniform(-4, 4, size=d)) for _ in range(n)))
            h = float(rng.uniform(0.3, 2.0))
            exact = nu_plus(s, h).lower
            n_h = max(grid_occupancy(s, h).values())
            assert n_h <= exact <= (2**d) * n_h


# ---------------------------------------------------------------------------
# density_profile


def test_density_profile_integer_lattice():
    s = make_lattice(1.0, 100, 1)
    prof = density_profile(s, [10, 20, 40])
    # a half-open window of integer length h holds exactly h integers
    assert [r.nu_lower for r in prof.rows] == [10, 20, 40]
    assert prof.density_estimate == 1.0
    assert prof.truncation_bias
    # non-integer length: floor(h)+1 fit, confirmed by the anchor oracle
    xs = [p[0] for p in s.points]
    prof2 = density_profile(s, [10.5, 21.0])
    assert prof2.rows[0].nu_lower == 11 == brute_nu_plus(xs, 10.5)


def test_density_profile_half_integer_lattice():
    prof = density_profile(make_lattice(0.5, 50, 1), [10, 20, 40])
    assert prof.density_estimate == pytest.approx(2.0)


def test_density_profile_reciprocal_unbounded():
    for n in (50, 100, 200):
        s = make_reciprocal(n)
        assert nu_plus(s, 1.0) == (n, n, True)  # all points inside [1/n, 1+1/n)


def test_density_profile_window_too_small():
    s = make_lattice(1.0, 10, 1)
    with pytest.raises(PreconditionError, match="window too small"):
        density_profile(s, [10, 30])


def test_density_profile_monotone_in_h():
    rng = np.random.default_rng(23)
    s = PointSet(tuple(tuple(rng.uniform(-5, 5, size=1)) for _ in range(60)))
    prof = density_profile(s, [0.5, 1.0, 2.0, 4.0])
    nus = [r.nu_lower for r in prof.rows]
    assert nus == sorted(nus)


def test_basis_lattice_matches_spacing_lattice():
    a = make_lattice(0.5, 3, 2)
    b = make_lattice_basis(((0.5, 0.0), (0.0, 0.5)), 3)
    assert set(a.points) == set(b.points)


@pytest.mark.parametrize("window", [-5.0, 0.0, math.nan])
def test_basis_lattice_refuses_a_window_that_is_not_positive(window):
    # as make_lattice does: no empty or single-site set from a bad window
    with pytest.raises(PreconditionError, match="window must be positive"):
        make_lattice_basis(((1.0, 0.0), (0.0, 1.0)), window)
    with pytest.raises(PreconditionError):
        make_lattice(1.0, window, 2)


def test_sheared_basis_lattice_matches_brute_enumeration():
    s = make_lattice_basis(((1.0, 0.5), (0.0, 1.0)), 4)
    brute = set()
    for m in range(-12, 13):
        for n in range(-12, 13):
            x, y = float(m), m * 0.5 + float(n)
            if abs(x) <= 4 and abs(y) <= 4:
                brute.add((x, y))
    assert set(s.points) == brute


def test_grid_occupancy_half_open_boundary_snap():
    # points sitting exactly on a grid face belong to the right-hand cube
    s = PointSet(((0.5, 0.5, 0.5), (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    occ = grid_occupancy(s, 1.0)
    assert occ == {(1, 1, 1): 1, (0, 0, 0): 2}


@pytest.mark.parametrize(
    "rows, h",
    [
        # the int64 cast of 2e100 gave two of these sites one bogus key
        ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 1e-100),
        ([(2.0**53,)], 1.0),
        ([(0.0, 0.0), (1e308, -1e308)], 1e-10),  # x / h overflows to inf
    ],
)
def test_grid_occupancy_refuses_indices_past_the_exact_integers(rows, h):
    with np.errstate(all="raise"):
        with pytest.raises(PreconditionError, match=r"\|x / h\| of 2\^53 or more"):
            grid_occupancy(PointSet(rows), h)
    # the largest index that doubles still hold exactly is kept
    assert grid_occupancy(PointSet([(2.0**53 - 1,)]), 1.0) == {(2**53 - 1,): 1}


@pytest.mark.parametrize("count", [0, -3, 40.7, 1e12, 2**20 + 1, math.inf, math.nan])
def test_reciprocal_count_must_be_a_whole_number_within_the_budget(count):
    with pytest.raises(PreconditionError, match=r"whole count in 1\.\.1048576"):
        make_reciprocal(count)


def test_reciprocal_count_given_as_an_integral_float_is_its_integer():
    s = make_reciprocal(70.0)
    assert s.provenance.count == 70 and type(s.provenance.count) is int
    assert s.as_array.tobytes() == make_reciprocal(70).as_array.tobytes()


# ---------------------------------------------------------------------------
# detect_accumulation


def test_accumulation_in_reciprocal_family():
    s = make_reciprocal(200)
    found = detect_accumulation(s, 0.01, 50)
    assert found
    assert min(p[0] for p in found) <= 1.0 / 100


def test_no_accumulation_in_separated_lattice():
    assert detect_accumulation(make_lattice(1.0, 100, 1), 0.4, 2) == []


def test_accumulation_cluster_at_origin():
    s = PointSet(((0.0,),) + tuple((0.001 * k,) for k in range(1, 101)))
    assert detect_accumulation(s, 0.05, 10)


# ---------------------------------------------------------------------------
# relative-separation dichotomy (finite truncation form)


def test_bounded_density_gives_stable_part_count():
    # lattice: density ratio stays ~1, so greedy parts at the derived delta
    # stay constant as the truncation grows
    for spacing, bound in ((1.0, 1.0), (0.5, 2.0)):
        h = 1.0
        delta = h / (2 * math.sqrt(1) * math.ceil(bound * h))
        counts = []
        for window in (10, 20, 40):
            s = make_lattice(spacing, window, 1)
            counts.append(decompose_separated(s, delta).part_count)
        assert counts[0] == counts[1] == counts[2]


def test_reciprocal_counts_explode():
    nus = []
    parts = []
    for n in (50, 100, 200):
        s = make_reciprocal(n)
        nus.append(nu_plus(s, 1.0).lower)
        parts.append(decompose_separated(s, 0.3).part_count)
    assert nus == sorted(nus) and nus[0] < nus[-1]
    assert parts == sorted(parts) and parts[0] < parts[-1]


def test_union_subadditivity():
    a = make_lattice(1.0, 20, 1)
    b = PointSet(tuple((x + 0.3,) for x in np.arange(-20.0, 21.0)))
    u = union_point_sets([("a", a), ("b", b)])
    for h in (0.7, 1.0, 2.3, 5.0):
        assert nu_plus(u, h).lower <= nu_plus(a, h).upper + nu_plus(b, h).upper
