"""The sorted-band fixed-radius scans against the O(n^2) scans they replace.

`min_separation`, `detect_accumulation`, `decompose_separated` and the
site-centred window counts find each site's neighbours in the run of
lexicographically sorted sites whose axis-0 offset passes the exact test
(`pointset._bands`).  Each must return what the per-site scan returned, bit
for bit and in the same order.  Those per-site scans are the oracles, in
`oracles.py`.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import (
    PointSet,
    PreconditionError,
    decompose_separated,
    detect_accumulation,
    make_lattice,
    make_reciprocal,
    min_separation,
    union_point_sets,
)
from lpdensity import pointset
from lpdensity.pointset import _bands, centred_windows

from oracles import (
    brute_bands,
    centred_counts,
    min_gap,
    scan_decompose_separated,
    scan_detect_accumulation,
    top_windows,
)


def outcome(fn, *args):
    """fn(*args), or the message of the PreconditionError it raises."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return f"refused: {exc}"


def assert_scans_agree(s, radius, threshold, h):
    assert detect_accumulation(s, radius, threshold) == scan_detect_accumulation(
        s, radius, threshold
    )
    # a separation that reads 0 or inf is refused by both
    assert outcome(decompose_separated, s, radius) == outcome(scan_decompose_separated, s, radius)
    if len(s) >= 2:
        assert min_separation(s) == min_gap(s.as_array)
    centres, counts = centred_windows(s, h, len(s))
    want = top_windows(list(zip(centred_counts(s.as_array, h).tolist(), s.points)), len(s))
    assert list(map(tuple, centres.tolist())) == [x for _, x in want]
    assert counts.tolist() == [c for c, _ in want]


# ---------------------------------------------------------------------------
# the band itself


@st.composite
def band_cases(draw):
    """Sites a few ulps either side of x +- sqrt(r2), so that rounding of the
    difference or the square decides membership, with r2 not a square."""
    r2 = draw(st.one_of(st.floats(1e-3, 4.0), st.sampled_from([0.5, 2.0, 1 / 3, 0.05])))
    base = draw(st.floats(-3.0, 3.0))
    r = math.sqrt(r2)
    xs = {base, draw(st.floats(-3.0, 3.0))}
    for edge in (base - r, base + r):
        for toward in (-math.inf, math.inf):
            x = edge
            for _ in range(draw(st.integers(0, 4))):
                x = math.nextafter(x, toward)
                xs.add(x)
        xs.add(edge)
    # runs of equal values, signed zeros among them
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
    return np.array(sorted([*xs, *zeros, base])), r2


@settings(max_examples=300)
@given(band_cases())
def test_bands_match_the_exact_test(case):
    xs, r2 = case
    a, b = _bands(xs, r2)
    assert (a.tolist(), b.tolist()) == brute_bands(xs, r2)


def raw_estimate(xs, r2):
    r = math.sqrt(r2)
    first = np.searchsorted(xs, xs, side="left")
    past = np.searchsorted(xs, xs, side="right")
    a = np.minimum(np.searchsorted(xs, xs - r, side="left"), first)
    b = np.maximum(np.searchsorted(xs, xs + r, side="right"), past)
    return a, b


@pytest.mark.parametrize(
    "xs, r2, site, moved",
    [
        # the lower end grows: x - sqrt(r2) rounds above a site that passes
        ([-0.004519955209401295, 1.7914230862028608], 3.2254114079971266, 1, "a+"),
        # the upper end grows: x + sqrt(r2) rounds below a site that passes
        ([-1.1223962695353271, 0.11487491287428102], 1.5308399788212699, 0, "b+"),
        # both ends shrink: searchsorted on x -+ r takes in sites the test refuses
        (
            [-1.0853081221248277, -1.0853081221248275, -1.0853081221248273,
             0.8428512476342473, 2.292279924917266, 2.7710106173933218,
             2.771010617393322, 2.7710106173933227],
            1.9281593697590749 * 1.9281593697590749, 3, "a-b-",
        ),
    ],
)
def test_fix_up_moves_the_band_ends(xs, r2, site, moved):
    xs = np.array(xs)
    a, b = _bands(xs, r2)
    assert (a.tolist(), b.tolist()) == brute_bands(xs, r2)
    a0, b0 = raw_estimate(xs, r2)
    assert ("a+" in moved) == (a[site] < a0[site])
    assert ("a-" in moved) == (a[site] > a0[site])
    assert ("b+" in moved) == (b[site] > b0[site])
    assert ("b-" in moved) == (b[site] < b0[site])


def test_fix_up_moves_past_whole_runs_of_equal_axis_0_values():
    # a 2-d column of 50 sites sits one rounding step outside the band of x = 1
    xs = np.array([1e-20] * 50 + [1.0, 1.5])
    assert (1e-20 - 1.0) ** 2 == 1.0  # the difference rounds to -1
    a, b = _bands(xs, 1.0)
    assert (a.tolist(), b.tolist()) == brute_bands(xs, 1.0)
    assert a[50] == 50 and raw_estimate(xs, 1.0)[0][50] == 0


def test_zero_r2_band_is_the_site_alone():
    a, b = _bands(np.array([0.0, 1.0, 2.0]), 0.0)
    assert (a.tolist(), b.tolist()) == ([0, 1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# the four scans against their oracles


coords = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(-12, 12).map(lambda k: k / 8),
    st.integers(-9, 9).map(lambda k: k / 3),
    st.integers(1, 60).map(lambda k: 1 / k),  # a reciprocal cluster at 0
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def scan_cases(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=30, unique=True))
    s = PointSet(rows)
    arr = s.as_array
    radius = draw(st.sampled_from([0.05, 0.125, 0.25, 1 / 3, 0.5, 1.0, 1.5]))
    if len(s) >= 2 and draw(st.booleans()):
        # a radius that a pair of sites realizes, exactly or one ulp away
        i, j = draw(st.lists(st.integers(0, len(s) - 1), min_size=2, max_size=2, unique=True))
        exact = math.sqrt(float(((arr[i] - arr[j]) ** 2).sum()))
        nudged = math.nextafter(exact, draw(st.sampled_from([-math.inf, math.inf])))
        radius = draw(st.sampled_from([exact, nudged]))
        if not (0 < radius < math.inf):
            radius = 0.5
    h = draw(st.sampled_from([2 * radius, radius, 0.25, 1.0]))
    return s, radius, draw(st.integers(2, 4)), h


@settings(max_examples=400)
@given(scan_cases(), st.sampled_from([1, 3, pointset._PAIR_TILE]))
def test_scans_match_the_per_site_loops(case, tile):
    with mock.patch.object(pointset, "_PAIR_TILE", tile):
        assert_scans_agree(*case)


def test_scans_with_radius_below_rounding_to_zero():
    # radius * radius underflows to 0: no site is within it, not even itself
    s = PointSet([(0.0, 0.0), (1e-200, 0.0), (1.0, 1.0)])
    assert_scans_agree(s, 1e-170, 2, 0.5)
    # the squared gap of 1e-200 underflows too, so separate has no minimum gap
    with pytest.raises(PreconditionError, match="separation of the sites reads 0.0"):
        decompose_separated(s, 1e-170)
    s = PointSet([(0.0, 0.0), (1e-150, 0.0), (1.0, 1.0)])
    assert_scans_agree(s, 1e-170, 2, 0.5)
    assert decompose_separated(s, 1e-170).part_count == 1


@pytest.mark.parametrize(
    "s, radius, threshold, h",
    [
        (make_reciprocal(280), 0.05, 4, 0.25),
        (make_reciprocal(600), 0.01, 2, 0.001),
        (union_point_sets([("r", make_reciprocal(200)), ("z", make_lattice(0.5, 3))]), 0.1, 3, 0.5),
        (PointSet([(1 / n, 1 / m) for n in range(1, 21) for m in range(1, 21)]), 0.05, 4, 0.1),
        (PointSet([(1 / n, -0.0, k / 3) for n in range(1, 16) for k in range(-4, 5)]), 0.4, 5, 0.5),
    ],
    ids=["reciprocal-280", "reciprocal-600", "union-1d", "reciprocal-grid-2d", "columns-3d"],
)
def test_reciprocal_clusters(s, radius, threshold, h):
    assert_scans_agree(s, radius, threshold, h)


# ---------------------------------------------------------------------------
# memory


@pytest.mark.parametrize(
    "name, run, want",
    [
        ("min_separation", lambda s: min_separation(s), 1.0),
        ("detect_accumulation", lambda s: len(detect_accumulation(s, 1.5, 4)), 14641 - 4),
        ("decompose_separated", lambda s: decompose_separated(s, 1.5).part_count, 4),
    ],
)
def test_lattice_scans_stay_under_16_mb(name, run, want):
    # the per-site scans built 512 x n x d temporaries, about 120 MB here
    s = make_lattice(1.0, 60, 2)
    assert len(s) == 14641
    tracemalloc.start()
    try:
        got = run(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 16e6, name


def test_separation_at_a_wide_delta_stays_under_4_mb():
    # delta 1e10 puts all 2,412,306 pairs of the 2,197 sites in conflict; the
    # per-site conflict lists held every one of them, about 78 MB
    s = make_lattice(0.5, 3, 3)
    assert len(s) == 2197
    tracemalloc.start()
    try:
        report = decompose_separated(s, 1e10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.parts == tuple((i,) for i in s.order.tolist())
    assert peak < 4e6
