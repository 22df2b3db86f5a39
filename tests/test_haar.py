"""Haar system on [0,1): biorthogonality, norms, sign flips, sandwich, prop checks."""

import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdensity import (
    DimensionMismatchError,
    HaarBatch,
    HaarIndex,
    PiecewiseFn,
    PreconditionError,
    build_expansion_fn,
    conjugate_exponent,
    coefficient_sandwich_check,
    count_sandwich_violations,
    dual_fn,
    expansion_norms,
    haar_fn,
    haar_indices_below,
    lp_norm,
    pair,
    prop43_check,
    unconditional_constant_estimate,
)
from lpdensity import haar_uncond
from lpdensity.haar_uncond import _level_offset, haar_pairings
from lpdensity.lpfunc import Box

from oracles import (
    batch_of,
    bits,
    built_norm,
    built_ratio,
    interval,
    random_expansion,
    random_unit_fn,
    riemann_value,
    rows_of,
    stack,
)


# ---------------------------------------------------------------------------
# indices and basis functions


def test_index_validation():
    with pytest.raises(PreconditionError):
        HaarIndex(2, 4)
    with pytest.raises(PreconditionError):
        HaarIndex(-2, 0)
    assert HaarIndex.constant().is_constant
    assert len(haar_indices_below(7)) == 128


def test_haar_fn_mother():
    f = haar_fn(HaarIndex(0, 0), 2.0)
    assert riemann_value(f, np.array([0.25, 0.75])).tolist() == [1.0, -1.0]


def test_haar_fn_level_one_values():
    f = haar_fn(HaarIndex(1, 0), 2.0)
    assert riemann_value(f, np.array([0.1, 0.3])).tolist() == pytest.approx([math.sqrt(2), -math.sqrt(2)])
    g = haar_fn(HaarIndex(1, 0), 3.0)
    assert abs(riemann_value(g, np.array([0.1]))[0]) == pytest.approx(2 ** (1 / 3))


def test_levels_beyond_double_range_are_refused():
    # 2^(1050/1) and the float corners of offset 2^1100 - 1 overflow; a batch
    # key 2^j + k holds levels up to 62 only, and refuses these
    for idx, p in ((HaarIndex(1050, 0), 1.0), (HaarIndex(1100, 2**1100 - 1), 2.0)):
        with pytest.raises(PreconditionError, match="overflows double precision"):
            haar_fn(idx, p)
        with pytest.raises(PreconditionError, match="int64"):
            HaarBatch([[(1 << idx.level) + idx.offset]], [[1.0]])
    assert haar_fn(HaarIndex(1023, 0), 1.0).pieces[0][1] == 2.0**1023


def test_haar_fn_unit_norm():
    for p in (1.5, 2.0, 3.0, 4.0):
        for idx in haar_indices_below(5):
            assert lp_norm(haar_fn(idx, p), p) == pytest.approx(1.0, abs=1e-12)


def test_dual_fn_values():
    # p = 2: self-dual; p = 4: q = 4/3, values 2^{3j/4}
    assert dual_fn(HaarIndex(2, 1), 2.0) == haar_fn(HaarIndex(2, 1), 2.0)
    g = dual_fn(HaarIndex(1, 0), 4.0)
    assert abs(riemann_value(g, np.array([0.1]))[0]) == pytest.approx(2 ** (3 / 4))


def test_biorthogonality_exact_to_level_six():
    for p in (1.5, 2.0, 3.0):
        idxs = haar_indices_below(7)
        fns = [haar_fn(i, p) for i in idxs]
        duals = [dual_fn(i, p) for i in idxs]
        for a, g in enumerate(duals):
            for b, f in enumerate(fns):
                v = pair(g, f)
                if a == b:
                    assert abs(v - 1) <= 1e-12
                else:
                    assert v == 0j  # exact dyadic cancellation


def test_reconstruction_of_dyadic_functions():
    # expanding a level-6 dyadic step function against duals and resumming
    # through haar_fn reproduces it exactly
    rng = np.random.default_rng(31)
    p = 1.5
    idxs = haar_indices_below(6)
    fns = [haar_fn(i, p) for i in idxs]
    duals = [dual_fn(i, p) for i in idxs]
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    f = PiecewiseFn(
        tuple(
            (Box((k / 64,), ((k + 1) / 64,)), complex(v)) for k, v in enumerate(vals)
        ),
        1,
    )
    coeffs = [pair(f, g) for g in duals]
    rebuilt = build_expansion_fn(batch_of([dict(zip(idxs, coeffs))]), p)
    xs = (np.arange(64) + 0.5) / 64
    assert riemann_value(rebuilt, xs).tolist() == pytest.approx(riemann_value(f, xs).tolist(), abs=1e-12)


# ---------------------------------------------------------------------------
# expansion_norm


def test_expansion_norm_single_term_is_modulus():
    for p in (1.5, 2.0, 3.0):
        e = batch_of([{HaarIndex(3, 5): 2.0 - 1.0j}])
        assert expansion_norms(e, p)[0] == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)


def test_expansion_norm_p2_isometry():
    rng = np.random.default_rng(33)
    for _ in range(100):
        e = random_expansion(rng, int(rng.integers(1, 13)))
        l2 = math.sqrt(sum(abs(c) ** 2 for c in e.coeffs[0].tolist()))
        assert abs(expansion_norms(e, 2.0)[0] - l2) <= 1e-12


def test_expansion_norm_riemann_cross_check():
    # exact piecewise construction vs a 2^20-cell evaluation of |f|^p
    rng = np.random.default_rng(35)
    p = 1.5
    e = random_expansion(rng, 8)
    n = 2**20
    vals = riemann_value(build_expansion_fn(e, p), (np.arange(n) + 0.5) / n)
    riemann = float((np.abs(vals) ** p).sum() / n) ** (1 / p)
    assert expansion_norms(e, p)[0] == pytest.approx(riemann, abs=1e-9)


# ---------------------------------------------------------------------------
# unconditional constant


def test_unconditional_constant_p2_is_one():
    rng = np.random.default_rng(37)
    fam = stack(random_expansion(rng, int(rng.integers(1, 12))) for _ in range(5))
    assert unconditional_constant_estimate(fam, 2.0, 50) == pytest.approx(1.0, abs=1e-12)


def test_unconditional_constant_single_term_is_one():
    e = batch_of([{HaarIndex(2, 2): 3.0}])
    for p in (1.5, 3.0):
        assert unconditional_constant_estimate(e, p, 10) == pytest.approx(1.0)


def test_unconditional_constant_matches_direct_enumeration():
    rng = np.random.default_rng(39)
    p = 1.5
    e = random_expansion(rng, 6)
    est = unconditional_constant_estimate(e, p, 10)
    assert est == pytest.approx(built_ratio(e, p), rel=1e-12)


def test_unconditional_exhaustive_vs_sampled():
    rng = np.random.default_rng(41)
    p = 1.5
    e = random_expansion(rng, 10)
    exhaustive = unconditional_constant_estimate(e, p, 1)
    sampled = unconditional_constant_estimate(_bump(e), p, 200, seed=5)
    assert exhaustive >= 1.0
    assert math.isfinite(exhaustive)
    assert exhaustive <= sampled * 1.2 or sampled <= exhaustive


def _bump(e):
    # pad the expansion beyond 12 terms so the sampled path is taken
    (coeffs,) = rows_of(e)
    j = 6
    k = 0
    while len(coeffs) < 13:
        idx = HaarIndex(j, k)
        if idx not in coeffs:
            coeffs[idx] = 1e-9 + 0j
        k += 1
    return batch_of([coeffs])


def test_unconditional_constant_refuses_matrices_over_the_budget():
    small = {HaarIndex(0, 0): 1.0}
    # a level-40 term: 5 cut-grid cells, not 2^41 dyadic ones
    deep = {HaarIndex(0, 0): 1.0, HaarIndex(40, 0): 1.0}
    flipped = batch_of([{HaarIndex(0, 0): 1.0, HaarIndex(40, 0): -1.0}])
    ratio = built_norm(flipped, 1.5) / built_norm(batch_of([deep]), 1.5)
    assert unconditional_constant_estimate(batch_of([small, deep]), 1.5, 10) == max(1.0, ratio)
    # 13 terms on 38 cells: sampled patterns x cells pass 2^20 at 27595 trials
    wide = _bump(batch_of([{HaarIndex(3, k): 1.0 for k in range(8)}]))
    small_wide = stack([batch_of([small]), wide])
    for trials in (10**12, 27595):
        # refused before any expansion, the small first one too, is evaluated
        with mock.patch("lpdensity.haar_uncond._cut_grid", side_effect=AssertionError):
            with pytest.raises(PreconditionError, match="budget"):
                unconditional_constant_estimate(small_wide, 1.5, trials)
    with mock.patch("lpdensity.haar_uncond._cut_grid", side_effect=AssertionError):
        with pytest.raises(PreconditionError, match="trials"):
            unconditional_constant_estimate(small_wide, 1.5, 0)
    assert unconditional_constant_estimate(small_wide, 1.5, 27594) >= 1.0


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 0.0)])
def test_expansion_refuses_a_coefficient_that_is_not_finite(c):
    with pytest.raises(PreconditionError, match="must be finite"):
        HaarBatch([[1, 2]], [[1.0, c]])
    with pytest.raises(PreconditionError, match="must be finite"):
        batch_of([{HaarIndex(0, 0): 1.0}, {HaarIndex(0, 0): c}])


def test_batch_drops_zeros_and_sorts_each_row():
    # keys 2^j + k: (1, 1) is 3, (0, 0) is 1, the constant 0, (2, 3) is 7
    batch = HaarBatch([[3, 1, 0, 7], [7, 3, 0, 5]], [[2.0, 0.0, -1j, 1.5], [0.0, -0.0, 4.0, 0j]])
    assert batch.keys.tolist() == [[0, 3, 7], [0, -1, -1]]
    assert batch.coeffs.tolist() == [[-1j, 2.0, 1.5], [4.0, 0, 0]]
    assert batch.sizes.tolist() == [3, 1]
    assert rows_of(batch) == [
        {HaarIndex.constant(): -1j, HaarIndex(1, 1): 2.0, HaarIndex(2, 3): 1.5},
        {HaarIndex.constant(): 4.0},
    ]
    assert batch.keys.flags.c_contiguous and not batch.keys.flags.writeable
    assert not batch.coeffs.flags.writeable
    # a row keeps its own width, and an int selects a batch of one row
    assert batch[1].keys.tolist() == [[0]] and batch[-1].sizes.tolist() == [1]
    assert batch[:1].coeffs.tolist() == [[-1j, 2.0, 1.5]]
    # a zero coefficient is dropped whatever its key, repeated or negative
    assert HaarBatch([[5, 5, -3]], [[1.0, 0.0, 0.0]]).keys.tolist() == [[5]]
    assert HaarBatch(np.zeros((0, 4), dtype=int), np.zeros((0, 4))).keys.shape == (0, 0)


@pytest.mark.parametrize(
    "keys, coeffs, match",
    [
        ([[4, 1, 4]], [[1.0, 2.0, 3.0]], r"repeated index \(2, 0\) in row 0"),
        ([[0, 0]], [[1.0, 2.0]], r"repeated index \(-1, 0\) in row 0"),
        ([[1, -2]], [[1.0, 1.0]], "invalid Haar key -2"),
        ([[1.5]], [[1.0]], "int64 keys"),
        ([[1, 2]], [[1.0]], "one \\(n, width\\) shape"),
        ([1, 2], [1.0, 1.0], "one \\(n, width\\) shape"),
    ],
)
def test_batch_refuses_repeated_negative_or_misshapen_keys(keys, coeffs, match):
    with pytest.raises(PreconditionError, match=match):
        HaarBatch(keys, coeffs)


# ---------------------------------------------------------------------------
# coefficient sandwich


def test_sandwich_p2_parseval_collapse():
    e = batch_of([{HaarIndex(0, 0): 1.0, HaarIndex(2, 1): -2.0, HaarIndex.constant(): 0.5}])
    (row,) = coefficient_sandwich_check(e, 2.0).rows
    assert row.lhs == pytest.approx(row.mid, abs=1e-12)
    assert row.mid == pytest.approx(row.rhs, abs=1e-12)


def test_sandwich_single_term_all_equal():
    e = batch_of([{HaarIndex(1, 1): -1.3}])
    for p in (1.5, 3.0):
        (row,) = coefficient_sandwich_check(e, p).rows
        assert row.lhs == pytest.approx(1.3, rel=1e-12)
        assert row.mid == pytest.approx(1.3, rel=1e-12)
        assert row.rhs == pytest.approx(1.3, rel=1e-12)


def test_sandwich_fit_has_no_same_batch_violations():
    rng = np.random.default_rng(43)
    for p in (1.5, 3.0):
        batch = stack(random_expansion(rng, 16) for _ in range(200))
        rep = coefficient_sandwich_check(batch, p)
        assert count_sandwich_violations(rep.rows, rep.lower_constant, rep.upper_constant) == 0
        # ordering sanity: fitted constants are at least 1 (single-direction tightness)
        assert rep.lower_constant > 0
        assert rep.upper_constant > 0


def test_sandwich_stability_across_batches():
    for p in (1.5, 3.0):
        a = coefficient_sandwich_check(
            stack(random_expansion(np.random.default_rng(1000 + i), 16) for i in range(300)), p
        )
        b = coefficient_sandwich_check(
            stack(random_expansion(np.random.default_rng(9000 + i), 16) for i in range(300)), p
        )
        assert a.lower_constant / b.lower_constant < 2.0
        assert b.lower_constant / a.lower_constant < 2.0
        assert a.upper_constant / b.upper_constant < 2.0
        assert b.upper_constant / a.upper_constant < 2.0


# ---------------------------------------------------------------------------
# truncated-system Bessel / required-constant checks


def test_prop43_constant_test_p2():
    rep = prop43_check(2.0, 8, [interval(0, 1)])
    # only the constant Haar function pairs nonzero with chi_[0,1)
    assert rep.max_bessel_ratio == pytest.approx(1.0)
    assert rep.rows[0].k_required == pytest.approx(1.0)


def test_prop43_parseval_limit():
    rng = np.random.default_rng(45)
    tests = [random_unit_fn(rng) for _ in range(5)]
    rep = prop43_check(2.0, 9, tests)
    for row in rep.rows:
        assert row.k_required == pytest.approx(1.0, abs=0.01)


def test_prop43_exponent_selection():
    rep_low = prop43_check(1.5, 3, [interval(0.0, 0.5)])
    assert rep_low.bessel_exponent == pytest.approx(3.0)  # q-Bessel
    assert rep_low.dual_exponent == 2.0  # l2-budget dual form
    rep_high = prop43_check(3.0, 3, [interval(0.0, 0.5)])
    assert rep_high.bessel_exponent == 2.0  # Bessel
    assert rep_high.dual_exponent == pytest.approx(1.5)  # lp-budget dual form


def test_prop43_dual_family_norms():
    rep = prop43_check(1.5, 6, [interval(0, 1)])
    lo_q, hi_q = rep.dual_q_norm_range
    assert lo_q == pytest.approx(1.0, abs=1e-12)
    assert hi_q == pytest.approx(1.0, abs=1e-12)
    lo_p, hi_p = rep.dual_p_norm_range
    assert hi_p == pytest.approx(1.0, abs=1e-12)
    assert lo_p < 1.0  # the p-norm reading of the dual family decays with level


def test_prop43_requires_unit_support():
    with pytest.raises(PreconditionError, match="supported"):
        prop43_check(2.0, 4, [interval(-0.5, 0.5)])


def test_prop43_stability_between_cutoffs():
    rng = np.random.default_rng(47)
    tests = [random_unit_fn(rng) for _ in range(10)]
    for p in (1.5, 3.0):
        r8 = prop43_check(p, 8, tests)
        r10 = prop43_check(p, 10, tests)
        assert abs(r10.max_bessel_ratio - r8.max_bessel_ratio) <= 0.2 * r8.max_bessel_ratio
        assert abs(r10.max_k_required - r8.max_k_required) <= 0.2 * r8.max_k_required


# ---------------------------------------------------------------------------
# haar_pairings against the scalar pair


def abs_bits(z: complex) -> bytes:
    """The bits of abs(z); a modulus past the double range reads as inf."""
    try:
        return struct.pack("<d", abs(z))
    except OverflowError:
        return struct.pack("<d", math.inf)


# endpoints on the dyadic grid, on Haar midpoints, off both, and outside [0, 1)
_dyadic = st.builds(lambda m, k: k / 2**m, st.integers(0, 9), st.integers(0, 2**9))
_midpoint = st.builds(
    lambda j, k: (2 * k + 1) / 2 ** (j + 1), st.integers(0, 8), st.integers(0, 255)
)
_endpoint = st.one_of(
    _dyadic,
    _midpoint,
    st.floats(0.0, 1.0),
    st.sampled_from([-1.5, -0.25, -0.0, 1.0, 1.0 + 2**-52, 1.75, 1e300]),
)
_part = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(1e299, 1e301),
    st.floats(1.5e308, 1.7976931348623157e308),
    st.sampled_from([5e-324, -1e-310, 2.2250738585072014e-308, 0.0]),
)


@st.composite
def _step_fn(draw, part=_part):
    """A 1-d step function whose pieces run between sorted drawn endpoints,
    with some runs left out as gaps."""
    ends = sorted(set(draw(st.lists(_endpoint, min_size=2, max_size=9))))
    pieces = [
        (Box((a,), (b,)), complex(draw(part), draw(part)))
        for a, b in zip(ends, ends[1:])
        if draw(st.booleans())
    ]
    return PiecewiseFn(tuple(pieces), 1)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(1.0, 10.0, exclude_min=True),
    cutoff=st.integers(0, 7),
    duals=st.booleans(),
    h=st.one_of(
        _step_fn(),
        st.builds(lambda j, k: HaarIndex(j, k % 2**j), st.integers(0, 9), st.integers(0, 511)),
    ),
)
def test_haar_pairings_match_scalar_pair(p, cutoff, duals, h):
    indices = haar_indices_below(cutoff)
    fns = [(dual_fn if duals else haar_fn)(i, p) for i in indices]
    if isinstance(h, HaarIndex):
        h = dual_fn(h, p)
    want = [pair(h, f) for f in fns]
    (row,) = haar_pairings([h], cutoff, conjugate_exponent(p) if duals else p)
    keys, values = row
    assert all(type(k) is int for k in keys) and keys == sorted(set(keys)) and len(values) == len(keys)
    got = dense(row, cutoff)
    assert [bits(z) for z in got] == [bits(z) for z in want]
    assert [abs_bits(z) for z in got] == [abs_bits(z) for z in want]


def dense(row: tuple, cutoff: int) -> list:
    """A haar_pairings row over every key below 2^cutoff, 0j where left out:
    entry a is the pairing with haar_indices_below(cutoff)[a]."""
    out = [0j] * 2**cutoff
    for key, value in zip(*row):
        out[key] = value
    return out


def key(i: HaarIndex) -> int:
    return 0 if i.is_constant else 2**i.level + i.offset


@settings(max_examples=200, deadline=None)
@given(cutoff=st.integers(0, 9), h=_step_fn(part=st.floats(-4.0, 4.0)))
def test_haar_pairings_rows_hold_the_constant_and_the_split_supports(cutoff, h):
    ((keys, _),) = haar_pairings([h], cutoff, 2.0)
    ends = [e for box, _ in h.pieces for e in (box.lower[0], box.upper[0])]
    split = [
        key(i)
        for i in haar_indices_below(cutoff)[1:]
        if any(i.offset < e * 2**i.level < i.offset + 1 for e in ends)
    ]
    assert keys == [0] + split
    assert all(type(k) is int for k in keys)
    # 1/4 splits the supports of levels 0 and 1, 5/8 those of levels 0..2:
    # the constant, (0, 0), (1, 0), (1, 1) and (2, 2)
    ((keys, _),) = haar_pairings([interval(0.25, 0.625)], 8, 3.0)
    assert keys == [0, 1, 2, 3, 6]


def test_haar_pairings_skip_disjoint_and_covering_supports():
    indices = haar_indices_below(7)
    fns = [haar_fn(i, 3.0) for i in indices]
    duals = [dual_fn(i, 3.0) for i in indices]
    with mock.patch.object(haar_uncond, "pair", wraps=pair) as spy:
        rows = [dense(row, 7) for row in haar_pairings(duals, 7, 3.0)]
    assert rows == [[pair(h, f) for f in fns] for h in duals]
    assert rows == [[complex(a == b) for b in range(128)] for a in range(128)]
    # the constant index, plus each support that a dual's lo, mid or hi cuts
    assert spy.call_count == 897
    # a piece covering every support leaves only the constant index
    with mock.patch.object(haar_uncond, "pair", wraps=pair) as spy:
        (row,) = haar_pairings([interval(-1.0, 2.0, 2.0)], 7, 3.0)
    assert spy.call_count == 1 and row == ([0], [2.0])
    assert dense(row, 7) == [2.0] + [0j] * 127


def test_haar_pairings_build_only_the_functions_they_pair():
    indices = haar_indices_below(7)
    duals = [dual_fn(i, 3.0) for i in indices]
    builder = haar_uncond._key_fn
    with mock.patch.object(haar_uncond, "_key_fn", wraps=builder) as spy:
        rows = list(haar_pairings(duals, 7, 3.0))
    assert len(rows) == 128 and spy.call_count <= 128
    assert len({c.args for c in spy.call_args_list}) == spy.call_count  # once per key
    # a piece covering [0, 1) pairs only the constant; the deepest level
    # gives the overflow bound
    with mock.patch.object(haar_uncond, "_key_fn", wraps=builder) as spy:
        (row,) = haar_pairings([interval(0.0, 1.0, 2.0)], 7, 3.0)
    assert dense(row, 7) == [2.0] + [0j] * 127
    assert sorted(c.args[0] for c in spy.call_args_list) == [0, key(HaarIndex(6, 63))]
    # cutoff 20, not 2^20 functions: the constant, the four supports 1/4 or
    # 5/8 splits and the deepest key
    with mock.patch.object(haar_uncond, "_key_fn", wraps=builder) as spy:
        next(haar_pairings([interval(0.25, 0.625, 1.0)], 20, 3.0))
    assert spy.call_count == 1 + 4 + 1
    # prop43_check adds one dual per level -1..19, through haar_fn
    with mock.patch.object(haar_uncond, "_key_fn", wraps=builder) as spy:
        prop43_check(3.0, 20, [interval(0.25, 0.625, 1.0)])
    assert spy.call_count == 1 + 4 + 1 + 21


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.3])
def test_key_functions_equal_the_validated_haar_functions(p):
    # the builder skips the PiecewiseFn checks; the constructor given the
    # same pieces keeps every box, value and sign of zero
    indices = haar_indices_below(6) + [HaarIndex(40, 2**40 - 1), HaarIndex(52, 3)]
    for i in indices:
        built = haar_uncond._key_fn(key(i), p)
        checked = PiecewiseFn(built.pieces, 1)
        assert built == checked == haar_fn(i, p)
        assert [(b, bits(v)) for b, v in built.pieces] == [(b, bits(v)) for b, v in checked.pieces]
        assert all(type(v) is complex for _, v in built.pieces)
    lo, mid, hi, v = haar_uncond._halves(3, 5, p)
    assert haar_fn(HaarIndex(3, 5), p).pieces == ((Box((lo,), (mid,)), v), (Box((mid,), (hi,)), -v))


def test_prop43_at_the_budget_holds_nothing_of_size_2_to_the_cutoff():
    # a dense row of 2^20 pairings and its magnitudes peaked at 222 MB
    tracemalloc.start()
    try:
        prop43_check(3.0, 20, [interval(0.25, 0.625, 1.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.0, 10.0, exclude_min=True), cutoff=st.integers(0, 12))
def test_prop43_dual_norm_ranges_match_every_offset(p, cutoff):
    rep = prop43_check(p, cutoff, [interval(0.0, 0.75)])
    q = conjugate_exponent(p)
    duals = [dual_fn(i, p) for i in haar_indices_below(cutoff)]
    qnorms = [lp_norm(g, q) for g in duals]
    pnorms = [lp_norm(g, p) for g in duals]
    assert [bits(x) for x in rep.dual_q_norm_range] == [bits(min(qnorms)), bits(max(qnorms))]
    assert [bits(x) for x in rep.dual_p_norm_range] == [bits(min(pnorms)), bits(max(pnorms))]


def test_haar_pairings_overflow_dimension_and_deep_levels():
    indices = haar_indices_below(3)
    fns = [haar_fn(i, 2.0) for i in indices]
    # v * sqrt(2) overflows from level 1 on: pair sums inf and -inf to nan
    # on supports it covers, which a skip would leave at 0j
    big = interval(0.0, 1.0, 1.7e308)
    (row,) = haar_pairings([big], 3, 2.0)
    assert row[0] == [key(i) for i in indices] == list(range(8))
    assert [bits(z) for z in dense(row, 3)] == [bits(pair(big, f)) for f in fns]
    assert all(z != z for z in dense(row, 3)[2:])
    with pytest.raises(DimensionMismatchError):
        next(haar_pairings([PiecewiseFn(((Box((0.0, 0.0), (1.0, 1.0)), 1.0),), 2)], 3, 2.0))
    # the deepest level the budget admits: 1.5 2^-19 splits (19, 1) and no
    # other support of level 19; the supports are found in integers
    h = PiecewiseFn(((Box((0.0,), (1.5 * 2.0**-19,)), 1.0 + 2j), (Box((0.5,), (1.0,)), -1.0)), 1)
    ((keys, values),) = haar_pairings([h], 20, 2.0)
    assert [k for k in keys if _level_offset(k)[0] == 19] == [key(HaarIndex(19, 1))]
    assert [bits(z) for z in values] == [
        bits(pair(h, haar_fn(HaarIndex(*_level_offset(k)), 2.0))) for k in keys
    ]
    assert values[keys.index(key(HaarIndex(19, 1)))] != 0
    assert all(pair(h, haar_fn(HaarIndex(19, k), 2.0)) == 0 for k in (0, 2, 3, 2**19 - 1))
    for cutoff in (-1, 21):
        with pytest.raises(PreconditionError, match="cutoff"):
            next(haar_pairings([h], cutoff, 2.0))
