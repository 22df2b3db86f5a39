"""Haar system on [0,1): biorthogonality, norms, sign flips, sandwich, prop checks."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

from lpdensity import (
    HaarExpansion,
    HaarIndex,
    PiecewiseFn,
    PreconditionError,
    SignPattern,
    build_expansion_fn,
    coefficient_sandwich_check,
    count_sandwich_violations,
    dual_fn,
    expansion_norm,
    expansion_norms,
    haar_fn,
    haar_indices_below,
    indicator_interval,
    lp_norm,
    pair,
    prop43_check,
    sandwich_triple,
    unconditional_constant_estimate,
)
from lpdensity.lpfunc import Box


def random_expansion(rng, terms, max_level=6):
    coeffs = {}
    while len(coeffs) < terms:
        j = int(rng.integers(0, max_level))
        k = int(rng.integers(0, 2**j))
        coeffs[HaarIndex(j, k)] = complex(rng.normal(), rng.normal())
    return HaarExpansion.from_mapping(coeffs)


def random_unit_test_fn(rng, cuts=6):
    xs = np.sort(rng.uniform(0.0, 1.0, size=cuts))
    pieces = [
        (Box((float(a),), (float(b),)), complex(rng.normal(), rng.normal()))
        for a, b in zip(xs, xs[1:])
        if b > a
    ]
    return PiecewiseFn(tuple(pieces), 1)


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
    assert f.value_at((0.25,)) == 1.0
    assert f.value_at((0.75,)) == -1.0


def test_haar_fn_level_one_values():
    f = haar_fn(HaarIndex(1, 0), 2.0)
    assert f.value_at((0.1,)) == pytest.approx(math.sqrt(2))
    assert f.value_at((0.3,)) == pytest.approx(-math.sqrt(2))
    g = haar_fn(HaarIndex(1, 0), 3.0)
    assert abs(g.value_at((0.1,))) == pytest.approx(2 ** (1 / 3))


def test_levels_beyond_double_range_are_refused():
    # 2^(1050/1) and the float corners of offset 2^1100 - 1 overflow
    for idx, p in ((HaarIndex(1050, 0), 1.0), (HaarIndex(1100, 2**1100 - 1), 2.0)):
        with pytest.raises(PreconditionError, match="overflows double precision"):
            haar_fn(idx, p)
        with pytest.raises(PreconditionError, match="overflows double precision"):
            expansion_norms([HaarExpansion.from_mapping({idx: 1.0})], p)
    assert haar_fn(HaarIndex(1023, 0), 1.0).pieces[0][1] == 2.0**1023


def test_haar_fn_unit_norm():
    for p in (1.5, 2.0, 3.0, 4.0):
        for idx in haar_indices_below(5):
            assert lp_norm(haar_fn(idx, p), p) == pytest.approx(1.0, abs=1e-12)


def test_dual_fn_values():
    # p = 2: self-dual; p = 4: q = 4/3, values 2^{3j/4}
    assert dual_fn(HaarIndex(2, 1), 2.0) == haar_fn(HaarIndex(2, 1), 2.0)
    g = dual_fn(HaarIndex(1, 0), 4.0)
    assert abs(g.value_at((0.1,))) == pytest.approx(2 ** (3 / 4))


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
    rebuilt = build_expansion_fn(
        HaarExpansion(tuple(zip(idxs, coeffs))), p
    )
    for k in range(64):
        x = (k + 0.5) / 64
        assert rebuilt.value_at((x,)) == pytest.approx(f.value_at((x,)), abs=1e-12)


# ---------------------------------------------------------------------------
# expansion_norm


def test_expansion_norm_single_term_is_modulus():
    for p in (1.5, 2.0, 3.0):
        e = HaarExpansion.from_mapping({HaarIndex(3, 5): 2.0 - 1.0j})
        assert expansion_norm(e, p) == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)


def test_expansion_norm_p2_isometry():
    rng = np.random.default_rng(33)
    for _ in range(100):
        e = random_expansion(rng, int(rng.integers(1, 13)))
        l2 = math.sqrt(sum(abs(c) ** 2 for _, c in e.terms))
        assert abs(expansion_norm(e, 2.0) - l2) <= 1e-12


def test_expansion_norm_riemann_cross_check():
    # exact piecewise construction vs a 2^20-cell evaluation of |f|^p
    rng = np.random.default_rng(35)
    p = 1.5
    e = random_expansion(rng, 8)
    f = build_expansion_fn(e, p)
    n = 2**20
    xs = (np.arange(n) + 0.5) / n
    vals = np.zeros(n, dtype=complex)
    for box, v in f.pieces:
        vals[(xs >= box.lower[0]) & (xs < box.upper[0])] += v
    riemann = float((np.abs(vals) ** p).sum() / n) ** (1 / p)
    assert expansion_norm(e, p) == pytest.approx(riemann, abs=1e-9)


# ---------------------------------------------------------------------------
# unconditional constant


def test_unconditional_constant_p2_is_one():
    rng = np.random.default_rng(37)
    fam = [random_expansion(rng, int(rng.integers(1, 12))) for _ in range(5)]
    assert unconditional_constant_estimate(fam, 2.0, 50) == pytest.approx(1.0, abs=1e-12)


def test_unconditional_constant_single_term_is_one():
    e = HaarExpansion.from_mapping({HaarIndex(2, 2): 3.0})
    for p in (1.5, 3.0):
        assert unconditional_constant_estimate([e], p, 10) == pytest.approx(1.0)


def test_unconditional_constant_matches_direct_enumeration():
    rng = np.random.default_rng(39)
    p = 1.5
    e = random_expansion(rng, 6)
    est = unconditional_constant_estimate([e], p, 10)
    base = expansion_norm(e, p)
    direct = max(
        expansion_norm(e.signed(SignPattern(tuple(zip(e.support, signs)))), p) / base
        for signs in itertools.product((1, -1), repeat=len(e))
    )
    assert est == pytest.approx(direct, rel=1e-12)


def test_unconditional_exhaustive_vs_sampled():
    rng = np.random.default_rng(41)
    p = 1.5
    e = random_expansion(rng, 10)
    exhaustive = unconditional_constant_estimate([e], p, 1)
    sampled = unconditional_constant_estimate([_bump(e)], p, 200, seed=5)
    assert exhaustive >= 1.0
    assert math.isfinite(exhaustive)
    assert exhaustive <= sampled * 1.2 or sampled <= exhaustive


def _bump(e):
    # pad the expansion beyond 12 terms so the sampled path is taken
    coeffs = dict(e.terms)
    j = 6
    k = 0
    while len(coeffs) < 13:
        idx = HaarIndex(j, k)
        if idx not in coeffs:
            coeffs[idx] = 1e-9 + 0j
        k += 1
    return HaarExpansion.from_mapping(coeffs)


def test_unconditional_constant_refuses_matrices_over_the_budget():
    small = HaarExpansion.from_mapping({HaarIndex(0, 0): 1.0})
    # a level-40 term: a 2 x 2^41 cell grid
    deep = HaarExpansion.from_mapping({HaarIndex(0, 0): 1.0, HaarIndex(40, 0): 1.0})
    # 13 terms on 2^7 cells: sampled patterns x cells reach 2^20 at 8192 trials
    wide = _bump(HaarExpansion.from_mapping({HaarIndex(3, k): 1.0 for k in range(8)}))
    for exp, trials in ((deep, 10), (wide, 10**12), (wide, 8193)):
        # refused before any expansion, the small first one too, is evaluated
        with mock.patch("lpdensity.haar_uncond._cell_grid", side_effect=AssertionError):
            with pytest.raises(PreconditionError, match="budget"):
                unconditional_constant_estimate([small, exp], 1.5, trials)
    assert unconditional_constant_estimate([small, wide], 1.5, 8192) >= 1.0


def test_sign_pattern_must_cover_support():
    e = HaarExpansion.from_mapping({HaarIndex(0, 0): 1.0, HaarIndex(1, 1): 2.0})
    pat = SignPattern.from_mapping({HaarIndex(0, 0): -1})
    with pytest.raises(PreconditionError):
        e.signed(pat)


# ---------------------------------------------------------------------------
# coefficient sandwich


def test_sandwich_p2_parseval_collapse():
    e = HaarExpansion.from_mapping(
        {HaarIndex(0, 0): 1.0, HaarIndex(2, 1): -2.0, HaarIndex.constant(): 0.5}
    )
    row = sandwich_triple(e, 2.0)
    assert row.lhs == pytest.approx(row.mid, abs=1e-12)
    assert row.mid == pytest.approx(row.rhs, abs=1e-12)


def test_sandwich_single_term_all_equal():
    e = HaarExpansion.from_mapping({HaarIndex(1, 1): -1.3})
    for p in (1.5, 3.0):
        row = sandwich_triple(e, p)
        assert row.lhs == pytest.approx(1.3, rel=1e-12)
        assert row.mid == pytest.approx(1.3, rel=1e-12)
        assert row.rhs == pytest.approx(1.3, rel=1e-12)


def test_sandwich_fit_has_no_same_batch_violations():
    rng = np.random.default_rng(43)
    for p in (1.5, 3.0):
        batch = [random_expansion(rng, 16) for _ in range(200)]
        rep = coefficient_sandwich_check(batch, p)
        assert count_sandwich_violations(rep.rows, rep.lower_constant, rep.upper_constant) == 0
        # ordering sanity: fitted constants are at least 1 (single-direction tightness)
        assert rep.lower_constant > 0
        assert rep.upper_constant > 0


def test_sandwich_stability_across_batches():
    for p in (1.5, 3.0):
        a = coefficient_sandwich_check(
            [random_expansion(np.random.default_rng(1000 + i), 16) for i in range(300)], p
        )
        b = coefficient_sandwich_check(
            [random_expansion(np.random.default_rng(9000 + i), 16) for i in range(300)], p
        )
        assert a.lower_constant / b.lower_constant < 2.0
        assert b.lower_constant / a.lower_constant < 2.0
        assert a.upper_constant / b.upper_constant < 2.0
        assert b.upper_constant / a.upper_constant < 2.0


# ---------------------------------------------------------------------------
# truncated-system Bessel / required-constant checks


def test_prop43_constant_test_p2():
    rep = prop43_check(2.0, 8, [indicator_interval(0, 1)])
    # only the constant Haar function pairs nonzero with chi_[0,1)
    assert rep.max_bessel_ratio == pytest.approx(1.0)
    assert rep.rows[0].k_required == pytest.approx(1.0)


def test_prop43_parseval_limit():
    rng = np.random.default_rng(45)
    tests = [random_unit_test_fn(rng) for _ in range(5)]
    rep = prop43_check(2.0, 9, tests)
    for row in rep.rows:
        assert row.k_required == pytest.approx(1.0, abs=0.01)


def test_prop43_exponent_selection():
    rep_low = prop43_check(1.5, 3, [indicator_interval(0.0, 0.5)])
    assert rep_low.bessel_exponent == pytest.approx(3.0)  # q-Bessel
    assert rep_low.dual_exponent == 2.0  # l2-budget dual form
    rep_high = prop43_check(3.0, 3, [indicator_interval(0.0, 0.5)])
    assert rep_high.bessel_exponent == 2.0  # Bessel
    assert rep_high.dual_exponent == pytest.approx(1.5)  # lp-budget dual form


def test_prop43_dual_family_norms():
    rep = prop43_check(1.5, 6, [indicator_interval(0, 1)])
    lo_q, hi_q = rep.dual_q_norm_range
    assert lo_q == pytest.approx(1.0, abs=1e-12)
    assert hi_q == pytest.approx(1.0, abs=1e-12)
    lo_p, hi_p = rep.dual_p_norm_range
    assert hi_p == pytest.approx(1.0, abs=1e-12)
    assert lo_p < 1.0  # the p-norm reading of the dual family decays with level


def test_prop43_requires_unit_support():
    with pytest.raises(PreconditionError, match="supported"):
        prop43_check(2.0, 4, [indicator_interval(-0.5, 0.5)])


def test_prop43_stability_between_cutoffs():
    rng = np.random.default_rng(47)
    tests = [random_unit_test_fn(rng) for _ in range(10)]
    for p in (1.5, 3.0):
        r8 = prop43_check(p, 8, tests)
        r10 = prop43_check(p, 10, tests)
        assert abs(r10.max_bessel_ratio - r8.max_bessel_ratio) <= 0.2 * r8.max_bessel_ratio
        assert abs(r10.max_k_required - r8.max_k_required) <= 0.2 * r8.max_k_required
