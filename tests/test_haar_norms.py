"""Batched Haar expansion norms against the piecewise-constant oracle.

`expansion_norms(batch, p)` must return lp_norm(build_expansion_fn(e, p), p)
for every expansion, with the same bits, and `coefficient_sandwich_check`
must give the rows it gave when every mid came from that oracle.
`unconditional_constant_estimate`, on the same cut grid, must agree with the
oracle to rounding, and both must stay within Burkholder's constant.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lpdensity import (
    HaarExpansion,
    HaarIndex,
    PreconditionError,
    SignPattern,
    build_expansion_fn,
    burkholder_constant,
    coefficient_sandwich_check,
    count_sandwich_violations,
    expansion_norm,
    expansion_norms,
    haar_fn,
    haar_indices_below,
    lp_norm,
    sandwich_triple,
    unconditional_constant_estimate,
)
from lpdensity.haar_uncond import SandwichRow

P_VALUES = (1.0, 1.0000001, 1.1, 1.5, 2.0, 3.0, 7.3)


def oracle(exp, p):
    return lp_norm(build_expansion_fn(exp, p), p)


def assert_same_bits(batch, p):
    got = expansion_norms(batch, p)
    assert len(got) == len(batch)
    for exp, value in zip(batch, got):
        assert value.hex() == oracle(exp, p).hex(), exp


def index(level, offset_frac=0.0):
    if level < 0:
        return HaarIndex.constant()
    return HaarIndex(level, int(offset_frac * 2**level))


def expansion(*terms):
    return HaarExpansion(tuple((index(*i), c) for i, c in terms))


# ---------------------------------------------------------------------------
# strategies


@st.composite
def haar_indices(draw, max_level=45):
    level = draw(st.integers(-1, max_level))
    if level < 0:
        return HaarIndex.constant()
    return HaarIndex(level, draw(st.integers(0, 2**level - 1)))


parts = st.one_of(
    st.just(0.0),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from((1.0, -1.0, 0.5, 2.0**-30)),
)
coefficients = st.builds(complex, parts, parts)


@st.composite
def expansions(draw, max_terms=40, max_level=45):
    levels = draw(st.sampled_from((2, 5, max_level)))
    mapping = draw(
        st.dictionaries(haar_indices(levels), coefficients, min_size=1, max_size=max_terms)
    )
    return HaarExpansion.from_mapping(mapping)


# ---------------------------------------------------------------------------
# bit identity with the oracle


@given(st.lists(expansions(), min_size=1, max_size=6), st.sampled_from(P_VALUES))
def test_batches_match_the_oracle_bit_for_bit(batch, p):
    assert_same_bits(batch, p)


@given(expansions(max_terms=3), st.floats(1.0, 12.0))
def test_any_exponent_matches_the_oracle(exp, p):
    assert_same_bits([exp], p)


@pytest.mark.parametrize("p", P_VALUES)
def test_named_shapes_match_the_oracle(p):
    rng = np.random.default_rng(8)
    forty = {}
    while len(forty) < 40:
        j = int(rng.integers(0, 34))
        forty[HaarIndex(j, int(rng.integers(0, 2**j)))] = complex(rng.normal(), rng.normal())
    # every index below level 6: each cell sums seven terms, so the order of
    # the additions shows in the bits
    dense = {i: complex(rng.normal(), rng.normal()) for i in haar_indices_below(6)}
    batch = [
        expansion(((-1,), 1.5 - 2j)),  # the constant index alone
        expansion(((0,), 1.0)),
        expansion(((40, 0.3), 2.0 - 0.5j)),  # one level-40 term
        expansion(((39, 0.999), 1j), ((30, 0.5), -3.0), ((-1,), 0.25)),
        expansion(((3, 0.5), 2.0), ((3, 0.625), 0.0 + 1.5j), ((1, 0.5), -1.0 + 0j)),
        expansion(((2, 0.25), -0.0 + 2j), ((5, 0.3), 3.0 - 0.0j), ((0,), -1e-20 + 1e20j)),
        HaarExpansion.from_mapping(forty),
        HaarExpansion.from_mapping(dense),
        HaarExpansion(()),  # the zero expansion has norm 0
    ]
    assert_same_bits(batch, p)
    # each row is independent of its neighbours and of the padding
    for exp in batch:
        assert_same_bits([exp], p)


def test_cancelling_terms_leave_zero_cells_out():
    # the constant and the level-0 function cancel exactly on [1/2, 1)
    exp = expansion(((-1,), 1.0), ((0,), 1.0))
    assert expansion_norms([exp], 2.0)[0] == oracle(exp, 2.0) == 2.0 ** (1 / 2)
    assert build_expansion_fn(exp, 2.0).pieces[-1][0].upper == (0.5,)


def test_expansion_norm_is_the_one_entry_batch():
    exp = expansion(((4, 0.7), 1 - 1j), ((-1,), 0.5))
    for p in P_VALUES:
        assert expansion_norm(exp, p) == expansion_norms([exp], p)[0] == oracle(exp, p)


def test_empty_batch_and_generator_input():
    assert expansion_norms([], 3.0) == []
    batch = [expansion(((2, 0.5), 1.0)), expansion(((-1,), 2j))]
    assert expansion_norms(iter(batch), 3.0) == expansion_norms(batch, 3.0)


@pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
def test_exponent_below_one_or_not_finite_is_refused(p):
    with pytest.raises(PreconditionError):
        expansion_norms([expansion(((1, 0.5), 1.0))], p)


def test_index_too_fine_for_doubles_is_refused_as_by_haar_fn():
    # offset 2^60 - 1 rounds to 2^60 and its halves collapse
    idx = HaarIndex(60, 2**60 - 1)
    with pytest.raises(PreconditionError):
        haar_fn(idx, 2.0)
    with pytest.raises(PreconditionError):
        expansion_norms([HaarExpansion(((idx, 1.0),))], 2.0)


def test_scratch_memory_does_not_grow_with_the_level():
    rng = np.random.default_rng(3)
    batch = []
    for _ in range(300):
        mapping = {HaarIndex(40, int(rng.integers(0, 2**40))): 1.0 + 1j}
        while len(mapping) < 12:
            j = int(rng.integers(0, 6))
            mapping[HaarIndex(j, int(rng.integers(0, 2**j)))] = complex(rng.normal(), 1.0)
        batch.append(HaarExpansion.from_mapping(mapping))
    expansion_norms(batch[:1], 3.0)
    tracemalloc.start()
    try:
        expansion_norms(batch, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1 MB here; a dyadic grid fine enough for level 40 has 2^41 cells
    assert peak < 3e6


# ---------------------------------------------------------------------------
# the coefficient sandwich


def oracle_row(exp, p):
    a = np.array([c for _, c in exp.terms], dtype=complex)
    l2 = float(np.sqrt((np.abs(a) ** 2).sum()))
    lp = float(((np.abs(a) ** p).sum()) ** (1.0 / p))
    mid = oracle(exp, p)
    return SandwichRow(l2, mid, lp) if p <= 2 else SandwichRow(lp, mid, l2)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.3])
def test_sandwich_rows_equal_the_oracle_rows(p):
    rng = np.random.default_rng(17)
    batch = []
    for _ in range(60):
        mapping = {}
        terms = int(rng.integers(1, 30))
        while len(mapping) < terms:
            j = int(rng.integers(-1, 6))
            idx = HaarIndex.constant() if j < 0 else HaarIndex(j, int(rng.integers(0, 2**j)))
            mapping[idx] = complex(rng.normal(), rng.normal())
        batch.append(HaarExpansion.from_mapping(mapping))
    report = coefficient_sandwich_check(batch, p)
    want = tuple(oracle_row(exp, p) for exp in batch)
    assert report.rows == want
    assert report.lower_constant == max(r.lhs / r.mid for r in want)
    assert report.upper_constant == max(r.mid / r.rhs for r in want)
    assert [sandwich_triple(exp, p) for exp in batch[:5]] == list(want[:5])


def test_sandwich_refuses_empty_inputs():
    with pytest.raises(PreconditionError, match="empty batch"):
        coefficient_sandwich_check([], 3.0)
    with pytest.raises(PreconditionError, match="empty expansion"):
        coefficient_sandwich_check([expansion(((1, 0.5), 1.0)), HaarExpansion(())], 3.0)
    with pytest.raises(PreconditionError, match="p must lie"):
        sandwich_triple(expansion(((1, 0.5), 1.0)), 1.0)


# ---------------------------------------------------------------------------
# the unconditional constant and Burkholder's bounds


def oracle_ratio(exp, p):
    """The largest sign-pattern norm ratio, every norm through build_expansion_fn."""
    signed = (
        exp.signed(SignPattern(tuple(zip(exp.support, signs))))
        for signs in itertools.product((1, -1), repeat=len(exp))
    )
    return max(oracle(e, p) for e in signed) / oracle(exp, p)


nonzero_parts = st.one_of(
    st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3), st.sampled_from((1.0, -1.0, 2.0**-30))
)
DEEP = (HaarIndex(40, 0), HaarIndex(40, 2**40 - 1), HaarIndex(40, 3 * 2**37 + 5))


@st.composite
def sign_test_expansions(draw):
    """1 to 6 terms, often with a level-40 one, so every pattern is enumerated."""
    keys = st.one_of(haar_indices(6), st.sampled_from(DEEP))
    values = st.builds(complex, nonzero_parts, parts)
    return HaarExpansion.from_mapping(draw(st.dictionaries(keys, values, min_size=1, max_size=6)))


@given(st.lists(sign_test_expansions(), min_size=1, max_size=3), st.sampled_from(P_VALUES[2:]))
@example([expansion(((0,), 1.0), ((40, 0.3), 2.0 - 0.5j), ((-1,), 0.5j))], 1.1)
def test_estimate_matches_the_oracle_within_burkholder_bounds(batch, p):
    beta = burkholder_constant(p)
    estimate = unconditional_constant_estimate(batch, p, trials=1)
    assert estimate == pytest.approx(max(oracle_ratio(e, p) for e in batch), rel=1e-12, abs=0)
    assert estimate <= beta * (1 + 1e-12)
    rows = coefficient_sandwich_check(batch, p).rows
    assert count_sandwich_violations(rows, beta, beta) == 0


# ---------------------------------------------------------------------------
# index budget


@pytest.mark.parametrize("cutoff", [21, 40, 10**12])
def test_cutoff_over_the_index_budget_is_refused_before_any_work(cutoff):
    with pytest.raises(PreconditionError, match="budget"):
        haar_indices_below(cutoff)


def test_cutoff_at_the_budget_edge_counts():
    assert len(haar_indices_below(10)) == 2**10
