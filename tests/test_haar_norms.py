"""Batched Haar expansion norms against the piecewise-constant oracle.

`expansion_norms(batch, p)` must return lp_norm(build_expansion_fn(batch[r],
p), p) for every row r of a HaarBatch, with the same bits, and
`coefficient_sandwich_check` must give the rows it gave when every mid came
from that oracle and every flank from numpy's sums over the row alone.
`unconditional_constant_estimate`, on the same cut grid, must agree with the
oracle to rounding, and both must stay within Burkholder's constant.  Both
go through fixed-size tiles, and must keep the bits of the whole batch or
of one product of every sign pattern at any tile size.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpdensity import (
    HaarBatch,
    HaarIndex,
    PreconditionError,
    build_expansion_fn,
    burkholder_constant,
    coefficient_sandwich_check,
    count_sandwich_violations,
    expansion_norms,
    haar_fn,
    haar_indices_below,
    unconditional_constant_estimate,
)
from lpdensity import cli, haar_uncond
from lpdensity.haar_uncond import _INDEX_BUDGET, sign_pattern_count

from oracles import (
    batch_of,
    built_norm,
    built_ratio,
    built_row,
    cell_loop_norms,
    product_estimate,
    random_expansion,
    stack,
)

P_VALUES = (1.0, 1.0000001, 1.1, 1.5, 2.0, 3.0, 7.3)


def assert_same_bits(batch, p):
    got = expansion_norms(batch, p)
    assert len(got) == len(batch)
    for r, value in enumerate(got):
        assert value.hex() == built_norm(batch[r], p).hex(), (batch.keys[r], batch.coeffs[r])


def index(level, offset_frac=0.0):
    if level < 0:
        return HaarIndex.constant()
    return HaarIndex(level, int(offset_frac * 2**level))


def terms(*terms):
    return {index(*i): c for i, c in terms}


def expansion(*ts):
    """A one-row batch of (level, offset fraction) terms."""
    return batch_of([terms(*ts)])


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
nonzero_parts = st.one_of(
    st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3), st.sampled_from((1.0, -1.0, 2.0**-30))
)


@st.composite
def expansions(draw, max_terms=40, max_level=45):
    """A {HaarIndex: coefficient} mapping, a row of a batch."""
    levels = draw(st.sampled_from((2, 5, max_level)))
    return draw(st.dictionaries(haar_indices(levels), coefficients, min_size=1, max_size=max_terms))


# ---------------------------------------------------------------------------
# bit identity with the oracle


@given(st.lists(expansions(), min_size=1, max_size=6), st.sampled_from(P_VALUES))
def test_batches_match_the_oracle_bit_for_bit(batch, p):
    assert_same_bits(batch_of(batch), p)


@given(expansions(max_terms=3), st.floats(1.0, 12.0))
def test_any_exponent_matches_the_oracle(exp, p):
    assert_same_bits(batch_of([exp]), p)


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
    batch = batch_of([
        terms(((-1,), 1.5 - 2j)),  # the constant index alone
        terms(((0,), 1.0)),
        terms(((40, 0.3), 2.0 - 0.5j)),  # one level-40 term
        terms(((39, 0.999), 1j), ((30, 0.5), -3.0), ((-1,), 0.25)),
        terms(((3, 0.5), 2.0), ((3, 0.625), 0.0 + 1.5j), ((1, 0.5), -1.0 + 0j)),
        terms(((2, 0.25), -0.0 + 2j), ((5, 0.3), 3.0 - 0.0j), ((0,), -1e-20 + 1e20j)),
        forty,
        dense,
        {},  # the zero expansion has norm 0
    ])
    assert_same_bits(batch, p)
    # each row is independent of its neighbours and of the padding
    for r in range(len(batch)):
        assert_same_bits(batch[r], p)


def test_cancelling_terms_leave_zero_cells_out():
    # the constant and the level-0 function cancel exactly on [1/2, 1)
    exp = expansion(((-1,), 1.0), ((0,), 1.0))
    assert expansion_norms(exp, 2.0)[0] == built_norm(exp, 2.0) == 2.0 ** (1 / 2)
    assert build_expansion_fn(exp, 2.0).pieces[-1][0].upper == (0.5,)


def test_empty_batch_and_sub_batches():
    assert expansion_norms(batch_of([]), 3.0) == []
    batch = batch_of([terms(((2, 0.5), 1.0)), terms(((-1,), 2j)), terms(((1, 0.5), 1.0), ((3,), -1.0))])
    assert expansion_norms(batch[1:], 3.0) == expansion_norms(batch, 3.0)[1:]
    assert expansion_norms(batch[[2, 0]], 3.0) == expansion_norms(batch, 3.0)[::-2]


@pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
def test_exponent_below_one_or_not_finite_is_refused(p):
    with pytest.raises(PreconditionError):
        expansion_norms(expansion(((1, 0.5), 1.0)), p)


def test_index_too_fine_for_doubles_is_refused_as_by_haar_fn():
    # offset 2^60 - 1 rounds to 2^60 and its halves collapse
    idx = HaarIndex(60, 2**60 - 1)
    with pytest.raises(PreconditionError):
        haar_fn(idx, 2.0)
    with pytest.raises(PreconditionError):
        expansion_norms(batch_of([{idx: 1.0}]), 2.0)


def test_scratch_memory_does_not_grow_with_the_level():
    rng = np.random.default_rng(3)
    batch = []
    for _ in range(300):
        mapping = {HaarIndex(40, int(rng.integers(0, 2**40))): 1.0 + 1j}
        while len(mapping) < 12:
            j = int(rng.integers(0, 6))
            mapping[HaarIndex(j, int(rng.integers(0, 2**j)))] = complex(rng.normal(), 1.0)
        batch.append(mapping)
    batch = batch_of(batch)
    expansion_norms(batch[:1], 3.0)
    tracemalloc.start()
    try:
        expansion_norms(batch, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1 MB here; a dyadic grid fine enough for level 40 has 2^41 cells
    assert peak < 3e6


@st.composite
def mixed_batches(draw):
    """2 to 12 rows of 1 to 20 terms, levels up to 20 and the constant: rows
    of one batch are padded across multiples of 8 terms, where numpy's
    pairwise sum regroups."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=2, max_size=12))
    keys, values = haar_indices(20), st.builds(complex, nonzero_parts, parts)
    return batch_of(draw(st.dictionaries(keys, values, min_size=n, max_size=n)) for n in sizes)


@settings(max_examples=60, deadline=None)
@given(batch=mixed_batches(), p=st.sampled_from(P_VALUES[1:]))
def test_batch_rows_match_their_one_row_runs(batch, p):
    rows = [batch[r] for r in range(len(batch))]
    assert expansion_norms(batch, p) == [built_norm(row, p) for row in rows]
    # both flanks as numpy summed them over one expansion's terms
    assert coefficient_sandwich_check(batch, p).rows == tuple(built_row(row, p) for row in rows)
    # every sign pattern of the rows up to 12 terms, so no draw is shared
    enumerated = batch.sizes <= 12
    if enumerated.any():
        want = max(unconditional_constant_estimate(batch[r], p, 1) for r in np.flatnonzero(enumerated))
        assert unconditional_constant_estimate(batch[enumerated], p, 1) == want


# the moduli and the cell sums of the tiles

# doubles at the edges: signed zeros, subnormals, the largest finite
# values, infinities and nan
edge_floats = st.one_of(
    st.floats(),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)
        + (float("inf"), -float("inf"), float("nan"))
    ),
)


@settings(max_examples=500)
@given(re=edge_floats, im=edge_floats)
def test_hypot_has_the_bits_of_python_abs(re, im):
    # expansion_norms takes each cell's modulus with np.hypot; CPython's
    # abs(complex) is C hypot, and raises OverflowError past the double
    # range, which the loop it replaced read as inf.  A nan modulus only
    # ever leads to a refusal: its sign bit differs (numpy gives x86's
    # default nan), so only its being nan is compared
    try:
        want = abs(complex(re, im))
    except OverflowError:
        want = float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.hypot(np.full(9, re), np.full(9, im))
    if want != want:
        assert np.isnan(got).all()
    else:
        assert {x.hex() for x in got.tolist()} == {want.hex()}


# coefficient parts whose cell sums and powers overflow, underflow or cancel
edge_parts = st.one_of(
    parts,
    st.floats(1e150, 1.7976931348623157e308),
    st.floats(-1.7976931348623157e308, -1e150),
    st.sampled_from((5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1e-200)),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.dictionaries(haar_indices(8), st.builds(complex, edge_parts, edge_parts), min_size=1, max_size=12),
        min_size=1,
        max_size=6,
    ),
    p=st.sampled_from(P_VALUES),
)
@example([{HaarIndex(0, 0): 1.5e308 + 1.5e308j}, {HaarIndex(1, 0): 1.0}], 1.5)  # |z| past the range
@example([{HaarIndex(1, 0): 1e308, HaarIndex(0, 0): -1e308, HaarIndex(2, 0): 1e308}], 1.0)  # inf - inf
@example([{HaarIndex(0, 0): 1e-200, HaarIndex(3, 1): 5e-324j}], 7.3)  # powers that underflow
def test_norms_match_the_per_cell_loop_bit_for_bit(rows, p):
    batch = batch_of(rows)
    try:
        want = cell_loop_norms(batch, p)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as got:
            expansion_norms(batch, p)
        assert str(got.value) == str(exc)
    else:
        assert [x.hex() for x in expansion_norms(batch, p)] == [x.hex() for x in want]


# ---------------------------------------------------------------------------
# the coefficient sandwich


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
        batch.append(mapping)
    batch = batch_of(batch)
    report = coefficient_sandwich_check(batch, p)
    want = tuple(built_row(batch[r], p) for r in range(len(batch)))
    assert report.rows == want
    assert report.lower_constant == max(r.lhs / r.mid for r in want)
    assert report.upper_constant == max(r.mid / r.rhs for r in want)
    # each row is independent of the rest of its batch
    assert [coefficient_sandwich_check(batch[r], p).rows[0] for r in range(5)] == list(want[:5])


def test_sandwich_refuses_empty_inputs():
    with pytest.raises(PreconditionError, match="empty batch"):
        coefficient_sandwich_check(batch_of([]), 3.0)
    with pytest.raises(PreconditionError, match="empty expansion"):
        coefficient_sandwich_check(batch_of([terms(((1, 0.5), 1.0)), {}]), 3.0)
    with pytest.raises(PreconditionError, match="p must lie"):
        coefficient_sandwich_check(expansion(((1, 0.5), 1.0)), 1.0)


@pytest.mark.parametrize("size, p", [(1e200, 1.5), (1e-200, 2.0), (1e-120, 3.0)])
def test_sandwich_refuses_norms_that_leave_the_double_range(size, p):
    # at 1e200 the expansion norm is finite at p = 1.5, but the squares of
    # the l2 flank overflowed: lhs read inf, with a numpy RuntimeWarning; at
    # 1e-200 (p = 2) and 1e-120 (p = 3) every norm rounds to 0 and the
    # fitted constants divided by it
    coeffs = {HaarIndex(0, 0): 1.0, HaarIndex(1, 0): 2.0 - 1j}
    exp = {i: c * size for i, c in coeffs.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="sandwich norm"):
            coefficient_sandwich_check(batch_of([terms(((0,), 1.0)), exp]), p)
    # nearer 1 every bit stays
    ok = batch_of([{i: c * size**0.5 for i, c in coeffs.items()}])
    assert coefficient_sandwich_check(ok, p).rows == (built_row(ok, p),)


# ---------------------------------------------------------------------------
# the unconditional constant and Burkholder's bounds


DEEP = (HaarIndex(40, 0), HaarIndex(40, 2**40 - 1), HaarIndex(40, 3 * 2**37 + 5))


@st.composite
def sign_test_expansions(draw):
    """1 to 6 terms, often with a level-40 one, so every pattern is enumerated."""
    keys = st.one_of(haar_indices(6), st.sampled_from(DEEP))
    values = st.builds(complex, nonzero_parts, parts)
    return draw(st.dictionaries(keys, values, min_size=1, max_size=6))


@given(st.lists(sign_test_expansions(), min_size=1, max_size=3), st.sampled_from(P_VALUES[2:]))
@example([terms(((0,), 1.0), ((40, 0.3), 2.0 - 0.5j), ((-1,), 0.5j))], 1.1)
def test_estimate_matches_the_oracle_within_burkholder_bounds(batch, p):
    batch = batch_of(batch)
    beta = burkholder_constant(p)
    estimate = unconditional_constant_estimate(batch, p, trials=1)
    assert estimate == pytest.approx(max(built_ratio(batch[r], p) for r in range(len(batch))), rel=1e-12, abs=0)
    assert estimate <= beta * (1 + 1e-12)
    rows = coefficient_sandwich_check(batch, p).rows
    assert count_sandwich_violations(rows, beta, beta) == 0


def test_norms_past_the_double_range_are_refused():
    # cubes of 1e110 overflow: expansion_norms raised OverflowError from
    # Python's ** and the estimate returned 1.0 from ratios inf / inf = nan
    coeffs = {HaarIndex(1, 0): 1.0, HaarIndex(0, 0): -3.0, HaarIndex(2, 1): 2.0 - 1j}
    big = batch_of([{i: c * 1e110 for i, c in coeffs.items()}])
    one_then_big = stack([expansion(((0,), 1.0)), big])
    refused = (
        lambda: expansion_norms(big, 3.0),
        lambda: coefficient_sandwich_check(big, 3.0),
        lambda: coefficient_sandwich_check(one_then_big, 3.0),
        lambda: built_norm(big, 3.0),
        lambda: unconditional_constant_estimate(big, 3.0, trials=1),
        lambda: unconditional_constant_estimate(one_then_big, 3.0, trials=1),
    )
    for call in refused:
        with pytest.raises(PreconditionError, match="overflows double precision"):
            call()
    # inside the range every bit stays
    ok = batch_of([{i: c * 1e100 for i, c in coeffs.items()}])
    assert expansion_norms(ok, 3.0)[0].hex() == built_norm(ok, 3.0).hex()
    estimate = unconditional_constant_estimate(ok, 3.0, trials=1)
    assert estimate == pytest.approx(built_ratio(ok, 3.0), rel=1e-12, abs=0)


def test_estimate_refuses_a_norm_that_underflows():
    # |1e-200|^2 underflows on every cell: the estimate divided by a norm of
    # 0 and raised ZeroDivisionError
    tiny = batch_of([{HaarIndex(0, 0): 1e-200, HaarIndex(1, 0): 2e-200}])
    for batch in (tiny, stack([expansion(((0,), 1.0)), tiny])):
        with pytest.raises(PreconditionError, match="the Lp norm of an expansion at p = 2.0 reads 0 in double precision"):
            unconditional_constant_estimate(batch, 2.0, trials=1)
    # at p = 1 the same coefficients keep a norm, and the ratio
    assert unconditional_constant_estimate(tiny, 1.0, trials=1) == pytest.approx(built_ratio(tiny, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# tiles


@pytest.mark.parametrize("rows", [1, 7])
@given(batch=st.lists(expansions(), min_size=1, max_size=16), p=st.sampled_from(P_VALUES))
def test_tiled_norms_match_the_oracle_bit_for_bit(rows, batch, p):
    # tiles of `rows` expansions of mixed widths, each cut to its own widest
    batch = batch_of(batch)
    widest = int(batch.sizes.max())
    with mock.patch.object(haar_uncond, "_TILE", rows * 3 * max(widest, 1)):
        assert_same_bits(batch, p)


@st.composite
def pattern_batches(draw):
    """1 to 3 expansions of 1 to 16 terms: every sign pattern is enumerated
    up to 12 terms, and `trials` of them are drawn above."""
    keys = st.one_of(haar_indices(6), st.sampled_from(DEEP))
    values = st.builds(complex, nonzero_parts, parts)
    sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))
    return batch_of(draw(st.dictionaries(keys, values, min_size=n, max_size=n)) for n in sizes)


@pytest.mark.parametrize("rows", [1, 7, None])
@settings(max_examples=50)
@given(
    batch=pattern_batches(),
    p=st.sampled_from(P_VALUES[2:]),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_estimate_matches_one_product(rows, batch, p, trials, seed):
    # tiles of `rows` sign patterns of the widest expansion, more of the
    # others, and the default tiles; a lone row of a larger product must
    # keep the bits the product gives it
    want = product_estimate(batch, p, trials, seed)
    cells = 3 * int(batch.sizes.max()) - 1
    tile = haar_uncond._TILE if rows is None else rows * cells
    with mock.patch.object(haar_uncond, "_TILE", tile):
        assert unconditional_constant_estimate(batch, p, trials, seed) == want


def test_sandwich_scratch_does_not_grow_with_the_batch():
    rng = np.random.default_rng(4)
    batch = stack(random_expansion(rng, 12) for _ in range(2000))
    coefficient_sandwich_check(batch[:5], 3.0)
    tracemalloc.start()
    try:
        coefficient_sandwich_check(batch, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.7 MB here; norming the whole batch at once took 9.9 MB
    assert peak < 3e6


def test_draws_and_sandwiches_of_300_expansions_stay_under_1_mb():
    # the two batches of haar-check; held as tuples of (HaarIndex, complex)
    # terms they peaked at about 1.3 MB here
    rng = np.random.default_rng(5)
    coefficient_sandwich_check(cli._random_expansions(rng, 12, 5), 3.0)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        batch = cli._random_expansions(rng, 12, 300)
        held = cli._random_expansions(rng, 12, 300)
        coefficient_sandwich_check(batch, 3.0)
        coefficient_sandwich_check(held, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6


def test_norm_tiles_reuse_their_scratch():
    # about 352 KB here, and 10% headroom: a new cell array per term peaked
    # at 419 KB, and numpy's default 8192-element cast buffers alone at 414 KB
    rng = np.random.default_rng(6)
    batch = cli._random_expansions(rng, 12, 300)
    expansion_norms(batch[:5], 3.0)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        expansion_norms(batch, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 352e3


def test_sampled_patterns_at_the_budget_are_multiplied_in_tiles():
    rng = np.random.default_rng(4)
    exp = random_expansion(rng, 13)
    trials = _INDEX_BUDGET // (3 * 13 - 1)  # the most 13-term patterns the budget admits
    assert sign_pattern_count(13, trials) == trials
    with pytest.raises(PreconditionError, match="budget"):
        sign_pattern_count(13, trials + 1)
    tracemalloc.start()
    try:
        unconditional_constant_estimate(exp, 3.0, trials=trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 5.7 MB here, half of it drawing the 2.9 MB of patterns; one
    # product of every pattern took 28 MB
    assert peak < 12e6


# ---------------------------------------------------------------------------
# index budget


@pytest.mark.parametrize("cutoff", [21, 40, 10**12])
def test_cutoff_over_the_index_budget_is_refused_before_any_work(cutoff):
    with pytest.raises(PreconditionError, match="budget"):
        haar_indices_below(cutoff)


def test_cutoff_at_the_budget_edge_counts():
    assert len(haar_indices_below(10)) == 2**10
