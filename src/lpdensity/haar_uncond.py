"""Concrete Haar system on [0,1) as the unconditional-basis test bench.

Every Haar function is a two-piece dyadic step function, so expansions,
their norms under sign flips, and biorthogonal pairings are all computed
exactly in the piecewise-constant calculus: the square-function style
coefficient inequalities and the Bessel/required-constant behaviour of the
truncated system can be checked with no quadrature error.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .lpfunc import (
    Box,
    ExponentPair,
    PiecewiseFn,
    _exponent,
    _finite_power_sum,
    canonicalize,
    conjugate_exponent,
    lp_norm,
    pair,
    scale,
)


class HaarIndex(namedtuple("HaarIndex", "level offset")):
    """Dyadic index (level j >= 0, offset k in [0, 2^j)); level -1 is the
    distinguished constant function on [0,1).  Indices sort and hash as the
    plain (level, offset) tuple."""

    __slots__ = ()

    def __new__(cls, level: int, offset: int = 0):
        level, offset = int(level), int(offset)
        if level < -1 or not 0 <= offset < (1 << level if level >= 0 else 1):
            raise PreconditionError(
                f"invalid Haar index: level {level}, offset {offset}; level j >= 0 has offsets "
                "0..2^j - 1, and the constant is level -1, offset 0"
            )
        return super().__new__(cls, level, offset)

    @classmethod
    def constant(cls) -> "HaarIndex":
        return cls(-1)

    @property
    def is_constant(self) -> bool:
        return self.level < 0


# the most indices haar_indices_below builds, as pointset's site budget, and
# the most entries of any matrix unconditional_constant_estimate builds
_INDEX_BUDGET = 1 << 20
_BUDGET_BITS = _INDEX_BUDGET.bit_length() - 1


def _levels(cutoff: int) -> range:
    """range(cutoff), refusing a negative cutoff and one over the index budget."""
    cutoff = int(cutoff)
    if cutoff < 0:
        raise PreconditionError("cutoff must be >= 0")
    if cutoff > _BUDGET_BITS:
        raise PreconditionError(
            f"cutoff {cutoff} gives 2^{cutoff} Haar indices, over the budget of {_INDEX_BUDGET}"
        )
    return range(cutoff)


def haar_indices_below(cutoff: int) -> list:
    """Constant index plus every (j, k) with j < cutoff: 2^cutoff indices."""
    return [HaarIndex.constant()] + [HaarIndex(j, k) for j in _levels(cutoff) for k in range(2**j)]


def haar_fn(idx: HaarIndex, p: float) -> PiecewiseFn:
    """The Haar function at idx scaled to unit Lp norm.

    Level j, offset k: values +-2^{j/p} on the dyadic halves of
    [k 2^{-j}, (k+1) 2^{-j}); the constant index is chi_[0,1).  Endpoints are
    dyadic, hence exact.
    """
    p = _exponent(p, "p", norm=True)
    if idx.is_constant:
        return PiecewiseFn(((Box((0.0,), (1.0,)), 1.0),), 1)
    lo, mid, hi, v = _halves(*idx, p)
    return PiecewiseFn(((Box((lo,), (mid,)), v), (Box((mid,), (hi,)), -v)), 1)


def _halves(j: int, k: int, p: float) -> tuple:
    """(lo, mid, hi, v): the haar_fn of level j >= 0, offset k at p is v on
    [lo, mid) and -v on [mid, hi)."""
    try:
        lo = k * 2.0**-j
        mid = (2 * k + 1) * 2.0 ** -(j + 1)
        hi = (k + 1) * 2.0**-j
        v = 2.0 ** (j / p)
    except OverflowError:
        raise PreconditionError(
            f"the Haar function of level {j} at p = {p} overflows double precision"
        ) from None
    if not lo < mid < hi:
        raise PreconditionError(f"the halves of level {j} offset {k} collapse in double precision")
    return lo, mid, hi, v


def dual_fn(idx: HaarIndex, p: float) -> PiecewiseFn:
    """Biorthogonal partner of haar_fn(idx, p): the same shape with values
    +-2^{j/q}, q conjugate to p, so pair(dual_fn, haar_fn) = 1.  For p = 2 the
    dual equals the Haar function itself."""
    q = conjugate_exponent(p)
    return haar_fn(idx, q)


def haar_pairings(hs: Iterable, cutoff: int, p: float):
    """Yield {i: pair(h, haar_fn(i, p))} for each h in hs, reading hs lazily,
    over the indices below cutoff that can pair to nonzero, in index order:
    the constant index and each (j, k) whose support has an endpoint e of a
    piece of h strictly inside it (e 2^j no integer, k = floor(e 2^j), in
    integers).  On any other support each piece of h misses it or covers it,
    adding v conj(a) w and v conj(-a) w over its two halves: the pairing is
    exactly 0j.  An h whose |Re v| + |Im v| times the largest Haar value, the
    deepest level's, is not finite could make those terms inf and -inf, so it
    pairs every index.  haar_fn runs once for each index paired and one
    deepest index.
    """
    levels = _levels(cutoff)
    fn = functools.cache(lambda idx: haar_fn(idx, p))  # built once, when first paired
    deepest = HaarIndex(levels[-1], 2 ** levels[-1] - 1) if levels else HaarIndex.constant()
    top = max(abs(v) for _, v in fn(deepest).pieces)
    for h in hs:  # pair refuses an h that is not 1-d, at the constant index
        if all(math.isfinite((abs(v.real) + abs(v.imag)) * top) for _, v in h.pieces):
            ends = {e for box, _ in h.pieces for e in (box.lower[0], box.upper[0]) if 0 < e < 1}
            # e = n / den exactly, den a power of 2: e 2^j is (n << j) / den
            ratios = [e.as_integer_ratio() for e in ends]
            keys = {(j, (n << j) // den) for n, den in ratios for j in levels if (n << j) % den}
            paired = sorted(HaarIndex(*key) for key in keys | {(-1, 0)})
        else:
            paired = haar_indices_below(cutoff)
        yield {i: pair(h, fn(i)) for i in paired}


def _level_offset(key: int) -> tuple:
    """The (j, k) of the key 2^j + k, and (-1, 0) of the constant's key 0."""
    j = key.bit_length() - 1
    return (j, key - (1 << j)) if key else (-1, 0)


class HaarBatch:
    """Finite complex Haar expansions, one a row of two (n, width) arrays:
    keys, int64, 2^j + k for the index (j, k) and 0 for the constant, and
    coeffs, complex.  Each row holds its terms in increasing key order, then
    padding (key -1, coefficient 0); width is the most terms of a row.  An
    entry of coefficient 0 is dropped, whatever its key; a coefficient that
    is not finite, a negative key and a key repeated in a row are refused.
    The arrays are C-contiguous and read-only."""

    __slots__ = ("keys", "coeffs")

    def __init__(self, keys, coeffs):
        keys, coeffs = np.asarray(keys), np.asarray(coeffs, dtype=complex)
        if keys.ndim != 2 or keys.shape != coeffs.shape or keys.size and keys.dtype.kind not in "iu":
            raise PreconditionError(
                f"a Haar batch needs int64 keys and coefficients of one (n, width) shape, "
                f"got {keys.dtype} keys of shape {keys.shape} and {coeffs.shape} coefficients"
            )
        if not np.isfinite(coeffs).all():
            raise PreconditionError("expansion coefficients must be finite")
        live = coeffs != 0
        keys = np.where(live, keys.astype(np.int64), -1)
        if (keys[live] < 0).any():
            raise PreconditionError(f"invalid Haar key {keys[live].min()}: keys are 2^j + k, or 0 for the constant")
        order = np.lexsort((keys, ~live), axis=-1)  # live terms first, in increasing key order
        keys, coeffs = (np.take_along_axis(a, order, axis=1) for a in (keys, np.where(live, coeffs, 0)))
        repeated = np.argwhere((keys[:, 1:] == keys[:, :-1]) & (keys[:, 1:] >= 0))
        if len(repeated):
            r, t = repeated[0].tolist()
            raise PreconditionError(f"repeated index {_level_offset(int(keys[r, t]))} in row {r}")
        width = int(live.sum(axis=1).max(initial=0))
        self.keys, self.coeffs = (np.ascontiguousarray(a[:, :width]) for a in (keys, coeffs))
        self.keys.flags.writeable = self.coeffs.flags.writeable = False

    @property
    def sizes(self) -> np.ndarray:
        """The terms of each row."""
        return (self.keys >= 0).sum(axis=1)

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, rows) -> "HaarBatch":
        """The batch of the rows numpy indexing selects; one row for an int."""
        return HaarBatch(np.atleast_2d(self.keys[rows]), np.atleast_2d(self.coeffs[rows]))


def build_expansion_fn(row: HaarBatch, p: float) -> PiecewiseFn:
    """The step function sum_i a_i haar_fn(i, p) of a one-row batch,
    assembled exactly."""
    (keys,), (coeffs,) = row.keys.tolist(), row.coeffs.tolist()
    raw = []
    for key, c in zip(keys, coeffs):
        raw.extend(scale(haar_fn(HaarIndex(*_level_offset(key)), p), c).pieces)
    return canonicalize(raw, 1)


# scratch elements in one tile: a tile of expansion_norms holds 3 cuts a
# term of its rows, one of unconditional_constant_estimate a cell of each of
# its sign patterns
_TILE = 1 << 12


def _cut_grid(keys: np.ndarray, p: float):
    """Cell widths and a generator of term values on the cut grid of a tile.

    keys are rows and leading columns of a HaarBatch's keys.  Each row gets
    3 * width cuts: the sorted endpoints of its terms' halves, the grid
    canonicalize would cut, padding giving empty zero terms at 1.0.  Between
    the cuts lie 3 * width - 1 cells; repeated endpoints and the padding
    give empty ones.  The generator yields, term by term in key
    order, each term's +-2^{j/p} on the cells it covers and 0 elsewhere, as
    a (rows, cells) array.  _halves fills a table once per distinct key,
    and every array holds O(rows * width) elements, so callers pass one
    tile of rows at a time.
    """
    distinct, at = np.unique(keys, return_inverse=True)
    known = {-1: (1.0, 1.0, 1.0, 0.0), 0: (0.0, 1.0, 1.0, 1.0)}  # padding at 1.0, the constant on [0, 1)
    table = [known[k] if k in known else _halves(*_level_offset(k), p) for k in distinct.tolist()]
    lo, mid, hi, v = np.array(table, dtype=float).reshape(-1, 4)[at.reshape(keys.shape)].T
    cuts = np.sort(np.concatenate([lo, mid, hi]), axis=0).T  # (rows, 3 * width)
    left, right = cuts[:, :-1], cuts[:, 1:]

    def values():
        for t in range(keys.shape[1]):
            up = (lo[t][:, None] <= left) & (right <= mid[t][:, None])
            down = (mid[t][:, None] <= left) & (right <= hi[t][:, None])
            yield np.where(up, v[t][:, None], np.where(down, -v[t][:, None], 0.0))

    return right - left, values()


def expansion_norms(batch: HaarBatch, p: float) -> list:
    """lp_norm(build_expansion_fn(batch[r], p), p) for every row r, bit for bit.

    No Box or PiecewiseFn is built.  The batch goes through _cut_grid one
    tile at a time: as many rows as the widest one's cuts fit in _TILE
    elements, each tile cut to its own widest row, so scratch memory does
    not grow with the batch.  On the cells, each term adds complex(+-v) * c,
    as CPython multiplies, in key order on the cells it covers; each row's
    norm is summed left to right in Python, skipping empty and zero cells,
    with Python's abs and ** (numpy's complex modulus can differ in the
    last bit).
    """
    p = _exponent(p, "p", norm=True)
    sizes = batch.sizes
    step = max(1, _TILE // (3 * int(sizes.max(initial=1))))
    norms = []
    for k in range(0, len(batch), step):
        width = int(sizes[k : k + step].max())
        norms += _tile_norms(batch.keys[k : k + step, :width], batch.coeffs[k : k + step, :width], p)
    return norms


def _tile_norms(keys: np.ndarray, coeffs: np.ndarray, p: float) -> list:
    """expansion_norms of one tile of rows."""
    widths, values = _cut_grid(keys, p)
    cells = np.zeros(widths.shape, dtype=complex)
    # a cell past the double range is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for c, s in zip(coeffs.T, values):
            # s * c casts s to s + 0j: the operands CPython's complex(s) * c has
            cells = np.where(s != 0.0, cells + s * c[:, None], cells)
    norms = []
    for row, row_w in zip(cells, widths):
        total = 0.0
        for z, w in zip(row.tolist(), row_w.tolist()):
            if w > 0.0 and z:
                try:
                    total += abs(z) ** p * w
                except OverflowError:
                    total = math.inf
        total = _finite_power_sum(total, f"the Lp norm of an expansion at p = {p}")
        norms.append(total ** (1.0 / p))
    return norms


def sign_pattern_count(terms: int, trials: int) -> int:
    """The sign patterns unconditional_constant_estimate evaluates on `terms`
    terms: 2^(terms - 1) up to 12 terms, else `trials`.  Refuses no terms, no
    trials, and sign or value tables over _INDEX_BUDGET entries."""
    if terms < 1 or trials < 1:
        raise PreconditionError(f"need >= 1 terms and trials, got {terms} and {trials}")
    rows = 2 ** (terms - 1) if terms <= 12 else trials
    cells = 3 * terms - 1
    if max(rows, terms) * cells > _INDEX_BUDGET:
        raise PreconditionError(
            f"an expansion with {terms} terms, {rows} sign patterns and {cells} cells "
            f"is over the budget of {_INDEX_BUDGET} matrix entries"
        )
    return rows


def unconditional_constant_estimate(
    batch: HaarBatch,
    p: float,
    trials: int,
    seed: int = 0,
) -> float:
    """max over sign patterns theta and rows x of ||S_theta x||_p / ||x||_p.

    Supports of size <= 12 are enumerated exhaustively (the first sign is
    pinned to +1 since theta and -theta give equal norms); larger supports are
    sampled with `trials` seeded patterns, drawn whole for each row.  Always
    >= 1: the identity pattern is included; a row whose norm reads 0 is
    refused.  Norms come from (patterns x terms) @ (terms x cells) products
    on the _cut_grid cells, so they agree with expansion_norms to rounding;
    the patterns go through one tile of at most _TILE cells at a time, and
    every norm has the bits one product of all of them gives.
    sign_pattern_count sizes every row before any is evaluated.
    """
    p = _exponent(p, "p", norm=True)
    trials = int(trials)
    if not len(batch):
        raise PreconditionError("need at least one expansion")
    sizes = batch.sizes.tolist()
    counts = [sign_pattern_count(n, trials) for n in sizes]
    rng = np.random.default_rng(seed)
    best = 1.0
    for r, (n, rows) in enumerate(zip(sizes, counts)):
        a = batch.coeffs[r, :n]
        widths, values = _cut_grid(batch.keys[r : r + 1, :n], p)
        m = np.concatenate(list(values))  # (terms, cells)
        w = widths[0]
        if n > 12:
            sampled = rng.choice((1.0, -1.0), size=(rows, n))
        step = max(1, _TILE // m.shape[1])
        # a norm past the double range would make the ratios inf / inf = nan
        with np.errstate(over="ignore", invalid="ignore"):
            base = float(((np.abs(a @ m) ** p) * w).sum() ** (1.0 / p))
            if base == 0.0:  # every |cell|^p underflowed: the ratios would divide by 0
                raise PreconditionError(f"the Lp norm of an expansion at p = {p} reads 0 in double precision")
            top = 0.0
            for r0 in range(0, rows, step):
                if n <= 12:
                    # row r's signs are the bits of r < 2^(n-1): the first is always +1
                    bits = np.arange(r0, min(r0 + step, rows))[:, None] >> np.arange(n - 1, -1, -1)
                    patterns = 1.0 - 2.0 * (bits & 1)
                else:
                    patterns = sampled[r0 : r0 + step]
                signed = patterns * a
                if len(signed) == 1 < rows:
                    # numpy multiplies one row by gemv, whose sums can differ in
                    # the last bit from the gemm that multiplies the others
                    signed = np.concatenate((signed, signed))
                norms = ((np.abs(signed @ m) ** p) * w).sum(axis=1) ** (1.0 / p)
                if not (math.isfinite(base) and np.isfinite(norms).all()):
                    raise PreconditionError(
                        f"the Lp norm of a sign-flipped expansion at p = {p} overflows double precision"
                    )
                top = max(top, float(norms.max()))
        best = max(best, top / base)
    return best


# ---------------------------------------------------------------------------
# coefficient sandwich


@dataclass(frozen=True)
class SandwichRow:
    lhs: float
    mid: float
    rhs: float


@dataclass(frozen=True)
class SandwichReport:
    p: float
    rows: tuple
    lower_constant: float
    upper_constant: float


def _sandwich_rows(batch: HaarBatch, p: float) -> tuple:
    """(lhs, mid, rhs) of the coefficient sandwich at p for every row, with
    every mid from one expansion_norms call.

    mid is the exact expansion norm; for 1 < p <= 2 the flanks are the
    coefficient l2 norm (left) and lp norm (right), mirrored for p >= 2.
    The flanks' sums are taken for all the rows of a size at once, with the
    bits of numpy's sum over one expansion's terms, which padding would
    regroup; each root is a numpy scalar's, whose ** can differ in the last
    bit from numpy's array power.  lhs / mid and mid / rhs are at most
    burkholder_constant(p).  A norm that rounds to 0 or past the double
    range is refused: a nonzero expansion has three positive norms, and the
    ratios need them finite.
    """
    sizes = batch.sizes
    if not sizes.all():
        raise PreconditionError("empty expansion has no sandwich")
    mids = expansion_norms(batch, p)
    sums, rows = np.empty((len(batch), 2)), []
    with np.errstate(over="ignore"):  # a flank past the double range is refused below
        for n in np.unique(sizes).tolist():
            of_size = sizes == n
            mags = np.abs(batch.coeffs[of_size, :n])
            sums[of_size] = np.stack(((mags**2).sum(axis=1), (mags**p).sum(axis=1)), axis=1)
        for (l2_sum, lp_sum), mid in zip(sums, mids):
            l2, lp = float(np.sqrt(l2_sum)), float(lp_sum ** (1.0 / p))
            if not (0.0 < l2 < math.inf and 0.0 < mid < math.inf and 0.0 < lp < math.inf):
                raise PreconditionError(
                    f"a sandwich norm of an expansion at p = {p} is 0 or overflows double "
                    f"precision: l2 {l2}, Lp {mid}, lp {lp}"
                )
            rows.append(SandwichRow(l2, mid, lp) if p <= 2 else SandwichRow(lp, mid, l2))
    return tuple(rows)


def coefficient_sandwich_check(batch: HaarBatch, p: float) -> SandwichReport:
    """Per-row sandwich triples plus the batch-fitted constants.

    lower_constant = max(lhs/mid) and upper_constant = max(mid/rhs) are the
    smallest constants making lhs <= lower*mid and mid <= upper*rhs hold over
    the whole batch; by construction the batch itself has zero violations.
    """
    p = _exponent(p, "p")
    if not len(batch):
        raise PreconditionError("empty batch")
    rows = _sandwich_rows(batch, p)
    lower = max(r.lhs / r.mid for r in rows)
    upper = max(r.mid / r.rhs for r in rows)
    return SandwichReport(
        p=p,
        rows=rows,
        lower_constant=lower,
        upper_constant=upper,
    )


def burkholder_constant(p: float) -> float:
    """Burkholder's sharp constant max(p, q) - 1 for Haar martingale transforms
    and square functions; it bounds every sandwich ratio and the unconditional
    constant estimate."""
    return max(float(p), conjugate_exponent(p)) - 1.0


# relative slack of the sandwich and Burkholder checks, which p = 2
# (beta = 1) needs: there both bounds hold with equality
_SLACK = 1e-12


def count_sandwich_violations(
    rows: Sequence[SandwichRow],
    lower_constant: float,
    upper_constant: float,
    headroom: float = 1.0,
) -> int:
    """How many rows break lhs <= lower*mid or mid <= upper*rhs, up to _SLACK.

    `headroom` inflates both constants before checking.  Constants fitted on
    one batch and checked on another need it, and still fail for some seeds
    at 1.1; burkholder_constant(p) for both constants needs none.
    """
    bad = 0
    lo = lower_constant * headroom
    up = upper_constant * headroom
    for r in rows:
        if r.lhs > lo * r.mid * (1 + _SLACK) or r.mid > up * r.rhs * (1 + _SLACK):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# Bessel / required-constant behaviour of the truncated Haar system


@dataclass(frozen=True)
class Prop43Row:
    test_id: str
    bessel_ratio: float
    k_required: float


@dataclass(frozen=True)
class Prop43Report:
    p: float
    q: float
    cutoff: int
    bessel_exponent: float
    dual_exponent: float
    rows: tuple
    max_bessel_ratio: float
    max_k_required: float
    dual_q_norm_range: tuple
    dual_p_norm_range: tuple


def prop43_check(p: float, cutoff: int, tests: Sequence[PiecewiseFn]) -> Prop43Report:
    """Bessel ratios and required constants of the level-truncated Haar system.

    For 1 < p <= 2 the family is checked as a q-Bessel system with the dual
    inequality at exponent 2 (l2-budget completeness); for p >= 2 as a
    2-Bessel system with the dual inequality at exponent q (lp-budget).  Both
    families of ratios staying bounded over test functions is the expected
    contrast with the divergence seen for translate systems.  The dual-family
    norms are reported in both the q- and p-readings rather than assumed
    seminormalized.
    """
    exponents = ExponentPair(p)
    p, q = exponents.p, exponents.q
    tests = list(tests)
    if not tests:
        raise PreconditionError("prop43_check needs at least one test")
    ids = [f"test-{i}" for i in range(len(tests))]
    bessel_e = q if p <= 2 else 2.0
    dual_e = 2.0 if p <= 2 else q
    rows = []
    pairings = haar_pairings(tests, cutoff, p)  # one test per next(), once it is checked
    for tid, test in zip(ids, tests):
        if test.is_zero:
            raise PreconditionError(f"zero test function {tid!r}")
        if test.dimension != 1:
            raise DimensionMismatchError("Haar tests live on the line")
        sb = test.support_box
        if sb.lower[0] < 0.0 or sb.upper[0] > 1.0:
            raise PreconditionError(f"test {tid!r} must be supported in [0, 1)")
        mags = [abs(v) for v in next(pairings).values()]
        qn = lp_norm(test, q)
        if qn == 0.0:  # every |v|^q underflowed: the ratios would divide by 0
            raise PreconditionError(f"the q-norm of test {tid!r} at q = {q} reads 0 in double precision")
        bsum = sum(v**bessel_e for v in mags)
        dsum = sum(v**dual_e for v in mags)
        bratio = bsum ** (1.0 / bessel_e) / qn
        k_req = math.inf if dsum == 0.0 else qn / dsum ** (1.0 / dual_e)
        rows.append(Prop43Row(tid, bratio, k_req))
    # every offset of a level gives the same norms: the halves of level
    # j <= 20 are exactly 2^-(j+1) wide and carry +-v
    duals = [dual_fn(HaarIndex(j), p) for j in range(-1, int(cutoff))]
    qnorms = [lp_norm(g, q) for g in duals]
    pnorms = [lp_norm(g, p) for g in duals]
    return Prop43Report(
        p=p,
        q=q,
        cutoff=int(cutoff),
        bessel_exponent=bessel_e,
        dual_exponent=dual_e,
        rows=tuple(rows),
        max_bessel_ratio=max(r.bessel_ratio for r in rows),
        max_k_required=max(r.k_required for r in rows),
        dual_q_norm_range=(min(qnorms), max(qnorms)),
        dual_p_norm_range=(min(pnorms), max(pnorms)),
    )
