"""Analysis of finite unions of translate families {T_gamma f_k : gamma in Gamma_k}.

Implements the desk-scale surrogates for the structural properties of such
systems in Lp(R^d): Bessel power sums and certified lower bounds on any
Bessel constant, blowup witnesses near accumulation points, the dual
required constant for completeness with lq-controlled coefficients, the
shrinking-cube indicator sweep, localized mass, and the combined dichotomy
report.  Infinite index sets enter only through provenance-backed
truncations; every certified quantity refers to the truncation at hand.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .lpfunc import (
    Box,
    ExponentPair,
    PiecewiseFn,
    _exponent,
    _finite_power_sum,
    _first_bad_shift,
    _pairing_blocks,
    _power,
    cross_pairings,
    indicator,
    lp_norm,
    lp_norm_pow,
    pair,
    restrict,
    translate,
)
from .pointset import (
    _SITE_BUDGET,
    LatticeProvenance,
    PointSet,
    ReciprocalProvenance,
    UnionProvenance,
    _distinct_rows,
    anchored_windows,
    centred_windows,
    detect_accumulation,
    min_separation,
    nu_plus,
    _positive_run,
    union_point_sets,
)


@dataclass(frozen=True)
class Generator:
    """One (generator function, translation sites) pair of a translate system."""

    f: PiecewiseFn
    gamma: PointSet
    label: str

    def __post_init__(self):
        if self.f.is_zero:
            raise PreconditionError(f"generator {self.label!r} has a zero function")
        if self.f.dimension != self.gamma.dimension:
            raise DimensionMismatchError(
                f"generator {self.label!r}: function dimension {self.f.dimension} "
                f"!= point set dimension {self.gamma.dimension}"
            )


@dataclass(frozen=True)
class TranslateSystem:
    """Finite disjoint union of translate families; indices are tagged by generator,
    so overlapping site sets still count as distinct system elements."""

    generators: tuple
    p: ExponentPair

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise PreconditionError("a translate system needs at least one generator")
        dims = {g.f.dimension for g in gens}
        if len(dims) != 1:
            raise DimensionMismatchError(f"generators have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self) -> int:
        return self.generators[0].f.dimension


@dataclass(frozen=True)
class BesselTestRow:
    test_id: str
    bessel_sum: float
    q_norm: float
    ratio: float


@dataclass(frozen=True)
class BesselEstimate:
    p_prime: float
    per_test: tuple
    bound_estimate: float


@dataclass(frozen=True)
class BlowupWitness:
    beta: tuple
    count: int
    sum_lower_bound: float
    window_side: float
    epsilon: float
    p_prime: float


@dataclass(frozen=True)
class CqSweepRow:
    h: float
    q_norm: float
    p_power_sum: float
    k_required: Optional[float]  # None where the test annihilates the truncation
    localized_mass: float


@dataclass(frozen=True)
class CqSweep:
    rows: tuple
    verdict: str  # "divergent" | "bounded"
    growth_exponent: Optional[float]  # None, as r_squared, where an unbounded row decides
    r_squared: Optional[float]


@dataclass(frozen=True)
class FinitenessBound:
    value: float
    n_parts: int
    delta: float
    epsilon: float
    blocks_per_side: int


@dataclass(frozen=True)
class LocalizedMassReport:
    per_generator: tuple  # ((label, mass), ...)
    total: float
    finiteness_bound: Optional[FinitenessBound]


# ---------------------------------------------------------------------------
# shared internals


def _meeting_sites(gen: Generator, boxes: Sequence[Box]):
    """An iterator of (site, row) over the sites g of gen, in lexicographic
    order and as lists of floats, for which the support box of gen.f moved
    by g meets some box; row[k] tells whether it meets boxes[k]."""
    gamma, f_box = gen.gamma, gen.f.support_box
    sites = gamma.as_array[gamma.order]
    lower = np.array([b.lower for b in boxes]).reshape(-1, 1, gamma.dimension)
    upper = np.array([b.upper for b in boxes]).reshape(-1, 1, gamma.dimension)
    meets = ((np.array(f_box.lower) + sites < upper) & (np.array(f_box.upper) + sites > lower)).all(axis=2)
    hit = meets.any(axis=0)
    return zip(sites[hit].tolist(), meets[:, hit].T.tolist())


def _system_power_sums(sys: TranslateSystem, tests: Sequence[PiecewiseFn], exponent: float) -> list:
    """[sum_k sum_gamma |<t, T_gamma f_k>|^exponent for t in tests], over the
    sites whose translated support meets the support of t; tests are nonzero.

    Equal tests are summed once; equality compares pieces in order, so a
    translate whose pieces left lexicographic order and its re-sorted copy
    are summed apart, each in its own order.  Each site that some test meets
    is translated once, and paired with each test that meets it; every sum
    adds its terms generator by generator, sites in lexicographic order, as
    a loop over one test's sites would, so each sum keeps that loop's bits.
    """
    distinct = list(dict.fromkeys(tests))
    boxes = [t.support_box for t in distinct]
    totals = [0.0] * len(distinct)
    for gen in sys.generators:
        for site, row in _meeting_sites(gen, boxes):
            moved = translate(gen.f, site)
            for k in itertools.compress(range(len(distinct)), row):
                v = pair(distinct[k], moved)
                if v != 0:
                    try:
                        totals[k] += abs(v) ** exponent
                    except OverflowError:
                        totals[k] = math.inf
    sums = {
        t: _finite_power_sum(total, f"the power sum at exponent {exponent}")
        for t, total in zip(distinct, totals)
    }
    return [sums[t] for t in tests]


# ---------------------------------------------------------------------------
# Bessel side


def bessel_sum(sys: TranslateSystem, h: PiecewiseFn, p_prime: float) -> float:
    """Power sum sum_k sum_gamma |<h, T_gamma f_k>|^{p_prime} over the truncation."""
    if h.is_zero:
        raise PreconditionError("bessel_sum needs a nonzero test function")
    p_prime = _exponent(p_prime, "p_prime")
    if h.dimension != sys.dimension:
        raise DimensionMismatchError("test function dimension does not match the system")
    return _system_power_sums(sys, [h], p_prime)[0]


def _q_norm(t: PiecewiseFn, q: float, p_prime: float, tid: str):
    """(||t||_q, ||t||_q ** p_prime), the latter the divisor of t's Bessel
    ratio, refused where it is past the double range or reads 0; or the
    PreconditionError with which lp_norm refuses ||t||_q itself."""
    try:
        qn = lp_norm(t, q)
    except PreconditionError as exc:
        return exc
    power = _power(qn, p_prime)
    if not 0.0 < power < math.inf:
        raise PreconditionError(
            f"the q-norm of test {tid!r} to the power p_prime = {p_prime} reads {power} "
            "in double precision"
        )
    return qn, power


def bessel_bound_estimate(
    sys: TranslateSystem,
    tests: Sequence[PiecewiseFn],
    p_prime: float,
    labels: Optional[Sequence[str]] = None,
) -> BesselEstimate:
    """Certified lower bound on any valid Bessel constant for the truncation.

    Each test h contributes bessel_sum(h) / ||h||_q^{p_prime}; any constant B
    satisfying the upper inequality on this truncation must dominate every
    ratio, so the max is a lower bound on B -- never an upper bound.
    """
    tests = list(tests)
    if not tests:
        raise PreconditionError("bessel_bound_estimate needs at least one test")
    ids = list(labels) if labels is not None else [f"test-{i}" for i in range(len(tests))]
    if len(ids) != len(tests):
        raise PreconditionError("labels must match tests one to one")
    # every refusal before any sum, but for a q-norm past the double range,
    # which follows the sums, so that an overflowing power sum is named first
    p_prime = _exponent(p_prime, "p_prime")
    for tid, t in zip(ids, tests):
        if t.is_zero:
            raise PreconditionError(f"zero test function {tid!r}")
        if t.dimension != sys.dimension:
            raise DimensionMismatchError("test function dimension does not match the system")
    norms = [_q_norm(t, sys.p.q, p_prime, tid) for tid, t in zip(ids, tests)]
    rows = []
    for tid, s, norm in zip(ids, _system_power_sums(sys, tests, p_prime), norms):
        if isinstance(norm, PreconditionError):
            raise norm
        qn, power = norm
        ratio = _finite_power_sum(s / power, f"the Bessel ratio of test {tid!r}")
        rows.append(BesselTestRow(tid, s, qn, ratio))
    return BesselEstimate(
        p_prime=p_prime,
        per_test=tuple(rows),
        bound_estimate=max(r.ratio for r in rows),
    )


# keys per kernel call in the witness's epsilon-grid scan, which stops at the
# first batch holding a failing key
_GRID_BATCH = 1024

# window centres the witness tries from each family of candidates
_MAX_CANDIDATES = 512

# (centre, site, piece pair) terms in one block of the witness's centre scan
_TILE = 1 << 11


def _exceeds(planes, epsilon: float) -> np.ndarray:
    # |v| > epsilon as Python's abs decides it, for the values v whose real
    # and imaginary parts are planes[0] and planes[1]: np.hypot can differ
    # from abs() in the last bit, so moduli near epsilon are redone
    re, im = planes
    mod = np.hypot(re, im)
    out = mod > epsilon
    mod -= epsilon
    np.abs(mod, out=mod)
    for k in np.flatnonzero(mod <= 1e-12 * epsilon):
        out.flat[k] = abs(complex(re.flat[k], im.flat[k])) > epsilon
    return out


# the unit roundoff of a double
_U = 2.0**-53


def _count_spans(f: PiecewiseFn, f_dual: PiecewiseFn, gamma: PointSet, centres, epsilon: float):
    """(lo, hi): for each row c of centres, an interval [lo, hi] of axis-0
    coordinates that holds every site s at which the kernel reads
    |<T_s f, T_c f_dual>| above epsilon; None where no bound is sound.

    The pieces are disjoint, so |<T_s f, T_c g>| <= max|f| max|g| times the
    volume where the two translated support boxes meet, which is at most
    ov0(s, c) * prod_{k >= 1} min(width_k f, width_k g), ov0 the overlap of
    the axis-0 support intervals.  A site counts only if ov0 > tau =
    epsilon / (scale (1 + slack)), scale = max|f| max|g| prod_{k >= 1}
    min(width_k): ov0 > tau puts s0 in (c0 + g.lower0 - f.upper0 + tau,
    c0 + g.upper0 - f.lower0 - tau).  What the kernel rounds is covered:
    - translated corners: a + s rounds by at most u |a + s| (u = 2^-53,
      with no underflow in a sum), and monotonely, so the moved pieces
      stay disjoint inside the moved support box.  On axes k >= 1 this
      grows a width by at most 2u (max|corner_k| + max|s_k|), taken with
      4u below; on axis 0 `reach` widens the interval by 32u times the
      magnitudes involved, which also covers the rounding of the interval
      ends and of tau, plus 2^-1070 for a tau or reach past underflow.
    - the widths, the volume and the products: about 2d + 4 roundings of a
      term, each by at most u relative.
    - the sequential sum of at most P = P_f P_g terms: a relative error of
      at most 2 P u, for P up to 2^40, which is past any input the budgets
      admit (two sampled catalog functions of 2^20 cells each).
    - the modulus: np.hypot and abs() err by at most an ulp.
    slack = 4 (P + 4d + 16) u holds all of this with a factor of 2 to
    spare, and the rounding of scale itself, whose partial products are
    required to stay normal.  A product that underflows errs by up to
    2^-1075 absolutely, which the slack covers only while epsilon is far
    above P (2d + 6) times the largest product a term can form: below that
    floor there is no bound, nor where scale reads 0, inf or nan, or where a
    term could reach 2^1000 (the kernel's products could overflow).
    """
    d = f.dimension
    pairs = len(f.pieces) * len(f_dual.pieces)
    if pairs > 1 << 40:
        return None
    fb, gb = f.support_box, f_dual.support_box
    site_mag = np.abs(gamma.as_array).max(axis=0).tolist()
    centre_mag = np.abs(centres).max(axis=0).tolist()

    def widths(box, mag):
        # each width of box moved by a shift of at most mag per axis, rounded
        return [
            b - a + 4 * _U * (max(abs(a), abs(b)) + m) for a, b, m in zip(box.lower, box.upper, mag)
        ]

    w = list(map(min, widths(fb, site_mag), widths(gb, centre_mag)))
    m_fg = [max(abs(v) for _, v in fn.pieces) for fn in (f, f_dual)]
    with np.errstate(over="ignore"):  # a product past the double range fails the test below
        partial = np.cumprod(m_fg + w[1:] + w[:1])
    scale = partial[-2]
    largest = max(1.0, m_fg[0] * m_fg[1]) * math.prod(max(1.0, x) for x in w)
    floor = 2.0**-1000 * pairs * (2 * d + 6) * largest
    if not (partial.min() >= 2.0**-1022 and partial.max() < 2.0**1000 and epsilon > floor):
        return None
    tau = epsilon / (scale * (1.0 + 4 * (pairs + 4 * d + 16) * _U))
    magnitudes = max(map(abs, (fb.lower[0], fb.upper[0]))) + max(map(abs, (gb.lower[0], gb.upper[0])))
    reach = 32 * _U * (magnitudes + site_mag[0] + centre_mag[0] + tau) + 2.0**-1070
    below = gb.lower[0] - fb.upper[0] + tau - reach
    above = gb.upper[0] - fb.lower[0] - tau + reach
    if not (math.isfinite(below) and math.isfinite(above)):
        return None
    return centres[:, 0] + below, centres[:, 0] + above


def _count_bounds(f: PiecewiseFn, f_dual: PiecewiseFn, gamma: PointSet, centres, epsilon: float):
    """For each row c of centres, an upper bound on the number of sites s at
    which the kernel reads |<T_s f, T_c f_dual>| above epsilon: the sites
    in c's span from _count_spans, or all of them where it has none.
    epsilon < |<f, f_dual>| keeps each span's ends in order, so no bound
    is negative."""
    spans = _count_spans(f, f_dual, gamma, centres, epsilon)
    if spans is None:
        return np.full(len(centres), len(gamma))
    x = gamma.as_array[gamma.order, 0]
    return np.searchsorted(x, spans[1], side="right") - np.searchsorted(x, spans[0], side="left")


def _window_center_candidates(gamma: PointSet, h: float, limit: int) -> np.ndarray:
    """Candidate centers beta for side-h windows, a (k, d) array: the top
    `limit` windows with lower faces anchored at site coordinates (the
    sliding-window maximizers, beta = anchor + h/2 per axis), then the top
    `limit` windows centered on sites (the degenerate witness beta = gamma),
    each ranked by count, and each centre once (-0.0 equals 0.0)."""
    anchored, _ = anchored_windows(gamma, h, limit)
    centred, _ = centred_windows(gamma, h, limit)
    rows = np.concatenate((anchored, centred))
    return rows[np.sort(_distinct_rows(rows))]


def _window_side(f: PiecewiseFn, f_dual: PiecewiseFn, epsilon: float) -> float:
    """The side of the largest window of the epsilon-grid around 0 on which
    |<T_x f, f_dual>| stays above epsilon at every key x: the grid's step is a
    quarter of the least piece side, and a grid of more than _SITE_BUDGET
    keys is refused before any key is built."""
    d = f.dimension
    step = min(f.min_piece_side, f_dual.min_piece_side) / 4.0
    fb, db = f.support_box, f_dual.support_box
    reach = max(
        max(abs(db.lower[j] - fb.upper[j]), abs(db.upper[j] - fb.lower[j]))
        for j in range(d)
    )
    # the grid of keys k in [-kmax, kmax)^d, refused before any key is built
    # if it holds more than _SITE_BUDGET keys; a step that reads 0 and a
    # reach / step past the double range read as an infinite span
    span = reach / step if step > 0 else math.inf
    kmax = max(1, math.ceil(span)) if span <= _SITE_BUDGET else _SITE_BUDGET
    if (2 * kmax) ** d > _SITE_BUDGET:
        raise PreconditionError(
            f"the epsilon-grid of step {step} over the reach {reach} in dimension {d} "
            f"holds more than {_SITE_BUDGET} keys"
        )
    # the window of side m holds the keys in [-(m // 2), m - m // 2)^d, and key
    # k first enters it at m = ring(k) = max_j max(2 k_j + 1, -2 k_j).  The
    # windows are nested, so the side is one below the least ring of a key
    # whose pairing fails |.| > epsilon; the keys are paired in ring order,
    # a batch at a time, up to the first batch holding such a key
    axis = np.arange(-kmax, kmax, dtype=np.int32)  # rings are at most 2^20: half the scratch
    rings = np.maximum(2 * axis + 1, -2 * axis)
    table = rings
    for _ in range(d - 1):
        table = np.maximum.outer(table, rings)
    order = np.argsort(table, axis=None)
    side = 2 * kmax
    for b0 in range(0, order.size, _GRID_BATCH):
        flat = order[b0 : b0 + _GRID_BATCH]
        keys = np.stack(np.unravel_index(flat, table.shape), axis=-1) - kmax
        v = cross_pairings(f, f_dual, keys * step)
        failed = ~_exceeds((v.real, v.imag), epsilon)
        if failed.any():
            side = int(table.flat[flat[failed.argmax()]]) - 1
            break
    return side * step


def blowup_witness(
    f: PiecewiseFn,
    f_dual: PiecewiseFn,
    gamma: PointSet,
    epsilon: float,
    p_prime: float,
    *,
    window_side: Optional[float] = None,
) -> BlowupWitness:
    """Certified mass witness: a center beta and the number of sites gamma with
    |<T_gamma f, T_beta f_dual>| > epsilon, all verified by exact pairing
    (cross_pairings, which reproduces the scalar pair bit for bit).

    The pairing x -> <T_x f, f_dual> is continuous and piecewise multilinear,
    so a grid with step a quarter of the minimal piece side locates a cube
    around 0 on which its modulus stays above epsilon (a grid of more than
    _SITE_BUDGET keys is refused); window centers are then
    drawn from the densest site clusters (the sliding-window anchors) and the
    best candidate is returned.  Candidates are scored in decreasing order of
    a closed-form bound on their counts (_count_bounds), and the scan stops
    once no candidate left can beat the best count.  count *
    epsilon^{p_prime} is a lower bound on the Bessel power sum at the test
    T_beta f_dual.

    The cube's side depends on f, f_dual and epsilon only, not on the sites:
    `window_side`, when given, is a side an earlier call returned for the
    same three, and the grid is not scanned again.
    """
    epsilon = float(epsilon)
    p_prime = _exponent(p_prime, "p_prime")
    if f.dimension != f_dual.dimension or f.dimension != gamma.dimension:
        raise DimensionMismatchError("f, f_dual and gamma must share a dimension")
    try:
        base = abs(pair(f, f_dual))
    except OverflowError:  # finite parts whose modulus is past the double range
        base = math.inf
    if base == 0:
        raise PreconditionError("blowup witness needs <f, f_dual> != 0")
    if not math.isfinite(base):
        raise PreconditionError(f"|<f, f_dual>| reads {base} in double precision")
    if not (0 < epsilon < base):
        raise PreconditionError(
            f"epsilon must satisfy 0 < epsilon < |<f, f_dual>| = {base}, got {epsilon}"
        )
    if not len(gamma):
        raise PreconditionError("blowup witness needs a nonempty site set")
    eps_power = _finite_power_sum(_power(epsilon, p_prime), f"epsilon ** p_prime at p_prime = {p_prime}")
    h = _window_side(f, f_dual, epsilon) if window_side is None else window_side

    centres = _window_center_candidates(gamma, h, _MAX_CANDIDATES)
    bad = _first_bad_shift(f_dual, centres)  # what translate refuses, named here
    if bad is not None:
        raise PreconditionError(
            f"the witness window of side {h} centred at {tuple(centres[bad].tolist())} "
            "moves a piece of f_dual past the double range or collapses it"
        )
    m = len(centres)
    # centres in a stable order of decreasing count bound: key -bound * m + j
    # for candidate j, so equal bounds keep candidate order
    keys = np.sort(_count_bounds(f, f_dual, gamma, centres, epsilon) * -m + np.arange(m))
    centres = centres[keys % m]
    # the first centre in candidate order with the largest count, as the
    # scalar scan kept it: candidate `best`, at position `at` of the keys
    at, best, count = 0, m, -1
    # one set-up for every centre; a run's counts are complete at its last
    # row tile, and the scan stops before a run whose first key exceeds
    # best - count * m: a bound below count, or equal to it past `best`
    n = len(gamma)
    _, blocks = _pairing_blocks(f, f_dual, gamma.as_array, centres, _TILE)
    for cols, rows, planes in blocks:
        hits = _exceeds(planes, epsilon).sum(axis=1)
        counts = hits if rows.start == 0 else counts + hits
        if rows.stop < n:
            continue
        for k, c in enumerate(counts.tolist(), cols.start):
            if c >= count and (c > count or keys[k] % m < best):
                at, best, count = k, int(keys[k] % m), c
        if cols.stop < m and keys[cols.stop] > best - count * m:
            break
    return BlowupWitness(
        beta=tuple(centres[at].tolist()),
        count=count,
        sum_lower_bound=count * eps_power,
        window_side=h,
        epsilon=epsilon,
        p_prime=p_prime,
    )


# ---------------------------------------------------------------------------
# dual (completeness) side


def _required(sys: TranslateSystem, test: PiecewiseFn) -> tuple:
    """(||test||_q, power sum at p, K_required = ||test||_q / sum^{1/p}) for
    a nonzero test; K_required is +inf where the test annihilates the
    truncation.  A q-norm that reads 0, and a K_required that reads inf
    because the quotient overflowed or a nonzero term of the sum underflowed,
    are refused."""
    p = sys.p.p
    qn = lp_norm(test, sys.p.q)
    if qn == 0.0:
        raise PreconditionError("the q-norm of the test reads 0.0 in double precision")
    psum = _system_power_sums(sys, [test], p)[0]
    k_req = qn / psum ** (1.0 / p) if psum else math.inf
    if k_req == math.inf and (psum or _underflowed(sys, test)):
        raise PreconditionError(
            f"the required constant at p = {p} reads inf in double precision, "
            "though the test does not annihilate the truncation"
        )
    return qn, psum, k_req


def _underflowed(sys: TranslateSystem, test: PiecewiseFn) -> bool:
    """Whether a power sum over the test that reads 0 lost a nonzero term:
    a pairing that is not 0, or a term of a pairing whose boxes overlap but
    whose product vh * conj(vf) * vol, formed as pair forms it, reads 0."""
    for gen in sys.generators:
        for site, _ in _meeting_sites(gen, [test.support_box]):
            moved = translate(gen.f, site)
            if pair(test, moved) != 0 or any(
                tb.intersection(fb) and not tv * fv.conjugate() * tb.overlap_volume(fb)
                for tb, tv in test.pieces
                for fb, fv in moved.pieces
            ):
                return True
    return False


def _reach_check_set(gamma: PointSet, f_box: Box, test_box: Box) -> None:
    prov = gamma.provenance
    if prov is None:
        return  # explicit sets are taken as exact, not as truncations
    if isinstance(prov, UnionProvenance):
        for _, member in prov.members:
            _reach_check_set(member, f_box, test_box)
        return
    lo = [test_box.lower[j] - f_box.upper[j] for j in range(test_box.dim)]
    hi = [test_box.upper[j] - f_box.lower[j] for j in range(test_box.dim)]
    if isinstance(prov, LatticeProvenance):
        needed = max(max(abs(a), abs(b)) for a, b in zip(lo, hi))
        if needed > prov.window:
            raise PreconditionError(
                f"truncation too small: test support reaches translations up to {needed} "
                f"but the lattice window is {prov.window}"
            )
        return
    if isinstance(prov, ReciprocalProvenance):
        # omitted sites fill (0, 1/count)
        if lo[0] < 1.0 / prov.count and hi[0] > 0.0:
            raise PreconditionError(
                "truncation too small: the reciprocal family omits sites inside "
                f"(0, {1.0 / prov.count}) that the test support can reach"
            )
        return


def system_localized_mass(sys: TranslateSystem, region: Box, p: float) -> float:
    """sum_k sum_gamma ||restrict(T_gamma f_k, region)||_p^p."""
    total = 0.0
    for gen in sys.generators:
        total += _generator_mass(gen, region, p)
    return _finite_power_sum(total, f"the localized mass at p = {p}")


def _generator_mass(gen: Generator, region: Box, p: float) -> float:
    if gen.f.dimension != region.dim:
        raise DimensionMismatchError("cube dimension does not match the generator")
    p = _exponent(p, "p", norm=True)  # before the walk, which may meet no site
    total = 0.0
    for site, _ in _meeting_sites(gen, [region]):
        total += lp_norm_pow(restrict(translate(gen.f, site), region), p)
    return _finite_power_sum(total, f"the localized mass at p = {p}")


def cq_indicator_sweep(sys: TranslateSystem, h_values: Sequence[float]) -> CqSweep:
    """Required-constant sweep against the shrinking indicators chi_{Q_2h}.

    Each row records the q-norm of the indicator, the p-power pairing sum,
    K_required = q_norm / sum^{1/p} and the localized-mass column that
    dominates the sum via Holder.  The verdict is "divergent" when log
    K_required against log(1/h), fitted over the smallest half of the h
    values but never fewer than two, has a positive slope with R^2 > 0.99
    (slopes below 1e-9 count as flat).  A row with a zero power sum makes the
    required constant literally unbounded: its K_required is None, and in
    the fitted rows it forces the divergent verdict with no slope or R^2.  A
    required constant that reads inf or 0 only by rounding is refused.
    """
    hs = _positive_run(h_values, "h_values", 2, increasing=False)
    p = sys.p.p
    d = sys.dimension
    rows = []
    for h in hs:
        test = indicator(Box.cube((0.0,) * d, 2.0 * h))
        for gen in sys.generators:
            _reach_check_set(gen.gamma, gen.f.support_box, test.support_box)
        qn, psum, k_req = _required(sys, test)
        mass = system_localized_mass(sys, test.support_box, p)
        rows.append(CqSweepRow(h, qn, psum, k_req if psum else None, mass))
    tail = rows[-max(2, (len(rows) + 1) // 2) :]
    if any(r.k_required is None for r in tail):
        verdict, slope, r2 = "divergent", None, None
    else:
        xs = np.log([1.0 / r.h for r in tail])
        ys = np.log([r.k_required for r in tail])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
        slope = float(slope)
        verdict = "divergent" if (slope > 1e-9 and r2 > 0.99) else "bounded"
    return CqSweep(rows=tuple(rows), verdict=verdict, growth_exponent=slope, r_squared=r2)


# ---------------------------------------------------------------------------
# localized mass


def localized_mass(gen: Generator, region: Box, p: float) -> LocalizedMassReport:
    """Exact localized mass sum_gamma ||restrict(T_gamma f, region)||_p^p.

    When the truncation has at least two sites the report carries the
    enclosing-block finiteness bound n (2N)^d ||f||_p^p computed from the
    truncation's separation constant: the mass can never exceed it, and the
    bound blowing up as separation degrades is exactly the failure signal.
    A separation that reads 0 or inf and a bound past the double range are
    refused.
    """
    p = float(p)
    mass = _generator_mass(gen, region, p)
    bound = None
    if len(gen.gamma) >= 2:
        d = region.dim
        delta = min_separation(gen.gamma)
        eps = delta / (2.0 * math.sqrt(d))
        if not 0.0 < eps < math.inf:  # a squared gap under- or overflowed
            raise PreconditionError(
                f"the separation of the sites of {gen.label!r} reads {delta} in double "
                "precision, so the finiteness bound has no block size"
            )
        # the box's farthest coordinate from 0; for Box.cube(c, side) it is
        # |c| + side/2 bit for bit, since rounding is monotone and symmetric
        reach = max(max(-a, b) for a, b in zip(region.lower, region.upper))
        try:
            blocks = max(1, int(math.ceil(reach / eps)))
            value = (2.0 * blocks) ** d * lp_norm_pow(gen.f, p)
        except OverflowError:  # an infinite block count, or its d-th power
            value = math.inf
        value = _finite_power_sum(value, f"the finiteness bound at p = {p}")
        bound = FinitenessBound(
            value=value, n_parts=1, delta=delta, epsilon=eps, blocks_per_side=blocks
        )
    return LocalizedMassReport(
        per_generator=((gen.label, mass),),
        total=mass,
        finiteness_bound=bound,
    )


def mass_decay_sweep(gen: Generator, x: Sequence[float], h_values: Sequence[float], p: float) -> tuple:
    """Masses at the nested cubes Q_h(x) for decreasing h; nonincreasing by nesting."""
    hs = _positive_run(h_values, "h_values", 1, increasing=False)
    out = []
    for h in hs:
        out.append((h, _generator_mass(gen, Box.cube(x, h), p)))
    return tuple(out)


# ---------------------------------------------------------------------------
# dichotomy report


@dataclass(frozen=True)
class DichotomyConfig:
    truncation_radii: tuple
    sweep_h_values: tuple
    p_prime: float
    bessel_tests: Optional[tuple] = None
    accumulation_radius: float = 0.05
    accumulation_threshold: int = 10
    epsilon_fraction: float = 0.5
    bessel_variation_tol: float = 0.10
    subadditivity_h_values: tuple = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class BesselGrowthRow:
    radius: float
    bound_estimate: float
    witness_count: Optional[int]
    witness_bound: Optional[float]


@dataclass(frozen=True)
class SubadditivityRow:
    h: float
    union_count: int
    parts_sum: int
    holds: bool


# side of the cube in which the dichotomy's density rows count union sites
_DENSITY_H = 1.0


@dataclass(frozen=True)
class DensityGrowthRow:
    radius: float
    total_sites: int
    nu_plus_at_h: int


@dataclass(frozen=True)
class DichotomyReport:
    p: float
    q: float
    p_prime: float
    bessel_rows: tuple
    bessel_variation: float
    bessel_bounded: bool
    accumulation_detected: bool
    cq_sweep: Optional[CqSweep]
    cq_failure: Optional[str]
    cq_bounded: Optional[bool]
    subadditivity_rows: tuple
    subadditivity_holds: bool
    density_rows: tuple
    horn: str
    dichotomy_holds: bool


def _regenerated(gamma: PointSet, param):
    prov = gamma.provenance
    if prov is None:
        raise PreconditionError(
            "growth study requires generator-backed point sets with regenerable provenance"
        )
    return prov.regenerate(param)


def dichotomy_report(sys: TranslateSystem, config: DichotomyConfig) -> DichotomyReport:
    """Run the two-horn experiment: Bessel growth across truncations versus the
    shrinking-indicator required constant, plus the union counting inequality.

    The verdict is that at least one horn diverges -- the Bessel ratios grow
    across the top truncations, or K_required diverges as h -> 0 (a sweep
    blocked by its reach check leaves that horn undetermined).  Reports which
    horn holds; asserting both bounded is the contradiction the experiment is
    built to rule out.
    """
    radii = _positive_run(config.truncation_radii, "truncation radii", 2, increasing=True)
    # checked here, so that a malformed run is refused, not kept as cq_failure
    sweep_hs = _positive_run(config.sweep_h_values, "h_values", 2, increasing=False)
    sub_hs = _positive_run(config.subadditivity_h_values, "subadditivity_h_values", 0)
    p_prime = _exponent(config.p_prime, "p_prime")
    tol = float(config.bessel_variation_tol)
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"bessel_variation_tol must be positive and finite, got {tol}")
    if not 0 < float(config.epsilon_fraction) < 1:
        raise PreconditionError(f"epsilon_fraction must lie in (0, 1), got {config.epsilon_fraction}")

    base_tests = list(config.bessel_tests) if config.bessel_tests else [
        g.f for g in sys.generators
    ]
    base_labels = (
        [f"config-{i}" for i in range(len(base_tests))]
        if config.bessel_tests
        else [f"gen:{g.label}" for g in sys.generators]
    )

    bessel_rows = []
    density_rows = []
    accumulation_any = False
    sys_r = None
    # each generator's witness window side: its epsilon-grid is scanned at
    # the first truncation that needs a witness, and the side kept
    sides = {}
    for radius in radii:
        gens_r = tuple(
            Generator(g.f, _regenerated(g.gamma, radius), g.label) for g in sys.generators
        )
        sys_r = TranslateSystem(gens_r, sys.p)
        tests = list(base_tests)
        labels = list(base_labels)
        wit_count = None
        wit_bound = None
        for i, gen in enumerate(gens_r):
            acc = detect_accumulation(
                gen.gamma, config.accumulation_radius, config.accumulation_threshold
            )
            if not acc:
                continue
            accumulation_any = True
            self_pairing = abs(pair(gen.f, gen.f))
            witness = blowup_witness(
                gen.f,
                gen.f,
                gen.gamma,
                config.epsilon_fraction * self_pairing,
                p_prime,
                window_side=sides.get(i),
            )
            sides[i] = witness.window_side
            tests.append(translate(gen.f, witness.beta))
            labels.append(f"witness:{gen.label}@{radius:g}")
            if wit_count is None or witness.count > wit_count:
                wit_count = witness.count
                wit_bound = witness.sum_lower_bound
        est = bessel_bound_estimate(sys_r, tests, p_prime, labels=labels)
        bessel_rows.append(
            BesselGrowthRow(
                radius=radius,
                bound_estimate=est.bound_estimate,
                witness_count=wit_count,
                witness_bound=wit_bound,
            )
        )
        union_r = union_point_sets([(g.label, g.gamma) for g in gens_r])
        density_rows.append(
            DensityGrowthRow(
                radius=radius,
                total_sites=sum(len(g.gamma) for g in gens_r),
                nu_plus_at_h=nu_plus(union_r, _DENSITY_H).lower,
            )
        )

    b_prev, b_last = bessel_rows[-2].bound_estimate, bessel_rows[-1].bound_estimate
    top = max(abs(b_prev), abs(b_last))
    variation = 0.0 if top == 0.0 else abs(b_last - b_prev) / top
    bessel_bounded = variation < tol

    cq_sweep_result = None
    cq_failure = None
    cq_bounded: Optional[bool] = None
    try:
        cq_sweep_result = cq_indicator_sweep(sys_r, sweep_hs)
        cq_bounded = cq_sweep_result.verdict == "bounded"
    except PreconditionError as exc:
        cq_failure = str(exc)

    # eq-style union subadditivity rows at the largest truncation
    parts = None
    union = None
    if len(sys_r.generators) >= 2:
        parts = [(g.label, g.gamma) for g in sys_r.generators]
        union = union_r  # the last radius's union of the same sets
    elif isinstance(sys_r.generators[0].gamma.provenance, UnionProvenance):
        parts = list(sys_r.generators[0].gamma.provenance.members)
        union = sys_r.generators[0].gamma
    sub_rows = []
    if parts is not None:
        for h in sub_hs:
            u = nu_plus(union, h)
            s = sum(nu_plus(member, h).upper for _, member in parts)
            sub_rows.append(SubadditivityRow(h, u.lower, s, u.lower <= s))
    subadditivity_holds = all(r.holds for r in sub_rows)

    bessel_div = not bessel_bounded
    cq_div = cq_bounded is False
    if bessel_div and cq_div:
        horn = "both_divergent"
    elif bessel_div:
        horn = "bessel_divergent"
    elif cq_div:
        horn = "cq_divergent"
    else:
        horn = "none"

    return DichotomyReport(
        p=sys.p.p,
        q=sys.p.q,
        p_prime=p_prime,
        bessel_rows=tuple(bessel_rows),
        bessel_variation=variation,
        bessel_bounded=bessel_bounded,
        accumulation_detected=accumulation_any,
        cq_sweep=cq_sweep_result,
        cq_failure=cq_failure,
        cq_bounded=cq_bounded,
        subadditivity_rows=tuple(sub_rows),
        subadditivity_holds=subadditivity_holds,
        density_rows=tuple(density_rows),
        horn=horn,
        dichotomy_holds=bessel_div or cq_div,
    )
