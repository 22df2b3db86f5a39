"""Geometry of point sequences in R^d.

Separation structure, half-open cube counting, sliding-window maxima and
finite-window density profiles for finite point sets, together with the
generator descriptors (lattices, reciprocal families, tagged unions) that
back truncation growth studies.

All coordinates are double precision and every membership test is an exact
half-open comparison (no epsilon), so counts are deterministic.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError


# ---------------------------------------------------------------------------
# provenance descriptors


@dataclass(frozen=True)
class LatticeProvenance:
    """Truncation of a (possibly shifted) lattice: points B·n + offset (or
    a·n + offset) with every |coord| <= window."""

    window: float
    dimension: int
    spacing: Optional[float] = None
    basis: Optional[tuple] = None  # tuple of d basis vectors (row tuples)
    offset: Optional[tuple] = None

    truncated_family = True

    @property
    def window_extent(self) -> float:
        # full side of the populated region [-window, window]^d
        return 2.0 * self.window

    def regenerate(self, window: float) -> "PointSet":
        if self.spacing is not None:
            return make_lattice(self.spacing, window, self.dimension, offset=self.offset)
        return make_lattice_basis(self.basis, window, offset=self.offset)


@dataclass(frozen=True)
class ReciprocalProvenance:
    """Truncation {1/n : 1 <= n <= count} of the reciprocal family in R."""

    count: int

    truncated_family = True
    # the omitted tail lives inside (0, 1/count); the outer hull [0, 1] is complete
    window_extent = None

    def regenerate(self, count) -> "PointSet":
        return make_reciprocal(count)


@dataclass(frozen=True)
class UnionProvenance:
    """Tagged finite union of sub-sets (the disjoint-union index structure)."""

    members: tuple  # ((label, PointSet), ...)

    @property
    def truncated_family(self) -> bool:
        return any(
            m.provenance is not None and m.provenance.truncated_family for _, m in self.members
        )

    @property
    def window_extent(self):
        extents = [
            m.provenance.window_extent
            for _, m in self.members
            if m.provenance is not None and m.provenance.window_extent is not None
        ]
        return min(extents) if extents else None

    def regenerate(self, param) -> "PointSet":
        regrown = []
        for label, member in self.members:
            if member.provenance is not None:
                regrown.append((label, member.provenance.regenerate(param)))
            else:
                regrown.append((label, member))  # explicit members stay fixed
        return union_point_sets(regrown)


class PointSet:
    """Finite list of distinct points of a common dimension.

    `points` is an (n, d) array or a nonempty sequence of coordinate
    sequences; the empty set of dimension d is the (0, d) array.  The
    sites are kept as one read-only float64 array, `as_array`, in input
    order; `order` is their lexicographic order, and `points` gives the rows
    as tuples of floats, built from the array when first read.
    Duplicates are rejected at construction: a repeated point would force the
    separation constant to 0 and make local counts multiset-dependent.
    """

    def __init__(self, points, provenance=None):
        if isinstance(points, np.ndarray):
            arr = np.array(points, dtype=float)
        else:
            rows = [tuple(p) for p in points]
            dims = sorted({len(r) for r in rows})
            if len(dims) > 1:
                raise DimensionMismatchError(f"mixed point dimensions {dims}")
            if not rows:
                raise PreconditionError("a point set given as rows needs at least one row")
            arr = np.array(rows, dtype=float)
        dim = arr.shape[1]
        if dim == 0:
            raise PreconditionError("a point needs at least one coordinate")
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            bad = tuple(arr[np.argmin(finite)].tolist())
            raise PreconditionError(f"point coordinates must be finite, got {bad}")
        order = np.lexsort(arr.T[::-1])
        ranked = arr[order]
        repeats = (ranked[1:] == ranked[:-1]).all(axis=1)
        if repeats.any():
            # the first position that repeats an earlier point, and that point
            i = int(order[1:][repeats].min())
            first = int(np.argmax((arr == arr[i]).all(axis=1)))
            raise PreconditionError(
                f"duplicate point {tuple(arr[i].tolist())} at positions {first} and {i}"
            )
        arr.flags.writeable = False
        order.flags.writeable = False
        self.as_array = arr
        self.order = order
        self.provenance = provenance
        self.dimension = dim

    @cached_property
    def points(self) -> tuple:
        return tuple(map(tuple, self.as_array.tolist()))

    def __len__(self):
        return len(self.as_array)


# most index vectors a lattice constructor may enumerate: a 2-d lattice of
# 14,641 sites (window 60) needs 15,129, and a 2-d basis lattice at the
# budget peaks near 100 MB while it is built
_SITE_BUDGET = 1 << 20


def _index_bounds(reaches: Sequence[float]) -> list:
    """Bounds b_i = ceil(r_i) + 1 of the lattice index box prod [-b_i, b_i],
    refused before anything is built when the box holds more than
    _SITE_BUDGET index vectors."""
    bounds = [math.ceil(r) + 1 if math.isfinite(r) else math.inf for r in reaches]
    size = math.prod(2 * b + 1 for b in bounds)
    if size > _SITE_BUDGET:
        raise PreconditionError(
            f"the lattice needs {size} index vectors, above the site budget of {_SITE_BUDGET}"
        )
    return bounds


def _index_box(axes) -> np.ndarray:
    """Rows of the product of the 1-d `axes`, the first axis varying slowest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def make_lattice(
    spacing: float, window: float, dimension: int = 1, offset: Optional[Sequence[float]] = None
) -> PointSet:
    """All points of spacing*Z^d + offset whose coordinates satisfy |x_i| <= window."""
    spacing = float(spacing)
    window = float(window)
    if spacing <= 0 or window <= 0:
        raise PreconditionError("lattice spacing and window must be positive")
    # each axis takes 5 index values at the least, so past 21 axes the budget is exceeded
    top = _SITE_BUDGET.bit_length()
    if not 1 <= dimension <= top:
        raise PreconditionError(f"a lattice needs a dimension in 1..{top}, got {dimension}")
    off = tuple(float(o) for o in offset) if offset is not None else (0.0,) * dimension
    if len(off) != dimension:
        raise DimensionMismatchError("lattice offset dimension mismatch")
    kmax = _index_bounds([(window + max(abs(o) for o in off)) / spacing] * dimension)[0]
    k = np.arange(-kmax, kmax + 1)
    axes = [x[np.abs(x) <= window] for x in (k * spacing + o for o in off)]
    prov = LatticeProvenance(
        window=window,
        dimension=dimension,
        spacing=spacing,
        offset=off if any(off) else None,
    )
    return PointSet(_index_box(axes), provenance=prov)


def make_lattice_basis(basis, window: float, offset: Optional[Sequence[float]] = None) -> PointSet:
    """Lattice {B n + offset : n in Z^d} truncated to |x_i| <= window, basis rows."""
    rows = tuple(tuple(float(c) for c in row) for row in basis)
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise PreconditionError("lattice basis must be a d x d set of vectors")
    window = float(window)
    if not window > 0:
        raise PreconditionError("lattice window must be positive")
    off = np.array(offset, dtype=float) if offset is not None else np.zeros(d)
    if off.shape != (d,):
        raise DimensionMismatchError("lattice offset dimension mismatch")
    mat = np.array(rows, dtype=float).T  # columns are basis vectors
    inv = np.linalg.inv(mat)
    bounds = _index_bounds(
        [(window + float(np.abs(off).max())) * np.abs(inv[i]).sum() for i in range(d)]
    )
    n = _index_box([np.arange(-b, b + 1, dtype=float) for b in bounds])
    # one matrix-vector product per index vector, as B @ n is formed alone,
    # so that the coordinates do not depend on how a batched product rounds
    x = np.matmul(mat, n[:, :, None])[:, :, 0] + off
    x = x[np.all(np.abs(x) <= window, axis=1)]
    prov = LatticeProvenance(
        window=window,
        dimension=d,
        basis=rows,
        offset=tuple(off) if off.any() else None,
    )
    return PointSet(x[np.lexsort(x.T[::-1])], provenance=prov)


def make_reciprocal(count) -> PointSet:
    """The truncated reciprocal family {1/n : 1 <= n <= count} in R.  A count
    that is no whole number in 1.._SITE_BUDGET is refused before any site is
    built; an integral float such as 70.0 is taken as its integer."""
    if not (1 <= count <= _SITE_BUDGET and count == math.floor(count)):
        raise PreconditionError(
            f"reciprocal family needs a whole count in 1..{_SITE_BUDGET}, got {count}"
        )
    count = int(count)
    sites = 1.0 / np.arange(count, 0, -1)
    return PointSet(sites[:, None], provenance=ReciprocalProvenance(count=count))


def union_point_sets(members: Sequence[tuple]) -> PointSet:
    """Union of labelled point sets; coinciding points are kept once.

    Generator tags keep the disjoint-union index structure; the merged set is
    the plain geometric union used for counting, in lexicographic order.
    """
    members = tuple((str(label), ps) for label, ps in members)
    if not members:
        raise PreconditionError("union needs at least one member")
    dims = {ps.dimension for _, ps in members}
    if len(dims) != 1:
        raise DimensionMismatchError(f"union members have mixed dimensions {sorted(dims)}")
    rows = np.concatenate([ps.as_array for _, ps in members])
    # a stable sort keeps coinciding rows in member order, so the first of
    # each run of equal rows is the one met first
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = ~(rows[1:] == rows[:-1]).all(axis=1)
    return PointSet(rows[first], provenance=UnionProvenance(members=members))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SeparationReport:
    min_gap: Optional[float]  # None for fewer than two sites
    delta: float
    part_count: int
    parts: tuple  # tuple of index tuples, partition of range(len(s))


@dataclass(frozen=True)
class DensityRow:
    h: float
    nu_lower: int
    nu_upper: int
    ratio_lower: float
    ratio_upper: float
    exact: bool


@dataclass(frozen=True)
class DensityProfile:
    rows: tuple
    density_estimate: float
    truncation_bias: bool


class NuPlusBound(NamedTuple):
    lower: int
    upper: int
    exact: bool


# ---------------------------------------------------------------------------
# operations


def _positive_run(values, name: str, least: int, increasing: Optional[bool] = None) -> list:
    """values as floats, refused unless at least `least` of them, each
    positive and finite, and strictly increasing or decreasing where
    `increasing` is True or False; `name` names the run in the refusal."""
    xs = [float(v) for v in values]
    if len(xs) < least:
        raise PreconditionError(f"{name} must hold {least} or more values, got {xs}")
    if not all(math.isfinite(x) and x > 0 for x in xs):
        raise PreconditionError(f"{name} must be positive and finite, got {xs}")
    steps = zip(xs, xs[1:]) if increasing else zip(xs[1:], xs)
    if increasing is not None and any(b <= a for a, b in steps):
        raise PreconditionError(f"{name} must be strictly {'in' if increasing else 'de'}creasing, got {xs}")
    return xs


# (site, band member) pairs per scratch tile in the fixed-radius scans
_PAIR_TILE = 1 << 12


def _band_starts(xs: np.ndarray, r2: float) -> np.ndarray:
    """Per position i of the ascending array xs, the first position a_i of
    the run of positions j <= i with (xs[j] - xs[i]) ** 2 < r2.

    The run is contiguous because rounding is monotone.  searchsorted on
    xs - sqrt(r2) finds its start up to rounding; the start then moves by
    whole runs of equal values until that same test holds just inside it
    and fails just outside.  For r2 = 0 not even i passes; the run is then
    taken as i alone, which no caller counts as a neighbour of i.
    """
    at = np.arange(xs.size)
    if not r2 > 0:
        return at
    first = np.searchsorted(xs, xs, side="left")
    past = np.searchsorted(xs, xs, side="right")
    a = np.minimum(np.searchsorted(xs, xs - math.sqrt(r2), side="left"), first)
    todo = at
    # squares of arrays, x * x as in the pair tests; a scalar ** 2 goes
    # through libm's pow, which can round otherwise.  A square that
    # overflows reads inf, which fails the test as the exact square would
    while todo.size:
        j = a[todo]
        with np.errstate(over="ignore"):
            drop = (j < first[todo]) & ~((xs[j] - xs[todo]) ** 2 < r2)
            grow = (j > 0) & ((xs[j - 1] - xs[todo]) ** 2 < r2)
        a[todo[drop]] = past[j[drop]]
        a[todo[grow]] = first[j[grow] - 1]
        todo = todo[drop | grow]
    return a


def _bands(xs: np.ndarray, r2: float) -> tuple:
    """Per position i of the ascending array xs, the run [a_i, b_i) of the
    positions j with (xs[j] - xs[i]) ** 2 < r2.  j > i lies in i's run
    exactly when a_j <= i, and a never decreases, so b_i counts the a_j <= i."""
    a = _band_starts(xs, r2)
    return a, np.searchsorted(a, np.arange(xs.size), side="right")


def _pair_tiles(lo: np.ndarray, hi: np.ndarray):
    """Index arrays (i, j) running over j in [lo[i], hi[i]) for every i, in
    order, in tiles of at most _PAIR_TILE pairs."""
    sizes = np.maximum(hi - lo, 0)
    ends = np.cumsum(sizes)
    total = int(sizes.sum())
    for k0 in range(0, total, _PAIR_TILE):
        k = np.arange(k0, min(k0 + _PAIR_TILE, total))
        i = np.searchsorted(ends, k, side="right")
        yield i, lo[i] + k - (ends[i] - sizes[i])


def _close_earlier(ranked: np.ndarray, r2: float):
    """Tiles (i, j, d2) of the pairs j < i of lexicographically sorted rows
    with d2 = ((ranked[i] - ranked[j]) ** 2).sum(axis=-1) < r2.

    Only the earlier members of i's axis-0 band are tested: a sum of
    squares is at least its axis-0 term, so no other pair passes."""
    a = _band_starts(ranked[:, 0], r2)
    for i, j in _pair_tiles(a, np.arange(len(ranked))):
        with np.errstate(over="ignore"):  # inf fails the test, as in _band_starts
            d2 = ((ranked[i] - ranked[j]) ** 2).sum(axis=-1)
        close = d2 < r2
        yield i[close], j[close], d2[close]


def min_separation(s: PointSet) -> float:
    """inf over i != j of the Euclidean distance |p_i - p_j|.

    Distances come from squared gaps, so the result reads 0.0 where the
    least of them underflows and inf where every one overflows."""
    if len(s) < 2:
        raise PreconditionError("undefined separation: need at least 2 points")
    ranked = s.as_array[s.order]
    # lexicographic neighbours give the minimum in 1-d, and a bound above it
    # otherwise, which only pairs of the axis-0 band can beat; a square that
    # overflows to inf is never the least unless all are
    with np.errstate(over="ignore"):
        best = float(((ranked[1:] - ranked[:-1]) ** 2).sum(axis=-1).min())
    if s.dimension > 1:
        for _, _, d2 in _close_earlier(ranked, best):
            best = float(d2.min(initial=best))
    return math.sqrt(best)


def decompose_separated(s: PointSet, delta: float) -> SeparationReport:
    """Greedy first-fit partition into delta-separated parts.

    Points are taken in lexicographic coordinate order and each is placed in
    the first part whose members all lie at distance >= delta (non-strict, so
    boundary gaps are deterministic).  The part count is an upper bound on the
    chromatic number of the conflict graph with edges at distance < delta.
    Conflicts are read one tile of pairs at a time, so memory is O(n) plus
    one tile, whatever delta.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise PreconditionError(f"delta must be positive, got {delta}")
    n = len(s)
    min_gap = min_separation(s) if n >= 2 else None
    if n >= 2 and not 0.0 < min_gap < math.inf:  # a squared gap under- or overflowed
        raise PreconditionError(
            f"the separation of the sites reads {min_gap} in double precision, "
            "so the report has no minimum gap"
        )
    ranked = s.as_array[s.order]
    d2_min = delta * delta

    def conflicts():
        # (pos, near) in increasing pos: positions in `ranked` earlier than
        # pos that conflict with it, a slice in 1-d; in d >= 2 index arrays,
        # one per tile of _close_earlier that holds pairs of pos
        if s.dimension == 1:
            a = _band_starts(ranked[:, 0], d2_min)
            yield from ((pos, slice(lo, pos)) for pos, lo in enumerate(a.tolist()) if lo < pos)
            return
        for i, j, _ in _close_earlier(ranked, d2_min):
            cuts = np.flatnonzero(np.diff(i, prepend=-1, append=-1)).tolist()
            for lo, hi in zip(cuts, cuts[1:]):
                yield int(i[lo]), j[lo:hi]

    part = np.zeros(n, dtype=np.intp)  # a position with no conflict takes part 0
    taken = np.zeros(n + 1, dtype=bool)  # the parts the current position's conflicts hold
    cur, top = -1, 1  # the position being gathered, and a bound on the parts so far
    for pos, near in itertools.chain(conflicts(), [(n, slice(0, 0))]):
        if pos != cur:
            if cur >= 0:  # every conflict of cur is gathered: take the least free part
                part[cur] = k = int(taken[: top + 1].argmin())
                taken[: top + 1] = False
                top = max(top, k + 1)
            cur = pos
        taken[part[near]] = True
    members: list = [[] for _ in range(int(part.max(initial=-1)) + 1)]
    for i, k in zip(s.order.tolist(), part.tolist()):
        members[k].append(i)
    return SeparationReport(
        min_gap=min_gap,
        delta=delta,
        part_count=len(members),
        parts=tuple(tuple(sorted(m)) for m in members),
    )


def _scaled(arr: np.ndarray, h: float) -> np.ndarray:
    """arr / h, refused where some |x / h| is 2^53 or more: doubles skip
    integers there, so a grid index is lost, and x + h can round back to x,
    so a window anchored at x is empty."""
    with np.errstate(over="ignore"):  # inf is refused below
        scaled = arr / h
    if not (np.abs(scaled) < 2.0**53).all():
        raise PreconditionError(f"h = {h} puts a site coordinate at |x / h| of 2^53 or more")
    return scaled


def grid_occupancy(s: PointSet, h: float) -> dict:
    """Counts per grid cube Q_h(h n), n in Z^d; keys are the integer vectors n.

    The grid cubes tile R^d, so the counts sum to len(s).  A site counts in
    the cube of n exactly when h n - h/2 <= x < h n + h/2 on every axis: the
    rounded index is snapped to these half-open comparisons.
    """
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise PreconditionError(f"h must be positive, got {h}")
    if not len(s):
        return {}
    arr = s.as_array
    keys = np.floor(_scaled(arr, h) + 0.5).astype(np.int64)
    centers = keys * h
    keys += (arr >= centers + h / 2).astype(np.int64)
    keys -= (arr < centers - h / 2).astype(np.int64)
    return dict(Counter(map(tuple, keys.tolist())))


def _ranked(centres: np.ndarray, counts: np.ndarray, limit: int) -> tuple:
    """The `limit` windows with the largest counts, (centres, counts), in
    order: count descending, then centre lexicographically, then position."""
    order = np.lexsort((*centres.T[::-1], -counts))[:limit]
    return centres[order], counts[order]


def anchored_windows(s: PointSet, h: float, limit: int) -> tuple:
    """The `limit` side-h windows with the largest counts, (centres (k, d),
    counts (k,)) in _ranked order.  d = 1, 2: the windows whose lower faces
    pass through site coordinates, scanned by axis-0 anchor, then axis-1
    anchor.  Any half-open side-h window can slide up, one axis at a time,
    until each lower face meets a site coordinate without losing a site, so
    the first count is the largest of any side-h window.  2-d merges each
    axis-0 anchor's column into a running top `limit`, holding O(n + limit)
    windows.  d >= 3: the occupied grid cubes Q_h(h n).  s must be nonempty;
    _scaled refuses an h below the resolution of the site coordinates.
    """
    arr = s.as_array
    _scaled(arr, h)
    # a window end past the double range reads inf, and holds every later site
    with np.errstate(over="ignore"):
        if s.dimension == 1:
            xs = arr[s.order, 0]
            counts = np.searchsorted(xs, xs + h, side="left") - np.arange(xs.size)
            return _ranked((xs + h / 2)[:, None], counts, limit)
        if s.dimension == 2:
            xs, ys = arr[s.order].T
            top = held = (np.zeros((0, 2)), np.zeros(0, dtype=np.intp))
            for ax in np.unique(xs):
                # a window below the running limit-th count cannot enter
                least = top[1][-1] if top[1].size == limit else 0
                lo, hi = np.searchsorted(xs, (ax, ax + h), side="left")
                if hi - lo < least:
                    continue
                slab = np.sort(ys[lo:hi])
                cnt = np.searchsorted(slab, slab + h, side="left") - np.arange(slab.size)
                # a y anchor counts from its first occurrence in the slab
                keep = cnt >= least
                keep[1:] &= slab[1:] != slab[:-1]
                if not keep.any():
                    continue
                col = np.column_stack((np.full(keep.sum(), ax + h / 2), slab[keep] + h / 2))
                held = np.concatenate((held[0], col)), np.concatenate((held[1], cnt[keep]))
                if held[1].size >= 2 * limit:  # rank once `limit` windows wait past the top
                    top = held = _ranked(*held, limit)
            return _ranked(*held, limit)
    occ = grid_occupancy(s, h)
    return _ranked(np.array(list(occ), dtype=np.int64) * h, np.array(list(occ.values())), limit)


def nu_plus(s: PointSet, h: float) -> NuPlusBound:
    """Largest number of points in any half-open side-h cube.

    d = 1, 2: exact, the first count of the ranked anchored windows.
    d >= 3: sandwich (N_h, 2^d N_h) from the grid-cube maximum N_h, since any
    side-h cube is covered by at most 2^d grid-aligned side-h cubes.
    """
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise PreconditionError(f"h must be positive, got {h}")
    if not len(s):
        return NuPlusBound(0, 0, True)
    m = int(anchored_windows(s, h, 1)[1][0])
    if s.dimension <= 2:
        return NuPlusBound(m, m, True)
    return NuPlusBound(m, (2**s.dimension) * m, False)


def density_profile(s: PointSet, h_values: Sequence[float]) -> DensityProfile:
    """Per-h counting table plus a finite-window density estimate.

    The estimate is the maximum of nu_lower/h^d over the top third of the h
    values: a labelled desk-scale surrogate for the h -> infinity limsup, not
    the limit itself.  Truncated generator provenance sets a bias flag.  An h
    whose h^d reads 0 or past the double range, and a ratio past the double
    range, are refused.
    """
    hs = _positive_run(h_values, "h_values", 1, increasing=True)
    prov = s.provenance
    extent = prov.window_extent if prov is not None else None
    if extent is not None and max(hs) > extent:
        raise PreconditionError(
            f"window too small: h={max(hs)} exceeds the generator window extent {extent}"
        )
    d = s.dimension
    rows = []
    for h in hs:
        try:
            vol = h**d
        except OverflowError:
            vol = math.inf
        if not 0.0 < vol < math.inf:
            raise PreconditionError(f"h = {h} to the power d = {d} reads {vol} in double precision")
        lower, upper, exact = nu_plus(s, h)
        if not math.isfinite(upper / vol):
            raise PreconditionError(f"the count ratio {upper} / h^d at h = {h} overflows double precision")
        rows.append(DensityRow(h, lower, upper, lower / vol, upper / vol, exact))
    top = max(1, math.ceil(len(rows) / 3))
    estimate = max(r.ratio_lower for r in rows[-top:])
    bias = bool(prov is not None and prov.truncated_family)
    return DensityProfile(rows=tuple(rows), density_estimate=estimate, truncation_bias=bias)


def centred_windows(s: PointSet, h: float, limit: int) -> tuple:
    """The `limit` half-open cubes Q_h(site) with the largest exact counts,
    (centres (k, d), counts (k,)) in _ranked order.  Axis 0 is counted by
    bisection of the sorted sites: the run of sites whose axis-0 coordinate
    lies in [x - h/2, x - h/2 + h).  In d >= 2 the other axes are tested for
    the members of that run only.
    """
    ranked = s.as_array[s.order]
    lows = ranked - h / 2
    xs = ranked[:, 0]
    lo = np.searchsorted(xs, lows[:, 0], side="left")
    hi = np.searchsorted(xs, lows[:, 0] + h, side="left")
    if s.dimension == 1:
        return _ranked(ranked, hi - lo, limit)
    counts = np.zeros(len(s), dtype=int)
    for i, j in _pair_tiles(lo, hi):
        rest, low = ranked[j, 1:], lows[i, 1:]
        inside = np.all((rest >= low) & (rest < low + h), axis=1)
        counts += np.bincount(i[inside], minlength=len(s))
    return _ranked(ranked, counts, limit)


def detect_accumulation(s: PointSet, radius: float, threshold: int) -> list:
    """Points, as tuples of floats, whose open radius-ball holds >= threshold
    other points of s.

    A finite-truncation witness heuristic for accumulation, not a decision
    procedure: growing truncations of a family with an accumulation point
    produce such witnesses for any fixed radius.
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise PreconditionError(f"radius must be positive, got {radius}")
    threshold = int(threshold)
    if threshold < 2:
        raise PreconditionError(f"threshold must be >= 2, got {threshold}")
    n = len(s)
    ranked = s.as_array[s.order]
    r2 = radius * radius
    if s.dimension == 1:
        a, b = _bands(ranked[:, 0], r2)
        counts = b - a - 1
    else:
        counts = np.zeros(n, dtype=int)
        for i, j, _ in _close_earlier(ranked, r2):
            counts += np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    # the sites in input order, as tuples of floats
    hits = np.sort(s.order[counts >= threshold])
    return [tuple(p) for p in s.as_array[hits].tolist()]
