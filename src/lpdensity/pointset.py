"""Geometry of point sequences in R^d.

Separation structure, half-open cube counting, sliding-window maxima and
finite-window density profiles for finite point sets, together with the
generator descriptors (lattices, reciprocal families, tagged unions) that
back truncation growth studies.

All coordinates are double precision and every membership test is an exact
half-open comparison (no epsilon), so counts are deterministic.
"""

import math
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

    kind = "lattice"
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

    kind = "reciprocal"
    truncated_family = True
    # the omitted tail lives inside (0, 1/count); the outer hull [0, 1] is complete
    window_extent = None

    def regenerate(self, count) -> "PointSet":
        return make_reciprocal(int(count))


@dataclass(frozen=True)
class UnionProvenance:
    """Tagged finite union of sub-sets (the disjoint-union index structure)."""

    members: tuple  # ((label, PointSet), ...)

    kind = "union"

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
            if member.provenance is not None and hasattr(member.provenance, "regenerate"):
                regrown.append((label, member.provenance.regenerate(param)))
            else:
                regrown.append((label, member))  # explicit members stay fixed
        return union_point_sets(regrown)


class PointSet:
    """Finite list of distinct points of a common dimension.

    `points` is an (n, d) array or a sequence of coordinate sequences.  The
    sites are kept as one read-only float64 array, `as_array`, in input
    order; `order` is their lexicographic order, and `points` gives the rows
    as tuples of floats, built from the array when first read.
    Duplicates are rejected at construction: a repeated point would force the
    separation constant to 0 and make local counts multiset-dependent.
    """

    def __init__(self, points, provenance=None, dimension: Optional[int] = None):
        if isinstance(points, np.ndarray):
            arr = np.array(points, dtype=float)
        else:
            rows = [tuple(p) for p in points]
            dims = sorted({len(r) for r in rows})
            if len(dims) > 1:
                raise DimensionMismatchError(f"mixed point dimensions {dims}")
            if rows:
                arr = np.array(rows, dtype=float)
            elif dimension is None:
                raise PreconditionError("an empty point set needs an explicit dimension")
            else:
                arr = np.zeros((0, int(dimension)))
        dim = arr.shape[1]
        if dim == 0:
            raise PreconditionError("a point needs at least one coordinate")
        if dimension is not None and dimension != dim:
            raise DimensionMismatchError(
                f"declared dimension {dimension} but points have dimension {dim}"
            )
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

    def __iter__(self):
        return iter(self.points)


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


def make_reciprocal(count: int) -> PointSet:
    """The truncated reciprocal family {1/n : 1 <= n <= count} in R."""
    count = int(count)
    if count < 1:
        raise PreconditionError("reciprocal family needs count >= 1")
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
    min_gap: float
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


def min_separation(s: PointSet) -> float:
    """inf over i != j of the Euclidean distance |p_i - p_j|."""
    n = len(s)
    if n < 2:
        raise PreconditionError("undefined separation: need at least 2 points")
    arr = s.as_array
    best = math.inf
    chunk = 512
    for i0 in range(0, n, chunk):
        block = arr[i0 : i0 + chunk]
        d2 = ((block[:, None, :] - arr[None, :, :]) ** 2).sum(axis=-1)
        for r in range(block.shape[0]):
            d2[r, i0 + r] = np.inf
        best = min(best, float(d2.min()))
    return math.sqrt(best)


def decompose_separated(s: PointSet, delta: float) -> SeparationReport:
    """Greedy first-fit partition into delta-separated parts.

    Points are taken in lexicographic coordinate order and each is placed in
    the first part whose members all lie at distance >= delta (non-strict, so
    boundary gaps are deterministic).  The part count is an upper bound on the
    chromatic number of the conflict graph with edges at distance < delta.
    """
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise PreconditionError(f"delta must be positive, got {delta}")
    n = len(s)
    arr = s.as_array
    d2_min = delta * delta
    parts: list = []  # list of (index list, coordinate row list)
    for i in s.order.tolist():
        row = arr[i]
        placed = False
        for idxs, rows in parts:
            d2 = ((np.array(rows) - row) ** 2).sum(axis=1)
            if float(d2.min()) >= d2_min:
                idxs.append(i)
                rows.append(row)
                placed = True
                break
        if not placed:
            parts.append(([i], [row]))
    min_gap = min_separation(s) if n >= 2 else math.inf
    return SeparationReport(
        min_gap=min_gap,
        delta=delta,
        part_count=len(parts),
        parts=tuple(tuple(sorted(idxs)) for idxs, _ in parts),
    )


def count_in_cube(s: PointSet, q) -> int:
    """Exact number of points in the half-open box q, such as
    `lpfunc.Box.cube(center, side)`; only q.dim, q.lower and q.upper are read."""
    if s.dimension != q.dim:
        raise DimensionMismatchError(
            f"point set dimension {s.dimension} does not match cube dimension {q.dim}"
        )
    if not len(s):
        return 0
    arr = s.as_array
    lo = np.array(q.lower)
    up = np.array(q.upper)
    inside = np.all((arr >= lo) & (arr < up), axis=1)
    return int(inside.sum())


def grid_occupancy(s: PointSet, h: float) -> dict:
    """Counts per grid cube Q_h(h n), n in Z^d; keys are the integer vectors n.

    The grid cubes tile R^d, so the counts sum to len(s).  Bucket membership
    is snapped to the same half-open comparisons count_in_cube uses.
    """
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise PreconditionError(f"h must be positive, got {h}")
    if not len(s):
        return {}
    arr = s.as_array
    keys = np.floor(arr / h + 0.5).astype(np.int64)
    centers = keys * h
    keys += (arr >= centers + h / 2).astype(np.int64)
    keys -= (arr < centers - h / 2).astype(np.int64)
    occ: dict = {}
    for row in keys:
        k = tuple(int(v) for v in row)
        occ[k] = occ.get(k, 0) + 1
    return occ


def anchored_windows(s: PointSet, h: float) -> tuple:
    """Side-h windows to count sites in: (centres (m, d), counts (m,)).

    d = 1, 2: the windows whose lower faces pass through site coordinates,
    each with its exact count.  Any half-open side-h window can slide up,
    one axis at a time, until each lower face meets a site coordinate
    without losing a site, so the largest of these counts is the largest
    count of any side-h window.  d >= 3: the occupied grid cubes Q_h(h n)
    with their counts.  s must be nonempty.
    """
    arr = s.as_array
    if s.dimension == 1:
        xs = arr[s.order, 0]
        counts = np.searchsorted(xs, xs + h, side="left") - np.arange(xs.size)
        return (xs + h / 2)[:, None], counts
    if s.dimension == 2:
        xs, ys = arr[s.order].T
        centres, counts = [], []
        for ax in np.unique(xs):
            lo = np.searchsorted(xs, ax, side="left")
            hi = np.searchsorted(xs, ax + h, side="left")
            slab = np.sort(ys[lo:hi])
            cnt = np.searchsorted(slab, slab + h, side="left") - np.arange(slab.size)
            # a y anchor counts from its first occurrence in the slab
            first = np.ones(slab.size, dtype=bool)
            first[1:] = slab[1:] != slab[:-1]
            ay = slab[first]
            centres.append(np.column_stack((np.full(ay.size, ax + h / 2), ay + h / 2)))
            counts.append(cnt[first])
        return np.concatenate(centres), np.concatenate(counts)
    occ = grid_occupancy(s, h)
    return np.array(list(occ), dtype=np.int64) * h, np.array(list(occ.values()))


def nu_plus(s: PointSet, h: float) -> NuPlusBound:
    """Largest number of points in any half-open side-h cube.

    d = 1, 2: exact, the largest count over the anchored windows.
    d >= 3: sandwich (N_h, 2^d N_h) from the grid-cube maximum N_h, since any
    side-h cube is covered by at most 2^d grid-aligned side-h cubes.
    """
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise PreconditionError(f"h must be positive, got {h}")
    if not len(s):
        return NuPlusBound(0, 0, True)
    m = int(anchored_windows(s, h)[1].max())
    if s.dimension <= 2:
        return NuPlusBound(m, m, True)
    return NuPlusBound(m, (2**s.dimension) * m, False)


def density_profile(s: PointSet, h_values: Sequence[float]) -> DensityProfile:
    """Per-h counting table plus a finite-window density estimate.

    The estimate is the maximum of nu_lower/h^d over the top third of the h
    values: a labelled desk-scale surrogate for the h -> infinity limsup, not
    the limit itself.  Truncated generator provenance sets a bias flag.
    """
    hs = [float(h) for h in h_values]
    if not hs:
        raise PreconditionError("h_values must be nonempty")
    if any(not (math.isfinite(h) and h > 0) for h in hs):
        raise PreconditionError("h_values must be positive reals")
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise PreconditionError("h_values must be strictly increasing")
    prov = s.provenance
    extent = prov.window_extent if prov is not None else None
    if extent is not None and max(hs) > extent:
        raise PreconditionError(
            f"window too small: h={max(hs)} exceeds the generator window extent {extent}"
        )
    d = s.dimension
    rows = []
    for h in hs:
        lower, upper, exact = nu_plus(s, h)
        rows.append(DensityRow(h, lower, upper, lower / h**d, upper / h**d, exact))
    top = max(1, math.ceil(len(rows) / 3))
    estimate = max(r.ratio_lower for r in rows[-top:])
    bias = bool(prov is not None and prov.truncated_family)
    return DensityProfile(rows=tuple(rows), density_estimate=estimate, truncation_bias=bias)


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
    if n == 0:
        return []
    arr = s.as_array
    r2 = radius * radius
    out = []
    for i in range(n):
        d2 = ((arr - arr[i]) ** 2).sum(axis=1)
        if int((d2 < r2).sum()) - 1 >= threshold:
            out.append(tuple(arr[i].tolist()))
    return out
