"""Exact Lp(R^d) calculus on compactly supported piecewise-constant functions.

The representative class is complex-valued step functions over finitely many
pairwise-disjoint half-open boxes.  It is closed under translation, cube
restriction and finite sums, and every stored operation (norms, dual
pairings, pairings against modulated indicators) has a closed form, so no
quadrature is involved anywhere.
"""

import cmath
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .pointset import _SITE_BUDGET, Point


def _coords(x, dim: Optional[int] = None) -> tuple:
    if isinstance(x, Point):
        c = x.coords
    elif isinstance(x, (int, float)):
        c = (float(x),)
    else:
        c = tuple(float(v) for v in x)
    if dim is not None and len(c) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {len(c)}")
    return c


@dataclass(frozen=True)
class Box:
    """Half-open product box prod_i [lower_i, upper_i) with positive volume."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        if len(lo) != len(up) or not lo:
            raise PreconditionError("box corners must share a dimension >= 1")
        for a, b in zip(lo, up):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise PreconditionError(f"box needs lower < upper componentwise, got {lo} .. {up}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def cube(cls, center, side: float) -> "Box":
        """The half-open cube prod_i [c_i - side/2, c_i + side/2)."""
        side = float(side)
        if not (math.isfinite(side) and side > 0):
            raise PreconditionError(f"cube side must be a positive finite real, got {side}")
        c = _coords(center)
        return cls(tuple(v - side / 2 for v in c), tuple(v + side / 2 for v in c))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lower, self.upper):
            v *= b - a
        return v

    def translate(self, offset: Sequence[float]) -> "Box":
        off = _coords(offset, self.dim)
        return Box(
            tuple(a + o for a, o in zip(self.lower, off)),
            tuple(b + o for b, o in zip(self.upper, off)),
        )

    def overlap_volume(self, other: "Box") -> float:
        v = 1.0
        for a0, a1, b0, b1 in zip(self.lower, self.upper, other.lower, other.upper):
            w = min(a1, b1) - max(a0, b0)
            if w <= 0.0:
                return 0.0
            v *= w
        return v

    def intersection(self, other: "Box") -> Optional["Box"]:
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        up = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        if any(a >= b for a, b in zip(lo, up)):
            return None
        return Box(lo, up)

    def contains(self, x: Sequence[float]) -> bool:
        c = _coords(x, self.dim)
        return all(a <= v < b for a, v, b in zip(self.lower, c, self.upper))


@dataclass(frozen=True)
class PiecewiseFn:
    """Complex step function: finitely many disjoint boxes with constant values.

    Zero-valued pieces are dropped and pieces are kept in lexicographic order
    of their lower corners, so equal functions built in different ways compare
    piece-for-piece.  The empty piece list is the zero function.
    """

    pieces: tuple  # ((Box, complex), ...)
    dimension: int

    def __post_init__(self):
        cleaned = []
        for box, v in self.pieces:
            if not isinstance(box, Box):
                box = Box(*box)
            v = complex(v)
            if box.dim != self.dimension:
                raise DimensionMismatchError(
                    f"piece dimension {box.dim} does not match function dimension {self.dimension}"
                )
            if v != 0:
                cleaned.append((box, v))
        cleaned.sort(key=lambda bv: (bv[0].lower, bv[0].upper))
        for i, (bi, _) in enumerate(cleaned):
            for bj, _ in cleaned[i + 1 :]:
                if bi.overlap_volume(bj) > 0.0:
                    raise PreconditionError(
                        f"overlapping pieces {bi.lower}..{bi.upper} and {bj.lower}..{bj.upper}; "
                        "use canonicalize() to merge raw piece lists"
                    )
        object.__setattr__(self, "pieces", tuple(cleaned))

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    @cached_property
    def support_box(self) -> Optional[Box]:
        if not self.pieces:
            return None
        lo = tuple(
            min(b.lower[j] for b, _ in self.pieces) for j in range(self.dimension)
        )
        up = tuple(
            max(b.upper[j] for b, _ in self.pieces) for j in range(self.dimension)
        )
        return Box(lo, up)

    @cached_property
    def min_piece_side(self) -> Optional[float]:
        if not self.pieces:
            return None
        return min(
            b.upper[j] - b.lower[j] for b, _ in self.pieces for j in range(self.dimension)
        )

    @cached_property
    def _arrays(self) -> "_Pieces":
        return _piece_arrays(self)

    def value_at(self, x) -> complex:
        c = _coords(x, self.dimension)
        for box, v in self.pieces:
            if box.contains(c):
                return v
        return 0j


def _build(pieces: Sequence[tuple], dimension: int) -> PiecewiseFn:
    # internal fast path for operations that preserve disjointness
    fn = object.__new__(PiecewiseFn)
    object.__setattr__(fn, "pieces", tuple(sorted(pieces, key=lambda bv: (bv[0].lower, bv[0].upper))))
    object.__setattr__(fn, "dimension", dimension)
    return fn


def zero_fn(dimension: int) -> PiecewiseFn:
    return _build((), dimension)


def indicator(box: Box, value: complex = 1.0) -> PiecewiseFn:
    return PiecewiseFn(((box, complex(value)),), box.dim)


def indicator_interval(lo: float, hi: float, value: complex = 1.0) -> PiecewiseFn:
    """chi_{[lo, hi)} scaled by value, on the line."""
    return indicator(Box((lo,), (hi,)), value)


@dataclass(frozen=True)
class ExponentPair:
    """Conjugate exponents 1/p + 1/q = 1 with 1 < p < infinity; q is derived."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if not (math.isfinite(p) and p > 1):
            raise PreconditionError(f"exponent p must lie in (1, inf), got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", p / (p - 1))


def conjugate_exponent(p: float) -> float:
    p = float(p)
    if not (math.isfinite(p) and p > 1):
        raise PreconditionError(f"exponent must lie in (1, inf), got {p}")
    return p / (p - 1)


# ---------------------------------------------------------------------------
# operations


def translate(f: PiecewiseFn, gamma) -> PiecewiseFn:
    """(T_gamma f)(x) = f(x - gamma): every box shifts by gamma, values unchanged."""
    off = _coords(gamma, f.dimension)
    return _build(tuple((box.translate(off), v) for box, v in f.pieces), f.dimension)


def lp_norm_pow(f: PiecewiseFn, p: float) -> float:
    """sum |v|^p vol over the pieces: the p-th power of the Lp norm, computed
    without the root/power round trip (keeps dyadic masses exact)."""
    p = float(p)
    if not (math.isfinite(p) and p >= 1):
        raise PreconditionError(f"lp norms need p >= 1, got {p}")
    total = 0.0
    for box, v in f.pieces:
        total += abs(v) ** p * box.volume
    return total


def lp_norm(f: PiecewiseFn, p: float) -> float:
    """(sum |v|^p vol)^{1/p} over the pieces; p >= 1."""
    return lp_norm_pow(f, p) ** (1.0 / float(p))


def restrict(f: PiecewiseFn, clip: Box) -> PiecewiseFn:
    """Pointwise multiplication by the indicator of a half-open box."""
    if clip.dim != f.dimension:
        raise DimensionMismatchError(
            f"restriction region dimension {clip.dim} does not match function dimension {f.dimension}"
        )
    out = []
    for box, v in f.pieces:
        cut = box.intersection(clip)
        if cut is not None:
            out.append((cut, v))
    return _build(tuple(out), f.dimension)


def pair(h: PiecewiseFn, f: PiecewiseFn) -> complex:
    """Sesquilinear dual pairing <h, f> = integral of h * conj(f).

    Exact: the integrand is constant on each box intersection, so the pairing
    is a finite sum of value products times overlap volumes, accumulated in
    lexicographic piece order for reproducibility.
    """
    if h.dimension != f.dimension:
        raise DimensionMismatchError(
            f"pairing dimensions differ: {h.dimension} vs {f.dimension}"
        )
    acc = 0j
    for bh, vh in h.pieces:
        lh, uh = bh.lower, bh.upper
        for bf, vf in f.pieces:
            vol = 1.0
            for a0, a1, b0, b1 in zip(lh, uh, bf.lower, bf.upper):
                w = min(a1, b1) - max(a0, b0)
                if w <= 0.0:
                    vol = 0.0
                    break
                vol *= w
            if vol:
                acc += vh * vf.conjugate() * vol
    return acc


# scratch elements per array in one cross_pairings tile; about a dozen such
# arrays are live at once, so a tile needs a few MB whatever the input sizes
_TILE = 1 << 15
# up to this many piece pairs, every pair is evaluated and none is pruned
_DENSE_PAIRS = 64

# multiplies (b*d, a*d) so that (a*c, b*c) + it is (ac - b(-d), a(-d) + bc),
# CPython's product (a + bi) * (c - di)
_CONJ_SIGN = np.array([1.0, -1.0])


class _Pieces(NamedTuple):
    lower: np.ndarray  # (d, P)
    upper: np.ndarray  # (d, P)
    values: np.ndarray  # (2, P): real parts, imaginary parts
    upper0_max: np.ndarray  # running max of upper[0]
    order: tuple  # (axes, k): pieces k and k + 1 first differ in lower[axes]


def _piece_arrays(f: PiecewiseFn) -> _Pieces:
    d = f.dimension
    lower = np.array([b.lower for b, _ in f.pieces], dtype=float).reshape(-1, d).T
    upper = np.array([b.upper for b, _ in f.pieces], dtype=float).reshape(-1, d).T
    values = np.array([(v.real, v.imag) for _, v in f.pieces], dtype=float).reshape(-1, 2).T
    axes = np.argmax(lower[:, 1:] != lower[:, :-1], axis=0)
    order = (axes, np.arange(axes.size))
    return _Pieces(lower, upper, values, np.maximum.accumulate(upper[0]), order)


def cross_pairings(h: PiecewiseFn, f: PiecewiseFn, shifts) -> np.ndarray:
    """Batched pairings: entry i is pair(translate(h, shifts[i]), f), bit for bit.

    `shifts` is an (n, d) array (or n numbers when d == 1).  Each entry is
    built from the same float operations as the scalar pair: the translated
    corners a + s, the widths min(a1, b1) - max(a0, b0), the product
    vh * conj(vf) * vol, and one sequential sum over (h piece, f piece) in
    lexicographic order.  Piece pairs that cannot overlap on axis 0 are
    pruned with a sorted-interval test; the remaining candidates are laid out
    in that order with zero padding (adding +0.0 to a sum that started at 0j
    changes nothing) and added one column at a time, never by a pairwise
    reduction.  Shifts and candidates go through tiles of at most _TILE
    entries, so scratch memory does not grow with n, and grows with the
    piece counts only through one index per candidate column.

    As in translate, a shift that collapses a piece of h, or is not finite,
    raises PreconditionError.  A shift under which rounding ties two pieces
    of h on the coordinate that orders them would make translate re-sort h;
    such rows fall back to the scalar pair.
    """
    if h.dimension != f.dimension:
        raise DimensionMismatchError(
            f"pairing dimensions differ: {h.dimension} vs {f.dimension}"
        )
    d = h.dimension
    s = np.asarray(shifts, dtype=float)
    if s.ndim == 1 and (d == 1 or s.size == 0):
        s = s.reshape(-1, d)
    if s.ndim != 2 or s.shape[1] != d:
        raise DimensionMismatchError(f"shifts must have shape (n, {d}), got {s.shape}")
    out = np.zeros((2, len(s)))
    if len(s) and h.pieces and f.pieces:
        hp, fp = h._arrays, f._arrays
        axes, k = hp.order
        n_pairs = len(h.pieces) * len(f.pieces)
        dense = n_pairs <= _DENSE_PAIRS
        rows = max(1, _TILE // (n_pairs if dense else len(h.pieces)))
        for r0 in range(0, len(s), rows):
            block = s[r0 : r0 + rows].T
            # h's corners translated as translate computes them: (d, P_h, rows)
            lower = hp.lower[:, :, None] + block[:, None, :]
            upper = hp.upper[:, :, None] + block[:, None, :]
            if not (lower < upper).all():
                raise PreconditionError("a shift collapses a piece of the translated function")
            if dense:
                out[:, r0 : r0 + rows] = _add_terms(
                    np.zeros((2, block.shape[1])),
                    lower[:, :, None],
                    upper[:, :, None],
                    hp.values[:, :, None, None],
                    fp.lower[:, None, :, None],
                    fp.upper[:, None, :, None],
                    fp.values[:, None, :, None],
                )
            else:
                out[:, r0 : r0 + rows] = _pruned_sums(lower, upper, hp.values, fp)
            # a rounding tie on the axis that orders two pieces of h makes
            # translate re-sort them; such rows take the scalar pair
            for r in np.flatnonzero((lower[axes, k] >= lower[axes, k + 1]).any(axis=0)):
                v = pair(translate(h, block[:, r]), f)
                out[:, r0 + r] = v.real, v.imag
    result = np.empty(len(s), dtype=complex)
    result.real, result.imag = out
    return result


def _add_terms(acc, h_lower, h_upper, h_values, f_lower, f_upper, f_values, mask=True):
    """Add the pair terms of (h piece, f piece) candidates to the (2, rows)
    sums acc, one candidate at a time, in order.  Corners are (d, ..., rows)
    and values (2, ..., rows) arrays, gathered or broadcast so that the
    middle axes enumerate the candidates; `mask` drops padding candidates."""
    w = np.minimum(h_upper, f_upper) - np.maximum(h_lower, f_lower)
    vol = w[0]
    for a in range(1, len(w)):
        vol = vol * w[a]
    sign = _CONJ_SIGN.reshape((2,) + (1,) * (h_values.ndim - 1))
    prod = h_values * f_values[0] + h_values[::-1] * f_values[1] * sign
    terms = np.where(mask & (w > 0.0).all(axis=0), prod * vol, 0.0)
    for c in terms.reshape(2, -1, acc.shape[1]).transpose(1, 0, 2):
        acc += c
    return acc


def _pruned_sums(lower, upper, values, fp: _Pieces) -> np.ndarray:
    """(2, rows) pairing sums of h, with translated (d, P_h, rows) corners
    and (2, P_h) values, against f.  Candidate (i, t) pairs h piece i with
    f piece first[i, r] + t, and is padding where t >= count[i, r]."""
    first = np.searchsorted(fp.upper0_max, lower[0], side="right")
    count = np.searchsorted(fp.lower[0], upper[0], side="left") - first
    width = np.maximum(count.max(axis=1), 0)
    col_i = np.repeat(np.arange(width.size), width)
    col_t = np.arange(col_i.size) - np.repeat(np.cumsum(width) - width, width)
    acc = np.zeros((2, lower.shape[2]))
    step = max(1, _TILE // lower.shape[2])
    for c0 in range(0, col_i.size, step):
        i = col_i[c0 : c0 + step]
        t = col_t[c0 : c0 + step, None]
        mask = t < count[i]
        j = np.where(mask, first[i] + t, 0)
        acc = _add_terms(
            acc,
            lower[:, i],
            upper[:, i],
            values[:, i, None],
            fp.lower[:, j],
            fp.upper[:, j],
            fp.values[:, j],
            mask,
        )
    return acc


def pair_modulated(f: PiecewiseFn, freq) -> complex:
    """<f, E_freq 1> = integral of f(x) e^{-2 pi i <freq, x>} dx, in closed form.

    Per box the integral factors into 1-d pieces (e^{-2 pi i b u} -
    e^{-2 pi i b l}) / (-2 pi i b), with the b -> 0 limit u - l.  Modulated
    functions are never materialized as step functions; only this pairing is
    available.
    """
    b = _coords(freq, f.dimension)
    acc = 0j
    for box, v in f.pieces:
        factor = 1 + 0j
        for lo, up, bj in zip(box.lower, box.upper, b):
            if bj == 0.0:
                factor *= up - lo
            else:
                tau = -2j * math.pi * bj
                factor *= (cmath.exp(tau * up) - cmath.exp(tau * lo)) / tau
        acc += v * factor
    return acc


def scale(f: PiecewiseFn, c: complex) -> PiecewiseFn:
    c = complex(c)
    if c == 0:
        return zero_fn(f.dimension)
    return _build(tuple((box, v * c) for box, v in f.pieces), f.dimension)


def normalize(f: PiecewiseFn, p: float) -> PiecewiseFn:
    """Scale so the Lp norm is 1."""
    if f.is_zero:
        raise PreconditionError("cannot normalize the zero function")
    return scale(f, 1.0 / lp_norm(f, p))


def canonicalize(pieces, dimension: Optional[int] = None) -> PiecewiseFn:
    """Merge an arbitrary (possibly overlapping) piece list into disjoint form.

    The piece endpoints induce an axis-aligned grid; overlapping values are
    summed per grid cell and exact-zero cells are dropped.  Pairings and norms
    of the result agree with the raw sum.  Accepts a PiecewiseFn or an
    iterable of (Box, value) pairs.  Pieces that cover more than _SITE_BUDGET
    grid cells in all are refused before any cell is summed.
    """
    if isinstance(pieces, PiecewiseFn):
        dimension = pieces.dimension
        raw = list(pieces.pieces)
    else:
        raw = [(box if isinstance(box, Box) else Box(*box), complex(v)) for box, v in pieces]
    if not raw:
        if dimension is None:
            raise PreconditionError("empty piece list needs an explicit dimension")
        return zero_fn(dimension)
    d = raw[0][0].dim
    if dimension is not None and dimension != d:
        raise DimensionMismatchError(f"declared dimension {dimension} but pieces have {d}")
    if any(box.dim != d for box, _ in raw):
        raise DimensionMismatchError("mixed piece dimensions")
    cuts = []
    for j in range(d):
        vals = {box.lower[j] for box, _ in raw} | {box.upper[j] for box, _ in raw}
        cuts.append(sorted(vals))
    covers = []  # each nonzero piece's cell index range per axis
    for box, v in raw:
        if v != 0:
            axes = zip(cuts, box.lower, box.upper)
            covers.append(([range(bisect_left(c, a), bisect_left(c, b)) for c, a, b in axes], v))
    covered = sum(math.prod(map(len, ranges)) for ranges, _ in covers)
    if covered > _SITE_BUDGET:
        raise PreconditionError(
            f"the pieces cover {covered} grid cells, over the budget of {_SITE_BUDGET}"
        )
    cells: dict = {}
    for ranges, v in covers:
        for idx in itertools.product(*ranges):
            cells[idx] = cells.get(idx, 0j) + v
    out = []
    for idx in sorted(cells):
        v = cells[idx]
        if v != 0:
            lo = tuple(cuts[j][i] for j, i in enumerate(idx))
            up = tuple(cuts[j][i + 1] for j, i in enumerate(idx))
            out.append((Box(lo, up), v))
    return _build(tuple(out), d)


def add(*fns: PiecewiseFn) -> PiecewiseFn:
    """Canonical sum of step functions."""
    if not fns:
        raise PreconditionError("add needs at least one function")
    d = fns[0].dimension
    raw = []
    for f in fns:
        if f.dimension != d:
            raise DimensionMismatchError("mixed function dimensions in sum")
        raw.extend(f.pieces)
    return canonicalize(raw, d)


# ---------------------------------------------------------------------------
# sampled closed-form functions

# name -> (pointwise evaluator on a coordinate tuple, per-dimension Lipschitz bound)
SAMPLER_CATALOG = {
    "gaussian": (lambda x: math.exp(-sum(t * t for t in x)), math.sqrt(2.0 / math.e)),
    "tent": (lambda x: math.prod(max(0.0, 1.0 - abs(t)) for t in x), 1.0),
}


def sample_catalog_function(name: str, step: float, support: Box, p: float):
    """Midpoint-sample a catalog function onto a grid of side `step`.

    Returns (PiecewiseFn, lp_error_bound).  The bound is the grid oscillation
    estimate L * sqrt(d)/2 * step times vol(support)^{1/p}, where L bounds the
    gradient norm of the sampled expression; dyadic steps keep the cell
    endpoints exact.  A grid of more than _SITE_BUDGET cells is refused.
    """
    if name not in SAMPLER_CATALOG:
        raise PreconditionError(
            f"unknown catalog expression {name!r}; available: {sorted(SAMPLER_CATALOG)}"
        )
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise PreconditionError(f"grid step must be positive, got {step}")
    func, lip_per_dim = SAMPLER_CATALOG[name]
    d = support.dim
    spans = [(b - a) / step for a, b in zip(support.lower, support.upper)]
    # an infinite span fails the first test, before math.ceil sees it
    if any(s > _SITE_BUDGET for s in spans) or math.prod(map(math.ceil, spans)) > _SITE_BUDGET:
        raise PreconditionError(
            f"grid step {step} on the support {support.lower} .. {support.upper} "
            f"gives more than {_SITE_BUDGET} cells"
        )
    counts = [math.ceil(s) for s in spans]
    pieces = []
    for idx in itertools.product(*(range(c) for c in counts)):
        lo = tuple(a + i * step for a, i in zip(support.lower, idx))
        up = tuple(min(b, a + (i + 1) * step) for a, b, i in zip(support.lower, support.upper, idx))
        mid = tuple((a + b) / 2 for a, b in zip(lo, up))
        v = func(mid)
        if v != 0:
            pieces.append((Box(lo, up), complex(v)))
    fn = _build(tuple(pieces), d)
    grad_bound = lip_per_dim * math.sqrt(d)
    error = grad_bound * (step * math.sqrt(d) / 2.0) * support.volume ** (1.0 / float(p))
    return fn, error
