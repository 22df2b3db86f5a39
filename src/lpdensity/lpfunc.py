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
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .pointset import _SITE_BUDGET


def _coords(x, dim: Optional[int] = None) -> tuple:
    if isinstance(x, (int, float)):
        c = (float(x),)
    else:
        c = tuple(float(v) for v in x)
    if dim is not None and len(c) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {len(c)}")
    return c


def _check_corners(lo: tuple, up: tuple) -> None:
    for a, b in zip(lo, up):
        if not -math.inf < a < b < math.inf:
            raise PreconditionError(f"box needs lower < upper componentwise, got {lo} .. {up}")


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
        _check_corners(lo, up)
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


def _value(v) -> complex:
    """v as a complex piece value, refused unless both parts are finite."""
    v = complex(v)
    if not cmath.isfinite(v):
        raise PreconditionError(f"piece values must be finite, got {v}")
    return v


@dataclass(frozen=True)
class PiecewiseFn:
    """Complex step function: finitely many disjoint boxes with constant values.

    Zero-valued pieces are dropped and the constructor keeps the pieces in
    lexicographic order of their lower corners, so the same pieces given in
    any order build equal functions.  The empty piece list is the zero
    function.  translate keeps its input's piece order: where rounding ties
    two lower corners, a translate's pieces may leave lexicographic order,
    but axis 0 never decreases.  Equality compares the pieces in order, so
    such a translate is unequal to the same function re-sorted; pairings sum
    in piece order, and the two can differ in the last bit.
    """

    pieces: tuple  # ((Box, complex), ...)
    dimension: int

    def __post_init__(self):
        cleaned = []
        for box, v in self.pieces:
            v = _value(v)
            if box.dim != self.dimension:
                raise DimensionMismatchError(
                    f"piece dimension {box.dim} does not match function dimension {self.dimension}"
                )
            if v != 0:
                cleaned.append((box, v))
        cleaned.sort(key=lambda bv: (bv[0].lower, bv[0].upper))
        # only later pieces that start below bi.upper[0] on axis 0 can meet bi
        lows = [b.lower[0] for b, _ in cleaned]
        for i, (bi, _) in enumerate(cleaned):
            for bj, _ in cleaned[i + 1 : bisect_left(lows, bi.upper[0], i + 1)]:
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


def _build(pieces: Sequence[tuple], dimension: int) -> PiecewiseFn:
    # internal fast path for operations that preserve disjointness; the
    # caller passes the pieces in the order they are to be kept
    fn = object.__new__(PiecewiseFn)
    object.__setattr__(fn, "pieces", tuple(pieces))
    object.__setattr__(fn, "dimension", dimension)
    return fn


def indicator(box: Box, value: complex = 1.0) -> PiecewiseFn:
    return PiecewiseFn(((box, complex(value)),), box.dim)


def _exponent(value, name: str, norm: bool = False) -> float:
    """value as a float, refused unless it lies in (1, inf), the range of
    the exponents p, q and p_prime, or in [1, inf) where `norm` marks the
    exponent of an Lp norm."""
    x = float(value)
    if not (math.isfinite(x) and (x >= 1 if norm else x > 1)):
        raise PreconditionError(f"{name} must lie in {'[' if norm else '('}1, inf), got {x}")
    return x


@dataclass(frozen=True)
class ExponentPair:
    """Conjugate exponents 1/p + 1/q = 1 with 1 < p < infinity; q is derived."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        p = _exponent(self.p, "p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", p / (p - 1))


def conjugate_exponent(p: float) -> float:
    return ExponentPair(p).q


# ---------------------------------------------------------------------------
# operations


def translate(f: PiecewiseFn, gamma) -> PiecewiseFn:
    """(T_gamma f)(x) = f(x - gamma): every box shifts by gamma, values
    unchanged, and the pieces keep f's order (rounding is monotone)."""
    off = _coords(gamma, f.dimension)
    pieces = []
    for box, v in f.pieces:
        lo = tuple(map(operator.add, box.lower, off))
        up = tuple(map(operator.add, box.upper, off))
        # the checks of Box(lo, up), on corners that are floats already
        _check_corners(lo, up)
        moved = object.__new__(Box)
        object.__setattr__(moved, "lower", lo)
        object.__setattr__(moved, "upper", up)
        pieces.append((moved, v))
    return _build(pieces, f.dimension)


def lp_norm_pow(f: PiecewiseFn, p: float) -> float:
    """sum |v|^p vol over the pieces: the p-th power of the Lp norm, computed
    without the root/power round trip (keeps dyadic masses exact).  A sum
    past the double range is refused."""
    p = _exponent(p, "p", norm=True)
    total = 0.0
    for box, v in f.pieces:
        total += _power(abs(v), p) * box.volume
    return _finite_power_sum(total, f"the Lp norm of a step function at p = {p}")


def _power(x: float, p: float) -> float:
    """x ** p, read as inf where Python's ** overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _finite_power_sum(total: float, what: str) -> float:
    """total, refused unless finite.  A sum of p-th powers of finite values
    that is not finite has overflowed: callers read a Python ** that raised
    OverflowError as inf, and + or * round past the range to inf (and
    inf - inf to nan)."""
    if not math.isfinite(total):
        raise PreconditionError(f"{what} overflows double precision")
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
    # clipping can tie lower corners, so the pieces are sorted again
    return _build(tuple(sorted(out, key=lambda bv: (bv[0].lower, bv[0].upper))), f.dimension)


def pair(h: PiecewiseFn, f: PiecewiseFn) -> complex:
    """Sesquilinear dual pairing <h, f> = integral of h * conj(f).

    Exact: the integrand is constant on each box intersection, so the pairing
    is a finite sum of value products times overlap volumes, accumulated in
    h's piece order, then f's, for reproducibility.  translate keeps its
    input's piece order, so a translate sums in the order of its input.
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
# elements numpy buffers at a time for each broadcast operand of a kernel
# ufunc; its default of 8192 would buffer a block of 2^11 terms in full
_BUFSIZE = 512

# multiplies (b*d, a*d) so that (a*c, b*c) + it is (ac - b(-d), a(-d) + bc),
# CPython's product (a + bi) * (c - di)
_CONJ_SIGN = np.array([1.0, -1.0])


class _Pieces(NamedTuple):
    lower: np.ndarray  # (d, P)
    upper: np.ndarray  # (d, P)
    values: np.ndarray  # (2, P): real parts, imaginary parts
    upper0_max: np.ndarray  # running max of upper[0]


def _piece_arrays(f: PiecewiseFn) -> _Pieces:
    d = f.dimension
    lower = np.array([b.lower for b, _ in f.pieces], dtype=float).reshape(-1, d).T
    upper = np.array([b.upper for b, _ in f.pieces], dtype=float).reshape(-1, d).T
    values = np.array([(v.real, v.imag) for _, v in f.pieces], dtype=float).reshape(-1, 2).T
    return _Pieces(lower, upper, values, np.maximum.accumulate(upper[0]))


def _shift_rows(shifts, d: int, name: str) -> np.ndarray:
    s = np.asarray(shifts, dtype=float)
    if s.ndim == 1 and (d == 1 or s.size == 0):
        s = s.reshape(-1, d)
    if s.ndim != 2 or s.shape[1] != d:
        raise DimensionMismatchError(f"{name} must have shape (n, {d}), got {s.shape}")
    return s


def cross_pairings(h: PiecewiseFn, f: PiecewiseFn, shifts, f_shifts=None) -> np.ndarray:
    """Batched pairings: entry i is pair(translate(h, shifts[i]), f), bit for bit.

    `shifts` is an (n, d) array (or n numbers when d == 1).  With `f_shifts`,
    an (m, d) array, f is translated too: the result is the (m, n) matrix
    whose entry [j, i] is pair(translate(h, shifts[i]), translate(f,
    f_shifts[j])), bit for bit.

    Each entry is built from the same float operations as the scalar pair:
    the translated corners a + s, the widths min(a1, b1) - max(a0, b0), the
    product vh * conj(vf) * vol, and one sequential sum over (h piece, f
    piece) in h's and f's piece order, which translate keeps.  Piece pairs
    that cannot overlap on axis 0 are pruned with a sorted-interval test; the
    remaining candidates are laid out in that order and added one column at
    a time, never by a pairwise reduction, with padding candidates masked
    out.  Shifts and candidates go through tiles of at most _TILE entries,
    so scratch memory does not grow with n or m, and grows with the piece
    counts only through one index per candidate column.  Up to _DENSE_PAIRS
    piece pairs, a run of f shifts is broadcast against a tile of rows at
    once; past it, each f shift is pruned on its own.  The matrix is filled
    from the blocks of _pairing_blocks.

    As in translate, a shift that collapses a piece of h, or an f shift that
    collapses a piece of f, or one that leaves a corner not finite, raises
    PreconditionError.  Every entry falls back to the scalar pair when some
    product vh * conj(vf) is not finite: pair's complex product by vol then
    turns a zero part of an infinite product into nan, which the kernel's
    real and imaginary planes would not.
    """
    shape, blocks = _pairing_blocks(h, f, shifts, f_shifts, _TILE)
    result = np.zeros(shape, dtype=complex)
    for cols, rows, planes in blocks:
        result.real[cols, rows], result.imag[cols, rows] = planes
    return result if f_shifts is not None else result[0]


def _pairing_blocks(h: PiecewiseFn, f: PiecewiseFn, shifts, f_shifts, terms: int):
    """Set up the pairings of cross_pairings(h, f, shifts, f_shifts) once.

    Returns the matrix's shape (m, n), m = 1 without f_shifts, and an
    iterator of blocks (cols, rows, planes): slices of the f shifts and of
    the rows, and the (2, len(cols), len(rows)) real and imaginary parts of
    matrix[cols, rows], bit for bit.  Entries in no block are 0j.  The
    planes are a view of one buffer that the next block overwrites, so a
    block must be read before the next one is drawn.

    The set-up parses the shifts and raises the refusals of cross_pairings,
    translating the corners in tiles of at most _TILE.  Each block pairs a
    tile of rows with a run of max(1, terms // (rows x piece pairs)) f
    shifts, rows counted in a full tile, so a block holds at most `terms`
    terms, or one f shift's when they are more.  Runs are the outer loop:
    every row tile of one run arrives before the next run, so a consumer
    that stops drawing after a run's last row tile (rows ending at n) has
    every entry of the runs before it.  A run's corners are translated once
    for all its row tiles, and h's once for all runs when every row fits in
    one tile.  The translated pieces keep their order, as in translate, so
    each block sums in pair's order by construction; only non-finite
    products take the scalar pair, one row per tile.
    """
    if h.dimension != f.dimension:
        raise DimensionMismatchError(
            f"pairing dimensions differ: {h.dimension} vs {f.dimension}"
        )
    d = h.dimension
    s = _shift_rows(shifts, d, "shifts")
    t = np.zeros((1, d)) if f_shifts is None else _shift_rows(f_shifts, d, "f_shifts")
    # translate refuses these shifts, even where no term is left to compute
    if _first_bad_shift(f, t) is not None:
        raise PreconditionError("an f shift is not finite or collapses a piece of f")
    if _first_bad_shift(h, s) is not None:
        raise PreconditionError("a shift is not finite or collapses a piece of h")

    def blocks():
        if not (h.pieces and f.pieces and len(s)):
            return
        hp, fp = h._arrays, f._arrays
        n_pairs = len(h.pieces) * len(f.pieces)
        dense = n_pairs <= _DENSE_PAIRS
        scalar = not _finite_products(hp.values, fp.values)
        # every entry takes the scalar pair when some product is not finite
        tile = 1 if scalar else max(1, _TILE // max(n_pairs if dense else 0, len(h.pieces)))
        prod = None  # the dense candidates' products, (2, P_h, P_f, 1, 1)
        if dense and not scalar:
            prod = _products(hp.values[:, :, None, None, None], fp.values[:, None, :, None, None])
        n = min(tile, len(s))
        run = max(1, terms // (n * n_pairs))
        buffer = np.empty(2 * min(run, len(t)) * n)
        # h's corners translated as translate computes them, (d, P_h, rows):
        # once for every run when all rows fit in one tile
        whole = _moved(hp, s) if n == len(s) else None
        for c0 in range(0, len(t), run):
            f_lower, f_upper = _moved(fp, t[c0 : c0 + run])
            k = f_lower.shape[2]
            # every row tile of this run of f shifts before the next run
            for r0 in range(0, len(s), tile):
                lower, upper = whole if whole is not None else _moved(hp, s[r0 : r0 + tile])
                rows = lower.shape[2]
                planes = buffer[: 2 * k * rows].reshape(2, k, rows)
                if scalar:
                    th = translate(h, s[r0])
                    for c in range(k):
                        z = pair(th, f if f_shifts is None else translate(f, t[c0 + c]))
                        planes[:, c, 0] = z.real, z.imag
                elif dense:
                    # (f shift, row) pairs flatten into the kernel's row axis
                    planes.fill(0.0)
                    _add_terms(
                        planes.reshape(2, k * rows),
                        lower[:, :, None, None],
                        upper[:, :, None, None],
                        f_lower[:, None, :, :, None],
                        f_upper[:, None, :, :, None],
                        prod,
                    )
                else:
                    for c in range(k):
                        moved = fp._replace(
                            lower=f_lower[:, :, c],
                            upper=f_upper[:, :, c],
                            upper0_max=fp.upper0_max + t[c0 + c, 0],
                        )
                        planes[:, c] = _pruned_sums(lower, upper, hp.values, moved)
                yield slice(c0, c0 + k), slice(r0, r0 + rows), planes

    return (len(t), len(s)), blocks()


def _moved(p: _Pieces, shifts: np.ndarray) -> tuple:
    """p's corners translated by each of the k rows of shifts, as translate
    computes them: two (d, P, k) arrays."""
    off = shifts.T[:, None, :]
    return p.lower[:, :, None] + off, p.upper[:, :, None] + off


def _first_bad_shift(fn: PiecewiseFn, shifts: np.ndarray) -> Optional[int]:
    """The first row of shifts that moves fn as translate refuses to (a
    corner that is not finite, or lower >= upper), or None; fn's corners are
    translated in tiles of at most _TILE, and a function with no pieces
    moves anywhere."""
    if not fn.pieces:
        return None
    p = fn._arrays
    step = max(1, _TILE // len(fn.pieces))
    for k0 in range(0, len(shifts), step):
        with np.errstate(over="ignore"):  # a corner past the double range reads inf
            lower, upper = _moved(p, shifts[k0 : k0 + step])
        ok = ((-np.inf < lower) & (lower < upper) & (upper < np.inf)).all(axis=(0, 1))
        if not ok.all():
            return k0 + int(ok.argmin())
    return None


def _products(h_values, f_values) -> np.ndarray:
    """The real and imaginary parts of vh * conj(vf), as CPython's complex
    product forms them, from broadcastable (2, ...) value arrays."""
    sign = _CONJ_SIGN.reshape((2,) + (1,) * (h_values.ndim - 1))
    return h_values * f_values[0] + h_values[::-1] * f_values[1] * sign


def _finite_products(h_values, f_values) -> bool:
    """Whether vh * conj(vf) is finite for every h piece and f piece, given
    (2, P) value arrays; the products are formed in tiles of at most _TILE."""
    step = max(1, _TILE // f_values.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        return all(
            np.isfinite(_products(h_values[:, i : i + step, None], f_values[:, None])).all()
            for i in range(0, h_values.shape[1], step)
        )


def _add_terms(acc, h_lower, h_upper, f_lower, f_upper, prod, mask=None):
    """Add the pair terms of (h piece, f piece) candidates to the (2, rows)
    sums acc in place, one candidate at a time, in order.  Corners are (d,
    ..., rows) arrays and prod the candidates' (2, ...) products from
    _products, gathered or broadcast so that the middle axes enumerate the
    candidates; `mask` drops padding candidates.

    The widths, the volume and the terms are formed in place, and numpy
    buffers a broadcast operand in chunks of _BUFSIZE elements, so the
    scratch is at most about 16 d bytes per term.  A term past the
    double range is inf, or nan, as in pair, without numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy 2 restores the buffer size with the error state; numpy 1 does not
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            w = np.minimum(h_upper, f_upper)
            w -= np.maximum(h_lower, f_lower)
            meets = w[0] > 0.0
            for a in range(1, len(w)):
                meets &= w[a] > 0.0
                w[0] *= w[a]
            if mask is not None:
                meets &= mask
            vol = w[0]
            rows = acc.shape[1]
            meets = meets.reshape(-1, rows)
            real = prod[0] * vol
            vol *= prod[1]
            for plane, terms in zip(acc, (real, vol)):
                for term, m in zip(terms.reshape(-1, rows), meets):
                    np.add(plane, term, out=plane, where=m)
        finally:
            np.setbufsize(bufsize)


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
        _add_terms(
            acc,
            lower[:, i],
            upper[:, i],
            fp.lower[:, j],
            fp.upper[:, j],
            _products(values[:, i, None], fp.values[:, j]),
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
    if not all(map(math.isfinite, b)):
        raise PreconditionError(f"frequency must be finite, got {b}")
    acc = 0j
    for box, v in f.pieces:
        factor = 1 + 0j
        for lo, up, bj in zip(box.lower, box.upper, b):
            if bj == 0.0:
                factor *= up - lo
            else:
                tau = -2j * math.pi * bj
                at_up, at_lo = tau * up, tau * lo
                if not (cmath.isfinite(at_up) and cmath.isfinite(at_lo)):
                    raise PreconditionError(
                        f"the phase -2 pi i b x overflows at frequency {bj} on [{lo}, {up})"
                    )
                factor *= (cmath.exp(at_up) - cmath.exp(at_lo)) / tau
        acc += v * factor
    return acc


def scale(f: PiecewiseFn, c: complex) -> PiecewiseFn:
    """c f, refused where a product is not finite."""
    c = complex(c)
    if c == 0:
        return _build((), f.dimension)
    return _build(tuple((box, _value(v * c)) for box, v in f.pieces), f.dimension)


def canonicalize(pieces, dimension: Optional[int] = None) -> PiecewiseFn:
    """Merge an arbitrary (possibly overlapping) list of (Box, value) pieces
    into disjoint form.

    The piece endpoints induce an axis-aligned grid; overlapping values are
    summed per grid cell and exact-zero cells are dropped.  Pairings and norms
    of the result agree with the raw sum.  Pieces that cover more than
    _SITE_BUDGET grid cells in all are refused before any cell is summed.
    """
    raw = [(box, _value(v)) for box, v in pieces]
    if not raw:
        if dimension is None:
            raise PreconditionError("empty piece list needs an explicit dimension")
        return _build((), dimension)
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


# ---------------------------------------------------------------------------
# sampled closed-form functions

# name -> pointwise evaluator on a coordinate tuple
SAMPLER_CATALOG = {
    "gaussian": lambda x: math.exp(-sum(t * t for t in x)),
    "tent": lambda x: math.prod(max(0.0, 1.0 - abs(t)) for t in x),
}


def sample_catalog_function(name: str, step: float, support: Box) -> PiecewiseFn:
    """Midpoint-sample a catalog function onto a grid of side `step`; dyadic
    steps keep the cell endpoints exact.  A grid of more than _SITE_BUDGET
    cells is refused.
    """
    if name not in SAMPLER_CATALOG:
        raise PreconditionError(
            f"unknown catalog expression {name!r}; available: {sorted(SAMPLER_CATALOG)}"
        )
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise PreconditionError(f"grid step must be positive, got {step}")
    func = SAMPLER_CATALOG[name]
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
    return _build(tuple(pieces), support.dim)
