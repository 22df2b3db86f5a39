"""Reference implementations that the fast paths are checked against.

Each oracle is the plain code a fast path replaced, or a direct count from
the definition: per-site loops and scans, brute-force window maxima, the
per-point site-set constructions, the scalar witness, and the Haar norms
taken on the built step function.  They are defined here once and imported
by every test module that needs them, along with the few small builders
and random draws the modules share.
"""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np

from lpdensity import (
    Box,
    HaarBatch,
    HaarIndex,
    PiecewiseFn,
    PointSet,
    PreconditionError,
    build_expansion_fn,
    indicator,
    lp_norm,
    lp_norm_pow,
    pair,
    restrict,
    translate,
)
from lpdensity.haar_uncond import SandwichRow, _cut_grid, _level_offset, sign_pattern_count
from lpdensity.pointset import SeparationReport, grid_occupancy


# ---------------------------------------------------------------------------
# builders


def bits(z) -> bytes:
    """The bits of z as a complex number, so that 0.0 and -0.0 differ."""
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def line_set(*xs) -> PointSet:
    return PointSet(tuple((x,) for x in xs))


def interval(lo, hi, value=1.0) -> PiecewiseFn:
    """value times the indicator of [lo, hi), on the line."""
    return indicator(Box((lo,), (hi,)), value)


def point_set_spec(s: PointSet) -> dict:
    """An explicit-rows descriptor that round-trips through ingest_points."""
    return {"kind": "explicit", "rows": s.as_array.tolist()}


def function_spec(f: PiecewiseFn) -> dict:
    """A pieces spec that round-trips through ingest_function."""
    pieces = [
        {"lower": list(box.lower), "upper": list(box.upper), "re": v.real, "im": v.imag}
        for box, v in f.pieces
    ]
    return {"dimension": f.dimension, "pieces": pieces}


def random_unit_fn(rng, cuts=6) -> PiecewiseFn:
    """Complex normal values between `cuts` sorted uniform points of [0, 1)."""
    xs = np.sort(rng.uniform(0.0, 1.0, size=cuts))
    pieces = [
        (Box((float(a),), (float(b),)), complex(rng.normal(), rng.normal()))
        for a, b in zip(xs, xs[1:])
        if b > a
    ]
    return PiecewiseFn(tuple(pieces), 1)


def batch_of(mappings) -> HaarBatch:
    """The HaarBatch of {HaarIndex: coefficient} mappings, a row each: key
    2^j + k for the index (j, k), 0 for the constant."""
    mappings = list(mappings)
    width = max([len(m) for m in mappings] + [0])
    keys = np.zeros((len(mappings), width), dtype=np.int64)
    coeffs = np.zeros((len(mappings), width), dtype=complex)
    for r, m in enumerate(mappings):
        keys[r, : len(m)] = [0 if i.is_constant else (1 << i.level) + i.offset for i in m]
        coeffs[r, : len(m)] = list(m.values())
    return HaarBatch(keys, coeffs)


def rows_of(batch: HaarBatch) -> list:
    """The {HaarIndex: coefficient} mapping of each row, in key order."""
    return [
        {HaarIndex(*_level_offset(key)): c for key, c in zip(keys, coeffs) if key >= 0}
        for keys, coeffs in zip(batch.keys.tolist(), batch.coeffs.tolist())
    ]


def stack(batches) -> HaarBatch:
    """One HaarBatch of the rows of every batch, in turn."""
    return batch_of(m for b in batches for m in rows_of(b))


def same_batch(a: HaarBatch, b: HaarBatch) -> bool:
    """Equal keys and coefficients with the same bits."""
    return np.array_equal(a.keys, b.keys) and a.coeffs.tobytes() == b.coeffs.tobytes()


def expansion_from_draws(draws, terms) -> HaarBatch:
    """The per-term loop: take (level, offset, re, im) draws until `terms`
    distinct indices are held, a repeated index keeping the coefficient drawn
    last.  One row."""
    coeffs = {}
    for level, offset, re, im in draws:
        coeffs[HaarIndex(level, offset)] = complex(re, im)
        if len(coeffs) == terms:
            break
    return batch_of([coeffs])


def block_draws(rng, terms, count):
    """(batch, blocks): the per-row loop of expansion_from_draws over the
    draws of count rows, made in blocks as the command line makes them: one
    row of 2 terms draws for each row still short of terms indices, a short
    row carrying on into the next block."""
    rows = [{} for _ in range(count)]
    short = list(range(count))
    blocks = 0
    while short:
        blocks += 1
        levels = rng.integers(0, 6, size=(len(short), 2 * terms))
        offsets = rng.integers(0, 1 << levels)
        normals = rng.normal(size=(len(short), 2 * terms, 2))
        for r, row_levels, row_offsets, row_normals in zip(
            short, levels.tolist(), offsets.tolist(), normals.tolist()
        ):
            for j, k, (re, im) in zip(row_levels, row_offsets, row_normals):
                rows[r][HaarIndex(j, k)] = complex(re, im)
                if len(rows[r]) == terms:
                    break
        short = [r for r in short if len(rows[r]) < terms]
    return batch_of(rows), blocks


def random_expansion(rng, terms, max_level=6) -> HaarBatch:
    """expansion_from_draws over scalar draws of rng: level, offset, re, im."""

    def draws():
        while True:
            j = int(rng.integers(0, max_level))
            yield j, int(rng.integers(0, 2**j)), rng.normal(), rng.normal()

    return expansion_from_draws(draws(), terms)


# ---------------------------------------------------------------------------
# site sets: the per-point constructions


def tuple_lattice(spacing, window, dimension, offset):
    off = tuple(offset) if offset is not None else (0.0,) * dimension
    kmax = int(math.ceil((window + max(abs(o) for o in off)) / spacing)) + 1
    axes = [
        [k * spacing + o for k in range(-kmax, kmax + 1) if abs(k * spacing + o) <= window]
        for o in off
    ]
    return list(itertools.product(*axes))


def tuple_lattice_basis(basis, window, offset):
    d = len(basis)
    off = np.array(offset, dtype=float) if offset is not None else np.zeros(d)
    mat = np.array(basis, dtype=float).T
    inv = np.linalg.inv(mat)
    bounds = [
        int(math.ceil((window + float(np.abs(off).max())) * np.abs(inv[i]).sum())) + 1
        for i in range(d)
    ]
    pts = []
    for n in itertools.product(*(range(-b, b + 1) for b in bounds)):
        x = mat @ np.array(n, dtype=float) + off
        if np.all(np.abs(x) <= window):
            pts.append(tuple(float(v) for v in x))
    pts.sort()
    return pts


def tuple_duplicate_message(rows):
    seen = {}
    for i, coords in enumerate(rows):
        if coords in seen:
            return f"duplicate point {coords} at positions {seen[coords]} and {i}"
        seen[coords] = i
    return None


def tuple_union(members):
    seen = set()
    pts = []
    for rows in members:
        for coords in rows:
            if coords not in seen:
                seen.add(coords)
                pts.append(coords)
    pts.sort()
    return pts


# ---------------------------------------------------------------------------
# geometry: windows, gaps and the per-site scans


def brute_nu_plus(rows, h) -> int:
    """Largest count over the windows [a, a + h)^d anchored at every tuple of
    site coordinates, one per axis."""
    arr = np.array(rows, dtype=float).reshape(len(rows), -1)
    best = 0
    for anchor in itertools.product(*(np.unique(col) for col in arr.T)):
        a = np.array(anchor)
        best = max(best, int(np.all((arr >= a) & (arr < a + h), axis=1).sum()))
    return best


def slab_anchors(rows, h):
    """(count, centre) of every window anchored at an x coordinate and at a y
    coordinate of a site in that x slab, by direct counting."""
    out = []
    for ax in sorted({x for x, _ in rows}):
        slab = sorted({y for x, y in rows if ax <= x < ax + h})
        for ay in slab:
            count = sum(1 for x, y in rows if ax <= x < ax + h and ay <= y < ay + h)
            out.append((count, (ax + h / 2, ay + h / 2)))
    return out


def anchor_windows(rows, h):
    """(count, centre) of every window anchored at site coordinates, in scan
    order, by direct counting: [x, x + h) for each site x in ascending order
    in 1-d, slab_anchors in 2-d."""
    if len(rows[0]) == 2:
        return slab_anchors(rows, h)
    xs = sorted(x for (x,) in rows)
    return [(sum(1 for y in xs if x <= y < x + h), (x + h / 2,)) for x in xs]


def top_windows(windows, limit):
    """The first `limit` (count, centre) pairs by count descending, then
    centre lexicographically; Python's sort is stable, so ties keep their
    scan order."""
    return sorted(windows, key=lambda w: (-w[0], w[1]))[:limit]


def min_gap(rows) -> float:
    """sqrt of the least squared distance over all pairs of distinct rows,
    in blocks of 512 rows."""
    arr = np.array(rows, dtype=float)
    best = math.inf
    chunk = 512
    for i0 in range(0, len(arr), chunk):
        block = arr[i0 : i0 + chunk]
        d2 = ((block[:, None, :] - arr[None, :, :]) ** 2).sum(axis=-1)
        for r in range(block.shape[0]):
            d2[r, i0 + r] = np.inf
        best = min(best, float(d2.min()))
    return math.sqrt(best)


def centred_counts(arr, h):
    """For each row, the rows in the half-open cube of side h centred on it."""
    counts = np.empty(len(arr), dtype=int)
    step = max(1, 1024 // arr.size)
    for i in range(0, len(arr), step):
        lows = arr[i : i + step, None, :] - h / 2
        counts[i : i + step] = np.all((arr >= lows) & (arr < lows + h), axis=2).sum(axis=1)
    return counts


def scan_decompose_separated(s, delta):
    n = len(s)
    arr = s.as_array
    gap = min_gap(arr) if n >= 2 else None
    if n >= 2 and not 0.0 < gap < math.inf:
        raise PreconditionError(
            f"the separation of the sites reads {gap} in double precision, "
            "so the report has no minimum gap"
        )
    d2_min = delta * delta
    parts = []  # (index list, coordinate row list)
    for i in s.order.tolist():
        row = arr[i]
        for idxs, rows in parts:
            d2 = ((np.array(rows) - row) ** 2).sum(axis=1)
            if float(d2.min()) >= d2_min:
                idxs.append(i)
                rows.append(row)
                break
        else:
            parts.append(([i], [row]))
    return SeparationReport(
        min_gap=gap,
        delta=delta,
        part_count=len(parts),
        parts=tuple(tuple(sorted(idxs)) for idxs, _ in parts),
    )


def scan_detect_accumulation(s, radius, threshold):
    arr = s.as_array
    r2 = radius * radius
    out = []
    for i in range(len(s)):
        d2 = ((arr - arr[i]) ** 2).sum(axis=1)
        if int((d2 < r2).sum()) - 1 >= threshold:
            out.append(tuple(arr[i].tolist()))
    return out


def brute_bands(xs, r2):
    # the band as numpy's array square decides it, as the scans did; r2 > 0
    a, b = [], []
    for i in range(xs.size):
        inside = np.flatnonzero((xs - xs[i]) ** 2 < r2)
        assert inside.tolist() == list(range(inside.min(), inside.max() + 1))  # one run
        a.append(int(inside.min()))
        b.append(int(inside.max()) + 1)
    return a, b


def scan_candidates(gamma, h, limit):
    """Witness candidates: the top anchored windows (the occupied grid cubes
    in d >= 3), then the top site-centred windows counted by centred_counts."""
    rows = gamma.points
    if gamma.dimension > 2:
        anchored = [(c, tuple(k * h for k in key)) for key, c in grid_occupancy(gamma, h).items()]
    else:
        anchored = anchor_windows(rows, h)
    centred = list(zip(centred_counts(gamma.as_array, h).tolist(), rows))
    ranked = top_windows(anchored, limit) + top_windows(centred, limit)
    return list(dict.fromkeys(c for _, c in ranked))


def exact_chromatic(coords, delta):
    """Exact chromatic number of the conflict graph (distance < delta), n <= 16."""
    n = len(coords)
    adj = [
        [math.dist(coords[i], coords[j]) < delta for j in range(n)] for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: -sum(adj[i]))

    def feasible(k):
        colors = [-1] * n

        def rec(pos, used_max):
            if pos == n:
                return True
            v = order[pos]
            taken = {colors[u] for u in range(n) if colors[u] >= 0 and adj[v][u]}
            for c in range(min(k, used_max + 2)):
                if c in taken:
                    continue
                colors[v] = c
                if rec(pos + 1, max(used_max, c)):
                    return True
                colors[v] = -1
            return False

        return rec(0, -1)

    for k in range(1, n + 1):
        if feasible(k):
            return k
    return n


# ---------------------------------------------------------------------------
# calculus: step functions and the per-site loops over translates


def first_overlap(pieces):
    """The all-pairs overlap test, oracle of PiecewiseFn's bisection: the
    message for the first overlapping pair of the sorted pieces, or None."""
    kept = sorted(((b, v) for b, v in pieces if v != 0), key=lambda bv: (bv[0].lower, bv[0].upper))
    for i, (bi, _) in enumerate(kept):
        for bj, _ in kept[i + 1 :]:
            if bi.overlap_volume(bj) > 0.0:
                return (
                    f"overlapping pieces {bi.lower}..{bi.upper} and {bj.lower}..{bj.upper}; "
                    "use canonicalize() to merge raw piece lists"
                )
    return None


def fraction_pair(h, f, h_shift=None, f_shift=None):
    """<T_h_shift h, T_f_shift f> in exact rationals, as (real part,
    imaginary part) Fractions: the oracle of pair, translate and
    cross_pairings on dyadic inputs, where a float loop built on the same
    formulas would share an error in them.  A shift of None is no shift."""

    def exact_pieces(fn, shift):
        off = [Fraction(0)] * fn.dimension if shift is None else [Fraction(float(x)) for x in shift]
        return [
            (
                [Fraction(a) + o for a, o in zip(box.lower, off)],
                [Fraction(b) + o for b, o in zip(box.upper, off)],
                Fraction(v.real),
                Fraction(v.imag),
            )
            for box, v in fn.pieces
        ]

    re = im = Fraction(0)
    for h_lo, h_up, a, b in exact_pieces(h, h_shift):
        for f_lo, f_up, c, d in exact_pieces(f, f_shift):
            axes = zip(h_lo, h_up, f_lo, f_up)
            vol = math.prod(max(min(x1, y1) - max(x0, y0), 0) for x0, x1, y0, y1 in axes)
            # (a + bi) * conj(c + di)
            re += (a * c + b * d) * vol
            im += (b * c - a * d) * vol
    return re, im


def fraction_norm_pow(f, p: int):
    """sum |v|^p vol in exact rationals, for real values and a whole p: the
    oracle of lp_norm_pow on dyadic inputs (abs of a complex value rounds)."""
    total = Fraction(0)
    for box, v in f.pieces:
        assert v.imag == 0
        vol = math.prod(Fraction(b) - Fraction(a) for a, b in zip(box.lower, box.upper))
        total += abs(Fraction(v.real)) ** p * vol
    return total


def fraction_abs_pow(re, im, p: int):
    """|re + i im|^p in exact rationals for a whole p; an odd p takes a real
    value, whose modulus alone is rational."""
    if p % 2:
        assert im == 0
        return abs(re) ** p
    return (re * re + im * im) ** (p // 2)


def fraction_bessel_sum(sys, h, p_prime: int = 2):
    """sum_k sum_gamma |<h, T_gamma f_k>|^p_prime in exact rationals, for a
    whole p_prime: the oracle of bessel_sum on dyadic inputs."""
    total = Fraction(0)
    for gen in sys.generators:
        for site in gen.gamma.points:
            total += fraction_abs_pow(*fraction_pair(h, gen.f, None, site), p_prime)
    return total


def fraction_mass(sys, region, p: int = 2):
    """sum_k sum_gamma ||restrict(T_gamma f_k, region)||_p^p in exact
    rationals, for a whole p: the oracle of system_localized_mass on dyadic
    inputs."""
    total = Fraction(0)
    for gen in sys.generators:
        for site in gen.gamma.points:
            for box, v in gen.f.pieces:
                axes = zip(box.lower, box.upper, site, region.lower, region.upper)
                sides = [
                    min(Fraction(b) + Fraction(x), Fraction(rb)) - max(Fraction(a) + Fraction(x), Fraction(ra))
                    for a, b, x, ra, rb in axes
                ]
                vol = math.prod(max(side, 0) for side in sides)
                total += fraction_abs_pow(Fraction(v.real), Fraction(v.imag), p) * vol
    return total


def box_translated(box, offset):
    """Box.translate as the library had it, the oracle of translate's corners
    and refusals: the offset re-read per box, and every corner re-checked by
    the Box constructor."""
    off = tuple(float(o) for o in offset)
    return Box(
        tuple(a + o for a, o in zip(box.lower, off)),
        tuple(b + o for b, o in zip(box.upper, off)),
    )


def riemann_value(f, xs):
    """Pointwise evaluation at sample points, independent of pair(): xs is
    a 1-d grid of the line or an (n, d) array of points."""
    pts = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    vals = np.zeros(len(pts), dtype=complex)
    for box, v in f.pieces:
        vals[np.all((pts >= box.lower) & (pts < box.upper), axis=1)] += v
    return vals


def shift_overlaps(f_box, site, target):
    for lo, up, g, tlo, tup in zip(f_box.lower, f_box.upper, site, target.lower, target.upper):
        if lo + g >= tup or up + g <= tlo:
            return False
    return True


def loop_sites(gen, target):
    """The sites kept by the per-site prefilter, in lexicographic order."""
    return [
        site
        for site in sorted(gen.gamma.points)
        if shift_overlaps(gen.f.support_box, site, target)
    ]


def loop_power_sum(sys, test, exponent):
    total = 0.0
    for gen in sys.generators:
        for site in loop_sites(gen, test.support_box):
            v = pair(test, translate(gen.f, site))
            if v != 0:
                total += abs(v) ** exponent
    return total


def loop_mass(gen, region, p):
    total = 0.0
    for site in loop_sites(gen, Box(region.lower, region.upper)):
        total += lp_norm_pow(restrict(translate(gen.f, site), region), p)
    return total


def scalar_grid_side(f, f_dual, epsilon):
    """The witness's epsilon-grid search with one scalar pair per grid point."""
    d = f.dimension
    step = min(f.min_piece_side, f_dual.min_piece_side) / 4.0
    fb, db = f.support_box, f_dual.support_box
    reach = max(
        max(abs(db.lower[j] - fb.upper[j]), abs(db.upper[j] - fb.lower[j])) for j in range(d)
    )
    kmax = max(1, int(math.ceil(reach / step)))

    def ok(m):
        rng = range(-(m // 2), m - m // 2)
        keys = [()]
        for _ in range(d):
            keys = [key + (k,) for key in keys for k in rng]
        return all(
            abs(pair(translate(f, tuple(k * step for k in key)), f_dual)) > epsilon
            for key in keys
        )

    lo, hi = 1, 2 * kmax
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid - 1)
    return lo * step


def scalar_count(f, f_dual, gamma, beta, epsilon):
    """The per-site loop: one translated copy and one scalar pair per site."""
    t_dual = translate(f_dual, beta)
    return sum(1 for site in gamma.points if abs(pair(translate(f, site), t_dual)) > epsilon)


def budgeted_lsq_error(fns, target, budget):
    """The least error ||target - sum a_i f_i|| over coefficients with
    ||a||_2 <= budget, by a ridge parameter found in bisection (p = 2)."""
    n = len(fns)
    gram = np.array([[pair(fj, fi) for fj in fns] for fi in fns])
    b = np.array([pair(target, fi) for fi in fns])
    t2 = pair(target, target).real

    def err_at(a):
        val = t2 - 2 * (np.conj(a) @ b).real + (np.conj(a) @ gram @ a).real
        return math.sqrt(max(0.0, val))

    a_free, *_ = np.linalg.lstsq(gram, b, rcond=None)
    if np.linalg.norm(a_free) <= budget:
        return err_at(a_free)
    lo, hi = 0.0, 1.0
    while np.linalg.norm(np.linalg.solve(gram + hi * np.eye(n), b)) > budget:
        hi *= 2
        if hi > 1e12:
            break
    for _ in range(200):
        mid = (lo + hi) / 2
        if np.linalg.norm(np.linalg.solve(gram + mid * np.eye(n), b)) > budget:
            lo = mid
        else:
            hi = mid
    return err_at(np.linalg.solve(gram + hi * np.eye(n), b))


# ---------------------------------------------------------------------------
# Haar expansions, every norm taken on the built step function


def built_norm(row, p) -> float:
    """The norm of a one-row batch, taken on its built step function."""
    return lp_norm(build_expansion_fn(row, p), p)


def cell_loop_norms(batch, p) -> list:
    """expansion_norms of a whole batch as one tile, by the loop its tiles
    ran before their scratch was reused: a new cell array per term, and
    Python's abs and ** cell by cell, skipping empty and zero cells.  A norm
    past the double range is refused with expansion_norms's message."""
    p = float(p)
    widths, values = _cut_grid(batch.keys, p)
    cells = np.zeros(widths.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, s in zip(batch.coeffs.T, values):
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
        if not math.isfinite(total):
            raise PreconditionError(f"the Lp norm of an expansion at p = {p} overflows double precision")
        norms.append(total ** (1.0 / p))
    return norms


def built_row(row, p) -> SandwichRow:
    """The sandwich row of a one-row batch, its flanks summed by numpy over
    the row's terms alone."""
    a = np.array(row.coeffs[0])
    l2 = float(np.sqrt((np.abs(a) ** 2).sum()))
    lp = float(((np.abs(a) ** p).sum()) ** (1.0 / p))
    mid = built_norm(row, p)
    return SandwichRow(l2, mid, lp) if p <= 2 else SandwichRow(lp, mid, l2)


def built_ratio(row, p) -> float:
    """The largest sign-pattern norm ratio of a one-row batch, over every
    pattern."""
    signed = (
        HaarBatch(row.keys, row.coeffs * np.array(signs))
        for signs in itertools.product((1, -1), repeat=row.keys.shape[1])
    )
    return max(built_norm(e, p) for e in signed) / built_norm(row, p)


def product_estimate(
    batch,
    p: float,
    trials: int,
    seed: int = 0,
) -> float:
    """unconditional_constant_estimate with every sign pattern of an
    expansion in one (patterns x terms) @ (terms x cells) product, the plain
    code its tiles replaced.  Patterns are enumerated up to 12 terms, else
    `trials` of them are drawn from the seed; sign_pattern_count sizes every
    expansion before any is evaluated."""
    p = float(p)
    trials = int(trials)
    if not len(batch):
        raise PreconditionError("need at least one expansion")
    sizes = batch.sizes.tolist()
    counts = [sign_pattern_count(n, trials) for n in sizes]
    rng = np.random.default_rng(seed)
    best = 1.0
    for r, (n, rows) in enumerate(zip(sizes, counts)):
        a = np.array(batch.coeffs[r, :n])
        widths, values = _cut_grid(batch.keys[r : r + 1, :n], p)
        m = np.concatenate(list(values))  # (terms, cells)
        if n <= 12:
            # row r's signs are the bits of r < 2^(n-1): the first is always +1
            bits = np.arange(rows)[:, None] >> np.arange(n - 1, -1, -1)
            patterns = 1.0 - 2.0 * (bits & 1)
        else:
            patterns = rng.choice((1.0, -1.0), size=(rows, n))
        # a norm past the double range would make the ratios inf / inf = nan
        with np.errstate(over="ignore", invalid="ignore"):
            base = float(((np.abs(a @ m) ** p) * widths[0]).sum() ** (1.0 / p))
            norms = ((np.abs((patterns * a) @ m) ** p) * widths[0]).sum(axis=1) ** (1.0 / p)
        if not (math.isfinite(base) and np.isfinite(norms).all()):
            raise PreconditionError(
                f"the Lp norm of a sign-flipped expansion at p = {p} overflows double precision"
            )
        best = max(best, float(norms.max()) / base)
    return best
