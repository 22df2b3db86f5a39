"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, in the assertions.
"""

import math
import time

import numpy as np

from lpdensity import (
    DichotomyConfig,
    ExponentPair,
    Generator,
    PiecewiseFn,
    PointSet,
    TranslateSystem,
    bessel_sum,
    blowup_witness,
    coefficient_sandwich_check,
    count_sandwich_violations,
    cq_indicator_sweep,
    decompose_separated,
    density_profile,
    dichotomy_report,
    dual_fn,
    expansion_norms,
    haar_fn,
    haar_indices_below,
    localized_mass,
    make_lattice,
    make_reciprocal,
    mass_decay_sweep,
    nu_plus,
    pair,
    pair_modulated,
    prop43_check,
    translate,
    union_point_sets,
)
from lpdensity.lpfunc import Box

from oracles import brute_nu_plus, interval, random_expansion, random_unit_fn

UNIT = interval(0, 1)


class Criterion:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit = limit_s
        self.t0 = time.perf_counter()
        self.checks = []

    def check(self, ok, what=""):
        self.checks.append((bool(ok), what))
        return ok

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        ok = all(c for c, _ in self.checks) and elapsed < self.limit
        status = "PASS" if ok else "FAIL"
        print(
            f"[ACCEPTANCE] criterion {self.number} ({self.title}): {status} "
            f"({len(self.checks)} checks, {elapsed:.2f}s / limit {self.limit:.0f}s)"
        )
        for good, what in self.checks:
            if not good:
                print(f"    failed: {what}")
        assert all(c for c, _ in self.checks), [w for c, w in self.checks if not c]
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s over limit {self.limit}s"


# ---------------------------------------------------------------------------


def test_criterion_1_lattice_density():
    c = Criterion(1, "lattice density within 5% of a^-d", 5.0)
    cases = [
        (make_lattice(1.0, 100, 1), [5.0, 10.0], 1.0),  # window/h >= 20
        (make_lattice(0.5, 50, 1), [2.5, 5.0], 2.0),
        (make_lattice(0.5, 20, 2), [1.0, 2.0], 4.0),
    ]
    for s, hs, expected in cases:
        prof = density_profile(s, hs)
        rel = abs(prof.density_estimate - expected) / expected
        c.check(rel <= 0.05, f"estimate {prof.density_estimate} vs {expected}")
    c.finish()


def test_criterion_2_nu_plus_oracle_equivalence():
    c = Criterion(2, "nu_plus equals brute-force anchor enumeration", 30.0)
    rng = np.random.default_rng(20240601)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        xs = np.unique(rng.uniform(-10, 10, size=n))
        s = PointSet(tuple((float(x),) for x in xs))
        h = float(rng.uniform(0.05, 3.0))
        oracle = brute_nu_plus(xs, h)  # brute force over every point anchor
        got = nu_plus(s, h)
        c.check(got.exact and got.lower == oracle, f"d=1 n={n} h={h}")
    for _ in range(50):
        n = int(rng.integers(2, 61))
        arr = rng.uniform(-5, 5, size=(n, 2))
        s = PointSet(tuple(tuple(row) for row in arr))
        h = float(rng.uniform(0.2, 3.0))
        oracle = brute_nu_plus(arr, h)  # brute force over every coordinate pair anchor
        got = nu_plus(s, h)
        c.check(got.exact and got.lower == oracle, f"d=2 n={n} h={h}")
    # independent fine-grid anchors can never beat the exact value
    for _ in range(10):
        n = int(rng.integers(2, 80))
        xs = np.unique(rng.uniform(-5, 5, size=n))
        s = PointSet(tuple((float(x),) for x in xs))
        h = float(rng.uniform(0.2, 2.0))
        grid = np.arange(-5.5, 5.5, h / 37)
        grid_max = max(int(((xs >= a) & (xs < a + h)).sum()) for a in grid)
        c.check(grid_max <= nu_plus(s, h).lower, "grid anchors exceed exact value")
    c.finish()


def test_criterion_3_density_dichotomy():
    c = Criterion(3, "reciprocal family explodes, lattice stays flat", 10.0)
    part_counts = []
    for n in (100, 200, 400):
        s = make_reciprocal(n)
        c.check(nu_plus(s, 1.0) == (n, n, True), f"nu_plus(1) != {n}")
        part_counts.append(decompose_separated(s, 0.01).part_count)
    c.check(
        part_counts[0] < part_counts[1] < part_counts[2],
        f"part counts not strictly increasing: {part_counts}",
    )
    lattice_nus = []
    lattice_parts = []
    for n in (100, 200, 400):
        s = make_lattice(1.0, n, 1)
        lattice_nus.append(nu_plus(s, 1.0).lower)
        lattice_parts.append(decompose_separated(s, 0.01).part_count)
    c.check(lattice_nus == [1, 1, 1], f"lattice nu_plus(1) drifted: {lattice_nus}")
    c.check(lattice_parts == [1, 1, 1], f"lattice part counts drifted: {lattice_parts}")
    c.finish()


def test_criterion_4_pairing_exactness():
    c = Criterion(4, "tent pairing to 1e-12, modulated vs 1e6-point Riemann to 1e-6", 10.0)
    rng = np.random.default_rng(20240604)
    worst = 0.0
    for x in rng.uniform(-1.5, 1.5, size=1000):
        got = pair(translate(UNIT, (float(x),)), UNIT)
        worst = max(worst, abs(got - max(0.0, 1.0 - abs(x))))
    c.check(worst <= 1e-12, f"tent pairing error {worst}")
    n = 1_000_000
    worst_mod = 0.0
    for _ in range(20):
        lo = float(rng.uniform(-2, 1))
        hi = lo + float(rng.uniform(0.1, 2.0))
        value = complex(rng.normal(), rng.normal())
        freq = float(rng.uniform(-4, 4))
        f = PiecewiseFn(((Box((lo,), (hi,)), value),), 1)
        xs = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
        riemann = value * np.exp(-2j * math.pi * freq * xs).sum() * (hi - lo) / n
        worst_mod = max(worst_mod, abs(pair_modulated(f, (freq,)) - riemann))
    c.check(worst_mod <= 1e-6, f"modulated vs Riemann error {worst_mod}")
    c.finish()


def test_criterion_5_indicator_sweep_mechanism():
    c = Criterion(5, "K_required = h^-1/2, slope 1/2, proof inequality", 5.0)
    sys_ = TranslateSystem(
        (Generator(UNIT, make_lattice(1.0, 20, 1), "Z"),), ExponentPair(2.0)
    )
    sweep = cq_indicator_sweep(sys_, [2.0**-k for k in range(2, 11)])
    for row in sweep.rows:
        c.check(
            abs(row.k_required - row.h**-0.5) <= 1e-9,
            f"K({row.h}) = {row.k_required} vs {row.h ** -0.5}",
        )
        c.check(
            row.p_power_sum <= row.q_norm**2 * row.localized_mass * (1 + 1e-12),
            f"proof inequality fails at h={row.h}",
        )
    c.check(abs(sweep.growth_exponent - 0.5) <= 0.01, f"slope {sweep.growth_exponent}")
    c.check(sweep.verdict == "divergent", f"verdict {sweep.verdict}")
    c.finish()


def test_criterion_6_localized_mass_tiling():
    c = Criterion(6, "tiling mass equals cube volume exactly; linear decay", 5.0)
    gen = Generator(UNIT, make_lattice(1.0, 30, 1), "Z")
    rng = np.random.default_rng(20240606)
    for _ in range(50):
        # dyadic centers and sides keep every overlap subtraction exact
        center = float(rng.integers(-10240, 10241)) / 1024.0
        side = float(rng.integers(103, 3073)) / 1024.0
        rep = localized_mass(gen, Box.cube((center,), side), 2.0)
        c.check(rep.total == side, f"mass {rep.total} != vol {side}")
    rows = mass_decay_sweep(gen, (0.25,), [2.0**-k for k in range(1, 10)], 2.0)
    for (_, a), (_, b) in zip(rows, rows[1:]):
        c.check(abs(b / a - 0.5) <= 1e-9, f"halving ratio {b / a}")
    c.check(rows[-1][1] < 0.01, "mass does not tend to zero")
    c.finish()


def test_criterion_7_blowup_witness():
    c = Criterion(7, "witness bound >= 0.2 N and below the direct Bessel sum", 10.0)
    for n in (100, 200, 400):
        gamma = PointSet(tuple((k / n,) for k in range(n)))
        w = blowup_witness(UNIT, UNIT, gamma, 0.5, 2.0)
        c.check(w.sum_lower_bound >= 0.2 * n, f"N={n}: bound {w.sum_lower_bound}")
        sys_ = TranslateSystem((Generator(UNIT, gamma, "g"),), ExponentPair(2.0))
        direct = bessel_sum(sys_, translate(UNIT, w.beta), 2.0)
        c.check(w.sum_lower_bound <= direct, f"N={n}: bound exceeds direct sum")
    c.finish()


def test_criterion_8_dichotomy_suite():
    c = Criterion(8, "no system reports both horns bounded", 60.0)
    wide = interval(0, 2)
    gauss_like = interval(-0.5, 0.5, 1.5)
    shifted_union = union_point_sets(
        [("Z", make_lattice(1.0, 20, 1)), ("Z+0.3", _shifted_lattice(0.3, 20))]
    )
    systems = {
        "integer lattice": TranslateSystem(
            (Generator(UNIT, make_lattice(1.0, 20, 1), "Z"),), ExponentPair(2.0)
        ),
        "half lattice p=1.5": TranslateSystem(
            (Generator(wide, make_lattice(0.5, 20, 1), "halfZ"),), ExponentPair(1.5)
        ),
        "shifted union": TranslateSystem(
            (Generator(UNIT, shifted_union, "union"),), ExponentPair(2.0)
        ),
        "reciprocal": TranslateSystem(
            (Generator(UNIT, make_reciprocal(100), "recip"),), ExponentPair(2.0)
        ),
        "two generators": TranslateSystem(
            (
                Generator(UNIT, make_lattice(1.0, 20, 1), "Z"),
                Generator(wide, _shifted_lattice(0.25, 20), "Z+q"),
            ),
            ExponentPair(2.0),
        ),
        "lattice + reciprocal": TranslateSystem(
            (
                Generator(gauss_like, make_lattice(1.0, 20, 1), "Z"),
                Generator(UNIT, make_reciprocal(100), "recip"),
            ),
            ExponentPair(2.0),
        ),
    }
    lattice_cfg = DichotomyConfig(
        truncation_radii=(5, 10, 20),
        sweep_h_values=tuple(2.0**-k for k in range(2, 9)),
        p_prime=2.0,
    )
    recip_cfg = DichotomyConfig(
        truncation_radii=(100, 200, 400),
        sweep_h_values=(0.25, 0.125),
        p_prime=2.0,
    )
    for name, sys_ in systems.items():
        cfg = recip_cfg if "recip" in name or "reciprocal" in name else lattice_cfg
        rep = dichotomy_report(sys_, cfg)
        c.check(
            not (rep.bessel_bounded and rep.cq_bounded is True),
            f"{name}: both horns reported bounded",
        )
        c.check(rep.dichotomy_holds, f"{name}: no divergent horn found ({rep.horn})")
        if rep.subadditivity_rows:
            c.check(rep.subadditivity_holds, f"{name}: subadditivity row failed")
        if "union" in name or "two" in name or "+" in name:
            c.check(bool(rep.subadditivity_rows), f"{name}: union rows missing")
    c.finish()


def _shifted_lattice(offset, window):
    return make_lattice(1.0, window, 1, offset=(offset,))


def test_criterion_9_haar_suite():
    c = Criterion(9, "Haar: biorthogonality, isometry, sandwich, prop checks", 60.0)
    # biorthogonality up to level 6: off-diagonals exactly zero (dyadic
    # cancellation), diagonals within 1e-12 of 1
    for p in (1.5, 2.0, 3.0):
        idxs = haar_indices_below(7)
        fns = [haar_fn(i, p) for i in idxs]
        duals = [dual_fn(i, p) for i in idxs]
        off = 0.0
        diag = 0.0
        for a, g in enumerate(duals):
            for b, f in enumerate(fns):
                v = pair(g, f)
                if a == b:
                    diag = max(diag, abs(v - 1))
                else:
                    off = max(off, abs(v))
        c.check(off == 0.0, f"p={p}: off-diagonal leak {off}")
        c.check(diag <= 1e-12, f"p={p}: diagonal error {diag}")

    rng = np.random.default_rng(20240609)
    worst = 0.0
    for _ in range(1000):
        e = random_expansion(rng, int(rng.integers(1, 13)))
        l2 = math.sqrt(sum(abs(v) ** 2 for _, v in e.terms))
        worst = max(worst, abs(expansion_norms([e], 2.0)[0] - l2))
    c.check(worst <= 1e-12, f"p=2 isometry error {worst}")

    # sandwich: fit on one batch, zero violations on a held-out batch.  The
    # 1.1 headroom covers the few-percent spread between independent batch
    # maxima (both estimate the same supremum); raw constants must agree
    # within a factor of 2 across batches.
    for p in (1.5, 3.0):
        batch_a = [random_expansion(np.random.default_rng(3000 + i), 16) for i in range(1000)]
        batch_b = [random_expansion(np.random.default_rng(7000 + i), 16) for i in range(1000)]
        fit_a = coefficient_sandwich_check(batch_a, p)
        fit_b = coefficient_sandwich_check(batch_b, p)
        viol = count_sandwich_violations(
            fit_b.rows, fit_a.lower_constant, fit_a.upper_constant, headroom=1.1
        )
        c.check(viol == 0, f"p={p}: {viol} held-out violations")
        for x, y in (
            (fit_a.lower_constant, fit_b.lower_constant),
            (fit_a.upper_constant, fit_b.upper_constant),
        ):
            c.check(max(x / y, y / x) < 2.0, f"p={p}: constants unstable {x} vs {y}")

    tests = [random_unit_fn(rng) for _ in range(50)]
    for p in (1.5, 3.0):
        r8 = prop43_check(p, 8, tests)
        r10 = prop43_check(p, 10, tests)
        c.check(
            abs(r10.max_bessel_ratio - r8.max_bessel_ratio) <= 0.2 * r8.max_bessel_ratio,
            f"p={p}: Bessel ratio drift {r8.max_bessel_ratio} -> {r10.max_bessel_ratio}",
        )
        c.check(
            abs(r10.max_k_required - r8.max_k_required) <= 0.2 * r8.max_k_required,
            f"p={p}: K_required drift {r8.max_k_required} -> {r10.max_k_required}",
        )
    c.finish()
