"""Experiment runner.

    lpdensity <command> --spec FILE [--out DIR] [--seed INT]

Commands: density, separate, pair, bessel, blowup-witness, cq-sweep,
localized-mass, mass-decay, haar-check, dichotomy, and `run` (command taken
from the spec file; a list spec chains several analyses).  Each run writes
<out>/<command>_report.json plus CSV tables where the analysis has one.

Exit codes: 0 success, 2 unresolvable input or an unwritable report,
3 precondition violation, 4 a declared verdict check failed.
"""

import argparse
import cmath
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError, PreconditionError
from .haar_uncond import (
    _INDEX_BUDGET,
    _SLACK,
    HaarBatch,
    burkholder_constant,
    coefficient_sandwich_check,
    count_sandwich_violations,
    dual_fn,
    haar_indices_below,
    haar_pairings,
    prop43_check,
    sign_pattern_count,
    unconditional_constant_estimate,
)
from .io import (
    Inputs,
    _cube_spec_box,
    _generator,
    _need,
    _need_floats,
    _need_int,
    _need_list,
    _need_object,
    _number,
    emit_json,
    ingest_function,
    ingest_points,
    ingest_system,
    write_csv,
)
# pair stays bound here: bench/tracing.py wraps cli.pair by name
from .lpfunc import Box, ExponentPair, PiecewiseFn, _power, cross_pairings, pair, pair_modulated, translate
from .pointset import decompose_separated, density_profile
from .translate_system import (
    DichotomyConfig,
    Generator,
    TranslateSystem,
    bessel_bound_estimate,
    bessel_sum,
    blowup_witness,
    cq_indicator_sweep,
    dichotomy_report,
    localized_mass,
    mass_decay_sweep,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERDICT = 4


class _RunContext:
    def __init__(self, inputs: Inputs, out_dir: Path, seed):
        self.inputs = inputs
        self.out_dir = out_dir
        self.seed = seed

    def rng(self):
        if self.seed is None:
            raise PreconditionError("this analysis samples randomly: a seed is mandatory")
        return np.random.default_rng(self.seed)


# ---------------------------------------------------------------------------
# command handlers: each returns (outputs, verdicts, csv_artifacts)


def _cmd_density(spec, ctx):
    points = ingest_points(_need(spec, "points"), ctx.inputs)
    profile = density_profile(points, _need_floats(spec, "h_values"))
    rows = [
        (r.h, r.nu_lower, r.nu_upper, r.ratio_lower, r.ratio_upper) for r in profile.rows
    ]
    csvs = {
        "density_profile.csv": (
            ("h", "nu_lower", "nu_upper", "ratio_lower", "ratio_upper"),
            rows,
        )
    }
    return {"profile": profile, "size": len(points)}, {}, csvs


def _cmd_separate(spec, ctx):
    points = ingest_points(_need(spec, "points"), ctx.inputs)
    report = decompose_separated(points, _number(spec, "delta"))
    return {"separation": report}, {}, {}


def _cmd_pair(spec, ctx):
    h = ingest_function(_need(spec, "h"), ctx.inputs)
    if "freq" in spec:
        key, value = "modulated_pairing", pair_modulated(h, _need_floats(spec, "freq"))
    else:
        # the kernel's one entry at shift 0 has the bits of pair(h, f), in
        # time near linear in the pieces where pair takes their product
        f = ingest_function(_need(spec, "f"), ctx.inputs)
        key, value = "pairing", complex(cross_pairings(h, f, np.zeros((1, h.dimension)))[0])
    if not cmath.isfinite(value):  # a product or a sum past the double range
        raise PreconditionError(f"the {key.replace('_', ' ')} reads {value} in double precision")
    return {key: value}, {}, {}


def _cmd_bessel(spec, ctx):
    sys_ = ingest_system(_need(spec, "system"), ctx.inputs)
    tests = [ingest_function(t, ctx.inputs) for t in _need_list(spec, "tests")]
    est = bessel_bound_estimate(sys_, tests, _number(spec, "p_prime"))
    return {"bessel": est}, {}, {}


def _cmd_blowup(spec, ctx):
    f = ingest_function(_need(spec, "f"), ctx.inputs)
    f_dual = ingest_function(_need(spec, "f_dual"), ctx.inputs)
    gamma = ingest_points(_need(spec, "points"), ctx.inputs)
    p_prime = _number(spec, "p_prime")
    p = ExponentPair(_number(spec, "p", 2.0))  # refused before the witness's scan
    witness = blowup_witness(f, f_dual, gamma, _number(spec, "epsilon"), p_prime)
    system = TranslateSystem((Generator(f, gamma, "gen"),), p)
    direct = bessel_sum(system, translate(f_dual, witness.beta), p_prime)
    verdicts = {"witness_sound": witness.sum_lower_bound <= direct}
    return {"witness": witness, "direct_bessel_sum": direct}, verdicts, {}


def _cmd_cq_sweep(spec, ctx):
    sys_ = ingest_system(_need(spec, "system"), ctx.inputs)
    sweep = cq_indicator_sweep(sys_, _need_floats(spec, "h_values"))
    # Holder: sum <= ||chi||_q^p * mass; a power past the double range reads
    # inf, and a zero sum holds, as inf * 0 would read nan
    ok = all(
        r.p_power_sum == 0.0
        or r.p_power_sum <= _power(r.q_norm, sys_.p.p) * r.localized_mass * (1 + 1e-12)
        for r in sweep.rows
    )
    rows = [
        (r.h, r.q_norm, r.p_power_sum, r.k_required, r.localized_mass) for r in sweep.rows
    ]
    csvs = {
        "cq_sweep.csv": (
            ("h", "q_norm", "p_power_sum", "K_required", "localized_mass"),
            rows,
        )
    }
    return {"sweep": sweep}, {"proof_inequality": ok}, csvs


def _cmd_localized_mass(spec, ctx):
    gen = _generator(_need(spec, "generator"), ctx.inputs, "gen")
    cube = _need(spec, "cube")
    report = localized_mass(gen, _cube_spec_box(cube), _number(spec, "p"))
    verdicts = {}
    if report.finiteness_bound is not None:
        verdicts["mass_within_bound"] = report.total <= report.finiteness_bound.value
    echo = {"center": _need_floats(cube, "center"), "side": _number(cube, "side")}
    return {"localized_mass": {**vars(report), "cube": echo}}, verdicts, {}


def _cmd_mass_decay(spec, ctx):
    gen = _generator(_need(spec, "generator"), ctx.inputs, "gen")
    rows = mass_decay_sweep(
        gen,
        _need_floats(spec, "x"),
        _need_floats(spec, "h_values"),
        _number(spec, "p"),
    )
    verdicts = {"monotone": all(b <= a for (_, a), (_, b) in zip(rows, rows[1:]))}
    if "tolerance" in spec:
        verdicts["decays_below_tolerance"] = rows[-1][1] <= _number(spec, "tolerance")
    return {"rows": rows}, verdicts, {}


def _cmd_haar_check(spec, ctx):
    p = ExponentPair(_number(spec, "p")).p
    cutoff = _need_int(spec, "cutoff", 6)
    terms = _need_int(spec, "terms", 12)
    if not 1 <= terms <= _MAX_TERMS:
        raise InputError(
            f"'terms' must lie in 1..{_MAX_TERMS}, the distinct indices of levels "
            f"0..{_LEVELS - 1}, got {terms}"
        )
    batch_size = _need_int(spec, "batch_size", 200)
    num_tests = _need_int(spec, "num_tests", 20)
    trials = _need_int(spec, "trials", 200)
    # refused before any draw; any cutoff above 20 is over the budget alone
    if batch_size * terms > _INDEX_BUDGET or num_tests << min(max(cutoff, 0), 21) > _INDEX_BUDGET:
        raise PreconditionError(
            f"'batch_size' {batch_size} x 'terms' {terms} expansion terms or 'num_tests' "
            f"{num_tests} x 2^'cutoff' {cutoff} Haar pairings are over the budget of {_INDEX_BUDGET}"
        )
    sign_pattern_count(terms, trials)
    rng = ctx.rng()
    # biorthogonality is always checked through level 6
    # the a-th index in haar_indices_below's order has key a
    duals = (dual_fn(i, p) for i in haar_indices_below(7))
    max_offdiag = max_diag_err = 0.0
    for a, (keys, values) in enumerate(haar_pairings(duals, 7, p)):
        max_diag_err = max(max_diag_err, abs(values[keys.index(a)] - 1))
        max_offdiag = max([max_offdiag] + [abs(v) for b, v in zip(keys, values) if b != a])
    tests = [_random_test_fn(rng) for _ in range(num_tests)]
    p43 = prop43_check(p, cutoff, tests)
    batch = _random_expansions(rng, terms, batch_size)
    held = _random_expansions(rng, terms, batch_size)
    fit = coefficient_sandwich_check(batch, p)
    held_fit = coefficient_sandwich_check(held, p)
    violations = count_sandwich_violations(
        held_fit.rows, fit.lower_constant, fit.upper_constant, headroom=1.1
    )
    uncond = unconditional_constant_estimate(batch[:10], p, trials=trials, seed=ctx.seed)
    # Burkholder's sharp constant bounds every row and the estimate (README)
    beta = burkholder_constant(p)
    outside = count_sandwich_violations(fit.rows + held_fit.rows, beta, beta)
    outputs = {
        "biorthogonality": {"max_offdiag": max_offdiag, "max_diag_error": max_diag_err},
        "prop43": p43,
        "sandwich_fit": {
            "lower_constant": fit.lower_constant,
            "upper_constant": fit.upper_constant,
            "held_out_violations": violations,
        },
        "unconditional_constant_estimate": uncond,
        "burkholder": {
            "beta": beta,
            "rows_outside": outside,
            "lower_margin": beta - max(fit.lower_constant, held_fit.lower_constant),
            "upper_margin": beta - max(fit.upper_constant, held_fit.upper_constant),
            "estimate_margin": beta - uncond,
        },
    }
    verdicts = {
        "biorthogonal_offdiag_zero": max_offdiag == 0.0,
        "burkholder_bounds_hold": outside == 0 and uncond <= beta * (1 + _SLACK),
    }
    return outputs, verdicts, {}


def _cmd_dichotomy(spec, ctx):
    sys_ = ingest_system(_need(spec, "system"), ctx.inputs)
    tests = _need_list(spec, "bessel_tests") if "bessel_tests" in spec else None
    tol = {**_need_object(spec, "tolerances", {}), **spec}  # flat keys win over the block
    # a tolerance the spec leaves out takes DichotomyConfig's default
    readers = {
        "accumulation_radius": _number,
        "accumulation_threshold": _need_int,
        "epsilon_fraction": _number,
        "bessel_variation_tol": _number,
        "subadditivity_h_values": _need_floats,
    }
    config = DichotomyConfig(
        truncation_radii=tuple(_need_floats(spec, "truncation_radii")),
        sweep_h_values=tuple(_need_floats(spec, "h_values")),
        p_prime=_number(spec, "p_prime"),
        bessel_tests=tuple(ingest_function(t, ctx.inputs) for t in tests)
        if tests
        else None,
        **{key: read(tol, key) for key, read in readers.items() if key in tol},
    )
    report = dichotomy_report(sys_, config)
    verdicts = {
        "dichotomy_holds": report.dichotomy_holds,
        "subadditivity_holds": report.subadditivity_holds,
    }
    return {"dichotomy": report}, verdicts, {}


def _random_test_fn(rng) -> PiecewiseFn:
    cuts = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(3, 9)))
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if b > a:
            pieces.append((Box((float(a),), (float(b),)), complex(rng.normal(), rng.normal())))
    if not pieces:
        pieces = [(Box((0.25,), (0.75,)), 1.0 + 0j)]
    return PiecewiseFn(tuple(pieces), 1)


# random expansions draw their indices from levels 0.._LEVELS - 1, which hold
# _MAX_TERMS distinct indices, keys 1.._MAX_TERMS
_LEVELS = 6
_MAX_TERMS = 2**_LEVELS - 1


def _random_expansions(rng, terms: int, count: int) -> HaarBatch:
    """count expansions of terms distinct indices each.

    Each draw is a uniform level below _LEVELS, a uniform offset within it and
    a standard normal real and imaginary part.  An expansion keeps the first
    terms distinct indices in draw order, a repeated index taking the
    coefficient drawn last.  Draws come in blocks, one row of 2 terms draws
    per expansion; an expansion still short after its row carries on into the
    next block, which holds rows for the short expansions only.  The draws
    go straight into the arrays of a HaarBatch, with no per-term object.
    """
    size = _MAX_TERMS + 1
    bits = np.uint64(1) << np.arange(size, dtype=np.uint64)  # bits[key] marks a held key
    held = np.zeros(count, dtype=np.uint64)
    sizes = np.zeros(count, dtype=np.int64)
    # each block's taken draws, flat (expansion, key), in draw order
    cells, coeffs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=complex)]
    short = np.arange(count)
    while short.size:
        keys = 1 << rng.integers(0, _LEVELS, size=(len(short), 2 * terms))  # 2^j
        keys += rng.integers(0, keys)  # 2^j + k
        drawn = rng.normal(size=(len(short), 2 * terms, 2)).view(np.complex128)[..., 0]
        mask, n = held[short], sizes[short]
        taken = np.empty(keys.shape, dtype=bool)
        for t, column in enumerate(keys.T):
            # an expansion takes its draws up to the one that fills it
            taken[:, t] = live = n < terms
            bit = np.where(live, bits[column], np.uint64(0))
            n += live & (mask & bit == 0)
            mask |= bit
        held[short], sizes[short] = mask, n
        keys += short[:, None] * size
        cells.append(keys[taken])
        coeffs.append(drawn[taken])
        short = short[n < terms]
    # the last draw of each index wins: the first in reverse draw order
    cells, last = np.unique(np.concatenate(cells)[::-1], return_index=True)
    coeffs = np.concatenate(coeffs)[::-1][last]
    return HaarBatch((cells % size).reshape(count, terms), coeffs.reshape(count, terms))


COMMANDS = {
    "density": _cmd_density,
    "separate": _cmd_separate,
    "pair": _cmd_pair,
    "bessel": _cmd_bessel,
    "blowup-witness": _cmd_blowup,
    "cq-sweep": _cmd_cq_sweep,
    "localized-mass": _cmd_localized_mass,
    "mass-decay": _cmd_mass_decay,
    "haar-check": _cmd_haar_check,
    "dichotomy": _cmd_dichotomy,
}


def run(command: str, spec: dict, ctx: _RunContext) -> int:
    """Execute one analysis and write its report; returns the exit code."""
    try:
        outputs, verdicts, csvs = COMMANDS[command](spec, ctx)
    except InputError as exc:
        print(f"lpdensity {command}: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"lpdensity {command}: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    report = {
        "command": command,
        "spec": spec,
        "outputs": outputs,
        "verdicts": verdicts,
        "provenance": {
            "inputs": ctx.inputs.digests,
            "toolkit_version": __version__,
            "seed": ctx.seed,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
        out_path = ctx.out_dir / f"{command.replace('-', '_')}_report.json"
        out_path.write_text(emit_json(report) + "\n")
        for name, (header, rows) in csvs.items():
            write_csv(ctx.out_dir / name, header, rows)
    except OSError as exc:
        print(f"lpdensity {command}: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if any(v is False for v in verdicts.values()):
        print(f"lpdensity {command}: verdict check failed: {verdicts}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lpdensity", description=__doc__)
    parser.add_argument("command", choices=[*COMMANDS, "run"])
    parser.add_argument("--spec", required=True, help="JSON experiment spec")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    spec_path = Path(args.spec)
    if not spec_path.exists():
        print(f"lpdensity: spec file not found: {spec_path}", file=sys.stderr)
        return EXIT_INPUT
    try:
        spec = json.loads(spec_path.read_bytes())
    except (OSError, ValueError) as exc:
        print(f"lpdensity: cannot parse {spec_path}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(args.out or os.environ.get("LPDENSITY_OUT", "."))
    chained = spec if isinstance(spec, list) else [spec]
    # every entry is checked before any runs
    commands, seeds = [], []
    for entry in chained:
        if not isinstance(entry, dict):
            print("lpdensity: each spec entry must be a JSON object", file=sys.stderr)
            return EXIT_INPUT
        if args.command == "run":
            command = entry.get("command")
            if command not in COMMANDS:
                print(f"lpdensity: spec has unknown command {command!r}", file=sys.stderr)
                return EXIT_INPUT
        else:
            command = args.command
            if entry.get("command", command) != command:
                print(
                    f"lpdensity: spec command {entry['command']!r} does not match "
                    f"subcommand {command!r}",
                    file=sys.stderr,
                )
                return EXIT_INPUT
        if command in commands:
            print(
                f"lpdensity: the chain runs {command!r} twice, and the second report "
                "would overwrite the first",
                file=sys.stderr,
            )
            return EXIT_INPUT
        commands.append(command)
        seed = args.seed if args.seed is not None else entry.get("seed")
        if seed is not None and (type(seed) is not int or seed < 0):
            print(f"lpdensity: 'seed' must be a non-negative integer, got {seed!r}", file=sys.stderr)
            return EXIT_INPUT
        seeds.append(seed)
    if out_dir.exists() and not out_dir.is_dir():
        print(f"lpdensity: the output directory {out_dir} is an existing file", file=sys.stderr)
        return EXIT_INPUT
    worst = EXIT_OK
    for command, entry, seed in zip(commands, chained, seeds):
        ctx = _RunContext(Inputs(spec_path.parent), out_dir, seed)
        worst = max(worst, run(command, entry, ctx))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
