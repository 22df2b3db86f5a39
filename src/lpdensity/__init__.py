"""Desk-scale density and frame-structure analysis for translate systems in Lp(R^d)."""

__version__ = "0.1.0"

from .errors import DimensionMismatchError, InputError, PreconditionError
from .pointset import (
    DensityProfile,
    PointSet,
    SeparationReport,
    decompose_separated,
    density_profile,
    detect_accumulation,
    grid_occupancy,
    make_lattice,
    make_lattice_basis,
    make_reciprocal,
    min_separation,
    nu_plus,
    union_point_sets,
)
from .lpfunc import (
    Box,
    ExponentPair,
    PiecewiseFn,
    canonicalize,
    conjugate_exponent,
    cross_pairings,
    indicator,
    lp_norm,
    lp_norm_pow,
    pair,
    pair_modulated,
    restrict,
    sample_catalog_function,
    scale,
    translate,
)
from .translate_system import (
    BesselEstimate,
    BlowupWitness,
    CqSweep,
    DichotomyConfig,
    DichotomyReport,
    Generator,
    LocalizedMassReport,
    TranslateSystem,
    bessel_bound_estimate,
    bessel_sum,
    blowup_witness,
    cq_indicator_sweep,
    dichotomy_report,
    localized_mass,
    mass_decay_sweep,
    system_localized_mass,
)
from .io import (
    emit_json,
    ingest_function,
    ingest_points,
    ingest_system,
)
from .haar_uncond import (
    HaarBatch,
    HaarIndex,
    Prop43Report,
    build_expansion_fn,
    burkholder_constant,
    coefficient_sandwich_check,
    count_sandwich_violations,
    dual_fn,
    expansion_norms,
    haar_fn,
    haar_indices_below,
    prop43_check,
    unconditional_constant_estimate,
)
