"""Hybrid reservoir computing for non-linear oscillator network forecasting."""

from .dynamics import (
    BiHarmonicParams,
    FrequencyLaw,
    IntegratorConfig,
    KuramotoParams,
    RegimeSpec,
    biharmonic_regime,
    biharmonic_rhs,
    component_rhs,
    components_to_phases,
    generate_trajectory,
    kuramoto_rhs,
    normalize_components,
    perturb_params,
    phases_to_components,
    sample_frequencies,
    standard_regime,
)
from .evaluation import (
    ForecastResult,
    MetricRecord,
    SpanLayout,
    mean_nmse,
    nmse_series,
    segment,
    space_time_separation,
    valid_time,
)
from .experiments import (
    Baselines,
    GRID_POINTS,
    RunManifest,
    SeedScheme,
    SweepSpec,
    aggregate_report,
    run_grid_search,
    run_shared_procedure,
    run_sweep,
)
from .hybrid import ExpertModel, Instantiation
from .reservoir import (
    Readout,
    ReservoirConfig,
    ReservoirMatrices,
    build_input_matrix,
    build_internal_matrix,
    collect_states,
    forecast,
    nonlinear_transform,
    train_readout,
    update_state,
)

__version__ = "0.1.0"
