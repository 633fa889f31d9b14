"""Hybrid reservoir computing for non-linear oscillator network forecasting."""

from .dynamics import (
    FrequencyLaw,
    IntegratorConfig,
    KuramotoParams,
    RegimeSpec,
    biharmonic_regime,
    components_to_phases,
    perturb_params,
    phases_to_components,
    sample_frequencies,
    standard_regime,
)
from .evaluation import MetricRecord, SpanLayout, segment
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
    ReservoirConfig,
    ReservoirMatrices,
    build_input_matrix,
    build_internal_matrix,
    collect_states,
    forecast,
    train_readout,
)

__version__ = "0.1.0"
