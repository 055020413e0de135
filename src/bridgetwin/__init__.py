"""Probabilistic digital twin of a twin-girder bridge deck.

Grillage finite elements supply the physics, a Gaussian random deck load
supplies the prior, and gauge recordings are fused in through a scaled
model plus structured-mismatch plus noise observation model. See the
README for the full loop.
"""

__version__ = "0.1.0"

from .fem import (
    FactorizationError,
    GaussianBelief,
    PriorEnsemble,
    StrainOperator,
    assemble,
    build_strain_operator,
    propagate_prior,
    propagate_prior_series,
    solve,
)
from .inference import (
    Chain,
    Estimate,
    McmcConfig,
    chain_diagnostics,
    point_estimate,
    run_random_walk,
    sample_hyperposterior,
)
from .loading import (
    LoadSeries,
    RandomLoadSpec,
    TrainScenario,
    axle_positions,
    force_covariance,
    load_scenario_config,
    load_series,
    nodal_loads,
    select_window,
)
from .model import (
    ConfigError,
    GrillageModel,
    MaterialSpec,
    SectionSpec,
    build_model,
    equivalent_modulus,
    i_beam_section,
    load_model_config,
    validate_model,
)
from .pipeline import TwinContext
from .statfem import (
    Hyperparameters,
    ObservationSet,
    SensorLayout,
    displacement_posterior,
    log_marginal,
    mismatch_covariance,
    noise_covariance,
    sq_exp_covariance,
    strain_predictive,
    true_strain_posterior,
)
from .synth import (
    DiscrepancySpec,
    draw_discrepancy,
    estimate_noise_std,
    generate_observations,
    generate_truth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
