"""Two-sex basic reproduction number toolkit for heterosexual HIV transmission.

Closed-form models of the log viral-load trajectory, per-act transmission
probability, activity decline and Weibull survival are integrated over the
infective life course to answer the epidemic-threshold question, with an
independent Monte Carlo branching simulation validating the quadrature.
"""

from .behavior import ActivityParams, activity_fraction
from .errors import (
    DomainError,
    InconsistentResult,
    QuadratureFailure,
    ScenarioError,
)
from .mc_oracle import (
    EstimateResult,
    SimulationSpec,
    estimate_sex_integral,
)
from .natural_history import (
    TransmissionParams,
    ViralLoadParams,
    age_warp,
    derive_link,
    early_peak_curve,
    log_viral_load,
    peak_transmission_prob,
    solve_plateau_point,
    terminal_peak_factor,
    transmission_prob,
)
from .reproduction import (
    BrnResult,
    PopulationConfig,
    QuadratureSpec,
    SexProfile,
    Verdict,
    balance_partner_rate,
    composite_r0,
    evaluate_brn,
    hyperbola_locus,
    index_i0,
    index_isa,
    scaled_i0,
    sensitivity_sweep,
    sex_brn,
    sex_integral,
    threshold_check,
)
from .scenario import (
    Scenario,
    baseline_population,
    default_values,
    load_scenario,
    parse_scenario,
)
from .survival import (
    SurvivalParams,
    survival_cdf,
    survival_density,
    survival_quantile,
    tail_mass,
    weibull_scale,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityParams",
    "BrnResult",
    "DomainError",
    "EstimateResult",
    "InconsistentResult",
    "PopulationConfig",
    "QuadratureFailure",
    "QuadratureSpec",
    "Scenario",
    "ScenarioError",
    "SexProfile",
    "SimulationSpec",
    "SurvivalParams",
    "TransmissionParams",
    "Verdict",
    "ViralLoadParams",
    "activity_fraction",
    "age_warp",
    "balance_partner_rate",
    "baseline_population",
    "composite_r0",
    "default_values",
    "derive_link",
    "early_peak_curve",
    "estimate_sex_integral",
    "evaluate_brn",
    "hyperbola_locus",
    "index_i0",
    "index_isa",
    "load_scenario",
    "log_viral_load",
    "parse_scenario",
    "peak_transmission_prob",
    "scaled_i0",
    "sensitivity_sweep",
    "sex_brn",
    "sex_integral",
    "solve_plateau_point",
    "survival_cdf",
    "survival_density",
    "survival_quantile",
    "tail_mass",
    "terminal_peak_factor",
    "threshold_check",
    "transmission_prob",
    "weibull_scale",
    "__version__",
]
