"""Age-structured arrival-departure particle systems on a bounded window.

Particles carry a position in a box window and a nonnegative age.  New
particles arrive as a Poisson stream with a bounded spatial profile and age
zero; existing particles age at unit speed and depart at an age- and
position-dependent hazard.  The package provides:

* the compactifying metrics on ages, configurations, and marked
  configurations, with certified truncation tails;
* exponential test functions, the process generator, the age flow, and the
  closed-form semigroup action;
* exact transient and stationary samplers (one-shot and event-driven);
* verification gates comparing closed forms, quadrature, and simulation.
"""

from .age_metric import age_distance, omega
from .config_space import (
    MarkedConfiguration,
    Plateaus,
    basis_count_below_scale,
    configuration_from_json,
    configuration_to_json,
    ground_distance,
    kappa_distance,
    kappa_features,
    load_configuration,
    plateau_table,
)
from .generator import (
    ArrivalExponent,
    ConvolutionLaw,
    DiracLaw,
    ExplicitLaw,
    FlowedTheta,
    GeneratorBounds,
    PoissonLaw,
    apply_generator,
    compute_bounds,
    explicit_solution,
    flow,
    flow_pde_residual,
    kolmogorov_residual,
    resolvent,
    resolvent_identity_residual,
)
from .habitat import (
    DepartureModel,
    Habitat,
    chi_integral,
    chi_sample,
    constant_rate,
    gauss_profile_nodes,
    linear_habitat,
    log_survival,
    separable_rate,
    survival_factor,
    uniform_habitat,
)
from .mark_space import (
    SIGMA_BAR,
    MarkSet,
    mark_sums,
    rho_distance,
    series_distance,
    series_tail,
    series_weights,
    sigma,
    u_basis,
    u_basis_derivative,
    u_basis_max,
    u_prime_max_constant,
)
from .sampler import (
    EventTrajectory,
    IntensityMeasure,
    PathBundle,
    event_driven_simulate,
    sample_poisson,
    sample_trajectory_marginals,
    stationary_intensity,
    transient_intensity,
)
from .test_functions import (
    F_theta,
    Theta,
    star_product,
)
from .verify import (
    VerificationReport,
    chapman_kolmogorov_check,
    count_law_oracle,
    cross_sampler_check,
    ergodicity_check,
    fokker_planck_check,
    format_reports,
    laplace_uniqueness_check,
    martingale_residual,
    stationarity_check,
    survival_weighted_integral,
    write_reports_csv,
)

__version__ = "0.1.0"
