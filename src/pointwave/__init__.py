"""Semi-analytic simulator for a 3D wave field coupled to a point oscillator.

The field solves the wave equation with a delta source of amplitude zeta(t)
at the origin; the regularized field value there is pinned to F(zeta).  The
solution splits into a closed-form dispersive component and a retarded
spherical wave driven by a one-dimensional oscillator equation, which this
package integrates, audits (energy conservation, sharp support, a priori
amplitude bound, attraction to rest states) and cross-validates against an
independent finite-difference solver.
"""

from .cutoff import chi_integral, chi_jet
from .field_assembly import (
    EnergyReport,
    FieldSample,
    distance_to_stationary,
    energy,
    psi_total,
    regular_trace,
    u_singular,
)
from .free_wave import (
    OnConeWarning,
    dispersive_eval,
    psi_G_eval,
)
from .initial_data import (
    CompatibilityError,
    InitialState,
    PolynomialBump,
    RadialProfile,
    SplineBump,
    make_initial_state,
    stationary_data,
)
from .nonlinearity import (
    Nonlinearity,
    TruncatedNonlinearity,
    build_truncation,
    cubic,
    from_coefficients,
    lambda_bound,
    linear,
    make_nonlinearity,
    quintic,
)
from .runner import RunResult, ScenarioReport, run_scenario
from .scenario import ConfigError, Scenario, load_config, parse_config
from .zeta_dynamics import (
    IntegrationError,
    LimitResult,
    ODEConfig,
    TruncationEnteredError,
    ZetaHistory,
    detect_limit,
    integrate,
    integrate_source,
    zeta_at,
)

__version__ = "0.1.0"
