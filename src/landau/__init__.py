"""Velocity-space simulator and verification harness for the Coulomb
collision equation: free-space convolution coefficients, a conservative
divergence-form integrator, and numerical checks of the level-set,
barrier, and functional-inequality machinery behind its regularity theory.
"""

from .coefficients import (
    CoefficientSet,
    KernelTable,
    build_kernel_table,
    compute_coefficients,
    direct_convolve,
    kernel_table_for,
    spectral_vs_direct,
)
from .degiorgi import (
    IterationLadder,
    OdeMonitor,
    RecurrenceFit,
    critical_eps0,
    fit_recurrence,
    ladder_verdict,
    measure_ladder,
    predict_linf_bound,
    prop51_window,
    propagation_ode_monitor,
)
from .diagnostics import (
    DiagnosticsRecord,
    LevelSetWindow,
    bulk_quantities,
    eps_regularity,
    equilibrium_distance,
    level_set_energies,
    level_set_energy,
    maxwellian,
    record,
)
from .errors import (
    ConfigError,
    HypothesisError,
    LandauError,
    NumericError,
    StiffnessError,
)
from .grid_field import ScalarField, VelocityGrid, make_grid, weighted_lp_norm
from .inequalities import (
    CRITICAL,
    SUBCRITICAL,
    BarrierParams,
    CutoffProfile,
    InequalityReport,
    barrier_sufficient_rate,
    barrier_verdict,
    build_cutoff,
    check_eps_poincare,
    iter_corpus,
    iter_poincare_corpus,
    minimum_principle_monitor,
)
from .solver import (
    SimulationState,
    StepControl,
    make_state,
    stable_dt,
    step,
)

__version__ = "0.1.0"
