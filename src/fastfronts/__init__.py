"""fastfronts: a 1D reaction-dispersion toolkit.

Solves u_t = D u + f(u) on a periodic box for local, nonlocal, and nonlinear
dispersal operators D, with front-tracking diagnostics and executable checks
of the scheme's ordering and spreading behavior.
"""

from .errors import (
    DegenerateAtZero,
    DomainTooSmall,
    EmptySeries,
    EndpointNotZero,
    FastFrontsError,
    GuardBreached,
    InfinitePosition,
    InsufficientPoints,
    IoFailure,
    LambdaOutOfRange,
    LengthMismatch,
    MissingRequired,
    NonPositiveLength,
    NonlinearVariant,
    NotMonostable,
    NotPowerOfTwo,
    ParameterOutOfRange,
    PreconditionViolated,
    SolverSingular,
    ThresholdsNotSpanned,
    UnknownKey,
    ValidationFailed,
    WindowOutOfDomain,
    ZeroInitialCondition,
)
from .grid import Field, Grid, make_grid
from .dispersal import (
    EPS_REG,
    AlgebraicTail,
    Convolution,
    DispersalSpec,
    FastDiffusion,
    FractionalFastDiffusion,
    FractionalLaplacian,
    KernelSpec,
    StandardLaplacian,
    StretchedExponential,
    Symbol,
    TabulatedKernel,
    apply_symbol,
    build_symbol,
    convolve_direct,
    fast_diffusion_step,
    fractional_fast_diffusion_step,
    kernel_discrete_mass,
    load_kernel_table,
    sample_kernel,
)
from .reaction import (
    CustomMonostable,
    KppLogistic,
    ReactionSpec,
    logistic_exact_step,
    rk4_reaction_step,
    validate_reaction,
)
from .integrator import (
    DispersalStepper,
    GaussianBump,
    Indicator,
    InitialSpec,
    RunConfig,
    TabulatedInitial,
    Trajectory,
    build_initial,
    run,
    save_snapshots,
    strang_step,
)
from .diagnostics import (
    DiagnosticsReport,
    LevelTrace,
    build_report,
    flatness,
    interface_width,
    level_position,
    range_bounds,
    speed_fit,
    stretching,
)
from .properties import (
    PropertyVerdict,
    check_comparison,
    check_mass_neutral,
    check_monotone_preservation,
    check_spreading,
    ordered_gaussian_pair,
    smoothed_step,
    verdict_report,
)
from .experiment import (
    PRESET_NAMES,
    emit_chart,
    emit_csv,
    parse_config,
    parse_config_text,
    preset_config,
    read_csv,
    run_preset,
    run_sweep,
    sweep_values,
)

__version__ = "0.1.0"
