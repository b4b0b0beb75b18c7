"""Lagrangian particle solver for the Vlasov-Poisson system with specular reflection.

Half-space and ball domains with grounded (zero-Dirichlet) boundary, exact
image-charge Green functions, the regularized approximation scheme
(mollified kernel, smoothed sign, boundary and short-range cutoffs), a
specular event-driven leapfrog that also steps the whole-space fold, a Picard
fixed-point loop monitored in Wasserstein-1, and a diagnostics suite for
every quantitative identity the scheme is supposed to satisfy.
"""

from .geometry import (
    Ball,
    ChartViolation,
    Domain,
    FlatteningMap,
    HalfSpace,
    reflect_velocity,
)
from .fields import (
    CoincidentPoints,
    DimensionTooSmall,
    FieldModel,
    GreenKind,
    NegativeArgument,
    RegularizationParams,
    boundary_cutoff,
    c_d,
    cutoff_rbar,
    field_model,
    green,
    green_cut,
    make_field_factory,
    smooth_sign,
)
from .ensemble import (
    Ensemble,
    Frame,
    FrameMismatch,
    InitialCondition,
    UnsupportedDensity,
    kinetic_energy,
    sample_initial,
    symmetrize,
)
from .flow import (
    NonFiniteState,
    ReflectionEvent,
    ReflectionOverflow,
    RunRecord,
    StepperConfig,
    Trajectory,
    fold_halfspace,
    integrate,
    samples,
    step,
)

__version__ = "0.1.0"
