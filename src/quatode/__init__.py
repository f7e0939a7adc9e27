"""quatode: solvers for first-order linear quaternion-valued ODEs
q'(t) = a(t) q(t) (+ f(t)) with time-varying coefficients.

The public surface re-exported here covers the usual workflow: parse
coefficient expressions into a :class:`CoefficientSet`, gate on
:func:`check_proportionality` for the closed-form exponential route, fall
back to the frozen-angle special cases or the Picard phase-angle solver,
assemble the solution, forcing included, with
:func:`variation_of_constants`, and check it against the RK4 oracle and
by the pointwise defect :func:`residual_profile`.
"""

from .coeffs import CoefficientSet
from .commutative import (
    CommutativeSolver,
    ProportionalityReport,
    check_proportionality,
    commutative_solve,
    variation_of_constants,
)
from .decisive import (
    PicardConfig,
    PicardResult,
    SegmentedSolution,
    SpecialCaseSolution,
    picard_solve,
    propagator,
    solve_segmented,
    try_special_case,
)
from .errors import (
    BlowupError,
    BothZeroError,
    DivisionByZeroError,
    DomainError,
    NoConvergenceError,
    NonFiniteError,
    NotUnitError,
    ParseError,
    QuadratureError,
    QuatOdeError,
    SingularTheta2Error,
    StalledSegmentError,
    UnknownFunctionError,
)
from .expr import parse, pretty
from .oracle import oracle_integrate, residual_profile
from .phase import PhaseTriple, atan2x, compose, decompose
from .quat import ONE, Quaternion, exp_q, mul, norm
from .trajectory import Trajectory, uniform_grid

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet",
    "CommutativeSolver",
    "ProportionalityReport",
    "check_proportionality",
    "commutative_solve",
    "variation_of_constants",
    "PicardConfig",
    "PicardResult",
    "SegmentedSolution",
    "SpecialCaseSolution",
    "picard_solve",
    "propagator",
    "solve_segmented",
    "try_special_case",
    "parse",
    "pretty",
    "oracle_integrate",
    "residual_profile",
    "PhaseTriple",
    "atan2x",
    "compose",
    "decompose",
    "ONE",
    "Quaternion",
    "exp_q",
    "mul",
    "norm",
    "Trajectory",
    "uniform_grid",
    "QuatOdeError",
    "ParseError",
    "UnknownFunctionError",
    "DomainError",
    "DivisionByZeroError",
    "NonFiniteError",
    "QuadratureError",
    "NotUnitError",
    "BothZeroError",
    "SingularTheta2Error",
    "NoConvergenceError",
    "StalledSegmentError",
    "BlowupError",
]
