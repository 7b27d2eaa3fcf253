"""Exception hierarchy for the fastfronts package.

Every error raised by the library derives from FastFrontsError so callers can
catch the whole family with one clause. Names follow the operation contracts:
each precondition or failure mode has its own class, and the CLI reports the
class name as the error category.
"""

import contextlib as _contextlib


class FastFrontsError(Exception):
    """Base class for all fastfronts errors."""


# --- grid / transform ---------------------------------------------------

class NotPowerOfTwo(FastFrontsError):
    """Grid node count must be a power of two and at least 8."""


class NonPositiveLength(FastFrontsError):
    """Grid half-length must be strictly positive."""


class LengthMismatch(FastFrontsError):
    """Array length does not match the grid it is paired with."""


# --- dispersal ----------------------------------------------------------

class NonlinearVariant(FastFrontsError):
    """Operation requires a linear dispersal operator (one with a symbol)."""


class SolverSingular(FastFrontsError):
    """Tridiagonal solve failed; should not occur with nonnegative coefficients."""


class SolverNotConverged(FastFrontsError):
    """Iterative solve stopped at its iterate cap with the residual above tol."""


class ParameterOutOfRange(FastFrontsError):
    """Operator or kernel parameter violates its admissible range."""


# --- reaction -----------------------------------------------------------

class NotMonostable(FastFrontsError):
    """Reaction term is not strictly positive between its zeros."""


class EndpointNotZero(FastFrontsError):
    """Reaction term does not vanish at 0 and 1."""


class DegenerateAtZero(FastFrontsError):
    """Reaction term has nonpositive slope at the unstable state."""


# --- integrator ---------------------------------------------------------

class GuardBreached(FastFrontsError):
    """Solution mass reached the watched band near the domain edge.

    Carries the breach time; the standard remedy is to enlarge grid.L.
    """

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__(self.time)

    def __str__(self) -> str:
        return f"boundary guard breached at t={self.time:g}; increase grid.L (or reduce t_end)"


# --- diagnostics --------------------------------------------------------

class LambdaOutOfRange(FastFrontsError):
    """Level value must lie strictly inside (0, 1)."""


class InfinitePosition(FastFrontsError):
    """A level position needed by this diagnostic is a sentinel (not finite)."""


class ThresholdsNotSpanned(FastFrontsError):
    """Field does not reach both interface thresholds."""


class WindowOutOfDomain(FastFrontsError):
    """Requested observation window extends past the grid."""


class InsufficientPoints(FastFrontsError):
    """Not enough finite samples in the fit window."""


# --- property checks ----------------------------------------------------

class PreconditionViolated(FastFrontsError):
    """Check inputs do not satisfy the stated ordering/shape precondition."""


class ZeroInitialCondition(FastFrontsError):
    """Spreading check requires a not-identically-zero initial condition."""


class DomainTooSmall(FastFrontsError):
    """Observation window would overlap the boundary guard band."""


# --- experiment / CLI ---------------------------------------------------

class UnknownKey(FastFrontsError):
    """Config document contains an unrecognized section or key."""


class MissingRequired(FastFrontsError):
    """Config document lacks a required key."""


class ValidationFailed(FastFrontsError):
    """Config values parsed but failed domain validation."""


class EmptySeries(FastFrontsError):
    """Chart requested with no drawable series (fewer than 2 finite points)."""


class IoFailure(FastFrontsError):
    """File could not be read or written."""


@_contextlib.contextmanager
def _io(action: str):
    """The one I/O rule: an OSError in the block ends in IoFailure("<action>: <error>")."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"{action}: {exc}") from exc
