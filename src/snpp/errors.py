"""Exception types shared across the toolkit.

Every error carries an optional ``where`` string ("module.operation") so the
command-line layer can report the originating operation.
"""


class SnppError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


# mesh

class InclusionTouchesBoundary(SnppError):
    """The solid inclusion reaches the boundary of the unit cell."""


class MeshGenerationFailure(SnppError):
    """Triangulation could not achieve the requested mesh size or shape."""


class ResolutionTooCoarse(SnppError):
    """Requested mesh size too coarse for the given cell scale."""


# fem

class DegenerateElement(SnppError):
    """A triangle with (near) zero area was found during assembly."""


class FieldMeshMismatch(SnppError):
    """A field was supplied on a different mesh than the assembly target."""


class SolverBreakdown(SnppError):
    """Linear solver stalled or detected an indefinite/singular system."""


class MaxIterationsExceeded(SnppError):
    """Iterative solver hit its iteration budget before converging."""


class NoSolidPhase(SnppError):
    """Problem requires a no-slip interface but the mesh has none."""


# cell

class FormulaMismatch(SnppError):
    """Averaging and energy evaluations of an effective tensor disagree."""


# macro

class InadmissibleScaling(SnppError):
    """Scaling exponents outside the range covered by the limit models."""


class IncompatibleSource(SnppError):
    """Right-hand side violates the solvability condition of a pure
    Neumann problem."""


class FixedPointDivergence(SnppError):
    """Within-step coupling iteration failed to converge."""


class NonFiniteField(SnppError):
    """A time step produced a NaN or infinite concentration, or a
    convergence study a NaN or infinite error."""


# verify

class GridMisaligned(SnppError):
    """Macro mesh size does not subdivide the cell scale."""


class InvariantViolation(SnppError):
    """A run broke a check of the invariant suite (mass, bounds of the
    concentrations, zero means, divergence)."""


class NonMonotoneConvergence(SnppError):
    """Convergence-study errors fail to decrease along the scale list."""


# cli

class ParseError(SnppError):
    """Configuration text could not be parsed."""

    def __init__(self, message, line=None, column=None, where=None):
        super().__init__(message, where=where)
        self.line = line
        self.column = column


class ValidationError(SnppError):
    """Parsed configuration or constructed object violates an invariant."""

    def __init__(self, message, field=None, where=None):
        super().__init__(message, where=where)
        self.field = field


class NegativeConcentration(UserWarning):
    """Concentration dipped below the positivity tolerance (dt too large)."""
