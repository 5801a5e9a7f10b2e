"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class,
so the CLI can map errors to exit codes without string matching.
"""

from __future__ import annotations


class MalformedMesh(ValueError):
    """A triangulation invariant failed (bad incidence, parity, index range)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class MeshFormatError(ValueError):
    """A mesh or metric file could not be parsed into the expected shape."""


class NonFinite(ArithmeticError):
    """A hexagon computation left the range representable in double precision."""


class InadmissibleFactor(ValueError):
    """A conformal factor violates the admissibility constraint on some edge."""

    def __init__(self, message: str, edge_index: int | None = None):
        super().__init__(message)
        self.edge_index = edge_index


class EigSolveFailure(RuntimeError):
    """The symmetric eigendecomposition failed or produced untrustworthy spectra."""


class QuadratureStall(RuntimeError):
    """Adaptive quadrature did not reach the requested agreement within the refinement budget."""


class StepCollapse(RuntimeError):
    """Adaptive step halving drove the step size below the hard floor.

    Carries the partial trajectory accumulated so far in ``trajectory``.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class InsufficientData(RuntimeError):
    """Not enough usable samples for the requested statistic."""


class MaxIterations(RuntimeError):
    """Iteration limit reached before the stopping test was satisfied.

    Carries the partial solve report in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class LineSearchFailure(RuntimeError):
    """Backtracking reduced the step factor below the hard floor.

    Carries the partial solve report in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
