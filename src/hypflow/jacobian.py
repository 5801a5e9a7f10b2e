"""The boundary-length Jacobian and fractional powers of -L.

L[i, j] = dB_i/dw_j is assembled by `conformal.Problem.evaluate`.  L is
symmetric, diagonally dominant and negative definite on the admissible set,
which makes Delta = -L symmetric positive definite and its real powers well
defined through the orthogonal eigendecomposition
Delta^s = Q diag(lambda^s) Q^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import Problem
from .errors import EigSolveFailure
from .triangulation import IdealTriangulation

# relative spectrum floor: below this, negative powers are untrustworthy
EIG_FLOOR = 1e-12


def boundary_jacobian(tri: IdealTriangulation, l0, w) -> np.ndarray:
    """Dense n x n matrix L with L[i, j] = dB_i/dw_j at the factor w."""
    problem = Problem(tri, l0)
    return problem.evaluate(problem.check_factor(w))[1]


@dataclass(frozen=True)
class DeltaPower:
    """Fractional power of Delta = -L with its eigendecomposition."""

    s: float
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def delta_power(L, s: float) -> DeltaPower:
    """Compute Delta^s for Delta = -L via the symmetric eigendecomposition.

    Raises EigSolveFailure if the solver does not converge, if the spectrum
    is not strictly positive (L was not negative definite), or if s < 0 and
    the smallest eigenvalue sits below EIG_FLOOR times the largest.
    """
    delta = -np.asarray(L, dtype=float)
    try:
        lam, vecs = np.linalg.eigh(delta)
    except np.linalg.LinAlgError as exc:
        raise EigSolveFailure(f"symmetric eigensolver failed: {exc}") from exc
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(vecs))):
        raise EigSolveFailure("eigendecomposition produced non-finite values")
    if lam[0] <= 0.0:
        raise EigSolveFailure(
            f"smallest eigenvalue of -L is {lam[0]:.3e}; matrix is not negative definite"
        )
    if s < 0.0 and lam[0] < EIG_FLOOR * lam[-1]:
        raise EigSolveFailure(
            f"spectrum nearly singular (min {lam[0]:.3e}, max {lam[-1]:.3e}); "
            "refusing negative power"
        )
    matrix = (vecs * lam**s) @ vecs.T
    return DeltaPower(s=float(s), matrix=matrix, eigenvalues=lam, eigenvectors=vecs)
