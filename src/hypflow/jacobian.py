"""The boundary-length Jacobian and fractional powers of -L.

L[i, j] = dB_i/dw_j is assembled by `conformal.Problem.evaluate`.  L is
symmetric, diagonally dominant and negative definite on the admissible set,
which makes Delta = -L symmetric positive definite and its real powers well
defined through the orthogonal eigendecomposition
Delta^s = Q diag(lambda^s) Q^T.  So is G^(1/2) Delta G^(1/2) for a positive
diagonal G, whose eigenpairs every flow step takes from `_power` (see the
flows module).
"""

from __future__ import annotations

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


def _power(L: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of Delta = -L, L a float array, checked for
    raising Delta to the power s: Delta^s = Q diag(lambda^s) Q^T, which
    callers apply to vectors without forming the matrix.

    Uses the symmetric eigendecomposition.  Raises EigSolveFailure if the
    solver does not converge, if the spectrum is not strictly positive (L
    was not negative definite), or if s < 0 and the smallest eigenvalue sits
    below EIG_FLOOR times the largest.
    """
    try:
        lam, vecs = np.linalg.eigh(-L)
    except np.linalg.LinAlgError as exc:
        raise EigSolveFailure(f"symmetric eigensolver failed: {exc}") from exc
    if not (np.isfinite(lam).all() and np.isfinite(vecs).all()):
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
    return lam, vecs
