"""Assembly of the boundary-length Jacobian and fractional powers of -L.

L[i, j] = dB_i/dw_j is assembled face by face: each hexagon contributes the
chain-rule product of its arc-side Jacobian and the edge-length derivatives
dl_e/dw = 2 coth(l_e/2) per endpoint occurrence (so a self-edge contributes
4 coth(l_e/2) to its single endpoint).  L is symmetric, diagonally dominant
and negative definite on the admissible set, which makes Delta = -L symmetric
positive definite and its real powers well defined through the orthogonal
eigendecomposition Delta^s = Q diag(lambda^s) Q^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import CORNER_TO_OPPOSITE_SIDE, deform
from .errors import EigSolveFailure
from .hexagon import arc_side_jacobian
from .triangulation import IdealTriangulation

# relative spectrum floor: below this, negative powers are untrustworthy
EIG_FLOOR = 1e-12


def boundary_jacobian(tri: IdealTriangulation, l0, w) -> np.ndarray:
    """Dense n x n matrix L with L[i, j] = dB_i/dw_j at the factor w."""
    lengths = deform(tri, l0, w)
    sides = lengths[tri.face_sides]
    jac_sides = arc_side_jacobian(sides)[:, CORNER_TO_OPPOSITE_SIDE, :]

    growth = 2.0 / np.tanh(lengths / 2.0)
    vals = jac_sides * growth[tri.face_sides][:, None, :]

    n_f = tri.n_faces
    shape = (n_f, 3, 3, 2)
    rows = np.broadcast_to(tri.face_corners[:, :, None, None], shape)
    cols = np.broadcast_to(tri.edge_ij[tri.face_sides][:, None, :, :], shape)
    vals2 = np.broadcast_to(vals[:, :, :, None], shape)

    n = tri.n_boundaries
    L = np.zeros((n, n))
    np.add.at(L, (rows.ravel(), cols.ravel()), vals2.ravel())
    return L


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
