"""Variational potentials and Lyapunov values.

The closed 1-form -sum_i B_i dw_i integrates to a potential

    phi(w) = -int_0^w sum_i B_i dw_i

which is path independent on the (convex) admissible set, so the straight
segment from the base point w = 0 is used.  Shifting by the target term gives

    psi(w) = phi(w) + sum_i b_i w_i,

a strictly convex function whose Hessian is -L and whose unique critical
point w* solves B(w*) = b.  The Lyapunov values of the two target-seeking
flows are

    lambda = psi(w) - psi(w*) + C(w),      C = sum_i (B_i - b_i)^2
    xi     = psi(w) - psi(w*) + Y(w),      Y = sum_i (B_i - b_i)^2 / B_i^p.

psi(w) - psi(w*) is always evaluated as one line integral from w* to w,
never as a difference of two potentials: near w* both potentials are O(1)
while the gap is O(|w - w*|^2), and the subtraction would drown it in
rounding noise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .conformal import admissibility_margin, boundary_lengths
from .errors import InadmissibleFactor, QuadratureStall
from .triangulation import IdealTriangulation

GL_POINTS = 16
MAX_REFINEMENTS = 20


@lru_cache(maxsize=None)
def _gl_nodes(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return (x + 1.0) / 2.0, w / 2.0


def _require_admissible(tri, l0, w, label: str) -> None:
    margin = admissibility_margin(tri, l0, w)
    if np.any(margin <= 0.0):
        edge = int(np.argmax(margin <= 0.0))
        raise InadmissibleFactor(f"{label} is inadmissible on edge {edge}", edge_index=edge)


def segment_flux(
    tri: IdealTriangulation,
    l0,
    start,
    end,
    targets=None,
    rtol: float = 1e-10,
    max_refinements: int = MAX_REFINEMENTS,
) -> float:
    """int_0^1 (targets - B(start + u (end - start))) . (end - start) du.

    With targets = 0 this is the potential increment phi(end) - phi(start);
    with targets = b it is psi(end) - psi(start).  Composite Gauss-Legendre
    on 2^k panels, doubling k until two levels agree to rtol (relative,
    floored at magnitude 1).
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    _require_admissible(tri, l0, start, "segment start")
    _require_admissible(tri, l0, end, "segment end")
    delta = end - start
    if not np.any(delta):
        return 0.0
    t = np.zeros(tri.n_boundaries) if targets is None else np.asarray(targets, dtype=float)

    nodes, weights = _gl_nodes(GL_POINTS)
    prev = None
    for level in range(max_refinements + 1):
        panels = 2**level
        offsets = np.arange(panels) / panels
        u = (offsets[:, None] + nodes[None, :] / panels).ravel()
        states = start[None, :] + u[:, None] * delta[None, :]
        flux = (t[None, :] - boundary_lengths(tri, l0, states)) @ delta
        total = float(np.sum(flux.reshape(panels, -1) @ weights) / panels)
        if prev is not None and abs(total - prev) <= rtol * max(1.0, abs(total)):
            return total
        prev = total
    raise QuadratureStall(
        f"no agreement to rtol={rtol} after {max_refinements} refinements"
    )


def potential_phi(tri: IdealTriangulation, l0, w, rtol: float = 1e-10) -> float:
    """The potential phi(w) relative to the base point w = 0."""
    return segment_flux(tri, l0, np.zeros(tri.n_boundaries), w, rtol=rtol)


def psi_gap(tri: IdealTriangulation, l0, w, w_star, targets, rtol: float = 1e-10) -> float:
    """psi(w) - psi(w_star), evaluated as a single line integral."""
    return segment_flux(tri, l0, w_star, w, targets=targets, rtol=rtol)


def c_value(B, targets) -> float:
    d = np.asarray(B, dtype=float) - np.asarray(targets, dtype=float)
    return float(np.sum(d * d))


def upsilon_value(B, targets, p: float) -> float:
    B = np.asarray(B, dtype=float)
    d = B - np.asarray(targets, dtype=float)
    return float(np.sum(d * d / B**p))
