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
rounding noise.  The line integrals stop when two quadrature levels agree,
so a budget of zero refinements (one level) always raises QuadratureStall.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .conformal import Problem
from .errors import InadmissibleFactor, QuadratureStall
from .triangulation import IdealTriangulation

GL_POINTS = 16
MAX_REFINEMENTS = 20


@lru_cache(maxsize=None)
def _gl_nodes(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _panel_nodes(levels: tuple[int, ...]) -> np.ndarray:
    """Composite-rule nodes on 2^k equal panels of [0, 1], for each level k in turn."""
    x = _gl_nodes(GL_POINTS)[0]
    return np.concatenate([((np.arange(2**k) / 2**k)[:, None] + x / 2**k).ravel() for k in levels])


def _require_admissible(problem: Problem, w, label: str) -> np.ndarray:
    w = problem.check_factor(w)
    margin = problem.margin(w)
    if np.any(margin <= 0.0):
        edge = int(np.argmax(margin <= 0.0))
        raise InadmissibleFactor(f"{label} is inadmissible on edge {edge}", edge_index=edge)
    return w


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
    floored at magnitude 1).  Levels 0 and 1, where nearly every segment
    stops, are one batch; max_refinements=0 evaluates level 0 alone and so
    always raises QuadratureStall.
    """
    problem = Problem(tri, l0)
    start = _require_admissible(problem, start, "segment start")
    end = _require_admissible(problem, end, "segment end")
    return _segment_flux(problem, start, end, targets, rtol, max_refinements)


def _segment_flux(
    problem: Problem, start, end, targets=None, rtol=1e-10, max_refinements=MAX_REFINEMENTS
) -> float:
    """segment_flux on a checked problem, between two admissible factors."""
    delta = end - start
    if not delta.any():
        return 0.0
    t = 0.0 if targets is None else np.asarray(targets, dtype=float)

    def flux(levels):
        states = start + _panel_nodes(levels)[:, None] * delta
        return (t - problem.boundary_lengths(states)) @ delta

    def total(level_flux, level):
        panels = 2**level
        return float((level_flux.reshape(panels, -1) @ _gl_nodes(GL_POINTS)[1]).sum() / panels)

    first = flux((0, 1) if max_refinements > 0 else (0,))
    prev = total(first[:GL_POINTS], 0)
    for level in range(1, max_refinements + 1):
        current = total(first[GL_POINTS:] if level == 1 else flux((level,)), level)
        if abs(current - prev) <= rtol * max(1.0, abs(current)):
            return current
        prev = current
    raise QuadratureStall(
        f"no agreement to rtol={rtol} after {max_refinements} refinements"
    )


def c_value(B, targets) -> float:
    d = np.asarray(B, dtype=float) - np.asarray(targets, dtype=float)
    return float((d * d).sum())


def upsilon_value(B, targets, p: float) -> float:
    B = np.asarray(B, dtype=float)
    d = B - np.asarray(targets, dtype=float)
    return float((d * d / B**p).sum())
