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
and raise QuadratureStall when MAX_REFINEMENTS doublings never do.  Steps
whose end slope settles their test by convexity skip them (`_descends`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .conformal import Problem
from .errors import QuadratureStall
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


def segment_flux(tri: IdealTriangulation, l0, start, end, targets=None, rtol=1e-10) -> float:
    """int_0^1 (targets - B(start + u (end - start))) . (end - start) du.

    With targets = 0 this is the potential increment phi(end) - phi(start);
    with targets = b it is psi(end) - psi(start).  Composite Gauss-Legendre
    on 2^k panels, doubling k until two levels agree to rtol (relative,
    floored at magnitude 1) within MAX_REFINEMENTS doublings.  Levels 0 and
    1, where nearly every segment stops, are one batch.  ValueError unless
    targets, when given, are finite with one entry per boundary.
    """
    problem = Problem(tri, l0)
    start, end = problem.check_factor(start), problem.check_factor(end)
    if targets is not None:
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (tri.n_boundaries,) or not np.all(np.isfinite(targets)):
            raise ValueError(f"targets must be finite with shape ({tri.n_boundaries},)")
    problem.check_margin(start)
    problem.check_margin(end)
    with np.errstate(over="ignore"):
        return _segment_flux(problem, start, end, targets, rtol)


def _first_batch(start, end):
    """The states of _segment_flux's first batch: the level-0 and level-1
    nodes of the segment."""
    return start + _panel_nodes((0, 1))[:, None] * (end - start)


def _segment_flux(problem: Problem, start, end, targets=None, rtol=1e-10) -> float:
    """segment_flux on a checked problem, between two admissible factors.
    Callers silence overflow warnings, as for Problem's private methods."""
    delta = end - start
    t = 0.0 if targets is None else np.asarray(targets, dtype=float)

    def flux(states):
        return (t - problem._boundary(states, 0.0)[0]) @ delta

    def total(level_flux, level):
        panels = 2**level
        return float((level_flux.reshape(panels, -1) @ _gl_nodes(GL_POINTS)[1]).sum() / panels)

    first = flux(_first_batch(start, end))
    prev = total(first[:GL_POINTS], 0)
    for level in range(1, MAX_REFINEMENTS + 1):
        current = total(first[GL_POINTS:] if level == 1
                        else flux(start + _panel_nodes((level,))[:, None] * delta), level)
        if abs(current - prev) <= rtol * max(1.0, abs(current)):
            return current
        prev = current
    raise QuadratureStall(f"no agreement to rtol={rtol} after {MAX_REFINEMENTS} refinements")


def _descends(problem: Problem, start, end, B_end, targets, accept) -> bool:
    """Whether accept(psi(end) - psi(start)) holds, psi taken at targets, for
    an accept that holds at any smaller value too.  By convexity the increment
    is at most the end slope (targets - B_end) . (end - start), B_end being B
    at end; an accepted end slope settles it once the first batch's nodes pass
    check_margin at margin 0 (InadmissibleFactor otherwise, as the quadrature
    would raise), and any other step integrates the increment to rtol 1e-12."""
    if accept((targets - B_end) @ (end - start)):
        problem.check_margin(_first_batch(start, end))
        return True
    return accept(_segment_flux(problem, start, end, targets, rtol=1e-12))


def c_value(B, targets) -> float:
    d = np.asarray(B, dtype=float) - np.asarray(targets, dtype=float)
    return float((d * d).sum())


def upsilon_value(B, targets, p: float) -> float:
    B = np.asarray(B, dtype=float)
    d = B - np.asarray(targets, dtype=float)
    return float((d * d / B**p).sum())
