"""Damped Newton solver for the prescribed boundary-length problem.

Finding w* with B(w*) = b is the critical-point equation of the strictly
convex psi, so Newton on grad psi = b - B with Hessian -L (symmetric positive
definite) plus a backtracking line search is globally convergent.  Each trial
step must keep every admissibility margin at or above `safety` and decrease
psi by the Armijo fraction of the predicted slope (Nocedal & Wright,
Numerical Optimization, ch. 3).

Convexity certifies most trials from their end point alone: psi is convex,
so psi(w + dw) - psi(w) is at most the end slope g(1) = (b - B(w + dw)) . dw,
and a trial whose g(1) meets the Armijo bound meets it.  Only the others
measure the decrement itself, by the line-integral form (see the energy
module), which avoids cancellation near the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import Problem
from .energy import _descends
from .errors import EigSolveFailure, InadmissibleFactor, LineSearchFailure, MaxIterations
from .triangulation import IdealTriangulation

ARMIJO = 1e-4
ALPHA_FLOOR = 1e-12
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SolveReport:
    w_star: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


def solve_prescribed(
    tri: IdealTriangulation,
    l0,
    targets,
    w_init=None,
    tol: float = 1e-8,
    safety: float = 1e-6,
) -> SolveReport:
    """Solve B(w*) = targets by damped Newton descent on psi.

    Raises MaxIterations or LineSearchFailure (both carrying the partial
    report) when MAX_ITERATIONS pass or the backtracking stalls; raises
    EigSolveFailure if the Hessian factorization fails, which signals that
    the iterate left the region where -L is trustworthy.
    """
    n = tri.n_boundaries
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n,) or not np.all(np.isfinite(targets) & (targets > 0.0)):
        raise ValueError("targets must be strictly positive finite lengths, one per boundary")
    if not (0.0 < tol < np.inf and 0.0 <= safety < np.inf):
        raise ValueError("tol must be positive and finite, safety non-negative and finite")
    problem = Problem(tri, l0)
    w = np.zeros(n) if w_init is None else problem.check_factor(w_init).copy()
    return _solve(problem, targets, w, tol, safety)


# the kernels check for the overflow they meet themselves
@np.errstate(over="ignore")
def _solve(problem: Problem, targets, w, tol, safety) -> SolveReport:
    """solve_prescribed on a checked problem, targets and start."""
    B, geometry, _ = problem._boundary(w, 0.0)
    residual = float(np.max(np.abs(B - targets)))
    iterations = 0
    while residual >= tol:
        if iterations >= MAX_ITERATIONS:
            raise MaxIterations(
                f"no convergence after {MAX_ITERATIONS} iterations (residual {residual:.3e})",
                report=SolveReport(w, iterations, residual, False),
            )
        # L is assembled here only, so never at the converged iterate
        L = problem._jacobian(*geometry)
        try:
            factor = np.linalg.cholesky(-L)
        except np.linalg.LinAlgError as exc:
            raise EigSolveFailure(f"Cholesky factorization of -L failed: {exc}") from exc
        step = np.linalg.solve(factor.T, np.linalg.solve(factor, B - targets))
        slope = float((targets - B) @ step)  # grad psi . step, negative

        alpha = 1.0
        while True:
            w_try = w + alpha * step
            bound = ARMIJO * alpha * slope
            try:
                # the trial's margins at the safety floor, then B there
                B_try, geometry_try, _ = problem._boundary(w_try, safety)
                if _descends(problem, w, w_try, B_try, targets, lambda d: d <= bound):
                    break
            except InadmissibleFactor:
                pass
            alpha *= 0.5
            if alpha < ALPHA_FLOOR:
                margin = problem.margin(w)
                edge = int(np.argmin(margin))
                raise LineSearchFailure(
                    f"backtracking stalled at iteration {iterations} (residual {residual:.3e}; "
                    f"edge {edge} at margin {margin[edge]:.3e})",
                    report=SolveReport(w, iterations, residual, False),
                )
        w, B, geometry = w_try, B_try, geometry_try
        residual = float(np.max(np.abs(B - targets)))
        iterations += 1
    return SolveReport(w, iterations, residual, True)
