"""Damped Newton solver for the prescribed boundary-length problem.

Finding w* with B(w*) = b is the critical-point equation of the strictly
convex psi, so Newton on grad psi = b - B with Hessian -L (symmetric positive
definite) plus a backtracking line search is globally convergent.  Each trial
step must keep every admissibility margin at or above `safety` and decrease
psi by the Armijo fraction of the predicted slope; psi decrements are
measured by the line-integral form (see the energy module) to avoid
cancellation near the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import Problem
from .energy import _segment_flux
from .errors import EigSolveFailure, InadmissibleFactor, LineSearchFailure, MaxIterations
from .triangulation import IdealTriangulation

ARMIJO = 1e-4
ALPHA_FLOOR = 1e-12


@dataclass(frozen=True)
class SolveReport:
    w_star: np.ndarray
    iterations: int
    final_residual: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "w_star": [float(v) for v in self.w_star],
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
        }


def solve_prescribed(
    tri: IdealTriangulation,
    l0,
    targets,
    w_init=None,
    tol: float = 1e-8,
    max_iterations: int = 200,
    safety: float = 1e-6,
) -> SolveReport:
    """Solve B(w*) = targets by damped Newton descent on psi.

    Raises MaxIterations or LineSearchFailure (both carrying the partial
    report) when the iteration or the backtracking stalls; raises
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
    return _solve(problem, targets, w, tol, max_iterations, safety)


def _solve(problem: Problem, targets, w, tol, max_iterations, safety) -> SolveReport:
    """solve_prescribed on a checked problem, targets and start."""
    B, L = problem.evaluate(w)
    residual = float(np.max(np.abs(B - targets)))
    iterations = 0
    while residual >= tol:
        if iterations >= max_iterations:
            raise MaxIterations(
                f"no convergence after {max_iterations} iterations (residual {residual:.3e})",
                report=SolveReport(w, iterations, residual, False),
            )
        try:
            factor = np.linalg.cholesky(-L)
        except np.linalg.LinAlgError as exc:
            raise EigSolveFailure(f"Cholesky factorization of -L failed: {exc}") from exc
        step = np.linalg.solve(factor.T, np.linalg.solve(factor, B - targets))
        slope = float((targets - B) @ step)  # grad psi . step, negative

        alpha = 1.0
        while True:
            w_try = w + alpha * step
            try:
                if (np.min(problem.margin(w_try)) >= safety
                        and _segment_flux(problem, w, w_try, targets, rtol=1e-12)
                        <= ARMIJO * alpha * slope):
                    B, L = problem.evaluate(w_try)
                    break
            except InadmissibleFactor:
                # with safety 0, a margin at a quadrature node or at w_try
                # can round to exactly 0; that trial is rejected like any other
                pass
            alpha *= 0.5
            if alpha < ALPHA_FLOOR:
                raise LineSearchFailure(
                    f"backtracking stalled at iteration {iterations} (residual {residual:.3e})",
                    report=SolveReport(w, iterations, residual, False),
                )
        w = w_try
        residual = float(np.max(np.abs(B - targets)))
        iterations += 1
    return SolveReport(w, iterations, residual, True)
