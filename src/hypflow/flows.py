"""Flow vector fields and a guarded adaptive RK4 integrator.

Three flows share one state space (the admissible conformal factors):

    guo                  dw/dt = B
    fractional-calabi    dw/dt = Delta^s (B - b)
    generalized-yamabe   dw/dt = g * (B - b),  g_i = ((2-p) B_i + p b_i) / B_i^(p+1)

The two target-seeking flows converge to the unique w* with B(w*) = b; the
guo flow drives every boundary length toward zero, so it only stops on the
tolerance or the time budget.

Integration is classical RK4 with step halving.  A proposal is rejected when
any stage or the result drops an admissibility margin below `safety`, when a
kernel leaves double range, or when the flow's Lyapunov value would increase
(lambda for fractional-calabi, xi for generalized-yamabe, none for guo).
After five consecutive accepts the step grows by 1.5x, capped at its initial
value.  Lyapunov values are tracked incrementally: the psi part of each
increment is a line integral over the step segment (short, and by convexity
at least `safety` away from the admissible boundary, so the quadrature is
effectively exact), which keeps the recorded energies meaningful down to the
convergence floor where differencing two absolute potentials would return
pure rounding noise.

The recorded energy is the flow's own Lyapunov value (the potential for
guo), anchored at the critical point w* found by the Newton solver; the
rejection test itself only uses increments and never consults w*, so the
flow dynamics stay independent of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import Problem
from .energy import _segment_flux, c_value, upsilon_value
from .errors import (
    EigSolveFailure,
    InadmissibleFactor,
    InsufficientData,
    NonFinite,
    StepCollapse,
)
from .jacobian import _power
from .newton import _solve
from .triangulation import IdealTriangulation

GUO = "guo"
FRACTIONAL_CALABI = "fractional-calabi"
GENERALIZED_YAMABE = "generalized-yamabe"
KINDS = (GUO, FRACTIONAL_CALABI, GENERALIZED_YAMABE)

CONVERGED = "Converged"
TIME_BUDGET_EXHAUSTED = "TimeBudgetExhausted"
GUARD_TRIGGERED = "GuardTriggered"

STEP_FLOOR = 1e-12
GROW_AFTER = 5
GROW_FACTOR = 1.5


@dataclass(frozen=True)
class FlowSpec:
    """Which flow to run and how to integrate it.

    targets is required (strictly positive) for the two target-seeking flows
    and ignored by guo.  s is read only by fractional-calabi, p only by
    generalized-yamabe with 0 <= p < 2.
    """

    kind: str
    targets: np.ndarray | None = None
    s: float = 0.0
    p: float = 0.0
    step: float = 0.1
    tol: float = 1e-8
    t_max: float = 1e4
    safety: float = 1e-6

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}, expected one of {KINDS}")
        if not np.isfinite([self.s, self.p, self.step, self.tol, self.t_max, self.safety]).all():
            raise ValueError("s, p, step, tol, t_max and safety must be finite")
        if self.step <= 0.0 or self.tol <= 0.0 or self.t_max <= 0.0:
            raise ValueError("step, tol and t_max must be positive")
        if self.safety < 0.0:
            raise ValueError("safety must be non-negative")
        if self.kind == GENERALIZED_YAMABE and not (0.0 <= self.p < 2.0):
            raise ValueError(f"p must lie in [0, 2), got {self.p}")
        if self.kind != GUO:
            if self.targets is None:
                raise ValueError(f"{self.kind} requires targets")
            t = np.asarray(self.targets, dtype=float)
            if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
                raise ValueError("targets must be strictly positive finite lengths")
            object.__setattr__(self, "targets", t)


def vector_field(tri: IdealTriangulation, l0, w, spec: FlowSpec) -> np.ndarray:
    """dw/dt at the factor w."""
    problem = Problem(tri, l0)
    with np.errstate(over="ignore"):
        return _field(problem, problem.check_factor(w), spec)[0]


def _field(problem: Problem, w, spec: FlowSpec, safety: float = 0.0):
    """(dw/dt, B) at w; InadmissibleFactor if a margin is below safety.
    Callers silence overflow warnings, as for Problem's private methods."""
    if spec.kind == FRACTIONAL_CALABI and spec.s != 0.0:
        B, L = problem._evaluate(w, safety)
        return _power(L, spec.s)[0] @ (B - spec.targets), B
    B = problem._boundary(w, safety)[0]
    if spec.kind == GUO:
        return B, B
    diff = B - spec.targets
    if spec.kind == FRACTIONAL_CALABI:
        # the zero power is the identity; skipping the eigensolver keeps
        # the s = 0 field exact
        return diff, B
    g = ((2.0 - spec.p) * B + spec.p * spec.targets) / B ** (spec.p + 1.0)
    return g * diff, B


@dataclass
class Trajectory:
    """Time series of one integration plus its convergence report.

    energies holds the flow's designated scalar per sample: lambda for
    fractional-calabi, xi for generalized-yamabe, the potential phi for guo
    (energy_kind names it).
    """

    spec: FlowSpec
    ts: np.ndarray
    ws: np.ndarray
    Bs: np.ndarray
    residuals: np.ndarray
    energies: np.ndarray
    status: str
    energy_kind: str
    w_star: np.ndarray | None
    accepted_steps: int
    rejected_steps: int

    @property
    def n_samples(self) -> int:
        return len(self.ts)


def _effective_targets(n: int, spec: FlowSpec) -> np.ndarray:
    if spec.kind == GUO:
        return np.zeros(n)
    return spec.targets


def _penalty(B, spec: FlowSpec, targets) -> float:
    if spec.kind == GENERALIZED_YAMABE:
        return upsilon_value(B, targets, spec.p)
    return c_value(B, targets)


def integrate(tri: IdealTriangulation, l0, w0, spec: FlowSpec) -> Trajectory:
    """Run the flow from w0 until tolerance, time budget, or guard failure.

    Raises StepCollapse (carrying the partial trajectory, status
    GuardTriggered) if halving pushes the step below 1e-12.  The
    target-seeking flows solve for w* once up front to anchor the recorded
    Lyapunov values; solver failures propagate.
    """
    problem = Problem(tri, l0)
    w = problem.check_factor(w0).copy()
    n = tri.n_boundaries
    targets = _effective_targets(n, spec)
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")

    margins = problem.margin(w)
    if np.min(margins) < spec.safety:
        edge = int(np.argmin(margins))
        raise InadmissibleFactor(
            f"initial factor margin {margins[edge]:.3e} on edge {edge} is below safety",
            edge_index=edge,
        )

    B = problem.boundary_lengths(w)
    residual = float(np.abs(B - targets).max())

    track_lyapunov = spec.kind != GUO
    if track_lyapunov:
        energy_kind = "lambda" if spec.kind == FRACTIONAL_CALABI else "xi"
        w_star = _solve(
            problem, targets, np.zeros(n), tol=1e-10, max_iterations=200, safety=1e-6
        ).w_star
        last_penalty = _penalty(B, spec, targets)
        energy = _segment_flux(problem, w_star, w, targets) + last_penalty
    else:
        energy_kind = "phi"
        w_star = None
        energy = _segment_flux(problem, np.zeros(n), w)

    # w and B are never modified in place, so the lists hold them uncopied
    ts = [0.0]
    ws = [w]
    Bs = [B]
    residuals = [residual]
    energies = [energy]
    accepted = rejected = consecutive = 0
    h = spec.step
    t = 0.0
    status = CONVERGED if residual < spec.tol else None

    def build(final_status: str) -> Trajectory:
        return Trajectory(
            spec=spec,
            ts=np.asarray(ts),
            ws=np.asarray(ws),
            Bs=np.asarray(Bs),
            residuals=np.asarray(residuals),
            energies=np.asarray(energies),
            status=final_status,
            energy_kind=energy_kind,
            w_star=w_star,
            accepted_steps=accepted,
            rejected_steps=rejected,
        )

    # trial states may overflow the kernels, which check for it themselves
    with np.errstate(over="ignore"):
        # k1 is the field at w: computed once at the start, then carried over
        # from the last stage of each accepted step (first same as last)
        k1 = None
        while status is None:
            if spec.t_max - t < STEP_FLOOR:
                status = TIME_BUDGET_EXHAUSTED
                break
            h_try = min(h, spec.t_max - t)

            try:
                if k1 is None:
                    k1 = _field(problem, w, spec)[0]
                # a stage below the safety floor raises InadmissibleFactor
                k2 = _field(problem, w + 0.5 * h_try * k1, spec, spec.safety)[0]
                k3 = _field(problem, w + 0.5 * h_try * k2, spec, spec.safety)[0]
                k4 = _field(problem, w + h_try * k3, spec, spec.safety)[0]
                w_new = w + (h_try / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                k_new, B_new = _field(problem, w_new, spec, spec.safety)
            except (InadmissibleFactor, NonFinite, EigSolveFailure):
                accept = False
            else:
                accept = True
                # targets are zero for guo, so this is the phi increment there
                delta_energy = _segment_flux(problem, w, w_new, targets, rtol=1e-12)
                if track_lyapunov:
                    penalty_new = _penalty(B_new, spec, targets)
                    # lyapunov change over the step; reject any increase, and
                    # record the energy with this exact quantity so the stored
                    # sequence is non-increasing in float arithmetic too
                    delta_energy = delta_energy + penalty_new - last_penalty
                    if delta_energy > 0.0:
                        accept = False

            if not accept:
                rejected += 1
                consecutive = 0
                h = h_try / 2.0
                if h < STEP_FLOOR:
                    raise StepCollapse(
                        f"step collapsed below {STEP_FLOOR} at t = {t:.6g}",
                        trajectory=build(GUARD_TRIGGERED),
                    )
                continue

            w, B, k1 = w_new, B_new, k_new
            t += h_try
            energy = energy + delta_energy
            if track_lyapunov:
                last_penalty = penalty_new
            residual = float(np.abs(B - targets).max())
            ts.append(t)
            ws.append(w)
            Bs.append(B)
            residuals.append(residual)
            energies.append(energy)
            accepted += 1
            consecutive += 1
            if consecutive >= GROW_AFTER:
                h = min(h * GROW_FACTOR, spec.step)
                consecutive = 0
            if residual < spec.tol:
                status = CONVERGED

    return build(status)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float
    n_samples: int


def decay_rate(traj: Trajectory) -> DecayFit:
    """Exponential rate fitted to ln ||B - b||_2 over the trajectory's final half.

    Requires at least 10 samples whose 2-norm residual went below the initial
    one, and a tail whose residual falls by at least one e-fold; raises
    InsufficientData otherwise (e.g. a start already at w*, or a run that
    stalled, where the fit would report the stall as a clean rate near 0).
    """
    targets = _effective_targets(traj.ws.shape[1], traj.spec)
    r = np.linalg.norm(traj.Bs - targets[None, :], axis=1)
    below = int(np.count_nonzero((r[1:] < r[0]) & (r[1:] > 0.0)))
    if below < 10:
        raise InsufficientData(
            f"only {below} samples fell below the initial residual; need 10"
        )
    k0 = len(r) // 2
    t_tail = traj.ts[k0:]
    r_tail = r[k0:]
    keep = r_tail > 0.0
    t_tail, r_tail = t_tail[keep], r_tail[keep]
    if len(t_tail) < 2:
        raise InsufficientData("fewer than 2 usable samples in the tail")
    y = np.log(r_tail)
    if y[0] - y[-1] < 1.0:
        raise InsufficientData(
            f"tail residual fell by only {y[0] - y[-1]:.3g} e-folds; need 1"
        )
    slope, intercept = np.polyfit(t_tail, y, 1)
    fitted = slope * t_tail + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 0.0:
        raise InsufficientData("tail residuals show no variation to fit")
    return DecayFit(rate=-float(slope), r_squared=1.0 - ss_res / ss_tot, n_samples=len(t_tail))


def csv_header(n: int) -> str:
    parts = ["t"]
    parts += [f"w_{i + 1}" for i in range(n)]
    parts += [f"B_{i + 1}" for i in range(n)]
    parts += ["residual", "energy"]
    return ",".join(parts)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per sample, 17 significant digits (lossless doubles)."""
    n = traj.ws.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_header(n) + "\n")
        for k in range(traj.n_samples):
            row = [traj.ts[k], *traj.ws[k], *traj.Bs[k], traj.residuals[k], traj.energies[k]]
            fh.write(",".join("%.17g" % v for v in row) + "\n")
