"""Flow vector fields and a guarded adaptive integrator.

Three flows share one state space (the admissible conformal factors):

    guo                  dw/dt = B
    fractional-calabi    dw/dt = Delta^s (B - b)
    generalized-yamabe   dw/dt = g * (B - b),  g_i = ((2-p) B_i + p b_i) / B_i^(p+1)

The two target-seeking flows converge to the unique w* with B(w*) = b; the
guo flow drives every boundary length toward zero, so it only stops on the
tolerance or the time budget.

Guo's field is the s = 0 field with b = 0, and its potential phi is psi at
b = 0, so all three run through one integrator with guo's targets set to 0.

Every flow takes exponential Rosenbrock-Euler steps (Hochbruck & Ostermann,
Exponential integrators, Acta Numerica 2010).  With G = diag(g), g = 1 for
fractional-calabi and guo, each field linearizes to -G Delta^e, e = s + 1
for fractional-calabi and e = 1 otherwise.  G Delta is similar to the
symmetric G^(1/2) Delta G^(1/2) = U diag(mu) U^T, and with (mu, U) at the
step's start the step is

    w_new = w - G^(1/2) U diag(expm1(-h mu^e) / mu) U^T G^(1/2) (B - b),

exact on that linearization at any h and the Newton step as h -> inf.  A
proposal is rejected when the result drops an admissibility margin below
`safety`, when a kernel leaves double range, or when the flow's Lyapunov
value would increase (lambda for fractional-calabi, xi for
generalized-yamabe, none for guo); the step then halves.  After five
consecutive accepts the step grows by 1.5x, capped at its initial value.

A step evaluates B once, at its end; L and an eigendecomposition follow
there once the step is accepted and unconverged, for the next step.  The
Lyapunov test needs no quadrature where convexity settles it: psi rises
over the step by at most the end slope g(1) = (b - B_new) . (w_new - w), so
g(1) + dC <= 0 (dY for generalized-yamabe) certifies it, and only the other
steps integrate psi's increment (energy._descends).

The recorded energies are computed on first read, one line integral per
step (short, and by convexity at least `safety` away from the admissible
boundary, so the quadrature is effectively exact), which keeps them
meaningful down to the convergence floor where differencing two absolute
potentials would return pure rounding noise.  They are the flow's own
Lyapunov value, anchored at the critical point w* that the Newton solver
finds from w0 (for guo, the potential phi anchored at w = 0); the rejection
test never consults w*, so the flow dynamics stay independent of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conformal import Problem
from .energy import _descends, _segment_flux, c_value, upsilon_value
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
    targets = _effective_targets(tri.n_boundaries, spec)
    with np.errstate(over="ignore"):
        B, geometry, _ = problem._boundary(problem.check_factor(w), 0.0)
        return _velocity(B, _operator(problem, B, geometry, spec, targets), spec, targets)


def _scale(B, spec: FlowSpec, targets) -> np.ndarray:
    """g, the field's diagonal factor: 1 except for generalized-yamabe."""
    if spec.kind == GENERALIZED_YAMABE:
        return ((2.0 - spec.p) * B + spec.p * targets) / B ** (spec.p + 1.0)
    return np.ones_like(B)


def _velocity(B, operator, spec: FlowSpec, targets) -> np.ndarray:
    """dw/dt from B and `_operator` at the same state: g (B - b), or for
    fractional-calabi with s != 0, Delta^s (B - b) through Delta's eigenpairs."""
    if spec.kind == FRACTIONAL_CALABI and spec.s != 0.0:
        _, lam, vecs = operator
        return vecs @ (lam**spec.s * (vecs.T @ (B - targets)))
    return _scale(B, spec, targets) * (B - targets)


def _operator(problem: Problem, B, geometry, spec: FlowSpec, targets):
    """(G^(1/2), mu, U) at a state: the square root of the field's factor g and
    the eigenpairs of G^(1/2) Delta G^(1/2), the step's operator."""
    root = np.sqrt(_scale(B, spec, targets))
    L = root[:, None] * problem._jacobian(*geometry) * root
    return (root, *_power(L, spec.s if spec.kind == FRACTIONAL_CALABI else 0.0))


@dataclass
class Trajectory:
    """Time series of one integration plus its convergence report.

    energies holds the flow's designated scalar per sample: lambda for
    fractional-calabi, xi for generalized-yamabe, the potential phi for guo
    (energy_kind names it).  It is computed on first read and then kept; the
    read raises QuadratureStall where a line integral does not settle.
    initial_speed is max |dw/dt| at w0; problem is the checked instance.
    """

    spec: FlowSpec
    ts: np.ndarray
    ws: np.ndarray
    Bs: np.ndarray
    residuals: np.ndarray
    status: str
    energy_kind: str
    w_star: np.ndarray | None
    accepted_steps: int
    rejected_steps: int
    initial_speed: float
    problem: Problem

    @property
    def n_samples(self) -> int:
        return len(self.ts)

    @cached_property
    def energies(self) -> np.ndarray:
        """The anchor's gap to w0, then per step the lesser of psi's integrated
        increment and end slope (at most what the step's test accepted), plus
        the penalty's change."""
        targets = _effective_targets(self.ws.shape[1], self.spec)
        anchor = np.zeros_like(targets) if self.w_star is None else self.w_star
        penalties = [_penalty(B, self.spec, targets) for B in self.Bs]
        with np.errstate(over="ignore"):
            energies = [_segment_flux(self.problem, anchor, self.ws[0], targets) + penalties[0]]
            for k in range(1, self.n_samples):
                w, w_new = self.ws[k - 1], self.ws[k]
                flux = _segment_flux(self.problem, w, w_new, targets, rtol=1e-12)
                slope = (targets - self.Bs[k]) @ (w_new - w)
                energies.append(energies[-1] + (min(flux, slope) + penalties[k] - penalties[k - 1]))
        return np.asarray(energies)


def _effective_targets(n: int, spec: FlowSpec) -> np.ndarray:
    """b, or zeros for guo: its field and potential are those at b = 0.
    ValueError unless b has one entry per boundary."""
    if spec.kind == GUO:
        return np.zeros(n)
    if spec.targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {spec.targets.shape}")
    return spec.targets


def _penalty(B, spec: FlowSpec, targets) -> float:
    """The Lyapunov value's penalty term: C or Y, and 0 for guo."""
    if spec.kind == GUO:
        return 0.0
    if spec.kind == GENERALIZED_YAMABE:
        return upsilon_value(B, targets, spec.p)
    return c_value(B, targets)


def integrate(tri: IdealTriangulation, l0, w0, spec: FlowSpec) -> Trajectory:
    """Run the flow from w0 until tolerance, time budget, or guard failure.

    Raises StepCollapse (carrying the partial trajectory, status
    GuardTriggered) if halving pushes the step below 1e-12.  The field and
    the step's operator are evaluated at w0 once, before anything else: a
    start below `safety` raises InadmissibleFactor, and a field that fails
    there (NonFinite, EigSolveFailure) propagates.  The target-seeking flows
    then solve for w* once, from w0, to anchor the recorded Lyapunov values;
    w* does not depend on `safety`, so that solve keeps margins above 0
    only.  Solver failures propagate.
    """
    problem = Problem(tri, l0)
    w = problem.check_factor(w0)
    n = tri.n_boundaries
    targets = _effective_targets(n, spec)
    exponent = spec.s + 1.0 if spec.kind == FRACTIONAL_CALABI else 1.0

    # trial states may overflow the kernels, which check for it themselves
    with np.errstate(over="ignore"):
        B, geometry, _ = problem._boundary(w, spec.safety)
        # the operator at w is carried over from the end of each accepted step
        operator = _operator(problem, B, geometry, spec, targets)
        initial_speed = float(np.abs(_velocity(B, operator, spec, targets)).max())
        if spec.kind == GUO:
            energy_kind, w_star = "phi", None
        else:
            energy_kind = "lambda" if spec.kind == FRACTIONAL_CALABI else "xi"
            w_star = _solve(problem, targets, w.copy(), tol=1e-10, safety=0.0).w_star
        penalty = _penalty(B, spec, targets)
        residual = float(np.abs(B - targets).max())
        # (t, w, B, residual) per sample; w and B are never modified in
        # place, so they are held uncopied
        samples = [(0.0, w, B, residual)]
        accepted = rejected = consecutive = 0
        h = spec.step
        t = 0.0
        status = CONVERGED if residual < spec.tol else None
        while status is None:
            if spec.t_max - t < STEP_FLOOR:
                status = TIME_BUDGET_EXHAUSTED
                break
            if h < STEP_FLOOR:
                status = GUARD_TRIGGERED
                break
            h_try = min(h, spec.t_max - t)

            try:
                root, mu, vecs = operator
                w_new = w - root * (vecs @ (np.expm1(-h_try * mu**exponent) / mu
                                            * (vecs.T @ (root * (B - targets)))))
                B_new, geometry, _ = problem._boundary(w_new, spec.safety)
                # the target-seeking flows reject a rise of the Lyapunov value;
                # guo, which has none, only checks the nodes
                penalty_new = _penalty(B_new, spec, targets)
                accept = _descends(problem, w, w_new, B_new, targets, lambda d: (
                    spec.kind == GUO or not d + penalty_new - penalty > 0.0))
                residual_new = float(np.abs(B_new - targets).max())
                # the operator at the end, which the next step starts from,
                # only for an accepted step that leaves one to take
                operator_new = (_operator(problem, B_new, geometry, spec, targets)
                                if accept and residual_new >= spec.tol else None)
            except (InadmissibleFactor, NonFinite, EigSolveFailure):
                accept = False

            if not accept:
                rejected += 1
                consecutive = 0
                h = h_try / 2.0
                continue

            w, B, operator, penalty, residual = w_new, B_new, operator_new, penalty_new, residual_new
            t += h_try
            samples.append((t, w, B, residual))
            accepted += 1
            consecutive += 1
            if consecutive >= GROW_AFTER:
                h = min(h * GROW_FACTOR, spec.step)
                consecutive = 0
            if residual < spec.tol:
                status = CONVERGED

    ts, ws, Bs, residuals = (np.asarray(series) for series in zip(*samples))
    traj = Trajectory(spec=spec, ts=ts, ws=ws, Bs=Bs, residuals=residuals, status=status,
                      energy_kind=energy_kind, w_star=w_star, accepted_steps=accepted,
                      rejected_steps=rejected, initial_speed=initial_speed, problem=problem)
    if status == GUARD_TRIGGERED:
        raise StepCollapse(f"step collapsed below {STEP_FLOOR} at t = {t:.6g}", trajectory=traj)
    return traj


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


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Header t,w_1..w_n,B_1..B_n,residual,energy, then one row per sample
    with 17 significant digits (lossless doubles)."""
    ids = range(1, traj.ws.shape[1] + 1)
    header = ",".join(["t", *(f"w_{i}" for i in ids), *(f"B_{i}" for i in ids),
                       "residual", "energy"])
    rows = np.column_stack([traj.ts, traj.ws, traj.Bs, traj.residuals, traj.energies])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
