"""Flow vector fields, the guarded integrator, decay fits, and CSV export."""

import numpy as np
import pytest

from hypflow import energy, flows, instances
from hypflow.conformal import Problem, admissibility_margin, boundary_lengths
from hypflow.energy import c_value, segment_flux, upsilon_value
from hypflow.errors import InadmissibleFactor, InsufficientData, NonFinite, StepCollapse
from hypflow.flows import (
    FlowSpec,
    decay_rate,
    integrate,
    vector_field,
    write_trajectory_csv,
)
from hypflow.jacobian import boundary_jacobian
from hypflow.newton import solve_prescribed

TARGETS = np.array([1.0, 1.0, 1.0])


def test_vector_field_shapes(pants, symmetric_l0):
    w = np.zeros(3)
    B = boundary_lengths(pants, symmetric_l0, w)
    guo = vector_field(pants, symmetric_l0, w, FlowSpec(kind="guo"))
    assert np.array_equal(guo, B)

    calabi0 = vector_field(pants, symmetric_l0, w,
                           FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0))
    assert np.array_equal(calabi0, B - TARGETS)  # s = 0 is exact, no eigensolve

    yamabe0 = vector_field(pants, symmetric_l0, w,
                           FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=0.0))
    assert np.array_equal(yamabe0, 2.0 * (B - TARGETS))

    calabi1 = vector_field(pants, symmetric_l0, w,
                           FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0))
    L = boundary_jacobian(pants, symmetric_l0, w)
    assert np.allclose(calabi1, -L @ (B - TARGETS), rtol=0, atol=1e-14)  # Delta^1 = -L


def test_vector_field_zero_at_fixed_point(pants, symmetric_l0):
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS, tol=1e-12).w_star
    for spec in (FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.7),
                 FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=1.2)):
        v = vector_field(pants, symmetric_l0, w_star, spec)
        assert np.max(np.abs(v)) < 10 * 1e-8


def test_flow_spec_validation(pants, symmetric_l0):
    with pytest.raises(ValueError):
        FlowSpec(kind="unknown")
    with pytest.raises(ValueError):
        FlowSpec(kind="fractional-calabi")  # missing targets
    with pytest.raises(ValueError):
        FlowSpec(kind="generalized-yamabe", targets=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        FlowSpec(kind="generalized-yamabe", targets=np.ones(2), p=2.0)
    with pytest.raises(ValueError):
        FlowSpec(kind="guo", step=0.0)
    with pytest.raises(ValueError):
        FlowSpec(kind="guo", tol=-1.0)
    # NaN fails no comparison-based bound, so every number is checked to be finite
    for name in ("s", "p", "step", "tol", "t_max", "safety"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError):
                FlowSpec(kind="fractional-calabi", targets=TARGETS, **{name: value})
    # one target for three boundaries used to broadcast in vector_field
    spec = FlowSpec(kind="fractional-calabi", targets=[1.0])
    for run in (vector_field, integrate):
        with pytest.raises(ValueError, match="shape"):
            run(pants, symmetric_l0, np.zeros(3), spec)


def test_fractional_calabi_converges_to_newton_solution(pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert np.max(np.abs(traj.Bs[-1] - TARGETS)) < 1e-8
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS).w_star
    assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6
    assert traj.energy_kind == "lambda"
    assert np.all(np.diff(traj.energies) <= 0)
    assert np.all(np.diff(traj.ts) > 0)
    # every sample stays clear of the admissibility boundary
    margins = np.array([admissibility_margin(pants, symmetric_l0, w).min()
                        for w in traj.ws])
    assert np.all(margins >= spec.safety)


def test_generalized_yamabe_same_limit(pants, symmetric_l0):
    spec = FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS).w_star
    assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6
    assert traj.energy_kind == "xi"
    assert np.all(np.diff(traj.energies) <= 0)


def test_guo_flow_monotone(pants, symmetric_l0):
    spec = FlowSpec(kind="guo", tol=1e-2, t_max=1e3)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert np.all(np.diff(np.asarray(traj.Bs), axis=0) < 0)
    assert np.all(np.diff(np.asarray(traj.ws), axis=0) > 0)
    assert traj.energy_kind == "phi"
    assert np.all(np.diff(traj.energies) < 0)


def test_guo_budget_exhaustion_reported(pants, symmetric_l0):
    traj = integrate(pants, symmetric_l0, np.zeros(3),
                     FlowSpec(kind="guo", tol=1e-8, t_max=5.0))
    assert traj.status == "TimeBudgetExhausted"
    assert traj.ts[-1] <= 5.0 + 1e-12


def test_start_at_fixed_point(pants, symmetric_l0):
    targets = boundary_lengths(pants, symmetric_l0, np.zeros(3))
    spec = FlowSpec(kind="fractional-calabi", targets=targets, s=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert traj.n_samples == 1
    with pytest.raises(InsufficientData):
        decay_rate(traj)


def test_inadmissible_start_rejected(pants, symmetric_l0):
    with pytest.raises(InadmissibleFactor):
        integrate(pants, symmetric_l0, np.full(3, -0.35),
                  FlowSpec(kind="guo"))


def test_step_collapse_carries_partial_trajectory(pants, symmetric_l0):
    # target w* sits at a smaller admissibility margin than w0; with safety
    # set between the two, every step toward w* must eventually be rejected
    targets = np.full(3, 5.0)
    w_star = solve_prescribed(pants, symmetric_l0, targets).w_star
    m_star = admissibility_margin(pants, symmetric_l0, w_star).min()
    spec = FlowSpec(kind="fractional-calabi", targets=targets, s=0.0,
                    safety=4.0 * m_star)
    with pytest.raises(StepCollapse) as exc:
        integrate(pants, symmetric_l0, np.zeros(3), spec)
    traj = exc.value.trajectory
    assert traj.status == "GuardTriggered"
    assert traj.n_samples >= 1
    margins = np.array([admissibility_margin(pants, symmetric_l0, w).min()
                        for w in traj.ws])
    assert np.all(margins >= spec.safety)


def test_unscreened_instances_reach_newton_solution():
    # unscreened instances start where -L is stiff (lambda_max up to 86 at
    # w = 0); uncapped s = 1 steps jumped into a region where B collapses and
    # stranded 18 of these 20 runs
    for seed in range(20):
        tri, l0 = instances.random_instance(np.random.default_rng(seed))
        targets = np.ones(tri.n_boundaries)
        spec = FlowSpec(kind="fractional-calabi", targets=targets, s=1.0, t_max=200.0)
        traj = integrate(tri, l0, np.zeros(tri.n_boundaries), spec)
        assert traj.status == "Converged", seed
        w_star = solve_prescribed(tri, l0, targets).w_star
        assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6, seed


def test_unscreened_stiff_targets_converge_in_few_steps():
    # with targets 5, RK4 held to its stability bound took 12 755 accepted
    # steps for these 20 runs at s = 1 and 234 381 at s = 2; the exponential
    # step is exact on the stiff linear part at any step size
    for s in (1.0, 2.0):
        accepted = 0
        for seed in range(20):
            tri, l0 = instances.random_instance(np.random.default_rng(seed))
            targets = np.full(tri.n_boundaries, 5.0)
            spec = FlowSpec(kind="fractional-calabi", targets=targets, s=s, t_max=200.0)
            traj = integrate(tri, l0, np.zeros(tri.n_boundaries), spec)
            assert traj.status == "Converged", (s, seed)
            w_star = solve_prescribed(tri, l0, targets).w_star
            assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6, (s, seed)
            accepted += traj.accepted_steps
            assert accepted < 1000, (s, seed)  # per run, so a slow integrator fails early


def test_large_power_takes_full_steps(pants, symmetric_l0):
    # lambda_max = 2.958 at w = 0, so RK4 at s = 40 is stable only for steps
    # below 2.785 / 2.958^41 = 1e-19; the exponential step needs no such cap
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=40.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert traj.n_samples == 4 and abs(traj.ts[-1] - 0.3) < 1e-12
    assert np.max(np.abs(traj.ws[-1] - traj.w_star)) < 1e-6


@pytest.mark.parametrize("seed", [None, 0, 3], ids=["pants", "seed0", "seed3"])
def test_inverse_power_step_is_damped_newton(seed):
    # at s = -1 the step's exponent mu^(s+1) is 1, so a step of length h is
    # the Newton step damped by -expm1(-h)
    if seed is None:
        tri, l0 = instances.pair_of_pants(), np.full(3, instances.PANTS_EDGE_LENGTH)
    else:
        tri, l0 = instances.random_instance(np.random.default_rng(seed))
    n = tri.n_boundaries
    targets, w0 = np.ones(n), np.zeros(n)
    traj = integrate(tri, l0, w0, FlowSpec(kind="fractional-calabi", targets=targets,
                                           s=-1.0, t_max=0.1))
    B, L = Problem(tri, l0).evaluate(w0)
    factor = np.linalg.cholesky(-L)
    newton = np.linalg.solve(factor.T, np.linalg.solve(factor, B - targets))
    step = traj.ws[1] - traj.ws[0]
    error = np.max(np.abs(step + np.expm1(-traj.ts[1]) * newton))
    assert error <= 1e-13 * np.max(np.abs(step))


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_short_edges_converge_at_zero_safety_in_small_batches(monkeypatch, s):
    # with every l0 = 5e-4 the margin at w = 0 is 3.1e-8; the Newton anchor
    # solved at a fixed floor of 1e-6 and failed at its first iteration, and
    # at l0 = 1e-3 the per-step quadrature's refinements took 2 GB
    pants, l0 = instances.pair_of_pants(), np.full(3, 5e-4)
    w_star = solve_prescribed(pants, l0, TARGETS, safety=0.0).w_star
    shapes = _count_evaluations(monkeypatch)
    traj = integrate(pants, l0, np.zeros(3),
                     FlowSpec(kind="fractional-calabi", targets=TARGETS, s=s, safety=0.0))
    assert traj.status == "Converged"
    assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6
    assert max((shape[0] for shape in shapes if shape not in ("eigh", (3,))), default=0) <= 48


def test_short_edges_converge_from_admissible_start():
    # with every l0 = 5e-4 the margin at w = 0 is 3.1e-8, below the Newton
    # anchor's 1e-6 floor; w0 = 0.5 has margin 1.0, but an anchor solved from
    # zeros instead of w0 failed at its first iteration for every flow here
    pants, l0, w0 = instances.pair_of_pants(), np.full(3, 5e-4), np.full(3, 0.5)
    w_star = solve_prescribed(pants, l0, TARGETS, w_init=w0).w_star
    for spec in (FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0),
                 FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0),
                 FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=1.0)):
        traj = integrate(pants, l0, w0, spec)
        assert traj.status == "Converged"
        assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6


def _count_evaluations(monkeypatch):
    """The shape of every factor batch that Problem evaluates B at, in order,
    with "eigh" where a symmetric eigensolve runs."""
    shapes = []
    boundary = Problem._boundary
    eigh = np.linalg.eigh

    def counting(self, w, safety):
        shapes.append(w.shape)
        return boundary(self, w, safety)

    def counting_eigh(a):
        shapes.append("eigh")
        return eigh(a)

    monkeypatch.setattr(Problem, "_boundary", counting)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return shapes


def _stepping_evaluations(monkeypatch, pants, symmetric_l0, spec):
    """(evaluations at w0, evaluations of the steps, trajectory) of a run from
    w = 0 that rejects no step; the Newton pre-solve's are left out."""
    shapes = _count_evaluations(monkeypatch)
    solve, penalty = flows._solve, flows._penalty
    start, stepping = [], []

    def solve_recording_start(*args, **kwargs):
        start.extend(shapes)  # the field at w0 comes before the pre-solve
        return solve(*args, **kwargs)

    def penalty_starting_steps(*args):
        # the first penalty, at w0, follows the field and any pre-solve
        if not stepping:
            start[:] = start or shapes  # guo runs no pre-solve
            shapes.clear()
            stepping.append(1)
        return penalty(*args)

    monkeypatch.setattr(flows, "_solve", solve_recording_start)
    monkeypatch.setattr(flows, "_penalty", penalty_starting_steps)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged" and traj.rejected_steps == 0
    return start, shapes, traj


STEPPING_SPECS = [
    FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0),
    FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0),
    FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=1.0),
    FlowSpec(kind="guo", tol=1e-2, t_max=1e3),
]
STEPPING_IDS = ["s=0", "s=1", "yamabe-p=1", "guo"]


@pytest.mark.parametrize("spec", STEPPING_SPECS, ids=STEPPING_IDS)
def test_each_step_evaluates_b_once(pants, symmetric_l0, monkeypatch, spec):
    """B, L and one eigensolve at w0; then per accepted step B at its end,
    which certifies it without a quadrature, and L and one eigensolve there
    for the next step, none after the converging one."""
    start, steps, traj = _stepping_evaluations(monkeypatch, pants, symmetric_l0, spec)
    assert start == [(3,), "eigh"]
    assert steps == [(3,), "eigh"] * (traj.accepted_steps - 1) + [(3,)]


def _penalty_rule(spec, B, targets):
    if spec.kind == "guo":
        return 0.0
    if spec.kind == "generalized-yamabe":
        return upsilon_value(B, targets, spec.p)
    return c_value(B, targets)


@pytest.mark.parametrize("spec", STEPPING_SPECS, ids=STEPPING_IDS)
@pytest.mark.parametrize("seed", [None, 4], ids=["pants", "random"])
def test_energies_follow_their_rule(pants, symmetric_l0, spec, seed):
    """Bitwise: the gap from the anchor (w*, or 0 for guo) to w0 plus the
    penalty there; then per step the least of psi's increment, integrated
    to rtol 1e-12, and its end slope, plus the penalty's change."""
    tri, l0 = (pants, symmetric_l0) if seed is None else \
        instances.random_instance(np.random.default_rng(seed))
    n = tri.n_boundaries
    targets = np.zeros(n) if spec.kind == "guo" else np.ones(n)
    if spec.kind != "guo":
        spec = FlowSpec(kind=spec.kind, targets=targets, s=spec.s, p=spec.p)
    traj = integrate(tri, l0, np.zeros(n), spec)
    anchor = np.zeros(n) if spec.kind == "guo" else traj.w_star
    expected = [segment_flux(tri, l0, anchor, traj.ws[0], targets)
                + _penalty_rule(spec, traj.Bs[0], targets)]
    for k in range(1, traj.n_samples):
        w, w_new = traj.ws[k - 1], traj.ws[k]
        flux = segment_flux(tri, l0, w, w_new, targets, rtol=1e-12)
        slope = (targets - traj.Bs[k]) @ (w_new - w)
        expected.append(expected[-1] + (min(flux, slope) + _penalty_rule(spec, traj.Bs[k], targets)
                                        - _penalty_rule(spec, traj.Bs[k - 1], targets)))
    assert traj.n_samples > 10
    assert np.array_equal(traj.energies, expected)
    assert np.all(np.diff(traj.energies) <= 0)


def test_energies_are_computed_once(pants, symmetric_l0, monkeypatch):
    """Nothing integrates an energy until it is read; the first read runs one
    line integral per sample and the second none."""
    fluxes = []
    flux = flows._segment_flux

    def counting(*args, **kwargs):
        fluxes.append(1)
        return flux(*args, **kwargs)

    monkeypatch.setattr(flows, "_segment_flux", counting)
    traj = integrate(pants, symmetric_l0, np.zeros(3),
                     FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0))
    assert fluxes == []
    energies = traj.energies
    assert len(fluxes) == traj.n_samples
    assert traj.energies is energies and len(fluxes) == traj.n_samples


def test_uncertified_steps_keep_the_trajectory(pants, symmetric_l0, monkeypatch):
    """With the end-slope certificate patched to always fail, every step
    integrates psi's increment for its Lyapunov test, and the trajectory is
    bitwise unchanged, rejections included."""
    tri, l0 = instances.random_instance(np.random.default_rng(2))
    n = tri.n_boundaries
    runs = [(pants, symmetric_l0, spec) for spec in STEPPING_SPECS]
    runs.append((tri, l0, FlowSpec(kind="fractional-calabi", targets=np.full(n, 5.0), s=1.0,
                                   t_max=200.0)))
    for tri_k, l0_k, spec in runs:
        w0 = np.zeros(tri_k.n_boundaries)
        certified = integrate(tri_k, l0_k, w0, spec)
        with monkeypatch.context() as patch:
            patch.setattr(flows, "_descends", lambda problem, start, end, B_end, targets, accept:
                          accept(energy._segment_flux(problem, start, end, targets, rtol=1e-12)))
            integrated = integrate(tri_k, l0_k, w0, spec)
        for name in ("ts", "ws", "Bs", "residuals", "energies"):
            assert np.array_equal(getattr(certified, name), getattr(integrated, name)), name
        assert (certified.status, certified.accepted_steps, certified.rejected_steps) == \
            (integrated.status, integrated.accepted_steps, integrated.rejected_steps)
    assert certified.rejected_steps > 0


def test_lyapunov_rise_is_rejected(pants, symmetric_l0, monkeypatch):
    """At step 1 toward targets 5, one step from w = 0 would raise lambda
    (accepting every step lets it rise by 8.1); neither its end slope nor its
    integral lets it pass, and the other four rejections leave the
    admissible set or double range."""
    verdicts = []
    descends = flows._descends

    def recording(*args):
        verdicts.append(descends(*args))
        return verdicts[-1]

    monkeypatch.setattr(flows, "_descends", recording)
    traj = integrate(pants, symmetric_l0, np.zeros(3),
                     FlowSpec(kind="fractional-calabi", targets=np.full(3, 5.0), step=1.0))
    assert (traj.status, traj.accepted_steps, traj.rejected_steps) == ("Converged", 9, 5)
    assert verdicts.count(False) == 1
    assert np.all(np.diff(traj.energies) <= 0)


def test_certified_step_rejects_a_node_at_margin_zero(pants, symmetric_l0, monkeypatch):
    """A step certified by its end slope is still rejected where a node of the
    quadrature it skips rounds to margin 0 (the quadrature would reject it);
    the first step's node check is patched to meet one."""
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    plain = integrate(pants, symmetric_l0, np.zeros(3), spec)
    solve, check_margin = flows._solve, Problem.check_margin
    armed = []

    def solve_then_arm(*args, **kwargs):
        report = solve(*args, **kwargs)
        armed.append(1)  # the anchor's own node checks stay as they are
        return report

    def node_at_zero(self, w, safety=0.0):
        if armed == [1] and w.shape == (48, 3):
            armed.append(1)
            raise InadmissibleFactor("admissibility violated on edge 0 (margin 0.000e+00)", 0)
        return check_margin(self, w, safety)

    monkeypatch.setattr(flows, "_solve", solve_then_arm)
    monkeypatch.setattr(Problem, "check_margin", node_at_zero)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert len(armed) == 2
    assert plain.rejected_steps == 0 and traj.rejected_steps == 1
    assert traj.ts[1] == plain.ts[1] / 2.0


def test_eigensolves_only_at_accepted_states(monkeypatch):
    """A run that rejects steps solves at w0 and at the end of every accepted
    step but the converging one: never at a rejected trial end."""
    solved = []
    eigh = np.linalg.eigh

    def recording(a):
        solved.append(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    tri, l0 = instances.random_instance(np.random.default_rng(2))
    n = tri.n_boundaries
    spec = FlowSpec(kind="fractional-calabi", targets=np.full(n, 5.0), s=1.0, t_max=200.0)
    traj = integrate(tri, l0, np.zeros(n), spec)
    assert traj.status == "Converged" and traj.rejected_steps > 0
    assert len(solved) == traj.accepted_steps
    problem = Problem(tri, l0)
    for a, w in zip(solved, traj.ws):
        assert np.array_equal(a, -problem.evaluate(w)[1])


def test_field_failure_at_start_propagates(pants, symmetric_l0, monkeypatch):
    # B at w = 60 is 7.7e-53, but the s = 1 field overflows the hexagon
    # invariant there; the start used to be retried through 37 step halvings
    # and end in a StepCollapse that hid the cause
    shapes = _count_evaluations(monkeypatch)
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    with pytest.raises(NonFinite, match="hexagon invariant overflowed"):
        integrate(pants, symmetric_l0, np.full(3, 60.0), spec)
    assert shapes == [(3,)]


def test_guo_run_is_pinned(pants, symmetric_l0):
    # guo from a non-zero start; the bench runs no guo flow, so this pins it
    traj = integrate(pants, symmetric_l0, np.array([0.3, -0.1, 0.2]),
                     FlowSpec(kind="guo", t_max=3.0))
    assert traj.status == "TimeBudgetExhausted"
    assert (traj.n_samples, traj.accepted_steps, traj.rejected_steps) == (31, 30, 0)
    assert traj.energies[-1] == -1.3619946042139248
    assert traj.residuals[-1] == 0.14551087031992443


def test_decay_rate_fits_converged_run(pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    fit = decay_rate(traj)
    assert fit.rate > 0
    assert fit.r_squared > 0.99
    assert fit.n_samples >= 10


def test_decay_rate_factor_two(pants, symmetric_l0):
    w0 = np.full(3, 0.3)
    r0 = decay_rate(integrate(pants, symmetric_l0, w0,
                    FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0))).rate
    r1 = decay_rate(integrate(pants, symmetric_l0, w0,
                    FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=0.0))).rate
    assert abs(r1 / r0 - 2.0) < 0.2


def test_fixed_point_residual_bound(pants, symmetric_l0):
    # the flow field at the Newton solution is below 10x the solve tolerance
    report = solve_prescribed(pants, symmetric_l0, TARGETS, tol=1e-8)
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0)
    assert np.max(np.abs(vector_field(pants, symmetric_l0, report.w_star, spec))) \
        < 10 * 1e-8


def test_integration_is_deterministic(pants, symmetric_l0):
    spec = FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=0.5)
    a = integrate(pants, symmetric_l0, np.full(3, 0.2), spec)
    b = integrate(pants, symmetric_l0, np.full(3, 0.2), spec)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.ws, b.ws)
    assert np.array_equal(a.energies, b.energies)
    assert a.accepted_steps == b.accepted_steps
    assert a.rejected_steps == b.rejected_steps


def test_step_growth_capped_at_initial(pants, symmetric_l0):
    spec = FlowSpec(kind="guo", tol=1e-2, t_max=1e3, step=0.2)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert np.max(np.diff(traj.ts)) <= spec.step + 1e-12


def test_csv_round_trip(tmp_path, pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)

    lines = path.read_text().splitlines()
    assert lines[0] == "t,w_1,w_2,w_3,B_1,B_2,B_3,residual,energy"
    assert len(lines) == traj.n_samples + 1

    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits reproduce every double bit-for-bit
    assert np.array_equal(data[:, 0], traj.ts)
    assert np.array_equal(data[:, 1:4], np.asarray(traj.ws))
    assert np.array_equal(data[:, 4:7], np.asarray(traj.Bs))
    assert np.array_equal(data[:, 7], traj.residuals)
    assert np.array_equal(data[:, 8], traj.energies)


def test_trajectory_samples_property(pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    w0 = np.full(3, 0.1)
    traj = integrate(pants, symmetric_l0, w0, spec)
    for series in (traj.ws, traj.Bs, traj.residuals, traj.energies):
        assert len(series) == traj.n_samples
    assert traj.ts[0] == 0.0 and np.array_equal(traj.ws[0], w0)


def test_decay_rate_refuses_stalled_tail():
    # with targets 0.1, fractional-calabi s=1 is still in a slow mode on this
    # instance at t = 20 (residual 0.025): the tail falls by 0.76 e-folds,
    # too little to tell a decay from a stall
    tri, l0 = instances.random_instance(np.random.default_rng(0))
    spec = FlowSpec(kind="fractional-calabi", targets=np.full(tri.n_boundaries, 0.1),
                    s=1.0, t_max=20.0)
    traj = integrate(tri, l0, np.zeros(tri.n_boundaries), spec)
    assert traj.status == "TimeBudgetExhausted"
    with pytest.raises(InsufficientData):
        decay_rate(traj)


# the README `compare --s=-1,0,1 --p=0,1` table on the pants, targets 1:
# (kind, param, samples, decay_rate, final_residual) as printed with %.17g
README_COMPARE = [
    ("fractional-calabi", -1.0, 166, 0.99999982477555316, 9.5962540136440566e-09),
    ("fractional-calabi", 0.0, 68, 2.4594836907023399, 8.1334738943894536e-09),
    ("fractional-calabi", 1.0, 28, 6.049058599994571, 7.6371506896322217e-09),
    ("generalized-yamabe", 0.0, 35, 4.9189671575484164, 6.414686337663511e-09),
    ("generalized-yamabe", 1.0, 35, 4.9189463171076229, 8.1661870598992436e-09),
]


@pytest.mark.parametrize("kind, param, samples, rate, residual", README_COMPARE)
def test_readme_compare_table_is_pinned(pants, symmetric_l0, kind, param, samples,
                                        rate, residual):
    # a kernel change that moves a trajectory by one rounding shows here
    spec = FlowSpec(kind=kind, targets=TARGETS,
                    s=param if kind == "fractional-calabi" else 0.0,
                    p=param if kind == "generalized-yamabe" else 0.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.n_samples == samples
    assert traj.residuals[-1] == residual
    assert decay_rate(traj).rate == rate


@pytest.mark.parametrize("kind, param", [
    ("fractional-calabi", -1.0), ("fractional-calabi", 0.0), ("fractional-calabi", 0.5),
    ("fractional-calabi", 1.0), ("fractional-calabi", 2.0),
    ("generalized-yamabe", 0.0), ("generalized-yamabe", 1.0), ("generalized-yamabe", 1.5),
])
def test_decay_rate_matches_linearization(pants, symmetric_l0, kind, param):
    # the symmetric start excites only the all-ones mode of -L at w*, whose
    # eigenvalue is its Rayleigh quotient mu = 2.4595; the flow linearizes to
    # rate mu^(s+1) (fractional-calabi) or 2 mu (yamabe, g = 2 at B = b = 1).
    # Every step of the fitted tail is 0.1.  The exponential step is exact on
    # the linearization, so the fit sees the continuous rate; RK4 at that
    # step saw its discrete rate, off by 7.4e-4 for yamabe and by 13 % at
    # s = 2.  Measured agreement is 6.5e-6 or better.
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS, tol=1e-12).w_star
    ones = np.ones(3)
    mu = -(ones @ boundary_jacobian(pants, symmetric_l0, w_star) @ ones) / 3.0
    assert abs(mu - 2.459476990) < 1e-9
    if kind == "fractional-calabi":
        spec, lam = FlowSpec(kind=kind, targets=TARGETS, s=param), mu ** (param + 1.0)
    else:
        spec, lam = FlowSpec(kind=kind, targets=TARGETS, p=param), 2.0 * mu
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    tail = traj.ts[traj.n_samples // 2:]  # the samples decay_rate fits
    assert np.allclose(np.diff(tail), spec.step, rtol=0, atol=1e-12)
    assert abs(decay_rate(traj).rate / lam - 1.0) < 1e-5
