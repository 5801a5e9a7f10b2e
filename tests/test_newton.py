"""Damped Newton solver for prescribed boundary lengths."""

import re

import numpy as np
import pytest

from hypflow import energy, instances, newton
from hypflow.conformal import Problem, admissibility_margin, boundary_lengths
from hypflow.errors import InadmissibleFactor, LineSearchFailure, MaxIterations, NonFinite
from hypflow.newton import solve_prescribed


def bisect_symmetric_factor(l0_scalar, b, lo=-0.3, hi=5.0, tol=1e-14):
    """Scalar oracle for the fully symmetric pair of pants: find w with
    2*arc(l(w)) = b where cosh(l/2) = e^{2w} cosh(l0/2)."""
    def boundary(w):
        half = np.exp(2.0 * w) * np.cosh(l0_scalar / 2.0)
        l = 2.0 * np.arccosh(half)
        theta = np.arccosh(np.cosh(l) / (np.cosh(l) - 1.0))
        return 2.0 * theta

    # boundary length decreases in w
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if boundary(mid) > b:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solution_already_at_start(pants, symmetric_l0):
    targets = boundary_lengths(pants, symmetric_l0, np.zeros(3))
    report = solve_prescribed(pants, symmetric_l0, targets)
    assert report.converged
    assert report.iterations <= 1
    assert np.max(np.abs(report.w_star)) < 1e-10


def test_symmetric_target_matches_bisection(pants, symmetric_l0):
    for b in (0.5, 1.0, 2.0, 3.0):
        report = solve_prescribed(pants, symmetric_l0, np.full(3, b), tol=1e-12)
        assert report.converged
        assert np.ptp(report.w_star) < 1e-10
        w_ref = bisect_symmetric_factor(instances.PANTS_EDGE_LENGTH, b)
        assert abs(report.w_star[0] - w_ref) < 1e-9


def test_plant_and_recover():
    rng = np.random.default_rng(0)
    for _ in range(30):
        tri, l0 = instances.random_instance(rng)
        w_plant = instances.random_admissible_factor(rng, tri, l0)
        targets = boundary_lengths(tri, l0, w_plant)
        report = solve_prescribed(tri, l0, targets)
        assert report.converged
        assert report.final_residual < 1e-8
        assert np.max(np.abs(report.w_star - w_plant)) < 1e-7


def test_start_independence(pants, symmetric_l0):
    targets = np.array([0.8, 1.7, 2.4])
    a = solve_prescribed(pants, symmetric_l0, targets).w_star
    b = solve_prescribed(pants, symmetric_l0, targets,
                         w_init=np.array([0.5, -0.1, 0.3])).w_star
    assert np.max(np.abs(a - b)) < 1e-7


def test_solution_is_admissible(pants, symmetric_l0):
    report = solve_prescribed(pants, symmetric_l0, np.full(3, 4.0))
    assert np.all(admissibility_margin(pants, symmetric_l0, report.w_star) > 0)


def test_jacobian_assembled_once_per_iteration(pants, symmetric_l0, monkeypatch):
    # L is needed only for a step that follows, never at the converged iterate
    assemblies = []
    jacobian = Problem._jacobian

    def counting(self, *geometry):
        assemblies.append(1)
        return jacobian(self, *geometry)

    monkeypatch.setattr(Problem, "_jacobian", counting)
    targets = np.array([0.8, 1.7, 2.4])
    report = solve_prescribed(pants, symmetric_l0, targets)
    assert report.iterations >= 3 and len(assemblies) == report.iterations
    assemblies.clear()
    again = solve_prescribed(pants, symmetric_l0, targets, w_init=report.w_star)
    assert again.iterations == 0 and assemblies == []


def test_each_trial_evaluates_b_in_its_armijo_batch(pants, symmetric_l0, monkeypatch):
    """B at the start once; then one lone evaluation per Armijo trial, which
    raises below the safety floor.  A trial whose end slope certifies it
    checks its first-batch nodes' margins; any other runs the quadrature,
    whose 48-state batch, the same first batch, follows the trial's lone
    evaluation.  An accepted trial's B and geometry come from that lone
    evaluation."""
    log = []
    boundary, flux, first_batch = Problem._boundary, energy._segment_flux, energy._first_batch

    def counting(self, w, safety):
        n = self.tri.n_boundaries
        try:
            out = boundary(self, w, safety)
        except InadmissibleFactor:
            log.append("x" if w.shape == (n,) else "!")
            raise
        # b: a lone state, Q: the 48-state batch, r: a refinement level k >= 2
        log.append({(n,): "b", (48, n): "Q"}.get(w.shape, "r" if w.shape[0] % 64 == 0 else "?"))
        return out

    def counting_flux(*args, **kwargs):
        log.append("q")
        return flux(*args, **kwargs)

    def counting_first_batch(*args):
        log.append("c")
        return first_batch(*args)

    monkeypatch.setattr(Problem, "_boundary", counting)
    monkeypatch.setattr(energy, "_segment_flux", counting_flux)
    monkeypatch.setattr(energy, "_first_batch", counting_first_batch)
    report = solve_prescribed(pants, symmetric_l0, np.array([0.8, 1.7, 2.4]))
    events = "".join(log)
    trials = re.findall(r"x|bc|bqcQr*", events[1:])
    assert events[0] == "b" and "".join(trials) == events[1:]
    # every trial is accepted here, most of them by their end slope alone
    assert len(trials) == report.iterations > 2 * trials.count("bqcQ")
    assert trials.count("bqcQ") >= 1
    # with safety 0, seed 0, targets 30 rejects trials below the floor and
    # in the node check until it stalls (see
    # test_zero_safety_rejects_a_trial_at_margin_zero)
    tri, l0 = instances.random_instance(np.random.default_rng(0))
    log.clear()
    with pytest.raises(LineSearchFailure) as exc:
        solve_prescribed(tri, l0, np.full(tri.n_boundaries, 30.0), safety=0.0)
    events = "".join(log)
    trials = re.findall(r"x|bc|bqcQr*", events[1:])
    assert events[0] == "b" and "".join(trials) == events[1:]
    assert len(trials) > exc.value.report.iterations
    assert {"x", "bc", "bqcQ"} <= set(trials)


def test_certified_trials_meet_armijo_by_quadrature():
    """Whenever a trial's end slope g(1) certifies the Armijo decrease (and
    its first-batch nodes are admissible), the quadrature meets it too: by
    convexity the decrement is at most g(1)."""
    rng = np.random.default_rng(12)
    trials = 0
    with np.errstate(over="ignore"):
        while trials < 1000:
            tri, l0 = instances.random_instance(rng)
            problem = Problem(tri, l0)
            n = tri.n_boundaries
            w = instances.random_admissible_factor(rng, tri, l0)
            targets = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
            B, geometry, _ = problem._boundary(w, 0.0)
            step = np.linalg.solve(-problem._jacobian(*geometry), B - targets)
            slope = float((targets - B) @ step)
            for alpha in (1.0, 0.5, 0.25):
                w_try = w + alpha * step
                try:
                    B_try = problem._boundary(w_try, 0.0)[0]
                    bound = newton.ARMIJO * alpha * slope
                    end_slope = (targets - B_try) @ (w_try - w)
                    if end_slope > bound:
                        continue
                    problem.check_margin(energy._first_batch(w, w_try))
                except (InadmissibleFactor, NonFinite):
                    continue
                trials += 1
                flux = energy._segment_flux(problem, w, w_try, targets, rtol=1e-12)
                assert flux <= end_slope <= bound


def test_max_iterations_carries_partial_report(pants, symmetric_l0, monkeypatch):
    monkeypatch.setattr(newton, "MAX_ITERATIONS", 1)
    with pytest.raises(MaxIterations) as exc:
        solve_prescribed(pants, symmetric_l0, np.full(3, 5.0))
    report = exc.value.report
    assert not report.converged
    assert report.iterations == 1
    assert report.final_residual > 0


def test_rejects_nonpositive_targets(pants, symmetric_l0):
    with pytest.raises(ValueError):
        solve_prescribed(pants, symmetric_l0, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        solve_prescribed(pants, symmetric_l0, np.array([1.0, -2.0, 1.0]))
    # neither is NaN or infinity a length
    with pytest.raises(ValueError):
        solve_prescribed(pants, symmetric_l0, np.array([np.nan, 1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_prescribed(pants, symmetric_l0, np.array([np.inf, 1.0, 1.0]))


def test_rejects_nonfinite_tol_and_safety(pants, symmetric_l0):
    # a NaN tol used to end the loop at once and report convergence
    for kwargs in ({"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0},
                   {"safety": np.nan}, {"safety": np.inf}, {"safety": -1.0}):
        with pytest.raises(ValueError):
            solve_prescribed(pants, symmetric_l0, np.ones(3), **kwargs)


def test_safety_floor_blocks_solution(pants, symmetric_l0):
    # every margin at w* for targets 1 is 0.797, below the floor of 0.9
    with pytest.raises(LineSearchFailure) as exc:
        solve_prescribed(pants, symmetric_l0, np.ones(3), w_init=np.full(3, 0.2), safety=0.9)
    assert not exc.value.report.converged
    assert np.all(admissibility_margin(pants, symmetric_l0, exc.value.report.w_star) >= 0.9)


def test_zero_safety_rejects_a_trial_at_margin_zero():
    # w* for targets 60 lies below any margin that doubles can carry here; the
    # iterate creeps to margins near 1e-16, and a quadrature node inside a
    # trial segment rounds to margin exactly 0.  That trial is rejected, so
    # InadmissibleFactor no longer escapes.
    tri, l0 = instances.random_instance(np.random.default_rng(0))
    with pytest.raises(LineSearchFailure) as exc:
        solve_prescribed(tri, l0, np.full(tri.n_boundaries, 60.0), safety=0.0)
    assert np.all(admissibility_margin(tri, l0, exc.value.report.w_star) > 0)



def test_line_search_failure_names_the_closest_edge():
    # the default floor pins this iterate at edge 0, whose margin sits at the floor
    tri, l0 = instances.random_instance(np.random.default_rng(0))
    with pytest.raises(LineSearchFailure) as exc:
        solve_prescribed(tri, l0, np.full(tri.n_boundaries, 30.0))
    assert str(exc.value) == ("backtracking stalled at iteration 31 (residual 1.147e+01; "
                              "edge 0 at margin 1.000e-06)")
    assert np.argmin(admissibility_margin(tri, l0, exc.value.report.w_star)) == 0
