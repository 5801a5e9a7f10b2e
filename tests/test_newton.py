"""Damped Newton solver for prescribed boundary lengths."""

import numpy as np
import pytest

from hypflow import instances
from hypflow.conformal import admissibility_margin, boundary_lengths
from hypflow.errors import LineSearchFailure, MaxIterations
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


def test_max_iterations_carries_partial_report(pants, symmetric_l0):
    with pytest.raises(MaxIterations) as exc:
        solve_prescribed(pants, symmetric_l0, np.full(3, 5.0), max_iterations=1)
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


def test_report_serialization(pants, symmetric_l0):
    report = solve_prescribed(pants, symmetric_l0, np.ones(3))
    d = report.to_dict()
    assert d["converged"] is True
    assert len(d["w_star"]) == 3
    assert d["iterations"] == report.iterations
