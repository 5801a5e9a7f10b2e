"""Variational potential and the Lyapunov scalars built on it."""

import numpy as np
import pytest

from hypflow import instances
from hypflow.conformal import boundary_lengths
from hypflow.energy import (
    c_value,
    potential_phi,
    psi_gap,
    segment_flux,
    upsilon_value,
)
from hypflow.errors import InadmissibleFactor, QuadratureStall
from hypflow.jacobian import boundary_jacobian
from hypflow.newton import solve_prescribed


def test_potential_vanishes_at_base_point(pants, symmetric_l0):
    assert potential_phi(pants, symmetric_l0, np.zeros(3)) == 0.0
    c = np.array([0.1, -0.1, 0.2])
    assert segment_flux(pants, symmetric_l0, c, c) == 0.0


def test_path_independence(pants, symmetric_l0):
    # straight segment versus a two-leg path through an intermediate point
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.uniform(-0.15, 0.5, 3)
        mid = rng.uniform(-0.15, 0.5, 3)
        direct = potential_phi(pants, symmetric_l0, w)
        legs = (segment_flux(pants, symmetric_l0, np.zeros(3), mid)
                + segment_flux(pants, symmetric_l0, mid, w))
        assert abs(direct - legs) < 1e-8


def test_gradient_is_minus_boundary_lengths(pants, symmetric_l0):
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(5):
        w = rng.uniform(-0.15, 0.5, 3)
        B = boundary_lengths(pants, symmetric_l0, w)
        for q in range(3):
            bump = np.zeros(3)
            bump[q] = h
            fd = (potential_phi(pants, symmetric_l0, w + bump)
                  - potential_phi(pants, symmetric_l0, w - bump)) / (2 * h)
            assert abs(fd + B[q]) / abs(B[q]) < 1e-6


def test_hessian_is_minus_jacobian(pants, symmetric_l0):
    w = np.array([0.15, -0.05, 0.25])
    L = boundary_jacobian(pants, symmetric_l0, w)
    h = 1e-4
    H = np.zeros((3, 3))
    for q in range(3):
        bump = np.zeros(3)
        bump[q] = h
        gp = -boundary_lengths(pants, symmetric_l0, w + bump)
        gm = -boundary_lengths(pants, symmetric_l0, w - bump)
        H[:, q] = (gp - gm) / (2 * h)
    assert np.max(np.abs(H - (-L))) < 1e-4


def _lyapunov(pants, l0, w, w_star, targets, p):
    """(lambda, xi) at w, as the flows record them: psi gap plus penalty."""
    gap = psi_gap(pants, l0, w, w_star, targets)
    B = boundary_lengths(pants, l0, w)
    return gap + c_value(B, targets), gap + upsilon_value(B, targets, p)


def test_lyapunov_values_at_critical_point(pants, symmetric_l0):
    targets = np.array([1.0, 1.5, 2.0])
    w_star = solve_prescribed(pants, symmetric_l0, targets, tol=1e-12).w_star
    lam, xi = _lyapunov(pants, symmetric_l0, w_star, w_star, targets, 1.0)
    assert abs(lam) < 1e-12
    assert abs(xi) < 1e-12
    assert c_value(boundary_lengths(pants, symmetric_l0, w_star), targets) < 1e-20


def test_lyapunov_positive_away_from_critical_point(pants, symmetric_l0):
    targets = np.array([1.0, 1.5, 2.0])
    w_star = solve_prescribed(pants, symmetric_l0, targets).w_star
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.uniform(-0.15, 0.5, 3)
        lam, xi = _lyapunov(pants, symmetric_l0, w, w_star, targets, 0.7)
        assert lam > 0
        assert xi > 0
        # the psi gap alone is positive: psi is strictly convex with its
        # minimum at w_star
        assert psi_gap(pants, symmetric_l0, w, w_star, targets) > 0


def test_upsilon_reduces_to_c_at_p_zero(pants, symmetric_l0):
    targets = np.array([1.0, 1.5, 2.0])
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.uniform(-0.15, 0.5, 3)
        B = boundary_lengths(pants, symmetric_l0, w)
        assert upsilon_value(B, targets, 0.0) == c_value(B, targets)


def test_gap_values_independent_of_base_point(pants, symmetric_l0):
    # the one-integral gap agrees with the difference of two potentials
    # taken from any common base point
    targets = np.array([1.0, 1.5, 2.0])
    w_star = solve_prescribed(pants, symmetric_l0, targets).w_star
    w = np.array([0.3, 0.1, -0.1])
    gap = psi_gap(pants, symmetric_l0, w, w_star, targets)
    for c in (np.zeros(3), np.array([0.2, 0.2, 0.2])):
        diff = (segment_flux(pants, symmetric_l0, c, w, targets=targets)
                - segment_flux(pants, symmetric_l0, c, w_star, targets=targets))
        assert abs(diff - gap) < 1e-9


def test_psi_strictly_convex_on_segments(pants, symmetric_l0):
    targets = np.array([1.0, 1.5, 2.0])
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.uniform(-0.15, 0.5, 3)
        b = rng.uniform(-0.15, 0.5, 3)
        if np.max(np.abs(a - b)) < 1e-3:
            continue
        mid = 0.5 * (a + b)
        # 1/2 psi(a) + 1/2 psi(b) - psi(mid), written with two half-segment
        # integrals so nothing cancels
        excess = 0.5 * (psi_gap(pants, symmetric_l0, a, mid, targets)
                        + psi_gap(pants, symmetric_l0, b, mid, targets))
        assert excess > 0


def test_gradient_of_psi_vanishes_at_w_star(pants, symmetric_l0):
    targets = np.array([1.0, 1.5, 2.0])
    w_star = solve_prescribed(pants, symmetric_l0, targets, tol=1e-12).w_star
    grad = targets - boundary_lengths(pants, symmetric_l0, w_star)
    assert np.max(np.abs(grad)) < 1e-6


def test_segment_flux_validates_endpoints(pants, symmetric_l0):
    with pytest.raises(InadmissibleFactor):
        segment_flux(pants, symmetric_l0, np.zeros(3), np.full(3, -1.0))
    with pytest.raises(InadmissibleFactor):
        potential_phi(pants, symmetric_l0, np.full(3, -1.0))


def test_quadrature_stall_is_detectable(pants, symmetric_l0):
    # a budget of zero refinements never produces two agreeing levels
    with pytest.raises(QuadratureStall):
        segment_flux(pants, symmetric_l0, np.zeros(3), np.array([0.5, 0.4, 0.3]),
                     max_refinements=0)


def test_scalar_penalties():
    B = np.array([1.0, 2.0])
    t = np.array([1.0, 1.0])
    assert c_value(B, t) == 1.0
    assert c_value(t, t) == 0.0
    assert upsilon_value(B, t, 1.0) == 0.5
    assert upsilon_value(B, t, 2.0) == 0.25
