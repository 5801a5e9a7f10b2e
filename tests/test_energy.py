"""Variational potential and the Lyapunov scalars built on it."""

import numpy as np
import pytest

from hypflow import instances
from hypflow.conformal import boundary_lengths
from hypflow.energy import c_value, segment_flux, upsilon_value
from hypflow.errors import InadmissibleFactor, QuadratureStall
from hypflow.jacobian import boundary_jacobian
from hypflow.newton import solve_prescribed


def phi(tri, l0, w):
    """The potential phi(w) relative to the base point w = 0."""
    return segment_flux(tri, l0, np.zeros(tri.n_boundaries), w)


def test_potential_vanishes_at_base_point(pants, symmetric_l0):
    assert phi(pants, symmetric_l0, np.zeros(3)) == 0.0
    c = np.array([0.1, -0.1, 0.2])
    assert segment_flux(pants, symmetric_l0, c, c) == 0.0


def test_path_independence(pants, symmetric_l0):
    # straight segment versus a two-leg path through an intermediate point
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.uniform(-0.15, 0.5, 3)
        mid = rng.uniform(-0.15, 0.5, 3)
        direct = phi(pants, symmetric_l0, w)
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
            fd = (phi(pants, symmetric_l0, w + bump)
                  - phi(pants, symmetric_l0, w - bump)) / (2 * h)
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
    gap = segment_flux(pants, l0, w_star, w, targets)
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
        assert segment_flux(pants, symmetric_l0, w_star, w, targets) > 0


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
    gap = segment_flux(pants, symmetric_l0, w_star, w, targets)
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
        excess = 0.5 * (segment_flux(pants, symmetric_l0, mid, a, targets)
                        + segment_flux(pants, symmetric_l0, mid, b, targets))
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
        segment_flux(pants, symmetric_l0, np.full(3, -1.0), np.zeros(3))


def test_quadrature_stall_is_detectable(pants, symmetric_l0):
    # a budget of zero refinements never produces two agreeing levels
    with pytest.raises(QuadratureStall):
        segment_flux(pants, symmetric_l0, np.zeros(3), np.array([0.5, 0.4, 0.3]),
                     max_refinements=0)


def _level_by_level_flux(tri, l0, start, end, targets, rtol):
    """The rule segment_flux documents, one level per batch: composite
    16-point Gauss-Legendre on 2^k panels, k = 0, 1, ..., until two levels
    agree.  Returns the value and the number of levels evaluated."""
    x, wts = np.polynomial.legendre.leggauss(16)
    x, wts = (x + 1.0) / 2.0, wts / 2.0
    delta = end - start
    prev = None
    for k in range(21):
        panels = 2**k
        u = ((np.arange(panels) / panels)[:, None] + x[None, :] / panels).ravel()
        B = boundary_lengths(tri, l0, start[None, :] + u[:, None] * delta[None, :])
        flux = (targets[None, :] - B) @ delta
        total = float(np.sum(flux.reshape(panels, -1) @ wts) / panels)
        if prev is not None and abs(total - prev) <= rtol * max(1.0, abs(total)):
            return total, k + 1
        prev = total
    raise AssertionError("the reference did not converge")


def test_segment_flux_matches_level_by_level_rule(pants, symmetric_l0):
    rng = np.random.default_rng(5)
    tri, l0 = instances.random_instance(rng)
    n = tri.n_boundaries
    a = instances.random_admissible_factor(rng, tri, l0)
    b = instances.random_admissible_factor(rng, tri, l0)
    cases = [
        (pants, symmetric_l0, np.zeros(3), np.array([0.1, 0.0, 0.05]), np.ones(3), 1e-12),
        (pants, symmetric_l0, np.zeros(3), np.array([5.0, -0.2, 3.0]), np.ones(3), 1e-10),
        # starts near the admissible boundary, where B is least smooth
        (pants, symmetric_l0, np.array([-0.34, -0.3, -0.2]), np.array([1.0, 0.5, 2.0]),
         np.ones(3), 1e-10),
        (tri, l0, a, b, np.zeros(n), 1e-12),
        (tri, l0, a, a + 3.0, np.full(n, 0.5), 1e-10),
    ]
    levels = []
    for tri_k, l0_k, start, end, targets, rtol in cases:
        expected, used = _level_by_level_flux(tri_k, l0_k, start, end, targets, rtol)
        levels.append(used)
        assert segment_flux(tri_k, l0_k, start, end, targets, rtol=rtol) == expected
    # both the first-two-levels batch and the refinements past it are covered
    assert min(levels) == 2 and max(levels) >= 4


def test_scalar_penalties():
    B = np.array([1.0, 2.0])
    t = np.array([1.0, 1.0])
    assert c_value(B, t) == 1.0
    assert c_value(t, t) == 0.0
    assert upsilon_value(B, t, 1.0) == 0.5
    assert upsilon_value(B, t, 2.0) == 0.25
