"""Boundary-length Jacobian assembly and fractional Laplacian powers."""

import numpy as np
import pytest

from hypflow import instances
from hypflow.conformal import boundary_lengths
from hypflow.errors import EigSolveFailure
from hypflow.jacobian import _power, boundary_jacobian


def _delta_power(L, s):
    """Delta^s as a matrix, from the eigenpairs that _power checks."""
    lam, vecs = _power(L, s)
    return (vecs * lam**s) @ vecs.T


def finite_difference_jacobian(tri, l0, w, h=1e-5):
    n = tri.n_boundaries
    J = np.zeros((n, n))
    for q in range(n):
        bump = np.zeros(n)
        bump[q] = h
        J[:, q] = (boundary_lengths(tri, l0, w + bump)
                   - boundary_lengths(tri, l0, w - bump)) / (2 * h)
    return J


def structure_ok(L):
    sym = np.max(np.abs(L - L.T)) < 1e-9 * np.max(np.abs(L))
    dom = np.all(np.abs(np.diag(L)) >= np.sum(np.abs(L), axis=1) - np.abs(np.diag(L)))
    neg = np.max(np.linalg.eigvalsh((L + L.T) / 2)) < 0
    return sym and dom and neg


def test_pants_symmetry_at_zero(pants, symmetric_l0):
    L = boundary_jacobian(pants, symmetric_l0, np.zeros(3))
    d = np.diag(L)
    off = L[~np.eye(3, dtype=bool)]
    assert np.ptp(d) < 1e-13
    assert np.ptp(off) < 1e-13
    row_sums = L @ np.ones(3)
    assert np.ptp(row_sums) < 1e-13
    assert structure_ok(L)


def test_matches_finite_differences():
    rng = np.random.default_rng(0)
    tris = [(instances.pair_of_pants(), np.full(3, instances.PANTS_EDGE_LENGTH)),
            (instances.one_holed_torus(), np.full(3, instances.PANTS_EDGE_LENGTH))]
    for _ in range(10):
        tris.append(instances.random_instance(rng))
    for tri, l0 in tris:
        w = instances.random_admissible_factor(rng, tri, l0)
        L = boundary_jacobian(tri, l0, w)
        fd = finite_difference_jacobian(tri, l0, w)
        scale = np.maximum(np.abs(fd), 1e-8 * np.max(np.abs(fd)))
        assert np.max(np.abs(L - fd) / scale) < 1e-6
        assert structure_ok(L)


def test_delta_power_identities(pants, symmetric_l0):
    L = boundary_jacobian(pants, symmetric_l0, np.zeros(3))
    eye = _delta_power(L, 0.0)
    assert np.max(np.abs(eye - np.eye(3))) < 1e-14
    one = _delta_power(L, 1.0)
    assert np.max(np.abs(one - (-L))) < 1e-10
    half = _delta_power(L, 0.5)
    assert np.max(np.abs(half @ half - (-L))) < 1e-8


def test_delta_power_semigroup_and_commutation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tri, l0 = instances.random_instance(rng)
        w = instances.random_admissible_factor(rng, tri, l0)
        L = boundary_jacobian(tri, l0, w)
        s, t = rng.uniform(-2.0, 2.0, 2)
        Ps = _delta_power(L, s)
        Pt = _delta_power(L, t)
        Pst = _delta_power(L, s + t)
        assert np.max(np.abs(Ps @ Pt - Pst)) < 1e-8
        delta = -L
        assert np.max(np.abs(Ps @ delta - delta @ Ps)) < 1e-8
        # symmetric positive definite at every exponent
        assert np.max(np.abs(Ps - Ps.T)) < 1e-10 * max(1.0, np.max(np.abs(Ps)))
        assert np.min(np.linalg.eigvalsh((Ps + Ps.T) / 2)) > 0


def test_delta_power_records_eigenpairs(pants, symmetric_l0):
    L = boundary_jacobian(pants, symmetric_l0, np.zeros(3))
    eigenvalues, eigenvectors = _power(L, 0.5)
    assert np.all(eigenvalues > 0)
    recon = (eigenvectors * eigenvalues) @ eigenvectors.T
    assert np.max(np.abs(recon - (-L))) < 1e-12


def test_delta_power_rejects_bad_matrices():
    with pytest.raises(EigSolveFailure):
        _power(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    # positive eigenvalue of L means -L is not positive definite
    with pytest.raises(EigSolveFailure):
        _power(np.array([[1.0, 0.0], [0.0, -1.0]]), 0.5)
    # near-singular direction is refused for negative exponents
    tiny = np.diag([-1.0, -1e-15])
    with pytest.raises(EigSolveFailure):
        _power(tiny, -1.0)
