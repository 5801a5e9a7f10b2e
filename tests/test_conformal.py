"""Conformal deformation, admissibility, and boundary length evaluation."""

import numpy as np
import pytest
from mpmath import mp

from hypflow import instances
from hypflow.conformal import (
    Problem,
    admissibility_margin,
    boundary_lengths,
    dumps_metric,
    load_metric,
    loads_metric,
    log_cosh_half,
    save_metric,
)
from hypflow.errors import InadmissibleFactor, MeshFormatError
from hypflow.triangulation import build_triangulation


def test_zero_factor_is_always_admissible(pants, symmetric_l0):
    m = admissibility_margin(pants, symmetric_l0, np.zeros(3))
    assert np.allclose(m, np.log(2.0), rtol=0, atol=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(20):
        tri, l0 = instances.random_instance(rng)
        assert np.all(admissibility_margin(tri, l0, np.zeros(tri.n_boundaries)) > 0)


def test_log_cosh_half_matches_mpmath():
    # the closed form x + log1p(e^-2x) - ln 2 cancels for short edges: it was
    # off by 8.9e-5 relative at l0 = 1e-6
    l0 = np.geomspace(1e-8, 1400.0, 400)
    with mp.workdps(50):
        ref = np.array([float(mp.log(mp.cosh(mp.mpf(float(v)) / 2))) for v in l0])
    assert np.max(np.abs(log_cosh_half(l0) - ref) / ref) < 2e-15


def test_margin_threshold_example(pants, symmetric_l0):
    # cosh(l0/2) = 2: the pairwise threshold is w_i + w_j > -ln 2
    m34 = admissibility_margin(pants, symmetric_l0, np.full(3, -0.34))
    m35 = admissibility_margin(pants, symmetric_l0, np.full(3, -0.35))
    assert np.allclose(m34, np.log(2.0) - 0.68, rtol=0, atol=1e-15)
    assert np.allclose(m35, np.log(2.0) - 0.70, rtol=0, atol=1e-15)
    assert np.all(m34 > 0)
    assert np.all(m35 < 0)


def test_self_edge_margin_doubles_factor(torus, symmetric_l0):
    w = np.array([-0.2])
    m = admissibility_margin(torus, symmetric_l0, w)
    assert np.allclose(m, np.log(2.0) - 0.4, rtol=0, atol=1e-15)


def lengths(tri, l0, w):
    """The deformed edge lengths at w."""
    return Problem(tri, l0)._lengths(np.asarray(w, dtype=float), 0.0)


def test_deform_identity_at_zero(pants, symmetric_l0):
    # identity up to one round-trip through exp/log kernels
    l = lengths(pants, symmetric_l0, np.zeros(3))
    assert np.max(np.abs(l - symmetric_l0)) < 5e-15
    rng = np.random.default_rng(1)
    for _ in range(10):
        tri, l0 = instances.random_instance(rng)
        assert np.max(np.abs(lengths(tri, l0, np.zeros(tri.n_boundaries)) - l0)) < 5e-15


def test_deform_closed_form_example(pants, symmetric_l0):
    # w_i + w_j = ln(3/2) lifts cosh(l/2) from 2 to 3 on every edge
    w = np.full(3, 0.5 * np.log(1.5))
    l = lengths(pants, symmetric_l0, w)
    assert np.allclose(l, 2.0 * np.arccosh(3.0), rtol=0, atol=1e-13)


def test_deform_rejects_inadmissible(pants, symmetric_l0):
    with pytest.raises(InadmissibleFactor) as exc:
        lengths(pants, symmetric_l0, np.full(3, -0.35))
    assert 0 <= exc.value.edge_index < 3
    # a factor violating only edge 1 = (2,3) reports that edge
    w = np.array([1.0, -0.4, -0.4])
    with pytest.raises(InadmissibleFactor) as exc:
        lengths(pants, symmetric_l0, w)
    assert exc.value.edge_index == 1


def test_pants_boundary_lengths_at_zero(pants, symmetric_l0):
    # two congruent equilateral hexagons with cosh l = 7: each boundary
    # carries two arcs of arccosh(7/6)
    B = boundary_lengths(pants, symmetric_l0, np.zeros(3))
    assert np.allclose(B, 2.0 * np.arccosh(7.0 / 6.0), rtol=0, atol=1e-12)


def test_torus_boundary_length_at_zero(torus, symmetric_l0):
    B = boundary_lengths(torus, symmetric_l0, np.zeros(1))
    assert np.allclose(B, 6.0 * np.arccosh(7.0 / 6.0), rtol=0, atol=1e-12)


def test_large_factor_kills_boundary_length(pants, symmetric_l0):
    B = boundary_lengths(pants, symmetric_l0, np.array([15.0, 0.0, 0.0]))
    assert B[0] < 1e-4
    assert np.all(B > 0)


def test_growing_factor_shrinks_own_boundary(pants, symmetric_l0):
    # raising w_1 lengthens every incident edge and shortens B_1
    w_lo = np.zeros(3)
    w_hi = np.array([0.3, 0.0, 0.0])
    l_lo = lengths(pants, symmetric_l0, w_lo)
    l_hi = lengths(pants, symmetric_l0, w_hi)
    assert np.all(l_hi[[0, 2]] > l_lo[[0, 2]])   # edges (1,2) and (3,1)
    assert l_hi[1] == l_lo[1]                     # edge (2,3) unaffected
    assert boundary_lengths(pants, symmetric_l0, w_hi)[0] < \
        boundary_lengths(pants, symmetric_l0, w_lo)[0]


def test_admissible_set_is_convex():
    rng = np.random.default_rng(2)
    for _ in range(20):
        tri, l0 = instances.random_instance(rng)
        a = instances.random_admissible_factor(rng, tri, l0)
        b = instances.random_admissible_factor(rng, tri, l0)
        for lam in (0.25, 0.5, 0.75):
            mid = lam * a + (1 - lam) * b
            assert np.all(admissibility_margin(tri, l0, mid) > 0)


def test_boundary_lengths_invariant_under_reindexing(pants, symmetric_l0):
    # reverse the edge list and the face list; boundary labels unchanged
    perm = [2, 1, 0]
    edges = [tuple(pants.edge_ij[e] + 1) for e in perm]
    inv = {old: new for new, old in enumerate(perm)}
    faces = [
        (tuple(inv[s] for s in f.sides), tuple(f.corners))
        for f in reversed(pants.faces)
    ]
    tri2 = build_triangulation(3, edges, faces)
    l0_perm = np.asarray(symmetric_l0)[perm]
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.uniform(-0.2, 0.5, 3)
        assert np.allclose(
            boundary_lengths(pants, symmetric_l0, w),
            boundary_lengths(tri2, l0_perm, w),
            rtol=0, atol=1e-13,
        )


def test_batched_factors(pants, symmetric_l0):
    rng = np.random.default_rng(4)
    ws = rng.uniform(-0.2, 0.5, size=(6, 3))
    M = admissibility_margin(pants, symmetric_l0, ws)
    B = boundary_lengths(pants, symmetric_l0, ws)
    assert M.shape == (6, 3) and B.shape == (6, 3)
    for k in range(6):
        assert np.array_equal(M[k], admissibility_margin(pants, symmetric_l0, ws[k]))
        assert np.array_equal(B[k], boundary_lengths(pants, symmetric_l0, ws[k]))


def test_batch_rows_match_lone_evaluations(pants, torus, symmetric_l0):
    """Bitwise: each row of a batch against a lone evaluation, and margins
    against w_i + w_j + ln cosh(l0/2)."""
    rng = np.random.default_rng(11)
    cases = [(pants, symmetric_l0), (torus, symmetric_l0)]
    cases += [instances.random_instance(rng, n_faces=faces) for faces in range(2, 49, 2)]
    for tri, l0 in cases:
        problem = Problem(tri, l0)
        ws = np.array([instances.random_admissible_factor(rng, tri, l0) for _ in range(5)])
        i, j = tri.edge_ij.T
        lch = log_cosh_half(l0)
        assert np.array_equal(problem.margin(ws), ws[:, i] + ws[:, j] + lch)
        geometry = problem._boundary(ws, 0.0)[1]
        for k, w in enumerate(ws):
            assert np.array_equal(problem.margin(w), w[i] + w[j] + lch)
            geometry_lone = problem._boundary(w, 0.0)[1]
            for batched, lone in zip(geometry, geometry_lone):
                assert np.array_equal(batched[k], lone)


def test_metric_round_trip(tmp_path, symmetric_l0):
    text = dumps_metric(symmetric_l0)
    assert np.array_equal(loads_metric(text), symmetric_l0)
    path = tmp_path / "metric.json"
    save_metric(symmetric_l0, path)
    assert np.array_equal(load_metric(path), symmetric_l0)


def test_metric_parse_errors():
    with pytest.raises(MeshFormatError):
        loads_metric("nonsense [")
    with pytest.raises(MeshFormatError):
        loads_metric('{"not": "an array"}')
    with pytest.raises(MeshFormatError):
        loads_metric("[1.0, -2.0]")
    # JSON true is a bool, not the length 1
    with pytest.raises(MeshFormatError):
        loads_metric("[true, 2, 3]")
