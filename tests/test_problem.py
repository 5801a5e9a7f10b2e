"""conformal.Problem against a 400-digit mpmath reference.

The reference uses the textbook cosine rule, cosh t = (cosh c + cosh a cosh b)
/ (sinh a sinh b), whose cancellation near 1 needs far more than 50 digits
once sides exceed about 10; at 400 digits it is exact for sides up to 350.
"""

import numpy as np
import pytest
from mpmath import mp

from hypflow import instances
from hypflow.conformal import Problem, deform

DIGITS = 400
FD_STEP = "1e-40"


def reference_B(tri, l0, w):
    """B at the exact values of the doubles l0 and w."""
    lengths = [
        2 * mp.acosh(mp.exp(w[i] + w[j]) * mp.cosh(mp.mpf(float(l0[e])) / 2))
        for e, (i, j) in enumerate(tri.edge_ij)
    ]
    B = [mp.mpf(0)] * tri.n_boundaries
    for sides, corners in zip(tri.face_sides, tri.face_corners):
        s = [lengths[e] for e in sides]
        for m in range(3):
            # corner m lies between side slots m and m+1, opposite slot m+2
            c, a, b = s[(m + 2) % 3], s[m], s[(m + 1) % 3]
            B[corners[m]] += mp.acosh(
                (mp.cosh(c) + mp.cosh(a) * mp.cosh(b)) / (mp.sinh(a) * mp.sinh(b))
            )
    return B


def reference_L(tri, l0, w):
    """Central difference of reference_B; its error is far below 1e-60."""
    h = mp.mpf(FD_STEP)
    n = tri.n_boundaries
    L = np.zeros((n, n))
    for q in range(n):
        up, down = list(w), list(w)
        up[q] += h
        down[q] -= h
        B_up, B_down = reference_B(tri, l0, up), reference_B(tri, l0, down)
        L[:, q] = [float((B_up[i] - B_down[i]) / (2 * h)) for i in range(n)]
    return L


def _cases(bumps):
    """The pants, then one random instance per bump; adding the bump to w_1
    stretches its edges to about 2 * bump, and its self-edges to 4 * bump."""
    cases = [(instances.pair_of_pants(), np.full(3, instances.PANTS_EDGE_LENGTH),
              np.array([0.1, -0.2, 0.3]))]
    rng = np.random.default_rng(7)
    for bump in bumps:
        tri, l0 = instances.random_instance(rng)
        w = instances.random_admissible_factor(rng, tri, l0)
        w[0] += bump
        cases.append((tri, l0, w))
    return cases


# long enough to reach sides near 300, where L's h overflows by design
B_CASES = _cases((0.0, 2.0, 10.0, 30.0, 55.0, 75.0, 75.0))
# short enough that every face keeps h finite (sides up to about 230)
L_CASES = _cases((0.0, 2.0, 10.0, 30.0, 55.0))


def _exact(w):
    return [mp.mpf(float(v)) for v in w]


def test_cases_reach_long_sides():
    assert max(deform(tri, l0, w).max() for tri, l0, w in B_CASES) > 250.0


@pytest.mark.parametrize("tri, l0, w", B_CASES)
def test_boundary_lengths_match_reference(tri, l0, w):
    with mp.workdps(DIGITS):
        B_ref = np.array([float(v) for v in reference_B(tri, l0, _exact(w))])
    B = Problem(tri, l0).boundary_lengths(w)
    assert np.max(np.abs(B - B_ref) / np.abs(B_ref)) <= 1e-13


@pytest.mark.parametrize("tri, l0, w", L_CASES)
def test_evaluate_matches_reference(tri, l0, w):
    problem = Problem(tri, l0)
    B, L = problem.evaluate(w)
    assert np.array_equal(B, problem.boundary_lengths(w))
    with mp.workdps(DIGITS):
        L_ref = reference_L(tri, l0, _exact(w))
    assert np.max(np.abs(L - L_ref)) <= 1e-9 * np.max(np.abs(L_ref))

