"""Right-angled hexagon kernel: arc lengths and their analytic Jacobian.

A hexagon with alternating sides (a_0, a_1, a_2) is reached through the
public boundary lengths: the pair of pants with base metric (a_0, a_1, a_2)
at w = 0 is two congruent copies of it, and B = 2 (t_1, t_2, t_0), where t_m
is the arc opposite a_m.
"""

import numpy as np
import pytest

from hypflow import instances
from hypflow.conformal import boundary_lengths
from hypflow.errors import NonFinite
from hypflow.jacobian import boundary_jacobian

PANTS = instances.pair_of_pants()
# dl_e/dw_i = 2 coth(l_e/2) for each endpoint i of edge e: (1,2), (2,3), (3,1)
INCIDENCE = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def hexagon_arcs(sides):
    """arcs[m], the arc opposite sides[m]."""
    return boundary_lengths(PANTS, sides, np.zeros(3))[[2, 0, 1]] / 2.0


def hexagon_arc_jacobian(sides):
    """J[m, q] = d arcs[m] / d sides[q], from dB/dw = J (dl/dw) at w = 0."""
    d_arcs_dw = boundary_jacobian(PANTS, sides, np.zeros(3))[[2, 0, 1]] / 2.0
    dl_dw = (2.0 / np.tanh(np.asarray(sides) / 2.0))[:, None] * INCIDENCE
    return d_arcs_dw @ np.linalg.inv(dl_dw)


def cosine_rule_residual(sides, arcs):
    """Relative defect of cosh a_m * sinh s_{m+1} * sinh s_{m+2} =
    cosh s_m + cosh s_{m+1} * cosh s_{m+2}, scaled by the largest term."""
    c = np.cosh(sides)
    s = np.sinh(sides)
    lhs = np.cosh(arcs) * np.roll(s, -1, axis=-1) * np.roll(s, -2, axis=-1)
    rhs = c + np.roll(c, -1, axis=-1) * np.roll(c, -2, axis=-1)
    return np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))


def test_equilateral_fixed_point():
    # cosh l = 2  =>  cosh(arc) = (2 + 4) / 3 = 2, so the arc equals the side
    side = float(np.arccosh(2.0))
    arcs = hexagon_arcs(np.full(3, side))
    assert np.max(np.abs(arcs - side)) < 1e-12


def test_all_sides_five_closed_form():
    c5 = np.cosh(5.0)
    expected = np.arccosh(c5 / (c5 - 1.0))
    arcs = hexagon_arcs(np.full(3, 5.0))
    assert np.max(np.abs(arcs - expected)) < 1e-12
    assert abs(expected - 0.16509610683297302) < 1e-15


def test_cosine_rule_self_consistency():
    rng = np.random.default_rng(0)
    sides = rng.uniform(0.5, 3.0, size=(500, 3))
    arcs = np.array([hexagon_arcs(s) for s in sides])
    assert cosine_rule_residual(sides, arcs).max() < 1e-12


def test_two_sides_large_drives_arc_to_zero():
    # growing the two sides adjacent to the opposite corners: the arc
    # opposite the fixed side shrinks monotonically toward zero
    fixed = 1.0
    values = []
    for big in (20.0, 40.0, 80.0):
        arcs = hexagon_arcs(np.array([fixed, big, big]))
        values.append(arcs[0])
    assert values[0] > values[1] > values[2] > 0.0
    assert values[2] < 1e-10


def test_adjacent_sides_small_drives_arc_up():
    # shrinking both sides flanking a corner makes its opposite arc blow up
    prev = 0.0
    for small in (1e-1, 1e-2, 1e-3, 1e-4):
        arc = hexagon_arcs(np.array([1.0, small, small]))[0]
        assert arc > prev
        prev = arc
    assert prev > 15.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(50):
        sides = rng.uniform(0.5, 3.0, 3)
        jac = hexagon_arc_jacobian(sides)
        for q in range(3):
            bump = np.zeros(3)
            bump[q] = h
            fd = (hexagon_arcs(sides + bump) - hexagon_arcs(sides - bump)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-12)
            assert np.max(np.abs(jac[:, q] - fd) / denom) < 1e-6


def test_jacobian_sign_pattern():
    rng = np.random.default_rng(2)
    for _ in range(50):
        jac = hexagon_arc_jacobian(rng.uniform(0.5, 3.0, 3))
        assert np.all(np.diag(jac) > 0)        # d(arc_m)/d(opposite side) > 0
        off = jac[~np.eye(3, dtype=bool)]
        assert np.all(off < 0)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    sides = rng.uniform(0.5, 3.0, 3)
    arcs = hexagon_arcs(sides)
    # swapping the two sides other than s_0 swaps the two arcs other than a_0
    swapped = hexagon_arcs(sides[[0, 2, 1]])
    assert np.allclose(swapped, arcs[[0, 2, 1]], rtol=0, atol=1e-15)
    # cyclic rotation rotates the arcs
    rolled = hexagon_arcs(np.roll(sides, 1))
    assert np.allclose(rolled, np.roll(arcs, 1), rtol=0, atol=1e-15)


def test_equilateral_jacobian_cyclic_invariance():
    side = float(np.arccosh(2.0))
    jac = hexagon_arc_jacobian(np.full(3, side))
    perm = [1, 2, 0]
    assert np.allclose(jac, jac[np.ix_(perm, perm)], rtol=0, atol=1e-14)


def test_invalid_sides_rejected():
    with pytest.raises(ValueError):
        hexagon_arcs(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        hexagon_arcs(np.array([1.0, -2.0, 1.0]))
    with pytest.raises(ValueError):
        hexagon_arcs(np.array([1.0, np.nan, 1.0]))
    with pytest.raises(NonFinite):
        hexagon_arcs(np.array([400.0, 1.0, 1.0]))
    with pytest.raises(NonFinite):
        hexagon_arc_jacobian(np.array([400.0, 1.0, 1.0]))
