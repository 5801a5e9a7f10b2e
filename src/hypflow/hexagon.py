"""Right-angled hyperbolic hexagon trigonometry.

A right-angled hexagon is determined up to isometry by three alternating side
lengths (a_0, a_1, a_2).  The remaining three sides, the arcs, satisfy the
hexagon cosine rule

    cosh t_m = (cosh a_m + cosh a_{m+1} cosh a_{m+2}) / (sinh a_{m+1} sinh a_{m+2})

with indices mod 3, where t_m is the arc opposite side a_m.  The right-hand
side exceeds 1 for every positive side triple, so the arcs always exist.

Evaluating arccosh of that ratio directly loses half the significant digits
when the ratio is near 1 (two long sides, short opposite side).  Using
cosh a_{m+1} cosh a_{m+2} = cosh(a_{m+1} - a_{m+2}) + sinh a_{m+1} sinh a_{m+2}
the excess over 1 comes out in closed form,

    u_m = cosh t_m - 1 = (cosh a_m + cosh(a_{m+1} - a_{m+2})) / (sinh a_{m+1} sinh a_{m+2})

which is free of cancellation, and t_m = log1p(u_m + sqrt(u_m (u_m + 2))).

For the derivatives, write h = cosh^2 a_0 + cosh^2 a_1 + cosh^2 a_2
+ 2 cosh a_0 cosh a_1 cosh a_2 - 1.  Differentiating the cosine rule and using
sinh t_m sinh a_{m+1} sinh a_{m+2} = sqrt(h) (same identity for every m) gives

    dt_m/da_m = sinh a_m / sqrt(h)
    dt_m/da_q = -sinh a_m cosh t_r / sqrt(h)   (q != m, r the third index)

`opposite_arcs` and `arc_side_jacobian` take sides of shape (..., 3) in slot
order and vectorize over the leading axes.  The formulas themselves
(`cosine_excess`, `arccosh1p`, `invariant_h`, `arc_side_entries`) take their
operands already gathered, so that `conformal.Problem` can feed them
per-edge cosh and sinh values in corner order.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

# cosh and the products entering h overflow well before sides reach 710;
# flows never get near this, so treat it as a hard error instead of clamping
SIDE_LIMIT = 350.0

# THIRD_SLOT[m][q]: the row whose cosh enters dt_m/da_q, 3 where q == m
THIRD_SLOT = np.array([[3, 2, 1], [2, 3, 0], [1, 0, 3]])


def arccosh1p(u):
    """arccosh(1 + u) for u >= 0, without the cancellation near u = 0."""
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


def cosine_excess(cosh_opposite, a, b, sinh_a, sinh_b):
    """u = cosh t - 1 for the arc t opposite a side, between sides a and b."""
    return (cosh_opposite + np.cosh(a - b)) / (sinh_a * sinh_b)


def invariant_h(ch):
    """h from ch, the cosh of the three sides, shape (..., 3), in slot order."""
    return np.sum(ch * ch, axis=-1) + 2.0 * np.prod(ch, axis=-1) - 1.0


def arc_side_entries(sinh_opposite, u, inv_sqrt_h, third):
    """Entries dt_k/da_q, shape (..., 3, 3), for rows k in any order.

    sinh_opposite[..., k] is the sinh of the side opposite row k's arc and
    u[..., k] that arc's cosine excess; third[k][q] is the row holding the
    third arc's u, or 3 where side q is opposite row k's arc.
    """
    pad = np.ones(u.shape[:-1] + (1,))
    factor = np.concatenate([-(1.0 + u), pad], axis=-1)[..., third]
    return sinh_opposite[..., :, None] * factor * inv_sqrt_h[..., None, None]


def _check_sides(sides: np.ndarray) -> np.ndarray:
    s = np.asarray(sides, dtype=float)
    if s.shape[-1] != 3:
        raise ValueError(f"sides must have shape (..., 3), got {s.shape}")
    if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
        raise ValueError("side lengths must be positive and finite")
    if np.any(s > SIDE_LIMIT):
        raise NonFinite(f"side length exceeds {SIDE_LIMIT}; hexagon out of double range")
    return s


def _slot_excess(s):
    """u, cosh and sinh in slot order: arc m is opposite side m, between m+1 and m+2."""
    ch, sh = np.cosh(s), np.sinh(s)
    a, b = [1, 2, 0], [2, 0, 1]
    u = cosine_excess(ch, s[..., a], s[..., b], sh[..., a], sh[..., b])
    return u, ch, sh


def opposite_arcs(sides) -> np.ndarray:
    """Arc lengths of the right-angled hexagon with the given alternating sides.

    ``arcs[..., m]`` is the arc opposite ``sides[..., m]``.
    """
    s = _check_sides(sides)
    with np.errstate(over="ignore"):
        arcs = arccosh1p(_slot_excess(s)[0])
    if not np.all(np.isfinite(arcs)):
        raise NonFinite("arc computation overflowed")
    return arcs


def arc_side_jacobian(sides) -> np.ndarray:
    """Analytic Jacobian ``J[..., m, q] = d arcs[..., m] / d sides[..., q]``.

    Diagonal entries are positive (lengthening the opposite side lengthens the
    arc); off-diagonal entries are negative.
    """
    s = _check_sides(sides)
    with np.errstate(over="ignore"):
        u, ch, sh = _slot_excess(s)
        h = invariant_h(ch)
        jac = arc_side_entries(sh, u, 1.0 / np.sqrt(h), THIRD_SLOT)
    if not np.all(np.isfinite(h)):
        raise NonFinite("hexagon invariant overflowed")
    if not np.all(np.isfinite(jac)):
        raise NonFinite("arc Jacobian overflowed")
    return jac
