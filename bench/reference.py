"""Independent references that the benchmark checks hypflow's outputs against.

Nothing here calls a hypflow kernel.  The boundary lengths are recomputed in
multiprecision from the mesh records (edge endpoints, face sides and corner
labels) and the three formulas of the method:

    cosh(l_e / 2) = exp(w_i + w_j) cosh(l0_e / 2)                 edge lengths
    cosh t_k = (cosh a_k + cosh a_{k+1} cosh a_{k+2})
               / (sinh a_{k+1} sinh a_{k+2})                      hexagon arcs
    B_i = sum of the arcs at every face corner labelled i         boundary sums

where t_k is the arc opposite side slot k and corner slot m holds the arc
opposite side slot (m + 2) % 3.
"""

from __future__ import annotations

import math

import mpmath

# digits kept beyond those that cancel in the hexagon rule
GUARD_DIGITS = 30


def boundary_lengths_ref(tri, l0, w) -> list[float]:
    """B(w) for one factor w, rounded to doubles from a multiprecision sum."""
    endpoints = [e.endpoints for e in tri.edges]
    # The cosine rule cancels about (a_{k+1} + a_{k+2}) / ln 10 digits; every
    # deformed side is below 2 * margin + 2 ln 2 + 2, margin = w_i + w_j + l0 / 2.
    widest = max(2.0 * (w[i - 1] + w[j - 1] + 0.5 * l) + 3.0 for (i, j), l in zip(endpoints, l0))
    digits = GUARD_DIGITS + int(2.0 * max(widest, 0.0) / math.log(10.0)) + 1
    with mpmath.workdps(digits):
        sides = []
        for (i, j), base in zip(endpoints, l0):
            c = mpmath.exp(mpmath.mpf(w[i - 1]) + mpmath.mpf(w[j - 1])) * mpmath.cosh(mpmath.mpf(base) / 2)
            sides.append(2 * mpmath.acosh(c))
        totals = [mpmath.mpf(0)] * tri.n_boundaries
        for face in tri.faces:
            a = [sides[e] for e in face.sides]
            ch = [mpmath.cosh(x) for x in a]
            sh = [mpmath.sinh(x) for x in a]
            for m, label in enumerate(face.corners):
                k = (m + 2) % 3
                p, q = (k + 1) % 3, (k + 2) % 3
                totals[label - 1] += mpmath.acosh((ch[k] + ch[p] * ch[q]) / (sh[p] * sh[q]))
        return [float(t) for t in totals]


def pants_w_star(b: float) -> float:
    """Closed-form w* for the pair of pants with l0 = 2 arccosh 2 and all targets b.

    By symmetry every w_i equals w* and every hexagon is equilateral with
    side l, so each of the two arcs at a boundary is b / 2 and the hexagon rule
    gives cosh l = cosh(b/2) / (cosh(b/2) - 1); the edge formula then gives
    w* = 1/2 ln(cosh(l/2) / 2).
    """
    with mpmath.workdps(40):
        ch = mpmath.cosh(mpmath.mpf(b) / 2)
        cosh_l = ch / (ch - 1)
        cosh_half = mpmath.sqrt((cosh_l + 1) / 2)
        return float(mpmath.log(cosh_half / 2) / 2)


def residual_ref(tri, l0, w, targets) -> float:
    """max_i |B_ref(w)_i - b_i|."""
    return max(abs(x - float(b)) for x, b in zip(boundary_lengths_ref(tri, l0, w), targets))


def max_gap(a, b) -> float:
    return max(abs(float(x) - float(y)) for x, y in zip(a, b))
