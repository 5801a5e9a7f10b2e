"""Discrete conformal deformation of a base metric and boundary lengths.

A conformal factor assigns one real w_i to each boundary component and
deforms every edge length through

    cosh(l_e / 2) = exp(w_i + w_j) * cosh(l0_e / 2)

where i, j are the endpoints of edge e (a self-edge contributes w_i twice).
The deformed length exists iff the argument exceeds 1, i.e. iff

    margin_e = w_i + w_j + ln cosh(l0_e / 2) > 0.

The admissible set is the intersection of these open half-spaces, hence
convex.  Boundary component i has geodesic length B_i equal to the sum of the
hexagon arcs at every face corner labeled i.

L[i, j] = dB_i/dw_j is assembled face by face: each hexagon contributes the
chain-rule product of its arc-side Jacobian and the edge-length derivatives
dl_e/dw = 2 coth(l_e/2) per endpoint occurrence (so a self-edge contributes
4 coth(l_e/2) to its single endpoint).

`Problem` checks a base metric once and evaluates margins, B and L on it for
a batch of factors, shape (..., n) (`evaluate`: one factor); the functions
below it check their inputs on every call and then delegate to a `Problem`.
A batch row's geometry equals a lone evaluation's bit for bit; its B, a
matrix product, may differ in the last place from the vector sum of its arcs.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InadmissibleFactor, MeshFormatError, NonFinite
from .hexagon import SIDE_LIMIT, arc_side_entries, arccosh1p, cosine_excess, invariant_h
from .triangulation import IdealTriangulation

# THIRD_CORNER[m][q]: the corner whose arc's cosh enters d(arc at corner m)/d(side q),
# 3 where side q is opposite corner m (see hexagon.arc_side_entries)
THIRD_CORNER = np.array([[2, 1, 3], [3, 0, 2], [0, 3, 1]])


def log_cosh_half(l0) -> np.ndarray:
    """ln cosh(l0/2), to full precision for short and long edges alike."""
    x = np.asarray(l0, dtype=float) / 2.0
    out = np.asarray(x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0))
    # below x = 0.5 the sum above cancels; cosh x - 1 = 2 sinh^2(x/2) does not
    if x.size and x.min() < 0.5:
        short = x < 0.5
        out[short] = np.log1p(2.0 * np.sinh(x[short] / 2.0) ** 2)
    return out


def _check_metric(tri: IdealTriangulation, l0) -> np.ndarray:
    l0 = np.asarray(l0, dtype=float)
    if l0.shape != (tri.n_edges,):
        raise ValueError(f"metric must have shape ({tri.n_edges},), got {l0.shape}")
    if not np.all(np.isfinite(l0)) or np.any(l0 <= 0.0):
        raise ValueError("base metric entries must be positive and finite")
    return l0


class Problem:
    """A triangulation with a base metric, checked once, for repeated evaluation.

    The methods trust their factors to be finite with trailing dimension n
    (see `check_factor`).  Every evaluation passes its factor through
    `check_margin(w, safety)`, and raises NonFinite when a length exceeds
    hexagon.SIDE_LIMIT or a boundary length or h overflows.  The private
    methods leave overflow warnings to their callers to silence.
    """

    def __init__(self, tri: IdealTriangulation, l0):
        self.tri = tri
        self._log_cosh_half = log_cosh_half(_check_metric(tri, l0))
        n, n_edges = tri.n_boundaries, tri.n_edges
        # margin = w @ incidence + ln cosh(l0/2); a self-edge's column holds 2
        self._incidence = (tri.edge_ij.T[:, None] == np.arange(n)[:, None]).sum(0, dtype=float)
        # corner m of a face lies between side slots m and m+1, opposite slot m+2
        self._sides = sides = tri.face_sides
        self._opposite = sides[:, [2, 0, 1]]
        # (operand, face, corner) into the concatenated (lengths, sinh, cosh):
        # the opposite side's cosh, then the two adjacent sides' lengths and sinh
        adjacent = sides[:, [1, 2, 0]]
        self._corner_operands = np.stack([self._opposite + 2 * n_edges, sides, adjacent,
                                          sides + n_edges, adjacent + n_edges])
        # flat row * n + col of every (face, corner, side, endpoint) term of L
        flat = tri.face_corners[:, :, None, None] * n + tri.edge_ij[sides][:, None, :, :]
        self._l_index = np.broadcast_to(flat, (tri.n_faces, 3, 3, 2)).ravel()

    def check_factor(self, w) -> np.ndarray:
        """w as a float array; ValueError unless finite with trailing dimension n."""
        w = np.asarray(w, dtype=float)
        n = self.tri.n_boundaries
        if w.shape[-1:] != (n,):
            raise ValueError(f"factor must have trailing dimension {n}, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("conformal factor entries must be finite")
        return w

    def margin(self, w) -> np.ndarray:
        """Per-edge margins, shape (..., |E|); w is admissible iff all are > 0."""
        return w @ self._incidence + self._log_cosh_half

    def check_margin(self, w, safety: float = 0.0) -> np.ndarray:
        """margin(w); InadmissibleFactor, carrying the offending edge index,
        unless every margin is > 0 and >= safety.  For a batch, names the
        first offending edge of the first offending state."""
        margin = self.margin(w)
        low = margin.min()
        if not (low > 0.0 and low >= safety):
            flat = margin.reshape(-1, margin.shape[-1])
            bad = ~((flat > 0.0) & (flat >= safety))
            state = int(np.argmax(bad.any(axis=1)))
            edge = int(np.argmax(bad[state]))
            raise InadmissibleFactor(
                f"admissibility violated on edge {edge} (margin {flat[state][edge]:.3e})",
                edge_index=edge,
            )
        return margin

    def _lengths(self, w, safety: float) -> np.ndarray:
        """Deformed edge lengths, shape (..., |E|), of a factor that passes
        check_margin(w, safety); NonFinite when one exceeds hexagon.SIDE_LIMIT."""
        # l = 2 arccosh(e^margin); expm1 keeps precision for margins near 0.
        # Overflow is legal input here (flow trial steps probe far states), so
        # callers silence the warning and the check below signals it.
        lengths = 2.0 * arccosh1p(np.expm1(self.check_margin(w, safety)))
        if not lengths.max() <= SIDE_LIMIT:
            raise NonFinite(f"deformed length {lengths.max():.6g} exceeds {SIDE_LIMIT:.6g}")
        return lengths

    def _boundary(self, w, safety):
        """(B, geometry, arcs) at w: geometry is (lengths, cosh, sinh, cosine
        excesses u), as `_jacobian` takes it; arcs, flattened, as B sums them."""
        lengths = self._lengths(w, safety)
        ch, sh = np.cosh(lengths), np.sinh(lengths)
        corner = np.concatenate((lengths, sh, ch), axis=-1)[..., self._corner_operands]
        u = cosine_excess(corner[..., 0, :, :], corner[..., 1, :, :], corner[..., 2, :, :],
                          corner[..., 3, :, :], corner[..., 4, :, :])
        # a non-contiguous operand takes another matmul path, with other rounding
        arcs = np.ascontiguousarray(arccosh1p(u)).reshape(u.shape[:-2] + (-1,))
        B = arcs @ self.tri.corner_scatter
        # every arc enters exactly one B_i, so this also checks every arc
        if not np.isfinite(B).all():
            raise NonFinite("arc computation overflowed")
        return B, (lengths, ch, sh, u), arcs

    def boundary_lengths(self, w, safety: float = 0.0) -> np.ndarray:
        """Geodesic boundary lengths B, shape (..., n)."""
        with np.errstate(over="ignore"):
            return self._boundary(w, safety)[0]

    def evaluate(self, w, safety: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """B and the dense n x n Jacobian L[i, j] = dB_i/dw_j at one factor w."""
        with np.errstate(over="ignore"):
            B, geometry, _ = self._boundary(w, safety)
            return B, self._jacobian(*geometry)

    def _jacobian(self, lengths, ch, sh, u):
        """L at the factor whose geometry (lengths, their cosh and sinh, and
        cosine excesses) `_boundary` returned, or one state's row of it."""
        h = invariant_h(ch[self._sides])
        if not np.isfinite(h).all():
            raise NonFinite("hexagon invariant overflowed")
        jac = arc_side_entries(sh[self._opposite], u, 1.0 / np.sqrt(h), THIRD_CORNER)
        growth = 2.0 / np.tanh(lengths / 2.0)
        vals = jac * growth[self._sides][:, None, :]
        n = self.tri.n_boundaries
        L = np.bincount(self._l_index, weights=np.repeat(vals.ravel(), 2), minlength=n * n)
        return L.reshape(n, n)


def admissibility_margin(tri: IdealTriangulation, l0, w) -> np.ndarray:
    """Per-edge margins, shape (..., |E|); w is admissible iff all are > 0."""
    problem = Problem(tri, l0)
    return problem.margin(problem.check_factor(w))


def boundary_lengths(tri: IdealTriangulation, l0, w) -> np.ndarray:
    """Geodesic boundary lengths B, shape (..., n)."""
    problem = Problem(tri, l0)
    return problem.boundary_lengths(problem.check_factor(w))


def dumps_metric(l0) -> str:
    return json.dumps([float(v) for v in np.asarray(l0, dtype=float)]) + "\n"


def loads_metric(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"not valid JSON: {exc}") from exc
    # JSON true and false load as bool, which isinstance(v, int) would let through
    if not isinstance(doc, list) or not all(type(v) in (int, float) for v in doc):
        raise MeshFormatError("metric file must be a JSON array of numbers")
    arr = np.asarray(doc, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise MeshFormatError("metric entries must be positive finite numbers")
    return arr


def save_metric(l0, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_metric(l0))


def load_metric(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_metric(fh.read())
