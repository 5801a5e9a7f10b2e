"""Canned and randomly generated test instances.

The random generator builds an ideal triangulation by drawing a perfect
matching on the 3F face-side slots (F even) and gluing each matched pair of
slots into one ideal edge, with a random choice of endpoint identification
per gluing.  Boundary components then fall out as the equivalence classes of
face corners under the gluings; the construction guarantees that the corner
labels are compatible with the edge endpoints, so every draw passes
validation.  Nothing forces the result to be connected, and none of the
computations here need it.
"""

from __future__ import annotations

import numpy as np

from .conformal import log_cosh_half
from .triangulation import IdealTriangulation, build_triangulation

PANTS_EDGE_LENGTH = 2.0 * float(np.arccosh(2.0))


def pair_of_pants() -> IdealTriangulation:
    """Three-holed sphere: 3 boundaries, 3 edges, 2 faces."""
    return build_triangulation(
        3,
        [(1, 2), (2, 3), (3, 1)],
        [((0, 1, 2), (2, 3, 1)), ((0, 1, 2), (2, 3, 1))],
    )


def one_holed_torus() -> IdealTriangulation:
    """One boundary, three self-edges, two faces; every corner labeled 1."""
    return build_triangulation(
        1,
        [(1, 1), (1, 1), (1, 1)],
        [((0, 1, 2), (1, 1, 1)), ((0, 1, 2), (1, 1, 1))],
    )


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def random_instance(
    rng: np.random.Generator,
    n_faces: int | None = None,
    max_boundaries: int = 10,
) -> tuple[IdealTriangulation, np.ndarray]:
    """A random triangulation with at most ``max_boundaries`` boundaries and
    base lengths drawn uniformly from [1, 3].

    Draws are redone (advancing the generator) until the boundary count fits,
    so the result is a deterministic function of the generator state.
    """
    while True:
        f_count = int(n_faces) if n_faces is not None else int(rng.choice([2, 4, 6]))
        if f_count < 2 or f_count % 2:
            raise ValueError("n_faces must be an even count of at least 2")
        n_slots = 3 * f_count
        order = rng.permutation(n_slots)
        pairs = [(int(order[2 * e]), int(order[2 * e + 1])) for e in range(n_slots // 2)]
        flips = rng.integers(0, 2, size=len(pairs))

        # corner slot ids: 3f + m; side slot 3f + q runs from corner q-1 to corner q
        def tail(slot: int) -> int:
            f, q = divmod(slot, 3)
            return 3 * f + (q - 1) % 3

        uf = _UnionFind(n_slots)
        for (a, b), flip in zip(pairs, flips):
            if flip:
                uf.union(tail(a), tail(b))
                uf.union(a, b)
            else:
                uf.union(tail(a), b)
                uf.union(a, tail(b))

        labels: dict[int, int] = {}
        for c in range(n_slots):
            root = uf.find(c)
            if root not in labels:
                labels[root] = len(labels) + 1
        n_boundaries = len(labels)
        if n_boundaries > max_boundaries:
            continue

        def corner_label(slot: int) -> int:
            return labels[uf.find(slot)]

        edge_endpoints = [(corner_label(tail(a)), corner_label(a)) for a, _ in pairs]
        slot_to_edge = {}
        for e, (a, b) in enumerate(pairs):
            slot_to_edge[a] = e
            slot_to_edge[b] = e
        faces = []
        for f in range(f_count):
            sides = tuple(slot_to_edge[3 * f + q] for q in range(3))
            corners = tuple(corner_label(3 * f + m) for m in range(3))
            faces.append((sides, corners))

        tri = build_triangulation(n_boundaries, edge_endpoints, faces)
        l0 = rng.uniform(1.0, 3.0, size=tri.n_edges)
        return tri, l0


def random_admissible_factor(rng: np.random.Generator, tri: IdealTriangulation, l0) -> np.ndarray:
    """A factor drawn uniformly from [-0.45 mu, 0.6]^n, mu the smallest
    ln cosh(l0/2): pair sums stay above -0.9 mu, so margins stay at or above
    0.1 mu."""
    mu = float(np.min(log_cosh_half(np.asarray(l0, dtype=float))))
    return rng.uniform(-0.45 * mu, 0.6, size=tri.n_boundaries)
