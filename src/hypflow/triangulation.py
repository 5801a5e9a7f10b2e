"""Combinatorics of ideal triangulations of bordered surfaces.

A bordered surface is decomposed into hexagonal ideal faces.  Each face has
three "side" slots occupied by ideal edges and three corner slots labeled by
the boundary components the face touches.  Corner slot m sits between side
slots m and m+1 (mod 3), so the arc at corner m is the hexagon side opposite
side slot m+2 (mod 3).

Boundary components are numbered 1..n (as in mesh files); edges and faces are
numbered from 0.  Self-edges, where both endpoints are the same boundary
component, are legal, and so are faces touching the same boundary more than
once (the one-holed torus needs both).  Because of self-edges the corner
labels cannot be inferred from edge endpoints, so faces store them explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedMesh, MeshFormatError


@dataclass(frozen=True)
class EdgeRecord:
    """An ideal edge, an ordered pair of 1-based boundary indices (i, j), i = j allowed."""

    endpoints: tuple[int, int]


@dataclass(frozen=True)
class FaceRecord:
    """An ideal face: three 0-based edge indices and three 1-based corner labels.

    ``corners[m]`` is the boundary component between ``sides[m]`` and
    ``sides[(m + 1) % 3]``; it must be an endpoint of both.
    """

    sides: tuple[int, int, int]
    corners: tuple[int, int, int]


@dataclass(frozen=True)
class IdealTriangulation:
    n_boundaries: int
    edges: tuple[EdgeRecord, ...]
    faces: tuple[FaceRecord, ...]
    # index arrays derived from the fields above, kept for vectorized kernels
    edge_ij: np.ndarray = field(init=False, repr=False, compare=False)
    face_sides: np.ndarray = field(init=False, repr=False, compare=False)
    face_corners: np.ndarray = field(init=False, repr=False, compare=False)
    corner_scatter: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ij = np.array([e.endpoints for e in self.edges], dtype=np.int64) - 1
        fs = np.array([f.sides for f in self.faces], dtype=np.int64)
        fc = np.array([f.corners for f in self.faces], dtype=np.int64) - 1
        # one-hot (3|F|, n) map from flattened corner slots to boundary sums
        sc = np.zeros((fc.size, self.n_boundaries))
        sc[np.arange(fc.size), fc.ravel()] = 1.0
        object.__setattr__(self, "edge_ij", ij)
        object.__setattr__(self, "face_sides", fs)
        object.__setattr__(self, "face_corners", fc)
        object.__setattr__(self, "corner_scatter", sc)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return len(self.faces) - len(self.edges)


def build_triangulation(
    n_boundaries: int,
    edge_endpoints: list[tuple[int, int]],
    face_descriptions: list[tuple[tuple[int, int, int], tuple[int, int, int]]],
) -> IdealTriangulation:
    """Validate and assemble an :class:`IdealTriangulation`.

    Parameters
    ----------
    n_boundaries:
        Number of boundary components, at least 1.
    edge_endpoints:
        One (i, j) pair of 1-based boundary indices per edge.
    face_descriptions:
        One (sides, corners) pair per face; sides are 0-based edge indices,
        corners are 1-based boundary indices.

    Raises
    ------
    MalformedMesh
        If any incidence, parity, or index-range invariant fails.  The
        exception's ``index`` attribute names the offending edge or face
        where one exists.
    """
    if not isinstance(n_boundaries, int) or n_boundaries < 1:
        raise MalformedMesh(f"n_boundaries must be a positive integer, got {n_boundaries!r}")

    edges = []
    for e, pair in enumerate(edge_endpoints):
        pair = tuple(pair)
        if len(pair) != 2 or not all(isinstance(v, (int, np.integer)) for v in pair):
            raise MalformedMesh(f"edge {e}: endpoints must be a pair of integers, got {pair!r}", index=e)
        i, j = (int(v) for v in pair)
        if not (1 <= i <= n_boundaries and 1 <= j <= n_boundaries):
            raise MalformedMesh(
                f"edge {e}: endpoints {pair} outside 1..{n_boundaries}", index=e
            )
        edges.append(EdgeRecord(endpoints=(i, j)))

    n_edges = len(edges)
    faces = []
    use_count = [0] * n_edges
    for f, desc in enumerate(face_descriptions):
        try:
            sides, corners = desc
            sides = tuple(int(s) for s in sides)
            corners = tuple(int(c) for c in corners)
        except (TypeError, ValueError) as exc:
            raise MalformedMesh(f"face {f}: expected (sides, corners) triples, got {desc!r}", index=f) from exc
        if len(sides) != 3 or len(corners) != 3:
            raise MalformedMesh(f"face {f}: needs exactly 3 sides and 3 corners", index=f)
        for s in sides:
            if not (0 <= s < n_edges):
                raise MalformedMesh(f"face {f}: side index {s} outside 0..{n_edges - 1}", index=f)
            use_count[s] += 1
        for m in range(3):
            c = corners[m]
            if not (1 <= c <= n_boundaries):
                raise MalformedMesh(f"face {f}: corner {c} outside 1..{n_boundaries}", index=f)
            # corner m must be a shared endpoint of the two sides meeting there
            for s in (sides[m], sides[(m + 1) % 3]):
                if c not in edges[s].endpoints:
                    raise MalformedMesh(
                        f"face {f}: corner {c} at slot {m} is not an endpoint of edge {s}",
                        index=f,
                    )
        faces.append(FaceRecord(sides=sides, corners=corners))

    if len(faces) < 1:
        raise MalformedMesh("a triangulation needs at least one face")
    if 3 * len(faces) != 2 * n_edges:
        raise MalformedMesh(
            f"parity violation: 3*|F| = {3 * len(faces)} but 2*|E| = {2 * n_edges}"
        )
    for e, cnt in enumerate(use_count):
        if cnt != 2:
            raise MalformedMesh(
                f"edge {e} appears in {cnt} face-side slots, expected exactly 2", index=e
            )
    # chi = |F| - |E| = -|F|/2 < 0 once the parity and face-count checks pass

    return IdealTriangulation(
        n_boundaries=n_boundaries, edges=tuple(edges), faces=tuple(faces)
    )


def dumps_mesh(tri: IdealTriangulation) -> str:
    """Serialize to the mesh file format (JSON, stable key order)."""
    doc = {
        "n_boundaries": tri.n_boundaries,
        "edges": [list(e.endpoints) for e in tri.edges],
        "faces": [
            {"sides": list(f.sides), "corners": list(f.corners)} for f in tri.faces
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def loads_mesh(text: str) -> IdealTriangulation:
    """Parse the mesh file format.  Schema problems raise MeshFormatError,
    invariant violations raise MalformedMesh."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeshFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshFormatError("top level must be an object")
    for key in ("n_boundaries", "edges", "faces"):
        if key not in doc:
            raise MeshFormatError(f"missing key {key!r}")
    n = doc["n_boundaries"]
    # type(...) is int, not isinstance: JSON true and false load as bool, an int subclass
    if type(n) is not int:
        raise MeshFormatError("n_boundaries must be an integer")
    edges_raw = doc["edges"]
    faces_raw = doc["faces"]
    if not isinstance(edges_raw, list) or not isinstance(faces_raw, list):
        raise MeshFormatError("edges and faces must be arrays")
    edge_endpoints = []
    for e, pair in enumerate(edges_raw):
        if not isinstance(pair, list) or len(pair) != 2 or not all(type(v) is int for v in pair):
            raise MeshFormatError(f"edge {e}: expected a 2-element integer array")
        edge_endpoints.append((pair[0], pair[1]))
    face_descriptions = []
    for f, obj in enumerate(faces_raw):
        if not isinstance(obj, dict) or "sides" not in obj or "corners" not in obj:
            raise MeshFormatError(f"face {f}: expected an object with sides and corners")
        sides, corners = obj["sides"], obj["corners"]
        if (
            not isinstance(sides, list)
            or not isinstance(corners, list)
            or len(sides) != 3
            or len(corners) != 3
            or not all(type(v) is int for v in sides + corners)
        ):
            raise MeshFormatError(f"face {f}: sides and corners must be 3-element integer arrays")
        face_descriptions.append((tuple(sides), tuple(corners)))
    return build_triangulation(n, edge_endpoints, face_descriptions)


def save_mesh(tri: IdealTriangulation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_mesh(tri))


def load_mesh(path) -> IdealTriangulation:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_mesh(fh.read())
