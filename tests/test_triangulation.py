"""Mesh construction, validation, incidence queries, and JSON round-trips."""

import json

import numpy as np
import pytest

from hypflow import instances
from hypflow.errors import MalformedMesh, MeshFormatError
from hypflow.triangulation import (
    build_triangulation,
    dumps_mesh,
    load_mesh,
    loads_mesh,
    save_mesh,
)

PANTS_EDGES = [(1, 2), (2, 3), (3, 1)]
PANTS_FACES = [((0, 1, 2), (2, 3, 1)), ((0, 1, 2), (2, 3, 1))]


def test_pair_of_pants_builds():
    tri = build_triangulation(3, PANTS_EDGES, PANTS_FACES)
    assert tri.n_boundaries == 3
    assert tri.n_edges == 3
    assert tri.n_faces == 2
    assert tri.euler_characteristic == -1


def test_one_holed_torus_builds():
    tri = build_triangulation(1, [(1, 1)] * 3, [((0, 1, 2), (1, 1, 1))] * 2)
    assert tri.n_boundaries == 1
    assert tri.n_edges == 3
    assert tri.n_faces == 2


def test_parity_violation_rejected():
    # one face: 3*1 can never equal 2*|E|
    with pytest.raises(MalformedMesh):
        build_triangulation(3, PANTS_EDGES, [((0, 1, 2), (2, 3, 1))])


def test_edge_use_count_rejected():
    # parity holds (6 = 6) but edge 0 sits in only one face-side slot
    edges = [(1, 2), (2, 3), (1, 3)]
    faces = [((1, 1, 1), (2, 2, 2)), ((0, 1, 2), (2, 3, 1))]
    with pytest.raises(MalformedMesh) as exc:
        build_triangulation(3, edges, faces)
    assert "edge 0" in str(exc.value)


def test_corner_incompatible_with_sides_rejected():
    # corner 3 of face 0 is not an endpoint of its flanking sides
    faces = [((0, 1, 2), (2, 3, 3)), ((0, 1, 2), (2, 3, 1))]
    with pytest.raises(MalformedMesh) as exc:
        build_triangulation(3, PANTS_EDGES, faces)
    assert exc.value.index == 0


def test_out_of_range_indices_rejected():
    with pytest.raises(MalformedMesh):
        build_triangulation(3, [(1, 2), (2, 3), (3, 4)], PANTS_FACES)
    with pytest.raises(MalformedMesh):
        build_triangulation(3, PANTS_EDGES, [((0, 1, 3), (2, 3, 1))] * 2)
    with pytest.raises(MalformedMesh):
        build_triangulation(0, [], [])


def test_incident_corners_pants(pants):
    # boundary 1 sits at one corner slot of each face
    hits = np.argwhere(pants.face_corners == 0)
    assert hits[:, 0].tolist() == [0, 1]
    for f, m in hits:
        assert pants.faces[f].corners[m] == 1
    assert pants.corner_scatter.sum(axis=0).tolist() == [2, 2, 2]


def test_incident_corners_torus(torus):
    assert torus.corner_scatter.sum(axis=0).tolist() == [6]


def test_incidence_counts_sum_to_corner_count():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tri, _ = instances.random_instance(rng)
        counts = tri.corner_scatter.sum(axis=0)
        assert counts.shape == (tri.n_boundaries,)
        assert counts.sum() == 3 * tri.n_faces


def test_build_is_deterministic():
    a = build_triangulation(3, PANTS_EDGES, PANTS_FACES)
    b = build_triangulation(3, PANTS_EDGES, PANTS_FACES)
    assert np.array_equal(a.edge_ij, b.edge_ij)
    assert np.array_equal(a.face_sides, b.face_sides)
    assert np.array_equal(a.face_corners, b.face_corners)


def test_mesh_json_round_trip(pants, tmp_path):
    text = dumps_mesh(pants)
    back = loads_mesh(text)
    assert back.n_boundaries == pants.n_boundaries
    assert np.array_equal(back.edge_ij, pants.edge_ij)
    assert np.array_equal(back.face_sides, pants.face_sides)
    assert np.array_equal(back.face_corners, pants.face_corners)
    # serialize -> parse -> serialize is a fixed point
    assert dumps_mesh(back) == text

    path = tmp_path / "mesh.json"
    save_mesh(pants, path)
    assert np.array_equal(load_mesh(path).edge_ij, pants.edge_ij)


def test_mesh_json_round_trip_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        tri, _ = instances.random_instance(rng)
        back = loads_mesh(dumps_mesh(tri))
        assert np.array_equal(back.edge_ij, tri.edge_ij)
        assert np.array_equal(back.face_sides, tri.face_sides)
        assert np.array_equal(back.face_corners, tri.face_corners)


def test_mesh_parse_errors():
    with pytest.raises(MeshFormatError):
        loads_mesh("not json at all {")
    with pytest.raises(MeshFormatError):
        loads_mesh(json.dumps({"edges": [], "faces": []}))  # missing n_boundaries
    with pytest.raises(MeshFormatError):
        loads_mesh(json.dumps({"n_boundaries": 3, "edges": [[1, 2, 3]], "faces": []}))
    # structurally parseable but violating a mesh invariant
    bad = {"n_boundaries": 3,
           "edges": [[1, 2], [2, 3], [3, 1]],
           "faces": [{"sides": [0, 1, 2], "corners": [2, 3, 1]}]}
    with pytest.raises(MalformedMesh):
        loads_mesh(json.dumps(bad))


def test_mesh_rejects_json_booleans():
    # JSON true loads as a Python bool, an int subclass, so it once passed as 1
    pants = {"n_boundaries": 3,
             "edges": [[1, 2], [2, 3], [3, 1]],
             "faces": [{"sides": [0, 1, 2], "corners": [2, 3, 1]},
                       {"sides": [0, 1, 2], "corners": [2, 3, 1]}]}
    loads_mesh(json.dumps(pants))
    for path, value in ((("n_boundaries",), True), (("edges", 0, 0), True),
                        (("faces", 0, "sides", 1), True), (("faces", 1, "corners", 2), True)):
        doc = json.loads(json.dumps(pants))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(MeshFormatError):
            loads_mesh(json.dumps(doc))


def test_random_instances_are_valid():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tri, l0 = instances.random_instance(rng)
        # re-validate through the public constructor
        rebuilt = build_triangulation(
            tri.n_boundaries,
            [tuple(e) for e in (tri.edge_ij + 1)],
            [(tuple(f.sides), tuple(f.corners)) for f in tri.faces],
        )
        assert rebuilt.n_faces == tri.n_faces
        assert tri.n_boundaries <= 10
        assert l0.shape == (tri.n_edges,)
        assert np.all((l0 >= 1.0) & (l0 <= 3.0))


def test_random_instance_seed_reproducible():
    a, la = instances.random_instance(np.random.default_rng(123))
    b, lb = instances.random_instance(np.random.default_rng(123))
    assert np.array_equal(a.edge_ij, b.edge_ij)
    assert np.array_equal(a.face_sides, b.face_sides)
    assert np.array_equal(la, lb)


def test_random_instance_face_count_override():
    rng = np.random.default_rng(9)
    tri, _ = instances.random_instance(rng, n_faces=4)
    assert tri.n_faces == 4
