"""Triangulating faces and hexagonal refinement."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import (
    NotTriangulated,
    ValidationError,
    boundary_growth,
    build_boundary_graph,
    build_rotation_graph,
    fully_triangulate,
    genus,
    hex_subdivide,
    is_fully_triangulated,
    octahedron,
    refine,
    tetrahedron,
    gen_torus,
    trace_faces,
    with_boundary,
)

from helpers import stacked_triangulation


def cycle_rotation(n, boundary=(0,)):
    g = build_boundary_graph(n, [(i, (i + 1) % n) for i in range(n)], boundary)
    return build_rotation_graph(g, [[(i + 1) % n, (i - 1) % n] for i in range(n)])


def test_triangulate_c4():
    out = fully_triangulate(cycle_rotation(4))
    assert is_fully_triangulated(out)
    assert genus(out) == 0
    assert len(trace_faces(out)) == 4
    assert len(out.edges) == 6  # one chord per square face
    # the original cycle is a spanning subgraph
    assert set((i, (i + 1) % 4) if i < (i + 1) % 4 else ((i + 1) % 4, i)
               for i in range(4)) <= set(out.edges)


def test_triangulate_c6_zigzag_chords():
    rg = cycle_rotation(6)
    first_walk = trace_faces(rg)[0]
    assert first_walk == (0, 1, 2, 3, 4, 5)
    out = fully_triangulate(rg)
    assert is_fully_triangulated(out)
    assert genus(out) == 0
    assert len(out.edges) == 12 and len(trace_faces(out)) == 8
    # ear order 0, 5, 1, 4, ... on the first face gives this chord fan
    for chord in ((1, 5), (1, 4), (2, 4)):
        assert chord in out.base.edge_set


def test_triangulate_idempotent_on_octahedron():
    rg = octahedron()
    out = fully_triangulate(rg)
    assert out.edges == rg.edges
    assert out.rotation == rg.rotation


@pytest.mark.parametrize("builder,counts", [
    (tetrahedron, (4, 6, 4)),
    (octahedron, (6, 12, 8)),
])
def test_hex_subdivide_counts(builder, counts):
    rg = builder()
    v, e, f = counts
    out = hex_subdivide(rg)
    assert (out.n, len(out.edges), len(trace_faces(out))) == (v + e, 2 * e + 3 * f, 4 * f)
    assert genus(out) == genus(rg)
    assert is_fully_triangulated(out)


def test_hex_subdivide_requires_triangulation():
    with pytest.raises(NotTriangulated):
        hex_subdivide(cycle_rotation(4))


def test_hex_subdivide_midpoint_neighbourhood():
    rg = octahedron()
    out = hex_subdivide(rg)
    edge_index = {e: rg.n + i for i, e in enumerate(sorted(rg.edges))}
    for (u, v), m in edge_index.items():
        nbrs = set(out.base.neighbors[m])
        assert {u, v} <= nbrs
        assert len(nbrs) == 6  # two endpoints + four co-facial midpoints
        assert all(w >= rg.n for w in nbrs - {u, v})


def test_hex_subdivide_degree_bound():
    # originals keep their degree, midpoints get degree 6
    rg = tetrahedron()
    for _ in range(3):
        out = hex_subdivide(rg)
        degs = out.base.degrees
        assert max(degs) <= max(max(rg.base.degrees), 6)
        assert list(degs[:rg.n]) == list(rg.base.degrees)
        rg = out


def test_k3_sphere_subdivision_degenerates():
    # the two-triangle sphere on 3 vertices would need parallel edges; it is
    # refused by naming its faces, not the midpoints it would have made
    g = build_boundary_graph(3, [(0, 1), (0, 2), (1, 2)], [0])
    rg = build_rotation_graph(g, [[1, 2], [2, 0], [0, 1]])
    assert is_fully_triangulated(rg)
    message = "faces 0 (0, 1, 2) and 1 (0, 2, 1) both span vertices 0, 1, 2"
    with pytest.raises(NotTriangulated, match=re.escape(message)):
        hex_subdivide(rg)
    with pytest.raises(NotTriangulated, match=re.escape(message)):
        refine(rg, None, 1)


def test_boundary_inheritance_single_vertex():
    rg = with_boundary(octahedron(), [0])
    out = hex_subdivide(rg)
    edge_index = {e: rg.n + i for i, e in enumerate(sorted(rg.edges))}
    expected = {0} | {m for (u, v), m in edge_index.items() if min(u, v) == 0}
    assert set(out.boundary) == expected


def test_refine_level_zero_is_identity():
    rg = octahedron()
    ref = refine(rg, [1, 3], 0)
    assert ref.level == 0
    assert ref.graph.edges == rg.edges
    assert ref.graph.boundary == (1, 3)
    assert ref.inherited_boundary == (1, 3)
    assert ref.parent_map == tuple(range(6))
    assert boundary_growth(ref) == 1.0


def test_refine_full_boundary_stays_full():
    ref = refine(octahedron(), None, 1)
    assert set(ref.inherited_boundary) == set(range(ref.graph.n))
    assert ref.graph.n == 18
    assert boundary_growth(ref) == pytest.approx(18 / (4 * 6))


def test_refine_single_vertex_cell():
    # midpoints of edges at 0 tie between their endpoints; min index wins,
    # so exactly the edges at vertex 0 fall into its cell
    ref = refine(octahedron(), [0], 1)
    deg0 = len(octahedron().base.neighbors[0])
    assert sorted(ref.cells[0])[0] == 0
    assert len(ref.cells[0]) == 1 + deg0
    # a vertex whose neighbours are all smaller keeps a singleton cell
    assert ref.cells[5] == (5,)


def test_refine_cells_partition():
    ref = refine(tetrahedron(), [0, 2], 2)
    counted = sorted(v for cell in ref.cells for v in cell)
    assert counted == list(range(ref.graph.n))
    assert ref.parent_map == tuple(
        next(p for p, cell in enumerate(ref.cells) if v in cell)
        for v in range(ref.graph.n)
    )


def test_refine_counts_match_recurrence_over_levels():
    for builder in (tetrahedron, octahedron, lambda: gen_torus(3, 3)):
        rg = builder()
        v, e, f = rg.n, len(rg.edges), len(trace_faces(rg))
        g0 = genus(rg)
        for k in range(1, 4):
            v, e, f = v + e, 2 * e + 3 * f, 4 * f
            ref = refine(rg, None, k)
            assert (ref.graph.n, len(ref.graph.edges)) == (v, e)
            assert len(trace_faces(ref.graph)) == f
            assert genus(ref.graph) == g0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.integers(1, 2))
def test_counts_and_genus_on_random_triangulations(seed, n, k):
    # the recurrences on irregular degrees, not only the structured families
    rg = stacked_triangulation(np.random.Generator(np.random.Philox(seed)), n)
    v, e, f = rg.n, len(rg.edges), len(trace_faces(rg))
    assert genus(rg) == 0
    out = hex_subdivide(rg)
    assert (out.n, len(out.edges), len(trace_faces(out))) == (v + e, 2 * e + 3 * f, 4 * f)
    assert genus(out) == 0
    ref = refine(rg, None, k).graph
    for _ in range(k):
        v, e, f = v + e, 2 * e + 3 * f, 4 * f
    assert (ref.n, len(ref.edges), len(trace_faces(ref))) == (v, e, f)
    assert genus(ref) == 0


def test_refine_face_lattices_cover_faces():
    ref = refine(tetrahedron(), None, 2)
    r = ref.resolution
    assert r == 4
    faces = ref.source.faces
    for fi, lattice in enumerate(ref.face_lattices):
        assert len(lattice) == (r + 1) * (r + 2) // 2
        # corners are the original face vertices
        assert lattice[(0, 0)] == faces[fi][0]
        assert lattice[(r, 0)] == faces[fi][1]
        assert lattice[(0, r)] == faces[fi][2]
        # lattice-adjacent pairs are edges of the refined graph
        es = ref.graph.base.edge_set
        for (x, y), vid in lattice.items():
            for dx, dy in ((1, 0), (0, 1), (1, -1)):
                other = lattice.get((x + dx, y + dy))
                if other is not None:
                    assert (min(vid, other), max(vid, other)) in es


def test_refine_is_deterministic():
    a = refine(octahedron(), [0, 4], 2)
    b = refine(octahedron(), [0, 4], 2)
    assert a.graph.edges == b.graph.edges
    assert a.graph.rotation == b.graph.rotation
    assert a.parent_map == b.parent_map
    assert a.inherited_boundary == b.inherited_boundary


def test_refine_validates_level():
    rg = octahedron()
    with pytest.raises(ValidationError):
        refine(rg, None, -1)
    with pytest.raises(ValidationError):
        refine(rg, None, True)
    with pytest.raises(NotTriangulated):
        refine(cycle_rotation(4), None, 1)


def test_boundary_growth_stays_bounded():
    rg = octahedron()
    ratios = [boundary_growth(refine(rg, None, k)) for k in range(1, 4)]
    # full boundary: ratio is V^(k) / (4^k V), decreasing but bounded away from 0
    assert all(0.4 < r <= 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
