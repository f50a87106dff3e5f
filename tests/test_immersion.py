"""Edge-to-path immersions: verification, comparison bound, random routing."""

import dataclasses
import pickle

import numpy as np
import pytest

from steklov import (
    BoundaryMismatch,
    BrokenPath,
    Disconnected,
    EndpointMismatch,
    Immersion,
    ValidationError,
    build_boundary_graph,
    build_rotation_graph,
    chain_bound,
    comparison_bound,
    gen_genus,
    gen_sphere,
    gen_torus,
    icosahedron,
    lambda_k,
    octahedron,
    random_immersion,
    refine,
    tetrahedron,
    verify_immersion,
    with_boundary,
)

from steklov import immersion
from helpers import random_boundary, random_connected_graph, reference_random_immersion


def identity_immersion(g):
    return Immersion(
        source=g,
        host=g,
        vertex_map=tuple(range(g.n)),
        path_map={e: e for e in g.edges},
        xi=1,
        ell=1,
    )


def test_identity_immersion_is_tight():
    g = build_boundary_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], [0, 1, 3])
    imm = identity_immersion(g)
    assert verify_immersion(imm) == (1, 1)
    lhs, rhs = comparison_bound(imm, 2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_edge_subdivision_equality_case():
    # K2 into the 3-path doubles every path length and halves lambda2,
    # so the comparison holds with equality: 2 <= 1 * 2 * 1
    k2 = build_boundary_graph(2, [(0, 1)], [0, 1])
    p3 = build_boundary_graph(3, [(0, 1), (1, 2)], [0, 2])
    imm = Immersion(source=k2, host=p3, vertex_map=(0, 2),
                    path_map={(0, 1): (0, 1, 2)}, xi=1, ell=2)
    assert verify_immersion(imm) == (1, 2)
    lhs, rhs = comparison_bound(imm, 2)
    assert lhs == pytest.approx(2.0, abs=1e-9)
    assert rhs == pytest.approx(2.0, abs=1e-9)


def test_congestion_is_measured_not_trusted():
    k3 = build_boundary_graph(3, [(0, 1), (0, 2), (1, 2)], [0, 1, 2])
    imm = Immersion(source=k3, host=k3, vertex_map=(0, 1, 2),
                    path_map={(0, 1): (0, 2, 1), (0, 2): (0, 2), (1, 2): (1, 2)},
                    xi=99, ell=99)  # stored values are wrong on purpose
    assert verify_immersion(imm) == (2, 2)


def test_verify_rejects_bad_witnesses():
    g = build_boundary_graph(3, [(0, 1), (1, 2)], [0, 2])
    ok = {(0, 1): (0, 1), (1, 2): (1, 2)}

    bad_vm = Immersion(g, g, (0, 0, 2), ok, 1, 1)
    with pytest.raises(ValidationError):
        verify_immersion(bad_vm)

    host_off = build_boundary_graph(3, [(0, 1), (1, 2)], [0, 1])
    with pytest.raises(BoundaryMismatch):
        verify_immersion(Immersion(g, host_off, (0, 1, 2), ok, 1, 1))

    with pytest.raises(BrokenPath):
        verify_immersion(Immersion(g, g, (0, 1, 2), {(0, 1): (0, 1)}, 1, 1))

    with pytest.raises(EndpointMismatch):
        verify_immersion(Immersion(
            g, g, (0, 1, 2), {(0, 1): (1, 0), (1, 2): (1, 2)}, 1, 1))

    with pytest.raises(BrokenPath):  # (0, 2) is not a host edge
        verify_immersion(Immersion(
            g, g, (0, 1, 2), {(0, 1): (0, 2, 1), (1, 2): (1, 2)}, 1, 1))

    with pytest.raises(BrokenPath):  # a path may not reuse a host edge
        verify_immersion(Immersion(
            g, g, (0, 1, 2), {(0, 1): (0, 1, 2, 1, 0, 1), (1, 2): (1, 2)}, 1, 1))


def test_random_immersion_is_deterministic():
    refined = refine(octahedron(), None, 1)
    a = random_immersion(refined, 7)
    b = random_immersion(refined, 7)
    assert a.vertex_map == b.vertex_map
    assert a.path_map == b.path_map
    assert a.host_vertex_ids == b.host_vertex_ids
    assert (a.xi, a.ell) == (b.xi, b.ell)
    c = random_immersion(refined, 8)
    assert (a.vertex_map, a.path_map) != (c.vertex_map, c.path_map)


def test_random_immersion_paths_are_simple():
    refined = refine(tetrahedron(), [0, 2], 2)
    imm = random_immersion(refined, 3)
    assert verify_immersion(imm) == (imm.xi, imm.ell)
    for path in imm.path_map.values():
        assert len(set(path)) == len(path)
    assert imm.host_vertex_ids == tuple(sorted(imm.host_vertex_ids))
    assert imm.seed == 3


def test_random_immersion_needs_refinement():
    with pytest.raises(ValidationError):
        random_immersion(refine(octahedron(), None, 0), 0)


@pytest.mark.parametrize("seed", [-1, True, 1.5, 2**64])
def test_random_immersion_refuses_bad_seeds(seed):
    with pytest.raises(ValidationError):
        random_immersion(refine(octahedron(), None, 1), seed)


@pytest.mark.parametrize("builder,k,seeds", [
    (octahedron, 1, range(12)),
    (tetrahedron, 2, range(12)),
    (icosahedron, 1, range(8)),
])
def test_random_immersion_comparison_fuzz(builder, k, seeds):
    refined = refine(builder(), None, k)
    for seed in seeds:
        imm = random_immersion(refined, seed)
        lhs, rhs = comparison_bound(imm, 2)
        assert lhs <= rhs + 1e-8


def test_path_length_scales_with_resolution():
    # ell stays within a small multiple of the subdivision resolution and
    # the congestion within a constant, across seeds
    refined = refine(icosahedron(), None, 2)
    r = refined.resolution
    ells, xis = [], []
    for seed in range(50):
        imm = random_immersion(refined, seed)
        ells.append(imm.ell)
        xis.append(imm.xi)
    print(f"icosahedron k=2: max ell/r = {max(ells) / r:.2f}, max xi = {max(xis)}")
    assert max(ells) <= 8 * r
    assert max(xis) <= 40


def test_chain_bound_level_zero_is_exact():
    for builder, boundary in ((tetrahedron, None), (octahedron, None),
                              (octahedron, [0, 2, 4]), (icosahedron, [0, 1, 5, 7])):
        rg = builder()
        lam = lambda_k(rg if boundary is None else with_boundary(rg, boundary), 2)
        nb = rg.n if boundary is None else len(boundary)
        assert chain_bound(rg, boundary, 0) == {
            "k": 0, "seeds": (), "boundary_size": nb, "refined_boundary_size": nb,
            "lambda2_source": lam, "lambda2_refined": lam, "lhs": nb * lam,
            "rhs": nb * lam, "ratio": 1.0, "best_seed": None, "best_xi": 1,
            "best_ell": 1, "best_lambda2_host": lam, "best_bound": lam,
            "comparison_holds": True,
        }


def test_chain_bound_octahedron():
    out = chain_bound(octahedron(), None, 1, seeds=(0, 1, 2))
    assert out["k"] == 1
    assert out["refined_boundary_size"] == 18
    assert out["comparison_holds"] is True
    assert 0 < out["ratio"] < 10
    assert out["lambda2_source"] == pytest.approx(
        lambda_k(octahedron(), 2), abs=1e-12)
    assert out["best_bound"] >= out["lambda2_source"] - 1e-8
    with pytest.raises(ValidationError):
        chain_bound(octahedron(), None, 1, seeds=())


def test_chain_bound_torus_grid():
    out = chain_bound(gen_torus(6, 6), None, 1, seeds=(0, 1))
    assert np.isfinite(out["ratio"]) and out["ratio"] > 0
    assert out["comparison_holds"] is True


def test_chain_bound_refuses_disconnected_triangulation():
    # two disjoint tetrahedra: lambda2 is 0, so the ratio has no meaning
    t = tetrahedron()
    g = build_boundary_graph(8, list(t.edges) + [(u + 4, v + 4) for u, v in t.edges],
                             range(8))
    rg = build_rotation_graph(g, list(t.rotation) + [[w + 4 for w in ring]
                                                     for ring in t.rotation])
    assert lambda_k(rg, 2) == 0.0
    with pytest.raises(Disconnected):
        chain_bound(rg, None, 1)


def test_synthetic_immersions_from_helpers():
    rng = np.random.Generator(np.random.Philox(17))
    from helpers import subdivision_immersion, tree_immersion
    for _ in range(25):
        n, edges = random_connected_graph(rng, n_max=25, n_min=3)
        g = build_boundary_graph(n, edges, random_boundary(rng, n))
        for make in (subdivision_immersion, tree_immersion):
            imm = make(rng, g)
            xi, ell = verify_immersion(imm)
            assert (xi, ell) == (imm.xi, imm.ell)
            lhs, rhs = comparison_bound(imm, 2)
            assert lhs <= rhs + 1e-8


# the refined graphs the faster router is checked on, bit for bit, by name and level
ORACLE_GRAPHS = {
    "sphere1": lambda: gen_sphere(1), "octahedron": octahedron, "icosahedron": icosahedron,
    "tetrahedron": tetrahedron, "sphere2": lambda: gen_sphere(2),
    "torus4x4": lambda: gen_torus(4, 4), "genus2_r5": lambda: gen_genus(2, 5),
}
ORACLE_CASES = [("sphere1", 2), ("octahedron", 3), ("icosahedron", 2), ("tetrahedron", 1),
                ("tetrahedron", 3), ("sphere2", 1), ("torus4x4", 2), ("genus2_r5", 1)]


def witness(imm):
    return (imm.vertex_map, imm.path_map, imm.xi, imm.ell, imm.host.n, imm.host.edges,
            imm.host.boundary, imm.host_vertex_ids, imm.seed)


@pytest.mark.parametrize("name,k", ORACLE_CASES)
def test_random_immersion_matches_reference(name, k):
    rg = ORACLE_GRAPHS[name]()
    boundary = sorted(np.random.Generator(np.random.Philox(k)).choice(
        rg.n, max(1, rg.n // 3), replace=False).tolist())
    for refined, seeds in ((refine(rg, None, k), range(30)), (refine(rg, boundary, k), range(5))):
        for seed in seeds:
            want = reference_random_immersion(refined, seed)
            got = random_immersion(refined, seed)
            assert witness(got) == witness(want), seed
            assert list(got.path_map) == list(want.path_map)


@pytest.mark.parametrize("k,seed", [(0, 0), (1, -1), (1, True), (1, 1.5), (1, 2**64)])
def test_random_immersion_refuses_as_the_reference(k, seed):
    refined = refine(octahedron(), None, k)
    with pytest.raises(ValidationError) as want:
        reference_random_immersion(refined, seed)
    with pytest.raises(ValidationError) as got:
        random_immersion(refined, seed)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("builder,k", [(octahedron, 3), (icosahedron, 2)])
def test_chain_bound_matches_the_reference_router(builder, k, monkeypatch):
    got = chain_bound(builder(), None, k)
    monkeypatch.setattr(immersion, "random_immersion", reference_random_immersion)
    assert got == chain_bound(builder(), None, k)


def counting_builds(monkeypatch):
    built = []
    original = immersion._build_routing

    def spy(refined):
        built.append(refined)
        return original(refined)

    monkeypatch.setattr(immersion, "_build_routing", spy)
    return built


def test_routing_tables_are_built_once_per_refinement(monkeypatch):
    built = counting_builds(monkeypatch)
    refined = refine(octahedron(), None, 2)
    for seed in range(3):
        assert witness(random_immersion(refined, seed)) == \
            witness(reference_random_immersion(refined, seed))
    assert built == [refined]
    chain_bound(octahedron(), None, 2, seeds=(0, 1, 2))
    chain_bound(icosahedron(), None, 1, seeds=(0, 1))
    assert len(built) == 3 and len({id(r) for r in built}) == 3


def test_pickles_drop_the_routing_tables():
    refined = refine(icosahedron(), [0, 3, 7], 2)
    refined.cells
    first = random_immersion(refined, 5)
    copy = pickle.loads(pickle.dumps(refined))
    fields = {f.name for f in dataclasses.fields(refined)}
    assert set(copy.__dict__) == fields | {"cells"}
    assert copy.cells == refined.cells
    assert witness(random_immersion(copy, 5)) == witness(first)
