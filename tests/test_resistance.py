"""Effective resistance via two independent routes, plus the genus floor scan."""

import pickle
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import steklov.resistance as resistance_module
import steklov.spectrum as spectrum_module

from steklov import (
    Disconnected,
    IndexOutOfRange,
    RotationGraph,
    SameVertex,
    TooSmall,
    ValidationError,
    build_boundary_graph,
    build_rotation_graph,
    effective_resistance,
    gen_sphere,
    gen_torus,
    laplacian,
    octahedron,
    resistance_genus_floor,
    with_boundary,
)

from helpers import dense_laplacian, random_connected_graph, resistance_oracle


def bg(n, edges):
    return build_boundary_graph(n, edges, [0])


@pytest.mark.parametrize("n,edges,u,v,expected", [
    (2, [(0, 1)], 0, 1, 1.0),
    (3, [(0, 1), (1, 2)], 0, 2, 2.0),            # two resistors in series
    (3, [(0, 1), (0, 2), (1, 2)], 0, 1, 2 / 3),  # 1 ohm parallel with 2
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 0, 1, 3 / 4),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 0, 2, 1.0),
    # vertex 0 is the grounded one of the cross-check, on either side
    (2, [(0, 1)], 1, 0, 1.0),
    (3, [(0, 1), (1, 2)], 2, 0, 2.0),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3, 0, 3 / 4),
    (4, [(0, 1), (0, 2), (0, 3)], 3, 0, 1.0),    # star, grounded at the hub
    (4, [(0, 1), (0, 2), (0, 3)], 1, 3, 2.0),
])
def test_textbook_resistances(n, edges, u, v, expected):
    # oracle first: pseudoinverse quadratic form of the dense laplacian
    assert resistance_oracle(n, edges, u, v) == pytest.approx(expected, abs=1e-12)
    res = effective_resistance(bg(n, edges), u, v)
    assert res.r_steklov == pytest.approx(expected, abs=1e-9)
    assert res.r_pinv == pytest.approx(expected, abs=1e-9)
    assert res.discrepancy <= 1e-9
    assert (res.u, res.v) == (u, v)


def test_random_graphs_match_oracle():
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(60):
        n, edges = random_connected_graph(rng, n_max=30, n_min=2)
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            v = (u + 1) % n
        want = resistance_oracle(n, edges, u, v)
        res = effective_resistance(bg(n, edges), u, v)
        assert res.r_steklov == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert res.r_pinv == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_resistance_never_increases_with_new_edges():
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(20):
        n, edges = random_connected_graph(rng, n_max=15, n_min=4)
        have = set(edges)
        non_edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if (a, b) not in have]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        before = effective_resistance(bg(n, edges), 0, n - 1).r_pinv
        after = effective_resistance(bg(n, edges + (extra,)), 0, n - 1).r_pinv
        assert after <= before + 1e-12


def test_resistance_triangle_inequality():
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(10):
        n, edges = random_connected_graph(rng, n_max=12, n_min=3)
        g = bg(n, edges)
        a, b, c = rng.choice(n, size=3, replace=False).tolist()
        r_ab = effective_resistance(g, a, b).r_pinv
        r_bc = effective_resistance(g, b, c).r_pinv
        r_ac = effective_resistance(g, a, c).r_pinv
        assert r_ac <= r_ab + r_bc + 1e-10


def test_long_cycle_matches_closed_form():
    # The cycle is where iterative solvers are weakest: lambda_2 of C_n is
    # ~(2 pi / n)^2.  Across d steps, R = d (n - d) / n.
    n, u, v = 20000, 1, 10000
    g = bg(n, [(i, (i + 1) % n) for i in range(n)])
    t0 = time.perf_counter()
    res = effective_resistance(g, u, v)
    elapsed = time.perf_counter() - t0
    want = (v - u) * (n - (v - u)) / n
    assert want == pytest.approx(4999.99995, abs=1e-9)
    assert res.r_steklov == pytest.approx(want, rel=1e-9)
    assert res.r_pinv == pytest.approx(want, rel=1e-9)
    assert res.discrepancy <= 1e-9 * res.r_pinv
    assert elapsed < 1.0, f"one pair on C_{n} took {elapsed:.2f} s"


def test_genus_floor_sets_up_each_graph_once(monkeypatch):
    calls = {"laplacian": 0, "_ldl": 0}

    def counted(name):
        original = getattr(resistance_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(resistance_module, name, counted(name))
    out = resistance_genus_floor(gen_sphere(2))
    assert out["pairs_sampled"] == 300
    assert calls == {"laplacian": 1, "_ldl": 1}


def test_pairs_share_one_grounded_factorization(monkeypatch):
    # The grounded factor is kept on the graph and carried to with_boundary
    # copies; route A still factors its own L + B/2 for every pair.
    calls = {"resistance": 0, "spectrum": 0}

    def counted(module, key):
        original = module._ldl

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "_ldl", wrapper)

    counted(resistance_module, "resistance")
    counted(spectrum_module, "spectrum")
    g = gen_torus(5, 6)
    pairs = [(0, 1), (2, 9), (3, 17), (29, 4), (8, 20)]
    for u, v in pairs[:4]:
        effective_resistance(g, u, v)
    res = effective_resistance(with_boundary(g, [7]), *pairs[4])
    assert calls == {"resistance": 1, "spectrum": 5}
    assert res.r_pinv == pytest.approx(resistance_oracle(g.n, g.edges, *pairs[4]), rel=1e-9)


@pytest.mark.parametrize("first", ["pair", "floor"])
def test_pickles_drop_the_factor(first):
    rg = gen_torus(4, 5)
    if first == "pair":
        effective_resistance(rg, 0, 7)
    else:
        resistance_genus_floor(rg, 20)
    assert "_grounded" in rg.base.__dict__
    want = effective_resistance(rg, 3, 11)
    for g in (rg, rg.base):
        copy = pickle.loads(pickle.dumps(g))
        base = getattr(copy, "base", copy)
        assert "_grounded" not in base.__dict__
        with pytest.raises(ValueError):
            laplacian(base).data[0] = 1.0
        got = effective_resistance(copy, 3, 11)
        assert (got.r_steklov, got.r_pinv) == (want.r_steklov, want.r_pinv)
    assert resistance_genus_floor(pickle.loads(pickle.dumps(rg)), 20) == \
        resistance_genus_floor(rg, 20)


def test_resistance_accepts_rotation_graphs():
    res = effective_resistance(octahedron(), 0, 1)
    assert res.r_pinv == pytest.approx(resistance_oracle(
        6, octahedron().edges, 0, 1), abs=1e-9)


def test_resistance_input_validation():
    g = bg(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(SameVertex):
        effective_resistance(g, 2, 2)
    with pytest.raises(IndexOutOfRange):
        effective_resistance(g, 0, 4)
    with pytest.raises(IndexOutOfRange):
        effective_resistance(g, True, 2)
    split = build_boundary_graph(4, [(0, 1), (2, 3)], [0])
    with pytest.raises(Disconnected):
        effective_resistance(split, 0, 2)
    with pytest.raises(ValidationError):
        resistance_genus_floor(gen_torus(3, 3), max_pairs=0)


def test_genus_floor_on_smallest_graph():
    k2 = build_rotation_graph(bg(2, [(0, 1)]), [[1], [0]])
    out = resistance_genus_floor(k2)
    assert out["genus"] == 0
    assert out["pairs_sampled"] == 1
    assert out["min_resistance"] == pytest.approx(1.0, abs=1e-9)
    assert out["empirical_c"] == pytest.approx(1.0, abs=1e-9)


def test_genus_floor_cycle():
    g = build_boundary_graph(4, [(i, (i + 1) % 4) for i in range(4)], [0])
    rg = build_rotation_graph(g, [[(i + 1) % 4, (i - 1) % 4] for i in range(4)])
    out = resistance_genus_floor(rg)
    assert out["genus"] == 0
    assert out["pairs_sampled"] == 6
    assert out["min_resistance"] == pytest.approx(3 / 4, abs=1e-9)
    u, v = out["argmin"]
    assert effective_resistance(rg, u, v).r_pinv == pytest.approx(
        out["min_resistance"], abs=1e-12)


def test_genus_floor_torus():
    out = resistance_genus_floor(gen_torus(4, 4))
    assert out["genus"] == 1
    assert out["min_resistance"] == pytest.approx(0.3125, abs=1e-9)
    assert out["empirical_c"] == pytest.approx(0.625, abs=1e-9)


def test_genus_floor_sampling_is_deterministic():
    rg = gen_torus(5, 5)  # 300 pairs for n=25 exceeds a cap of 40
    a = resistance_genus_floor(rg, max_pairs=40)
    b = resistance_genus_floor(rg, max_pairs=40)
    assert a == b
    assert a["pairs_sampled"] == 40
    assert a["min_resistance"] > 0


def test_genus_floor_samples_without_listing_every_pair():
    # 1 279 200 pairs: listing them all peaked near 80 MB, where five
    # sampled pairs need well under one
    rg = gen_torus(40, 40)
    tracemalloc.start()
    try:
        out = resistance_genus_floor(rg, max_pairs=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    pairs = list(combinations(range(rg.n), 2))
    draw = np.random.Generator(np.random.Philox(0)).choice(len(pairs), size=5, replace=False)
    best = min((effective_resistance(rg, *pairs[i]).r_steklov, pairs[i]) for i in draw)
    assert out["pairs_sampled"] == 5
    assert out["argmin"] == best[1]
    assert out["min_resistance"] == pytest.approx(best[0], rel=1e-12)


@pytest.mark.parametrize("build", [lambda: gen_sphere(2), lambda: gen_torus(4, 4)],
                         ids=["sphere2", "torus4"])
def test_genus_floor_breaks_ties_by_pair_order(build):
    # Equal resistances come out of the solver a few ulps apart, so the
    # report takes the first sampled pair within 1e-9 of the smallest.
    rg = build()
    out = resistance_genus_floor(rg)
    pinv = np.linalg.pinv(dense_laplacian(rg.n, rg.edges))
    pairs = list(combinations(range(rg.n), 2))
    if len(pairs) > 300:
        draw = np.random.Generator(np.random.Philox(0)).choice(len(pairs), 300, replace=False)
        pairs = [pairs[i] for i in sorted(draw)]
    rs = [pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v] for u, v in pairs]
    low = min(rs)
    first = next(p for p, r in zip(pairs, rs) if r - low <= 1e-9 * low)
    assert out["argmin"] == first
    assert out["min_resistance"] == pytest.approx(low, rel=1e-9)
    assert out["min_resistance"] == effective_resistance(rg, *first).r_steklov


def test_genus_floor_needs_two_vertices():
    # built directly: the walk validator cannot express a dartless map
    one = RotationGraph(base=build_boundary_graph(1, [], [0]), rotation=((),))
    with pytest.raises(TooSmall):
        resistance_genus_floor(one)
