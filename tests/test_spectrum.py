"""Dirichlet-to-Neumann matrices, Steklov spectra, Rayleigh quotients.

Every fixed numeric value asserted here was computed first with the
independent dense oracle in helpers.py (explicit Laplacian assembly +
np.linalg.solve + eigvalsh) and then frozen.
"""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklov import (
    CentroidNotZero,
    ConvergenceFailure,
    IndexOutOfRange,
    SingularInterior,
    ValidationError,
    ZeroBoundaryNorm,
    build_boundary_graph,
    dtn_matrix,
    gen_sphere,
    gen_torus,
    icosahedron,
    lambda_k,
    laplacian,
    octahedron,
    rayleigh_quotient,
    steklov_spectrum,
    vector_rayleigh_bound,
    with_boundary,
)

import steklov.spectrum as spectrum_module
from steklov.spectrum import _RESID_BLOCK, _base, _check_dense_size, _ldl

from helpers import (dense_laplacian, dtn_oracle, random_boundary, random_connected_graph,
                     spectrum_oracle)


def p3():
    return build_boundary_graph(3, [(0, 1), (1, 2)], [0, 2])


def c4():
    return build_boundary_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 2, 3])


def test_p3_dtn_matrix():
    m = dtn_matrix(p3())
    np.testing.assert_allclose(m.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert m.boundary == (0, 2)


def test_star_dtn_is_identity_minus_third():
    g = build_boundary_graph(4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3])
    m = dtn_matrix(g).matrix
    np.testing.assert_allclose(m, np.eye(3) - np.ones((3, 3)) / 3, atol=1e-12)


def test_full_boundary_dtn_is_laplacian():
    g = c4()
    np.testing.assert_allclose(dtn_matrix(g).matrix, laplacian(g).toarray(), atol=0)


@pytest.mark.parametrize("n,edges,boundary,expected", [
    (2, [(0, 1)], [0, 1], [0.0, 2.0]),
    (3, [(0, 1), (1, 2)], [0, 2], [0.0, 1.0]),
    (4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3], [0.0, 1.0, 1.0]),
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 2, 3], [0.0, 2.0, 2.0, 4.0]),
])
def test_small_spectra(n, edges, boundary, expected):
    oracle = spectrum_oracle(n, edges, boundary)
    np.testing.assert_allclose(oracle, expected, atol=1e-12)
    got = steklov_spectrum(build_boundary_graph(n, edges, boundary)).eigenvalues
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_c4_two_point_boundary():
    # adjacent boundary pair on the 4-cycle; oracle eigenvalues are 0, 8/3
    g = build_boundary_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1])
    oracle = spectrum_oracle(4, g.edges, [0, 1])
    np.testing.assert_allclose(oracle, [0.0, 8.0 / 3.0], atol=1e-12)
    assert lambda_k(g, 2) == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_spectrum_matches_oracle_on_random_graphs():
    rng = np.random.Generator(np.random.Philox(np.uint64(11)))
    for _ in range(60):
        n, edges = random_connected_graph(rng, n_max=30)
        boundary = random_boundary(rng, n, min_size=1)
        got = steklov_spectrum(build_boundary_graph(n, edges, boundary)).eigenvalues
        want = spectrum_oracle(n, edges, boundary)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_eigenfunctions_are_harmonic_and_satisfy_eigencondition():
    rng = np.random.Generator(np.random.Philox(np.uint64(12)))
    for _ in range(20):
        n, edges = random_connected_graph(rng, n_max=25)
        boundary = random_boundary(rng, n, min_size=2)
        g = build_boundary_graph(n, edges, boundary)
        spec = steklov_spectrum(g)
        L = laplacian(g)
        LF = L @ spec.eigenfunctions
        interior = list(g.interior)
        b = list(g.boundary)
        # Laplacian vanishes at interior vertices ...
        if interior:
            assert np.abs(LF[interior]).max() < 1e-8
        # ... and equals lambda * f on the boundary
        resid = LF[b] - spec.eigenvalues[None, :] * spec.eigenfunctions[b]
        assert np.abs(resid).max() < 1e-8


def test_spectrum_is_sorted_and_starts_at_zero():
    rng = np.random.Generator(np.random.Philox(np.uint64(13)))
    for _ in range(20):
        n, edges = random_connected_graph(rng, n_max=30)
        boundary = random_boundary(rng, n, min_size=1)
        w = steklov_spectrum(build_boundary_graph(n, edges, boundary)).eigenvalues
        assert w[0] == 0.0
        assert np.all(np.diff(w) >= -1e-12)


def test_constant_function_has_zero_quotient():
    g = c4()
    assert rayleigh_quotient(g, np.ones(4)) == pytest.approx(0.0, abs=1e-12)


def test_rayleigh_quotient_dominates_lambda2_when_centered():
    rng = np.random.Generator(np.random.Philox(np.uint64(14)))
    for _ in range(25):
        n, edges = random_connected_graph(rng, n_max=20)
        boundary = random_boundary(rng, n, min_size=2)
        g = build_boundary_graph(n, edges, boundary)
        f = rng.normal(size=n)
        f -= f[list(boundary)].mean()  # center over the boundary
        if np.abs(f[list(boundary)]).max() < 1e-9:
            continue
        assert rayleigh_quotient(g, f) >= lambda_k(g, 2) - 1e-9


def test_rayleigh_quotient_of_eigenfunction_is_eigenvalue():
    g = build_boundary_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)],
                             [0, 2, 3])
    spec = steklov_spectrum(g)
    for k in range(1, len(spec.eigenvalues)):
        f = spec.eigenfunctions[:, k]
        assert rayleigh_quotient(g, f) == pytest.approx(spec.eigenvalues[k], abs=1e-8)


def test_zero_boundary_norm_rejected():
    g = p3()
    f = np.array([0.0, 1.0, 0.0])  # supported on the interior only
    with pytest.raises(ZeroBoundaryNorm):
        rayleigh_quotient(g, f)


def test_vector_rayleigh_bound_dominates_lambda2():
    rng = np.random.Generator(np.random.Philox(np.uint64(15)))
    for _ in range(25):
        n, edges = random_connected_graph(rng, n_max=20)
        boundary = random_boundary(rng, n, min_size=2)
        g = build_boundary_graph(n, edges, boundary)
        v = rng.normal(size=(n, 3))
        v -= v[list(boundary)].mean(axis=0)
        assert vector_rayleigh_bound(g, v) >= lambda_k(g, 2) - 1e-9


def test_vector_rayleigh_bound_requires_centered_input():
    g = c4()
    v = np.ones((4, 3))
    with pytest.raises(CentroidNotZero):
        vector_rayleigh_bound(g, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rayleigh_bounds_refuse_non_finite_input(bad):
    g = c4()
    f = np.array([1.0, -1.0, 1.0, -1.0])
    f[2] = bad
    with pytest.raises(ValidationError, match="test function: row 2 is not finite"):
        rayleigh_quotient(g, f)
    v = np.stack([f, -f, f]).T
    v[2] = 1.0
    v[3, 1] = bad
    with pytest.raises(ValidationError, match="test map: row 3 is not finite"):
        vector_rayleigh_bound(g, v)


def test_lambda_k_bounds_checked():
    g = p3()
    assert lambda_k(g, 1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(IndexOutOfRange):
        lambda_k(g, 0)
    with pytest.raises(IndexOutOfRange):
        lambda_k(g, 3)  # only two boundary vertices
    for k in (2.0, True):
        with pytest.raises(IndexOutOfRange):
            lambda_k(g, k)


def test_interior_must_reach_boundary():
    g = build_boundary_graph(3, [(0, 1)], [0])  # vertex 2 floats free
    with pytest.raises(SingularInterior, match="vertex 2 "):
        steklov_spectrum(g)
    # the stranded component {1, 2, 4} is named by its lowest vertex
    g = build_boundary_graph(6, [(1, 2), (2, 4), (0, 3), (3, 5)], [5])
    with pytest.raises(SingularInterior, match="vertex 1 "):
        dtn_matrix(g)
    # every component holding a boundary vertex is fine: a second zero
    g = build_boundary_graph(5, [(0, 1), (1, 2), (3, 4)], [0, 2, 3])
    w = steklov_spectrum(g).eigenvalues
    assert abs(w[1]) < 1e-9
    np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("n,stops,closed", [
    (5000, (0, 4999), False),
    (6000, (0, 1, 5, 100, 1234, 3000, 4999), True),
], ids=["path", "cycle"])
def test_long_series_resistor_dtn(n, stops, closed):
    # boundary vertices cut a long path or cycle into chains of unit
    # resistors in series; the chain between consecutive stops at distance
    # m has conductance 1/m, so the DtN matrix is the Laplacian of the
    # path or cycle on the stops weighted by those conductances
    edges = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if closed else [])
    k = len(stops)
    want = np.zeros((k, k))
    for a in range(k if closed else k - 1):
        b = (a + 1) % k
        c = 1.0 / ((stops[b] - stops[a]) % n)
        want[[a, b], [a, b]] += c
        want[[a, b], [b, a]] -= c
    g = build_boundary_graph(n, edges, stops)
    np.testing.assert_allclose(dtn_matrix(g).matrix, want, atol=1e-10)
    w = steklov_spectrum(g).eigenvalues
    np.testing.assert_allclose(w, np.linalg.eigvalsh(want), atol=1e-10)


@st.composite
def _graphs_with_boundary(draw):
    """Connected graph on n <= 30 vertices (random tree plus extra edges)
    with a random non-empty boundary."""
    n = draw(st.integers(1, 30))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pairs, max_size=2 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    boundary = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return n, sorted(edges), sorted(boundary)


@settings(max_examples=100, deadline=None)
@given(_graphs_with_boundary())
def test_dtn_matrix_properties(case):
    n, edges, boundary = case
    S = dtn_matrix(build_boundary_graph(n, edges, boundary)).matrix
    scale = max(1.0, float(np.abs(S).max()))
    np.testing.assert_array_equal(S, S.T)
    assert np.linalg.eigvalsh(S).min() >= -1e-9 * scale
    np.testing.assert_allclose(S.sum(axis=1), 0.0, atol=1e-9 * scale)
    np.testing.assert_allclose(S, dtn_oracle(n, edges, boundary), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(_graphs_with_boundary())
def test_lambda_k_matches_oracle_for_every_k(case):
    n, edges, boundary = case
    g = build_boundary_graph(n, edges, boundary)
    want = spectrum_oracle(n, edges, boundary)
    scale = max(1.0, float(want[-1]))
    got = [lambda_k(g, k) for k in range(1, len(boundary) + 1)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


def _complete(n):
    return build_boundary_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                                range(n))


@pytest.mark.parametrize("make", [
    octahedron, icosahedron, lambda: gen_torus(10, 10), lambda: gen_sphere(2),
] + [lambda n=n: _complete(n) for n in range(2, 12)],
    ids=["octahedron", "icosahedron", "torus10", "sphere2"]
    + [f"K{n}" for n in range(2, 12)])
def test_lambda_k_every_k_on_symmetric_graphs(make):
    # multiple eigenvalues: Lanczos can skip a copy inside a cluster, which
    # the inertia count has to catch
    g = make()
    base = getattr(g, "base", g)
    want = spectrum_oracle(base.n, base.edges, base.boundary)
    scale = max(1.0, float(want[-1]))
    got = [lambda_k(g, k) for k in range(1, base.n + 1)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


def test_components_give_exact_zeros():
    # two disjoint triangles, every vertex on the boundary
    g = build_boundary_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                             range(6))
    assert lambda_k(g, 1) == 0.0
    assert lambda_k(g, 2) == 0.0
    assert lambda_k(g, 3) == pytest.approx(3.0, abs=1e-9)
    assert steklov_spectrum(g).eigenvalues[1] == 0.0


def test_lambda_k_is_bit_reproducible(tmp_path):
    # lambda_2 = lambda_3 = 3 - sqrt(5) of the 10 x 10 torus has six copies,
    # so ARPACK meets an invariant subspace and draws restart vectors: one
    # repr in one process and across fresh ones
    src = str(Path(spectrum_module.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "from steklov import gen_torus, lambda_k; print(repr(lambda_k(gen_torus(10, 10), 3)))"
    reprs = {repr(lambda_k(gen_torus(10, 10), 3)) for _ in range(10)}
    for _ in range(2):
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=env, check=True)
        reprs.add(run.stdout.strip())
    assert len(reprs) == 1
    assert float(reprs.pop()) == pytest.approx(3.0 - math.sqrt(5.0), rel=1e-12)


def test_lambda2_of_torus_at_the_vertex_cap():
    # the 141 x 141 triangulated torus with every vertex on the boundary has
    # Laplacian eigenvalues 6 - 2cos a - 2cos b - 2cos(a + b), a, b in
    # 2 pi Z / 141; the smallest nonzero one is 4 (1 - cos(2 pi / 141))
    g = gen_torus(141, 141)
    assert g.n == 19881 and len(g.boundary) == g.n
    t0 = time.perf_counter()
    got = lambda_k(g, 2)
    elapsed = time.perf_counter() - t0
    assert got == pytest.approx(4.0 * (1.0 - math.cos(2.0 * math.pi / 141)), rel=1e-9)
    assert elapsed < 30.0


def test_dense_routes_refuse_oversized_boundary():
    # the budget admits sphere level 5 with full boundary (10 242 vertices)
    _check_dense_size(10242, 10242)
    g = gen_torus(141, 141)
    for call in (steklov_spectrum, dtn_matrix):
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match="GiB"):
            call(g)
        assert time.perf_counter() - t0 < 1.0


def _traced_peak(call, g):
    call(g)  # builds the graph's caches outside the trace
    tracemalloc.start()
    try:
        call(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_BUDGET_CASES = {
    "sphere3-full": lambda: gen_sphere(3),
    "sphere3-quarter": lambda: with_boundary(gen_sphere(3), range(0, 642, 4)),
    "torus25-full": lambda: gen_torus(25, 25),
    # two solve and residual blocks, the second 8 columns wide
    "sphere4-520": lambda: with_boundary(gen_sphere(4), sorted(
        np.random.default_rng(5).choice(2562, _RESID_BLOCK + 8, replace=False).tolist())),
}


@pytest.mark.parametrize("case", list(_BUDGET_CASES))
@pytest.mark.parametrize("route", ["steklov_spectrum", "dtn_matrix", "explicit_finish"])
def test_dense_budget_covers_the_traced_peak(case, route):
    g = _BUDGET_CASES[case]()
    nb = len(g.boundary)
    call = {"steklov_spectrum": steklov_spectrum, "dtn_matrix": dtn_matrix,
            # k + 1 >= |B|: outside ARPACK's domain, so the whole block is solved
            "explicit_finish": lambda g: lambda_k(g, nb - 1)}[route]
    peak = _traced_peak(call, g)
    assert peak <= _check_dense_size(g.n, nb, laplacian(_base(g)).nnz)


def test_dense_budget_covers_small_graphs():
    # fixed per-call costs dominate here, and the count must still cover them
    rng = np.random.Generator(np.random.Philox(np.uint64(14)))
    for _ in range(20):
        n, edges = random_connected_graph(rng, n_max=30)
        g = build_boundary_graph(n, edges, random_boundary(rng, n, min_size=2))
        nb = len(g.boundary)
        count = _check_dense_size(n, nb, laplacian(g).nnz)
        for call in (steklov_spectrum, dtn_matrix, lambda g: lambda_k(g, nb - 1)):
            assert _traced_peak(call, g) <= count


def test_full_spectrum_holds_one_boundary_square_and_the_workspace():
    # |B| = 1600 > 3 * 512: S is eigensolved in place and its eigenvectors
    # are the eigenfunctions, so the peak is S plus dsyevd's 2|B|^2
    g = gen_torus(40, 40)
    nb = len(g.boundary)
    assert nb > 3 * _RESID_BLOCK
    assert _traced_peak(steklov_spectrum, g) <= 3.1 * 8 * nb * nb


def test_interior_extension_is_checked(monkeypatch):
    # One solved column off by 1e-6 leaves a symmetric, self-consistent S,
    # so only the interior rows (L F)_I of the returned extension expose it.
    rg = gen_torus(25, 25)
    g = build_boundary_graph(rg.n, rg.edges, range(0, rg.n, 2))
    original = spectrum_module._ldl

    class OffByOneColumn:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            x = self.lu.solve(b)
            x[:, 0] += 1e-6
            return x

    monkeypatch.setattr(spectrum_module, "_ldl",
                        lambda *args, **kwargs: OffByOneColumn(original(*args, **kwargs)))
    with pytest.raises(ConvergenceFailure, match="residual"):
        steklov_spectrum(g)


@pytest.mark.parametrize("step", [1, 2])
def test_eigensolve_residual_is_checked(step, monkeypatch):
    # 625 vertices: with full boundary (step 1) the sparse check runs over
    # two column blocks, and the corrupted eigenvector sits in the second;
    # with step 2 the same check on L F sees the boundary rows S Q - Q w of
    # the Schur complement's eigenvectors.
    rg = gen_torus(25, 25)
    g = build_boundary_graph(rg.n, rg.edges, range(0, rg.n, step))
    eigh = scipy.linalg.eigh

    def corrupted(*args, **kwargs):
        w, Q = eigh(*args, **kwargs)
        Q[:, -1] += 1e-6 * Q[:, 0]
        return w, Q

    monkeypatch.setattr(scipy.linalg, "eigh", corrupted)
    with pytest.raises(ConvergenceFailure, match="residual"):
        steklov_spectrum(g)


@pytest.mark.parametrize("step,factorizations", [(1, 0), (2, 1)],
                         ids=["full", "partial"])
def test_schur_route_factors_through_ldl(step, factorizations, monkeypatch):
    # L_II takes the package's one symmetric factorization, once per call;
    # with full boundary there is no interior block to factor.
    rg = gen_sphere(1)
    g = build_boundary_graph(rg.n, rg.edges, range(0, rg.n, step))
    calls = {"_ldl": 0}
    original = spectrum_module._ldl

    def counted(*args, **kwargs):
        calls["_ldl"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spectrum_module, "_ldl", counted)
    S = dtn_matrix(g).matrix
    assert calls == {"_ldl": factorizations}
    w = steklov_spectrum(g).eigenvalues
    assert calls == {"_ldl": 2 * factorizations}
    np.testing.assert_allclose(S, dtn_oracle(g.n, g.edges, g.boundary), atol=1e-9)
    np.testing.assert_allclose(w, spectrum_oracle(g.n, g.edges, g.boundary), atol=1e-9)


@st.composite
def _shifted_systems(draw, shifts=st.floats(-4.0, -0.05)):
    """Any graph on n <= 12 vertices, isolated ones included, a boundary
    holding at least one vertex of every component, a shift mu drawn from
    ``shifts`` (mu < 0 by default) and a right-hand side."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    boundary = {draw(st.sampled_from([v for v in range(n) if find(v) == r]))
                for r in {find(v) for v in range(n)}}
    boundary |= draw(st.sets(st.integers(0, n - 1)))
    mu = draw(shifts)
    b = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return n, edges, sorted(boundary), mu, np.array(b)


@settings(max_examples=150, deadline=None)
@given(_shifted_systems())
def test_shift_lands_on_the_diagonal(case):
    # Each row's stored diagonal, the 0 of an isolated vertex included, is
    # where the cached index points the shift.
    n, edges, boundary, mu, b = case
    L = laplacian(build_boundary_graph(n, edges, boundary))
    got = _ldl(L, np.array(boundary), mu).solve(b)
    shift = np.zeros(n)
    shift[boundary] = 1.0
    want = np.linalg.solve(dense_laplacian(n, edges) - mu * np.diag(shift), b)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=150, deadline=None)
@given(_shifted_systems(shifts=st.floats(0.05, 4.0)))
def test_ldl_pivot_signs_give_the_inertia(case):
    # With mu > 0, L - mu B is in general indefinite; while perm_r equals
    # perm_c the factor is LDL^T, and Sylvester's law makes its negative
    # pivots the negative eigenvalues, which is what _inertia_certifies counts.
    n, edges, boundary, mu, _ = case
    shift = np.zeros(n)
    shift[boundary] = 1.0
    eigs = np.linalg.eigvalsh(dense_laplacian(n, edges) - mu * np.diag(shift))
    assume(np.abs(eigs).min() > 1e-8)
    L = laplacian(build_boundary_graph(n, edges, boundary))
    try:
        lu = _ldl(L, np.array(boundary), mu)
    except RuntimeError:  # an exactly zero pivot, as _inertia_certifies allows
        return
    if np.array_equal(lu.perm_r, lu.perm_c):
        assert np.count_nonzero(lu.U.diagonal() < 0) == np.count_nonzero(eigs < 0)
