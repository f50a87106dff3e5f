"""Circle packings, sphere lifts, Mobius centering, and the planar certificate."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg

import steklov
import steklov.packing as packing_module
from steklov import (
    ConvergenceFailure,
    EmptyBoundary,
    NonzeroGenus,
    NormalizationFailure,
    NotTriangulated,
    SphereConfiguration,
    TooSmall,
    ValidationError,
    build_boundary_graph,
    build_rotation_graph,
    certify_planar_bound,
    circle_pack,
    gen_sphere,
    gen_torus,
    lambda_k,
    lift_to_sphere,
    mobius_normalize,
    octahedron,
    packing_svg,
    tetrahedron,
    trace_faces,
)
from steklov.packing import _ball_map

from helpers import reference_mobius_normalize, stacked_triangulation, tangency_error


def flower_radius(k):
    """Bisection oracle: radius of a circle ringed by k tangent unit circles."""
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2 * k * math.asin(1.0 / (1.0 + mid)) > 2 * math.pi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wheel(k):
    """Hub plus a rim of k vertices; the rim bounds the single non-triangular face."""
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i % k + 1) for i in range(1, k + 1)]
    g = build_boundary_graph(k + 1, edges, range(1, k + 1))
    rot = [list(range(1, k + 1))]
    for i in range(1, k + 1):
        rot.append([i % k + 1, 0, (i - 2) % k + 1])
    return build_rotation_graph(g, rot)


def square_with_diagonal():
    g = build_boundary_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], [0, 1, 2, 3])
    return build_rotation_graph(g, [[1, 2, 3], [0, 2], [3, 0, 1], [0, 2]])


def test_tetrahedron_interior_radius():
    # oracle first: the flower equation for three unit neighbours has the
    # closed form 2/sqrt(3) - 1
    rho = flower_radius(3)
    assert rho == pytest.approx(2 / math.sqrt(3) - 1, abs=1e-12)

    cp = circle_pack(tetrahedron())
    inner = (set(range(4)) - set(cp.outer_face)).pop()
    assert cp.radii[inner] == pytest.approx(rho, abs=1e-9)
    for v in cp.outer_face:
        assert cp.radii[v] == 1.0
    assert cp.residual <= 1e-8
    assert tangency_error(cp, tetrahedron().edges) <= 1e-9


@pytest.mark.parametrize("k", [4, 6, 9, 12])
def test_wheel_hub_matches_flower_radius(k):
    rg = wheel(k)
    faces = trace_faces(rg)
    assert sorted(len(f) for f in faces) == [3] * k + [k]
    rho = flower_radius(k)
    if k == 6:
        assert rho == pytest.approx(1.0, abs=1e-12)

    cp = circle_pack(rg)
    assert cp.radii[0] == pytest.approx(rho, abs=1e-9)
    assert cp.radii[1:] == pytest.approx(np.ones(k), abs=0)
    assert cp.residual <= 1e-8
    assert tangency_error(cp, rg.edges) <= 1e-9
    # hub sits one hub-plus-rim radius away from every rim centre
    d = np.linalg.norm(cp.centers[1:] - cp.centers[0], axis=1)
    assert d == pytest.approx(np.full(k, 1.0 + rho), abs=1e-8)


def test_empty_interior_disk_is_exact():
    rg = square_with_diagonal()
    cp = circle_pack(rg)
    assert cp.residual == 0.0
    assert cp.radii == pytest.approx(np.ones(4), abs=0)
    assert tangency_error(cp, rg.edges) <= 1e-12


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_sphere_meshes_pack(level):
    rg = gen_sphere(level)
    cp = circle_pack(rg)
    assert cp.residual <= 1e-8
    assert tangency_error(cp, rg.edges) <= 1e-7
    assert np.all(cp.radii > 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_triangulations_pack(seed):
    # irregular degrees and radii down to ~1e-9: the packing must still
    # meet the release gate's tangency bound
    rg = stacked_triangulation(np.random.Generator(np.random.Philox(seed)), 1000)
    cp = circle_pack(rg)
    assert cp.residual <= 1e-8
    assert tangency_error(cp, rg.edges) <= 1e-7
    assert np.all(cp.radii > 0)


@pytest.mark.parametrize("build", [
    lambda: gen_sphere(2),
    lambda: stacked_triangulation(np.random.Generator(np.random.Philox(0)), 1000),
], ids=["sphere2", "stacked1000"])
def test_newton_steps_factor_through_ldl(build, monkeypatch):
    rg = build()
    solves = []  # per factorization, the number of solves with it
    original = packing_module._ldl

    def counted(J):
        lu, i = original(J), len(solves)
        solves.append(0)

        def solve(b):
            solves[i] += 1
            return lu.solve(b)
        return SimpleNamespace(solve=solve)

    def refuse(*args, **kwargs):
        raise AssertionError("spsolve called")

    monkeypatch.setattr(packing_module, "_ldl", counted)
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", refuse)
    cp = circle_pack(rg)
    # one factorization per Newton step, each solved once
    assert 1 <= len(solves) <= packing_module._MAX_STEPS
    assert solves == [1] * len(solves)
    assert cp.residual <= 1e-8
    assert tangency_error(cp, rg.edges) <= 1e-7


# sha256 of the centers' bytes: the layout is fixed bit for bit.
@pytest.mark.parametrize("build,digest", [
    (lambda: gen_sphere(3), "aada83a42f4de06d8dcc35f01c4c181c8ef0e086aad31879fa5a08e6693b21b7"),
    (lambda: stacked_triangulation(np.random.Generator(np.random.Philox(0)), 300),
     "c0e5740d147043baf431cc2488592df806f838ef72a1a83e0460778316634ec2"),
    (lambda: wheel(9), "5b8a7be22d7bc0c46758db6f07feccff914ffa8da2414ac949562daf47be8519"),
], ids=["sphere3", "stacked300", "wheel9"])
def test_packing_centers_are_pinned(build, digest):
    assert hashlib.sha256(circle_pack(build()).centers.tobytes()).hexdigest() == digest


def test_certificates_share_one_packing_per_graph(monkeypatch):
    rg = gen_sphere(2)
    rng = np.random.Generator(np.random.Philox(3))
    half = sorted(rng.choice(rg.n, rg.n // 2, replace=False).tolist())
    factored = []
    original = packing_module._ldl

    def counted(J):
        factored.append(J.shape)
        return original(J)

    monkeypatch.setattr(packing_module, "_ldl", counted)
    full = certify_planar_bound(rg)
    first = len(factored)
    part = certify_planar_bound(rg, half)
    assert first >= 1 and len(factored) == first
    assert repr(full) == repr(certify_planar_bound(gen_sphere(2)))
    assert repr(part) == repr(certify_planar_bound(gen_sphere(2), half))


def test_pack_input_validation():
    torus = gen_torus(3, 3)
    for _ in range(2):  # a failed packing is not kept
        with pytest.raises(NonzeroGenus):
            circle_pack(torus)

    cyc = build_boundary_graph(6, [(i, (i + 1) % 6) for i in range(6)], [0])
    cyc = build_rotation_graph(cyc, [[(i + 1) % 6, (i - 1) % 6] for i in range(6)])
    with pytest.raises(NotTriangulated):
        circle_pack(cyc)

    k3 = build_boundary_graph(3, [(0, 1), (0, 2), (1, 2)], [0])
    k3 = build_rotation_graph(k3, [[1, 2], [2, 0], [0, 1]])
    with pytest.raises(TooSmall):
        circle_pack(k3)


def test_lift_lands_on_unit_sphere():
    cp = circle_pack(tetrahedron())
    sc = lift_to_sphere(cp)
    assert sc.boundary == cp.boundary
    assert np.linalg.norm(sc.points, axis=1) == pytest.approx(np.ones(4), abs=1e-12)
    # the layout seeds one centre at the origin, which lifts to the south pole
    i0 = int(np.argmin(np.linalg.norm(cp.centers, axis=1)))
    assert cp.centers[i0] == pytest.approx(np.zeros(2), abs=0)
    assert sc.points[i0] == pytest.approx([0.0, 0.0, -1.0], abs=1e-15)


def test_ball_map_preserves_sphere():
    rng = np.random.Generator(np.random.Philox(5))
    x = rng.normal(size=(40, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    for _ in range(5):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, 0.95) / np.linalg.norm(w)
        y = _ball_map(w, x)
        assert np.linalg.norm(y, axis=1) == pytest.approx(np.ones(40), abs=1e-10)


def test_mobius_centers_random_configurations():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(10):
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        sc = SphereConfiguration(points=pts, boundary=tuple(range(30)))
        out = mobius_normalize(sc)
        assert np.linalg.norm(out.boundary_centroid) <= 1e-7
        assert np.linalg.norm(out.points, axis=1) == pytest.approx(
            np.ones(30), abs=1e-10)


def test_mobius_centring_is_unique_up_to_rotation():
    # The centred image is unique up to an isometry of the sphere (the
    # conformal barycentre), so moving the input by a Mobius map first must
    # not change the Gram matrix of the output.
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(10):
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        a = rng.normal(size=3)
        a *= rng.uniform(0.0, 0.9) / np.linalg.norm(a)
        grams = []
        for x in (pts, _ball_map(a, pts)):
            out = mobius_normalize(SphereConfiguration(points=x, boundary=tuple(range(30))))
            grams.append(out.points @ out.points.T)
        assert grams[1] == pytest.approx(grams[0], abs=1e-8)


def test_import_leaves_scipy_optimize_out(tmp_path):
    # a fresh process pays for every module the package imports
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, steklov; print('scipy.optimize' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env=env, check=True)
    assert run.stdout.strip() == "False"


def test_mobius_short_circuits_when_centred():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    sc = SphereConfiguration(points=pts, boundary=tuple(range(6)))
    assert mobius_normalize(sc) is sc


def test_mobius_rejects_point_masses():
    pole = np.tile([0.0, 0.0, 1.0], (8, 1))
    with pytest.raises(NormalizationFailure):
        mobius_normalize(SphereConfiguration(points=pole, boundary=tuple(range(8))))

    # more than half the mass at one point defeats any Mobius map but must
    # fail cleanly rather than crash
    rng = np.random.Generator(np.random.Philox(2))
    tail = rng.normal(size=(3, 3))
    tail /= np.linalg.norm(tail, axis=1, keepdims=True)
    pts = np.vstack([np.tile([0.0, 0.0, 1.0], (7, 1)), tail])
    with pytest.raises(NormalizationFailure):
        mobius_normalize(SphereConfiguration(points=pts, boundary=tuple(range(10))))

    # points that nearly coincide are not caught by the exact count, but
    # Newton cannot spread them and stalls
    near = pole + 1e-13 * rng.normal(size=(8, 3))
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    with pytest.raises(NormalizationFailure):
        mobius_normalize(SphereConfiguration(points=near, boundary=tuple(range(8))))


def test_mobius_centres_exactly_half_at_one_point():
    # half the mass at one point is the limit case: the centroid can still
    # be driven below the tolerance, so it must not be refused up front
    rng = np.random.Generator(np.random.Philox(2))
    tail = rng.normal(size=(5, 3))
    tail /= np.linalg.norm(tail, axis=1, keepdims=True)
    pts = np.vstack([np.tile([0.0, 0.0, 1.0], (5, 1)), tail])
    out = mobius_normalize(SphereConfiguration(points=pts, boundary=tuple(range(10))))
    assert np.linalg.norm(out.boundary_centroid) <= 1e-7


@pytest.mark.parametrize("subset", [range(6), range(4)], ids=["in_subset", "outside"])
def test_mobius_refuses_non_finite_points(subset):
    pts = np.vstack([np.eye(3), -np.eye(3)])
    pts[4, 0] = np.nan
    pts[5, 2] = np.inf
    with pytest.raises(ValidationError, match="points: row 4 is not finite"):
        mobius_normalize(SphereConfiguration(points=pts, boundary=tuple(subset)))


def test_certificate_refuses_a_nan_lambda2(monkeypatch):
    monkeypatch.setattr(packing_module, "lambda_k", lambda g, k: math.nan)
    with pytest.raises(ConvergenceFailure, match="certificate unsound"):
        certify_planar_bound(octahedron())


def test_mobius_needs_a_subset():
    pts = np.eye(3)
    with pytest.raises(EmptyBoundary):
        mobius_normalize(SphereConfiguration(points=pts, boundary=()))


def _mobius_cases():
    """(label, configuration, subset) triples covering every exit of the loop."""
    rng = np.random.Generator(np.random.Philox(31))
    cases = []
    for size in (10, 17, 23, 30, 41, 50):
        pts = rng.normal(size=(size, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cases.append((f"uniform{size}", pts, None))
    cases.append(("fortran", np.asfortranarray(pts), None))
    for angle in (0.05, 0.2, 0.4):
        z = rng.uniform(np.cos(angle), 1.0, size=30)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=30)
        s = np.sqrt(1.0 - z * z)
        cases.append((f"cap{angle}", np.column_stack([s * np.cos(phi), s * np.sin(phi), z]), None))
    for heavy in range(16, 21):
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[:heavy] = pts[0]
        cases.append((f"heavy{heavy}", pts, None))
    pts = rng.normal(size=(10, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:5] = [0.0, 0.0, 1.0]
    cases.append(("half-coincident", pts, None))
    near = np.tile([0.0, 0.0, 1.0], (8, 1)) + 1e-13 * rng.normal(size=(8, 3))
    cases.append(("near-coincident", near / np.linalg.norm(near, axis=1, keepdims=True), None))
    cases.append(("centred", np.vstack([np.eye(3), -np.eye(3)]), None))
    for level in (2, 3):
        lift = lift_to_sphere(circle_pack(gen_sphere(level))).points
        half = sorted(np.random.Generator(np.random.Philox(level)).choice(
            len(lift), len(lift) // 2, replace=False).tolist())
        for label, subset in (("full", None), ("half", half), ("reversed", half[::-1])):
            cases.append((f"sphere{level}-{label}", lift, subset))
    return cases


def _mobius_outcome(normalize, sc, subset):
    try:
        out = normalize(sc, subset)
    except NormalizationFailure as exc:
        return type(exc), str(exc)
    return out is sc, out.boundary, out.points


def test_mobius_kernel_is_bit_identical():
    # The loop as first written is the oracle: same points to the last bit,
    # and the same refusal with the same message.
    for label, pts, subset in _mobius_cases():
        sc = SphereConfiguration(points=pts, boundary=tuple(range(len(pts))))
        got = _mobius_outcome(mobius_normalize, sc, subset)
        want = _mobius_outcome(reference_mobius_normalize, sc, subset)
        assert len(got) == len(want), label
        if len(got) == 2:
            assert got == want, label
        else:
            assert got[:2] == want[:2], label
            assert np.array_equal(got[2], want[2]), label


def test_mobius_never_writes_its_input():
    # Read-only points raise on any in-place write: the all-points path
    # maps the caller's array itself, the subset path a copy of its rows,
    # and a centred input is returned as it is.
    rng = np.random.Generator(np.random.Philox(37))
    pts = rng.normal(size=(30, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    centred = np.vstack([np.eye(3), -np.eye(3)])
    for x, subset in ((pts, None), (pts, list(range(0, 30, 2))), (centred, None)):
        frozen = x.copy()
        frozen.setflags(write=False)
        sc = SphereConfiguration(points=frozen, boundary=tuple(range(len(x))))
        out = mobius_normalize(sc, subset)
        want = reference_mobius_normalize(
            SphereConfiguration(points=x.copy(), boundary=sc.boundary), subset)
        assert np.array_equal(frozen, x)
        assert np.array_equal(out.points, want.points)
    assert out is sc


def test_certificate_octahedron_is_tight():
    out = certify_planar_bound(octahedron())
    assert out["lambda2"] == pytest.approx(4.0, abs=1e-9)
    assert out["geometric_bound"] == pytest.approx(4.0, abs=1e-6)
    assert out["degree_bound"] == pytest.approx(16 / 3, abs=1e-12)
    assert out["boundary_size"] == 6
    assert out["max_degree"] == 4
    assert out["product"] == pytest.approx(24.0, abs=1e-8)
    assert out["within_degree_bound"] is True
    assert out["packing_residual"] <= 1e-8
    assert out["centroid_norm"] <= 1e-7


def test_certificate_tetrahedron():
    out = certify_planar_bound(tetrahedron())
    assert out["lambda2"] == pytest.approx(4.0, abs=1e-9)
    assert out["lambda2"] <= out["geometric_bound"] + 1e-8
    assert out["degree_bound"] == pytest.approx(6.0, abs=1e-12)


def test_certificate_on_refined_sphere():
    rg = gen_sphere(1)
    out = certify_planar_bound(rg)
    assert out["lambda2"] <= out["geometric_bound"] + 1e-8
    assert out["product"] <= 8 * out["max_degree"]
    assert out["within_degree_bound"] is True
    assert out["lambda2"] == pytest.approx(lambda_k(rg, 2), abs=1e-12)


def test_svg_output_is_deterministic():
    cp = circle_pack(tetrahedron())
    svg = packing_svg(cp)
    assert svg == packing_svg(cp)
    assert svg.count("<circle") == 4
    assert svg.lstrip().startswith("<svg")
    assert "#c02020" in svg  # boundary circles are tinted
