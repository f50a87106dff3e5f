"""Release gates for the package, one test per criterion, and the
hash-seed gate beside criterion 9.

Each criterion prints exactly one summary line — ``[criterion N] PASS/FAIL ...``
— with the measured quantities and elapsed time, then asserts.  Run with
``pytest -sv tests/test_acceptance.py`` to see the report lines inline.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import steklov
from steklov import (
    NormalizationFailure,
    SphereConfiguration,
    build_boundary_graph,
    certify_planar_bound,
    circle_pack,
    comparison_bound,
    effective_resistance,
    gen_sphere,
    gen_torus,
    genus,
    graph_to_document,
    icosahedron,
    mobius_normalize,
    octahedron,
    records_to_csv,
    refine,
    serialize_document,
    steklov_spectrum,
    sweep_main_bound,
    tetrahedron,
    trace_faces,
    with_boundary,
)

from helpers import (
    random_boundary,
    random_connected_graph,
    subdivision_immersion,
    tangency_error,
    tree_immersion,
)

ARTIFACTS = Path(__file__).parent / "artifacts"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_small_spectra():
    t0 = time.perf_counter()
    cases = [
        ("K2", 2, [(0, 1)], [0, 1], [0.0, 2.0]),
        ("P3 endpoints", 3, [(0, 1), (1, 2)], [0, 2], [0.0, 1.0]),
        ("star", 4, [(0, 1), (0, 2), (0, 3)], [1, 2, 3], [0.0, 1.0, 1.0]),
        ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 2, 3],
         [0.0, 2.0, 2.0, 4.0]),
    ]
    bad = []
    worst = 0.0
    for name, n, edges, boundary, expected in cases:
        got = steklov_spectrum(build_boundary_graph(n, edges, boundary)).eigenvalues
        err = float(np.abs(got - np.array(expected)).max())
        worst = max(worst, err)
        if err > 1e-9:
            bad.append(f"{name} off by {err:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _report(1, "closed-form small spectra", ok,
            f"4 graphs, worst abs error {worst:.2e} <= 1e-9 "
            f"({elapsed:.2f}s / 1s){'; ' + '; '.join(bad) if bad else ''}")


def test_criterion_2_resistance_route_agreement():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(202))
    worst = 0.0
    bad = 0
    for _ in range(500):
        n, edges = random_connected_graph(rng, n_max=50, n_min=2)
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            v = (u + 1) % n
        res = effective_resistance(build_boundary_graph(n, edges, [0]), u, v)
        rel = abs(res.r_steklov - res.r_pinv) / res.r_pinv
        worst = max(worst, rel)
        if rel > 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _report(2, "spectral vs pseudoinverse resistance", ok,
            f"500 graphs (n <= 50), worst relative gap {worst:.2e} <= 1e-9, "
            f"{bad} failures ({elapsed:.1f}s / 30s)")


def test_criterion_3_immersion_comparison():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(303))
    bad = 0
    worst_margin = -math.inf
    for i in range(500):
        n, edges = random_connected_graph(rng, n_max=40, n_min=2)
        g = build_boundary_graph(n, edges, random_boundary(rng, n))
        make = subdivision_immersion if i % 2 == 0 else tree_immersion
        imm = make(rng, g)
        nb = len(g.boundary)
        ks = {2, int(rng.integers(1, nb + 1))}
        for k in ks:
            lhs, rhs = comparison_bound(imm, k)
            worst_margin = max(worst_margin, lhs - rhs)
            if lhs > rhs + 1e-8:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    _report(3, "eigenvalue comparison across immersions", ok,
            f"500 immersions (n <= 40), k = 2 and one random k, "
            f"worst lhs-rhs {worst_margin:.2e} <= 1e-8, {bad} violations "
            f"({elapsed:.1f}s / 60s)")


def test_criterion_4_refinement_counts():
    t0 = time.perf_counter()
    builders = [
        ("tetrahedron", tetrahedron),
        ("octahedron", octahedron),
        ("icosahedron", icosahedron),
        ("torus 4x4", lambda: gen_torus(4, 4)),
        ("torus 3x5", lambda: gen_torus(3, 5)),
    ]
    bad = []
    for name, builder in builders:
        rg = builder()
        g0 = genus(rg)
        v, e, f = rg.n, len(rg.edges), len(trace_faces(rg))
        for k in range(1, 5):
            v, e, f = v + e, 2 * e + 3 * f, 4 * f
            ref = refine(rg, None, k)
            got = (ref.graph.n, len(ref.graph.edges), len(trace_faces(ref.graph)))
            if got != (v, e, f):
                bad.append(f"{name} k={k}: got {got}, want {(v, e, f)}")
            if genus(ref.graph) != g0:
                bad.append(f"{name} k={k}: genus changed")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _report(4, "subdivision count recurrences", ok,
            f"5 families x levels 1..4, exact V/E/F and genus match "
            f"({elapsed:.1f}s / 10s){'; ' + '; '.join(bad) if bad else ''}")


def test_criterion_5_sphere_packings():
    t0 = time.perf_counter()
    bad = []
    worst_res = worst_tan = 0.0
    for level in range(4):
        rg = gen_sphere(level)
        cp = circle_pack(rg)
        tan = tangency_error(cp, rg.edges)
        worst_res = max(worst_res, cp.residual)
        worst_tan = max(worst_tan, tan)
        if cp.residual > 1e-8:
            bad.append(f"level {level} residual {cp.residual:.2e}")
        if tan > 1e-7:
            bad.append(f"level {level} tangency {tan:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(5, "sphere-mesh circle packings", ok,
            f"levels 0..3, worst residual {worst_res:.2e} <= 1e-8, worst "
            f"relative tangency {worst_tan:.2e} <= 1e-7 ({elapsed:.1f}s / 60s)")


def test_criterion_6_planar_certificates():
    t0 = time.perf_counter()
    bad = []
    shapes = [("tetrahedron", tetrahedron()), ("octahedron", octahedron()),
              ("icosahedron", icosahedron())]
    shapes += [(f"sphere level {l}", gen_sphere(l)) for l in range(4)]
    for name, rg in shapes:
        out = certify_planar_bound(rg)
        if out["lambda2"] > out["geometric_bound"] + 1e-8:
            bad.append(f"{name}: lambda2 {out['lambda2']:.6g} above geometric "
                       f"bound {out['geometric_bound']:.6g}")
        if name.startswith("sphere"):
            if out["max_degree"] > 6:
                bad.append(f"{name}: degree {out['max_degree']} > 6")
            if out["product"] > 8 * out["max_degree"]:
                bad.append(f"{name}: product {out['product']:.6g} above "
                           f"8D = {8 * out['max_degree']}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(6, "geometric lambda_2 certificates", ok,
            f"7 packed instances, lambda2 <= geometric bound + 1e-8 and "
            f"lambda2*|bdry| <= 8D on sphere meshes ({elapsed:.1f}s / 60s)"
            f"{'; ' + '; '.join(bad) if bad else ''}")


def test_criterion_7_genus_sweep():
    t0 = time.perf_counter()
    records = sweep_main_bound(4, 5)
    values = [r.product_over_g for r in records]
    spread = max(values) / min(values)
    ARTIFACTS.mkdir(exist_ok=True)
    csv_path = ARTIFACTS / "sweep_genus_res5.csv"
    csv_path.write_text(records_to_csv(records), encoding="utf-8")
    elapsed = time.perf_counter() - t0
    ok = (len(records) == 4 and all(math.isfinite(v) and v > 0 for v in values)
          and spread <= 10.0 and elapsed < 300.0)
    _report(7, "normalized product across genus 1..4", ok,
            f"max product/g {max(values):.6g}, spread {spread:.3f} <= 10, "
            f"csv archived at {csv_path} ({elapsed:.1f}s / 300s)")


def test_criterion_8_mobius_normalization():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(808))
    bad = []
    worst_c = worst_u = 0.0

    def check(pts, label):
        nonlocal worst_c, worst_u
        sc = SphereConfiguration(points=pts, boundary=tuple(range(len(pts))))
        out = mobius_normalize(sc)
        c = float(np.linalg.norm(out.boundary_centroid))
        u = float(np.abs(np.linalg.norm(out.points, axis=1) - 1.0).max())
        worst_c, worst_u = max(worst_c, c), max(worst_u, u)
        if c > 1e-7 or u > 1e-10:
            bad.append(f"{label}: centroid {c:.2e}, unit error {u:.2e}")

    for i in range(70):  # uniform configurations
        n = int(rng.integers(10, 51))
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        check(pts, f"uniform[{i}]")

    for i in range(30):  # clusters near one pole
        n = int(rng.integers(12, 41))
        angle = float(rng.uniform(0.05, 0.4))
        z = rng.uniform(np.cos(angle), 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        s = np.sqrt(1.0 - z**2)
        check(np.column_stack([s * np.cos(phi), s * np.sin(phi), z]),
              f"polar[{i}] angle {angle:.2f}")

    # adversarial mass concentration: must fail cleanly, never crash
    crash = None
    survived = 0
    pole = np.array([0.0, 0.0, 1.0])
    spread = rng.normal(size=(4, 3))
    spread /= np.linalg.norm(spread, axis=1, keepdims=True)
    half = rng.normal(size=(5, 3))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    adversarial = [
        ("all identical", np.tile(pole, (9, 1)), True),
        ("six of ten coincide", np.vstack([np.tile(pole, (6, 1)), spread]), True),
        ("exactly half coincide", np.vstack([np.tile(pole, (5, 1)), half]), False),
    ]
    for label, pts, must_fail in adversarial:
        sc = SphereConfiguration(points=pts, boundary=tuple(range(len(pts))))
        try:
            out = mobius_normalize(sc)
            survived += 1
            if must_fail:
                bad.append(f"{label}: normalized an impossible configuration")
            elif float(np.linalg.norm(out.boundary_centroid)) > 1e-7:
                bad.append(f"{label}: returned without centring")
        except NormalizationFailure:
            pass
        except Exception as exc:  # anything else is a crash
            crash = f"{label}: {type(exc).__name__}: {exc}"

    elapsed = time.perf_counter() - t0
    ok = not bad and crash is None and elapsed < 30.0
    _report(8, "Mobius recentering of sphere configurations", ok,
            f"100 random configs centred (worst centroid {worst_c:.2e}, worst "
            f"unit error {worst_u:.2e}), 3 adversarial handled "
            f"({survived} normalized, rest refused) ({elapsed:.1f}s / 30s)"
            f"{'; ' + '; '.join(bad) if bad else ''}{'; ' + crash if crash else ''}")


def _run_cli(args, cwd):
    # the child runs in another directory, so hand it the absolute location
    # of the package under test rather than an inherited relative path
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from steklov.cli import cli; sys.exit(cli(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, cwd=cwd, env=env, check=False)


def test_criterion_9_byte_determinism(tmp_path):
    runs = []
    for i in (1, 2):
        csv = tmp_path / f"sweep{i}.csv"
        doc = tmp_path / f"genus{i}.json"
        a = _run_cli(["sweep", "--gmax", "2", "--res", "4",
                      "--policy", "random-fraction:0.6:7", "--csv", str(csv)],
                     cwd=tmp_path)
        b = _run_cli(["gen", "genus", "2", "4", "-o", str(doc)], cwd=tmp_path)
        runs.append((a.returncode, b.returncode, a.stdout,
                     csv.read_bytes(), doc.read_bytes()))
    same = runs[0][2:] == runs[1][2:]
    rc_ok = all(r[0] == 0 and r[1] == 0 for r in runs)
    ok = same and rc_ok
    _report(9, "byte-identical reruns", ok,
            f"sweep CSV ({len(runs[0][3])} bytes) and generated JSON "
            f"({len(runs[0][4])} bytes) identical across two fresh processes")


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Each command runs twice, in fresh processes under different
    # PYTHONHASHSEED values, and must print and write the same bytes: the
    # benchmark's fresh-process commands on small inputs, Lanczos on the
    # torus's multiple eigenvalue, the dense finish of lambda_k (k = |B|)
    # and the two resistance routes.
    sphere2 = gen_sphere(2)
    quarter = sorted(np.random.Generator(np.random.Philox(9)).choice(
        sphere2.n, sphere2.n // 4, replace=False).tolist())
    inputs = {"sphere1": gen_sphere(1), "sphere2": sphere2, "octahedron": octahedron(),
              "torus10": gen_torus(10, 10), "quarter": with_boundary(sphere2, quarter)}
    for name, g in inputs.items():
        (tmp_path / f"{name}.json").write_text(serialize_document(graph_to_document(g)))
    commands = [
        ["spectrum", "sphere2.json", "--k", "2"],
        ["certify-planar", "sphere1.json"],
        ["immerse", "octahedron.json", "--k", "2", "--seed", "0"],
        ["sweep", "--gmax", "3", "--res", "5", "--csv", "out.csv", "--svg", "out.svg"],
        ["subdivide", "sphere1.json", "--k", "1"],
        ["spectrum", "torus10.json", "--k", "3"],
        ["spectrum", "quarter.json", "--k", str(len(quarter))],
        ["resist", "torus10.json", "--u", "17", "--v", "55"],
    ]
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys; from steklov.cli import cli; sys.exit(cli(sys.argv[1:]))"
    for argv in commands:
        runs = {}
        for seed in ("1", "2"):
            cwd = tmp_path / f"hash{seed}"
            cwd.mkdir(exist_ok=True)
            runs[seed] = (cwd, subprocess.Popen(
                [sys.executable, "-c", code, *[f"../{a}" if a.endswith(".json") else a
                                               for a in argv]],
                cwd=cwd, env=dict(env, PYTHONHASHSEED=seed),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        outs = []
        for cwd, proc in runs.values():
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            written = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
            outs.append((out, written))
            for f in cwd.iterdir():
                f.unlink()
        assert outs[0] == outs[1], argv
