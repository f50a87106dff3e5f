"""The four workloads: seeded inputs, operation lists, and result digests.

Each workload function runs the set-up a user of the toolkit would pay
for -- mesh generation, boundary sampling and JSON file writing -- and
returns the fixed list of operations one pass executes.  An operation
carries:

* ``spec``: JSON data naming the operation, its kind and its input files;
  the checker in ``checks.py`` reads only this and the digest.
* ``call``: the timed call into ``steklov``.
* ``digest``: reduces the result to JSON data outside the timed region.
* ``refusal``: the exception the call must raise instead, if any.

Graph inputs are written with ``write_graph`` (plain ``json``) so that the
oracle reads them without going through ``steklov``.  Everything random is
drawn from ``numpy.random.default_rng([seed, tag])``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from oracle import probe_matrix, steklov_residual

# Size above which steklov switches from dense Laplacian + Cholesky + eigh to
# a sparse Laplacian with one CG solve per boundary column.
SIZE_SWITCH = 4096


@dataclass
class Op:
    spec: dict
    call: Callable[[], Any]
    digest: Callable[[Any], dict]
    refusal: type | None = None


def write_graph(workdir: str, name: str, g) -> str:
    base = getattr(g, "base", g)
    fname = name + ".json"
    with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
        json.dump({"n": base.n, "edges": base.edges, "boundary": base.boundary}, fh)
    return fname


def inventory_row(name: str, g) -> dict:
    base = getattr(g, "base", g)
    nb = len(base.boundary)
    return {"op": name, "n": base.n, "B": nb, "I": base.n - nb,
            "side": "dense" if base.n <= SIZE_SWITCH else "sparse-cg"}


def interleave(*groups):
    """Merge operation lists, spreading each evenly over the pass.

    The host's speed drifts within seconds, so a kind of operation run as
    one block would see a single moment of it; spread out, its latencies
    sample the whole pass.
    """
    keyed = [((i + 0.5) / len(g), k, op)
             for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# -- spectral operations -----------------------------------------------------

def _spectral_op(sk, kind: str, name: str, g, fname: str, seed: int) -> Op:
    base = getattr(g, "base", g)
    edges = np.asarray(base.edges, dtype=np.int64)
    bnd = np.asarray(base.boundary, dtype=np.int64)
    spec = {"name": name, "kind": kind, "input": fname, "k": 2, "probe_seed": seed}
    if kind == "lambda_k":
        return Op(spec, lambda: sk.lambda_k(g, 2), lambda r: {"value": r})
    if kind == "spectrum":
        cols = sorted({1, min(2, len(bnd) - 1), len(bnd) - 1})

        def digest(r):
            return {"eigenvalues": r.eigenvalues.tolist(),
                    "residual": steklov_residual(base.n, edges, bnd, r.eigenvalues,
                                                 r.eigenfunctions, cols)}
        return Op(spec, lambda: sk.steklov_spectrum(g), digest)

    def dtn_digest(r):
        m = r.matrix
        return {"probe": (m @ probe_matrix(len(bnd), seed)).tolist(),
                "boundary": list(r.boundary)}
    return Op(spec, lambda: sk.dtn_matrix(g), dtn_digest)


def _genus_inputs(sk, workdir: str, gmax: int, res: int) -> list[str]:
    return [write_graph(workdir, f"genus{g}_r{res}", sk.gen_genus(g, res))
            for g in range(1, gmax + 1)]


def _sweep_digest(records) -> dict:
    return {"records": [
        {"g": r.g, "D": r.D, "boundary_size": r.boundary_size, "lambda2": r.lambda2,
         "product": r.product, "product_over_g": r.product_over_g}
        for r in records]}


def _sweep_op(sk, workdir: str, gmax: int, res: int):
    spec = {"name": f"sweep_main_bound/g{gmax}/res{res}", "kind": "sweep",
            "inputs": _genus_inputs(sk, workdir, gmax, res)}
    # Handles add edges but no vertices, so every genus has res^2 vertices.
    row = {"op": spec["name"], "n": res * res, "B": res * res, "I": 0, "side": "dense"}
    return Op(spec, lambda: sk.sweep_main_bound(gmax, res), _sweep_digest), row


def lambda_ladder(sk, seed: int, workdir: str):
    rng = np.random.default_rng([seed, 1])
    ops, inv = [], []
    for level in (3, 4):
        rg = sk.gen_sphere(level)
        quarter = sorted(rng.choice(rg.n, rg.n // 4, replace=False).tolist())
        for label, g in (("full", rg), ("quarter", sk.with_boundary(rg, quarter))):
            fname = write_graph(workdir, f"sphere{level}_{label}", g)
            for kind in ("lambda_k", "spectrum", "dtn"):
                name = f"{kind}/sphere{level}/{label}"
                ops.append(_spectral_op(sk, kind, name, g, fname, seed))
                inv.append(inventory_row(name, g))
    rg5 = sk.gen_sphere(5)
    g5 = sk.with_boundary(rg5, sorted(rng.choice(rg5.n, 40, replace=False).tolist()))
    fname = write_graph(workdir, "sphere5_b40", g5)
    ops.append(_spectral_op(sk, "lambda_k", "lambda_k/sphere5/b40", g5, fname, seed))
    inv.append(inventory_row("lambda_k/sphere5/b40", g5))
    sweep, row = _sweep_op(sk, workdir, 4, 40)
    ops.append(sweep)
    inv.append(row)
    return ops, inv


# -- certificates and Möbius recentering -------------------------------------

def _mobius_configs(rng, count: int = 100, size: int = 30):
    """Uniform, tight polar and over-concentrated point sets on the sphere.

    Every fourth configuration is a polar cap of angular radius 0.05-0.4;
    nine put 16-20 of their 30 points at one point, which no Möbius map can
    center, so they must be refused.
    """
    out = []
    for i in range(count):
        if i % 4 == 0:
            angle = float(rng.uniform(0.05, 0.4))
            z = rng.uniform(np.cos(angle), 1.0, size=size)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
            s = np.sqrt(1.0 - z * z)
            out.append(("polar", np.column_stack([s * np.cos(phi), s * np.sin(phi), z])))
            continue
        pts = rng.normal(size=(size, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        if i % 12 == 1:
            heavy = int(rng.integers(16, 21))
            pts[:heavy] = pts[0]
            out.append(("heavy", pts))
        else:
            out.append(("uniform", pts))
    return out


def _certificate_digest(cert) -> dict:
    return {k: (float(v) if isinstance(v, (float, np.floating)) else v)
            for k, v in cert.items()}


def certify_planar(sk, seed: int, workdir: str):
    rng = np.random.default_rng([seed, 2])
    certs, inv = [], []
    spheres = {level: sk.gen_sphere(level) for level in (1, 2, 3)}
    halves = {level: sorted(rng.choice(rg.n, rg.n // 2, replace=False).tolist())
              for level, rg in spheres.items()}
    # The two level-3 certificates take most of a pass; keep them apart.
    for label in ("full", "half"):
        for level in (3, 1, 2):
            rg = spheres[level]
            bnd = halves[level] if label == "half" else None
            g = rg if bnd is None else sk.with_boundary(rg, bnd)
            name = f"certify_planar_bound/sphere{level}/{label}"
            spec = {"name": name, "kind": "certify",
                    "input": write_graph(workdir, f"sphere{level}_{label}", g)}
            certs.append(Op(spec, lambda rg=rg, bnd=bnd: sk.certify_planar_bound(rg, bnd),
                            _certificate_digest))
            inv.append(inventory_row(name, g))

    def mobius_digest(sc):
        pts = np.asarray(sc.points)
        return {"centroid": float(np.linalg.norm(pts[list(sc.boundary)].mean(axis=0))),
                "unit_err": float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max()),
                "count": len(pts)}

    mobius = []
    for i, (kind, pts) in enumerate(_mobius_configs(rng)):
        sc = sk.SphereConfiguration(points=pts, boundary=tuple(range(len(pts))))
        name = f"mobius_normalize/{i:03d}/{kind}"
        spec = {"name": name, "kind": "mobius", "size": len(pts),
                "expect_refusal": kind == "heavy"}
        mobius.append(Op(spec, lambda sc=sc: sk.mobius_normalize(sc), mobius_digest,
                         sk.NormalizationFailure if kind == "heavy" else None))
    inv.append({"op": "mobius_normalize/*", "n": 30, "B": 30, "I": 0, "side": "dense"})
    return interleave(certs, mobius), inv


# -- many small queries ------------------------------------------------------

def _immersion_digest(refined_edges: frozenset):
    """Re-derive xi and ell from the paths, mapped back to refined-graph ids."""
    def digest(imm):
        ids = imm.host_vertex_ids
        usage: dict = {}
        bad = ell = 0
        for (u, v), path in imm.path_map.items():
            if path[0] != imm.vertex_map[u] or path[-1] != imm.vertex_map[v]:
                bad += 1
            ell = max(ell, len(path) - 1)
            seen = set()
            for a, b in zip(path, path[1:]):
                e = (min(ids[a], ids[b]), max(ids[a], ids[b]))
                if e not in refined_edges or e in seen:
                    bad += 1
                seen.add(e)
                usage[e] = usage.get(e, 0) + 1
        return {"xi": imm.xi, "ell": imm.ell, "xi_re": max(usage.values(), default=0),
                "ell_re": ell, "bad_steps": bad, "paths": len(imm.path_map),
                "source_edges": len(imm.source.edges)}
    return digest


def _chain_op(sk, workdir: str, solid: str, k: int):
    rg = getattr(sk, solid)()
    refined = sk.refine(rg, None, k).graph
    spec = {"name": f"chain_bound/{solid}/k{k}", "kind": "chain", "k": k,
            "input": write_graph(workdir, solid, rg),
            "refined": write_graph(workdir, f"{solid}_k{k}", refined)}
    op = Op(spec, lambda: sk.chain_bound(rg, None, k), _certificate_digest)
    return op, inventory_row(spec["name"], refined)


def small_queries(sk, seed: int, workdir: str):
    rng = np.random.default_rng([seed, 3])
    floors, pairs, immersions, chains, inv = [], [], [], [], []
    for name, rg, g in (("sphere2", sk.gen_sphere(2), 0),
                        ("genus2_r5", sk.gen_genus(2, 5), 2)):
        spec = {"name": f"resistance_genus_floor/{name}", "kind": "rgf", "genus": g,
                "input": write_graph(workdir, name, rg)}
        floors.append(Op(spec, lambda rg=rg: sk.resistance_genus_floor(rg),
                         lambda r: {**r, "argmin": list(r["argmin"])}))
        inv.append(inventory_row(spec["name"], rg))

    torus = sk.gen_torus(10, 10)
    fname = write_graph(workdir, "torus10", torus)
    for i in range(200):
        u, v = (int(x) for x in rng.choice(torus.n, 2, replace=False))
        spec = {"name": f"effective_resistance/{i:03d}", "kind": "effres",
                "input": fname, "u": u, "v": v}
        pairs.append(Op(spec, lambda u=u, v=v: sk.effective_resistance(torus, u, v),
                        lambda r: {"r_steklov": r.r_steklov, "r_pinv": r.r_pinv,
                                   "discrepancy": r.discrepancy}))
    inv.append({"op": "effective_resistance/*", "n": torus.n, "B": 2, "I": torus.n - 2,
                "side": "dense"})

    refined = sk.refine(sk.gen_sphere(1), None, 2)
    digest = _immersion_digest(refined.graph.base.edge_set)
    for s in rng.integers(0, 2**31, size=20).tolist():
        spec = {"name": f"random_immersion/seed{s}", "kind": "immersion"}
        immersions.append(Op(spec, lambda s=s: sk.random_immersion(refined, s), digest))
    inv.append({"op": "random_immersion/*", "n": refined.graph.n,
                "B": len(refined.graph.boundary), "I": 0, "side": "dense"})

    for solid, k in (("octahedron", 3), ("icosahedron", 2)):
        op, row = _chain_op(sk, workdir, solid, k)
        chains.append(op)
        inv.append(row)
    sweep, row = _sweep_op(sk, workdir, 4, 10)
    inv.append(row)
    return interleave(floors, pairs, immersions, chains, [sweep]), inv


# -- fresh CLI processes -----------------------------------------------------

_CLI_CODE = "import sys; from steklov.cli import cli; sys.exit(cli(sys.argv[1:]))"


def _parse_cli(kind: str, text: str) -> dict:
    if kind == "cli-spectrum":
        return {"value": float(text.strip())}
    if kind == "cli-certify":
        out = {}
        for line in text.splitlines():
            key, val = line.split(" ", 1)
            out[key] = val == "True" if val in ("True", "False") else float(val)
        return out
    if kind == "cli-immerse":
        tok = text.split()
        return {tok[i]: float(tok[i + 1]) for i in range(0, len(tok), 2)}
    if kind == "cli-sweep":
        lines = text.strip().splitlines()
        keys = lines[0].split(",")
        recs = []
        for line in lines[1:]:
            row = dict(zip(keys, line.split(",")))
            recs.append({k: (row[k] if k == "family" else float(row[k])) for k in keys})
        return {"records": recs}
    doc = json.loads(text)
    edges = doc["edges"]
    return {"n": doc["n"], "edges": len(edges), "boundary": len(doc["boundary"]),
            "canonical": all(u < v for u, v in edges) and edges == sorted(edges),
            "rotation_rows": len(doc.get("rotation") or ()),
            "level": doc["meta"]["level"], "growth": doc["meta"]["boundary_growth"]}


class CliRunner:
    """Runs one CLI command, in a fresh process or in this one.

    A fresh process gets an absolute ``src`` path in PYTHONPATH, so it
    imports the checkout's package whatever its working directory.
    """

    def __init__(self, src: str, workdir: str):
        self.workdir = workdir
        self.in_process = False
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def __call__(self, argv):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = sys.modules["steklov.cli"].cli(argv)
            return rc, buf.getvalue().encode("utf-8"), b""
        proc = subprocess.run([sys.executable, "-c", _CLI_CODE, *argv],
                              capture_output=True, env=self.env, cwd=self.workdir,
                              timeout=120, check=False)
        return proc.returncode, proc.stdout, proc.stderr


def cli_fresh(sk, seed: int, workdir: str, src: str):
    files = {}
    for name, rg in (("sphere2", sk.gen_sphere(2)), ("sphere3", sk.gen_sphere(3)),
                     ("sphere4", sk.gen_sphere(4)), ("octahedron", sk.octahedron())):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sk.serialize_document(sk.graph_to_document(rg)))
        files[name] = (path, rg)
    genus_inputs = _genus_inputs(sk, workdir, 4, 20)
    runner = CliRunner(src, workdir)
    commands = (
        ("cli-spectrum", "sphere3", ["spectrum", files["sphere3"][0], "--k", "2"]),
        ("cli-spectrum", "sphere4", ["spectrum", files["sphere4"][0], "--k", "2"]),
        ("cli-certify", "sphere2", ["certify-planar", files["sphere2"][0]]),
        ("cli-certify", "sphere3", ["certify-planar", files["sphere3"][0]]),
        ("cli-immerse", "octahedron",
         ["immerse", files["octahedron"][0], "--k", "3", "--seed", "0"]),
        ("cli-sweep", None, ["sweep", "--gmax", "4", "--res", "20"]),
        ("cli-subdivide", "sphere2", ["subdivide", files["sphere2"][0], "--k", "2"]),
    )
    ops, inv = [], []
    for kind, target, argv in commands:
        name = "cli/" + " ".join(argv if target is None else [argv[0], target] + argv[2:])
        spec = {"name": name, "kind": kind,
                "input": os.path.basename(files[target][0]) if target else None,
                "inputs": genus_inputs if kind == "cli-sweep" else None}

        def digest(res, kind=kind):
            rc, out, err = res
            parsed = _parse_cli(kind, out.decode("utf-8")) if rc == 0 else None
            return {"rc": rc, "sha": hashlib.sha256(out).hexdigest(), "parsed": parsed,
                    "stderr": err.decode("utf-8", "replace")[-400:]}
        ops.append(Op(spec, lambda argv=argv: runner(argv), digest))
        if target:
            inv.append(inventory_row(name, files[target][1]))
        else:
            inv.append({"op": name, "n": 20 * 20, "B": 20 * 20, "I": 0, "side": "dense"})
    return ops, inv, runner


WORKLOADS = ("lambda_ladder", "certify_planar", "small_queries", "cli_fresh")
