"""Command-line front end.

Subcommands operate on the JSON graph format (see ``harness``):

    spectrum <file> [--k K]      eigenvalues (or just the K-th)
    dtn <file>                   Dirichlet-to-Neumann matrix rows
    resist <file> --u U --v V    effective resistance + route agreement tolerance
    subdivide <file> --k K       hexagonal refinement, JSON to stdout
    immerse <file> --k K --seed S   random immersion comparison summary
    pack <file> [--svg out.svg]  circle packing residual (optional figure)
    certify-planar <file>        geometric vs degree-based lambda_2 bounds
    gen <family> [params] -o out.json   graph family generators
    sweep [--gmax G] [--res R] [--policy P] [--csv out.csv] [--svg out.svg]

Exit codes: 0 success, 1 validation or usage error, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConvergenceError, SteklovError, ValidationError
from ..graphs import RotationGraph, genus
from ..harness import (
    _enforce_cap,
    document_to_graph,
    gen_genus,
    gen_sphere,
    gen_torus,
    graph_to_document,
    icosahedron,
    max_instance_size,
    octahedron,
    parse_document,
    records_to_csv,
    serialize_document,
    sweep_main_bound,
    sweep_svg,
    tetrahedron,
)
from ..immersion import comparison_bound, random_immersion
from ..packing import certify_planar_bound, circle_pack, packing_svg
from ..refine import boundary_growth, refine
from ..resistance import _AGREE_TOL, effective_resistance
from ..spectrum import dtn_matrix, lambda_k, steklov_spectrum


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise _UsageError(message)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    return document_to_graph(parse_document(text))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _need_rotation(g, what: str) -> RotationGraph:
    if not isinstance(g, RotationGraph):
        raise ValidationError(
            f"{what} needs an embedding; add a \"rotation\" entry to the file")
    return g


def _check_refined_size(rg: RotationGraph, k: int) -> None:
    # V grows by E per step and E quadruples on closed triangulations,
    # so the final size is known before doing any work.  A level past the
    # cap's bit length is over the cap already, so the exponent stops there
    # and the size stays a printable number.
    k = min(k, max_instance_size().bit_length())
    _enforce_cap(rg.n + len(rg.edges) * (4**k - 1) // 3, f"refinement level {k}")


def _cmd_spectrum(args) -> int:
    g = _load(args.file)
    if args.k is not None:
        print(f"{lambda_k(g, args.k):.12g}")
    else:
        spec = steklov_spectrum(g)
        print(" ".join(f"{x:.12g}" for x in spec.eigenvalues))
    return 0


def _cmd_dtn(args) -> int:
    mat = dtn_matrix(_load(args.file))
    for row in mat.matrix:
        print(" ".join(f"{x:.12g}" for x in row))
    return 0


def _cmd_resist(args) -> int:
    res = effective_resistance(_load(args.file), args.u, args.v)
    print(f"{res.r_steklov:.12g} {_AGREE_TOL:g}")
    return 0


def _cmd_subdivide(args) -> int:
    rg = _need_rotation(_load(args.file), "subdivide")
    _check_refined_size(rg, args.k)
    refined = refine(rg, None, args.k)
    doc = graph_to_document(refined.graph, meta={
        "level": args.k,
        "boundary_growth": boundary_growth(refined),
    })
    print(serialize_document(doc), end="")
    return 0


def _cmd_immerse(args) -> int:
    rg = _need_rotation(_load(args.file), "immerse")
    _check_refined_size(rg, args.k)
    refined = refine(rg, None, args.k)
    imm = random_immersion(refined, args.seed)
    lhs, rhs = comparison_bound(imm, 2)
    print(f"xi {imm.xi} ell {imm.ell} host_n {imm.host.n} "
          f"lambda2 {lhs:.12g} bound {rhs:.12g}")
    return 0


def _cmd_pack(args) -> int:
    cp = circle_pack(_need_rotation(_load(args.file), "pack"))
    print(f"n {len(cp.radii)} residual {cp.residual:.3g}")
    if args.svg:
        _write(args.svg, packing_svg(cp))
    return 0


def _cmd_certify(args) -> int:
    cert = certify_planar_bound(_need_rotation(_load(args.file), "certify-planar"))
    for key in ("lambda2", "geometric_bound", "degree_bound", "product",
                "boundary_size", "max_degree", "within_degree_bound",
                "packing_residual", "centroid_norm"):
        val = cert[key]
        print(f"{key} {val:.12g}" if isinstance(val, float) else f"{key} {val}")
    return 0


_FAMILIES = {
    "sphere": (gen_sphere, (1, 1), "LEVEL"),
    "torus": (gen_torus, (2, 2), "N M"),
    "genus": (gen_genus, (1, 2), "G [RESOLUTION]"),
    "tetrahedron": (tetrahedron, (0, 0), ""),
    "octahedron": (octahedron, (0, 0), ""),
    "icosahedron": (icosahedron, (0, 0), ""),
}


def _cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        raise ValidationError(
            f"unknown family {args.family!r}; choose from {sorted(_FAMILIES)}")
    builder, (lo, hi), usage = _FAMILIES[args.family]
    if not lo <= len(args.params) <= hi:
        raise ValidationError(
            f"family {args.family!r} takes parameters: {usage or '(none)'}")
    rg = builder(*args.params)
    doc = graph_to_document(rg, meta={
        "family": args.family,
        "params": list(args.params),
        "genus": genus(rg),
        "max_degree": rg.base.max_degree,
    })
    _write(args.output, serialize_document(doc))
    print(f"wrote {args.output} ({rg.n} vertices, {len(rg.edges)} edges)")
    return 0


def _cmd_sweep(args) -> int:
    records = sweep_main_bound(args.gmax, args.res, args.policy)
    text = records_to_csv(records)
    print(text, end="")
    if args.csv:
        _write(args.csv, text)
    if args.svg:
        _write(args.svg, sweep_svg(records))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="steklov", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Steklov eigenvalues of a graph file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("dtn", help="Dirichlet-to-Neumann matrix")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dtn)

    p = sub.add_parser("resist", help="effective resistance between two vertices")
    p.add_argument("file")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(func=_cmd_resist)

    p = sub.add_parser("subdivide", help="hexagonal refinement, JSON to stdout")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("immerse", help="random immersion comparison summary")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_immerse)

    p = sub.add_parser("pack", help="circle packing of a genus-0 triangulation")
    p.add_argument("file")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("certify-planar", help="geometric lambda_2 certificate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", help="main-bound sweep over the genus family")
    p.add_argument("--gmax", type=int, default=4)
    p.add_argument("--res", type=int, default=5)
    p.add_argument("--policy", default="all-vertices")
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SteklovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(cli(sys.argv[1:]))
