"""Effective resistance of unit-resistor networks, computed two ways.

The primary route reads the resistance off the two-point Steklov spectrum
as 2 / lambda_2(G, {u, v}), through one LU of L + B/2 per pair.  The
cross-check grounds vertex 0: it solves L[1:, 1:] x = (e_u - e_v)[1:] with
x_0 = 0, so x differs from L^+ (e_u - e_v) by a constant, and evaluates
x_u - x_v.  The grounded Laplacian is positive definite on a connected
graph and is factored once per graph; the factor is kept on the graph,
carried to its :func:`graphs.with_boundary` copies and dropped from its
pickles.  Each pair then costs two triangular solves, the second a
refinement step.  Both numbers are returned and their agreement is
enforced, so a silent regression in either route cannot go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, Disconnected, SameVertex, TooSmall
from .graphs import (
    RotationGraph,
    _base,
    _check_int,
    _check_vertex,
    _seeded_rng,
    genus,
    laplacian,
)
from .spectrum import _lambda_k, _ldl

_AGREE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ResistanceResult:
    """Both resistance computations for one vertex pair.

    ``discrepancy`` = |r_steklov - r_pinv|; construction fails if it
    exceeds 1e-9 relative to r_pinv.
    """

    u: int
    v: int
    r_steklov: float
    r_pinv: float
    discrepancy: float


def _network(base):
    """The Laplacian and the factor of the grounded Laplacian L[1:, 1:],
    after the connectivity check.  The factor is computed on the graph's
    first call and kept on it."""
    if base.components[0] > 1:
        raise Disconnected("effective resistance is defined on connected graphs")
    L = laplacian(base)
    cache = base.__dict__
    if "_grounded" not in cache:
        cache["_grounded"] = _ldl(L[1:, 1:])
    return L, cache["_grounded"]


def _resistance(L, grounded, u: int, v: int) -> ResistanceResult:
    """Both routes for one pair u != v on a network from :func:`_network`."""
    r_steklov = 2.0 / _lambda_k(L, np.array(sorted((u, v))), 1, 2)
    b = np.zeros(L.shape[0])
    b[u], b[v] = 1.0, -1.0
    x = np.zeros(L.shape[0])
    x[1:] = grounded.solve(b[1:])
    # One refinement step: the grounded matrix is worse conditioned than L
    # off the constants, and on a 3 x 6000 torus a lone solve lost 6.8e-10
    # relative, 2.1e-11 after the step.
    x[1:] += grounded.solve((b - L @ x)[1:])
    r_pinv = float(x[u] - x[v])
    disc = abs(r_steklov - r_pinv)
    if disc > _AGREE_TOL * max(1.0, r_pinv):
        raise ConvergenceFailure(
            f"resistance routes disagree: 2/lambda_2 = {r_steklov!r}, "
            f"pseudoinverse = {r_pinv!r}"
        )
    return ResistanceResult(u=u, v=v, r_steklov=r_steklov, r_pinv=r_pinv, discrepancy=disc)


def effective_resistance(g, u, v) -> ResistanceResult:
    """Resistance between u and v in the unit-resistor network on g.

    Accepts a BoundaryGraph (its boundary is ignored) or a RotationGraph.
    Raises SameVertex for u == v and Disconnected when the graph is not
    connected; a disagreement between the two routes beyond 1e-9 relative
    raises ConvergenceFailure.
    """
    base = _base(g)
    u = _check_vertex(u, base.n, "u")
    v = _check_vertex(v, base.n, "v")
    if u == v:
        raise SameVertex(f"resistance needs two distinct vertices, got {u} twice")
    return _resistance(*_network(base), u, v)


def resistance_genus_floor(rg: RotationGraph, max_pairs: int = 300) -> dict:
    """Scan vertex pairs for the smallest resistance and scale by genus + 1.

    All pairs are used when there are at most ``max_pairs`` of them;
    otherwise a fixed-seed sample keeps the report deterministic.
    ``argmin`` is the first sampled pair, in lexicographic order, whose
    resistance is within 1e-9 relative of the smallest sampled one, and
    ``min_resistance`` is that pair's resistance, so ties are broken by
    pair order and not by roundoff.  The scaled minimum is an *empirical*
    constant — it is reported, never asserted against.  The graph's
    Laplacian and grounded factorization are built once and shared by
    every pair.
    """
    max_pairs = _check_int(max_pairs, "max_pairs", 1)
    base = rg.base
    if base.n < 2:
        raise TooSmall("need at least two vertices to measure a resistance")
    L, grounded = _network(base)
    g = genus(rg)
    total = base.n * (base.n - 1) // 2
    chosen = np.arange(total) if total <= max_pairs else \
        np.sort(_seeded_rng(0).choice(total, size=max_pairs, replace=False))
    # Index k of the lexicographic pair order is (u, v): row u holds the
    # n - 1 - u pairs (u, u + 1) .. (u, n - 1) and starts at starts[u].
    counts = np.arange(base.n - 1, 0, -1)
    starts = np.cumsum(counts) - counts
    u = np.searchsorted(starts, chosen, side="right") - 1
    pairs = list(zip(u.tolist(), (chosen - starts[u] + u + 1).tolist()))

    rs = [_resistance(L, grounded, u, v).r_steklov for u, v in pairs]
    low = min(rs)
    i = next(i for i, r in enumerate(rs) if r - low <= _AGREE_TOL * low)
    best_r, best_pair = rs[i], pairs[i]
    return {
        "genus": g,
        "pairs_sampled": len(pairs),
        "min_resistance": best_r,
        "argmin": best_pair,
        "empirical_c": best_r * (g + 1),
    }
