"""Effective resistance of unit-resistor networks, computed two ways.

The primary route reads the resistance off the two-point Steklov spectrum
as 2 / lambda_2(G, {u, v}).  The cross-check solves L x = e_u - e_v in the
orthogonal complement of the constants with a hand-rolled projected
conjugate gradient and evaluates (e_u - e_v) . x.  Both numbers are
returned and their agreement is enforced, so a silent regression in either
route cannot go unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConvergenceFailure, Disconnected, SameVertex, TooSmall
from .graphs import (
    RotationGraph,
    _check_int,
    _check_vertex,
    _seeded_rng,
    genus,
    is_connected,
    laplacian,
    with_boundary,
)
from .spectrum import lambda_k

_PCG_TOL = 1e-12
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


def _pinv_quadform(g, u: int, v: int) -> float:
    """(e_u - e_v)^T L^+ (e_u - e_v) by Jacobi-preconditioned projected CG.

    Iterates live in the complement of the all-ones vector, where the
    Laplacian of a connected graph is positive definite.
    """
    L = laplacian(g)
    n = g.n
    diag = np.asarray(L.diagonal(), dtype=float)
    b = np.zeros(n)
    b[u], b[v] = 1.0, -1.0
    bnorm = np.linalg.norm(b)

    x = np.zeros(n)
    r = b.copy()
    z = r / diag
    z -= z.mean()
    p = z.copy()
    rz = float(r @ z)
    max_iter = 20 * n + 60
    for _ in range(max_iter):
        q = L @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        r -= r.mean()
        if np.linalg.norm(r) <= _PCG_TOL * bnorm:
            break
        z = r / diag
        z -= z.mean()
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise ConvergenceFailure(
            f"projected CG did not reach {_PCG_TOL:g} within {max_iter} iterations"
        )
    x -= x.mean()
    return float(x[u] - x[v])


def effective_resistance(g, u, v) -> ResistanceResult:
    """Resistance between u and v in the unit-resistor network on g.

    Accepts a BoundaryGraph (its boundary is ignored) or a RotationGraph.
    Raises SameVertex for u == v and Disconnected when the graph is not
    connected; a disagreement between the two routes beyond 1e-9 relative
    raises ConvergenceFailure.
    """
    base = g.base if isinstance(g, RotationGraph) else g
    u = _check_vertex(u, base.n, "u")
    v = _check_vertex(v, base.n, "v")
    if u == v:
        raise SameVertex(f"resistance needs two distinct vertices, got {u} twice")
    if not is_connected(base):
        raise Disconnected("effective resistance is defined on connected graphs")

    lam2 = lambda_k(with_boundary(base, (u, v)), 2)
    r_steklov = 2.0 / lam2
    r_pinv = _pinv_quadform(base, u, v)
    disc = abs(r_steklov - r_pinv)
    if disc > _AGREE_TOL * max(1.0, r_pinv):
        raise ConvergenceFailure(
            f"resistance routes disagree: 2/lambda_2 = {r_steklov!r}, "
            f"pseudoinverse = {r_pinv!r}"
        )
    return ResistanceResult(u=u, v=v, r_steklov=r_steklov, r_pinv=r_pinv, discrepancy=disc)


def resistance_genus_floor(rg: RotationGraph, max_pairs: int = 300) -> dict:
    """Scan vertex pairs for the smallest resistance and scale by genus + 1.

    All pairs are used when there are at most ``max_pairs`` of them;
    otherwise a fixed-seed sample keeps the report deterministic.  The
    scaled minimum is an *empirical* constant — it is reported, never
    asserted against.
    """
    max_pairs = _check_int(max_pairs, "max_pairs", 1)
    base = rg.base
    if base.n < 2:
        raise TooSmall("need at least two vertices to measure a resistance")
    g = genus(rg)
    pairs = list(combinations(range(base.n), 2))
    if len(pairs) > max_pairs:
        chosen = _seeded_rng(0).choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]

    best_r = np.inf
    best_pair = pairs[0]
    for u, v in pairs:
        r = effective_resistance(base, u, v).r_steklov
        if r < best_r:
            best_r, best_pair = r, (u, v)
    return {
        "genus": g,
        "pairs_sampled": len(pairs),
        "min_resistance": best_r,
        "argmin": best_pair,
        "empirical_c": best_r * (g + 1),
    }
