"""Planar circle packings and the geometric eigenvalue certificate.

``circle_pack`` realizes a genus-0 triangulation as tangent circles: one
face is treated as the outer boundary with its radii pinned to 1, damped
Newton on the log-radii of the other vertices makes the angle sum at every
interior vertex 2*pi (a convex problem, by Colin de Verdière's variational
principle; each step factors the Jacobian with the package's one sparse
factorization, ``spectrum._ldl``), and centers are then laid out on the
dart arrays of the rotation graph, one breadth-first level of faces at a
time.  The packing depends on the rotation system alone, so it is computed
once per graph and shared by every boundary.  The centers lift to the unit
sphere by inverse stereographic projection, a Möbius transformation found
by damped Newton on the ball point it sends to the origin recenters the
boundary points, and the resulting unit vectors feed the vector-valued
Rayleigh quotient, giving a certified upper bound for the second Steklov
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import (
    ConvergenceFailure,
    Disconnected,
    EmptyBoundary,
    NonzeroGenus,
    NormalizationFailure,
    NotTriangulated,
    TooSmall,
)
from .graphs import RotationGraph, _check_finite, _frozen, is_connected, with_boundary
from .spectrum import _ldl, lambda_k, vector_rayleigh_bound

# Newton converges quadratically, so it is run to near roundoff rather than
# stopped at the declared residual, and the face-by-face layout inherits
# almost no angle error.  A line search that finds no decrease down to a
# 2**-40 step means roundoff has been reached.
_ANGLE_TARGET = 1e-13
_RESIDUAL_TOL = 1e-8
_MAX_STEPS = 50
_MIN_DAMPING = 2.0**-40
_CENTROID_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class CirclePacking:
    """Radii and planar centers realizing a triangulation by tangencies.

    ``residual`` is the max over interior vertices of |angle sum - 2*pi|;
    ``outer_face`` lists the pinned (radius 1) vertices.  The arrays are
    read-only: they are computed once per rotation system and shared by
    every :func:`circle_pack` call on the graph, and on the copies
    :func:`graphs.with_boundary` makes of it after the call.  Only
    ``boundary`` is the graph's own.
    """

    radii: np.ndarray
    centers: np.ndarray
    residual: float
    boundary: tuple[int, ...]
    outer_face: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SphereConfiguration:
    """Unit vectors per vertex, with a distinguished boundary subset."""

    points: np.ndarray
    boundary: tuple[int, ...]

    @property
    def boundary_centroid(self) -> np.ndarray:
        return self.points[list(self.boundary)].mean(axis=0)


def _wedge_angles(rv, ra, rb):
    return 2.0 * np.arcsin(np.sqrt(ra * rb / ((rv + ra) * (rv + rb))))


def circle_pack(rg: RotationGraph) -> CirclePacking:
    """Pack a genus-0 triangulation (or near-triangulation) with circles.

    If every face is a triangle, the first traced face is taken as the
    outer one; if exactly one face is larger, that face is the outer one
    (so a disk-like input such as a wheel keeps its natural rim).  Outer
    radii are pinned to 1.  The other radii come from damped Newton on
    their logarithms: each step solves J du = 2*pi - theta with the sparse
    angle-sum Jacobian J (the Hessian of Colin de Verdière's functional,
    symmetric up to roundoff), factored by ``spectrum._ldl``, and halves
    the step until the max angle defect drops.  More than one big face
    raises NotTriangulated, positive genus NonzeroGenus, a disconnected
    graph Disconnected, and an angle-sum residual that will not drop below
    1e-8 ConvergenceFailure.

    The packing does not depend on the boundary, so it is computed on the
    graph's first call and kept on it (its :func:`graphs.with_boundary`
    copies carry it); later calls only attach the graph's boundary.  A
    packing that fails is not kept and raises again on every call.
    """
    cache = rg.__dict__
    if "_packing" not in cache:
        cache["_packing"] = _pack(rg)
    radii, centers, residual, outer = cache["_packing"]
    return CirclePacking(radii=radii, centers=centers, residual=residual,
                         boundary=rg.boundary, outer_face=outer)


def _pack(rg: RotationGraph) -> tuple:
    """(radii, centers, residual, outer face) of :func:`circle_pack`, the
    arrays read-only."""
    if not is_connected(rg.base):
        raise Disconnected("circle packing needs a connected graph")
    darts = rg._darts
    if rg.n - len(rg.edges) + len(darts.first) != 2:
        raise NonzeroGenus("circle packing is only computed for genus-0 embeddings")
    if rg.n < 4:
        raise TooSmall("circle packing needs at least 4 vertices")
    big = np.flatnonzero(darts.size != 3)
    if len(big) > 1:
        raise NotTriangulated(
            f"{len(big)} faces are not triangles; only the outer face may be larger"
        )
    outer_pos = int(big[0]) if big.size else 0
    ring = [darts.first[outer_pos]]  # the outer face's darts in walk order
    while len(ring) < darts.size[outer_pos]:
        ring.append(darts.next[ring[-1]])
    outer = tuple(darts.tail[ring].tolist())
    interior = np.setdiff1d(np.arange(rg.n), outer)

    radii = np.ones(rg.n)
    residual = 0.0
    if interior.size:
        m = interior.size
        slot = np.full(rg.n, -1, dtype=np.int64)
        slot[interior] = np.arange(m)
        tri = darts.tail[darts.corners(np.arange(len(darts.first)) != outer_pos)]
        wedges = np.concatenate([np.roll(tri, -i, axis=1) for i in range(3)])
        wedges = wedges[slot[wedges[:, 0]] >= 0]
        wvert, wa, wb = wedges.T
        wv, sa, sb = slot[wvert], slot[wa], slot[wb]
        ia, ib = sa >= 0, sb >= 0
        rows = np.concatenate([wv, wv, wv[ia], wv[ib]])
        cols = np.concatenate([wv, wv, sa[ia], sb[ib]])

        def defect(r):
            ang = _wedge_angles(r[wvert], r[wa], r[wb])
            return 2.0 * np.pi - np.bincount(wv, weights=ang, minlength=m)

        def jacobian(r):
            # The wedge angle is 2*asin(sqrt(s)), s = r_a r_b/((r_v+r_a)(r_v+r_b)),
            # so d/d(log r_a) = sqrt(s/(1-s)) * r_v/(r_v+r_a); 1 - s is written
            # out as r_v (r_v+r_a+r_b)/((r_v+r_a)(r_v+r_b)) so tiny circles lose
            # no digits.  The angle is scale invariant, so the r_v derivative
            # is minus the sum of the other two.  Returned as the CSR matrix
            # of J^T, whose arrays read as CSC are J, as _ldl reads them.
            rv, ra, rb = r[wvert], r[wa], r[wb]
            q = np.sqrt(ra * rb / (rv * (rv + ra + rb)))
            da, db = q * rv / (rv + ra), q * rv / (rv + rb)
            data = np.concatenate([-da, -db, da[ia], db[ib]])
            return scipy.sparse.csr_matrix((data, (cols, rows)), shape=(m, m))

        d = defect(radii)
        err = float(np.abs(d).max())
        steps = 0
        while err > _ANGLE_TARGET and steps < _MAX_STEPS:
            du = _ldl(jacobian(radii)).solve(d)
            t = 1.0
            while t >= _MIN_DAMPING:
                cand = radii.copy()
                cand[interior] *= np.exp(t * du)
                d_new = defect(cand)
                err_new = float(np.abs(d_new).max())
                if err_new < err:
                    break
                t *= 0.5
            else:
                break  # no decrease along the Newton direction: roundoff floor
            radii, d, err = cand, d_new, err_new
            steps += 1
        if err > _RESIDUAL_TOL:
            raise ConvergenceFailure(
                f"angle-sum residual {err:.3e} after {steps} Newton steps"
            )
        residual = err

    centers = _layout(rg, ring, radii)
    return (*_frozen(radii, centers), residual, outer)


def _layout(rg: RotationGraph, ring: list, radii) -> np.ndarray:
    """Centers over the faces inside the outer one, placed by breadth-first
    search of the dual graph one level at a time.

    Each face is laid out in its traced cyclic order with the same turning
    sign, which keeps adjacent apexes on opposite sides of their shared
    edge; the angle sums being 2*pi makes the placements globally
    consistent.  The search walks darts: dart g = (p, q) enters the face
    across it, whose apex is ``head[next[g]]``, and p and q lie on the
    level before.  A level's faces are entered in queue order, each by its
    first dart, and an apex not yet placed is placed from the first of them
    that has it.  ``ring`` lists the outer face's darts in walk order.
    """
    darts = rg._darts
    rev, nxt, tail, face = darts.rev, darts.next, darts.tail, darts.face
    head = tail[rev]
    outer_pos = face[ring[0]]
    inward = rev[ring][face[rev[ring]] != outer_pos]  # the darts entering a triangle
    if not inward.size:
        raise Disconnected("no triangle is adjacent to the outer face")

    centers = np.full((rg.n, 2), np.nan)
    g = inward[:1]
    p, q = tail[g[0]], head[g[0]]
    centers[p] = (0.0, 0.0)
    centers[q] = (radii[p] + radii[q], 0.0)
    visited = np.zeros(len(darts.first), dtype=bool)
    visited[outer_pos] = True
    while g.size:
        level = face[g]
        visited[level] = True
        s = head[nxt[g]]
        keep = np.sort(np.unique(s, return_index=True)[1])
        keep = keep[np.isnan(centers[s[keep], 0])]
        g, s = g[keep], s[keep]
        p, q = tail[g], head[g]
        alpha = _wedge_angles(radii[p], radii[q], radii[s])
        u = centers[q] - centers[p]
        u /= np.hypot(u[:, 0], u[:, 1])[:, None]
        ca, sa = np.cos(alpha), np.sin(alpha)
        direction = np.stack([ca * u[:, 0] - sa * u[:, 1], sa * u[:, 0] + ca * u[:, 1]], axis=1)
        centers[s] = centers[p] + (radii[p] + radii[s])[:, None] * direction

        g = rev[darts.corners(level).ravel()]
        g = g[~visited[face[g]]]
        g = g[np.sort(np.unique(face[g], return_index=True)[1])]

    if not visited.all() or np.isnan(centers).any():
        raise Disconnected(
            "faces other than the outer one do not form a connected layout"
        )
    return centers


def lift_to_sphere(cp: CirclePacking) -> SphereConfiguration:
    """Inverse stereographic projection of the centers from the plane.

    (x, y) maps to (2x, 2y, x^2 + y^2 - 1) / (1 + x^2 + y^2): the origin
    goes to the south pole and the unit circle to the equator.
    """
    x, y = cp.centers[:, 0], cp.centers[:, 1]
    d = 1.0 + x * x + y * y
    pts = np.stack([2.0 * x / d, 2.0 * y / d, (x * x + y * y - 1.0) / d], axis=1)
    return SphereConfiguration(points=pts, boundary=cp.boundary)


def _ball_map(w: np.ndarray, x: np.ndarray, xx: np.ndarray | None = None) -> np.ndarray:
    """Möbius automorphism of the unit ball sending w to 0, applied to the
    rows of x; restricts to a conformal map of the unit sphere.  ``xx`` may
    hold the squared row norms of x when the caller already has them."""
    wn2 = float(w @ w)
    diff = x - w
    d2 = np.einsum("ij,ij->i", diff, diff)
    if xx is None:
        xx = np.einsum("ij,ij->i", x, x)
    denom = 1.0 - 2.0 * (x @ w) + xx * wn2
    return ((1.0 - wn2) * diff - d2[:, None] * w) / denom[:, None]


def mobius_normalize(sc: SphereConfiguration, subset=None) -> SphereConfiguration:
    """Recenter: find a sphere Möbius map making the subset centroid ~0.

    Damped Newton on the ball point w that the map sends to the origin.
    Each step recenters the current points, so the centroid's Jacobian is
    always taken at w = 0, where it is -2 (I - M) with M the subset mean of
    x x^T; the Newton step enters the open ball through w -> tanh|w| w/|w|
    and is halved until the centroid norm drops.  Every trial maps the
    subset only, sharing its squared row norms; an accepted trial then
    moves the points with one more map, or, when the subset is every point
    in order, its image is the next iterate.  Points are renormalized to
    the sphere after every step, so the centroid checked is that of the
    returned points.  The input array is never written.  Returns the input
    unchanged when it is already centered.  Raises NormalizationFailure up
    front when one point carries more than half of the subset (no Möbius
    map can center that), and whenever the centroid norm stalls above
    1e-7, which is how nearly coincident points end.
    """
    sub_idx = list(sc.boundary if subset is None else subset)
    if not sub_idx:
        raise EmptyBoundary("cannot normalize over an empty subset")
    out = _check_finite(np.asarray(sc.points, dtype=float), "points")
    # Sums over rows and BLAS products round by memory layout, so only a
    # C-ordered array (as every lift is) may stand in for its subset copy.
    whole = out.flags.c_contiguous and sub_idx == list(range(len(out)))
    sub = out if whole else out[sub_idx]
    m = len(sub)
    # np.mean and np.linalg.norm compute exactly these, without the wrappers.
    c = np.add.reduce(sub, axis=0) / m
    err = math.sqrt(c @ c)
    if err <= _CENTROID_TOL:
        return sc
    # A point holding more than half of the subset fills the middle of any
    # lexicographic order, so only the median row needs counting.
    count = int(np.all(sub == sub[np.lexsort(sub.T)[m // 2]], axis=1).sum())
    if 2 * count > m:
        raise NormalizationFailure(
            f"{count} of {m} subset points coincide; no Möbius map can center them"
        )

    steps = 0
    with np.errstate(all="ignore"):
        while steps < _MAX_STEPS:
            try:
                y = np.linalg.solve(np.eye(3) - sub.T @ sub / m, 0.5 * c)
            except np.linalg.LinAlgError:
                break  # every point on one line: the step is undefined
            ynorm = math.sqrt(y @ y)
            xx = np.einsum("ij,ij->i", sub, sub)
            t = 1.0
            while t >= _MIN_DAMPING:
                w = y * (np.tanh(t * ynorm) / ynorm)
                mapped = _ball_map(w, sub, xx)
                trial = np.add.reduce(mapped, axis=0) / m
                if math.sqrt(trial @ trial) < err:
                    break
                # Once centered to the tolerance only full steps are tried, so
                # the first one that does not decrease marks the roundoff floor.
                t = 0.5 * t if err > _CENTROID_TOL else 0.0
            else:
                break
            out = mapped if whole else _ball_map(w, out)
            out /= np.sqrt(np.add.reduce(out * out, axis=1))[:, None]
            sub = out if whole else out[sub_idx]
            c = np.add.reduce(sub, axis=0) / m
            err = math.sqrt(c @ c)
            steps += 1

    if err > _CENTROID_TOL:
        raise NormalizationFailure(
            f"Möbius Newton stalled with centroid norm {err:.3e} after {steps} steps"
        )
    return SphereConfiguration(points=out, boundary=sc.boundary)


def certify_planar_bound(rg: RotationGraph, boundary=None) -> dict:
    """Pack, lift, recenter, and evaluate the vector Rayleigh bound.

    Returns a certificate with the computed lambda_2, the geometric bound
    (which must dominate lambda_2 — a failure here means the numerics are
    broken and raises ConvergenceFailure), and the 8*D/|boundary|
    comparison value with a flag saying whether the geometric bound beats
    it.

    The packing is that of ``rg`` itself, so it is computed once per graph
    and shared by every boundary certified on it; the lift is recentered
    over the boundary certified, ``boundary`` when it is given.
    """
    g2 = with_boundary(rg, boundary) if boundary is not None else rg
    cp = circle_pack(rg)
    sc = mobius_normalize(lift_to_sphere(cp), g2.boundary)
    b_geom = vector_rayleigh_bound(g2, sc.points)
    lam2 = lambda_k(g2, 2)
    nb = len(g2.boundary)
    dmax = g2.base.max_degree
    if not lam2 <= b_geom + 1e-8:  # a NaN on either side fails too
        raise ConvergenceFailure(
            f"certificate unsound: lambda2 {lam2:.12g} exceeds bound {b_geom:.12g}"
        )
    return {
        "lambda2": lam2,
        "geometric_bound": b_geom,
        "degree_bound": 8.0 * dmax / nb,
        "boundary_size": nb,
        "max_degree": dmax,
        "product": lam2 * nb,
        "within_degree_bound": bool(b_geom <= 8.0 * dmax / nb),
        "packing_residual": cp.residual,
        "centroid_norm": float(np.linalg.norm(sc.points[list(g2.boundary)].mean(axis=0))),
    }


def packing_svg(cp: CirclePacking) -> str:
    """Render the packing as an SVG document (1 unit = 100 px).

    Boundary circles are stroked red, the rest dark grey; output is a
    deterministic function of the packing.
    """
    scale = 100.0
    r = cp.radii * scale
    cx = cp.centers[:, 0] * scale
    cy = cp.centers[:, 1] * scale
    pad = 0.05 * max(float((cx + r).max() - (cx - r).min()), 1.0)
    x0, x1 = float((cx - r).min()) - pad, float((cx + r).max()) + pad
    y0, y1 = float((cy - r).min()) - pad, float((cy + r).max()) + pad
    bset = set(cp.boundary)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.2f} {y0:.2f} {x1 - x0:.2f} {y1 - y0:.2f}">'
    ]
    for v in range(len(cp.radii)):
        color = "#c02020" if v in bset else "#303030"
        lines.append(
            f'  <circle cx="{cx[v]:.4f}" cy="{cy[v]:.4f}" r="{r[v]:.4f}" '
            f'fill="none" stroke="{color}" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
