"""Steklov spectra via the Dirichlet-to-Neumann (DtN) matrix.

For a graph with boundary B and interior I, order the Laplacian in blocks

    L = [[L_BB, L_BI],
         [L_IB, L_II]]

The DtN matrix is the Schur complement  S = L_BB - L_BI L_II^{-1} L_IB.
Its eigenvalues 0 = l_1 <= l_2 <= ... <= l_{|B|} are the Steklov
eigenvalues of the pair (G, B); eigenvectors extend harmonically into the
interior.  When B is all of V there is no interior block and S = L.

The blocks are cut from the CSR Laplacian of :func:`graphs.laplacian`; one
sparse LU factorization of L_II (SuperLU via ``scipy.sparse.linalg.splu``)
solves for every boundary column, L_BI multiplies the solution as a sparse
matrix, and S is then eigensolved densely.

The dense steps (the eigensolve and the products with its eigenvectors)
call SciPy's LAPACK/BLAS, the OpenBLAS that SuperLU uses.  NumPy's wheel
bundles a second OpenBLAS; handing work from one to the other leaves the
first one's worker threads spinning for a while on cores the second needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import (
    CentroidNotZero,
    ConvergenceFailure,
    IndexOutOfRange,
    SingularInterior,
    ZeroBoundaryNorm,
)
from .graphs import BoundaryGraph, RotationGraph, _check_int, laplacian

# Relative residual allowed for the symmetric eigensolve.
_EIG_TOL = 1e-9
# |l_1| below this multiple of the top eigenvalue is clamped to exactly 0.
_KERNEL_CLAMP = 1e-9
# Preconditions on vector-valued Rayleigh data.
_CENTROID_PRE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class DtNMatrix:
    """Dense DtN (Schur complement) matrix over the listed boundary vertices."""

    matrix: np.ndarray
    boundary: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SteklovSpectrum:
    """Eigenvalues (ascending) and harmonically extended eigenfunctions.

    ``eigenfunctions[:, k]`` is the function on all of V whose restriction to
    the boundary is the k-th eigenvector; columns are orthonormal on the
    boundary.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    boundary: tuple[int, ...]


def _base(g) -> BoundaryGraph:
    return g.base if isinstance(g, RotationGraph) else g


def _check_interior_reaches_boundary(g: BoundaryGraph, L) -> None:
    """Every component must contain a boundary vertex, else L_II is singular."""
    ncomp, label = scipy.sparse.csgraph.connected_components(L, directed=False)
    has_boundary = np.zeros(ncomp, dtype=bool)
    has_boundary[label[list(g.boundary)]] = True
    stranded = np.flatnonzero(~has_boundary[label])
    if stranded.size:
        raise SingularInterior(
            f"vertex {stranded[0]} lies in a component with no boundary vertex"
        )


def _schur_with_extension(g: BoundaryGraph):
    """Return (S, X) where S is the DtN matrix and X = L_II^{-1} L_IB, so
    that -X maps boundary values to the interior values of their harmonic
    extension.
    """
    L = laplacian(g)
    _check_interior_reaches_boundary(g, L)
    nb = len(g.boundary)
    order = list(g.boundary) + list(g.interior)
    P = L[order][:, order]  # boundary first: the blocks are contiguous slices
    L_bb = P[:nb, :nb].toarray()
    if nb == g.n:
        return L_bb, np.zeros((0, nb))
    L_ib = P[nb:, :nb]
    X = scipy.sparse.linalg.splu(P[nb:, nb:].tocsc()).solve(L_ib.toarray())
    S = L_bb - L_ib.T @ X
    S = 0.5 * (S + S.T)
    return S, X


def dtn_matrix(g) -> DtNMatrix:
    """Dirichlet-to-Neumann matrix of (G, boundary).

    Symmetric positive semidefinite with the all-ones vector in its kernel
    when G is connected.  With full boundary this is just the Laplacian.
    """
    base = _base(g)
    S, _ = _schur_with_extension(base)
    return DtNMatrix(matrix=S, boundary=base.boundary)


def _checked_eigh(S: np.ndarray):
    """Eigenpairs of the DtN matrix, residual-checked, l_1 clamped to 0."""
    try:
        w, Q = scipy.linalg.eigh(S, driver="evd", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolve failed: {exc}") from exc
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    # S is exactly symmetric, so S.T is S in the Fortran order BLAS reads.
    resid = float(np.abs(scipy.linalg.blas.dgemm(1.0, S.T, Q) - Q * w).max(initial=0.0))
    if resid > _EIG_TOL * scale:
        raise ConvergenceFailure(
            f"eigensolve residual {resid:.3e} above {_EIG_TOL:.0e} * {scale:.3e}"
        )
    if abs(w[0]) < _KERNEL_CLAMP * scale:
        w = w.copy()
        w[0] = 0.0
    return w, Q


def steklov_spectrum(g) -> SteklovSpectrum:
    """Full Steklov spectrum with harmonically extended eigenfunctions."""
    base = _base(g)
    S, X = _schur_with_extension(base)
    w, Q = _checked_eigh(S)
    F = np.empty((base.n, len(base.boundary)))
    F[list(base.boundary), :] = Q
    if base.interior:
        F[list(base.interior), :] = scipy.linalg.blas.dgemm(-1.0, X, Q)
    return SteklovSpectrum(eigenvalues=w, eigenfunctions=F, boundary=base.boundary)


def lambda_k(g, k: int) -> float:
    """k-th Steklov eigenvalue, 1-indexed (lambda_1 = 0 for connected G)."""
    base = _base(g)
    k = _check_int(k, "k", 1, len(base.boundary) + 1, IndexOutOfRange)
    S, _ = _schur_with_extension(base)
    return float(_checked_eigh(S)[0][k - 1])


def rayleigh_quotient(g, f) -> float:
    """Edge energy of f divided by its squared norm on the boundary."""
    base = _base(g)
    f = np.asarray(f, dtype=float)
    if f.shape != (base.n,):
        raise IndexOutOfRange(f"expected shape ({base.n},), got {f.shape}")
    den = float(np.sum(f[list(base.boundary)] ** 2))
    if den == 0.0:
        raise ZeroBoundaryNorm("test function vanishes on the boundary")
    ea = base.edge_array
    diff = f[ea[:, 0]] - f[ea[:, 1]]
    return float(diff @ diff) / den


def vector_rayleigh_bound(g, v) -> float:
    """Upper bound on lambda_2 from a vector-valued test map V -> R^d.

    Requires the boundary values to sum to ~0 (CentroidNotZero otherwise);
    the residual centroid is subtracted exactly before evaluating, which
    leaves the numerator unchanged and can only increase the quotient, so
    the returned value is a true upper bound for lambda_2 by the min-max
    characterisation applied coordinatewise.
    """
    base = _base(g)
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != base.n:
        raise IndexOutOfRange(f"expected shape ({base.n}, d), got {v.shape}")
    bidx = list(base.boundary)
    c = v[bidx].sum(axis=0)
    bnorm = float(np.sqrt(np.sum(v[bidx] ** 2)))
    if float(np.linalg.norm(c)) > _CENTROID_PRE_TOL * max(1.0, bnorm):
        raise CentroidNotZero(
            f"boundary values sum to {c} (norm {np.linalg.norm(c):.3e})"
        )
    w = v - c / len(bidx)
    den = float(np.sum(w[bidx] ** 2))
    if den == 0.0:
        raise ZeroBoundaryNorm("test map vanishes on the boundary after centering")
    ea = base.edge_array
    diff = w[ea[:, 0]] - w[ea[:, 1]]
    return float(np.sum(diff * diff)) / den
