"""Steklov spectra via the Dirichlet-to-Neumann (DtN) matrix.

For a graph with boundary B and interior I, order the Laplacian in blocks

    L = [[L_BB, L_BI],
         [L_IB, L_II]]

The DtN matrix is the Schur complement  S = L_BB - L_BI L_II^{-1} L_IB.
Its eigenvalues 0 = l_1 <= l_2 <= ... <= l_{|B|} are the Steklov
eigenvalues of the pair (G, B); eigenvectors extend harmonically into the
interior.  When B is all of V there is no interior block and S = L.

Both routes read the graph's cached components and its CSR Laplacian:

* ``dtn_matrix`` and ``steklov_spectrum`` return output dense in |B|, so
  they build S itself: one factorization of L_II, by the symmetric SuperLU
  set-up ``lambda_k`` uses, is solved one block of boundary columns at a
  time, L_BI multiplies each solved block as a sparse matrix, and S is
  eigensolved densely in its own memory.  Their arrays grow like |B|^2, so
  a boundary too large for them is refused with a ``ValidationError``
  before anything dense is allocated.
* ``lambda_k`` answers one eigenvalue without S.  It factors the shifted
  matrix A = L - sigma B once (B the boundary indicator, sigma < 0).  A is
  positive definite because every component holds a boundary vertex, and
  by block inversion the boundary block of A^{-1} is (S - sigma I)^{-1}.
  Shift-invert Lanczos (ARPACK's ``eigsh``) on that |B|-dimensional
  operator gives nu = 1 / (l - sigma), and a Sylvester inertia count of
  L - mu B certifies that no eigenvalue below the answer was skipped.

The dense steps (the eigensolves and the products with their eigenvectors)
call SciPy's LAPACK/BLAS, the OpenBLAS that SuperLU uses.  NumPy's wheel
bundles a second OpenBLAS; handing work from one to the other leaves the
first one's worker threads spinning for a while on cores the second needs.
The eigenfunctions F of ``steklov_spectrum`` are checked on L itself: the
harmonic extension has (L F)_B = S Q and (L F)_I = 0, so sparse products
over column blocks check the eigenpairs and every interior row returned,
without a dense |B|^3 product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    CentroidNotZero,
    ConvergenceFailure,
    IndexOutOfRange,
    SingularInterior,
    ValidationError,
    ZeroBoundaryNorm,
)
from .graphs import BoundaryGraph, _base, _check_finite, _check_int, _seeded_rng, laplacian

# Relative residual allowed for the symmetric eigensolves.
_EIG_TOL = 1e-9
# |l_i| below this multiple of the top eigenvalue is clamped to exactly 0.
_KERNEL_CLAMP = 1e-9
# Preconditions on vector-valued Rayleigh data.
_CENTROID_PRE_TOL = 1e-6
# Ritz values this close to lambda_k, relatively, form its cluster.
_CLUSTER_TOL = 1e-9
# Where the inertia count sits in the gap below lambda_k's cluster.  The
# spectrum of a small integer Laplacian is algebraic; a transcendental
# fraction keeps mu off the eigenvalues of its leading blocks, where a pivot
# is exactly zero (the gap midpoint 2.0 of [0, 4] and the golden fraction on
# the icosahedron both hit one).  The second is tried if the first fails.
_GAP_FRACTIONS = (1.0 - np.exp(-1.0), 1.0 / np.pi)
# Bytes the dense |B| x |B| routes may hold at once.
_DENSE_BUDGET = 5 * 2**30
# Columns per block of the dense routes' solves, products and residuals.
_RESID_BLOCK = 512


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
    boundary.  Every column is residual-checked on the Laplacian: L f equals
    the eigenvalue times f on the boundary and 0 inside.  With full boundary
    the array is the eigensolver's own, in Fortran order.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    boundary: tuple[int, ...]


def _check_interior_reaches_boundary(g: BoundaryGraph) -> int:
    """Every component must contain a boundary vertex, else L_II is singular.

    Returns the number of components, which is then the multiplicity of the
    Steklov eigenvalue 0.
    """
    ncomp, label = g.components
    has_boundary = np.zeros(ncomp, dtype=bool)
    has_boundary[label[list(g.boundary)]] = True
    stranded = np.flatnonzero(~has_boundary[label])
    if stranded.size:
        raise SingularInterior(
            f"vertex {stranded[0]} lies in a component with no boundary vertex"
        )
    return ncomp


def _check_dense_size(n: int, nb: int, nnz: int = 0) -> int:
    """Refuse dense |B| x |B| work that would not fit, before allocating it.

    Returns the bytes held at the largest peak of the dense routes on n
    vertices, |B| of them on the boundary, and a Laplacian with nnz stored
    entries.  Each phase is counted in doubles from n, |B|, ni = n - |B| and
    the column block b.  dsyevd with vectors takes 2|B|^2 + 6|B| + 1 doubles
    and 5|B| + 3 integers beside the |B| eigenvalues; 4n doubles and 64 KiB
    more cover the index vectors and the Python objects of a call.

    * Explicit finish of ``lambda_k``: the shifted copy of L's entries;
      M = (S - sigma I)^{-1} with one solved block of E and its boundary
      rows; M, eigh's copy Q and the workspace; M, Q and one residual block.
    * ``steklov_spectrum``: S, X = L_II^{-1} L_IB, the permuted Laplacian
      and its blocks (3 nnz + 3n) and one block of the interior solve or the
      two |B|^2 temporaries of 0.5 (S + S^T); S, X and the workspace; the
      eigenfunctions F with Q, X and one block of -X Q; F and one block of
      the residual L F - F w.
    * ``dtn_matrix``: the spectrum's first phase without X.

    Once |B| is large, where the budget binds, the explicit finish's 4|B|^2
    is the peak (the spectrum's is 3|B|^2 with full boundary).
    """
    b, ni = min(nb, _RESID_BLOCK), n - nb
    x, evd = ni * nb, 2 * nb * nb + 10 * nb + 3
    peak = max(nnz, nb * nb + 2 * n * b + nb * b, 2 * nb * nb + evd,
               2 * nb * nb + 3 * nb * b, n * nb + 2 * n * b + 3 * nb * b)
    if ni:
        peak = max(peak, n * nb + nb * nb + x + ni * b,
                   nb * nb + x + 3 * nnz + 3 * n + max(2 * ni * b + nb * b, evd))
    need = 8 * (peak + 4 * n) + 2**16
    if need > _DENSE_BUDGET:
        raise ValidationError(
            f"dense spectral work on {nb} boundary vertices ({n} in all) needs "
            f"{need / 2**30:.1f} GiB, over the {_DENSE_BUDGET / 2**30:.0f} GiB "
            "budget; lambda_k answers single eigenvalues without it"
        )
    return need


def _schur(g: BoundaryGraph, extend: bool):
    """Return (S, X, c): S the DtN matrix, c the number of components and,
    when ``extend`` asks for it and the boundary is not all of V (else
    S = L and X is None), X = L_II^{-1} L_IB, so that -X maps boundary
    values to the interior values of their harmonic extension.

    L_II is factored once and solved one column block at a time; each block
    is subtracted from S through L_BI as it arrives, and the factor is freed
    before S is symmetrised.
    """
    n, nb = g.n, len(g.boundary)
    L = laplacian(g)
    _check_dense_size(n, nb, L.nnz)
    ncomp = _check_interior_reaches_boundary(g)
    if nb == n:
        return L.toarray(), None, ncomp
    order = np.concatenate([g.boundary, g.interior])
    P = L[order][:, order]  # boundary first: the blocks are contiguous slices
    S = P[:nb, :nb].toarray()
    L_ib = P[nb:, :nb]
    X = np.empty((n - nb, nb), order="F") if extend else None
    lu = _ldl(P[nb:, nb:])
    for j in range(0, nb, _RESID_BLOCK):
        cols = slice(j, j + _RESID_BLOCK)
        Xj = lu.solve(L_ib[:, cols].toarray())
        S[:, cols] -= L_ib.T @ Xj
        if extend:
            X[:, cols] = Xj
        del Xj  # before the next block's solve allocates its own
    del lu
    return 0.5 * (S + S.T), X, ncomp


def dtn_matrix(g) -> DtNMatrix:
    """Dirichlet-to-Neumann matrix of (G, boundary).

    Symmetric positive semidefinite with the all-ones vector in its kernel
    when G is connected.  With full boundary this is just the Laplacian.
    """
    base = _base(g)
    S = _schur(base, extend=False)[0]
    return DtNMatrix(matrix=S, boundary=base.boundary)


def _eigh(S: np.ndarray, overwrite: bool):
    """Eigenpairs of the exactly symmetric S by LAPACK's dsyevd.  S.T is S
    in the Fortran order LAPACK reads, so with ``overwrite`` the
    eigenvectors come back in S's memory."""
    try:
        return scipy.linalg.eigh(S.T, driver="evd", overwrite_a=overwrite,
                                 check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolve failed: {exc}") from exc


def _check_residual(resid: float, w: np.ndarray) -> float:
    """Raise unless an eigenpair residual is within 1e-9 of the spectral
    scale max(1, |w|), which is returned."""
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if resid > _EIG_TOL * scale:
        raise ConvergenceFailure(
            f"eigensolve residual {resid:.3e} above {_EIG_TOL:.0e} * {scale:.3e}"
        )
    return scale


def _checked_eigh(S: np.ndarray) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix, its eigenpairs
    residual-checked one column block of eigenvectors at a time."""
    w, Q = _eigh(S, overwrite=False)
    b = _RESID_BLOCK
    _check_residual(max((float(np.abs(scipy.linalg.blas.dgemm(1.0, S.T, Q[:, j:j + b])
                                      - Q[:, j:j + b] * w[j:j + b]).max())
                         for j in range(0, len(w), b)), default=0.0), w)
    return w


def steklov_spectrum(g) -> SteklovSpectrum:
    """Full Steklov spectrum with harmonically extended eigenfunctions.

    The eigenvalue 0 has one copy per component; copies within roundoff of
    0 are returned as exactly 0.
    """
    base = _base(g)
    n, nb = base.n, len(base.boundary)
    S, X, ncomp = _schur(base, extend=True)
    w, F = _eigh(S, overwrite=True)
    del S
    rows = slice(None)  # the boundary rows of F
    if X is not None:
        rows = np.asarray(base.boundary)
        Q, F = F, np.empty((n, nb))
        F[rows] = Q
        iidx = np.asarray(base.interior)
        for j in range(0, nb, _RESID_BLOCK):
            cols = slice(j, j + _RESID_BLOCK)
            F[iidx, cols] = scipy.linalg.blas.dgemm(-1.0, X, Q[:, cols])
        del Q, X
    # The harmonic extension has (L F)_B = S Q and (L F)_I = 0, so one
    # blocked sparse product checks the eigenpairs and every interior row.
    L = laplacian(base)
    resid = 0.0
    for j in range(0, nb, _RESID_BLOCK):
        cols = slice(j, j + _RESID_BLOCK)
        R = L @ F[:, cols]
        R[rows] -= F[rows, cols] * w[cols]
        resid = max(resid, float(np.abs(R, out=R).max()))
    scale = _check_residual(resid, w)
    w[:ncomp][np.abs(w[:ncomp]) < _KERNEL_CLAMP * scale] = 0.0
    return SteklovSpectrum(eigenvalues=w, eigenfunctions=F, boundary=base.boundary)


def _ldl(L, bidx=None, mu: float = 0.0):
    """SuperLU factorization of L - mu B, B the indicator of ``bidx`` (no
    shift when it is None), that keeps to the diagonal: a symmetric
    ordering and no threshold pivoting, so while perm_r equals perm_c it is
    an LDL^T factorization with D on the diagonal of U.  It is the
    package's one sparse factorization.

    Supernodes are not relaxed (``relax=1``, ``panel_size=1``): SuperLU's
    default (relax 10, panel 20) merges the many small supernodes of a mesh
    Laplacian's factor into padded dense blocks, and on these meshes that
    costs more than the dense kernels save.  The fill is the same; on a
    2-core host the factor of sphere 5 (10 242 vertices) took 85 ms with the
    default and 33 ms without, and every rung from the 10 x 10 torus to the
    141 x 141 torus factored and solved faster.

    L's CSR arrays are read as CSC, which is L itself when L is symmetric,
    as a Laplacian is.  The Newton Jacobian J of :func:`packing.circle_pack`
    is symmetric only to roundoff, so it is passed as the CSR matrix of J^T,
    whose arrays read as CSC are J.  To be shifted L must be a graph's
    Laplacian from :func:`graphs.laplacian`: the shift goes into a copy of
    its data, at the diagonal positions ``L._diag_index`` of the rows in
    ``bidx``.
    """
    data = L.data
    if bidx is not None:
        data = data.copy()
        data[L._diag_index[bidx]] -= mu
    return scipy.sparse.linalg.splu(
        scipy.sparse.csc_matrix((data, L.indices, L.indptr), shape=L.shape),
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, relax=1, panel_size=1,
        options={"SymmetricMode": True},
    )


def _lanczos_lambdas(L, bidx: np.ndarray, sigma: float, k: int):
    """The k + 1 smallest Steklov eigenvalues by shift-invert Lanczos, or
    None when ARPACK stops short or a Ritz pair fails its residual check.

    The operator x -> (A^{-1} E_B x)_B is (S - sigma I)^{-1}, applied
    through one LU of A = L - sigma B; each Ritz value nu gives the Steklov
    eigenvalue sigma + 1/nu.
    """
    n, nb = L.shape[0], len(bidx)
    lu = _ldl(L, bidx, sigma)

    def apply(x):
        rhs = np.zeros((n,) + x.shape[1:])
        rhs[bidx] = x
        return lu.solve(rhs)[bidx]

    op = scipy.sparse.linalg.LinearOperator(
        (nb, nb), matvec=apply, matmat=apply, dtype=float)
    # A fixed start vector, and the same seeded stream for the vectors ARPACK
    # draws when it restarts after an invariant subspace (as it does in a
    # multiple eigenvalue), keep the output byte-deterministic.
    rng = _seeded_rng(0)
    try:
        nu, X = scipy.sparse.linalg.eigsh(op, k=k + 1, which="LA", tol=0,
                                          v0=rng.standard_normal(nb), rng=rng)
    except scipy.sparse.linalg.ArpackNoConvergence:
        return None
    lam = sigma + 1.0 / nu
    # For y = nu^{-1} (S - sigma I)^{-1} x:  S y - lam y = (lam - sigma) (x - y).
    resid = float(np.abs((X - apply(X) / nu) * (lam - sigma)).max())
    if resid > _EIG_TOL * max(1.0, float(lam.max())):
        return None
    return lam[::-1]


def _inertia_certifies(L, bidx: np.ndarray, lam: np.ndarray, k: int) -> bool:
    """True when an inertia count confirms that Lanczos skipped no
    eigenvalue below lambda_k's cluster.

    With lam[j] the lowest member of that cluster (0-based), mu is placed
    in the gap (lam[j-1], lam[j]).  L_II is positive definite, so
    Haynsworth's additivity In(L - mu B) = In(L_II) + In(S - mu I) makes
    the number of negative pivots of L - mu B the number of Steklov
    eigenvalues below mu.  It must be exactly j, the Ritz values there.
    """
    j = int(np.argmax(lam >= lam[k - 1] * (1.0 - _CLUSTER_TOL)))
    if j == 0:
        return False
    for frac in _GAP_FRACTIONS:
        mu = lam[j - 1] + frac * (lam[j] - lam[j - 1])
        try:
            lu = _ldl(L, bidx, mu)
        except RuntimeError:  # an exactly zero pivot
            continue
        if np.array_equal(lu.perm_r, lu.perm_c):
            return int(np.count_nonzero(lu.U.diagonal() < 0)) == j
    return False


def _explicit_lambdas(L, bidx: np.ndarray, sigma: float) -> np.ndarray:
    """All |B| Steklov eigenvalues, from M = (S - sigma I)^{-1} built one
    column block at a time through one LU of A = L - sigma B (only the
    boundary rows of each solved block are kept) and eigensolved densely."""
    n, nb = L.shape[0], len(bidx)
    _check_dense_size(n, nb, L.nnz)
    lu = _ldl(L, bidx, sigma)
    M = np.empty((nb, nb))
    for j in range(0, nb, _RESID_BLOCK):
        cols = bidx[j:j + _RESID_BLOCK]
        E = np.zeros((n, len(cols)))
        E[cols, np.arange(len(cols))] = 1.0
        M[:, j:j + len(cols)] = lu.solve(E)[bidx]
    del lu, E
    M = 0.5 * (M + M.T)
    nu = _checked_eigh(M)
    return (sigma + 1.0 / nu)[::-1]


def lambda_k(g, k: int) -> float:
    """k-th Steklov eigenvalue, 1-indexed (lambda_1 = 0 for connected G).

    Route.  The first c eigenvalues, c the number of components, are
    exactly 0 and are returned as such.  Otherwise, while k + 1 < |B|,
    shift-invert Lanczos returns the k + 1 smallest eigenvalues (one more
    than asked, so the gap above lambda_k shows), and an inertia count
    certifies them.  When k + 1 >= |B| (outside ARPACK's domain), or when
    Lanczos is not certified, the explicit finish eigensolves the whole
    |B| x |B| matrix (S - sigma I)^{-1}; it is refused with a
    ValidationError when |B| is too large for dense work.

    Certificate.  Let j be the lowest index of lambda_k's cluster (Ritz
    values within 1e-9 relative).  The count of negative pivots of L - mu B
    at one mu in the gap below the cluster equals the number of eigenvalues
    below mu, and must be j - 1: no eigenvalue below the cluster was
    skipped, so the true lambda_k is at least mu.  The other side needs no
    factorization: the k Ritz vectors up to lambda_k are orthonormal and
    pass the residual check at 1e-9, so by the min-max characterisation the
    true lambda_k is no larger than the returned value.
    """
    base = _base(g)
    k = _check_int(k, "k", 1, len(base.boundary) + 1, IndexOutOfRange)
    ncomp = _check_interior_reaches_boundary(base)
    return _lambda_k(laplacian(base), np.asarray(base.boundary), ncomp, k)


def _lambda_k(L, bidx: np.ndarray, ncomp: int, k: int) -> float:
    """The route of :func:`lambda_k` on a checked Laplacian L: ncomp
    components, every one holding a vertex of the sorted boundary bidx."""
    if k <= ncomp:
        return 0.0
    # lambda_2 = O(D g / |B|) on the graphs this package studies, so the
    # shift sits on lambda_2's scale: A stays well conditioned, and the
    # transformed eigenvalues near lambda_k stay apart (a shift far above
    # lambda_k crowds them together and Lanczos slows to a crawl).
    sigma = -1.0 / len(bidx)
    if k + 1 < len(bidx):
        lam = _lanczos_lambdas(L, bidx, sigma, k)
        if lam is not None and _inertia_certifies(L, bidx, lam, k):
            return float(lam[k - 1])
    return float(_explicit_lambdas(L, bidx, sigma)[k - 1])


def rayleigh_quotient(g, f) -> float:
    """Edge energy of f divided by its squared norm on the boundary."""
    base = _base(g)
    f = np.asarray(f, dtype=float)
    if f.shape != (base.n,):
        raise IndexOutOfRange(f"expected shape ({base.n},), got {f.shape}")
    _check_finite(f, "test function")
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
    _check_finite(v, "test map")
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
