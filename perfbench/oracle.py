"""Reference computations that share no code path with ``steklov``.

Every function here takes plain data (vertex count, edge list, boundary
list) as read from the benchmark's own JSON input files and answers with
NumPy/SciPy alone: the Laplacian is assembled from an edge array, the
Dirichlet-to-Neumann matrix is a Schur complement through a sparse LU of
``L_II``, spectra come from ``eigvalsh``, and resistances from a dense
pseudoinverse.  Nothing in this module imports ``steklov``.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

REL_TOL = 1e-9


def load_graph(path):
    """(n, edges (E, 2) int array, boundary int array) from a JSON graph file."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    edges = np.asarray(obj["edges"], dtype=np.int64).reshape(-1, 2)
    return int(obj["n"]), edges, np.asarray(obj["boundary"], dtype=np.int64)


def laplacian(n: int, edges: np.ndarray) -> scipy.sparse.csr_matrix:
    u, v = edges[:, 0], edges[:, 1]
    adj = scipy.sparse.coo_matrix(
        (np.ones(2 * len(u)), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n),
    ).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (scipy.sparse.diags(deg) - adj).tocsr()


def max_degree(n: int, edges: np.ndarray) -> int:
    return int(np.bincount(edges.ravel(), minlength=n).max())


def dtn(n: int, edges: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Dense Schur complement S = L_BB - L_BI L_II^{-1} L_IB."""
    L = laplacian(n, edges)
    mask = np.zeros(n, dtype=bool)
    mask[boundary] = True
    b = np.flatnonzero(mask)
    i = np.flatnonzero(~mask)
    L_bb = L[b][:, b].toarray()
    if i.size == 0:
        return L_bb
    L_ib = L[i][:, b].toarray()
    lu = scipy.sparse.linalg.splu(L[i][:, i].tocsc())
    S = L_bb - L_ib.T @ lu.solve(L_ib)
    return 0.5 * (S + S.T)


def eigenvalues(S: np.ndarray, count=None) -> np.ndarray:
    """Ascending eigenvalues of a DtN matrix; only the lowest ``count`` if given."""
    if count is None:
        return scipy.linalg.eigvalsh(S)
    return scipy.linalg.eigvalsh(S, subset_by_index=[0, count - 1])


def resistance_matrix(n: int, edges: np.ndarray) -> np.ndarray:
    """R[u, v] = (e_u - e_v)^T L^+ (e_u - e_v) from a dense pseudoinverse."""
    P = np.linalg.pinv(laplacian(n, edges).toarray(), hermitian=True)
    d = np.diag(P)
    return d[:, None] + d[None, :] - 2.0 * P


def probe_matrix(rows: int, seed: int) -> np.ndarray:
    """Seeded random test vectors used to fingerprint a dense matrix."""
    return np.random.default_rng(seed).standard_normal((rows, 2))


def close(got, want, tol: float = REL_TOL) -> bool:
    """Agreement to ``tol`` relative to the larger magnitude (at least 1)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return bool(np.abs(got - want).max(initial=0.0) <= tol * scale)


def steklov_residual(n, edges, boundary, values, functions, columns) -> float:
    """Largest violation of the Steklov equations by selected eigenpairs.

    Column k of ``functions`` must be harmonic off the boundary and satisfy
    (L f)_B = values[k] * f_B on it.  The result is relative to
    max(1, |values|).
    """
    L = laplacian(n, edges)
    mask = np.zeros(n, dtype=bool)
    mask[boundary] = True
    worst = 0.0
    for k in columns:
        f = functions[:, k]
        r = L @ f
        r[mask] -= values[k] * f[mask]
        worst = max(worst, float(np.abs(r).max()))
    return worst / max(1.0, float(np.abs(values).max()))
