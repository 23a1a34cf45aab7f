"""Row-stochastic sparse matrices and their stationary vectors.

Distributions are plain 1-D numpy arrays. The walk convention matches the
graph module: a chain at state i steps to j with probability M[i, j].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DanglingNode, FailedToConverge, NotErgodic, NotStochastic
from .graphs import DirectedGraph, scc_decompose

ROW_SUM_TOL = 1e-9
RENORM_LIMIT = 1e-6


class StochasticMatrix:
    """Sparse row-stochastic matrix (rows sum to 1 within 1e-9, entries >= 0).

    `renormalize=True` rescales rows whose sums drift by less than 1e-6,
    which absorbs float noise after Kronecker assembly.
    """

    __slots__ = ("n", "csr")

    def __init__(self, matrix, renormalize: bool = False):
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got {csr.shape}")
        csr.eliminate_zeros()
        if renormalize:
            sums = np.asarray(csr.sum(axis=1)).ravel()
            drift = np.abs(sums - 1.0)
            fix = (drift > 0) & (drift < RENORM_LIMIT) & (sums > 0)
            if fix.any():
                scale = np.ones_like(sums)
                scale[fix] = 1.0 / sums[fix]
                csr = sp.diags(scale) @ csr
                csr = sp.csr_matrix(csr)
        validate_stochastic(csr)
        self.n = csr.shape[0]
        self.csr = csr

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def dense(self) -> np.ndarray:
        return self.csr.toarray()

    def to_graph(self) -> DirectedGraph:
        """Nonzero pattern as a directed graph (edge i->j iff M[i,j] > 0)."""
        coo = self.csr.tocoo()
        return DirectedGraph(self.n, np.column_stack([coo.row, coo.col]), coo.data)

    def minor(self, rows, cols=None) -> sp.csr_matrix:
        rows = np.asarray(rows, dtype=np.int64)
        cols = rows if cols is None else np.asarray(cols, dtype=np.int64)
        return self.csr[rows][:, cols]

    def __repr__(self):
        return f"StochasticMatrix(n={self.n}, nnz={self.nnz})"


def validate_stochastic(matrix) -> bool:
    """Pass iff all entries are finite and >= 0 and each row sums to 1 within ROW_SUM_TOL.

    Raises NotStochastic naming the first offending row.
    """
    csr = matrix.csr if isinstance(matrix, StochasticMatrix) else sp.csr_matrix(matrix)
    for bad_entries, what in ((~np.isfinite(csr.data), "non-finite entry"),
                              (csr.data < 0, "negative entry")):
        if bad_entries.any():
            bad = int(np.searchsorted(csr.indptr, np.argmax(bad_entries), side="right") - 1)
            raise NotStochastic(bad, what)
    sums = np.asarray(csr.sum(axis=1)).ravel()
    off = np.abs(sums - 1.0)
    if off.size and off.max() > ROW_SUM_TOL:
        bad = int(np.argmax(off))
        raise NotStochastic(bad, f"row sum {sums[bad]:.12g}")
    return True


def equal_weight_matrix(graph: DirectedGraph) -> StochasticMatrix:
    """Transition matrix that spreads each row over the node's out-edges.

    The graph's CSR over its row totals: unweighted edges get 1/outdeg(i),
    weighted graphs (e.g. after lazify) are row-normalized. A node with no
    out-edge, or only zero-weight ones, raises DanglingNode.
    """
    n = graph.node_count
    deg = np.diff(graph._indptr)
    if n and deg.min() == 0:
        raise DanglingNode(int(np.argmin(deg)))
    src = graph.sources
    # bincount sums each row's weights in edge order, as a sequential loop would
    row_tot = np.bincount(src, graph.csr.data, minlength=n)
    if n and row_tot.min() <= 0:
        raise DanglingNode(int(np.argmin(row_tot)))
    return StochasticMatrix(sp.csr_matrix((graph.csr.data / row_tot[src], graph.targets,
                                           graph._indptr), shape=(n, n), copy=True))


def ergodicity_check(matrix: StochasticMatrix) -> None:
    """Raise NotErgodic unless the chain is irreducible and aperiodic."""
    decomp = scc_decompose(matrix.to_graph())
    if decomp.count != 1:
        raise NotErgodic(f"chain is reducible ({decomp.count} components)")
    if decomp.periods[0] != 1:
        raise NotErgodic(f"chain is periodic (period {decomp.periods[0]})")


def _dominant_eigenpair(matvec, n: int) -> tuple[complex, np.ndarray]:
    """Largest-modulus eigenpair of the real n x n operator v -> matvec(v).

    One ARPACK call iterated to machine precision (tol=0) from a fixed seeded
    start, so results are deterministic. ARPACK needs k < n - 1, so fewer
    than 3 states take a dense eig of the same operator. An operator that
    maps the start to zero is null, and ARPACK cannot start from it: that
    gives eigenvalue 0.
    """
    if n < 3:
        vals, vecs = np.linalg.eig(np.column_stack([matvec(e) for e in np.eye(n)]))
        top = int(np.argmax(np.abs(vals)))
        return vals[top], vecs[:, top]
    v0 = np.random.Generator(np.random.Philox(np.random.SeedSequence(0x5EED))).random(n)
    if not matvec(v0).any():
        return 0.0, v0
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    try:
        vals, vecs = spla.eigs(op, k=1, which="LM", tol=0, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise FailedToConverge(f"ARPACK found no dominant eigenpair: {exc}") from exc
    return vals[0], vecs[:, 0]


def stationary(matrix: StochasticMatrix) -> np.ndarray:
    """Stationary distribution: the Perron vector of M', renormalised.

    One ARPACK call to machine precision (`_dominant_eigenpair`); the error
    is about machine epsilon over the spectral gap, so slow chains lose
    digits. Periodic or reducible chains raise NotErgodic, and an ARPACK run
    that hits its iteration cap raises FailedToConverge.
    """
    ergodicity_check(matrix)
    _, vec = _dominant_eigenpair(matrix.csr.T.dot, matrix.n)
    pi = np.abs(vec)
    return pi / pi.sum()
