"""Row-stochastic sparse matrices and their stationary vectors.

Distributions are plain 1-D numpy arrays. The walk convention matches the
graph module: a chain at state i steps to j with probability M[i, j]. A
`StochasticMatrix` is immutable and owns what is derived from its chain: the
strong components of its nonzero pattern (`scc`), its stationary vector (read
through `stationary`) and its restrictions to the node sets that no edge
leaves (`restrict`), each built on first use and kept, and, for a Kronecker
product, the two factors that `kron.kron` built it from (`factors`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DanglingNode, FailedToConverge, NotErgodic, NotStochastic, StructuralError
from .graphs import DirectedGraph, SccDecomposition, scc_decompose

ROW_SUM_TOL = 1e-9
# states up to which `stationary` solves densely when ARPACK fails: at most
# three n x n float64 arrays at once, 96 MB at the cap
DENSE_STATIONARY_LIMIT = 2000


class StochasticMatrix:
    """Immutable sparse row-stochastic matrix, validated as given.

    Entries are finite and >= 0 and each row sums to 1 within ROW_SUM_TOL;
    rows are never rescaled, so a caller whose rows can drift further (a
    Kronecker product) rescales its own. It keeps four things. Three are
    computed once, on first use: `scc`, the strong-component decomposition
    of the nonzero pattern; the stationary vector that `stationary` returns;
    and each chain that `restrict` returns. The fourth, `factors`, is set
    only by `kron.kron` on the product it returns; every other matrix,
    a restriction of a product or one built from its CSR included, has none.
    """

    __slots__ = ("n", "csr", "_scc", "_pi", "_restrictions", "_factors")

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got {csr.shape}")
        csr.eliminate_zeros()
        validate_stochastic(csr)
        self.n = csr.shape[0]
        self.csr = csr
        self._scc = None
        self._pi = None
        self._restrictions = {}
        self._factors = None

    @property
    def factors(self) -> tuple[StochasticMatrix, StochasticMatrix] | None:
        """(L, R) for a matrix that `kron.kron(L, R)` returned, else None."""
        return self._factors

    @property
    def scc(self) -> SccDecomposition:
        """Strong components, closed flags and periods of the chain's graph."""
        if self._scc is None:
            self._scc = scc_decompose(self.to_graph())
        return self._scc

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

    def restrict(self, nodes) -> StochasticMatrix:
        """The chain on `nodes`, a set that no edge leaves, in the given order.

        Such a set (a closed class, or agents that listen only inside their
        set) keeps whole rows, so its minor is row-stochastic and is validated
        as given; an edge that leaves the set raises NotStochastic. All
        states in order give `self`; any other set is built once and kept.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if np.array_equal(nodes, np.arange(self.n)):
            return self
        key = nodes.tobytes()
        if key not in self._restrictions:
            self._restrictions[key] = StochasticMatrix(self.minor(nodes))
        return self._restrictions[key]

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
                                           graph._indptr), shape=(n, n)))


def ergodicity_check(matrix: StochasticMatrix) -> None:
    """Raise NotErgodic unless the chain is irreducible and aperiodic."""
    decomp = matrix.scc
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

    The first call on a matrix makes one ARPACK call to machine precision
    (`_dominant_eigenpair`); the matrix keeps the result, and every call
    returns that one read-only array. The error is about machine epsilon
    over the spectral gap, so slow chains lose digits. When ARPACK hits its
    iteration cap, as on lazy directed cycles from 80 states, a chain of up
    to DENSE_STATIONARY_LIMIT states solves (I - M') pi = 0 densely, with one row
    replaced by sum(pi) = 1; a larger one raises FailedToConverge (a sparse
    LU of that system fills in on social graphs). Periodic or reducible
    chains raise NotErgodic; neither error is kept.
    """
    if matrix._pi is None:
        ergodicity_check(matrix)
        try:
            _, vec = _dominant_eigenpair(matrix.csr.T.dot, matrix.n)
        except FailedToConverge:
            if matrix.n > DENSE_STATIONARY_LIMIT:
                raise
            system = np.eye(matrix.n) - matrix.csr.T.toarray()
            system[-1] = 1.0  # an irreducible chain's balance rows have rank n - 1
            vec = np.linalg.solve(system, np.r_[np.zeros(matrix.n - 1), 1.0])
        pi = np.abs(vec)
        pi /= pi.sum()
        pi.flags.writeable = False
        matrix._pi = pi
    return matrix._pi


def _basis(n: int, cols: np.ndarray) -> np.ndarray:
    """n x len(cols) block whose j-th column is the unit vector e_cols[j]."""
    out = np.zeros((n, cols.size))
    out[cols, np.arange(cols.size)] = 1.0
    return out


def _solve_fundamental(z: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Z) x = rhs for a vector or a t x k block of right-hand sides.

    The result has rhs's shape; a singular system marks a misclassified block.
    """
    system = (sp.eye(z.shape[0]) - z).tocsc()
    try:
        x = spla.spsolve(system, rhs)
    except RuntimeError as exc:
        raise StructuralError(f"(I - Z) solve failed: {exc}") from exc
    x = np.asarray(x, dtype=np.float64).reshape(rhs.shape)
    residual = np.abs(system @ x - rhs).max() if rhs.size else 0.0
    if not np.all(np.isfinite(x)) or residual > 1e-6:
        raise StructuralError("(I - Z) is singular; a closed block leaked into Z")
    return x
