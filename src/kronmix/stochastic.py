"""Row-stochastic sparse matrices and their stationary vectors.

Distributions are plain 1-D numpy arrays. The walk convention matches the
graph module: a chain at state i steps to j with probability M[i, j]. A
`StochasticMatrix` is immutable and owns what is derived from its chain: the
strong components of its nonzero pattern (`scc`), its detailed-balance
vector (read through `_detailed_balance`), its stationary vector (read
through `stationary`), the limit of its powers (read through `power_limit`),
the one factorisation of its transient block that gives that limit and its
expected absorbing times (`_absorption`, also read through
`mixing.expected_absorbing_time`) and its restrictions to the node sets
that no edge leaves (`restrict`), each built on first use and kept, and, for
a Kronecker product, the two factors that `kron.kron` built it from
(`factors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import DanglingNode, FailedToConverge, NotErgodic, NotStochastic, StructuralError
from .graphs import DirectedGraph, SccDecomposition, scc_decompose

ROW_SUM_TOL = 1e-9
# chains up to this many states take pi and |lambda_2| densely, not by ARPACK.
# On random sparse non-reversible chains (one BLAS thread), dense against
# ARPACK: pi 1.35 / 2.15 ms and |lambda_2| 21 / 15 ms at 256 states, 6.8 / 2.8
# and 105 / 9.5 ms at 512
DENSE_EIGEN_LIMIT = 256
# states up to which `stationary` solves densely when ARPACK fails: at most
# three n x n float64 arrays at once, 96 MB at the cap
DENSE_STATIONARY_LIMIT = 2000
# detailed balance holds within this relative gap on every edge of a chain
# that `_detailed_balance` calls reversible: far above the rounding of pi
# along a tree path of d edges (about 8 d u, 2e-12 at d = 1000), far below a
# perturbed edge
_BALANCE_TOL = 1e-10


class StochasticMatrix:
    """Immutable sparse row-stochastic matrix, validated as given.

    Entries are finite and >= 0 and each row sums to 1 within ROW_SUM_TOL;
    rows are never rescaled, so a caller whose rows can drift further (a
    Kronecker product) rescales its own. It keeps seven things. Six are
    computed once, on first use: `scc`, the strong-component decomposition
    of the nonzero pattern; the detailed-balance vector of
    `_detailed_balance`, or the mark that the chain is not reversible; the
    stationary vector that `stationary` returns; the limit that
    `power_limit` returns; the factorisation of the transient block that
    gives that limit and the absorbing times of `mixing.expected_absorbing_time`
    (`_absorption`); and each chain that `restrict` returns. The seventh,
    `factors`, is set only by `kron.kron` on the product it returns; every
    other matrix, a restriction of a product or one built from its CSR
    included, has none.
    """

    __slots__ = ("n", "csr", "_scc", "_balance", "_pi", "_limit", "_absorption",
                 "_restrictions", "_factors")

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got {csr.shape}")
        csr.eliminate_zeros()
        validate_stochastic(csr)
        self.n = csr.shape[0]
        self.csr = csr
        self._scc = None
        self._balance = None
        self._pi = None
        self._limit = None
        self._absorption = None
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
    start, so results are deterministic; ARPACK needs n >= 3, which every
    chain above DENSE_EIGEN_LIMIT has. An operator that maps the start to
    zero is null, and ARPACK cannot start from it: that gives eigenvalue 0.
    """
    v0 = np.random.Generator(np.random.Philox(np.random.SeedSequence(0x5EED))).random(n)
    if not matvec(v0).any():
        return 0.0, v0
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    try:
        vals, vecs = spla.eigs(op, k=1, which="LM", tol=0, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise FailedToConverge(f"ARPACK found no dominant eigenpair: {exc}") from exc
    return vals[0], vecs[:, 0]


def _balanced(matrix: StochasticMatrix, pi: np.ndarray) -> bool:
    """Whether pi, summing to 1, has |pi' P - pi'|_1 within its rounding.

    The bound is 8 (n + w) u, w the longest row and u the unit roundoff. A
    balance pi's entry at depth d of its tree carries about 2d + 2 units
    (one quotient and one product an edge, and the normalisation), at most
    2n; P' - I at most doubles that in L1, P' pi adds w units a column and
    the L1 sum n more, and P's own rounding moves the balance on the edges
    off the tree by a few units each. On seven lazy families and random
    reversible chains of up to 2000 states the residual stayed below 0.07 n u.
    """
    w = int(np.diff(matrix.csr.indptr).max())
    bound = 8 * (matrix.n + w) * np.finfo(np.float64).eps
    return float(np.abs(matrix.csr.T @ pi - pi).sum()) <= bound


def _detailed_balance(matrix: StochasticMatrix) -> np.ndarray | None:
    """pi of an irreducible reversible chain, scaled to a largest entry of 1, or None.

    No eigen-solve: an edge with no reverse edge, or a state that the
    breadth-first tree from state 0 does not reach, means P is not
    reversible and irreducible. Otherwise pi_j = pi_i P_ij / P_ji along that
    tree; pi_i P_ij = pi_j P_ji is then checked on every edge to
    _BALANCE_TOL relative, and pi normalised to sum 1 must pass `_balanced`.
    A pi so uneven that a pair weight pi_i pi_j would fall below the normal
    float range also gives None.
    The first call decides; the matrix keeps the vector, read-only, or the
    mark that there is none, so `stationary`, `mixing.second_eigenvalue` and
    `mixing.estimate_coupling_time` share one pass.
    """
    if matrix._balance is None:
        pi = _balance_vector(matrix)
        matrix._balance = False if pi is None else pi
    return None if matrix._balance is False else matrix._balance


def _balance_vector(matrix: StochasticMatrix) -> np.ndarray | None:
    """The vector that `_detailed_balance` keeps, computed, or None."""
    n = matrix.n
    p = matrix.csr.copy()
    p.sort_indices()
    # a reversible chain has an edge j -> i for every edge i -> j, so P' has
    # P's pattern, and its data then hold P_ji in the order of P's P_ij
    back = p.T.tocsr()
    back.sort_indices()
    if not (np.array_equal(back.indptr, p.indptr) and np.array_equal(back.indices, p.indices)):
        return None
    order, pred = csgraph.breadth_first_order(p, 0, return_predecessors=True)
    if order.size < n:
        return None
    child = order[1:]
    parent = pred[child]
    rows = np.repeat(np.arange(n), np.diff(p.indptr))
    edge = np.searchsorted(rows * n + p.indices, parent.astype(np.int64) * n + child)
    values = [1.0] * n
    for j, i, ratio in zip(child.tolist(), parent.tolist(),
                           (p.data[edge] / back.data[edge]).tolist()):
        values[j] = values[i] * ratio
    pi = np.array(values)
    if not (np.isfinite(pi).all() and (pi.min() / pi.max()) ** 2 >= np.finfo(np.float64).tiny):
        return None
    flux = pi[rows] * p.data
    if not (np.abs(flux - pi[p.indices] * back.data) <= _BALANCE_TOL * flux).all():
        return None
    if not _balanced(matrix, pi / pi.sum()):
        return None
    pi /= pi.max()
    pi.flags.writeable = False
    return pi


def stationary(matrix: StochasticMatrix) -> np.ndarray:
    """Stationary distribution: the Perron vector of M', renormalised.

    The first call on a matrix solves it (`_perron_vector`) by detailed
    balance, as the uniform vector, by a dense solve up to DENSE_EIGEN_LIMIT
    states, or by ARPACK. The matrix keeps the result, and every call
    returns that one read-only array. Periodic or reducible chains raise
    NotErgodic; no error is kept.
    """
    if matrix._pi is None:
        ergodicity_check(matrix)
        pi = _perron_vector(matrix)
        pi.flags.writeable = False
        matrix._pi = pi
    return matrix._pi


def _perron_vector(matrix: StochasticMatrix) -> np.ndarray:
    """The stationary vector of an ergodic chain, by the first route that holds.

    A reversible chain takes its `_detailed_balance` vector, normalised to
    sum 1: pi up to the rounding of a product along a tree path. Next, the
    uniform vector, if it passes `_balanced`: its residual is
    sum_j |colsum_j - 1| / n, so every doubly stochastic chain, a directed
    ring included, takes it. Any other chain of up to DENSE_EIGEN_LIMIT
    states (read at call time) solves (I - M') pi = 0 densely, one row
    replaced by sum(pi) = 1. A larger one makes one ARPACK call to machine
    precision (`_dominant_eigenpair`), whose error is about machine epsilon
    over the spectral gap; where that hits its iteration cap, the dense
    solve serves up to DENSE_STATIONARY_LIMIT states, and a larger chain
    raises FailedToConverge (a sparse LU fills in on social graphs).
    """
    n = matrix.n
    balance = _detailed_balance(matrix)
    if balance is not None:
        return balance / balance.sum()
    uniform = np.full(n, 1.0 / n)
    if _balanced(matrix, uniform):
        return uniform
    if n > DENSE_EIGEN_LIMIT:
        try:
            pi = np.abs(_dominant_eigenpair(matrix.csr.T.dot, n)[1])
            return pi / pi.sum()
        except FailedToConverge:
            if n > DENSE_STATIONARY_LIMIT:
                raise
    system = np.eye(n) - matrix.csr.T.toarray()
    system[-1] = 1.0  # an irreducible chain's balance rows have rank n - 1
    pi = np.abs(np.linalg.solve(system, np.r_[np.zeros(n - 1), 1.0]))
    return pi / pi.sum()


@dataclass(frozen=True)
class PowerLimit:
    """lim P^k = H Pi of a chain whose closed classes are all aperiodic.

    Pi has one row per closed class: the class's stationary vector on its
    states (`weights`, k x n). H sends a recurrent state to its own class
    (`label`, -1 on transient states) and the states of `transient` to every
    class by their absorption probabilities (`absorb`, |T| x k), so no
    n x k array is held.
    """

    weights: sp.csr_matrix
    label: np.ndarray
    transient: np.ndarray
    absorb: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P^inf x for an n x w block x."""
        z = self.weights @ x
        out = np.empty((self.label.size, z.shape[1]))
        recurrent = self.label >= 0
        out[recurrent] = z[self.label[recurrent]]
        out[self.transient] = self.absorb @ z
        return out


def power_limit(matrix: StochasticMatrix) -> PowerLimit:
    """lim P^k as H Pi (Kemeny & Snell, Finite Markov Chains, ch. 3).

    Each closed class of `matrix.scc` gives the stationary vector of its
    `restrict` (a periodic class raises NotErgodic, which is not kept). The
    absorption probabilities come from the matrix's one factorisation of its
    transient block (`_absorption`). The first call builds the limit; the
    matrix keeps it.
    """
    if matrix._limit is None:
        dec = matrix.scc
        classes = [dec.components[cid] for cid in np.flatnonzero(dec.closed)]
        pis = [stationary(matrix.restrict(members)) for members in classes]
        absorption = _absorption(matrix)
        recurrent = np.concatenate(classes)
        weights = sp.csr_matrix((np.concatenate(pis), (absorption.label[recurrent], recurrent)),
                                shape=(len(classes), matrix.n))
        matrix._limit = PowerLimit(weights, absorption.label, absorption.transient,
                                   absorption.probabilities)
    return matrix._limit


@dataclass(frozen=True)
class _Absorption:
    """What one factorisation of a chain's transient block gives (Kemeny & Snell, ch. 3).

    `label` holds each state's closed class, in the order of `scc`'s closed
    components, and -1 on transient states; `transient` lists those states
    in ascending order. Row i of `probabilities` (|T| x k) is the chance
    that a walk from transient[i] ends in each class, `steps[i]` its
    expected steps until it enters one, and `solve` solves on the block.
    """

    label: np.ndarray
    transient: np.ndarray
    probabilities: np.ndarray
    steps: np.ndarray
    solve: object


def _absorption(matrix: StochasticMatrix) -> _Absorption:
    """The absorption of `matrix`, from one factorisation that the matrix keeps.

    (I - Z) X = [R 1] on the transient block Z, R its one-step mass into
    each closed class: the first k columns of X are the absorption
    probabilities and the last the expected absorbing times, so `power_limit`,
    `mixing.expected_absorbing_time` and absorption probabilities share it.
    """
    if matrix._absorption is None:
        dec = matrix.scc
        closed = np.flatnonzero(dec.closed)
        label = np.full(matrix.n, -1, dtype=np.int64)
        for j, cid in enumerate(closed):
            label[dec.components[cid]] = j
        transient = np.flatnonzero(label < 0)
        solved, solve = np.zeros((transient.size, closed.size + 1)), None
        if transient.size:
            recurrent = np.flatnonzero(label >= 0)
            into = sp.csr_matrix((np.ones(recurrent.size), (recurrent, label[recurrent])),
                                 shape=(matrix.n, closed.size))
            rhs = np.ones_like(solved)
            rhs[:, :-1] = (matrix.csr[transient] @ into).toarray()
            solve = _fundamental(matrix.minor(transient))
            solved = solve(rhs)
        matrix._absorption = _Absorption(label, transient, solved[:, :-1], solved[:, -1], solve)
    return matrix._absorption


def _basis(n: int, cols: np.ndarray) -> np.ndarray:
    """n x len(cols) block whose j-th column is the unit vector e_cols[j]."""
    out = np.zeros((n, cols.size))
    out[cols, np.arange(cols.size)] = 1.0
    return out


def _fundamental(z: sp.spmatrix):
    """Factor I - Z once (`splu`); return the solve of (I - Z) x = rhs.

    x has rhs's shape (a vector or t x k); a singular system marks a misclassified block.
    """
    system = (sp.eye(z.shape[0]) - z).tocsc()
    try:
        lu = spla.splu(system)
    except RuntimeError as exc:  # scipy's "Factor is exactly singular"
        raise StructuralError("(I - Z) is singular; a closed block leaked into Z") from exc

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = lu.solve(np.asarray(rhs, dtype=np.float64))
        if rhs.size and not np.abs(system @ x - rhs).max() <= 1e-6:  # NaN or inf fails
            raise StructuralError("(I - Z) is singular; a closed block leaked into Z")
        return x

    return solve
