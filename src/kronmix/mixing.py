"""Convergence-time measurement and bounds.

Covers empirical mixing times (worst-start total variation) of chains,
product chains and belief systems, measured by `_column_gap` (a Kronecker
product's on its factors, `_product_mixing_time`); spectral bounds; exact
coupling times (the worst-pair expected meeting time of two independent
walks, solved on the pair chain with an error bound); exact absorbing
times on the transient block; and the composite convergence-time bound.
All bound formulas use the natural logarithm.

A system's scan takes the Kronecker gap only at the steps that a cheaper
lower bound from the factor marginals, `_marginal_gap`, cannot put above
epsilon, so its `t_mix` values are those of the gap alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy
from scipy.sparse import csgraph

from .beliefs import BeliefSystem, update
from .errors import FailedToConverge, StructuralError, TooLarge
from .limits import limit_matrix
from .stochastic import (StochasticMatrix, _basis, _dominant_eigenpair, _solve_fundamental,
                         ergodicity_check, stationary)

EXACT_START_LIMIT = 2000
SYSTEM_EXACT_START_LIMIT = 256  # kronbench's `_sweep_t_mix` reproduces its columns
SAMPLED_STARTS = 64
# the coupling solve holds about 4 n^2 float64 values: 128 MB at the cap
COUPLING_STATE_LIMIT = 2000
_COUPLING_TOL = 1e-10  # largest residual entry at which the Krylov solvers stop
_KRYLOV_ITERATIONS = 10_000
# nonzeros of P (x) P, about twice the pair chain's, that the fallback may factor
_DIRECT_NNZ = 1_000_000
_PAIR_CHUNK = 128  # rows of P per chunk of P V P'
_TINY = np.finfo(np.float64).eps ** 2  # Krylov breakdown threshold
# detailed balance holds within this relative gap on every edge of a chain
# that CG solves: far above the rounding of pi along a tree path of up to
# COUPLING_STATE_LIMIT edges (about 8 n u), far below a perturbed edge
_BALANCE_TOL = 1e-10
# columns per chunk of `_column_gap`
_GAP_CHUNK = 128


@dataclass
class CouplingEstimate:
    """Worst-pair expected coupling time L, with a bound on its error.

    `stderr` is that bound. `trials` and `capped` are always 0; they stay
    for callers that summarise sampled estimates.
    """

    mean: float
    stderr: float
    trials: int
    capped: int
    start_pair: tuple[int, int]
    method: str  # "cg", "bicgstab" or "direct"
    iterations: int


@dataclass
class AbsorbingTimes:
    """Expected steps to enter the union of closed components."""

    node_expectation: np.ndarray  # full length, zero on recurrent nodes
    max_expectation: float


@dataclass
class MixingReport:
    epsilon: float
    t_mix: int | None = None
    lambda2_abs: float | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    coupling: CouplingEstimate | None = None
    theorem_bound: float | None = None


def _start_rows(n: int, exact_limit: int) -> np.ndarray:
    """Start states of a scan over n states that may sample.

    Every state when n <= exact_limit; otherwise the same SAMPLED_STARTS
    states on every call, drawn without replacement from Philox(SeedSequence(3)).
    Two scans sample: `product_distance_to_limit`, as every start of AC7's
    40,000-state products costs over 100 times the 64 sampled, and
    `system_mixing_time`, whose columns the benchmark's sweep reproduces.
    """
    if n <= exact_limit:
        return np.arange(n)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    return rng.choice(n, size=SAMPLED_STARTS, replace=False)


def _column_gap(left: np.ndarray, target: np.ndarray, right: np.ndarray | None = None) -> float:
    """Half the largest column L1 gap between a block and `target`.

    `target` has one column for all, or one per column of the block.

    Column j of the block is left[:, j], or left[:, j] (x) right[:, j] if
    `right` is given. On distributions this is the largest total variation
    distance; no columns give 0, and a NaN entry gives NaN. The columns go
    through one reused r x (_GAP_CHUNK + 1) scratch, r the block's rows, so
    no wide block is formed. The result is bit for bit that of
    `np.abs(block - target).sum(axis=0).max()`: numpy sums down the rows of
    a block at least two columns wide in row order, but a lone column
    pairwise, so no chunk is one column unless the block is.
    """
    (n, w), m = left.shape, 1 if right is None else right.shape[0]
    edges = list(range(0, w, _GAP_CHUNK)) + [w]
    if len(edges) > 2 and w - edges[-2] == 1:
        del edges[-2]
    buf = np.empty(n * m * min(w, _GAP_CHUNK + 1))
    peak = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part = buf[:n * m * (hi - lo)].reshape(n * m, hi - lo)
        goal = target if target.shape[1] == 1 else target[:, lo:hi]
        if right is None:
            np.subtract(left[:, lo:hi], goal, out=part)
        else:
            np.multiply(left[:, None, lo:hi], right[None, :, lo:hi], out=part.reshape(n, m, -1))
            np.subtract(part, goal, out=part)
        np.abs(part, out=part)
        peak = np.maximum(peak, part.sum(axis=0).max())  # max() would drop a NaN
    return 0.5 * float(peak)


def _marginals(target: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """What `_marginal_gap` needs of `target`: each column folded to n x m.

    Per column: the row sums of the fold stacked over its column sums
    (n + m entries), and its L1 norm.
    """
    folded = target.reshape(n, m, target.shape[1])
    return np.vstack([folded.sum(axis=1), folded.sum(axis=0)]), np.abs(target).sum(axis=0)


def _marginal_gap(block: np.ndarray, n: int, marginals) -> float:
    """A lower bound on `_column_gap(block[:n], target, block[n:])` as computed.

    `block` stacks a factor block a (n rows) over c (m rows). Summing out
    one factor never raises an L1 norm, so for column j,
    0.5 max(|a_j sum(c_j) - rows_j|_1, |c_j sum(a_j) - cols_j|_1) is at most
    the exact gap, with rows_j, cols_j the marginals of target column j
    folded to n x m (`marginals = _marginals(target, n, m)`). It costs
    n + m entries a column against the gap's nm. Before halving, the
    computed gap and this computed bound together err by at most
    2 (nm + 2) u (|a_j|_1 |c_j|_1 + |T_j|_1) to first order, u the unit
    roundoff, and twice that is taken off each column's bound. On
    nonnegative blocks, as a scan's factor block is, |a_j|_1 |c_j|_1 is
    sum(a_j) sum(c_j), and a result above epsilon proves that `_column_gap`
    is above epsilon too. The result is at least 0, as the gap is, and no
    columns give 0; a NaN entry gives NaN.
    """
    stacked, mass = marginals
    m = block.shape[0] - n
    # one indicator row per factor: its products give both factors' column
    # sums, much faster than sum(axis=0) on these small blocks, and the
    # rounding bound holds in any summation order
    ones = np.zeros((2, n + m))
    ones[0, :n] = ones[1, n:] = 1.0
    sums = ones @ block
    # each factor scaled by the other's column sums, less its marginal
    diff = block * np.repeat(sums[::-1], (n, m), axis=0)
    diff -= stacked
    bound = (ones @ np.abs(diff, out=diff)).max(axis=0)
    unit = (n * m + 2) * np.finfo(np.float64).eps  # 2 (nm + 2) u
    bound -= 2 * unit * (np.abs(sums[0] * sums[1]) + mass)
    return 0.5 * float(bound.max(initial=0.0))  # keeps a NaN, unlike max()


def _step_count(value, name: str) -> int:
    """`value` as a non-negative int; ValueError naming `name` if it is not one.

    Any integer type passes (`operator.index`), a numpy integer included; a
    float does not, even an integral one.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    return count


def _check_scan(epsilon: float, max_steps: int) -> None:
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    _step_count(max_steps, "max_steps")


def _first_within(step, state, gap, epsilon: float, max_steps: int, start: int = 0,
                  screen=None) -> int:
    """First k in start..max_steps with gap(k-th iterate of `step`) <= epsilon.

    The one stepping loop of the mixing times: `state` is iterate `start` of
    whatever `step` advances (a chain's column block, or a system's stacked
    factor block), and `gap` reads it as the largest distance of a tracked
    start from its limit. An optional `screen` is a cheaper lower bound on
    that gap as computed: an iterate it puts above epsilon is stepped past
    without taking the gap, except at max_steps. A gap still above epsilon
    at max_steps raises FailedToConverge with that gap; steps count from
    iterate 0. Callers check their arguments with `_check_scan`.
    """
    for k in range(start, int(max_steps) + 1):
        screened = k < max_steps and screen is not None and screen(state) > epsilon
        if not screened and (d := gap(state)) <= epsilon:
            return k
        if k < max_steps:
            state = step(state)
    raise FailedToConverge(f"distance to limit still {d:.3g} after {max_steps} steps")


def measure_mixing_time(matrix: StochasticMatrix, epsilon: float = 0.25,
                        max_steps: int = 1_000_000) -> int:
    """Smallest k with max-over-starts TV distance to stationarity <= epsilon.

    Every start is tracked, and above EXACT_START_LIMIT states this raises
    TooLarge before any solve. A `kron.kron(L, R)` product is measured on its
    factors (`_product_mixing_time`), never stepped: L (x) R as the factors
    give it, before `kron` rescales a row, as in `product_distance_to_limit`.

    A start's distance is its row of P^k against pi, a column of the n x n
    block (P')^k. The worst distance never increases in k (Levin, Peres &
    Wilmer, ch. 4), so the first step within epsilon is bracketed by
    squaring. The block takes sparse steps while k nnz < n^2 / 16, where the
    steps taken cost about one dense product. It is then squared while its
    distance stays above epsilon, keeping the previous power: at the first
    (P')^(2k) within epsilon, one descent level tries (P')^k (P')^(k/2) once
    k/4 sparse steps cost at least that product. `_first_within` steps the
    rest of the interval sparsely from the last power above epsilon. At most
    three n x n blocks are alive. Periodic or reducible chains, and products
    with such a factor, raise NotErgodic.
    """
    _check_scan(epsilon, max_steps)
    n = matrix.n
    if n > EXACT_START_LIMIT:
        raise TooLarge(f"t_mix over every start of {n} states; the cap is {EXACT_START_LIMIT}")
    if matrix.factors is not None:
        return _product_mixing_time(*matrix.factors, epsilon, max_steps)
    target = stationary(matrix)[:, None]
    step = matrix.csr.T.tocsr().dot

    def gap(cur):
        return _column_gap(cur, target)

    switch = -(-n * n // (16 * matrix.nnz))
    state, k = np.eye(n), 0
    while (d := gap(state)) > epsilon and k < min(switch, max_steps):
        state, k = step(state), k + 1
    if d <= epsilon:
        return k
    # state is (P')^k above epsilon; half is (P')^(k/2) once a square was
    half, spare = None, np.empty_like(state)
    while 0 < 2 * k <= max_steps:
        np.matmul(state, state, out=spare)
        if gap(spare) <= epsilon:
            # the descent saves about k/4 sparse steps for one dense product,
            # which costs about `switch` of them
            if half is not None and k >= 4 * switch:
                np.matmul(state, half, out=spare)
                if gap(spare) > epsilon:
                    k, state = k + k // 2, spare
            break
        half, state, spare = state, spare, np.empty_like(state) if half is None else half
        k *= 2
    # hand the block over: a reference kept in this frame would keep it alive
    # next to the two blocks of every sparse step
    blocks, state, half, spare = [state], None, None, None
    return _first_within(step, blocks.pop(), gap, epsilon, max_steps, start=k)


def _product_mixing_time(left: StochasticMatrix, right: StochasticMatrix, epsilon: float,
                         max_steps: int) -> int:
    """`measure_mixing_time` of L (x) R over every start, from the factors alone.

    A start (i, u) of the product has row L^k[i] (x) R^k[u], whose marginals
    are the factor rows L^k[i] and R^k[u]. Summing out one factor never
    raises an L1 norm, so the product row is at least as far from
    pi_L (x) pi_R as either factor row is from its pi. The product's distance
    d(k) is therefore at least the worst of the factors', and
    t >= max(t_L, t_R): the bracket opens there. From max(that, 1) the step
    doubles until `product_distance_to_limit` is within epsilon, then
    bisects between the last step above epsilon and that one. With every
    start tracked, d(k) never increases (Levin, Peres & Wilmer, ch. 4), so
    bisection finds the first step within epsilon. A step cap below t raises
    FailedToConverge with d(max_steps), and a periodic or reducible factor
    raises NotErgodic from the factor's own scan.
    """
    try:
        lo = max(measure_mixing_time(left, epsilon, max_steps),
                 measure_mixing_time(right, epsilon, max_steps))
    except FailedToConverge:
        lo = max_steps
    k = min(max(lo, 1), max_steps)
    while (d := product_distance_to_limit(left, right, k)) > epsilon:
        if k == max_steps:
            raise FailedToConverge(f"distance to limit still {d:.3g} after {max_steps} steps")
        lo, k = k + 1, min(2 * k, max_steps)
    while lo < k:
        mid = (lo + k) // 2
        if product_distance_to_limit(left, right, mid) <= epsilon:
            k = mid
        else:
            lo = mid + 1
    return k


def second_eigenvalue(matrix: StochasticMatrix) -> float:
    """|lambda_2|: the dominant eigenvalue modulus of M' deflated by (pi, 1).

    The deflated operator v -> M'v - pi sum(v) keeps every eigenvalue of M
    but the unit one, which it sends to 0. One ARPACK call to machine
    precision (`stochastic._dominant_eigenpair`) finds its dominant
    eigenvalue, whether real, negative or one of a complex pair; a rank-one
    chain has a null deflated operator and gives 0. Periodic or reducible
    chains raise NotErgodic, and an ARPACK run that hits its iteration cap
    raises FailedToConverge.
    """
    pi = stationary(matrix)
    pt = matrix.csr.T
    value, _ = _dominant_eigenpair(lambda v: pt @ v - pi * v.sum(), matrix.n)
    return float(abs(value))


def spectral_bounds(lambda2: float, states: int, epsilon: float) -> tuple[float, float]:
    """Spectral mixing-time bounds on `states` states.

    lower = max(0, lambda2 / (2 (1 - lambda2)) * ln(1 / (2 epsilon)))
    upper = (ln states + ln(1 / epsilon)) / (1 - lambda2)

    Above epsilon 1/2 the logarithm in the lower bound is negative, and the
    bound is the trivial 0. A |lambda_2| of 1 or more gives no bound and
    raises FailedToConverge.
    ValueError unless lambda2 >= 0, 0 < epsilon < 1 and states >= 1.
    """
    if not lambda2 >= 0:  # NaN fails this check too
        raise ValueError(f"lambda2 must be non-negative, got {lambda2}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not states >= 1:
        raise ValueError(f"states must be at least 1, got {states}")
    if lambda2 >= 1.0:
        raise FailedToConverge(f"|lambda_2| estimate {lambda2} >= 1")
    lower = max(0.0, lambda2 / (2.0 * (1.0 - lambda2)) * math.log(1.0 / (2.0 * epsilon)))
    upper = (math.log(states) + math.log(1.0 / epsilon)) / (1.0 - lambda2)
    return lower, upper


class _PairOperator:
    """x -> x - Z x, Z the chain of two independent walks that have not met.

    x holds T(i, j) for the pairs i < j, row by row: row i starts at
    offsets[i], and there are n(n-1)/2 values. Z x is the strict upper
    triangle of P V P', V the symmetric matrix of x with a zero diagonal:
    walks that meet leave the chain. V is unpacked into one reused n x n
    buffer and P V P' is formed in chunks of n/16 rows (at least 32, at most
    _PAIR_CHUNK), so Z, with up to w^2 n^2 / 2 nonzeros for w the largest
    out-degree, is never built, and a chunk's scratch stays near n^2 bytes.
    A chunk of rows lo..hi-1 forms only the columns lo.. that hold its
    pairs: (P_rows V) times P's rows lo.. transposed. Both row blocks of P
    are CSRs built once that share P's `data` and `indices` (`_row_view`).
    Each entry sums the same products in the same order as over all
    columns, so the values do not change.
    One chunk-high mask `upper` serves every chunk: in rows lo.. and columns
    lo.., entry (r, c) is a pair iff c > r.
    """

    def __init__(self, matrix: StochasticMatrix):
        n = matrix.n
        i = np.arange(n + 1)
        self.offsets = i * n - i * (i + 1) // 2
        self.p = p = matrix.csr
        self.full = np.zeros((n, n))
        rows = min(_PAIR_CHUNK, max(n // 16, 32))
        edges = list(range(0, n, rows)) + [n]
        self.chunks = [(lo, hi, _row_view(p, lo, hi), _row_view(p, lo, n))
                       for lo, hi in zip(edges, edges[1:])]
        self.upper = np.arange(n)[None, :] > np.arange(min(rows, n))[:, None]

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        full, off, n = self.full, self.offsets, self.full.shape[0]
        for lo, hi, _, _ in self.chunks:
            upper = self.upper[:hi - lo, :n - lo]
            full[lo:hi, lo:][upper] = x[off[lo]:off[hi]]
            # the lower triangle mirrors the upper one block by block; a masked
            # write into it would run down its columns
            full[hi:, lo:hi] = full[lo:hi, hi:].T
            block, inner = full[lo:hi, lo:hi], upper[:, :hi - lo]
            block.T[inner] = block[inner]
        for lo, hi, rows, tail in self.chunks:
            # rows lo..hi-1, columns lo.. of P V P' are (P[lo:] (P_rows V)')'
            near = np.ascontiguousarray((rows @ full).T)
            far = tail @ near
            del near  # before the masked copy of far, to bound the scratch
            np.subtract(x[off[lo]:off[hi]], far.T[self.upper[:hi - lo, :n - lo]],
                        out=out[off[lo]:off[hi]])
        return out

    def chain(self) -> sp.csr_matrix:
        """Z as an explicit sparse matrix on the packed pairs."""
        n, off = self.p.shape[0], self.offsets
        q = sp.kron(self.p, self.p, format="coo")
        i, j = np.divmod(q.row.astype(np.int64), n)
        k, l = np.divmod(q.col.astype(np.int64), n)
        keep = (i < j) & (k != l)
        i, j, k, l = i[keep], j[keep], k[keep], l[keep]
        lo, hi = np.minimum(k, l), np.maximum(k, l)
        return sp.csr_matrix((q.data[keep], (off[i] + j - i - 1, off[lo] + hi - lo - 1)),
                             shape=(off[-1], off[-1]))


def _row_view(csr: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo..hi-1 of `csr` as a CSR that shares its `data` and `indices`."""
    start, stop = csr.indptr[lo], csr.indptr[hi]
    rows = sp.csr_matrix((csr.data[start:stop], csr.indices[start:stop],
                          csr.indptr[lo:hi + 1] - start), shape=(hi - lo, csr.shape[1]))
    # scipy copies a view of less than half its base; these stay views
    rows.data, rows.indices = csr.data[start:stop], csr.indices[start:stop]
    return rows


def _inf_norm(v: np.ndarray) -> float:
    """max |v_i| without an |v| temporary."""
    return max(float(v.max()), -float(v.min())) if v.size else 0.0


def _entries(csr: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """csr[rows[k], cols[k]] for every k, 0 where no entry is stored."""
    return np.asarray(csr[rows, cols]).ravel()


def _detailed_balance(matrix: StochasticMatrix) -> np.ndarray | None:
    """pi of an ergodic reversible chain, scaled to a largest entry of 1, or None.

    No eigen-solve: pi_j = pi_i P_ij / P_ji along a breadth-first tree from
    state 0, where a tree edge with no reverse edge means P is not
    reversible. pi_i P_ij = pi_j P_ji is then checked on every edge to
    _BALANCE_TOL relative. A pi so uneven that a pair weight pi_i pi_j
    would fall below the normal float range also gives None.
    """
    p, n = matrix.csr, matrix.n
    order, pred = csgraph.breadth_first_order(p, 0, return_predecessors=True)
    child = order[1:]
    parent = pred[child]
    back = _entries(p, child, parent)
    if not back.all():
        return None
    values = [1.0] * n
    for j, i, ratio in zip(child.tolist(), parent.tolist(),
                           (_entries(p, parent, child) / back).tolist()):
        values[j] = values[i] * ratio
    pi = np.array(values)
    if not (np.isfinite(pi).all() and (pi.min() / pi.max()) ** 2 >= np.finfo(np.float64).tiny):
        return None
    rows = np.repeat(np.arange(n), np.diff(p.indptr))
    flux = pi[rows] * p.data
    if not (np.abs(flux - pi[p.indices] * _entries(p, p.indices, rows))
            <= _BALANCE_TOL * flux).all():
        return None
    return pi / pi.max()


def _cg(op, x: np.ndarray, r: np.ndarray, floor, max_iter: int, pi: np.ndarray) -> int:
    """Conjugate gradients on (I - Z) x = 1 from x = 0 and r = 1, updating both in place.

    The solver of reversible chains (Hestenes & Stiefel 1952). For a chain
    reversible with respect to pi, Z is self-adjoint in the inner product
    sum over pairs of pi_i pi_j a_ij b_ij, and I - Z is positive definite,
    as Z is substochastic with spectral radius below 1. The inner products
    take that weight from one vector built here; a pi uniform within
    _BALANCE_TOL weighs every pair alike and takes plain dots instead. Four
    vectors are alive beside it, x, r, p and q = (I - Z) p. Stops as
    `_bicgstab` does: once max |r_i| <= floor(x), on a breakdown (a zero
    inner product), or after max_iter iterations of one `op` call each;
    returns the iterations taken.
    """
    weights = None
    if pi.min() < 1.0 - _BALANCE_TOL:
        off = op.offsets
        weights = np.empty_like(x)
        for i in range(pi.size - 1):
            np.multiply(pi[i], pi[i + 1:], out=weights[off[i]:off[i + 1]])

    def dot(a, b):
        return float(a @ b) if weights is None else float(np.einsum("i,i,i->", a, weights, b))

    p, q = r.copy(), np.empty_like(x)
    rr = dot(r, r)
    for k in range(max_iter):
        op(p, q)
        pq = dot(p, q)
        if abs(pq) < _TINY:
            return k
        alpha = rr / pq
        daxpy(p, x, a=alpha)
        daxpy(q, r, a=-alpha)
        if _inf_norm(r) <= floor(x):
            return k + 1
        rr, rr_old = dot(r, r), rr
        # p = r + beta p
        p *= rr / rr_old
        daxpy(r, p)
    return max_iter


def _bicgstab(op, x: np.ndarray, r: np.ndarray, floor, max_iter: int) -> int:
    """BiCGSTAB on (I - Z) x = 1 from x = 0 and r = 1, updating both in place.

    The solver of chains that are not reversible (van der Vorst 1992). The
    shadow residual is the right-hand side 1, so (1, r) is r.sum() and
    nothing stores it: five vectors are alive, x, r, p, v and t. Stops once
    max |r_i| <= floor(x), on a breakdown (a zero inner product), or after
    max_iter iterations of two `op` calls each; returns the iterations taken.
    """
    p, v, t = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    rho_old = alpha = omega = 1.0
    for k in range(max_iter):
        rho = float(r.sum())
        if abs(rho) < _TINY:
            return k
        # p = r + beta (p - omega v)
        daxpy(v, p, a=-omega)
        p *= rho / rho_old * alpha / omega
        daxpy(r, p)
        op(p, v)
        sv = float(v.sum())
        if abs(sv) < _TINY:
            return k
        alpha = rho / sv
        daxpy(v, r, a=-alpha)
        daxpy(p, x, a=alpha)
        if _inf_norm(r) <= floor(x):
            return k + 1
        op(r, t)
        tt = float(t @ t)
        omega = float(t @ r) / tt if tt else 0.0
        if abs(omega) < _TINY:
            return k + 1
        daxpy(r, x, a=omega)
        daxpy(t, r, a=-omega)
        if _inf_norm(r) <= floor(x):
            return k + 1
        rho_old = rho
    return max_iter


def estimate_coupling_time(matrix: StochasticMatrix, trials: int = 1000,
                           rng=None) -> CouplingEstimate:
    """Exact worst-pair expected meeting time L of two independent walks.

    T(i, j), the expected steps until walks from i and j meet, solves
    T = 1 + P T P' off the diagonal with T_ii = 0, on the unordered pairs
    (`_PairOperator`), until every residual entry is at most 1e-10, or four
    times its rounding if larger. A reversible chain, one that passes the
    detailed-balance test of `_detailed_balance` (no eigen-solve), is solved
    by conjugate gradients (`_cg`), one matvec an iteration; any other by
    BiCGSTAB (`_bicgstab`), two. After a breakdown or _KRYLOV_ITERATIONS
    iterations, the explicit pair chain is factored (`_solve_fundamental`)
    if P (x) P has at most _DIRECT_NNZ nonzeros; otherwise FailedToConverge.

    `mean` is L and `start_pair` a pair that attains it. `stderr` bounds
    |mean - L|: as (I - Z)^-1 1 = T, a residual r of T~ gives
    ||T~ - T||_inf <= ||r||_inf max T~ / (1 - ||r||_inf), with r the
    explicit residual plus its rounding, (2w + 5) u max T~ for w the largest
    out-degree and u the unit roundoff; it is positive for n > 1. `method`
    names the solver that produced L: "cg", "bicgstab" or "direct", and
    `iterations` counts the Krylov iterations, those before a direct
    fallback included. One state gives L = 0 with no solve.

    `trials` and `rng` change nothing; they are accepted for callers of the
    Monte-Carlo estimator this replaced, and trials < 1 still raises
    ValueError. The solve holds about 4 n^2 floats, so chains above
    COUPLING_STATE_LIMIT states raise TooLarge. Periodic or reducible chains
    raise NotErgodic.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ergodicity_check(matrix)
    n = matrix.n
    if n == 1:
        return CouplingEstimate(0.0, 0.0, 0, 0, (0, 0), "direct", 0)
    if n > COUPLING_STATE_LIMIT:
        raise TooLarge(f"coupling time on {n} states needs about {32 * n * n / 1e6:.3g} MB; "
                       f"the cap is {COUPLING_STATE_LIMIT} states")
    op = _PairOperator(matrix)
    unit = (2 * int(np.diff(matrix.csr.indptr).max()) + 5) * np.finfo(np.float64).eps / 2

    def rounding(x):
        # what rounding may put into a computed residual: each entry of
        # P V P' sums w products twice, and 1 - (x - Z x) adds a few units
        return unit * max(float(x.max()), 1.0)

    def floor(x):
        return max(_COUPLING_TOL, 4 * rounding(x))

    x, r = np.zeros(op.offsets[-1]), np.ones(op.offsets[-1])
    pi = _detailed_balance(matrix)
    if pi is None:
        iterations, method = _bicgstab(op, x, r, floor, _KRYLOV_ITERATIONS), "bicgstab"
    else:
        iterations, method = _cg(op, x, r, floor, _KRYLOV_ITERATIONS, pi), "cg"
    if _inf_norm(r) > floor(x):
        if matrix.nnz ** 2 > _DIRECT_NNZ:
            raise FailedToConverge(
                f"coupling solve stopped at residual {_inf_norm(r):.3g} after {iterations} "
                f"iterations; the pair chain is too large to factor")
        x, method = _solve_fundamental(op.chain(), np.ones(x.size)), "direct"
    np.subtract(1.0, op(x, r), out=r)  # the explicit residual
    slack = _inf_norm(r) + rounding(x)
    if slack >= 1.0:
        raise FailedToConverge(f"coupling solve residual {slack:.3g} gives no error bound")
    top = int(np.argmax(x))
    i = int(np.searchsorted(op.offsets, top, side="right")) - 1
    mean = float(x[top])
    return CouplingEstimate(mean, slack * mean / (1.0 - slack), 0, 0,
                            (i, top - int(op.offsets[i]) + i + 1), method, iterations)


def expected_absorbing_time(matrix: StochasticMatrix) -> AbsorbingTimes:
    """Exact expected times to enter the union of closed components.

    Solves (I - Z) h = 1 on the transient block of `matrix.scc`.
    """
    if not any(matrix.scc.closed):
        raise StructuralError("graph has no closed component")
    node_h = np.zeros(matrix.n)
    transient = matrix.scc.transient_nodes()
    if transient.size:
        z = matrix.minor(transient, transient)
        node_h[transient] = _solve_fundamental(z, np.ones(transient.size))
    return AbsorbingTimes(node_h, float(node_h.max()))


def theorem_bound(l_g: float, l_t: float, h_g: float, h_t: float,
                  epsilon: float) -> float:
    """Composite convergence-time bound 32 (max L + max H) ln(1/epsilon).

    That is 8 times the lemma's bound 4 (L + H) ln(1/epsilon), `coupling_bound`
    at L = max L and H = max H; scaling by a power of two is exact.
    """
    for name, v in (("l_g", l_g), ("l_t", l_t), ("h_g", h_g), ("h_t", h_t)):
        if not v >= 0:  # NaN fails this check too
            raise ValueError(f"{name} must be non-negative, got {v}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return 8.0 * coupling_bound(max(l_g, l_t), max(h_g, h_t), epsilon)


def coupling_bound(l: float, h: float, epsilon: float) -> float:
    """Single-graph convergence-time bound 4 (L + H) ln(1/epsilon)."""
    if not (l >= 0 and h >= 0):  # NaN fails this check too
        raise ValueError(f"L and H must be non-negative, got {l} and {h}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return 4.0 * (l + h) * math.log(1.0 / epsilon)


def product_distance_to_limit(left: StochasticMatrix, right: StochasticMatrix, k: int) -> float:
    """Worst-start distance at step k of L x R: `measure_mixing_time`'s on kron(L, R).

    Built from the factors: by (L x R)^k = L^k x R^k, start (i, u)'s row is
    (L')^k e_i (x) (R')^k e_u, against the limit pi_L (x) pi_R, a chunk at a
    time (`_column_gap`), over every start up to EXACT_START_LIMIT states
    (read at call time) and the 64 of `_start_rows` above. This is the
    unrescaled L (x) R, and `measure_mixing_time` of kron(L, R) is the first
    k at which it is within epsilon. Factors must be ergodic; ValueError
    unless k is a non-negative integer.
    """
    k = _step_count(k, "k")
    target = np.kron(stationary(left), stationary(right))[:, None]
    lk = np.linalg.matrix_power(left.dense().T, k)
    rk = np.linalg.matrix_power(right.dense().T, k)
    i, u = np.divmod(_start_rows(left.n * right.n, EXACT_START_LIMIT), right.n)
    return _column_gap(lk[:, i], target, rk[:, u])


def system_mixing_time(system: BeliefSystem, epsilon: float = 0.25,
                       max_steps: int = 1_000_000) -> int:
    """Smallest k at which the worst simplex start is within epsilon of its limit.

    Scans basis columns of W^k, W the 2nm system operator, against the limit
    operator: every column up to SYSTEM_EXACT_START_LIMIT states, otherwise
    those of the 64 `_start_rows` that count (below). Anchor rows never move
    and equal their limit, so only the top nm rows count. A top column
    (i, u) starts with no anchor mass, so by (L (x) R)^k = L^k (x) R^k its
    k-th iterate is (Lambda A)^k e_i (x) C^k e_u: the scan holds the two
    factor columns stacked in one (n + m)-row block and steps it with one
    block-diagonal operator diag(Lambda A, C), never nm-wide. Each step is
    first screened by `_marginal_gap`, which reads only that block against
    the limit's two marginals; only the steps that bound cannot put above
    epsilon, and the step at max_steps, take the Kronecker gap
    `_column_gap`. The bound never exceeds the gap, so every k is the one
    the gap alone gives. Anchor columns of lambda = 1 agents are zero in
    the top rows, like their limits, and are dropped; only stubborn agents'
    anchor columns step through `update`. So a sampled lambda = 1 system
    tracks fewer than 64 columns: 27-30 at the sampled README-sweep points.
    ValueError unless 0 < epsilon < 1 and max_steps >= 0, checked first.
    """
    _check_scan(epsilon, max_steps)
    n, m = system.n, system.m
    nm = n * m
    cols = _start_rows(system.dim, SYSTEM_EXACT_START_LIMIT)
    top, anchor = cols[cols < nm], cols[cols >= nm]
    anchor = anchor[system.lam[(anchor - nm) // m] < 1.0]
    target = limit_matrix(system, np.concatenate([top, anchor]))[:nm]
    top_target, anchor_target = target[:, :top.size], target[:, top.size:]
    marginals = _marginals(top_target, n, m)
    anchors = _basis(nm, anchor - nm)
    i, u = np.divmod(top, m)
    both = sp.block_diag((sp.diags(system.lam) @ system.a.csr, system.c.csr), format="csr")

    def step(state):
        block, z = state
        return both @ block, update(system, z, anchors) if anchor.size else z

    def screen(state):
        return _marginal_gap(state[0], n, marginals)

    def gap(state):
        block, z = state
        return max(_column_gap(block[:n], top_target, block[n:]), _column_gap(z, anchor_target))

    start = (np.vstack([_basis(n, i), _basis(m, u)]), np.zeros((nm, anchor.size)))
    return _first_within(step, start, gap, epsilon, max_steps, screen=screen)


def analyze_mixing(matrix: StochasticMatrix, epsilon: float = 0.25,
                   trials: int = 300, rng=None) -> MixingReport:
    """Bundle t_mix, spectral bounds, and the exact coupling time of one chain.

    `trials` and `rng` are passed to `estimate_coupling_time`, which ignores
    them: every part of the report is deterministic.
    """
    report = MixingReport(epsilon=epsilon)
    report.t_mix = measure_mixing_time(matrix, epsilon)
    report.lambda2_abs = second_eigenvalue(matrix)
    report.lower_bound, report.upper_bound = spectral_bounds(report.lambda2_abs, matrix.n,
                                                             epsilon)
    report.coupling = estimate_coupling_time(matrix, trials=trials, rng=rng)
    report.theorem_bound = coupling_bound(report.coupling.mean, 0.0, epsilon)
    return report
