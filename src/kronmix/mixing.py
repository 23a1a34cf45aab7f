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
epsilon, and it steps only until a second lower bound, one that never
increases in k, can be read ahead (`_bound_jump`): the agents'
pi-weighted L1 distance from their limit, which a stochastic operator never
raises (Levin, Peres & Wilmer, ch. 4), times the constraint block's mass.
Once the dense squarings that read it ahead cost no more than the steps
made, it jumps over every step that this bound, less a rounding allowance
of about k (n + m) units, puts above epsilon. Its `t_mix` values are those
of the gap alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigvalsh
from scipy.linalg.blas import daxpy

from .beliefs import BeliefSystem, closed_factor_classes, update
from .errors import FailedToConverge, StructuralError, TooLarge
from .limits import limit_matrix
from .stochastic import (_BALANCE_TOL, StochasticMatrix, _absorption, _basis,
                         _detailed_balance, _dominant_eigenpair, _solve_fundamental,
                         ergodicity_check, stationary)

EXACT_START_LIMIT = 2000
SYSTEM_EXACT_START_LIMIT = 256  # kronbench's `_sweep_t_mix` reproduces its columns
SAMPLED_STARTS = 64
# reversible chains up to this many states get |lambda_2| from one dense
# symmetric eigensolve; at 512 states that costs more than ARPACK on the
# lazy hypercube (18 ms against 1.3 ms on one BLAS thread)
DENSE_EIGEN_LIMIT = 256
# the coupling solve holds about 4 n^2 float64 values: 128 MB at the cap
COUPLING_STATE_LIMIT = 2000
_COUPLING_TOL = 1e-10  # largest residual entry at which the Krylov solvers stop
_KRYLOV_ITERATIONS = 10_000
# nonzeros of P (x) P, about twice the pair chain's, that the fallback may factor
_DIRECT_NNZ = 1_000_000
_PAIR_CHUNK = 128  # rows of P per chunk of P V P'; a chain this small takes one
_TINY = np.finfo(np.float64).eps ** 2  # Krylov breakdown threshold
# columns per chunk of `_column_gap`
_GAP_CHUNK = 128
# sparse flops that one sparse step and gap read of a single column cost
# beyond their nnz + n: the call overhead, about 10 us a step against about
# 0.6 ns a sparse flop of a block step (one core, lazy chains of 100-2000 states)
_COLUMN_CALL = 16_000
# float64 values that the powers of two of `_bound_jump` may hold: the 128 MB
# that COUPLING_STATE_LIMIT allows the coupling solve
_POWER_BUDGET = 4 * COUPLING_STATE_LIMIT ** 2
# distance m |c_k - gamma|_1 of a system scan's constraint columns from their
# limit at which `_bound_jump` reads its bound. It costs the bound
# delta (e + |alpha|_1) / 2, about 5e-7 on the README sweep: less than one
# step's change of the gap near t there, so the jump lands on t - 1
_JUMP_DELTA = 2.0 ** -20


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


@dataclass(frozen=True)
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
    return _worst_column(left, target, right)[0]


def _worst_column(left: np.ndarray, target: np.ndarray,
                  right: np.ndarray | None = None) -> tuple[float, int]:
    """`_column_gap` and a column that attains it (0 if there are no columns)."""
    (n, w), m = left.shape, 1 if right is None else right.shape[0]
    edges = list(range(0, w, _GAP_CHUNK)) + [w]
    if len(edges) > 2 and w - edges[-2] == 1:
        del edges[-2]
    buf = np.empty(n * m * min(w, _GAP_CHUNK + 1))
    peak, worst = 0.0, 0
    for lo, hi in zip(edges, edges[1:]):
        part = buf[:n * m * (hi - lo)].reshape(n * m, hi - lo)
        goal = target if target.shape[1] == 1 else target[:, lo:hi]
        if right is None:
            np.subtract(left[:, lo:hi], goal, out=part)
        else:
            np.multiply(left[:, None, lo:hi], right[None, :, lo:hi], out=part.reshape(n, m, -1))
            np.subtract(part, goal, out=part)
        np.abs(part, out=part)
        sums = part.sum(axis=0)
        j = int(np.argmax(sums))  # the first NaN, if there is one
        if not sums[j] <= peak:
            worst = lo + j
        peak = np.maximum(peak, sums[j])  # keeps a NaN, unlike max()
    return 0.5 * float(peak), worst


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
                  screen=None, jump=None) -> int:
    """First k in start..max_steps with gap(k-th iterate of `step`) <= epsilon.

    The stepping loop of the system scan: `state` is iterate `start` of
    whatever `step` advances (a system's stacked factor block and its
    anchor columns), and `gap` reads it as the largest distance of a tracked
    start from its limit. An optional `screen` is a cheaper lower bound on
    that gap as computed: an iterate it puts above epsilon is stepped past
    without taking the gap, except at max_steps. An optional `jump(k, state)`
    is called at each iterate k found above epsilon before max_steps; it
    returns an iterate (k', state') with k <= k' <= max_steps, every iterate
    k..k'-1 above epsilon, and the scan goes on from there (k' = k steps as
    usual). A gap still above epsilon at max_steps raises FailedToConverge
    with that gap; steps count from iterate 0. Callers check their arguments
    with `_check_scan`; ValueError if start > max_steps.
    """
    if start > max_steps:
        raise ValueError(f"scan starts at step {start}, past max_steps {max_steps}")
    k = start
    while True:
        screened = k < max_steps and screen is not None and screen(state) > epsilon
        if not screened and (d := gap(state)) <= epsilon:
            return k
        if k == max_steps:
            raise FailedToConverge(f"distance to limit still {d:.3g} after {max_steps} steps")
        if jump is not None:
            ahead, state = jump(k, state)
            if ahead > k:
                k = ahead
                continue
        state, k = step(state), k + 1


def measure_mixing_time(matrix: StochasticMatrix, epsilon: float = 0.25,
                        max_steps: int = 1_000_000) -> int:
    """Smallest k with max-over-starts TV distance to stationarity <= epsilon.

    Every start is tracked, and above EXACT_START_LIMIT states this raises
    TooLarge before any solve. A `kron.kron(L, R)` product is measured on its
    factors (`_product_mixing_time`), never stepped: L (x) R as the factors
    give it, before `kron` rescales a row, as in `product_distance_to_limit`.

    A start's distance is its row of P^k against pi, a column of the n x n
    block (P')^k, and it never increases in k (Levin, Peres & Wilmer,
    ch. 4). So one tracked start r above epsilon at k proves d(k) > epsilon
    at the price of one column, and the block is needed only to check a
    candidate. The search (`_WorstStartSearch`) starts from the state of
    least pi, pursues its column to t_r, its first step within epsilon,
    builds (P')^(t_r) once and reads every column there. If all are within
    epsilon, t is t_r: column r was above epsilon at t_r - 1. Otherwise the
    worst column becomes r and the pursuit resumes at t_r + 1. At max_steps
    the block is read whatever the tracked column says, and a distance still
    above epsilon raises FailedToConverge. At most three n x n blocks are
    alive. Periodic or reducible chains, and products with such a factor,
    raise NotErgodic.
    """
    _check_scan(epsilon, max_steps)
    n = matrix.n
    if n > EXACT_START_LIMIT:
        raise TooLarge(f"t_mix over every start of {n} states; the cap is {EXACT_START_LIMIT}")
    if matrix.factors is not None:
        return _product_mixing_time(*matrix.factors, epsilon, max_steps)
    search = _WorstStartSearch(matrix, epsilon, max_steps)
    k, v = 0, np.zeros(n)
    v[np.argmin(search.pi)] = 1.0
    while True:
        k, v = search.pursue(k, v)
        d, v = search.read(k)
        if d <= epsilon:
            return k
        if k == max_steps:
            raise FailedToConverge(f"distance to limit still {d:.3g} after {max_steps} steps")
        k, v = k + 1, search.pt @ v  # the new worst start is above epsilon at k


def _power_plan(t: int, price: float) -> tuple[float, int]:
    """The cheapest way from P' to (P')^t: (its price, its squarings s).

    With s squarings, P' takes (t >> s) - 1 sparse steps of the block, and
    each squaring is followed by one more step where t has a bit set, from
    bit s - 1 down to bit 0. A squaring costs `price` steps. t = 0 (the
    identity) costs nothing; ties go to fewer squarings.
    """
    if t == 0:
        return 0.0, 0
    return min(((t >> s) - 1 + bin(t & ((1 << s) - 1)).count("1") + s * price, s)
               for s in range(t.bit_length()))


class _WorstStartSearch:
    """The tracked column and the powers of P' of one `measure_mixing_time` call.

    Work is priced in sparse steps of the n x n block, nnz n flops each.
    A dense product costs `price` = n^2 / (16 nnz) of them, counting a dense
    flop as a sixteenth of a sparse one (one core ran a dense product's
    flops 12-33 times as fast as a block step's on lazy chains of 200-2000
    states). A sparse step of one column and its gap read cost
    (nnz + n + _COLUMN_CALL) / (nnz n).

    `pursue` steps the tracked column one sparse step at a time. After
    `patience` steps in a row it gallops instead (`gallop`): `patience` is
    the fewest steps g whose price reaches (price + 1) per bit of g, about
    what building (P')^g and squaring it costs. `read` builds (P')^k with
    `power` and reads every column there, keeping the block: the next
    `power` may step it on rather than build anew.
    """

    def __init__(self, matrix: StochasticMatrix, epsilon: float, max_steps: int):
        n, nnz = matrix.n, matrix.nnz
        self.pi = stationary(matrix)
        self.pt = matrix.csr.T.tocsr()
        self.epsilon, self.max_steps = epsilon, max_steps
        self.price = n * n / (16 * nnz)
        column = (nnz + n + _COLUMN_CALL) / (nnz * n)
        # the least fixed point of g = ceil((price + 1) bits(g) / column)
        g = 1
        while g * column < (self.price + 1) * g.bit_length():
            g = math.ceil((self.price + 1) * g.bit_length() / column)
        self.patience = g
        self.held = None  # (k, (P')^k) of the last read

    def gap(self, v: np.ndarray) -> float:
        """Total variation distance of one column from pi."""
        return 0.5 * float(np.abs(v - self.pi).sum())

    def pursue(self, k: int, v: np.ndarray) -> tuple[int, np.ndarray]:
        """(k', column at k'): the tracked column v, given at k, at its crossing.

        k' is the first step from k at which the column is within epsilon,
        or max_steps if it is not by then.
        """
        start = k
        while self.gap(v) > self.epsilon and k < self.max_steps:
            if k - start < self.patience:
                v, k = self.pt @ v, k + 1
            else:
                k, v = self.gallop(k, v)
                start = k
        return k, v

    def gallop(self, lo: int, v: np.ndarray) -> tuple[int, np.ndarray]:
        """A later step lo' at which column v, above epsilon at lo, still is.

        With g = `patience`, it tests lo + g, then lo + 3g, lo + 7g, ...: a
        column above epsilon moves lo forward, and (P')^g is squared for the
        next, longer test. Once a test is within epsilon or would pass
        max_steps, lo moves on through the smaller powers held, largest
        first, while the column stays above epsilon (binary lifting). Three
        powers are held at most, so the crossing, or max_steps, is left
        within the smallest of them of lo': g, or a quarter of the last
        test. Each test is one product of a power with the column, and a
        power is squared only if its square can be tested.
        """
        self.held = None  # stepping it this far costs more than a new build
        rungs = [(self.patience, self.power(self.patience))]

        def advance(size, rung):
            nonlocal lo, v
            if lo + size > self.max_steps:
                return False
            ahead = rung @ v
            if self.gap(ahead) <= self.epsilon:
                return False
            lo, v = lo + size, ahead
            return True

        while advance(*rungs[-1]):
            size, top = rungs[-1]
            if lo + 2 * size <= self.max_steps:
                spare = rungs.pop(0)[1] if len(rungs) == 3 else np.empty_like(top)
                rungs.append((2 * size, np.matmul(top, top, out=spare)))
        for rung in reversed(rungs[:-1]):
            advance(*rung)
        return lo, v

    def power(self, t: int) -> np.ndarray:
        """(P')^t, from the held block by sparse steps or from P' by `_power_plan`.

        Whichever costs less; the held block is let go either way. At most
        three blocks are alive: a squaring's two and a step's new one.
        """
        at, block = self.held or (0, None)
        self.held = None
        cost, squarings = _power_plan(t, self.price)
        if block is not None and 0 <= t - at <= cost:
            for _ in range(t - at):
                block = self.pt @ block
            return block
        if t == 0:
            return np.eye(self.pi.size)
        block = self.pt.toarray()
        for _ in range((t >> squarings) - 1):
            block = self.pt @ block
        spare = np.empty_like(block) if squarings else None
        for bit in reversed(range(squarings)):
            block, spare = np.matmul(block, block, out=spare), block
            if t >> bit & 1:
                block = self.pt @ block
        return block

    def read(self, k: int) -> tuple[float, np.ndarray]:
        """d(k) from the block (P')^k, and the column of a start that attains it."""
        block = self.power(k)
        d, worst = _worst_column(block, self.pi[:, None])
        self.held = k, block
        return d, block[:, worst].copy()


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
    """|lambda_2|: the largest modulus among the eigenvalues of M but the unit one.

    A reversible chain (`stochastic._detailed_balance`) of at most
    DENSE_EIGEN_LIMIT states takes one dense symmetric eigensolve, with no
    ARPACK call: S = Pi^(1/2) M Pi^(-1/2) is similar to M and symmetric
    (Levin, Peres & Wilmer, ch. 12), so with the eigenvalues of (S + S')/2
    ascending, w_0 <= ... <= w_(n-1) = 1, it returns max(|w_0|, |w_(n-2)|).
    Any other chain deflates M' by (pi, 1): v -> M'v - pi sum(v) keeps every
    eigenvalue of M but the unit one, which it sends to 0. One ARPACK call
    to machine precision (`stochastic._dominant_eigenpair`) finds its
    dominant eigenvalue, whether real, negative or one of a complex pair; a
    rank-one chain has a null deflated operator and gives 0. One state gives
    0. Periodic or reducible chains raise NotErgodic, and an ARPACK run that
    hits its iteration cap raises FailedToConverge.
    """
    pi = stationary(matrix)
    if matrix.n == 1:
        return 0.0
    if matrix.n <= DENSE_EIGEN_LIMIT and _detailed_balance(matrix) is not None:
        root = np.sqrt(pi)
        s = root[:, None] * matrix.dense() / root
        w = eigvalsh(0.5 * (s + s.T))
        return float(max(abs(w[0]), abs(w[-2])))
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
    buffer and P V P' is formed in one chunk up to _PAIR_CHUNK states, and
    above that in chunks of n/16 rows (at least 32, at most _PAIR_CHUNK), so
    Z, with up to w^2 n^2 / 2 nonzeros for w the largest out-degree, is
    never built, and a chunk's scratch stays near n^2 bytes.
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
        rows = n if n <= _PAIR_CHUNK else min(_PAIR_CHUNK, max(n // 16, 32))
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
    detailed-balance test of `stochastic._detailed_balance` (no eigen-solve,
    and kept on the matrix), is solved
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

    They solve (I - Z) h = 1 on the transient block of `matrix.scc`, in the
    one solve that the matrix shares with `power_limit`
    (`stochastic._absorption`). The first call builds the times; the matrix
    keeps them, with a read-only `node_expectation`, and every call returns
    that one object. A chain with no closed component raises
    StructuralError, which is not kept.
    """
    if matrix._absorbing is None:
        if not any(matrix.scc.closed):
            raise StructuralError("graph has no closed component")
        absorption = _absorption(matrix)
        node_h = np.zeros(matrix.n)
        node_h[absorption.transient] = absorption.steps
        node_h.flags.writeable = False
        matrix._absorbing = AbsorbingTimes(node_h, float(node_h.max()))
    return matrix._absorbing


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

    A scan with no anchor column jumps ahead (`_bound_jump`). A tracked
    column (i, u) whose limit folds to alpha gamma' has agent distance
    e(k) = mu' |(Lambda A)^k e_i - alpha|, with mu = pi on the oblivious
    agents' closed classes scaled to a largest entry of 1; e(k) never
    increases, as mu' Lambda A <= mu'. Once C^k e_u is within delta of
    gamma (m |C^k e_u - gamma|_1 <= delta), the gap stays at least
    1/2 [(1'gamma - delta) e(k) - delta |alpha|_1], which never increases
    either. Powers of two of Lambda A find the last step that this bound,
    less a rounding allowance of about 2 k (n + m) units (each squaring
    about doubles a nonnegative power's relative error), puts above
    epsilon, and the scan resumes one step later. The jump waits until its
    dense squarings cost no more than the sparse steps made and proved, and
    is not taken where _POWER_BUDGET cannot hold the powers that pay for
    themselves (about n > 1000). So t is the one the stepped scan gives,
    and the README sweep takes at most 60 sparse steps a point where it
    took t (12,992 for its ten points).
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
    lam_a = (sp.diags(system.lam) @ system.a.csr).tocsr()
    both = sp.block_diag((lam_a, system.c.csr), format="csr")

    def step(state):
        block, z = state
        return both @ block, update(system, z, anchors) if anchor.size else z

    def screen(state):
        return _marginal_gap(state[0], n, marginals)

    def gap(state):
        block, z = state
        return max(_column_gap(block[:n], top_target, block[n:]), _column_gap(z, anchor_target))

    start = (np.vstack([_basis(n, i), _basis(m, u)]), np.zeros((nm, anchor.size)))
    jump = None
    if top.size and not anchor.size:
        jump = _bound_jump(system, lam_a, u, top_target, step, epsilon, max_steps)
    return _first_within(step, start, gap, epsilon, max_steps, screen=screen, jump=jump)


def _bound_jump(system: BeliefSystem, lam_a: sp.csr_matrix, u: np.ndarray,
                top_target: np.ndarray, step, epsilon: float, max_steps: int):
    """The `jump` of `system_mixing_time`'s scan of top columns (i, u), or None.

    The limits: for u in a closed class K of C, gamma_j[u] is pi_K[u], so
    gamma_j is the target fold's column sums scaled to that entry, and
    alpha_j its row sums over g_j = 1'gamma_j. A column whose limit is 0
    gives no bound, and None means no column does. The bound: with
    e_j(k) = mu' |a_k - alpha_j| and delta_j = m |c_K - gamma_j|_1 at the
    jump point K, no column of a power of C sums above m, so
    |1'c_k - g_j| <= delta_j for k >= K, and summing the topics out of the
    gap gives gap_j(k) >= 1/2 [(g_j - delta_j) e_j(k) - delta_j |alpha_j|_1].
    The computed limits need not be exact fixed points, so their residuals
    mu' |Lambda A alpha_j - alpha_j| and m |C gamma_j - gamma_j|_1 are
    charged once a step: the bound read at K + s holds from K to K + s.

    The cost: one level of the jump squares Lambda A and C and applies a
    power to the block twice, n^3 + m^3 + 2 (n^2 + m^2) w flops, w the
    columns; a scan step costs (nnz(Lambda A) + nnz(C)) w. Counting a dense
    flop as a sixteenth of a sparse one, the price that `measure_mixing_time`
    puts on its dense products (`_WorstStartSearch`; on these blocks one
    core measured 45-100 at n = 51-2000), a level costs `cost` steps. The
    scan tries the jump at the first step K with
    s cost <= K + 2^(s-1) for every s, and every bounding column has
    delta_j <= _JUMP_DELTA: level s is squared only after the bound has
    proved 2^(s-1) steps, so the jump's dense work never exceeds the sparse
    work stepped and proved. The constraint's distance is re-read each time
    k grows by an eighth, so a constraint that stays far costs the scan
    about 8 log2(t) block reads. The powers held must fit _POWER_BUDGET
    values; if it cannot hold the L + 1 powers of the fewest levels L with
    2^L >= L cost, which pay for themselves, the scan takes no jump.

    From K it squares while the bound puts step K + 2^j above epsilon and
    the budget holds the next power, then descends through the powers held
    (binary lifting) to the last step k* <= max_steps it puts above
    epsilon, and resumes at k* + 1, or at max_steps when k* is max_steps.
    The bound must clear epsilon by r_j = (2k + nm) (n + m) u
    (|a_k|_1 + |alpha_j|_1) (g_j + 1), u the machine epsilon: the powers'
    relative error about doubles a squaring, so it reaches about 2 k n u,
    and the stepped block and the gap's sums add about k (n + m) and nm
    units.
    """
    n, m, w = system.n, system.m, u.size
    cost = (n ** 3 + m ** 3 + 2 * (n * n + m * m) * w) / (16 * (lam_a.nnz + system.c.nnz) * w)
    levels = 1
    while 2 ** levels < levels * cost:
        levels += 1
    if (levels + 1) * (n * n + m * m) > _POWER_BUDGET:
        return None
    check = math.ceil(max(s * cost - 2 ** (s - 1) for s in range(1, levels + 2)))
    agents, topics = closed_factor_classes(system)
    mu, pi_c = np.zeros(n), np.zeros(m)
    for members, _ in agents:
        pi = stationary(system.a.restrict(members))
        mu[members] = pi / pi.max()
    if not mu.any():
        return None
    for members, _ in topics:
        pi_c[members] = stationary(system.c.restrict(members))
    folded = top_target.reshape(n, m, w)
    col_sums = folded.sum(axis=0)
    at_u = col_sums[u, np.arange(w)]
    live = (pi_c[u] > 0) & (at_u > 0)
    if not live.any():
        return None
    gamma = col_sums[:, live] * (pi_c[u[live]] / at_u[live])
    g = gamma.sum(axis=0)
    alpha = folded.sum(axis=1)[:, live] / g
    mass = np.abs(alpha).sum(axis=0)
    drift_a = mu @ np.abs(lam_a @ alpha - alpha)
    drift_c = m * np.abs(system.c.csr @ gamma - gamma).sum(axis=0)
    unit = np.finfo(np.float64).eps

    def jump(k, state):
        nonlocal check
        block, z = state
        if k < check:
            return k, state
        delta = m * np.abs(block[n:, live] - gamma).sum(axis=0)
        if delta.max() > _JUMP_DELTA:
            check = k + k // 8 + 1
            return k, state
        check = math.inf

        def above(a, at):
            # some b_j, read at step `at` from a = a_at and charged its drift
            # since k, less r_j, is above epsilon: so is every step k..at
            e = np.maximum(mu @ np.abs(a[:, live] - alpha) - (at - k) * drift_a, 0.0)
            spread = delta + (at - k) * drift_c
            r = (2 * at + n * m) * (n + m) * unit * (a[:, live].sum(axis=0) + mass) * (g + 1)
            return bool((0.5 * (np.maximum(g - spread, 0.0) * e - spread * mass) - r
                         > epsilon).any())

        # square while the bound holds 2^j steps past k, then descend from k
        # through the powers held (binary lifting)
        powers = [(lam_a.toarray(), system.c.dense())]
        while (k + 2 ** (len(powers) - 1) <= max_steps
               and (len(powers) + 1) * (n * n + m * m) <= _POWER_BUDGET
               and above(powers[-1][0] @ block[:n], k + 2 ** (len(powers) - 1))):
            p, q = powers[-1]
            powers.append((p @ p, q @ q))
        a, c, pos = block[:n], block[n:], k
        for j in reversed(range(len(powers))):
            if pos + 2 ** j <= max_steps and above(ahead := powers[j][0] @ a, pos + 2 ** j):
                a, c, pos = ahead, powers[j][1] @ c, pos + 2 ** j
        if pos == k:
            return k, state
        state = np.vstack([a, c]), z
        return (pos, state) if pos == max_steps else (pos + 1, step(state))

    return jump


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
