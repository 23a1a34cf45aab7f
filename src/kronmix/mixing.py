"""Convergence-time measurement and bounds.

Covers empirical mixing time (worst-start total variation), spectral bounds,
Monte-Carlo coupling times, exact absorbing times on the transient block, and
the composite convergence-time bound. All bound formulas use the natural
logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AllTrialsCapped, FailedToConverge, StructuralError
from .graphs import SccDecomposition, scc_decompose
from .stochastic import (StochasticMatrix, _dominant_eigenpair, ergodicity_check,
                         stationary)

EXACT_START_LIMIT = 2000
SAMPLED_STARTS = 64
# A coupling step compares each live walker's draw with the w cumulatives of
# its row (w = largest out-degree): O(w) work per walker-step. Walkers go in
# chunks of _CHUNK // w, so a step's scratch stays near _CHUNK float64 entries
# (64 MB) however many walkers are live.
_CHUNK = 8_000_000
# columns per chunk of `_column_gap`
_GAP_CHUNK = 128


@dataclass
class CouplingEstimate:
    """Monte-Carlo estimate of the worst-pair expected coupling time."""

    mean: float
    stderr: float
    trials: int
    capped: int
    start_pair: tuple[int, int]


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


def _start_rows(n: int, exact_limit: int = EXACT_START_LIMIT) -> np.ndarray:
    """Start states for a worst-start scan over n states.

    Every state when n <= exact_limit; otherwise the same SAMPLED_STARTS
    states on every call, drawn without replacement from Philox(SeedSequence(3)).
    """
    if n <= exact_limit:
        return np.arange(n)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    return rng.choice(n, size=SAMPLED_STARTS, replace=False)


def _basis(n: int, cols: np.ndarray) -> np.ndarray:
    """n x len(cols) block whose j-th column is the unit vector e_cols[j]."""
    out = np.zeros((n, cols.size))
    out[cols, np.arange(cols.size)] = 1.0
    return out


def _column_gap(cur: np.ndarray, target: np.ndarray) -> float:
    """Half the largest column L1 gap between `cur` and `target` (broadcast).

    On columns that are distributions this is the largest total variation
    distance. The columns go through one reused n x (_GAP_CHUNK + 1) buffer,
    so the scratch stays small however wide `cur` is. The result is bit for
    bit that of `np.abs(cur - target).sum(axis=0)`: numpy sums down the rows
    of a block at least two columns wide in row order, but a lone column
    pairwise, so no chunk is one column unless `cur` is.
    """
    n, w = cur.shape
    edges = list(range(0, w, _GAP_CHUNK)) + [w]
    if len(edges) > 2 and w - edges[-2] == 1:
        del edges[-2]
    buf = np.empty(n * min(w, _GAP_CHUNK + 1))
    target = np.broadcast_to(target, cur.shape)
    peaks = np.empty(len(edges) - 1)
    for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
        part = buf[:n * (hi - lo)].reshape(n, hi - lo)
        np.subtract(cur[:, lo:hi], target[:, lo:hi], out=part)
        np.abs(part, out=part)
        peaks[j] = part.sum(axis=0).max()
    return 0.5 * float(peaks.max())


def _check_scan(epsilon: float, max_steps: int) -> None:
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")


def _first_within(step, state, gap, epsilon: float, max_steps: int, start: int = 0) -> int:
    """First k in start..max_steps with gap(k-th iterate of `step`) <= epsilon.

    The one worst-start scan behind every mixing time: `state` is iterate
    `start` of whatever `step` advances (a column block of the chain, or the
    factor blocks of a Kronecker product whose columns are
    (L^k e_i) (x) (R^k e_u), since (L (x) R)^k = L^k (x) R^k), and `gap`
    reads it as the largest distance of a tracked start from its limit. A
    gap still above epsilon at max_steps raises FailedToConverge; steps
    count from iterate 0. ValueError unless 0 < epsilon < 1 and
    max_steps >= 0, checked before the first step.
    """
    _check_scan(epsilon, max_steps)
    for k in range(start, int(max_steps) + 1):
        d = gap(state)
        if d <= epsilon:
            return k
        if k < max_steps:
            state = step(state)
    raise FailedToConverge(f"distance to limit still {d:.3g} after {max_steps} steps")


def measure_mixing_time(matrix: StochasticMatrix, epsilon: float = 0.25,
                        max_steps: int = 1_000_000) -> int:
    """Smallest k with max-over-starts TV distance to stationarity <= epsilon.

    A start's distance is its row of P^k against pi. Starts come from
    `_start_rows`: every state up to 2000 states, otherwise the fixed 64 that
    `netio.system_mixing_time` also samples. The rows are the columns of the
    block (P')^k. Sampled starts step it through `_first_within`.

    With every start tracked, the worst distance never increases in k
    (Levin, Peres & Wilmer, ch. 4), so the first step within epsilon is
    bracketed by squaring. The block takes sparse steps while k nnz < n^2 / 16,
    where the steps taken cost about one dense product. It is then squared
    while its distance stays above epsilon, keeping the previous power: at
    the first (P')^(2k) within epsilon, one descent level tries
    (P')^k (P')^(k/2) once k/4 sparse steps cost at least that product.
    `_first_within` steps the rest of the interval sparsely from the last
    power above epsilon. At most three n x n blocks are alive. Periodic or
    reducible chains raise NotErgodic.
    """
    _check_scan(epsilon, max_steps)
    target = stationary(matrix)[:, None]
    n = matrix.n
    rows = _start_rows(n)
    step = matrix.csr.T.tocsr().dot

    def gap(cur):
        return _column_gap(cur, target)

    if rows.size < n:
        return _first_within(step, _basis(n, rows), gap, epsilon, max_steps)
    switch = -(-n * n // (16 * matrix.nnz))
    state, k = _basis(n, rows), 0
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

    lower = lambda2 / (2 (1 - lambda2)) * ln(1 / (2 epsilon))
    upper = (ln states + ln(1 / epsilon)) / (1 - lambda2)

    A |lambda_2| of 1 or more gives no bound and raises FailedToConverge.
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
    lower = lambda2 / (2.0 * (1.0 - lambda2)) * math.log(1.0 / (2.0 * epsilon))
    upper = (math.log(states) + math.log(1.0 / epsilon)) / (1.0 - lambda2)
    return lower, upper


def _row_table(matrix: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row cumulatives over the CSR nonzeros, padded to the largest out-degree.

    Returns (cum, targets), both n x w with w the largest out-degree. Row s
    holds the running sums of its nonzeros in column order, which are the
    same floats a dense row cumsum holds at those columns (adding 0.0 is
    exact); its last real entry and its padding are 1.0. targets[s, j] is
    the column of the j-th nonzero.
    """
    csr = matrix.csr.sorted_indices()
    deg = np.diff(csr.indptr)
    n, w = matrix.n, int(deg.max())
    rows = np.repeat(np.arange(n), deg)
    slot = np.arange(csr.nnz) - csr.indptr[rows]
    cum = np.zeros((n, w))
    cum[rows, slot] = csr.data
    np.cumsum(cum, axis=1, out=cum)
    cum[np.arange(w) >= deg[:, None] - 1] = 1.0
    targets = np.zeros((n, w), dtype=np.int64)
    targets[rows, slot] = csr.indices
    return cum, targets


def _step(table, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One synchronous inverse-CDF step: walker i moves from states[i] by u[i]."""
    cum, targets = table
    out = np.empty_like(states)
    chunk = max(1, _CHUNK // cum.shape[1])
    for lo in range(0, states.size, chunk):
        s = states[lo:lo + chunk]
        pick = (cum[s] < u[lo:lo + chunk, None]).sum(axis=1)
        out[lo:lo + chunk] = targets[s, pick]
    return out


def _run_coupling(table, pairs_x, pairs_y, step_cap, rng):
    """Coupling times for each (x, y) walker pair; -1 marks a capped trial.

    Each step draws one uniform per live walker, the x walkers first; pairs
    that met drop out at the end of that step.
    """
    k = np.full(pairs_x.size, -1, dtype=np.int64)
    live = pairs_x != pairs_y
    k[~live] = 0
    ids = np.flatnonzero(live)
    walk = np.stack([pairs_x[ids], pairs_y[ids]])
    steps = 0
    while ids.size and steps < step_cap:
        steps += 1
        walk = _step(table, walk.ravel(), rng.random(walk.size)).reshape(2, -1)
        met = walk[0] == walk[1]
        if met.any():
            k[ids[met]] = steps
            ids, walk = ids[~met], walk[:, ~met]
    return k


def estimate_coupling_time(matrix: StochasticMatrix, trials: int = 1000,
                           step_cap: int = 10_000_000, rng=None) -> CouplingEstimate:
    """Monte-Carlo mean of the meeting time of two independent walks.

    Start pairs: the worst of 32 random pairs, or of every pair when the
    chain has at most 40 states. Walks move independently until they meet.
    Trials that never couple within step_cap are excluded from the mean and
    reported in `capped`; AllTrialsCapped if none couple. ValueError if
    trials < 1 or step_cap < 1.

    Walkers sample from the CSR row cumulatives (`_row_table`): a step costs
    O(w) per live walker and the table O(n w) memory, w the largest
    out-degree. A hub row of degree about n makes that n^2, the cost of a
    dense CDF.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if step_cap < 1:
        raise ValueError(f"step_cap must be at least 1, got {step_cap}")
    ergodicity_check(matrix)
    n = matrix.n
    rng = rng or np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    if n == 1:
        return CouplingEstimate(0.0, 0.0, trials, 0, (0, 0))
    table = _row_table(matrix)

    if n <= 40:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        seen = set()
        while len(seen) < 32:
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if i != j:
                seen.add((min(i, j), max(i, j)))
        pairs = sorted(seen)

    worst = pairs[0]
    if len(pairs) > 1:
        pilot = max(8, trials // 50)
        px = np.repeat([p[0] for p in pairs], pilot)
        py = np.repeat([p[1] for p in pairs], pilot)
        ks = _run_coupling(table, px, py, step_cap, rng).astype(np.float64)
        ks[ks < 0] = float(step_cap)
        means = ks.reshape(len(pairs), pilot).mean(axis=1)
        worst = pairs[int(np.argmax(means))]

    px = np.full(trials, worst[0], dtype=np.int64)
    py = np.full(trials, worst[1], dtype=np.int64)
    ks = _run_coupling(table, px, py, step_cap, rng)
    coupled = ks[ks >= 0]
    capped = int((ks < 0).sum())
    if coupled.size == 0:
        raise AllTrialsCapped(f"no trial coupled within {step_cap} steps")
    mean = float(coupled.mean())
    stderr = float(coupled.std(ddof=1) / math.sqrt(coupled.size)) if coupled.size > 1 else 0.0
    return CouplingEstimate(mean, stderr, trials, capped, worst)


def expected_absorbing_time(matrix: StochasticMatrix,
                            decomp: SccDecomposition | None = None) -> AbsorbingTimes:
    """Exact expected times to enter the union of closed components.

    Solves (I - Z) h = 1 on the transient block.
    """
    if decomp is None:
        decomp = scc_decompose(matrix.to_graph())
    if not any(decomp.closed):
        raise StructuralError("graph has no closed component")
    node_h = np.zeros(matrix.n)
    transient = decomp.transient_nodes()
    if transient.size:
        z = matrix.minor(transient, transient)
        node_h[transient] = _solve_fundamental(z, np.ones(transient.size))
    return AbsorbingTimes(node_h, float(node_h.max()))


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


def theorem_bound(l_g: float, l_t: float, h_g: float, h_t: float,
                  epsilon: float) -> float:
    """Composite convergence-time bound 32 (max L + max H) ln(1/epsilon)."""
    for name, v in (("l_g", l_g), ("l_t", l_t), ("h_g", h_g), ("h_t", h_t)):
        if not v >= 0:  # NaN fails this check too
            raise ValueError(f"{name} must be non-negative, got {v}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return 32.0 * (max(l_g, l_t) + max(h_g, h_t)) * math.log(1.0 / epsilon)


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
    (L')^k e_i (x) (R')^k e_u, against the limit pi_L (x) pi_R, over the
    starts of `_start_rows`. Factors must be ergodic; ValueError if k < 0.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    target = np.kron(stationary(left), stationary(right))[:, None]
    lk = np.linalg.matrix_power(left.dense().T, int(k))
    rk = np.linalg.matrix_power(right.dense().T, int(k))
    i, u = np.divmod(_start_rows(left.n * right.n), right.n)
    cols = (lk[:, None, i] * rk[None, :, u]).reshape(left.n * right.n, -1)
    return _column_gap(cols, target)


def analyze_mixing(matrix: StochasticMatrix, epsilon: float = 0.25,
                   trials: int = 300, rng=None) -> MixingReport:
    """Bundle t_mix, spectral bounds, and a coupling estimate for one chain.

    `rng` drives only the coupling estimate; above 2000 states t_mix scans
    `measure_mixing_time`'s fixed 64 starts.
    """
    report = MixingReport(epsilon=epsilon)
    report.t_mix = measure_mixing_time(matrix, epsilon)
    report.lambda2_abs = second_eigenvalue(matrix)
    report.lower_bound, report.upper_bound = spectral_bounds(report.lambda2_abs, matrix.n,
                                                             epsilon)
    report.coupling = estimate_coupling_time(matrix, trials=trials, rng=rng)
    report.theorem_bound = coupling_bound(report.coupling.mean, 0.0, epsilon)
    return report
