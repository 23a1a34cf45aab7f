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


def _start_rows(n: int, rng, exact_limit: int = EXACT_START_LIMIT) -> np.ndarray:
    """Start states for a worst-start scan over n states.

    Every state when n <= exact_limit; otherwise SAMPLED_STARTS states drawn
    without replacement from `rng`, by default Philox(SeedSequence(3)).
    """
    if n <= exact_limit:
        return np.arange(n)
    rng = rng or np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    return rng.choice(n, size=SAMPLED_STARTS, replace=False)


def _basis(n: int, cols: np.ndarray) -> np.ndarray:
    """n x len(cols) block whose j-th column is the unit vector e_cols[j]."""
    out = np.zeros((n, cols.size))
    out[cols, np.arange(cols.size)] = 1.0
    return out


def _column_gap(cur: np.ndarray, target: np.ndarray) -> float:
    """Half the largest column L1 gap between `cur` and `target` (broadcast).

    On columns that are distributions this is the largest total variation
    distance.
    """
    return 0.5 * float(np.abs(cur - target).sum(axis=0).max())


def _first_within(step, state, gap, epsilon: float, max_steps: int) -> int:
    """First k in 0..max_steps with gap(k-th iterate of `step` on `state`) <= epsilon.

    The one worst-start scan behind every mixing time: `state` is whatever
    `step` advances (a column block of the chain, or the factor blocks of a
    Kronecker product whose columns are (L^k e_i) (x) (R^k e_u), since
    (L (x) R)^k = L^k (x) R^k), and `gap` reads it as the largest distance
    of a tracked start from its limit. A gap still above epsilon at
    max_steps raises FailedToConverge. ValueError unless 0 < epsilon < 1 and
    max_steps >= 0, checked before the first step.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    for k in range(int(max_steps) + 1):
        d = gap(state)
        if d <= epsilon:
            return k
        if k < max_steps:
            state = step(state)
    raise FailedToConverge(f"distance to limit still {d:.3g} after {max_steps} steps")


def measure_mixing_time(matrix: StochasticMatrix, epsilon: float = 0.25,
                        rng=None, max_steps: int = 1_000_000) -> int:
    """Smallest k with max-over-starts TV distance to stationarity <= epsilon.

    Starts come from `_start_rows`: every state up to 2000 states, otherwise
    64 drawn from `rng` (by default Philox(SeedSequence(3))). The
    distributions step as columns of P' through `_first_within`. Periodic or
    reducible chains raise NotErgodic.
    """
    target = stationary(matrix)[:, None]
    rows = _start_rows(matrix.n, rng)
    return _first_within(matrix.csr.T.tocsr().dot, _basis(matrix.n, rows),
                         lambda cur: _column_gap(cur, target), epsilon, max_steps)


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
    """
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
                           step_cap: int = 10_000_000, rng=None,
                           pairs=None) -> CouplingEstimate:
    """Monte-Carlo mean of the meeting time of two independent walks.

    Start pairs: the worst of 32 random pairs, plus every pair when the chain
    has at most 40 states (override with `pairs`). Walks move independently
    until they meet. Trials that never couple within step_cap are excluded
    from the mean and reported in `capped`; AllTrialsCapped if none couple.
    ValueError if trials < 1.

    Walkers sample from the CSR row cumulatives (`_row_table`): a step costs
    O(w) per live walker and the table O(n w) memory, w the largest
    out-degree. A hub row of degree about n makes that n^2, the cost of a
    dense CDF.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ergodicity_check(matrix)
    n = matrix.n
    rng = rng or np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    if n == 1:
        return CouplingEstimate(0.0, 0.0, trials, 0, (0, 0))
    table = _row_table(matrix)

    if pairs is None:
        if n <= 40:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            seen = set()
            while len(seen) < 32:
                i, j = int(rng.integers(n)), int(rng.integers(n))
                if i != j:
                    seen.add((min(i, j), max(i, j)))
            pairs = sorted(seen)
    pairs = list(pairs)

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


def product_distance_to_limit(left: StochasticMatrix, right: StochasticMatrix,
                              k: int, rng=None) -> float:
    """Distance to the limit at step k for the pure product operator L x R.

    Exploits (L x R)^k = L^k x R^k: column (i, u) of the product power is the
    Kronecker product of factor columns i and u, and its limit is
    pi_L[i] pi_R[u] in every row, so the worst simplex-vertex start is the
    `_column_gap` of one block built from the factors. Starts come from
    `_start_rows`, as in `measure_mixing_time`: every product state up to
    2000, otherwise 64 drawn from `rng` (by default Philox(SeedSequence(3))).
    Factors must be ergodic; ValueError if k < 0.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    pi_l = stationary(left)
    pi_r = stationary(right)
    lk = np.linalg.matrix_power(left.dense(), int(k))
    rk = np.linalg.matrix_power(right.dense(), int(k))
    i, u = np.divmod(_start_rows(left.n * right.n, rng), right.n)
    cols = (lk[:, None, i] * rk[None, :, u]).reshape(left.n * right.n, -1)
    return _column_gap(cols, pi_l[i] * pi_r[u])


def analyze_mixing(matrix: StochasticMatrix, epsilon: float = 0.25,
                   trials: int = 300, rng=None) -> MixingReport:
    """Bundle t_mix, spectral bounds, and a coupling estimate for one chain."""
    report = MixingReport(epsilon=epsilon)
    report.t_mix = measure_mixing_time(matrix, epsilon, rng=rng)
    report.lambda2_abs = second_eigenvalue(matrix)
    report.lower_bound, report.upper_bound = spectral_bounds(report.lambda2_abs, matrix.n,
                                                             epsilon)
    report.coupling = estimate_coupling_time(matrix, trials=trials, rng=rng)
    report.theorem_bound = coupling_bound(report.coupling.mean, 0.0, epsilon)
    return report
