"""Correctness checks for every operation of a run, without kronmix.

References come from closed forms, from exact solves on chains this module
builds itself from the family definitions, and from cross-method agreement.
None of them depends on the seed, so a claim can be re-run on a new seed.
Tolerances are stated next to the check with the reason for their size.

`check_run` returns (attempted, failed, messages): one operation per entry of
each pass, failed when the program raised or any check on it failed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

import edgelist
import workloads as w

Z_SCORE = 5.0  # coupling means: |mean - exact| <= 5 standard errors
GAP_REL_TOL = 1e-4  # |lambda_2| estimate: 4 correct digits of the spectral gap
FORMULA_REL_TOL = 1e-9  # formulas recomputed from printed (10-digit) CSV values
EXACT_TOL = 1e-9  # closed forms and direct solves of well-conditioned systems
# simulate and stubborn_limit stop once a step changes the beliefs by at most
# 1e-10; the distance left to the limit is at most that change times
# rho / (1 - rho) for a contraction rate rho, which 1e-8 covers up to 0.99
STEP_STOP = 1e-10
ITERATIVE_TOL = 1e-8
# F(X) - X after a stop is at most the last step change; 10x for rounding
RESIDUAL_TOL = 10 * STEP_STOP
STATIONARY_RESIDUAL = 1e-12  # stochastic.stationary's L1 stopping residual
STEP_LIMIT = 10**6  # reference mixing times give up after this many steps


# -- chains built from the family definitions ---------------------------------

def lazy(adj: np.ndarray) -> np.ndarray:
    """alpha = 1/2 lazy walk of a 0/1 adjacency matrix (self-loops ignored)."""
    adj = np.array(adj, dtype=np.float64)
    np.fill_diagonal(adj, 0.0)
    deg = adj.sum(axis=1)
    out = np.where(deg[:, None] > 0, w.ALPHA * adj / np.maximum(deg, 1)[:, None], 0.0)
    out[np.arange(len(adj)), np.arange(len(adj))] = np.where(deg > 0, w.ALPHA, 1.0)
    return out


def cycle(n):
    adj = np.zeros((n, n))
    adj[np.arange(n), (np.arange(n) + 1) % n] = adj[(np.arange(n) + 1) % n, np.arange(n)] = 1
    return adj


def directed_path(n):
    adj = np.zeros((n, n))
    adj[np.arange(n - 1), np.arange(1, n)] = 1
    return adj


def hypercube(n):
    k = int(round(math.log2(n)))
    v = np.arange(n)
    adj = np.zeros((n, n))
    for b in range(k):
        adj[v, v ^ (1 << b)] = 1
    return adj


def lollipop(n):
    head = max(2, (n + 1) // 2)
    adj = np.zeros((n, n))
    adj[:head, :head] = 1
    np.fill_diagonal(adj, 0.0)
    idx = np.arange(head - 1, n - 1)
    adj[idx, idx + 1] = adj[idx + 1, idx] = 1
    return adj


def stationary_krylov(p: sp.spmatrix) -> np.ndarray:
    """pi from (I - P' + 1 1') pi = 1 by GMRES, nonsingular for irreducible P.

    A Krylov solve, not power iteration, so it does not share the program's
    method; a sparse LU would fill in on an expander-like graph.
    """
    n = p.shape[0]
    pt = sp.csr_matrix(p).T.tocsr()
    op = spla.LinearOperator((n, n), matvec=lambda v: v - pt @ v + v.sum(), dtype=np.float64)
    pi, info = spla.gmres(op, np.ones(n), rtol=1e-14, atol=0.0, restart=100, maxiter=1000)
    if info != 0:
        raise RuntimeError(f"reference stationary solve did not converge ({info})")
    return pi


def spectral_gap(p: np.ndarray, pi: np.ndarray) -> float:
    """1 - |lambda_2| of a reversible chain from the symmetrized dense matrix."""
    d = np.sqrt(pi)
    s = d[:, None] * p / d[None, :]
    moduli = np.sort(np.abs(np.linalg.eigvalsh((s + s.T) / 2)))
    return 1.0 - moduli[-2]


def mixing_time(dist, target, step) -> int:
    """First t >= 0 with half-L1(dist_t - target) <= epsilon; dist_t = step(dist_{t-1})."""
    for t in range(STEP_LIMIT):
        if 0.5 * np.abs(dist - target).sum(axis=-1).max() <= w.EPSILON:
            return t
        dist = step(dist)
    raise RuntimeError("reference mixing time not reached")


def hypercube_mixing_time(k: int) -> int:
    """Exact t_mix of the lazy k-cube: the walk's Hamming weight is a birth-death chain."""
    weights = np.arange(k + 1)
    binom = np.array([math.comb(k, j) for j in weights], dtype=np.float64) / 2**k
    lump = np.diag(np.full(k + 1, 0.5))
    lump[weights[1:], weights[1:] - 1] = 0.5 * weights[1:] / k
    lump[weights[:-1], weights[:-1] + 1] = 0.5 * (k - weights[:-1]) / k
    start = np.zeros(k + 1)
    start[0] = 1.0
    return mixing_time(start, binom, lambda d: d @ lump)


def hypercube_meeting_time(k: int, distance: int) -> float:
    """Exact meeting time of two independent lazy k-cube walks at Hamming distance d.

    The xor of the walkers moves by zero flips (neither moves), one flip or two
    sequential flips (both move); its Hamming weight is a chain on 0..k.
    """
    flip = np.zeros((k + 1, k + 1))
    j = np.arange(k + 1)
    flip[j[1:], j[1:] - 1] = j[1:] / k
    flip[j[:-1], j[:-1] + 1] = (k - j[:-1]) / k
    step = 0.25 * np.eye(k + 1) + 0.5 * flip + 0.25 * flip @ flip
    z = step[1:, 1:]
    h = np.linalg.solve(np.eye(k) - z, np.ones(k))
    return float(h[distance - 1]) if distance else 0.0


def meeting_times(p: np.ndarray) -> np.ndarray:
    """Exact expected meeting time of two independent walks from every pair.

    Solves the chain on unordered pairs of distinct states; returns an n x n
    symmetric matrix with a zero diagonal.
    """
    n = len(p)
    iu, ju = np.triu_indices(n, 1)
    index = -np.ones((n, n), dtype=np.int64)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    ps = sp.csr_matrix(p)
    q = sp.kron(ps, ps, format="coo")
    src_x, src_y, dst_x, dst_y = q.row // n, q.row % n, q.col // n, q.col % n
    keep = (src_x < src_y) & (dst_x != dst_y)
    z = sp.csr_matrix((q.data[keep], (index[src_x[keep], src_y[keep]],
                                      index[dst_x[keep], dst_y[keep]])),
                      shape=(iu.size, iu.size))
    h = spla.spsolve((sp.eye(iu.size) - z).tocsc(), np.ones(iu.size))
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = h
    return out


def close(value, ref, rel=0.0, abs_tol=0.0) -> bool:
    return value is not None and abs(float(value) - ref) <= max(abs_tol, rel * abs(ref))


# -- per-workload references and checks ---------------------------------------

class Checker:
    """References of one workload and seed; `check(op)` lists failed checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.refs = getattr(self, f"_refs_{workload.replace('-', '_')}")()

    def check(self, op: dict, extra: dict) -> list[str]:
        if op["error"]:
            return [op["error"]]
        fn = getattr(self, f"_check_{self.workload.replace('-', '_')}")
        problems = []
        try:
            for name, ok in fn(op["name"], op["out"], extra):
                if not ok:
                    problems.append(name)
        except Exception as exc:  # a malformed output fails its operation
            problems.append(f"output not checkable: {type(exc).__name__}: {exc}")
        return problems

    # readme-sweep: cycle(n) agents x lazy directed path(10) constraints

    def _refs_readme_sweep(self):
        refs = {}
        c = lazy(directed_path(w.SWEEP_M))
        z = c[:-1, :-1]
        refs["H"] = float(np.linalg.solve(np.eye(w.SWEEP_M - 1) - z, np.ones(w.SWEEP_M - 1)).max())
        for index, n in enumerate(w.SWEEP_NS):
            a = lazy(cycle(n))
            gap = (1.0 - math.cos(2 * math.pi / n)) / 2.0
            meet = meeting_times(a)[0, 1:]
            x0 = w.sweep_x0(self.seed, index, n)
            refs[n] = {"lambda2": 1.0 - gap, "meet_lo": meet.min(), "meet_hi": meet.max(),
                       "consensus": float(x0[:, -1].mean()),
                       "t_mix": self._sweep_t_mix(a, c, n)}
        return refs

    @staticmethod
    def _sweep_t_mix(a, c, n):
        """t_mix over the columns netio.system_mixing_time documents it tracks.

        That is every column when the system has at most 256 states, else 64
        columns drawn from SeedSequence(3). Column (i, u) of the k-th power of
        A (x) C is A^k e_i (x) C^k e_u and its limit is pi_A[i] [u = m - 1]
        times the all-ones vector; the cycle is circulant, so only u matters.
        Anchor columns never move.
        """
        m = c.shape[0]
        dim = 2 * n * m
        if dim <= 256:
            cols = np.arange(dim)
        else:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
            cols = rng.choice(dim, size=64, replace=False)
        sampled_u = np.unique(cols[cols < n * m] % m)
        target = np.zeros(m)
        target[-1] = 1.0 / n
        a_col = np.zeros(n)
        a_col[0] = 1.0
        c_pow = np.eye(m)
        for k in range(STEP_LIMIT):
            dist = 0.5 * np.abs(a_col[:, None, None] * c_pow[None, :, :] - target).sum(axis=(0, 1))
            if dist[sampled_u].max() <= w.EPSILON:
                return k
            a_col = a @ a_col
            c_pow = c @ c_pow
        raise RuntimeError("reference system mixing time not reached")

    def _check_readme_sweep(self, name, row, extra):
        n = int(name.split("=")[1])
        ref = self.refs[n]
        num = {k: float(v) for k, v in row.items()
               if k not in ("converges", "error") and v != ""}
        lam2, se = num.get("lambda2"), num.get("coupling_se", 0.0)
        log = math.log
        yield "n and m", num.get("n") == n and num.get("m") == w.SWEEP_M
        yield "verdict", row["converges"] == "true"
        yield "t_mix exact", num.get("t_mix") == ref["t_mix"]
        yield "lambda_2 gap", lam2 is not None and abs((1 - lam2) - (1 - ref["lambda2"])) <= \
            GAP_REL_TOL * (1 - ref["lambda2"])
        if lam2 is not None:
            # the printed lambda_2 (10 digits) is off by up to 5e-11, which moves
            # 1 / (1 - lambda_2) by 5e-11 / (1 - lambda_2) relative; 2x headroom
            tol = FORMULA_REL_TOL + 1e-10 / (1 - lam2)
            yield "lower bound formula", close(num.get("lower_bound"), lam2 / (2 * (1 - lam2))
                                               * log(1 / (2 * w.EPSILON)), tol)
            yield "upper bound formula", close(num.get("upper_bound"), (
                log(max(2, n * w.SWEEP_M)) + log(1 / w.EPSILON)) / (1 - lam2), tol)
        coupling = num.get("coupling_L")
        # The row reports no start pair, so this check only catches gross
        # errors: the range from the nearest to the farthest start pair spans
        # 2.3x at n = 11 and 25x at n = 101. It cannot be narrowed to the
        # worst pair: the program picks its pair by 8-trial pilot means, and
        # in 900 simulated pilots on these cycles the picked pair's exact
        # meeting time fell to 0.27 of the largest. The estimator itself is
        # checked tightly on its reported start pair in mixing-report.
        yield "coupling within exact meeting-time range", coupling is not None and \
            ref["meet_lo"] - Z_SCORE * se <= coupling <= ref["meet_hi"] + Z_SCORE * se
        yield "absorbing H", close(num.get("absorbing_H"), self.refs["H"], abs_tol=EXACT_TOL)
        yield "theorem bound formula", coupling is not None and close(
            num.get("theorem_bound"), 32 * (coupling + self.refs["H"]) * log(1 / w.EPSILON),
            FORMULA_REL_TOL)
        yield "limit consensus closed form", close(num.get("limit_consensus"), ref["consensus"],
                                                   abs_tol=EXACT_TOL)
        sim = extra.get(f"simulate n={n}")
        # the sweep's slowest mode is the cycle's, so rho = lambda_2 (10x headroom)
        yield "limit consensus vs simulate", sim is not None and sim["error"] is None and \
            np.abs(sim["out"]["beliefs"] - num.get("limit_consensus", np.nan)).max() \
            <= 10 * STEP_STOP / (1 - ref["lambda2"])

    # mixing-report

    def _refs_mixing_report(self):
        hyper = lazy(hypercube(w.FACTOR_HYPERCUBE_N))
        cyc = lazy(cycle(w.FACTOR_CYCLE_N))
        lol_adj = lollipop(w.LOLLIPOP_N)
        lol = lazy(lol_adj)
        pi_lol = lol_adj.sum(axis=1) / lol_adj.sum()
        pi_h = np.full(len(hyper), 1.0 / len(hyper))
        pi_c = np.full(len(cyc), 1.0 / len(cyc))

        def product_distance(k):
            # both factors are Cayley graphs, so every start is as far as (0, 0)
            a = np.linalg.matrix_power(hyper, k)[0]
            c = np.linalg.matrix_power(cyc, k)[0]
            return 0.5 * float(np.abs(np.outer(a, c) - np.outer(pi_h, pi_c)).sum())

        start_h = np.eye(len(hyper))[0]
        start_c = np.eye(len(cyc))[0]
        return {
            "t_hypercube": hypercube_mixing_time(int(math.log2(w.HYPERCUBE_N))),
            "t_lollipop": mixing_time(np.eye(len(lol)), pi_lol, lambda d: d @ lol),
            "t_a": hypercube_mixing_time(int(math.log2(w.FACTOR_HYPERCUBE_N))),
            "t_c": mixing_time(start_c, pi_c, lambda d: d @ cyc),
            "t_prod": mixing_time(np.outer(start_h, start_c).ravel(),
                                  np.outer(pi_h, pi_c).ravel(),
                                  lambda d: (hyper.T @ d.reshape(len(hyper), -1) @ cyc).ravel()),
            "gap_hypercube": 1.0 / math.log2(w.HYPERCUBE_N),
            "gap_lollipop": spectral_gap(lol, pi_lol),
            "pi_lollipop": pi_lol,
            "meet_lollipop": meeting_times(lol),
            "meet_cycle": meeting_times(cyc),
            "kron": (len(hyper) * len(cyc), int((hyper > 0).sum() * (cyc > 0).sum())),
            "product_distance": product_distance,
        }

    def _check_coupling(self, est, exact):
        return (abs(est["mean"] - exact) <= Z_SCORE * est["stderr"]
                and est["capped"] == 0 and est["stderr"] > 0)

    def _check_report(self, out, t_ref, gap_ref, meeting):
        log = math.log
        lam2 = out["lambda2"]
        yield "t_mix exact", out["t_mix"] == t_ref
        yield "lambda_2 gap", abs((1 - lam2) - gap_ref) <= GAP_REL_TOL * gap_ref
        yield "lower bound formula", close(out["lower"], lam2 / (2 * (1 - lam2))
                                           * log(1 / (2 * w.EPSILON)), 1e-12)
        yield "coupling within z standard errors of exact", self._check_coupling(
            out["coupling"], meeting(*out["coupling"]["start_pair"]))
        yield "coupling bound formula", close(out["bound"], 4 * out["coupling"]["mean"]
                                              * log(1 / w.EPSILON), 1e-12)

    def _check_mixing_report(self, name, out, extra):
        r = self.refs
        k = int(math.log2(w.HYPERCUBE_N))
        kf = int(math.log2(w.FACTOR_HYPERCUBE_N))
        ts = extra.get("t_mix", {})
        if name == "analyze_mixing hypercube":
            yield from self._check_report(out, r["t_hypercube"], r["gap_hypercube"],
                                          lambda x, y: hypercube_meeting_time(k, bin(x ^ y).count("1")))
        elif name == "analyze_mixing lollipop":
            yield from self._check_report(out, r["t_lollipop"], r["gap_lollipop"],
                                          lambda x, y: r["meet_lollipop"][x, y])
        elif name == "stationary lollipop":
            # an L1 residual bounds the error only up to the inverse spectral gap
            tol = 10 * STATIONARY_RESIDUAL / r["gap_lollipop"]
            yield "pi proportional to degree", np.abs(out - r["pi_lollipop"]).sum() <= tol
        elif name == "kron product":
            yield "product size and nonzeros", (out["n"], out["nnz"]) == r["kron"]
        elif name == "t_mix product":
            yield "t_mix exact", out == r["t_prod"]
            yield "AC6 max(t_A, t_C) <= t_prod <= 8 max + 4", \
                max(ts.get("a", -1), ts.get("c", -1)) <= out <= 8 * max(r["t_a"], r["t_c"]) + 4
        elif name == "t_mix hypercube":
            yield "t_mix exact", out == r["t_a"]
        elif name == "t_mix cycle":
            yield "t_mix exact", out == r["t_c"]
        elif name == "coupling hypercube":
            x, y = out["start_pair"]
            yield "coupling within z standard errors of exact", self._check_coupling(
                out, hypercube_meeting_time(kf, bin(x ^ y).count("1")))
        elif name == "coupling cycle":
            yield "coupling within z standard errors of exact", self._check_coupling(
                out, r["meet_cycle"][tuple(out["start_pair"])])
        elif name == "theorem_bound":
            la, lc = extra["coupling"]
            yield "theorem bound formula", close(out, 32 * max(la, lc) * math.log(1 / w.EPSILON),
                                                 1e-12)
        elif name == "product distance":
            yield "AC7 distance <= epsilon", out["distance"] <= w.EPSILON
            yield "distance exact", close(out["distance"], r["product_distance"](out["k"]),
                                          abs_tol=EXACT_TOL)
            near = extra.get("distance near t_mix", [])
            yield "distance exact at t_mix - 1 and t_mix", len(near) == 2 and all(
                op["error"] is None and close(op["out"]["distance"],
                                              r["product_distance"](op["out"]["k"]), EXACT_TOL)
                for op in near)

    # dataset-system

    def _refs_dataset_system(self):
        src, dst = edgelist.generate(self.seed)
        ids, idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
        n_raw = ids.size
        pairs = np.unique(np.stack([idx[: src.size], idx[src.size:]], axis=1), axis=0)
        adj = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n_raw, n_raw))
        count, labels = csgraph.connected_components(adj, directed=True, connection="strong")
        sizes = np.bincount(labels)
        smallest_id = np.full(count, n_raw)
        np.minimum.at(smallest_id, labels, np.arange(n_raw))
        best = min(range(count), key=lambda cid: (-sizes[cid], smallest_id[cid]))
        nodes = np.flatnonzero(labels == best)
        sub = adj[nodes][:, nodes]
        p_agents = self._lazy_sparse(sub)
        p_raw = self._lazy_sparse(adj)

        # expected absorbing times of the lazified raw graph
        cond_out = np.zeros(count, dtype=bool)
        cross = labels[pairs[:, 0]] != labels[pairs[:, 1]]
        cond_out[labels[pairs[cross, 0]]] = True
        transient = np.flatnonzero(cond_out[labels])
        h = np.zeros(n_raw)
        if transient.size:
            z = p_raw[transient][:, transient]
            h[transient] = spla.spsolve((sp.eye(transient.size) - z).tocsc(),
                                        np.ones(transient.size))
        x0, lam = w.dataset_inputs(self.seed, nodes.size)
        pi = stationary_krylov(p_agents)
        ring = lazy(self._ring_adj())
        return {"raw": (n_raw, len(pairs)), "ids": ids[nodes],
                "scc": (nodes.size, sub.nnz),
                "agent_nnz": int(sub.nnz - sub.diagonal().astype(bool).sum() + nodes.size),
                "h": h, "x0": x0, "lam": lam, "pi": pi, "p": p_agents, "ring": ring,
                "consensus": float(pi @ x0.mean(axis=1))}

    @staticmethod
    def _ring_adj():
        m, k = w.RING_M, w.RING_K
        adj = np.zeros((m, m))
        for j in range(1, k + 1):
            adj[np.arange(m), (np.arange(m) + j) % m] = 1
        return adj

    @staticmethod
    def _lazy_sparse(adj: sp.csr_matrix) -> sp.csr_matrix:
        adj = sp.csr_matrix(adj, dtype=np.float64)
        adj = (adj - sp.diags(adj.diagonal())).tocsr()
        adj.eliminate_zeros()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        scale = np.where(deg > 0, w.ALPHA / np.maximum(deg, 1), 0.0)
        return (sp.diags(scale) @ adj + sp.diags(np.where(deg > 0, w.ALPHA, 1.0))).tocsr()

    def _check_dataset_system(self, name, out, extra):
        r = self.refs
        n = r["ids"].size
        if name == "load_edgelist":
            yield "raw node and edge counts", (out["nodes"], out["edges"]) == r["raw"]
        elif name == "largest_scc":
            yield "largest SCC counts", (out["nodes"], out["edges"]) == r["scc"]
            yield "largest SCC ids", np.array_equal(out["ids"], r["ids"])
        elif name == "agent chain":
            yield "agent chain size and nonzeros", (out["n"], out["nnz"]) == (n, r["agent_nnz"])
        elif name == "absorbing time":
            scale = max(1.0, float(r["h"].max()))
            yield "absorbing times vs direct solve", out["h"].shape == r["h"].shape and \
                np.abs(out["h"] - r["h"]).max() <= EXACT_TOL * scale
            yield "max absorbing time", close(out["max"], float(r["h"].max()), abs_tol=EXACT_TOL * scale)
        elif name == "assemble":
            yield "inputs", np.array_equal(out["x0"], r["x0"]) and np.array_equal(out["lam"], r["lam"])
        elif name == "converges oblivious":
            yield "verdict", out == {"converges": True, "witnesses": 0, "oblivious": n}
        elif name == "converges stubborn":
            # the agent graph is strongly connected, so every agent hears a stubborn one
            yield "verdict", out == {"converges": True, "witnesses": 0, "oblivious": 0}
        elif name == "structural_limit":
            yield "consensus vs (pi_A x pi_C)' x0", close(out["consensus"], r["consensus"],
                                                          abs_tol=EXACT_TOL)
            yield "beliefs at consensus", np.abs(out["beliefs"] - r["consensus"]).max() <= EXACT_TOL
        elif name == "simulate oblivious":
            limit = extra.get("structural_limit")
            yield "simulate vs structural_limit", out["converged"] and limit is not None and \
                np.abs(out["beliefs"].reshape(limit.shape) - limit).max() <= ITERATIVE_TOL
        elif name == "stubborn_limit":
            x = out["beliefs"]
            fixed = r["lam"][:, None] * (r["p"] @ (x @ r["ring"].T)) + (1 - r["lam"][:, None]) * r["x0"]
            yield "fixed-point residual", np.abs(fixed - x).max() <= RESIDUAL_TOL
        elif name == "simulate stubborn":
            limit = extra.get("stubborn_limit")
            yield "simulate vs stubborn_limit", out["converged"] and limit is not None and \
                np.abs(out["beliefs"].reshape(limit.shape) - limit).max() <= ITERATIVE_TOL
        elif name == "social_power":
            order, weights = out["order"], out["weights"]
            yield "order is a permutation", np.array_equal(np.sort(order), np.arange(n))
            yield "weights sorted", bool(np.all(np.diff(weights) <= 0))
            # L1 residual 1e-12 over a spectral gap well above 1e-3 on this expander
            yield "weights vs direct stationary solve", np.abs(weights - r["pi"][order]).sum() <= \
                STATIONARY_RESIDUAL / 1e-3
            yield "cumulative share", close(out["cumulative"][-1], 1.0, abs_tol=EXACT_TOL)


def _pass_extra(workload: str, ops: list[dict], crosscheck: list[dict]) -> dict:
    """Outputs that checks of other operations in the same pass compare against."""
    done = {op["name"]: op["out"] for op in ops if op["error"] is None}
    if workload == "readme-sweep":
        return {op["name"]: op for op in crosscheck}
    if workload == "mixing-report":
        extra = {"t_mix": {"a": done.get("t_mix hypercube", -1), "c": done.get("t_mix cycle", -1)},
                 "distance near t_mix": crosscheck}
        if "coupling hypercube" in done and "coupling cycle" in done:
            extra["coupling"] = (done["coupling hypercube"]["mean"], done["coupling cycle"]["mean"])
        return extra
    extra = {}
    for key in ("structural_limit", "stubborn_limit"):
        if key in done:
            extra[key] = done[key]["beliefs"]
    return extra


def check_run(workload: str, seed: int, passes: list[dict], crosscheck: list[dict]):
    checker = Checker(workload, seed)
    attempted = failed = 0
    messages = []
    for index, record in enumerate(passes):
        extra = _pass_extra(workload, record["ops"], crosscheck)
        for op in record["ops"]:
            attempted += 1
            problems = checker.check(op, extra)
            if problems:
                failed += 1
                messages.append(f"pass {index} {op['name']}: {'; '.join(problems)}")
    return attempted, failed, messages
