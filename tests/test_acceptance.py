"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 10 needs the SNAP datasets under ./data (or $KRONMIX_DATA) and is
skipped with instructions otherwise.
"""

import math
import os

import numpy as np
import pytest

from kronmix.beliefs import assemble, converges, simulate, system_matrix
from kronmix.generators import TopologySpec, generate, lazify
from kronmix.graphs import DirectedGraph, scc_decompose
from kronmix.kron import kron, kron_graph
from kronmix.limits import (absorbing_probabilities, limit_matrix,
                            structural_limit, stubborn_limit)
from kronmix.mixing import (estimate_coupling_time, expected_absorbing_time,
                            measure_mixing_time, product_distance_to_limit,
                            second_eigenvalue, spectral_bounds)
from kronmix.netio import largest_scc, load_edgelist
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix, stationary
from oracles import (dense_system_operator, distance_to_limit_curve,
                     empirical_convergence, mc_absorption_time, product_mixing_time)

DATA_DIR = os.environ.get("KRONMIX_DATA", "data")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def philox(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def random_chain(rng, size, allow_periodic=True) -> StochasticMatrix:
    """Equal-weight chain from a structured random digraph menu."""
    kind = rng.integers(5 if allow_periodic else 3)
    if kind == 0:  # dense-ish random digraph, lazified when dangling
        edges = [(i, j) for i in range(size) for j in range(size)
                 if rng.random() < 0.45]
        g = DirectedGraph(size, edges)
        deg = np.zeros(size)
        np.add.at(deg, g.sources, 1)
        if size and (deg.min() == 0 or rng.random() < 0.5):
            g = lazify(g, float(rng.uniform(0.15, 0.6)))
    elif kind == 1:  # complete graph
        g = generate(TopologySpec("complete", max(2, size)))
    elif kind == 2:  # undirected cycle, lazified half the time
        g = generate(TopologySpec("cycle", max(3, size)))
        if rng.random() < 0.5:
            g = lazify(g, 0.4)
    elif kind == 3:  # undirected cycle (possibly even: period 2)
        g = generate(TopologySpec("cycle", max(3, size)))
    else:  # directed cycle: period = size
        g = generate(TopologySpec("cycle", max(2, size), directed=True))
    return equal_weight_matrix(g)


def random_belief_system(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 7))
    a = random_chain(rng, n)
    c = random_chain(rng, m)
    n, m = a.n, c.n
    mode = rng.integers(4)
    if mode == 0:
        lam = np.ones(n)
    elif mode == 1:
        lam = rng.uniform(0, 1, n)
    elif mode == 2:
        lam = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0, 1, n))
    else:
        lam = np.zeros(n)
    return assemble(a, c, lam, rng.random((n, m)))


def test_ac1_convergence_oracle_agreement():
    """200 random systems: Theorem verdict vs empirical iteration, 0 disagreements."""
    rng = philox(101)
    disagreements = []
    for trial in range(200):
        system = random_belief_system(rng)
        verdict = converges(system).converges
        dense = dense_system_operator(system.a.dense(), system.c.dense(), system.lam)
        observed = empirical_convergence(dense, starts=20, seed=trial)
        if verdict != observed:
            disagreements.append((trial, verdict, observed))
    report("AC1 convergence-oracle agreement",
           not disagreements,
           f"200 systems, {len(disagreements)} disagreements {disagreements[:3]}")


def random_strongly_connected(rng, max_n=6) -> DirectedGraph:
    n = int(rng.integers(1, max_n + 1))
    kind = rng.integers(4)
    if kind == 0 or n == 1:  # directed cycle, period n
        return generate(TopologySpec("cycle", max(1, n), directed=True))
    if kind == 1:  # cycle plus a chord: usually aperiodic
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, (2 % n))]
        return DirectedGraph(n, edges)
    if kind == 2:  # cycle with one self-loop: period 1
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 0)]
        return DirectedGraph(n, edges)
    # two directed cycles sharing node 0: period gcd(a, b)
    a = int(rng.integers(1, n + 1))
    edges = [(i, (i + 1) % a) for i in range(a)]
    if n > a:
        chain = [0] + list(range(a, n)) + [0]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return DirectedGraph(n, edges)


def test_ac2_product_component_law():
    """200 digraph pairs: containment in factor products; gcd/lcm counts."""
    rng = philox(202)
    violations = []
    for trial in range(200):
        structured = trial % 2 == 0
        if structured:
            g1 = random_strongly_connected(rng)
            g2 = random_strongly_connected(rng)
        else:
            def loose(size):
                edges = [(i, j) for i in range(size) for j in range(size)
                         if rng.random() < 0.35]
                return DirectedGraph(size, edges)
            g1, g2 = loose(int(rng.integers(1, 7))), loose(int(rng.integers(1, 7)))
        d1, d2 = scc_decompose(g1), scc_decompose(g2)
        product = kron_graph(g1, g2)
        dp = scc_decompose(product)
        m = g2.node_count
        for comp in dp.components:
            rows = {int(d1.component_of[v // m]) for v in comp}
            cols = {int(d2.component_of[v % m]) for v in comp}
            if len(rows) != 1 or len(cols) != 1:
                violations.append((trial, "containment"))
        both_sc = (d1.count == 1 and d2.count == 1
                   and not d1.trivial_period[0] and not d2.trivial_period[0])
        if both_sc:
            p1, p2 = d1.periods[0], d2.periods[0]
            want_count = math.gcd(p1, p2)
            want_period = (p1 * p2) // want_count
            if dp.count != want_count:
                violations.append((trial, f"count {dp.count} != {want_count}"))
            for got in dp.periods:
                if got != want_period:
                    violations.append((trial, f"period {got} != {want_period}"))
    report("AC2 product-component law", not violations,
           f"200 pairs, {len(violations)} violations {violations[:3]}")


def test_ac3_limit_consistency():
    """Structural, fixed-point, and simulated limits agree within 1e-7."""
    rng = philox(303)
    checked = 0
    worst = 0.0
    while checked < 100:
        system = random_belief_system(rng)
        if not converges(system).converges:
            continue
        checked += 1
        structural = structural_limit(system).beliefs
        fixed = stubborn_limit(system, tol=1e-13, max_iter=500_000)
        sim = simulate(system, stop_delta=1e-13, max_iter=500_000).beliefs(system)
        worst = max(worst,
                    float(np.abs(structural - fixed).max()),
                    float(np.abs(structural - sim).max()),
                    float(np.abs(fixed - sim).max()))
    report("AC3 limit consistency", worst <= 1e-7,
           f"100 convergent systems, worst pairwise gap {worst:.3g}")


def test_ac4_kron_stationary_factorization():
    """||pi(M1 x M2) - pi(M1) x pi(M2)||_1 <= 1e-10 on 50 ergodic pairs."""
    rng = philox(404)

    def ergodic_factor():
        while True:
            size = int(rng.integers(2, 31))
            edges = [(i, j) for i in range(size) for j in range(size)
                     if rng.random() < 0.3]
            g = lazify(DirectedGraph(size, edges), float(rng.uniform(0.2, 0.5)))
            if scc_decompose(g).count == 1:
                return equal_weight_matrix(g)

    worst = 0.0
    for _ in range(50):
        m1, m2 = ergodic_factor(), ergodic_factor()
        gap = np.abs(stationary(kron(m1, m2))
                     - np.kron(stationary(m1), stationary(m2))).sum()
        worst = max(worst, float(gap))
    report("AC4 Kronecker stationary factorization", worst <= 1e-10,
           f"50 ergodic pairs, worst L1 gap {worst:.3g}")


def loglog_slope(sizes, times):
    lx = np.log(np.asarray(sizes, dtype=float))
    ly = np.log(np.asarray(times, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def test_ac5_scaling_laws():
    """Mixing-time growth exponents for classic families."""
    sizes = list(range(11, 102, 10))
    cycles = [measure_mixing_time(
        equal_weight_matrix(generate(TopologySpec("cycle", n))), 0.25,
        max_steps=100_000) for n in sizes]
    paths = [measure_mixing_time(
        equal_weight_matrix(lazify(generate(TopologySpec("path", n)), 0.5)), 0.25,
        max_steps=100_000) for n in sizes]
    stars = [measure_mixing_time(
        equal_weight_matrix(lazify(generate(TopologySpec("star", n)), 0.5)), 0.25,
        max_steps=100_000) for n in sizes]
    tree_sizes = [15, 31, 63, 127, 255, 511, 1023]
    trees = [measure_mixing_time(
        equal_weight_matrix(lazify(generate(TopologySpec("binary-tree", n)), 0.5)),
        0.25, max_steps=100_000) for n in tree_sizes]

    slope_cycle = loglog_slope(sizes, cycles)
    slope_path = loglog_slope(sizes, paths)
    slope_star = loglog_slope(sizes, stars)
    slope_tree = loglog_slope(tree_sizes, trees)
    ok = (abs(slope_cycle - 2.0) <= 0.3 and abs(slope_path - 2.0) <= 0.3
          and abs(slope_star) <= 0.15 and abs(slope_tree - 1.0) <= 0.3)
    report("AC5 scaling laws", ok,
           f"slopes: odd cycle {slope_cycle:.2f} (want 2+-0.3), "
           f"lazy path {slope_path:.2f} (want 2+-0.3), "
           f"lazy star {slope_star:.2f} (want 0+-0.15), "
           f"lazy tree {slope_tree:.2f} (want 1+-0.3)")


def ac6_factor_pairs() -> list[tuple[StochasticMatrix, StochasticMatrix]]:
    """AC6's 20 pairs of lazy random strongly connected factors, 3-30 states each."""
    rng = philox(606)

    def ergodic_factor():
        while True:
            size = int(rng.integers(3, 31))
            edges = [(i, j) for i in range(size) for j in range(size)
                     if rng.random() < 0.25]
            g = lazify(DirectedGraph(size, edges), float(rng.uniform(0.2, 0.6)))
            if scc_decompose(g).count == 1:
                return equal_weight_matrix(g)

    return [(ergodic_factor(), ergodic_factor()) for _ in range(20)]


def ac6_t_mix(m, eps):
    return measure_mixing_time(m, eps, max_steps=100_000)


def test_ac6_product_max_behavior():
    """max(t1, t2) <= t_mix(product) <= 8 max(t1, t2) + 4 on 20 ergodic pairs.

    On the same pairs, the factor bracket: a product measure is at least as
    far from pi_1 (x) pi_2 as each marginal and at most the sum of the two, so
    max(t1(eps), t2(eps)) <= t_mix(product, eps) <= max(t1(eps/2), t2(eps/2)).
    """
    t_mix = ac6_t_mix
    failures, outside = [], []
    for trial, (m1, m2) in enumerate(ac6_factor_pairs()):
        t1, t2, tp = t_mix(m1, 0.25), t_mix(m2, 0.25), t_mix(kron(m1, m2), 0.25)
        if not (max(t1, t2) <= tp <= 8 * max(t1, t2) + 4):
            failures.append((trial, t1, t2, tp))
        for eps in (1 / 4, 1 / 16):
            lo = max(t_mix(m1, eps), t_mix(m2, eps))
            hi = max(t_mix(m1, eps / 2), t_mix(m2, eps / 2))
            tp = t_mix(kron(m1, m2), eps)
            if not lo <= tp <= hi:
                outside.append((trial, eps, lo, tp, hi))
    report("AC6 product max-behavior", not failures,
           f"20 pairs, violations: {failures}")
    report("AC6 factor bracket", not outside,
           f"20 pairs at eps 1/4 and 1/16, outside: {outside}")


def test_ac6_product_route_matches_oracle():
    """t_mix of AC6's products equals the rows of the dense product stepped.

    `measure_mixing_time` searches a `kron` product on its factors;
    `oracles.product_mixing_time` steps the product itself. A case within
    1e-12 of epsilon would be decided by rounding, and there is none.
    """
    mismatches, ties = [], 0
    for trial, (m1, m2) in enumerate(ac6_factor_pairs()):
        for eps in (1 / 4, 1 / 16):
            want, margin = product_mixing_time(m1, m2, eps)
            if margin <= 1e-12:
                ties += 1
                continue
            got = ac6_t_mix(kron(m1, m2), eps)
            if got != want:
                mismatches.append((trial, eps, got, want))
    report("AC6 product route vs stepped oracle", not mismatches and not ties,
           f"40 cases, mismatches: {mismatches}, ties: {ties}")


def _composite_bound_case(agent_spec, constraint_spec, trials, rng):
    a = equal_weight_matrix(lazify(generate(agent_spec), 0.5))
    c = equal_weight_matrix(lazify(generate(constraint_spec), 0.5))
    assert scc_decompose(a.to_graph()).count == 1
    assert scc_decompose(c.to_graph()).count == 1
    l_g = estimate_coupling_time(a, trials=trials, rng=rng).mean
    l_t = estimate_coupling_time(c, trials=trials, rng=rng).mean
    out = {}
    for eps in (0.25, 1 / 16):
        k = math.ceil(32 * (max(l_g, l_t) + 0.0) * math.log(1 / eps))
        out[eps] = (k, product_distance_to_limit(a, c, k))
    return (l_g, l_t), out


def test_ac7_composite_bound():
    """Distance at k = ceil(32 (max L + max H) ln(1/eps)) is <= eps."""
    rng = philox(707)
    pairings = [
        (TopologySpec("grid-kd", 400, k=2), TopologySpec("star", 100)),
        (TopologySpec("erdos-renyi", 400, p=0.02, seed=11), TopologySpec("dumbbell", 100)),
        (TopologySpec("newman-watts", 400, k=2, p=0.1, seed=12), TopologySpec("path", 100)),
    ]
    lines = []
    ok = True
    for agent_spec, constraint_spec in pairings:
        (l_g, l_t), results = _composite_bound_case(agent_spec, constraint_spec,
                                                    trials=150, rng=rng)
        for eps, (k, dist) in results.items():
            ok = ok and dist <= eps
            lines.append(f"{agent_spec.family}x{constraint_spec.family} "
                         f"eps={eps:.4g} k={k} dist={dist:.3g}")
    report("AC7 composite bound", ok, "; ".join(lines))


def test_ac8_absorbing_machinery():
    """Absorption rows sum to 1; h = N 1 matches Monte-Carlo within 3 SE."""
    rng = philox(808)
    failures = []
    for trial in range(20):
        size = int(rng.integers(4, 10))
        dense = rng.random((size, size)) * (rng.random((size, size)) < 0.5)
        dense[np.arange(size), np.arange(size)] += 0.3
        sink = size - 1
        dense[sink] = 0.0
        dense[sink, sink] = 1.0
        matrix = StochasticMatrix(dense / dense.sum(axis=1, keepdims=True))
        decomp = scc_decompose(matrix.to_graph())
        transient = np.flatnonzero(~decomp.closed[decomp.component_of])
        if transient.size == 0:
            continue
        block = absorbing_probabilities(matrix)
        if np.abs(block.absorb.sum(axis=1) - 1.0).max() > 1e-9:
            failures.append((trial, "row sums"))
            continue
        times = expected_absorbing_time(matrix)
        z = matrix.dense()[np.ix_(transient, transient)]
        h = np.linalg.solve(np.eye(transient.size) - z, np.ones(transient.size))
        gap = np.abs(h - times.node_expectation[transient]).max()
        if gap > 1e-9:
            failures.append((trial, f"h != N 1 by {gap:.3g}"))
            continue
        start = int(transient[np.argmax(times.node_expectation[transient])])
        mean, se = mc_absorption_time(matrix.dense(), set(transient.tolist()),
                                      start, trials=1500, rng=rng)
        if abs(times.node_expectation[start] - mean) > 3 * max(se, 1e-12):
            failures.append((trial, f"MC gap {times.node_expectation[start] - mean:.3g}"
                                    f" vs 3se={3 * se:.3g}"))
    report("AC8 absorbing machinery", not failures,
           f"20 structures, failures: {failures}")


def test_ac9_exponential_convergence():
    """log distance-to-limit vs k is linear (R^2 >= 0.98) for cycle(15) x path(10)."""
    a = equal_weight_matrix(generate(TopologySpec("cycle", 15)))
    c = equal_weight_matrix(generate(TopologySpec("path", 10, directed=True)))
    rng = philox(909)
    system = assemble(a, c, np.ones(15), rng.random((15, 10)))
    op = system_matrix(system)
    limit = limit_matrix(system)
    curve = distance_to_limit_curve(op, limit, 1400)
    ks = np.arange(1, curve.size + 1)
    tail = (curve >= 1e-10) & (curve <= 1e-2)
    logd = np.log(curve[tail])
    kk = ks[tail]
    slope, intercept = np.polyfit(kk, logd, 1)
    pred = slope * kk + intercept
    ss_res = float(((logd - pred) ** 2).sum())
    ss_tot = float(((logd - logd.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    report("AC9 exponential convergence", r2 >= 0.98,
           f"tail of {kk.size} points, per-step rate {math.exp(slope):.4f}, R^2 {r2:.5f}")


@pytest.mark.skipif(
    not os.path.exists(os.path.join(DATA_DIR, "wiki-Vote.txt")),
    reason="SNAP datasets not supplied; run `kronmix ingest --instructions data` "
           "and download them to enable this criterion")
def test_ac10_dataset_criteria():
    """SNAP node counts pinned; lambda_2 mixing bounds reported, not failed."""
    paper_bounds = {"wiki-Vote.txt": 145, "ca-GrQc.txt": 12308,
                    "facebook_combined.txt": 53546}
    directed = {"wiki-Vote.txt": True, "ca-GrQc.txt": False,
                "facebook_combined.txt": False}
    raw = load_edgelist(os.path.join(DATA_DIR, "wiki-Vote.txt"),
                        directed=directed["wiki-Vote.txt"])
    assert raw.node_count == 7115
    wiki_scc = largest_scc(raw)
    assert wiki_scc.node_count == 1300
    counts = {"wiki-Vote.txt": wiki_scc.node_count}
    details = [f"wiki-Vote raw={raw.node_count} scc={wiki_scc.node_count}"]
    for name, want in (("ca-GrQc.txt", 4158),):
        path = os.path.join(DATA_DIR, name)
        if os.path.exists(path):
            sub = largest_scc(load_edgelist(path, directed=directed[name]))
            counts[name] = sub.node_count
            details.append(f"{name} scc={sub.node_count} (want {want})")
            assert sub.node_count == want
    from kronmix.limits import social_power
    for name, bound in paper_bounds.items():
        path = os.path.join(DATA_DIR, name)
        if not os.path.exists(path):
            continue
        sub = largest_scc(load_edgelist(path, directed=directed[name]))
        m = equal_weight_matrix(lazify(sub, 0.5))
        lam2 = second_eigenvalue(m)
        _, upper = spectral_bounds(lam2, m.n, 0.25)
        deviation = (upper - bound) / bound
        details.append(f"{name}: upper bound {upper:.0f} vs paper {bound} "
                       f"({deviation:+.1%}, reported not failed)")
        power = social_power(m)
        top_fifth = float(power.cumulative[max(0, m.n // 5 - 1)])
        details.append(f"{name}: top 20% of nodes hold {top_fifth:.0%}")
        assert 0.35 <= top_fifth <= 0.65  # the heaviest fifth holds about half
    report("AC10 dataset criteria", True, "; ".join(details))
