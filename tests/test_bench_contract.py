"""Every result field the benchmark summarises exists, with its shape.

`kronbench/workloads.py` reads these attributes off kronmix results: its
`_report`, `_coupling`, `_belief_summary` and `_verdict` summaries and the
lambdas in `_mixing_pass` and `_dataset_pass`. A renamed or deleted field
fails the benchmark's operations, so each test here builds a tiny input,
makes the same calls and reads the same fields.
"""

import importlib
import math

import numpy as np
import pytest

# modules by name, as the workloads load them: `kronmix.kron` is also a function
beliefs, generators, kron, limits, mixing, netio, stochastic = (
    importlib.import_module(f"kronmix.{name}")
    for name in ("beliefs", "generators", "kron", "limits", "mixing", "netio", "stochastic"))


def lazy_chain(family, n, **kw):
    graph = generators.generate(generators.TopologySpec(family, n, **kw))
    return stochastic.equal_weight_matrix(generators.lazify(graph, 0.5))


def philox(stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((1, stream))))


def assert_coupling(est):
    assert isinstance(est.mean, float) and isinstance(est.stderr, float)
    assert isinstance(est.trials, int) and isinstance(est.capped, int)
    assert len(est.start_pair) == 2 and all(int(v) == v for v in est.start_pair)
    # the benchmark's coupling check fails a capped trial or a zero error bound;
    # every chain passed here has more than one state
    assert est.capped == 0 and est.stderr > 0


def test_mixing_report_fields():
    cube, lollipop = lazy_chain("hypercube", 8), lazy_chain("lollipop", 10)
    for chain in (cube, lollipop):
        rep = mixing.analyze_mixing(chain, 0.25, trials=20, rng=philox(1))
        assert isinstance(rep.t_mix, int)
        for value in (rep.lambda2_abs, rep.lower_bound, rep.upper_bound, rep.theorem_bound):
            assert isinstance(value, float)
        assert_coupling(rep.coupling)
    assert stochastic.stationary(lollipop).shape == (lollipop.n,)

    a, c = cube, lazy_chain("cycle", 5)
    prod = kron.kron(a, c)
    assert (prod.n, prod.nnz) == (a.n * c.n, a.nnz * c.nnz)
    for chain in (prod, a, c):
        assert isinstance(mixing.measure_mixing_time(chain, 0.25), int)
    la = mixing.estimate_coupling_time(a, trials=20, rng=philox(3))
    lc = mixing.estimate_coupling_time(c, trials=20, rng=philox(4))
    assert_coupling(la)
    assert_coupling(lc)
    bound = mixing.theorem_bound(la.mean, lc.mean, 0.0, 0.0, 0.25)
    distance = mixing.product_distance_to_limit(a, c, math.ceil(bound))
    assert isinstance(distance, float) and 0.0 <= distance <= 1.0


@pytest.fixture
def dataset_parts(tmp_path):
    # a 6-cycle with a chord, plus one node that only points into it
    path = tmp_path / "edges.txt"
    path.write_text("# tiny\n" + "".join(f"{i} {(i + 1) % 6}\n" for i in range(6))
                    + "0 3\n9 0\n", encoding="utf-8")
    raw = netio.load_edgelist(str(path))
    sub = netio.largest_scc(raw)
    agents = stochastic.equal_weight_matrix(generators.lazify(sub, 0.5))
    ring = lazy_chain("eulerian-ring", 5, k=2, directed=True)
    return raw, sub, agents, ring


def test_dataset_system_fields(dataset_parts):
    raw, sub, agents, ring = dataset_parts
    assert (raw.node_count, raw.edge_count) == (7, 8)
    assert (sub.node_count, sub.edge_count) == (6, 7)
    assert np.asarray(sub.meta["id_map"]).shape == (6,)
    assert (agents.n, agents.nnz) == (6, 13)

    times = mixing.expected_absorbing_time(
        stochastic.equal_weight_matrix(generators.lazify(raw, 0.5)))
    assert times.node_expectation.shape == (7,)
    assert isinstance(times.max_expectation, float)

    n, m = agents.n, ring.n
    x0 = np.linspace(0.0, 1.0, n * m).reshape(n, m)
    lam = np.ones(n)
    lam[0] = 0.5
    for system in (beliefs.assemble(agents, ring, np.ones(n), x0),
                   beliefs.assemble(agents, ring, lam, x0)):
        verdict = beliefs.converges(system)
        assert isinstance(verdict.converges, bool)
        assert verdict.witnesses == [] and isinstance(verdict.oblivious_agents, frozenset)
        result = beliefs.simulate(system)
        assert result.state.x.shape == (2 * n * m,)
        assert isinstance(result.iterations, int) and isinstance(result.converged, bool)
    report = limits.structural_limit(beliefs.assemble(agents, ring, np.ones(n), x0))
    assert report.beliefs.shape == (n, m) and isinstance(report.consensus, float)
    assert limits.stubborn_limit(beliefs.assemble(agents, ring, lam, x0)).shape == (n, m)

    power = limits.social_power(agents)
    for values in (power.order, power.weights, power.cumulative):
        assert values.shape == (n,)


def test_sweep_csv_columns():
    # the sweep pass keys rows by these columns; the checks read the rest
    columns = netio.CSV_HEADER.split(",")
    for name in ("sweep_value", "error", "n", "m", "converges", "t_mix", "lambda2",
                 "lower_bound", "upper_bound", "coupling_L", "coupling_se",
                 "absorbing_H", "theorem_bound", "limit_consensus"):
        assert name in columns


def test_sweep_runs_one_point_at_a_time():
    # the tracer scales netio.pool_busy_ratio by this worker count
    assert netio._thread_count() == 1
