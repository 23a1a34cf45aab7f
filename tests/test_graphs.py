import math

import numpy as np
import pytest

from kronmix.errors import StructuralError
from kronmix.graphs import DirectedGraph, condensation, scc_decompose, scc_period
from oracles import has_cycle_dfs, reachability_components, simple_cycle_lengths


def three_component_graph():
    """12 nodes, 3 components; only the 4-node cycle {4..7} is closed."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),  # open cycle A
             (4, 5), (5, 6), (6, 7), (7, 4),  # closed cycle B
             (8, 9), (9, 10), (10, 11), (11, 8),  # open cycle C
             (8, 0), (10, 4),  # C feeds A and B
             (2, 6)]  # A feeds B
    return DirectedGraph(12, edges)


def random_digraph(rng, n, p=0.3, self_loops=False):
    edges = [(i, j) for i in range(n) for j in range(n)
             if (i != j or self_loops) and rng.random() < p]
    return DirectedGraph(n, edges)


class TestSccDecompose:
    def test_three_component_graph(self):
        d = scc_decompose(three_component_graph())
        assert d.count == 3
        closed = d.closed_components()
        assert len(closed) == 1
        assert set(d.components[closed[0]].tolist()) == {4, 5, 6, 7}

    def test_single_node_no_edges(self):
        d = scc_decompose(DirectedGraph(1))
        assert d.count == 1
        assert d.closed[0]
        assert d.periods == [1]
        assert d.trivial_period == [True]

    def test_empty_graph(self):
        d = scc_decompose(DirectedGraph(0))
        assert d.count == 0

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            g = random_digraph(rng, n)
            got = {frozenset(c.tolist()) for c in scc_decompose(g).components}
            want = set(reachability_components(n, zip(g.sources, g.targets)))
            assert got == want

    def test_partition_and_closed_exist(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            g = random_digraph(rng, n, self_loops=True)
            d = scc_decompose(g)
            assert d.count <= n
            all_nodes = np.concatenate([c for c in d.components])
            assert sorted(all_nodes.tolist()) == list(range(n))
            assert any(d.closed)  # the condensation of a finite DAG has a sink

    def test_reversal_preserves_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng, 7)
            fwd = {frozenset(c.tolist()) for c in scc_decompose(g).components}
            rev = {frozenset(c.tolist()) for c in scc_decompose(g.reverse()).components}
            assert fwd == rev

    def test_period_divides_enumerated_cycles(self):
        rng = np.random.default_rng(3)
        # sparse loop-free graphs too, so that periods above 1 occur
        for p, loops in [(0.35, True)] * 25 + [(0.2, False)] * 25:
            n = int(rng.integers(2, 9))
            g = random_digraph(rng, n, p=p, self_loops=loops)
            d = scc_decompose(g)
            for cid, comp in enumerate(d.components):
                members = set(comp.tolist())
                # the period is the gcd of the cycles inside the component
                comp_edges = [(s, t) for s, t in zip(g.sources, g.targets)
                              if s in members and t in members]
                lengths = simple_cycle_lengths(n, comp_edges)
                assert d.periods[cid] == (math.gcd(*lengths) or 1)
                assert d.trivial_period[cid] == (not lengths)


class TestSccPeriod:
    def test_directed_cycle_five(self):
        g = DirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert scc_period(g, range(5)) == 5

    def test_undirected_cycles(self):
        g6 = DirectedGraph(6, [(i, (i + 1) % 6) for i in range(6)], directed=False)
        g7 = DirectedGraph(7, [(i, (i + 1) % 7) for i in range(7)], directed=False)
        assert scc_period(g6, range(6)) == 2
        assert scc_period(g7, range(7)) == 1

    def test_self_loop_forces_period_one(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
        assert scc_period(g, range(3)) == 1

    def test_not_strongly_connected_raises(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(StructuralError):
            scc_period(g, range(3))

    def test_loop_free_singleton_convention(self):
        assert scc_period(DirectedGraph(1), [0]) == 1


class TestCondensation:
    def test_three_component_graph(self):
        d = scc_decompose(three_component_graph())
        dag = condensation(d)
        assert dag.node_count == 3
        out_degrees = [dag.out_degree(c) for c in range(3)]
        assert out_degrees.count(0) == 1  # exactly one sink = the closed component

    def test_strongly_connected_collapses(self):
        g = DirectedGraph(4, [(i, (i + 1) % 4) for i in range(4)])
        dag = condensation(scc_decompose(g))
        assert dag.node_count == 1
        assert dag.edge_count == 0

    def test_acyclic_by_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_digraph(rng, int(rng.integers(2, 10)))
            dag = condensation(scc_decompose(g))
            assert not has_cycle_dfs(dag.node_count, zip(dag.sources, dag.targets))

    def test_edges_point_to_smaller_ids(self):
        # reverse topological numbering: successors carry a smaller id
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = scc_decompose(random_digraph(rng, int(rng.integers(2, 12)), p=0.2))
            assert all(s > t for s, t in d.condensation_edges)


class TestDirectedGraph:
    def test_duplicate_edges_merge_weights(self):
        g = DirectedGraph(2, [(0, 1), (0, 1)], weights=[1.0, 2.5])
        assert g.edge_count == 1
        assert g.weights[0] == 3.5

    def test_duplicate_unweighted_dedupe(self):
        g = DirectedGraph(2, [(0, 1), (0, 1), (1, 0)])
        assert g.edge_count == 2

    def test_undirected_symmetrizes(self):
        g = DirectedGraph(3, [(0, 1), (1, 2)], directed=False)
        assert g.edge_set() == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            DirectedGraph(2, [(0, 2)])

    def test_negative_weight_rejected(self):
        with pytest.raises(StructuralError):
            DirectedGraph(2, [(0, 1)], weights=[-1.0])

    def test_subgraph_induces(self):
        g = three_component_graph()
        sub = g.subgraph([4, 5, 6, 7])
        assert sub.node_count == 4
        assert sub.edge_count == 4
        assert scc_decompose(sub).count == 1
