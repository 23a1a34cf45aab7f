import math

import numpy as np
import pytest

from kronmix.errors import StructuralError
from kronmix.graphs import DirectedGraph, condensation, scc_decompose
from oracles import (edge_dict, has_cycle_dfs, induced_edges, merged_edges,
                     reachability_components, simple_cycle_lengths)


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
            reverse = DirectedGraph(g.node_count, np.column_stack([g.targets, g.sources]))
            rev = {frozenset(c.tolist()) for c in scc_decompose(reverse).components}
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


def single_period(graph):
    """Period of a strongly connected graph, from its one component."""
    d = scc_decompose(graph)
    assert d.count == 1
    return d.periods[0]


class TestSccPeriod:
    def test_directed_cycle_five(self):
        g = DirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert single_period(g) == 5

    def test_undirected_cycles(self):
        g6 = DirectedGraph(6, [(i, (i + 1) % 6) for i in range(6)], directed=False)
        g7 = DirectedGraph(7, [(i, (i + 1) % 7) for i in range(7)], directed=False)
        assert single_period(g6) == 2
        assert single_period(g7) == 1

    def test_self_loop_forces_period_one(self):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
        assert single_period(g) == 1

    def test_loop_free_singleton_convention(self):
        assert single_period(DirectedGraph(1)) == 1
        assert scc_decompose(DirectedGraph(1)).trivial_period == [True]


class TestCondensation:
    def test_three_component_graph(self):
        d = scc_decompose(three_component_graph())
        dag = condensation(d)
        assert dag.node_count == 3
        out_degrees = [dag.successors(c).size for c in range(3)]
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
        assert set(edge_dict(g)) == {(0, 1), (1, 0), (1, 2), (2, 1)}

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

    @pytest.mark.parametrize("node", [-1, 3, 5])
    def test_subgraph_node_out_of_range_rejected(self, node):
        g = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(StructuralError, match=f"node {node} outside"):
            g.subgraph([0, node])


def random_input(rng, n):
    """Edge pairs with many duplicates; weights, if any, include zeros."""
    edges = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
    weights = None
    if rng.random() < 0.5:
        weights = np.where(rng.random(len(edges)) < 0.2, 0.0, rng.random(len(edges)))
    return edges, weights


class TestAgainstDictMerge:
    """DirectedGraph and subgraph against edge dicts merged pair by pair."""

    def test_random_graphs(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            edges, weights = random_input(rng, n)
            directed = bool(rng.random() < 0.5)
            g = DirectedGraph(n, edges, weights, directed=directed)
            merged = merged_edges(n, edges.tolist(), weights, directed)
            pairs = sorted(merged)  # row-major edge order
            assert g.edge_count == len(pairs)
            assert list(zip(g.sources.tolist(), g.targets.tolist())) == pairs
            if weights is None:
                assert g.weights is None
                continue
            for got, pair in zip(g.weights.tolist(), pairs):
                parts = merged[pair]
                if len(parts) <= 2:  # a sum of two is exact in either order
                    assert got == sum(parts)
                else:  # the summation order may differ: one ulp or so
                    assert got == pytest.approx(sum(parts), rel=4e-16, abs=0)

    def test_random_subgraphs(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            edges, weights = random_input(rng, n)
            g = DirectedGraph(n, edges, weights, directed=bool(rng.random() < 0.5))
            nodes = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=True)
            sub = g.subgraph(nodes.tolist())
            want = induced_edges(edge_dict(g), nodes.tolist())
            assert sub.node_count == np.unique(nodes).size
            assert np.array_equal(sub.meta["parent_nodes"], np.unique(nodes))
            assert list(zip(sub.sources.tolist(), sub.targets.tolist())) == sorted(want)
            assert (sub.weights is None) == (weights is None)
            if weights is not None:
                assert sub.weights.tolist() == [want[p] for p in sorted(want)]

    def test_out_of_range_endpoints(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            edges, weights = random_input(rng, n)
            bad = rng.choice([-1, n, n + 3])
            edges = np.concatenate([edges, [[bad, 0] if rng.random() < 0.5 else [0, bad]]])
            weights = None if weights is None else np.append(weights, 1.0)
            directed = bool(rng.random() < 0.5)
            with pytest.raises(ValueError):
                merged_edges(n, edges.tolist(), weights, directed)
            with pytest.raises(StructuralError):
                DirectedGraph(n, edges, weights, directed=directed)
