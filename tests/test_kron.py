import importlib
import math

import numpy as np
import pytest

from kronmix.errors import TooLarge
from kronmix.generators import TopologySpec, generate
from kronmix.graphs import DirectedGraph, scc_decompose
from kronmix.kron import kron, kron_graph
from kronmix.stochastic import StochasticMatrix, equal_weight_matrix
from oracles import edge_dict, product_edges, reachability_components


def random_stochastic(rng, n):
    raw = rng.random((n, n)) + 0.05
    return StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))


def directed_cycle(n):
    return generate(TopologySpec("cycle", n, directed=True))


class TestKronMatrix:
    def test_dimension_rule(self):
        m1 = random_stochastic(np.random.default_rng(0), 2)
        m2 = random_stochastic(np.random.default_rng(1), 3)
        prod = kron(m1, m2)
        assert prod.n == 6
        # entry ((i,u),(j,v)) = left(i,j) * right(u,v) under index i*m + u
        dense = prod.dense()
        assert dense[1 * 3 + 2, 0 * 3 + 1] == pytest.approx(
            m1.dense()[1, 0] * m2.dense()[2, 1])

    def test_identity_kron_identity(self):
        eye = StochasticMatrix(np.eye(3))
        np.testing.assert_allclose(kron(eye, eye).dense(), np.eye(9))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            prod = kron(random_stochastic(rng, 4), random_stochastic(rng, 6))
            sums = np.asarray(prod.csr.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(3)
        a, b = (random_stochastic(rng, 3) for _ in range(2))
        c, d = (random_stochastic(rng, 3) for _ in range(2))
        left = kron(a, b).dense() @ kron(c, d).dense()
        right = np.kron(a.dense() @ c.dense(), b.dense() @ d.dense())
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_cap_enforced(self, monkeypatch):
        # the cap is read at call time: 100 x 100 nonzeros exceed a cap of 100
        monkeypatch.setattr(importlib.import_module("kronmix.kron"), "MATERIALIZE_CAP", 100)
        rng = np.random.default_rng(5)
        m1, m2 = random_stochastic(rng, 10), random_stochastic(rng, 10)
        with pytest.raises(TooLarge, match="cap is 100"):
            kron(m1, m2)


class TestKronGraph:
    def test_c2_c3_single_component(self):
        pg = kron_graph(directed_cycle(2), directed_cycle(3))
        assert pg.node_count == 6
        assert pg.edge_count == 6
        assert scc_decompose(pg).count == 1

    def test_c2_c2_splits(self):
        pg = kron_graph(directed_cycle(2), directed_cycle(2))
        want = set(reachability_components(4, zip(pg.sources, pg.targets)))
        d = scc_decompose(pg)
        assert {frozenset(c.tolist()) for c in d.components} == want
        assert d.count == 2
        assert d.periods == [2, 2]

    def test_empty_factor(self):
        pg = kron_graph(directed_cycle(3), DirectedGraph(0))
        assert pg.node_count == 0
        assert pg.edge_count == 0

    def test_matches_matrix_graph(self):
        g1 = generate(TopologySpec("cycle", 4))
        g2 = generate(TopologySpec("path", 3, directed=True))
        m1, m2 = equal_weight_matrix(g1), equal_weight_matrix(g2)
        product_graph = kron_graph(g1, g2)
        matrix_graph = kron(m1, m2).to_graph()
        assert set(edge_dict(product_graph)) == set(edge_dict(matrix_graph))

    def test_random_factors_match_dict_product(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            factors = []
            for _ in range(2):
                n = int(rng.integers(1, 6))
                edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
                weights = None
                if rng.random() < 0.6:
                    weights = np.where(rng.random(len(edges)) < 0.2, 0.0,
                                       rng.random(len(edges)))
                factors.append(DirectedGraph(n, edges, weights,
                                             directed=bool(rng.random() < 0.5)))
            g1, g2 = factors
            pg = kron_graph(g1, g2)
            want = product_edges(edge_dict(g1), edge_dict(g2), g2.node_count)
            assert pg.node_count == g1.node_count * g2.node_count
            assert list(zip(pg.sources.tolist(), pg.targets.tolist())) == sorted(want)
            if g1.weights is None or g2.weights is None:
                assert pg.weights is None
            else:  # zero products stay edges
                assert pg.weights.tolist() == [want[p] for p in sorted(want)]


class TestProductSccCheck:
    """Product components: gcd(d1, d2) of period lcm(d1, d2), each in one factor pair."""

    def test_c3_c5(self):
        d = scc_decompose(kron_graph(directed_cycle(3), directed_cycle(5)))
        assert d.count == 1
        assert d.periods == [15]

    def test_c4_c6(self):
        d = scc_decompose(kron_graph(directed_cycle(4), directed_cycle(6)))
        assert d.count == 2
        assert d.periods == [12, 12]

    def test_aperiodic_factors_span_everything(self):
        g1 = DirectedGraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        g2 = DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)])
        d = scc_decompose(kron_graph(g1, g2))
        assert d.count == 1
        assert d.periods == [1]
        assert d.components[0].size == 12

    def test_random_pairs_zero_violations(self):
        rng = np.random.default_rng(6)
        laws = 0
        for _ in range(60):
            gs = []
            for _ in range(2):
                n = int(rng.integers(1, 7))
                edges = [(i, j) for i in range(n) for j in range(n)
                         if rng.random() < 0.35]
                gs.append(DirectedGraph(n, edges))
            d1, d2 = scc_decompose(gs[0]), scc_decompose(gs[1])
            d = scc_decompose(kron_graph(*gs))
            m = gs[1].node_count
            for comp in d.components:  # every product component in one factor pair
                assert np.unique(d1.component_of[comp // m]).size == 1
                assert np.unique(d2.component_of[comp % m]).size == 1
            # the count law needs real cycles: a loop-free singleton factor
            # carries only the conventional period
            if d1.count == d2.count == 1 and not (d1.trivial_period[0] or d2.trivial_period[0]):
                p1, p2 = d1.periods[0], d2.periods[0]
                assert d.count == math.gcd(p1, p2)
                assert d.periods == [math.lcm(p1, p2)] * d.count
                laws += 1
        assert laws > 0
