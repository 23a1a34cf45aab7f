"""Kronecker products of stochastic matrices and of graphs.

Pair states are indexed row-major: (i, u) -> i * m + u with m the dimension of
the right factor. Every module in the package relies on this layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import TooLarge
from .graphs import DirectedGraph, SccDecomposition, scc_decompose
from .stochastic import StochasticMatrix

MATERIALIZE_CAP = 10_000_000


def kron(left: StochasticMatrix, right: StochasticMatrix) -> StochasticMatrix:
    """Kronecker product of two stochastic matrices as a sparse matrix.

    Raises TooLarge when the product would hold more than MATERIALIZE_CAP
    nonzeros (read at call time).
    """
    nnz = left.nnz * right.nnz
    if nnz > MATERIALIZE_CAP:
        raise TooLarge(f"product has {nnz} nonzeros, cap is {MATERIALIZE_CAP}")
    prod = sp.kron(left.csr, right.csr, format="csr")
    return StochasticMatrix(prod, renormalize=True)


def kron_graph(g1: DirectedGraph, g2: DirectedGraph) -> DirectedGraph:
    """Product graph: (u,u') -> (v,v') iff u -> v in g1 and u' -> v' in g2.

    The Kronecker product of the factor CSRs, weighted when both factors are.
    Cost is |E1| * |E2| edges; intended for factor graphs of moderate size.
    """
    prod = sp.kron(g1.csr, g2.csr, format="coo")
    weighted = g1.weights is not None and g2.weights is not None
    return DirectedGraph(prod.shape[0], np.column_stack([prod.row, prod.col]),
                         prod.data if weighted else None)


@dataclass
class ProductSccReport:
    """Outcome of checking product components against the factor structure."""

    factor_pairs: list[tuple[int, int]]  # product component -> (c1, c2)
    expected_components: int | None  # gcd(d1, d2) when both factors are strongly connected
    expected_period: int | None  # lcm(d1, d2) likewise
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def product_scc_check(g1: DirectedGraph, g2: DirectedGraph,
                      product_decomp: SccDecomposition | None = None) -> ProductSccReport:
    """Verify the component structure of g1 (x) g2.

    Checks that (a) every product component lies inside exactly one pair of
    factor components, and (b) for strongly connected factors with periods
    d1, d2 the product splits into gcd(d1, d2) components, each of period
    lcm(d1, d2). Report-only: violations are collected, not raised.
    """
    d1 = scc_decompose(g1)
    d2 = scc_decompose(g2)
    if product_decomp is None:
        product_decomp = scc_decompose(kron_graph(g1, g2))
    m = g2.node_count

    violations: list[str] = []
    pairs: list[tuple[int, int]] = []
    for idx, comp in enumerate(product_decomp.components):
        rows = comp // m
        cols = comp % m
        c1 = set(d1.component_of[rows].tolist())
        c2 = set(d2.component_of[cols].tolist())
        if len(c1) != 1 or len(c2) != 1:
            violations.append(
                f"product component {idx} straddles factor components {sorted(c1)} x {sorted(c2)}")
            pairs.append((-1, -1))
        else:
            pairs.append((c1.pop(), c2.pop()))

    expected_components = expected_period = None
    # the component-count law needs real cycles: a loop-free singleton factor
    # carries only the conventional period (trivial marker), so it is skipped
    nontrivial = (d1.count == 1 and d2.count == 1
                  and not d1.trivial_period[0] and not d2.trivial_period[0])
    if nontrivial:
        p1, p2 = d1.periods[0], d2.periods[0]
        expected_components = math.gcd(p1, p2)
        expected_period = (p1 * p2) // math.gcd(p1, p2)
        if product_decomp.count != expected_components:
            violations.append(
                f"expected {expected_components} components, found {product_decomp.count}")
        for idx in range(product_decomp.count):
            got = product_decomp.periods[idx]
            if got != expected_period:
                violations.append(
                    f"component {idx} has period {got}, expected {expected_period}")

    return ProductSccReport(pairs, expected_components, expected_period, violations)
