"""Kronecker products of stochastic matrices and of graphs.

Pair states are indexed row-major: (i, u) -> i * m + u with m the dimension of
the right factor. Every module in the package relies on this layout.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import TooLarge
from .graphs import DirectedGraph
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
