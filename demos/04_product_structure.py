"""
The Kronecker product structure
===============================

The stacked belief system lives on a product graph, so its component
structure is inherited from the factors: every strongly connected component
of G1 (x) G2 sits inside the product of one component from each side, and for
strongly connected factors with periods d1, d2 the product splits into
gcd(d1, d2) pieces of period lcm(d1, d2). The demo reads both facts off
`scc_decompose` of the product graph and of its factors.

That single fact drives everything else in the package: periodicity of the
factors decides convergence, factor mixing times bound the product's, and
factor stationary vectors multiply into the product's.
"""

import math

import numpy as np

from kronmix import (DirectedGraph, TopologySpec, equal_weight_matrix, generate,
                     kron, kron_graph, lazify, scc_decompose, stationary)


def directed_cycle(n):
    return generate(TopologySpec("cycle", n, directed=True))


# --- component counting: gcd components, lcm periods -------------------------

print("components of directed-cycle products (count = gcd, period = lcm):")
for n1, n2 in ((2, 3), (2, 2), (3, 5), (4, 6)):
    g1, g2 = directed_cycle(n1), directed_cycle(n2)
    d1, d2 = scc_decompose(g1).periods[0], scc_decompose(g2).periods[0]
    decomp = scc_decompose(kron_graph(g1, g2))
    print(f"  C{n1} x C{n2}: {decomp.count} component(s), periods {decomp.periods} "
          f"(expected {math.gcd(d1, d2)} x period {math.lcm(d1, d2)})")

# --- every product component factors ----------------------------------------

rng = np.random.default_rng(5)
edges = [(i, j) for i in range(5) for j in range(5) if rng.random() < 0.4]
ragged = DirectedGraph(5, edges)
wheel = generate(TopologySpec("star", 4, directed=True))
product = scc_decompose(kron_graph(ragged, wheel))
of_ragged = scc_decompose(ragged).component_of
of_wheel = scc_decompose(wheel).component_of
m = wheel.node_count
# a component's first pair names its factor pair; the rest share it
pairs = [(int(of_ragged[comp[0] // m]), int(of_wheel[comp[0] % m]))
         for comp in product.components]
assert all(np.all(of_ragged[comp // m] == a) and np.all(of_wheel[comp % m] == b)
           for comp, (a, b) in zip(product.components, pairs))
print()
print(f"random 5-node digraph x directed star: "
      f"{product.count} product components, "
      f"each inside one factor pair: {pairs}")

# --- stationary vectors multiply ---------------------------------------------

m1 = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 6)), 0.4))
m2 = equal_weight_matrix(lazify(generate(TopologySpec("star", 5)), 0.4))
pi_product = stationary(kron(m1, m2))
pi_factors = np.kron(stationary(m1), stationary(m2))
print()
print(f"stationary(M1 x M2) vs stationary(M1) x stationary(M2): "
      f"L1 gap {np.abs(pi_product - pi_factors).sum():.2e}")
