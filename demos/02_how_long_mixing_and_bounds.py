"""
How long does convergence take?
===============================

Convergence time is the mixing time of a random walk on the system graph, and
the product structure makes it the max of the factor times. Three views of the
same quantity:

  * measured: worst-start total variation distance to stationarity,
  * spectral: bounds from the second-largest eigenvalue modulus,
  * probabilistic: the exact coupling time L and the 4(L+H)ln(1/eps) bound.

The sweep reproduces the classic growth laws (cycle ~ n^2, star ~ constant)
and writes a log-log SVG per family.
"""

import os

from kronmix import (TopologySpec, equal_weight_matrix, estimate_coupling_time,
                     coupling_bound, generate, kron, lazify, measure_mixing_time,
                     second_eigenvalue, spectral_bounds)
from kronmix.netio import svg_loglog

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# --- growth laws on classic families ---------------------------------------

sizes = list(range(11, 72, 10))
for family, lazy in (("cycle", 0.0), ("path", 0.5), ("star", 0.5)):
    times = []
    for n in sizes:
        graph = generate(TopologySpec(family, n))
        if lazy:
            graph = lazify(graph, lazy)
        times.append(measure_mixing_time(equal_weight_matrix(graph), 0.25))
    slope = svg_loglog(os.path.join(OUT, f"tmix_{family}.svg"), sizes, times,
                       xlabel="n", ylabel="t_mix", title=f"{family}: t_mix vs n")
    label = f"lazy {family}" if lazy else family
    print(f"{label:>11}: t_mix = {times}  (log-log slope {slope:.2f})")

# --- three estimates, one chain ---------------------------------------------

print()
chain = equal_weight_matrix(lazify(generate(TopologySpec("cycle", 21)), 0.5))
t = measure_mixing_time(chain, 0.25)
lam2 = second_eigenvalue(chain)
lower, upper = spectral_bounds(lam2, chain.n, 0.25)
est = estimate_coupling_time(chain)
print(f"lazy cycle(21):   measured t_mix(1/4) = {t}")
print(f"  spectral: |lambda_2| = {lam2:.5f} -> bounds [{lower:.1f}, {upper:.1f}]")
print(f"  coupling: L = {est.mean:.1f} (exact, error <= {est.stderr:.1g}) "
      f"from pair {est.start_pair}")
print(f"  4(L+H)ln(1/eps) bound at eps=1/4: {coupling_bound(est.mean, 0.0, 0.25):.0f}")

# --- the product takes the max of its factors --------------------------------

print()
slow = equal_weight_matrix(lazify(generate(TopologySpec("path", 17)), 0.5))
fast = equal_weight_matrix(lazify(generate(TopologySpec("star", 17)), 0.5))
t_slow = measure_mixing_time(slow, 0.25)
t_fast = measure_mixing_time(fast, 0.25)
t_prod = measure_mixing_time(kron(slow, fast), 0.25)
print(f"factor mixing times {t_slow} and {t_fast}; "
      f"product mixes in {t_prod} (max-type behavior)")
