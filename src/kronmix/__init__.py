"""Belief systems with logic constraints, analyzed through their graphs.

The package answers three questions about coupled opinion dynamics: whether
the system converges (periodicity of closed components), how long it takes
(mixing, coupling, and absorbing times on the Kronecker product structure),
and where it lands (stationary-weighted limits and absorption probabilities).
"""

from .beliefs import (BeliefState, BeliefSystem, ConvergenceVerdict,
                      SimulationResult, assemble, converges, oblivious_set,
                      simulate, system_matrix)
from .errors import (AllTrialsCapped, DanglingNode, EmptyGraph,
                     FailedToConverge, KronmixError, NonConvergent,
                     NotErgodic, NotStochastic, NoUniqueFixedPoint,
                     ParseError, SpecError, StructuralError, TooLarge)
from .generators import FAMILIES, TopologySpec, generate, lazify
from .graphs import DirectedGraph, SccDecomposition, scc_decompose
from .kron import kron, kron_graph
from .limits import (ClosedLimit, LimitReport, SocialPower, TransientBlock,
                     absorbing_probabilities, closed_limit, limit_matrix,
                     social_power, structural_limit, stubborn_limit)
from .mixing import (AbsorbingTimes, CouplingEstimate, MixingReport,
                     analyze_mixing, coupling_bound, estimate_coupling_time,
                     expected_absorbing_time, measure_mixing_time,
                     product_distance_to_limit, second_eigenvalue,
                     spectral_bounds, theorem_bound)
from .netio import (ExperimentConfig, largest_scc, load_edgelist, read_config,
                    run_experiment)
from .stochastic import (StochasticMatrix, equal_weight_matrix, stationary,
                         validate_stochastic)

__version__ = "0.1.0"
