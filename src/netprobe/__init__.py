"""Excitation-based topology inference for noisy linear networked systems.

The package simulates linear network dynamics x_t = W x_{t-1} + noise with
noisy observations, injects designed excitation inputs at chosen nodes, and
decides which nodes are downstream neighbors of the excited node from the
observed deviations.  It also refines global least-squares estimates of W
with the edge constraints obtained from an excitation round.
"""

from types import ModuleType as _ModuleType

from netprobe.topology import (
    StabilityClass,
    WeightedDigraph,
    TopologyMatrix,
    generate_random_digraph,
    laplacian_weights,
    metropolis_weights,
    rule_weights,
    scale_to_asymptotic,
    classify_stability,
    true_hop_sets,
)
from netprobe.dynamics import (
    NoiseModel,
    simulate,
    simulate_batch,
)
from netprobe.detect import (
    erf,
    erf_inv,
    deviation_noise_bound,
    deviation_noise_std,
    critical_excitation,
    applied_excitation,
    misjudgement_probability,
    false_alarm_probability,
    detection_probability,
    hop_inference_lower_bound,
    multi_excitation_bound,
)
from netprobe.infer import (
    NeighborDecision,
    infer_one_hop,
    decide,
    first_hops,
)
from netprobe.estimate import (
    EntryConstraint,
    LsProblem,
    LsSolution,
    ols_estimate,
    constrained_estimate,
    error_metrics,
    constraints_from_decision,
)
from netprobe.harness import (
    ExperimentConfig,
    ResultTable,
    run_onehop_accuracy,
    run_multihop_accuracy,
    run_ls_improvement,
)

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
