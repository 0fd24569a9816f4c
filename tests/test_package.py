"""The package's exported names."""

import netprobe

EXPORTED = [
    "StabilityClass", "WeightedDigraph", "TopologyMatrix",
    "generate_random_digraph", "laplacian_weights", "metropolis_weights", "rule_weights",
    "scale_to_asymptotic", "classify_stability", "true_hop_sets",
    "NoiseModel", "simulate", "simulate_batch",
    "deviation_noise_bound", "deviation_noise_std", "critical_excitation",
    "applied_excitation", "misjudgement_probability", "false_alarm_probability",
    "detection_probability", "hop_inference_lower_bound", "multi_excitation_bound",
    "NeighborDecision", "infer_one_hop", "decide", "first_hops",
    "EntryConstraint", "LsProblem", "LsSolution", "ols_estimate",
    "constrained_estimate", "error_metrics", "constraints_from_decision",
    "ExperimentConfig", "ResultTable", "run_onehop_accuracy", "run_multihop_accuracy",
    "run_ls_improvement",
]


def test_exported_names_pinned():
    assert len(EXPORTED) == 38
    assert netprobe.__all__ == EXPORTED
    assert all(hasattr(netprobe, name) for name in EXPORTED)
