"""Experiment runners: designed-excitation accuracy sweeps and LS refinement.

Each runner builds the network from an ``ExperimentConfig``, draws seeded
independent trials, unexcited, chunk by chunk from ``dynamics.simulate_batch``,
adds each input by superposition (e times the unit response
(W^k)[:, source]), so fig1a decides every error target on one draw, and
returns a ``ResultTable`` of named rows whose theoretical columns come
straight from :mod:`netprobe.detect`.  The master seed spawns the run's two
streams, one for the trials' initial states and one for their noise, and
each trial takes its draws from both in trial order, so results are
bit-reproducible and do not depend on chunking.  fig1a and fig1b sample each
trial's state at the injection step from a law built once per run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from netprobe import detect
from netprobe.topology import (
    WEIGHT_RULES,
    TopologyMatrix,
    WeightedDigraph,
    generate_random_digraph,
    rule_weights,
    true_hop_sets,
)
from netprobe.dynamics import NoiseModel, _check_init, _response, simulate_batch
from netprobe.estimate import (
    LsProblem,
    constrained_estimate,
    constraints_from_decision,
    error_metrics,
    ols_estimate,
)
from netprobe.infer import first_hops, infer_one_hop


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the experiment runners; defaults reproduce the shipped runs.

    The default graph (20 nodes, sparse, seed 102) keeps every in-degree at
    most two, so the uniform weight rule puts every interaction weight at
    0.5 and the 0.4 discrimination floor genuinely holds.
    """

    n: int = 20
    edge_probability: float = 0.08
    graph_seed: int = 102
    trial_count: int = 1000
    sigma_theta: float = 1.0
    sigma_upsilon: float = 1.0
    weight_rule: str = "laplacian"
    gamma: float = 1.0
    alpha_scale: float | None = None
    weight_floor: float = 0.4
    error_targets: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    false_alarm: float = 0.05
    max_hop: int = 3
    excited_node: int | None = None
    excitation_magnitude: float | None = None
    excitation_scale: float = 5.0
    burn_in: int = 50
    init_low: float = -100.0
    init_high: float = 100.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.excited_node is not None and not 0 <= self.excited_node < self.n:
            raise ValueError(f"excited_node {self.excited_node} outside 0..{self.n - 1}")
        for name in ("seed", "graph_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.trial_count < 1:
            raise ValueError("trial count must be >= 1")
        if not 0.0 < self.edge_probability <= 1.0:
            raise ValueError("edge probability must lie in (0, 1]")
        if self.weight_rule not in WEIGHT_RULES:
            raise ValueError(f"weight rule must be one of {WEIGHT_RULES}")
        if not self.error_targets:
            raise ValueError("error targets must not be empty")
        for p in self.error_targets:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability parameter {p} outside (0, 1)")
        if not 0.0 < self.false_alarm < 0.5:
            raise ValueError(f"false_alarm must lie in (0, 0.5), got {self.false_alarm!r}")
        if self.alpha_scale is not None and not 0.0 < self.alpha_scale < 1.0:
            raise ValueError("alpha scale must lie in (0, 1)")
        if self.burn_in < 1:
            raise ValueError("burn-in must be >= 1")
        if self.max_hop < 1:
            raise ValueError("max hop must be >= 1")
        if self.excitation_magnitude == 0.0:
            raise ValueError(f"excitation_magnitude must be nonzero, got {self.excitation_magnitude!r}")
        if not self.excitation_scale > 0.0:
            raise ValueError("excitation scale must be > 0")
        if not self.weight_floor > 0.0:
            raise ValueError(f"weight floor must be > 0, got {self.weight_floor!r}")
        for name in ("weight_floor", "excitation_magnitude", "excitation_scale", "init_low", "init_high",
                     "gamma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        self.noise()  # NoiseModel rejects a negative, NaN or too large sigma
        _check_init((self.init_low, self.init_high))
        object.__setattr__(self, "error_targets", tuple(float(p) for p in self.error_targets))

    def noise(self) -> NoiseModel:
        return NoiseModel(self.sigma_theta, self.sigma_upsilon)

    def build_network(self) -> tuple[WeightedDigraph, TopologyMatrix]:
        graph = generate_random_digraph(self.n, self.edge_probability, self.graph_seed)
        return graph, rule_weights(graph, self.weight_rule, self.gamma, self.alpha_scale)


@dataclass(frozen=True)
class ResultTable:
    """Named result rows, one dict each, with CSV/JSON export.

    The columns are the first row's keys; every row names the same columns
    in the same order.
    """

    rows: tuple[dict, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if tuple(row) != self.columns:
                raise ValueError("every row must name the first row's columns in order")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.rows[0]) if self.rows else ()

    def as_dicts(self) -> list[dict]:
        return [dict(row) for row in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(row.values() for row in self.rows)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dicts(), fh, indent=2)
            fh.write("\n")

    def pretty(self) -> str:
        widths = [max(len(c), 12) for c in self.columns]
        head = "  ".join(c.rjust(w) for c, w in zip(self.columns, widths))
        lines = [head]
        for row in self.rows:
            cells = []
            for v, w in zip(row.values(), widths):
                text = f"{v:.6g}" if isinstance(v, float) else str(v)
                cells.append(text.rjust(w))
            lines.append("  ".join(cells))
        return "\n".join(lines)


def binomial_half_width(p_hat: float, count: int) -> float:
    """95% normal-approximation half-width, 0.5-capped, worst-case at p in {0,1}."""
    if count < 1:
        return 0.5
    pq = p_hat * (1.0 - p_hat)
    if pq == 0.0:
        pq = 0.25
    return min(0.5, 1.96 * math.sqrt(pq / count))


def pick_source_node(graph: WeightedDigraph, max_hop: int = 1) -> int:
    """Deterministic excited-node choice.

    For one-hop runs (max_hop 1): the smallest-index node with the fewest
    (but at least one) out-neighbors, mirroring a probe of one monitored
    connection.  For deeper runs: the smallest-index node that reaches some
    node at hop max_hop (BFS levels are contiguous, so every hop below is
    reached too).
    """
    if max_hop == 1:
        out_degrees = graph.adjacency.sum(axis=0)
        if not out_degrees.any():
            raise ValueError("graph has no edges")
        return int(np.where(out_degrees > 0, out_degrees, graph.n).argmin())
    for j in range(graph.n):
        if true_hop_sets(graph, j, max_hop).max() == max_hop:
            return j
    raise ValueError(f"no node reaches depth {max_hop}; use a denser graph")


def _network(
    config: ExperimentConfig, depth: int = 1
) -> tuple[WeightedDigraph, TopologyMatrix, int]:
    """Build the config's network and pick its excited node.

    Refuses a floor above the network's smallest weight: the designed
    excitations only guarantee detection of weights at or above the floor,
    so a higher floor breaks every theory column's premise.
    """
    graph, tm = config.build_network()
    if config.weight_floor > tm.weight_floor:
        raise ValueError(
            f"weight_floor {config.weight_floor!r} exceeds the network's smallest "
            f"weight {tm.weight_floor!r}"
        )
    if config.excited_node is not None:
        return graph, tm, config.excited_node
    return graph, tm, pick_source_node(graph, depth)


def _trials(config: ExperimentConfig, tm: TopologyMatrix, horizon: int, start: int):
    """(chunk, rows, n) unexcited observations y_start..y_horizon of the run's trials, in order.

    A caller adds e times an input's ``_response`` from the injection row on.
    """
    init = (config.init_low, config.init_high)
    return simulate_batch(tm, init, horizon, config.noise(), config.seed, config.trial_count, start)


def run_onehop_accuracy(config: ExperimentConfig) -> ResultTable:
    """Designed one-hop tests vs their theoretical accuracy floor.

    For every error target, the excitation is sized by the critical-magnitude
    formula (unless overridden) and the fraction of correct per-pair
    decisions is reported next to one minus the designed misjudgement
    probability.  The ``trial_count`` trials are drawn once, unexcited, and
    every target's input is added to that draw by superposition and decided.
    The guarantee presumes every positive weight reaches the configured floor.
    """
    graph, tm, source = _network(config)
    n, t = config.n, config.burn_in
    truth = true_hop_sets(graph, source, 1) == 1
    others = np.arange(n) != source
    sigma_bar = detect.onehop_noise_std(tm, config.noise())
    excitations = [
        detect.design([sigma_bar], [config.weight_floor], target, given=config.excitation_magnitude)[1]
        for target in config.error_targets
    ]
    response = _response(tm, source, 1)
    counts = np.zeros((len(excitations), 2), dtype=np.int64)  # correct pairs, correct sets
    for y in _trials(config, tm, t + 1, t):
        for m, e in enumerate(excitations):
            estimated = first_hops(y + e * response, source, e, config.weight_floor, tm.stability) == 1
            correct = (estimated == truth)[:, others]
            counts[m] += correct.sum(), correct.all(axis=1).sum()

    decisions = config.trial_count * (n - 1)
    rows = []
    for target, e, (pairs, sets) in zip(config.error_targets, excitations, counts.tolist()):
        pair_acc = pairs / decisions
        rows.append(
            {
                "error_target": target,
                "excitation": e,
                "theory_accuracy": 1.0
                - detect.misjudgement_probability(sigma_bar, config.weight_floor, e),
                "pair_accuracy": pair_acc,
                "set_accuracy": sets / config.trial_count,
                "decision_count": decisions,
                "ci_half_width": binomial_half_width(pair_acc, decisions),
            }
        )
    return ResultTable(rows)


def run_multihop_accuracy(config: ExperimentConfig) -> ResultTable:
    """Hop placement of one representative node per hop vs the theory bound.

    One excitation per trial; the deviation tests run for h = 1..max_hop with
    worst-case gain floors.  The excitation is the configured multiple of the
    largest per-target critical magnitude, and the reported bound is the
    placement lower bound evaluated at each target's own critical magnitude.
    """
    graph, tm, source = _network(config, config.max_hop)
    hop_truth = true_hop_sets(graph, source, config.max_hop)

    # BFS levels are contiguous, so the reached hops are 1..deepest
    hops = np.arange(1, hop_truth.max() + 1)
    if not hops.size:
        raise ValueError("excited node has no reachable nodes at any hop")
    targets = (hop_truth == hops[:, None]).argmax(axis=1).tolist()  # first node of each level
    # A target first reached at hop h has no shorter walk from the source and
    # W >= 0, so (W^k)[target, source] is 0 for k < h: its one positive gain
    # over horizons 1..h is (W^h)[target, source]: the response the decisions add.
    response = _response(tm, source, config.max_hop)
    gains = response[hops, targets].tolist()
    table = detect.deviation_noise_std(tm, hops.size, config.noise())
    # each target's largest std over horizons 1..h
    sigma = np.maximum.accumulate(table)[hops - 1, targets].tolist()
    critical, e = detect.design(
        sigma, gains, 2.0 * config.false_alarm, config.excitation_scale, config.excitation_magnitude
    )

    t = config.burn_in
    hits = np.zeros(hops.size, dtype=np.int64)
    for y in _trials(config, tm, t + config.max_hop, t):
        y += e * response  # the chunk is this loop's own
        first = first_hops(y, source, e, config.weight_floor, tm.stability)
        hits += (first[:, targets] == hops).sum(axis=0)

    rows = []
    for m, h in enumerate(hops.tolist()):
        empirical = int(hits[m]) / config.trial_count
        rows.append(
            {
                "hop": h,
                "target_node": targets[m],
                "gain": gains[m],
                "critical_excitation": critical[m],
                "excitation": e,
                "theory_lower_bound": detect.hop_inference_lower_bound(
                    gains[m], critical[m], config.false_alarm, sigma[m]
                ),
                "empirical_probability": empirical,
                "trials": config.trial_count,
                "ci_half_width": binomial_half_width(empirical, config.trial_count),
            }
        )
    return ResultTable(rows)


def run_ls_improvement(config: ExperimentConfig) -> ResultTable:
    """Paired OLS vs excitation-constrained LS errors, one row (``seed_index``) per trial.

    Each row simulates n+5 noisy observation pairs followed by one designed
    excitation, converts the resulting one-hop decision into column
    constraints, and estimates the matrix by plain and by constrained least
    squares.  Both estimators read one ``LsProblem``, so the plain solve
    runs once per row.
    """
    _, tm, source = _network(config)
    sigma_bar = detect.onehop_noise_std(tm, config.noise())
    _, e = detect.design(
        [sigma_bar], [config.weight_floor], min(config.error_targets), given=config.excitation_magnitude
    )
    horizon = config.n + 5

    rows = []
    chunks = _trials(config, tm, horizon + 1, 0)
    for k, y in enumerate(y for chunk in chunks for y in chunk):
        # the input at the last pair's step reaches only the decision row
        after = y[horizon + 1] + e * tm.matrix[:, source]
        decision = infer_one_hop(y[horizon], after, source, e, config.weight_floor, tm.stability)
        problem = LsProblem(y[:horizon], y[1:horizon + 1], constraints_from_decision(decision))
        ols = ols_estimate(problem)
        constrained = constrained_estimate(problem)
        ols_structure, ols_magnitude = error_metrics(ols.matrix, tm.matrix)
        con_structure, con_magnitude = error_metrics(constrained.matrix, tm.matrix)
        rows.append(
            {
                "seed_index": k,
                "ols_structure_error": ols_structure,
                "ols_magnitude_error": ols_magnitude,
                "constrained_structure_error": con_structure,
                "constrained_magnitude_error": con_magnitude,
                "rank": ols.rank,
                "rank_deficient": int(ols.rank_deficient),
            }
        )
    return ResultTable(rows)


def default_config(figure: str) -> ExperimentConfig:
    """Shipped configuration for each experiment; fig1c runs 50 trials."""
    base = ExperimentConfig()
    if figure == "fig1c":
        return replace(base, trial_count=50)
    if figure in ("fig1a", "fig1b"):
        return base
    raise ValueError(f"unknown figure {figure!r}")


_RUNNERS = {
    "fig1a": run_onehop_accuracy,
    "fig1b": run_multihop_accuracy,
    "fig1c": run_ls_improvement,
}


def run_experiment(figure: str, config: ExperimentConfig) -> ResultTable:
    try:
        runner = _RUNNERS[figure]
    except KeyError:
        raise ValueError(f"unknown figure {figure!r}") from None
    return runner(config)


def _parse_value(text: str, annotation: str):
    """Parse one config value by its ``ExperimentConfig`` field annotation."""
    text = text.strip()
    if annotation.endswith("| None") and text.lower() in ("none", "null"):
        return None
    if annotation.startswith("tuple"):
        return tuple(float(v) for v in text.replace(",", " ").split())
    if annotation.startswith("int"):
        return int(text)
    if annotation.startswith("float"):
        return float(text)
    return text


def load_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file; '#' starts a comment line.

    Unknown and repeated keys are rejected; ``error_targets`` takes comma-
    or space-separated values; ``none`` clears an optional field.
    """
    annotations = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in annotations:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                values[key] = _parse_value(raw, annotations[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return ExperimentConfig(**values)
