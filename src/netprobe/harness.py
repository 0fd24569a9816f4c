"""Experiment runners: designed-excitation accuracy sweeps and LS refinement.

Each runner builds the network from an ``ExperimentConfig``, runs seeded
independent trials, and returns a ``ResultTable`` whose theoretical columns
come straight from the formulas in :mod:`netprobe.detect`.  Trials draw
their randomness from seeds spawned deterministically off the master seed in
trial order, so results are bit-reproducible and trials could execute in any
order or in parallel.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from netprobe import detect
from netprobe.topology import (
    TopologyMatrix,
    WeightedDigraph,
    generate_random_digraph,
    laplacian_weights,
    metropolis_weights,
    scale_to_asymptotic,
    true_hop_sets,
)
from netprobe.dynamics import ExcitationPlan, NoiseModel, simulate
from netprobe.estimate import (
    LsProblem,
    constrained_estimate,
    constraints_from_decision,
    error_metrics,
    ols_estimate,
)
from netprobe.infer import infer_one_hop, infer_within_hops


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
        if self.trial_count < 1:
            raise ValueError("trial count must be >= 1")
        if not 0.0 < self.edge_probability <= 1.0:
            raise ValueError("edge probability must lie in (0, 1]")
        if self.weight_rule not in ("laplacian", "metropolis"):
            raise ValueError("weight rule must be 'laplacian' or 'metropolis'")
        for p in (*self.error_targets, self.false_alarm):
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability parameter {p} outside (0, 1)")
        if self.alpha_scale is not None and not 0.0 < self.alpha_scale < 1.0:
            raise ValueError("alpha scale must lie in (0, 1)")
        if self.burn_in < 1:
            raise ValueError("burn-in must be >= 1")
        if self.max_hop < 1:
            raise ValueError("max hop must be >= 1")
        if self.init_low >= self.init_high:
            raise ValueError("initial-state interval is empty")
        object.__setattr__(self, "error_targets", tuple(float(p) for p in self.error_targets))

    def noise(self) -> NoiseModel:
        return NoiseModel(self.sigma_theta, self.sigma_upsilon)

    def build_network(self) -> tuple[WeightedDigraph, TopologyMatrix]:
        graph = generate_random_digraph(self.n, self.edge_probability, self.graph_seed)
        if self.weight_rule == "laplacian":
            tm = laplacian_weights(graph, self.gamma)
        else:
            tm = metropolis_weights(graph)
        if self.alpha_scale is not None:
            tm = scale_to_asymptotic(tm, self.alpha_scale)
        return graph, tm

    def sigma_bound(self) -> float:
        # Rule-built matrices keep squared row sums at most one even after
        # the asymptotic rescaling, so the tight bound applies.
        return detect.deviation_noise_bound(self.n, self.noise(), row_stochastic=True)


@dataclass(frozen=True)
class ResultTable:
    """Column-named result rows with CSV/JSON export."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")

    def column(self, name: str) -> list:
        k = self.columns.index(name)
        return [row[k] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)

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
            for v, w in zip(row, widths):
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
    connection.  For deeper runs: the smallest-index node with nonempty hop
    sets all the way to max_hop.
    """
    n = graph.n
    if max_hop == 1:
        eligible = [
            (len(graph.out_neighbors(j)), j)
            for j in range(n)
            if graph.out_neighbors(j)
        ]
        if not eligible:
            raise ValueError("graph has no edges")
        return min(eligible)[1]
    for j in range(n):
        hs = true_hop_sets(graph, j, max_hop)
        if all(hs.at_hop(h) for h in range(1, max_hop + 1)):
            return j
    raise ValueError(f"no node reaches depth {max_hop}; use a denser graph")


def _network(config: ExperimentConfig) -> tuple[WeightedDigraph, TopologyMatrix]:
    """Build the config's network and refuse a floor above its smallest weight.

    The designed excitations only guarantee detection of weights at or above
    the floor, so a higher floor breaks every theory column's premise.
    """
    graph, tm = config.build_network()
    if config.weight_floor > tm.weight_floor:
        raise ValueError(
            f"weight_floor {config.weight_floor!r} exceeds the network's smallest "
            f"weight {tm.weight_floor!r}"
        )
    return graph, tm


def _trial_seeds(config: ExperimentConfig) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(config.seed).spawn(config.trial_count)


def _positive_magnitude(e: float) -> float:
    # a noiseless design yields a zero critical input; any positive magnitude
    # then discriminates perfectly, so fall back to one
    return e if e > 0.0 else 1.0


def run_onehop_accuracy(config: ExperimentConfig) -> ResultTable:
    """Designed one-hop tests vs their theoretical accuracy floor.

    For every error target, the excitation is sized by the critical-magnitude
    formula (unless overridden), ``trial_count`` independent burn-in/excite/
    decide rounds are run, and the fraction of correct per-pair decisions is
    reported next to one minus the designed misjudgement probability.  The
    guarantee presumes every positive weight reaches the configured floor.
    """
    graph, tm = _network(config)
    source = config.excited_node if config.excited_node is not None else pick_source_node(graph)
    truth = true_hop_sets(graph, source, 1).at_hop(1)
    noise = config.noise()
    sigma_bar = config.sigma_bound()
    seeds = _trial_seeds(config)
    n = config.n

    rows = []
    for target in config.error_targets:
        e = config.excitation_magnitude
        if e is None:
            e = _positive_magnitude(
                detect.critical_excitation(sigma_bar, config.weight_floor, target)
            )
        theory = 1.0 - detect.misjudgement_probability(sigma_bar, config.weight_floor, e)
        pair_ok = 0
        set_ok = 0
        for ss in seeds:
            rng = np.random.default_rng(ss)
            x0 = rng.uniform(config.init_low, config.init_high, n)
            plan = ExcitationPlan(source, config.burn_in, e)
            traj = simulate(tm, x0, config.burn_in + 1, noise, plan, seed=rng)
            decision = infer_one_hop(
                traj.observations[config.burn_in],
                traj.observations[config.burn_in + 1],
                source,
                e,
                config.weight_floor,
                tm.stability,
            )
            estimated = decision.one_hop()
            pair_ok += sum(
                (i in estimated) == (i in truth) for i in range(n) if i != source
            )
            set_ok += estimated == truth
        decisions = config.trial_count * (n - 1)
        pair_acc = pair_ok / decisions
        rows.append(
            (
                target,
                e,
                theory,
                pair_acc,
                set_ok / config.trial_count,
                decisions,
                binomial_half_width(pair_acc, decisions),
            )
        )
    return ResultTable(
        (
            "error_target",
            "excitation",
            "theory_accuracy",
            "pair_accuracy",
            "set_accuracy",
            "decision_count",
            "ci_half_width",
        ),
        tuple(rows),
    )


def _positive_gain_range(w: np.ndarray, target: int, source: int, max_hop: int) -> tuple[float, float]:
    """Min/max positive multi-step influence gains over horizons 1..max_hop."""
    gains = []
    power = np.eye(w.shape[0])
    for _ in range(max_hop):
        power = power @ w
        if power[target, source] > 0.0:
            gains.append(float(power[target, source]))
    if not gains:
        raise ValueError(f"node {target} is unreachable from {source} within {max_hop} hops")
    return min(gains), max(gains)


def run_multihop_accuracy(config: ExperimentConfig) -> ResultTable:
    """Hop placement of one representative node per hop vs the theory bound.

    One excitation per trial; the deviation tests run for h = 1..max_hop with
    worst-case gain floors.  The excitation is the configured multiple of the
    largest per-target critical magnitude, and the reported bound is the
    placement lower bound evaluated at each target's own critical magnitude.
    """
    graph, tm = _network(config)
    source = (
        config.excited_node
        if config.excited_node is not None
        else pick_source_node(graph, config.max_hop)
    )
    hop_truth = true_hop_sets(graph, source, config.max_hop)
    noise = config.noise()
    w = tm.matrix

    hops = [h for h in range(1, config.max_hop + 1) if hop_truth.at_hop(h)]
    if not hops:
        raise ValueError("excited node has no reachable nodes at any hop")
    targets = {h: min(hop_truth.at_hop(h)) for h in hops}
    gain_range = {h: _positive_gain_range(w, targets[h], source, h) for h in hops}
    sigma = {
        h: max(
            detect.deviation_noise_std(tm, targets[h], l, noise)
            for l in range(1, h + 1)
        )
        for h in hops
    }
    critical = {
        h: detect.critical_excitation(sigma[h], gain_range[h][0], 2.0 * config.false_alarm)
        for h in hops
    }
    e = config.excitation_magnitude
    if e is None:
        e = _positive_magnitude(config.excitation_scale * max(critical.values()))

    hits = {h: 0 for h in hops}
    for ss in _trial_seeds(config):
        rng = np.random.default_rng(ss)
        x0 = rng.uniform(config.init_low, config.init_high, config.n)
        plan = ExcitationPlan(source, config.burn_in, e)
        traj = simulate(tm, x0, config.burn_in + config.max_hop, noise, plan, seed=rng)
        decision = infer_within_hops(
            traj.observations[config.burn_in:], source, e, config.weight_floor, tm.stability
        )
        for h in hops:
            hits[h] += targets[h] in decision.at_hop(h)

    rows = []
    for h in hops:
        gmin, gmax = gain_range[h]
        bound = detect.hop_inference_lower_bound(
            gmin, gmax, critical[h], config.false_alarm, sigma[h]
        )
        empirical = hits[h] / config.trial_count
        rows.append(
            (
                h,
                targets[h],
                gmin,
                gmax,
                critical[h],
                e,
                bound,
                empirical,
                config.trial_count,
                binomial_half_width(empirical, config.trial_count),
            )
        )
    return ResultTable(
        (
            "hop",
            "target_node",
            "gain_min",
            "gain_max",
            "critical_excitation",
            "excitation",
            "theory_lower_bound",
            "empirical_probability",
            "trials",
            "ci_half_width",
        ),
        tuple(rows),
    )


def run_ls_improvement(config: ExperimentConfig) -> ResultTable:
    """Paired OLS vs excitation-constrained LS errors, one row per seed.

    Each row simulates n+5 noisy observation pairs, estimates the matrix by
    plain least squares, then injects one designed excitation, converts the
    resulting one-hop decision into column constraints, and re-estimates.
    """
    graph, tm = _network(config)
    source = config.excited_node if config.excited_node is not None else pick_source_node(graph)
    noise = config.noise()
    sigma_bar = config.sigma_bound()
    target = min(config.error_targets)
    e = config.excitation_magnitude
    if e is None:
        e = _positive_magnitude(
            detect.critical_excitation(sigma_bar, config.weight_floor, target)
        )
    horizon = config.n + 5
    n = config.n

    rows = []
    for k, ss in enumerate(_trial_seeds(config)):
        rng = np.random.default_rng(ss)
        x0 = rng.uniform(config.init_low, config.init_high, n)
        plan = ExcitationPlan(source, horizon, e)
        traj = simulate(tm, x0, horizon + 1, noise, plan, seed=rng)
        y = traj.observations
        problem = LsProblem(y[:horizon], y[1:horizon + 1])
        ols = ols_estimate(problem)
        decision = infer_one_hop(
            y[horizon], y[horizon + 1], source, e, config.weight_floor, tm.stability
        )
        constraints = constraints_from_decision(decision, n)
        constrained = constrained_estimate(replace(problem, constraints=constraints))
        m_ols = error_metrics(ols.matrix, tm.matrix)
        m_con = error_metrics(constrained.matrix, tm.matrix)
        rows.append(
            (
                k,
                m_ols.structure_error,
                m_ols.magnitude_error,
                m_con.structure_error,
                m_con.magnitude_error,
                ols.rank,
                int(ols.rank_deficient),
            )
        )
    return ResultTable(
        (
            "seed_index",
            "ols_structure_error",
            "ols_magnitude_error",
            "constrained_structure_error",
            "constrained_magnitude_error",
            "rank",
            "rank_deficient",
        ),
        tuple(rows),
    )


def default_config(figure: str) -> ExperimentConfig:
    """Shipped configuration for each experiment; fig1c runs 50 seeds."""
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


def _parse_value(text: str, kind: str):
    text = text.strip()
    if text.lower() in ("none", "null"):
        return None
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "tuple":
        return tuple(float(v) for v in text.replace(",", " ").split())
    return text


_FIELD_KINDS = {
    "n": "int",
    "graph_seed": "int",
    "trial_count": "int",
    "max_hop": "int",
    "excited_node": "int",
    "burn_in": "int",
    "seed": "int",
    "weight_rule": "str",
    "error_targets": "tuple",
}


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a flat ``key = value`` config file; '#' starts a comment line.

    Unknown keys are rejected; ``error_targets`` takes comma- or space-
    separated values; ``none`` clears an optional field.  Keyword overrides
    win over file values.
    """
    known = {f.name for f in fields(ExperimentConfig)}
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
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(raw, _FIELD_KINDS.get(key, "float"))
    values.update(overrides)
    return ExperimentConfig(**values)
