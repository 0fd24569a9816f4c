"""Threshold decisions that turn observed deviations into neighbor sets.

All rules share one shape: a node is declared influenced when the absolute
observed deviation reaches the natural-drift bound plus half the least
discriminable influence, gain_floor * |e| / 2.  Equality decides inclusion.
The excited node itself is never a candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from netprobe.topology import StabilityClass
from netprobe.dynamics import Trajectory, deviation_bound


@dataclass(frozen=True)
class NeighborDecision:
    """Per-hop estimated neighbor sets with the evidence behind them.

    ``estimated_per_hop`` maps hop h to the nodes first accepted at h, so the
    sets are pairwise disjoint; ``raw_deviations`` maps (node, hop) to the
    observed deviation; ``thresholds`` maps hop to the acceptance threshold.
    """

    source: int
    estimated_per_hop: dict[int, frozenset[int]]
    raw_deviations: dict[tuple[int, int], float] = field(default_factory=dict)
    thresholds: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for h, members in sorted(self.estimated_per_hop.items()):
            if self.source in members:
                raise ValueError("estimated sets must exclude the excited node")
            if members & seen:
                raise ValueError("per-hop estimates must be pairwise disjoint")
            seen |= members

    def at_hop(self, h: int) -> frozenset[int]:
        return self.estimated_per_hop.get(h, frozenset())

    def one_hop(self) -> frozenset[int]:
        return self.at_hop(1)

    def to_records(self) -> list[dict]:
        """One record per hop: {source, hop, members, threshold, deviations}."""
        records = []
        for h in sorted(self.estimated_per_hop):
            deviations = {
                str(i): dev for (i, hh), dev in self.raw_deviations.items() if hh == h
            }
            records.append(
                {
                    "source": self.source,
                    "hop": h,
                    "members": sorted(self.estimated_per_hop[h]),
                    "threshold": self.thresholds.get(h),
                    "deviations": deviations,
                }
            )
        return records

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_records(), indent=indent)


def _validate_pair(y_before, y_after) -> tuple[np.ndarray, np.ndarray]:
    yb = np.asarray(y_before, dtype=float)
    ya = np.asarray(y_after, dtype=float)
    if yb.ndim != 1 or yb.shape != ya.shape:
        raise ValueError("before/after observations must be equal-length vectors")
    return yb, ya


def infer_one_hop(
    y_before,
    y_after,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """Decide the one-hop out-neighbors of ``source`` from one excitation.

    ``y_before`` is the observation at the injection step (taken before the
    injection), ``y_after`` the one at the next step.  Node i is accepted
    when |y_after_i - y_before_i| >= drift bound + weight_floor*|e|/2.
    """
    if excitation == 0.0:
        raise ValueError("excitation must be nonzero")
    yb, ya = _validate_pair(y_before, y_after)
    if not 0 <= source < yb.shape[0]:
        raise ValueError(f"source {source} outside 0..{yb.shape[0] - 1}")
    threshold = deviation_bound(yb, stability) + weight_floor * abs(excitation) / 2.0
    deviations = ya - yb
    members = frozenset(
        i
        for i in range(yb.shape[0])
        if i != source and abs(deviations[i]) >= threshold
    )
    raw = {(i, 1): float(deviations[i]) for i in range(yb.shape[0]) if i != source}
    return NeighborDecision(source, {1: members}, raw, {1: threshold})


def infer_within_hops(
    traj: Trajectory,
    source: int,
    excitation: float,
    max_hop: int,
    stability: StabilityClass,
    weight_floor: float,
) -> NeighborDecision:
    """Assign nodes to hops 1..max_hop after a single recorded excitation.

    For each h the deviation y_{t+h} - y_t is tested against the drift bound
    at injection time t plus weight_floor**h * |e|/2, the worst-case h-step
    influence floor; a node joins the hop-h estimate at the smallest h where
    the test first accepts.
    """
    if excitation == 0.0:
        raise ValueError("excitation must be nonzero")
    if len(traj.excitations_applied) != 1:
        raise ValueError("trajectory must contain exactly one excitation")
    node, t0, _ = traj.excitations_applied[0]
    if node != source:
        raise ValueError(f"trajectory excites node {node}, not {source}")
    if t0 + max_hop > traj.horizon:
        raise ValueError("max_hop exceeds the observations after the excitation")

    y0 = traj.observations[t0]
    drift = deviation_bound(y0, stability)
    n = traj.n
    assigned: dict[int, int] = {}
    raw: dict[tuple[int, int], float] = {}
    thresholds: dict[int, float] = {}
    for h in range(1, max_hop + 1):
        threshold = drift + weight_floor ** h * abs(excitation) / 2.0
        thresholds[h] = threshold
        deviations = traj.observations[t0 + h] - y0
        for i in range(n):
            if i == source:
                continue
            raw[(i, h)] = float(deviations[i])
            if i not in assigned and abs(deviations[i]) >= threshold:
                assigned[i] = h
    per_hop = {
        h: frozenset(i for i, hh in assigned.items() if hh == h)
        for h in range(1, max_hop + 1)
    }
    return NeighborDecision(source, per_hop, raw, thresholds)


def infer_multi_excitation(
    trials: list[tuple[np.ndarray, np.ndarray]],
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """One-hop decision from m repeated excitations of the same node.

    Deviations are averaged across trials and compared against the average
    of the per-trial drift bounds plus weight_floor*|e|/2.  With one trial
    this reduces exactly to ``infer_one_hop``.
    """
    if excitation == 0.0:
        raise ValueError("excitation must be nonzero")
    if not trials:
        raise ValueError("need at least one trial")
    pairs = [_validate_pair(yb, ya) for yb, ya in trials]
    n = pairs[0][0].shape[0]
    if any(yb.shape[0] != n for yb, _ in pairs):
        raise ValueError("trials must share one network size")
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside 0..{n - 1}")
    mean_drift = float(np.mean([deviation_bound(yb, stability) for yb, _ in pairs]))
    mean_dev = np.mean([ya - yb for yb, ya in pairs], axis=0)
    threshold = mean_drift + weight_floor * abs(excitation) / 2.0
    members = frozenset(
        i for i in range(n) if i != source and abs(mean_dev[i]) >= threshold
    )
    raw = {(i, 1): float(mean_dev[i]) for i in range(n) if i != source}
    return NeighborDecision(source, {1: members}, raw, {1: threshold})
