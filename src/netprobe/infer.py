"""Threshold decisions that turn observed deviations into neighbor sets.

One rule decides everything: a node is declared influenced at hop h when
its absolute observed deviation reaches the natural-drift bound plus half
the least discriminable h-step influence, weight_floor**h * |e| / 2.
Equality decides inclusion.  The one-hop test is the case h = 1, and
repeated excitations average deviations and drift bounds over rounds.  The
excited node itself is never a candidate.  ``first_hops`` applies the rule
to many trials at once and returns only their first-hop arrays.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from netprobe.topology import StabilityClass, _frozen
from netprobe.dynamics import deviation_bound


@dataclass(frozen=True, eq=False)
class NeighborDecision:
    """One excitation's neighbor decisions with the evidence behind them.

    ``first_hop[i]`` is the hop at which node i was first accepted, 0 when
    no hop accepted it (always 0 for the excited node); ``deviations[h-1]``
    holds every node's observed hop-h deviation; ``thresholds`` maps hop to
    the acceptance threshold.  Both arrays are read-only.
    """

    source: int
    first_hop: np.ndarray
    deviations: np.ndarray
    thresholds: dict[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "first_hop", _frozen(self.first_hop))
        object.__setattr__(self, "deviations", _frozen(self.deviations))
        if self.first_hop[self.source]:
            raise ValueError("estimated sets must exclude the excited node")

    def __eq__(self, other) -> bool:
        """Equal when the records are: same source, members, thresholds and tested deviations."""
        return isinstance(other, NeighborDecision) and self.to_records() == other.to_records()

    @property
    def raw_deviations(self) -> Mapping[tuple[int, int], float]:
        """Observed deviation per (node, hop), the excited node left out."""
        rows = enumerate(self.deviations.tolist(), start=1)
        pairs = {(i, h): v for h, row in rows for i, v in enumerate(row) if i != self.source}
        return MappingProxyType(pairs)

    def at_hop(self, h: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.first_hop == h).tolist()) if h > 0 else frozenset()

    def one_hop(self) -> frozenset[int]:
        return self.at_hop(1)

    def to_records(self) -> list[dict]:
        """One record per hop: {source, hop, members, threshold, deviations}."""
        return [
            {
                "source": self.source,
                "hop": h,
                "members": sorted(self.at_hop(h)),
                "threshold": self.thresholds[h],
                "deviations": {str(i): dev for i, dev in enumerate(row) if i != self.source},
            }
            for h, row in enumerate(self.deviations.tolist(), start=1)
        ]


def _first_hops(
    deviations: np.ndarray,
    drift: np.ndarray,
    source: int,
    excitation: float,
    weight_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The threshold rule: first hops (trials, n) and thresholds (trials, h).

    ``deviations`` (trials, h, n) and ``drift`` (trials,) belong to one
    decision per trial.  Node i's first hop is the smallest h where
    |deviation| >= drift + weight_floor**h * |e| / 2, and 0 where no hop
    accepts; the source's is always 0.
    """
    if excitation == 0.0 or not math.isfinite(excitation):
        raise ValueError(f"excitation must be finite and nonzero, got {excitation}")
    _, hops, n = deviations.shape
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside 0..{n - 1}")
    floors = [weight_floor ** h * abs(excitation) / 2.0 for h in range(1, hops + 1)]
    thresholds = np.add.outer(drift, floors)
    accepted = np.abs(deviations) >= thresholds[:, :, None]
    accepted[:, :, source] = False
    return np.where(accepted.any(axis=1), accepted.argmax(axis=1) + 1, 0), thresholds


def first_hops(
    windows,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> np.ndarray:
    """Each trial's first accepting hop per node, shaped (trials, n); 0 = never.

    ``windows`` is (trials, h+1, n): per trial, the observations from the
    injection step on.  Every trial is decided on its own, as
    ``infer_within_hops`` decides one window.
    """
    y = np.asarray(windows, dtype=float)
    if y.ndim != 3 or y.shape[1] < 2:
        raise ValueError("windows must be (trials, h+1, n) with h >= 1")
    drift = deviation_bound(y[:, 0], stability)
    return _first_hops(y[:, 1:] - y[:, :1], drift, source, excitation, weight_floor)[0]


def _decide(
    windows: np.ndarray,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """The threshold rule over (rounds, h+1, n) observation windows.

    Row 0 of each round is the snapshot at the injection step.  Drift bounds
    and deviations are averaged over rounds and decided as one trial.
    """
    rounds = windows.shape[0]
    # sum / rounds is np.mean's arithmetic without its call overhead
    drift = deviation_bound(windows[:, 0], stability).sum() / rounds
    deviations = (windows[:, 1:] - windows[:, :1]).sum(axis=0) / rounds
    first, thresholds = _first_hops(
        deviations[None], np.array([drift]), source, excitation, weight_floor
    )
    return NeighborDecision(source, first[0], deviations, dict(enumerate(thresholds[0].tolist(), 1)))


def infer_one_hop(
    y_before,
    y_after,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """Decide the one-hop out-neighbors of ``source``.

    ``y_before`` is the observation at the injection step (taken before the
    injection), ``y_after`` the one at the next step.  Node i is accepted
    when |y_after_i - y_before_i| >= drift bound + weight_floor*|e|/2.
    Equal-shape (m, n) arrays hold m repeated excitations, one per row; the
    rule then compares the mean deviation with the mean drift bound.
    """
    yb = np.asarray(y_before, dtype=float)
    ya = np.asarray(y_after, dtype=float)
    if yb.shape != ya.shape or yb.ndim not in (1, 2) or yb.size == 0:
        raise ValueError("before/after observations must be equal-shape n or (m, n) arrays")
    # (rounds, 2, n): each round's before and after rows
    windows = np.array([yb, ya]).reshape(2, -1, yb.shape[-1]).swapaxes(0, 1)
    return _decide(windows, source, excitation, weight_floor, stability)


def infer_within_hops(
    observations,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """Assign nodes to hops 1..h after a single excitation.

    ``observations`` is the (h+1, n) window of observations starting at the
    injection step.  For each h the deviation y_{t+h} - y_t is tested against
    the drift bound at injection time t plus weight_floor**h * |e|/2, the
    worst-case h-step influence floor; a node joins the hop-h estimate at the
    smallest h where the test first accepts.
    """
    y = np.asarray(observations, dtype=float)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValueError("observations must be an (h+1, n) window with h >= 1")
    return _decide(y[None], source, excitation, weight_floor, stability)
