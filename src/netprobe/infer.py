"""Threshold decisions that turn observed deviations into neighbor sets.

One rule decides everything: a node is declared influenced at hop h when
its absolute observed deviation reaches the natural-drift bound plus half
the least discriminable h-step influence, weight_floor**h * |e| / 2.
Equality decides inclusion, and the excited node itself is never a
candidate.  Repeated excitations average deviations and drift bounds over
their rounds before the same test.  ``_drift_bound`` (the bound from the
snapshot at the injection step) and ``_decide`` (the rule over (trials,
rounds, h+1, n) windows) hold the whole threshold; ``first_hops`` (many
trials of one round), ``decide`` (one trial of many rounds) and
``infer_one_hop`` (h = 1 from one before/after pair) only check and
reshape their inputs for ``_decide``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from netprobe.topology import StabilityClass, _frozen


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

    @property
    def raw_deviations(self) -> Mapping[tuple[int, int], float]:
        """Observed deviation per (node, hop), the excited node left out."""
        rows = enumerate(self.deviations.tolist(), start=1)
        pairs = {(i, h): v for h, row in rows for i, v in enumerate(row) if i != self.source}
        return MappingProxyType(pairs)

    def at_hop(self, h: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.first_hop == h).tolist()) if h > 0 else frozenset()

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


def _drift_bound(y: np.ndarray, stability: StabilityClass) -> np.ndarray:
    """Bound on the excitation-free drift |(W^h y)_i - y_i|, one per finite (..., n) snapshot.

    Marginally stable dynamics keep every propagated value inside the convex
    hull of the current entries, so the max pairwise spread bounds the drift;
    asymptotically stable dynamics contract toward zero, so the max absolute
    entry does.  Unstable dynamics have no such bound.
    """
    if stability is StabilityClass.MARGINALLY_STABLE:
        return y.max(axis=-1) - y.min(axis=-1)
    if stability is StabilityClass.ASYMPTOTICALLY_STABLE:
        return np.abs(y).max(axis=-1)
    raise ValueError("drift bound undefined for unstable dynamics")


def _decide(
    windows, source: int, excitation: float, weight_floor: float, stability: StabilityClass
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The threshold rule over (trials, rounds, h+1, n) windows.

    Row 0 of each round is the snapshot at the injection step.  Drift bounds
    and deviations y_{t+h} - y_t are averaged over each trial's rounds, and
    node i's first hop is the smallest h where its mean |deviation| reaches
    the mean drift bound plus weight_floor**h * |e| / 2; 0 where no hop
    accepts, and always 0 for the source.  Returns first hops (trials, n),
    mean deviations (trials, h, n) and thresholds (trials, h).
    """
    _, rounds, rows, n = windows.shape
    if rounds < 1 or rows < 2:
        raise ValueError("windows need at least one round of h+1 >= 2 rows")
    if excitation == 0.0 or not math.isfinite(excitation):
        raise ValueError(f"excitation must be finite and nonzero, got {excitation}")
    if not (math.isfinite(weight_floor) and weight_floor > 0.0):
        raise ValueError(f"weight floor must be finite and > 0, got {weight_floor}")
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside 0..{n - 1}")
    if not np.isfinite(windows).all():
        raise ValueError("windows must hold finite observations only")
    # the windows are checked finite above; sum / rounds is np.mean's
    # arithmetic without its call overhead
    drift = _drift_bound(windows[:, :, 0], stability).sum(axis=1) / rounds
    deviations = (windows[:, :, 1:] - windows[:, :, :1]).sum(axis=1) / rounds
    floors = [weight_floor ** h * abs(excitation) / 2.0 for h in range(1, rows)]
    thresholds = np.add.outer(drift, floors)
    accepted = np.abs(deviations) >= thresholds[:, :, None]
    accepted[:, :, source] = False
    first = np.where(accepted.any(axis=1), accepted.argmax(axis=1) + 1, 0)
    return first, deviations, thresholds


def first_hops(
    windows,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> np.ndarray:
    """Each trial's first accepting hop per node, shaped (trials, n); 0 = never.

    ``windows`` is (trials, h+1, n): per trial, the observations from the
    injection step on.  Every trial is decided on its own, as one round.
    """
    y = np.asarray(windows, dtype=float)
    if y.ndim != 3:
        raise ValueError("windows must be (trials, h+1, n)")
    return _decide(y[:, None], source, excitation, weight_floor, stability)[0]


def decide(
    windows,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """One trial's hops 1..h from its (rounds, h+1, n) windows, averaged over the rounds.

    One round of an (h+1, n) window is ``window[None]``.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3:
        raise ValueError("windows must be (rounds, h+1, n)")
    first, deviations, thresholds = _decide(windows[None], source, excitation, weight_floor, stability)
    return NeighborDecision(source, first[0], deviations[0], dict(enumerate(thresholds[0].tolist(), 1)))


def infer_one_hop(
    y_before,
    y_after,
    source: int,
    excitation: float,
    weight_floor: float,
    stability: StabilityClass,
) -> NeighborDecision:
    """Decide the one-hop out-neighbors of ``source`` from one pair: ``decide`` with h = 1.

    ``y_before`` is the (n,) observation at the injection step (taken before
    the injection), ``y_after`` the one at the next step.  Repeated
    excitations go to ``decide`` as (rounds, 2, n) windows.
    """
    yb = np.asarray(y_before, dtype=float)
    ya = np.asarray(y_after, dtype=float)
    if yb.shape != ya.shape or yb.ndim != 1 or yb.size == 0:
        raise ValueError("before/after observations must be equal-shape (n,) arrays")
    return decide(np.stack([yb, ya])[None], source, excitation, weight_floor, stability)
