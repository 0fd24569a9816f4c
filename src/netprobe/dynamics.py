"""Forward simulation of the noisy network dynamics with excitation inputs.

The state recursion is x_t = W x_{t-1} + theta_{t-1} with observations
y_t = x_t + upsilon_t.  An excitation adds a scalar to one node's state
immediately before the W-multiplication of its injection step, so its first
observable effect at a downstream neighbor i is w_ij * e one step later.
The excited node's recorded state and observation at the injection step are
taken before the injection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from netprobe.topology import StabilityClass, TopologyMatrix, _frozen


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the i.i.d. Gaussian process/measurement noise."""

    sigma_theta: float = 1.0
    sigma_upsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma_theta < 0 or self.sigma_upsilon < 0:
            raise ValueError("noise standard deviations must be >= 0")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class ExcitationPlan:
    """One excitation: which node, at which step, how large."""

    node: int
    time: int
    magnitude: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("excitation time must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Simulated states and observations, both shaped (T+1, n)."""

    states: np.ndarray
    observations: np.ndarray
    excitations_applied: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        x = np.asarray(self.states, dtype=float)
        y = np.asarray(self.observations, dtype=float)
        if x.shape != y.shape:
            raise ValueError("states and observations must have equal shapes")
        object.__setattr__(self, "states", _frozen(x))
        object.__setattr__(self, "observations", _frozen(y))

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]


def simulate(
    tm: TopologyMatrix,
    x0,
    horizon: int,
    noise: NoiseModel,
    plan: ExcitationPlan | None = None,
    seed=None,
) -> Trajectory:
    """Run the dynamics for ``horizon`` steps from ``x0``.

    All noise draws are made up front in a fixed order, so two runs with the
    same seed share identical noise whether or not an excitation is applied;
    their difference is then exactly the propagated excitation.
    """
    x0 = np.asarray(x0, dtype=float)
    n = tm.n
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if plan is not None:
        if not 0 <= plan.node < n:
            raise ValueError(f"excited node {plan.node} outside 0..{n - 1}")
        if plan.time >= horizon:
            raise ValueError("excitation time must precede the horizon")

    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, noise.sigma_theta, size=(horizon, n))
    upsilon = rng.normal(0.0, noise.sigma_upsilon, size=(horizon + 1, n))

    w = tm.matrix
    states = np.empty((horizon + 1, n))
    states[0] = x0
    for t in range(horizon):
        x = states[t]
        if plan is not None and t == plan.time:
            x = x.copy()
            x[plan.node] += plan.magnitude
        states[t + 1] = w @ x + theta[t]

    applied = () if plan is None else ((plan.node, plan.time, plan.magnitude),)
    return Trajectory(states, states + upsilon, applied)


def simulate_trial(
    tm: TopologyMatrix,
    init: tuple[float, float],
    horizon: int,
    noise: NoiseModel,
    plan: ExcitationPlan | None = None,
    seed=None,
) -> Trajectory:
    """One seeded trial: draw x0 ~ U(init) first, then ``simulate`` on the same generator.

    Passing one ``Generator`` to several calls runs the trials in turn on its
    stream.
    """
    rng = np.random.default_rng(seed)
    return simulate(tm, rng.uniform(*init, tm.n), horizon, noise, plan, seed=rng)


def deviation_bound(y, stability: StabilityClass) -> float | np.ndarray:
    """Bound on the excitation-free drift |(W^h y)_i - y_i| from one snapshot.

    Marginally stable dynamics keep every propagated value inside the convex
    hull of the current entries, so the max pairwise spread bounds the drift;
    asymptotically stable dynamics contract toward zero, so the max absolute
    entry does.  A vector gives a float; an (m, n) array of m snapshots gives
    one bound per row.
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("observation vector must be finite")
    if stability is StabilityClass.MARGINALLY_STABLE:
        bound = y.max(axis=-1) - y.min(axis=-1)
    elif stability is StabilityClass.ASYMPTOTICALLY_STABLE:
        bound = np.abs(y).max(axis=-1)
    else:
        raise ValueError("deviation bound undefined for unstable dynamics")
    return float(bound) if y.ndim == 1 else bound


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Export as CSV rows ``t,node,state,observation``.

    Excitation events are appended as ``# excite node=<j> t=<t> e=<val>``
    comment lines.
    """
    with open(path, "w") as fh:
        fh.write("t,node,state,observation\n")
        for t in range(traj.horizon + 1):
            for i in range(traj.n):
                fh.write(
                    f"{t},{i},{traj.states[t, i]:.17g},{traj.observations[t, i]:.17g}\n"
                )
        for node, t, mag in traj.excitations_applied:
            fh.write(f"# excite node={node} t={t} e={mag:.17g}\n")
