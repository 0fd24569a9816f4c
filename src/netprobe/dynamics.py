"""Forward simulation of the noisy network dynamics with excitation inputs.

The state recursion is x_t = W x_{t-1} + theta_{t-1} with observations
y_t = x_t + upsilon_t.  An excitation adds a scalar to one node's state
immediately before the W-multiplication of its injection step, so its first
observable effect at a downstream neighbor i is w_ij * e one step later.
The excited node's recorded state and observation at the injection step are
taken before the injection.  ``simulate`` runs one trajectory from a given
x0; ``simulate_batch`` runs many seeded trials at once, each drawing
x0 ~ U(init), then theta, then upsilon from its own generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from netprobe.topology import StabilityClass, TopologyMatrix, _frozen


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the i.i.d. Gaussian process/measurement noise."""

    sigma_theta: float = 1.0
    sigma_upsilon: float = 1.0

    def __post_init__(self) -> None:
        for sigma in (self.sigma_theta, self.sigma_upsilon):
            if not 0.0 <= sigma < math.inf:
                raise ValueError(f"noise standard deviations must be finite and >= 0, got {sigma!r}")

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
        if not math.isfinite(self.magnitude):
            raise ValueError(f"excitation magnitude must be finite, got {self.magnitude}")


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


# Process-noise bytes in one chunk of trials: 1 MiB is 8 trials of 53
# steps at n = 300 and 128 trials of 51 steps at n = 20.  When the harness
# runs every other chunk on a worker, two chunks' buffers are alive at once,
# one on each thread.
CHUNK_BYTES = 1 << 20


def _check_run(tm: TopologyMatrix, horizon: int, plan: ExcitationPlan | None) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if plan is not None:
        if not 0 <= plan.node < tm.n:
            raise ValueError(f"excited node {plan.node} outside 0..{tm.n - 1}")
        if plan.time >= horizon:
            raise ValueError("excitation time must precede the horizon")


def _check_init(init: tuple[float, float]) -> None:
    if not all(math.isfinite(bound) for bound in init):
        raise ValueError(f"initial-state interval must be finite, got {tuple(init)!r}")
    if init[0] >= init[1]:
        raise ValueError(f"initial-state interval is empty, got {tuple(init)!r}")


def _normal(rng: np.random.Generator, sigma: float, out: np.ndarray) -> None:
    """Fill ``out`` with the values ``rng.normal(0.0, sigma, out.shape)`` returns."""
    rng.standard_normal(out=out)
    if sigma == 0.0:
        out.fill(0.0)  # normal() returns 0.0 + 0.0 * z, a positive zero
    else:
        out *= sigma


def _propagate(
    tm: TopologyMatrix,
    x0: np.ndarray,
    theta: np.ndarray,
    plan: ExcitationPlan | None,
    start: int,
    states: np.ndarray,
) -> None:
    """Run x_{t+1} = W x_t + theta_t from every row of ``x0`` at once.

    ``x0`` is (k, n) and ``theta`` (k, horizon, n).  State x_t goes to
    ``states[:, t - start]`` for t >= start, taken before that step's
    injection.  The states step as the columns of one (n, k) array: that is
    the faster product, and with one column it gives the bits of ``W @ x``.
    """
    w = tm.matrix
    x = np.array(x0.T, order="C")
    nxt = np.empty_like(x)
    horizon = theta.shape[1]
    for t in range(horizon + 1):
        if t >= start:
            states[:, t - start] = x.T
        if t == horizon:
            break
        if plan is not None and t == plan.time:
            x[plan.node] += plan.magnitude
        np.matmul(w, x, out=nxt)
        nxt += theta[:, t].T
        x, nxt = nxt, x


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
    their difference is then exactly the propagated excitation.  A
    ``Generator`` passed as ``seed`` draws on from where its stream stands.
    """
    x0 = np.asarray(x0, dtype=float)
    n = tm.n
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    _check_run(tm, horizon, plan)

    rng = np.random.default_rng(seed)
    theta = np.empty((1, horizon, n))
    upsilon = np.empty((horizon + 1, n))
    _normal(rng, noise.sigma_theta, theta[0])
    _normal(rng, noise.sigma_upsilon, upsilon)
    states = np.empty((1, horizon + 1, n))
    _propagate(tm, x0[None], theta, plan, 0, states)

    applied = () if plan is None else ((plan.node, plan.time, plan.magnitude),)
    return Trajectory(states[0], states[0] + upsilon, applied)


def chunk_size(n: int, horizon: int) -> int:
    """Trials per ``simulate_batch`` call that keep its process noise within CHUNK_BYTES.

    When the harness runs every other chunk on a worker, its trial buffers
    take about twice this budget.
    """
    return max(1, CHUNK_BYTES // (8 * horizon * n))


def _workspace(trials: int, n: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise buffers for up to ``trials`` trials: all their theta, one trial's upsilon."""
    return np.empty((trials, horizon, n)), np.empty((horizon + 1, n))


def _simulate_chunk(tm, init, noise, plan, seeds, start, workspace) -> np.ndarray:
    """``simulate_batch`` past its checks, drawing into a ``_workspace`` that fits the seeds.

    Each seed's generator draws x0 ~ U(init), then theta, then upsilon.
    The returned window is a new array, so the workspace can draw the next
    chunk while the caller still holds this one.
    """
    theta, upsilon = workspace
    k, n = len(seeds), tm.n
    theta = theta[:k]
    x = np.empty((k, n))
    out = np.empty((k, len(upsilon) - start, n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        x[i] = rng.uniform(*init, n)
        _normal(rng, noise.sigma_theta, theta[i])
        _normal(rng, noise.sigma_upsilon, upsilon)
        out[i] = upsilon[start:]
    states = np.empty_like(out)
    _propagate(tm, x, theta, plan, start, states)
    out += states
    return out


def simulate_batch(
    tm: TopologyMatrix,
    init: tuple[float, float],
    horizon: int,
    noise: NoiseModel,
    plan: ExcitationPlan | None,
    seeds,
    start: int = 0,
) -> np.ndarray:
    """Observations y_start..y_horizon of seeded trials, shaped (trials, rows, n).

    Trial k draws x0 ~ U(init) from ``default_rng(seeds[k])`` and then, on
    the same generator, the theta and upsilon that ``simulate`` draws; then
    all trials step together, one (n, n) @ (n, trials) product per step.
    That product may round the last bits differently from the
    matrix-vector product of ``simulate``.  One ``Generator`` repeated in
    ``seeds`` draws the trials in turn on its stream.  The buffers grow
    with the trial count, so callers pass ``chunk_size`` seeds at a time.
    """
    _check_init(init)
    _check_run(tm, horizon, plan)
    if not 0 <= start <= horizon:
        raise ValueError(f"first kept step {start} outside 0..{horizon}")
    workspace = _workspace(len(seeds), tm.n, horizon)
    return _simulate_chunk(tm, init, noise, plan, seeds, start, workspace)


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
