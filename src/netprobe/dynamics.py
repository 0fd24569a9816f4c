"""Forward simulation of the noisy network dynamics, unexcited.

The state recursion is x_t = W x_{t-1} + theta_{t-1} with observations
y_t = x_t + upsilon_t.  An input e at node j at step t acts as e added to
x_t[j] before the W-multiplication: the model is linear and its noise does
not depend on the input, so it adds exactly e (W^k)[:, j] to the state k
steps later (superposition), and the rows up to the injection step are
untouched.  Both simulators therefore run unexcited, and their callers add
e times ``_response`` to the rows they excite.  ``simulate`` runs one
trajectory from a given x0.  ``simulate_batch`` runs a seeded run of trials,
chunk by chunk, and keeps the rows from a first step s on.  Both step
through ``_step``.  A run's seed spawns two streams, one per purpose
(L'Ecuyer et al., *Math. Comput. Simul.* 135, 2017): the first draws every
trial's x0 ~ U(init), the second every trial's normals in trial order,
(when s > 0) z ~ N(0, I), then theta for its kept steps, then upsilon for
its kept rows.  A trial's state at step s is sampled exactly as
W^s x0 + L z, L the Cholesky factor of the process noise's covariance at s,
so the steps before s are never simulated.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from netprobe.topology import TopologyMatrix, _frozen


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


# Bytes of one chunk's normals (z, theta for the kept steps, upsilon for the
# kept rows): 1 MiB is 54 trials of 4 kept rows at n = 300, 1,638 trials of
# 2 kept rows at n = 20, and less than one trial of 307 rows at n = 300.
CHUNK_BYTES = 1 << 20


def _check_init(init: tuple[float, float]) -> None:
    if not all(math.isfinite(bound) for bound in init):
        raise ValueError(f"initial-state interval must be finite, got {tuple(init)!r}")
    if init[0] >= init[1]:
        raise ValueError(f"initial-state interval is empty, got {tuple(init)!r}")


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _scale(normals: np.ndarray, sigma: float) -> np.ndarray:
    """Scale standard normals in place to the values ``normal(0.0, sigma)`` returns for them."""
    if sigma == 0.0:
        normals.fill(0.0)  # normal() returns 0.0 + 0.0 * z, a positive zero
    else:
        normals *= sigma
    return normals


def _step(tm: TopologyMatrix, x, draws: np.ndarray, noise: NoiseModel, states, law=None):
    """Step trials from their (n, k) start columns ``x`` into the (k, rows, n) ``states``.

    ``draws`` holds one row of standard normals per trial: z (only with a
    ``law`` = (W^s, L)), theta for the steps, then upsilon for the rows.
    theta and upsilon are scaled in place, the start is W^s x + L z with a
    ``law``, and the states step as the columns of one (n, k) array: the
    faster product, and with one column the bits of ``W @ x``.  Returns
    upsilon, (k, rows, n).
    """
    trials, rows, n = states.shape
    lead = 0 if law is None else n
    mid = lead + (rows - 1) * n
    theta = _scale(draws[:, lead:mid], noise.sigma_theta).reshape(trials, rows - 1, n)
    upsilon = _scale(draws[:, mid:], noise.sigma_upsilon).reshape(trials, rows, n)
    if law is not None:
        power, factor = law
        x = power @ x + factor @ draws[:, :n].T
    x = np.array(x, order="C")
    nxt = np.empty_like(x)
    for t in range(rows - 1):
        states[:, t] = x.T
        np.matmul(tm.matrix, x, out=nxt)
        nxt += theta[:, t].T
        x, nxt = nxt, x
    states[:, -1] = x.T
    return upsilon


def _response(tm: TopologyMatrix, node: int, steps: int) -> np.ndarray:
    """(steps + 1, n) unit response to an input at ``node``: row 0 zero, row k (W^k)[:, node]."""
    rows = np.zeros((steps + 1, tm.n))
    for k in range(1, steps + 1):
        rows[k] = tm.matrix[:, node] if k == 1 else tm.matrix @ rows[k - 1]
    return rows


def simulate(tm: TopologyMatrix, x0, horizon: int, noise: NoiseModel, seed=None) -> Trajectory:
    """Run the unexcited dynamics for ``horizon`` steps from ``x0``.

    The normals are one draw, theta then upsilon, so two runs with the same
    seed share identical noise; an input is added to the result as e times
    ``_response``.  A ``Generator`` passed as ``seed`` draws on from where
    its stream stands.
    """
    x0 = np.asarray(x0, dtype=float)
    n = tm.n
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    _check_integer("horizon", horizon, 1)
    rng = np.random.default_rng(seed)
    states = np.empty((1, horizon + 1, n))
    upsilon = _step(tm, x0[:, None], rng.standard_normal((1, (2 * horizon + 1) * n)), noise, states)
    return Trajectory(states[0], states[0] + upsilon[0])


def _start_law(tm: TopologyMatrix, start: int, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """(W^s, L) for s = ``start``: given x0, x_s = W^s x0 + L z with z ~ N(0, I).

    L is the Cholesky factor of the process noise's covariance at step s,
    C_s = sigma_theta^2 G_s with G_s = sum_{k<s} W^k W^k^T (Anderson & Moore,
    *Optimal Filtering*, 1979); G_s >= I for s >= 1, also at a marginally
    stable W.  The bits of s are read most significant first from
    (W^1, G_1) = (W, I): each doubles, G_2r = G_r + W^r G_r W^r^T and
    W^2r = W^r W^r, and a 1 bit then steps once, G_(r+1) = G_r + W^r W^r^T
    and W^(r+1) = W^r W.  That is at most 5 log2(s) products, 18 at s = 50.
    L is zero when s or sigma_theta is.
    """
    n = tm.n
    # W^r and G_r at r = 1; W^0 at s = 0
    power, gram = (tm.matrix if start else np.eye(n)), np.eye(n)
    for r, bit in enumerate(bin(start)[3:]):
        gram += power @ power.T if r == 0 else power @ gram @ power.T  # G_1 = I
        power = power @ power
        if bit == "1":
            gram += power @ power.T
            power = power @ tm.matrix
    if not start or noise.sigma_theta == 0.0:
        return power, np.zeros((n, n))
    return power, noise.sigma_theta * np.linalg.cholesky(gram)


def _simulate_chunk(tm, init, noise, streams, trials, steps, law) -> np.ndarray:
    """The next ``trials`` trials of ``simulate_batch``; ``law`` is None at start 0.

    Two bulk draws, every trial's x0 from the first stream and from the
    second one row per trial of its z, theta and upsilon for ``_step``.
    The returned windows are a new array, so the draws are freed on return.
    """
    uniforms, normals = streams
    states = np.empty((trials, steps + 1, tm.n))
    x = uniforms.uniform(*init, (trials, tm.n)).T
    draws = normals.standard_normal((trials, (2 * steps + 1 + (law is not None)) * tm.n))
    states += _step(tm, x, draws, noise, states, law)
    return states


def simulate_batch(
    tm: TopologyMatrix,
    init: tuple[float, float],
    horizon: int,
    noise: NoiseModel,
    seed: int,
    trials: int,
    start: int = 0,
) -> Iterator[np.ndarray]:
    """Unexcited rows y_start..y_horizon of a seeded run of ``trials`` trials, as (chunk, rows, n).

    The arguments are checked and the start-state law is built when called;
    the returned iterator then draws the trials in order, as many per chunk
    as keep a chunk's normals within CHUNK_BYTES.  ``SeedSequence(seed)``
    spawns two streams: trial k's x0 is the k-th ``uniform(*init, n)`` row of
    the first, and its normals are the next run of the second, z (when
    ``start`` > 0), then theta and upsilon as ``simulate`` draws them.  A
    chunk of k trials is one (k, n) and one (k, normals) draw, so the chunk
    size never changes which draws a trial gets.  A caller adds an input e
    at node j and step t >= ``start`` as e times ``_response(tm, j,
    horizon - t)`` on the rows from t on.  The trials of a chunk step
    together through ``_step``, one (n, n) @ (n, trials) product per step,
    which may round the last bits differently from the matrix-vector product
    of ``simulate``.  A non-integer ``horizon``, ``seed``, ``trials`` or
    ``start`` is rejected.
    """
    _check_init(init)
    _check_integer("horizon", horizon, 1)
    _check_integer("seed", seed, 0)
    _check_integer("trials", trials, 1)
    _check_integer("start", start, 0)
    if start > horizon:
        raise ValueError(f"first kept step {start} outside 0..{horizon}")
    law = _start_law(tm, start, noise) if start else None
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    steps = horizon - start
    normals = (2 * steps + 1 + (start > 0)) * tm.n  # one trial's z, theta and upsilon
    size = max(1, CHUNK_BYTES // (8 * normals))
    return (
        _simulate_chunk(tm, init, noise, streams, min(size, trials - first), steps, law)
        for first in range(0, trials, size)
    )


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
