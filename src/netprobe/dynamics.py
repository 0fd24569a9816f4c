"""Forward simulation of the noisy network dynamics, unexcited.

The state recursion is x_t = W x_{t-1} + theta_{t-1} with observations
y_t = x_t + upsilon_t.  An input e at node j at step t acts as e added to
x_t[j] before the W-multiplication: the model is linear and its noise does
not depend on the input, so it adds exactly e (W^k)[:, j] to the state k
steps later (superposition), and the rows up to the injection step are
untouched.  Both simulators therefore run unexcited, and their callers add
e times ``_response`` to the rows they excite.  ``simulate`` runs one
trajectory from a given x0.  ``simulate_batch`` runs a seeded run of trials
in chunks and keeps the rows from a first step s on; a run of more than one
chunk draws each chunk's noise on a worker thread while the calling thread
steps the chunk before it.  Both step through ``_step``.  A run's seed
spawns two streams, one per purpose (L'Ecuyer et al., *Math. Comput.
Simul.* 135, 2017): the first draws every trial's x0 ~ U(init), the second
every trial's normals in trial order, (when s > 0) z ~ N(0, I), then theta
for its kept steps, then upsilon for its kept rows.  One thread is the only
user of both, so every trial gets the same draws however the run is
chunked.  A trial's state at step s is sampled exactly as W^s x0 + L z, L
the Cholesky factor of the process noise's covariance at s, so the steps
before s are never simulated.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from netprobe.topology import TopologyMatrix


@dataclass(frozen=True)
class NoiseModel:
    """Standard deviations of the i.i.d. Gaussian process/measurement noise."""

    sigma_theta: float = 1.0
    sigma_upsilon: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sigma_theta", "sigma_upsilon"):
            sigma = getattr(self, name)
            if not (0.0 <= sigma and sigma * sigma < math.inf):
                raise ValueError(f"{name} must be >= 0 with a finite square, got {sigma!r}")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(0.0, 0.0)


# Bytes of the normals alive at once (z, theta for the kept steps, upsilon for
# the kept rows).  A run within the budget is one chunk, drawn on the calling
# thread: 1,638 trials of 2 kept rows at n = 20, or one trial of 307 rows at
# n = 300, which exceeds it.  A longer run's chunks take half the budget
# each, one stepped while the next is drawn: 27 trials of 4 kept rows at
# n = 300.
CHUNK_BYTES = 1 << 20


def _check_init(init: tuple[float, float]) -> None:
    if not all(math.isfinite(bound) for bound in init):
        raise ValueError(f"initial-state interval must be finite, got {tuple(init)!r}")
    if init[0] >= init[1]:
        raise ValueError(f"initial-state interval is empty, got {tuple(init)!r}")
    if not math.isfinite(init[1] - init[0]):
        raise ValueError(f"initial-state interval is too wide to draw from, got {tuple(init)!r}")


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _scale(normals: np.ndarray, sigma: float) -> np.ndarray:
    """Scale standard normals in place to the values ``normal(0.0, sigma)`` returns for them."""
    if sigma == 0.0:
        normals.fill(0.0)  # normal() returns 0.0 + 0.0 * z, a positive zero
    elif sigma != 1.0:  # z * 1.0 is z, bit for bit
        normals *= sigma
    return normals


def _step(tm: TopologyMatrix, x, draws: np.ndarray, noise: NoiseModel, states, law=None):
    """Step trials from their (k, n) start rows ``x`` into the (k, rows, n) ``states``.

    ``draws`` holds one row of standard normals per trial: z (only with a
    ``law`` = (W^s, L)), theta for the steps, then upsilon for the rows.
    theta and upsilon are scaled in place, the start is W^s x + L z with a
    ``law``, and each step is one (k, n) @ (n, n) product written straight
    into the next row of ``states``; with one trial it has the bits of
    ``W @ x``.  Returns upsilon, (k, rows, n).
    """
    trials, rows, n = states.shape
    lead = 0 if law is None else n
    mid = lead + (rows - 1) * n
    theta = _scale(draws[:, lead:mid], noise.sigma_theta).reshape(trials, rows - 1, n)
    upsilon = _scale(draws[:, mid:], noise.sigma_upsilon).reshape(trials, rows, n)
    if law is None:
        states[:, 0] = x
    else:
        power, factor = law
        np.add(x @ power.T, draws[:, :n] @ factor.T, out=states[:, 0])
    for t in range(1, rows):
        np.matmul(states[:, t - 1], tm.matrix.T, out=states[:, t])
        states[:, t] += theta[:, t - 1]
    return upsilon


def _response(tm: TopologyMatrix, node: int, steps: int) -> np.ndarray:
    """(steps + 1, n) unit response to an input at ``node``: row 0 zero, row k (W^k)[:, node]."""
    rows = np.zeros((steps + 1, tm.n))
    for k in range(1, steps + 1):
        rows[k] = tm.matrix[:, node] if k == 1 else tm.matrix @ rows[k - 1]
    return rows


def simulate(
    tm: TopologyMatrix, x0, horizon: int, noise: NoiseModel, seed=None
) -> tuple[np.ndarray, np.ndarray]:
    """(states, observations) of the unexcited dynamics over ``horizon`` steps from ``x0``.

    Both are new writable (horizon + 1, n) arrays.  The normals are one
    draw, theta then upsilon, so two runs with the same seed share identical
    noise; an input is added to both as e times ``_response``.  A
    ``Generator`` passed as ``seed`` draws on from where its stream stands.
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
    upsilon = _step(tm, x0[None], rng.standard_normal((1, (2 * horizon + 1) * n)), noise, states)
    return states[0], states[0] + upsilon[0]


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


def _draw(streams, init, n: int, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next ``len(out)`` trials' draws: (k, n) x0 rows from the first stream, normals into ``out``.

    Every draw of ``simulate_batch``, on the calling thread or the worker,
    goes through here, one row of z, theta and upsilon per trial.
    """
    uniforms, normals = streams
    x = uniforms.uniform(*init, (len(out), n))
    normals.standard_normal(out=out)
    return x, out


def _windows(tm, noise, steps, law, x, draws) -> np.ndarray:
    """A chunk's (k, steps + 1, n) observations from its draws; ``law`` is None at start 0.

    The windows are a new array, so ``draws`` may be overwritten once this returns.
    """
    states = np.empty((len(x), steps + 1, tm.n))
    states += _step(tm, x, draws, noise, states, law)
    return states


def _chunks(tm, init, noise, streams, trials, steps, law) -> Iterator[np.ndarray]:
    """``simulate_batch``'s chunks, in trial order.

    A run whose normals fit in CHUNK_BYTES is one chunk, drawn inline.  A
    longer run's chunks take half the budget each: one worker thread, the
    streams' only user, draws chunk k + 1 into one of two reused buffers
    while the caller steps chunk k from the other, and a closed iterator
    stops its worker.
    """
    normals = (2 * steps + 1 + (law is not None)) * tm.n  # one trial's z, theta and upsilon
    size = max(1, CHUNK_BYTES // (8 * normals))
    if trials <= size:
        yield _windows(tm, noise, steps, law, *_draw(streams, init, tm.n, np.empty((trials, normals))))
        return
    # imported here: concurrent.futures loads logging, about 0.6 MB of
    # resident memory that a run of one chunk does not need
    from concurrent.futures import ThreadPoolExecutor

    size = max(1, size // 2)
    buffers = np.empty((2, size, normals))
    outs = [buffers[k % 2, :min(size, trials - first)] for k, first in enumerate(range(0, trials, size))]
    with ThreadPoolExecutor(1) as worker:
        drawn = worker.submit(_draw, streams, init, tm.n, outs[0])
        try:
            for out in outs[1:]:
                x, draws = drawn.result()
                drawn = worker.submit(_draw, streams, init, tm.n, out)
                yield _windows(tm, noise, steps, law, x, draws)
            yield _windows(tm, noise, steps, law, *drawn.result())
        finally:
            # a closed run's next draw is not needed; leaving the block
            # waits for one already running
            drawn.cancel()


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
    the returned iterator then draws the trials in order.  A run whose
    normals fit in CHUNK_BYTES is one chunk, drawn on the calling thread; a
    longer run's chunks hold half the budget each, and a worker thread draws
    each chunk while the calling thread steps the one before it.
    ``SeedSequence(seed)`` spawns two streams: trial k's x0 is the k-th
    ``uniform(*init, n)`` row of the first, and its normals are the next run
    of the second, z (when ``start`` > 0), then theta and upsilon as
    ``simulate`` draws them.  A chunk of k trials is one (k, n) and one
    (k, normals) draw, and one thread makes every draw of a run, so the
    chunk size never changes which draws a trial gets.  A caller adds an
    input e at node j and step t >= ``start`` as e times ``_response(tm, j,
    horizon - t)`` on the rows from t on.  The trials of a chunk step
    together through ``_step``, one (k, n) @ (n, n) product per step, which
    may round the last bits differently from the matrix-vector product of
    ``simulate``.  A non-integer ``horizon``, ``seed``, ``trials`` or
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
    return _chunks(tm, init, noise, streams, trials, horizon - start, law)


def write_trajectory_csv(path, states, observations, excitation=None) -> None:
    """Export (T+1, n) states and observations as CSV rows ``t,node,state,observation``.

    An ``excitation`` (node, t, e) is appended as a ``# excite node=<j>
    t=<t> e=<e>`` comment line.
    """
    states, observations = np.asarray(states, dtype=float), np.asarray(observations, dtype=float)
    if states.ndim != 2 or states.shape != observations.shape:
        raise ValueError("states and observations must be (T+1, n) arrays of equal shape")
    with open(path, "w") as fh:
        fh.write("t,node,state,observation\n")
        for t, rows in enumerate(zip(states.tolist(), observations.tolist())):
            fh.writelines(f"{t},{i},{x:.17g},{y:.17g}\n" for i, (x, y) in enumerate(zip(*rows)))
        if excitation is not None:
            node, t, e = excitation
            fh.write(f"# excite node={node} t={t} e={e:.17g}\n")
