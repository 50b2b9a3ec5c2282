"""Deterministic flow dX/dt = f(X) of the expected update, and its limits.

The vector field f is the exact drift from :mod:`cgadyn.drift_field`; it
is a polynomial in X, so a classical fixed-step 4th-order Runge-Kutta
scheme is accurate and keeps runs byte-reproducible. States are clamped to
[0,1]^n after each step; the exact flow stays inside the box, so clamps
only absorb O(h^5) overshoot and their count is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, HorizonError
from .cga import StochasticTrajectory, _iteration_of, _read_N, write_jsonl
from .drift_field import _as_pv, drift
from .landscape import FitnessSpec, _real, place_values, spec_to_json_dict


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass
class OdeTrajectory:
    """A flow on a time grid: from one start, ``states`` is (M+1, n); from a
    batch of starts, (M+1, B, n), where ``states[:, b]`` is the flow from
    start b (more batch axes work alike).
    ``values_at`` (so :func:`sup_distance`) and :func:`ode_to_jsonl` take
    one-start trajectories only."""

    times: np.ndarray    # (M+1,)
    states: np.ndarray   # (M+1, n) or (M+1, B, n), all inside [0,1]^n
    step: float
    clamp_count: int
    spec: FitnessSpec

    @property
    def n(self) -> int:
        return int(self.states.shape[-1])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def values_at(self, ts) -> np.ndarray:
        """Linear interpolation between grid points, shape (len(ts), n)."""
        if self.states.ndim != 2:
            raise DimensionError("values_at needs a one-start trajectory")
        ts = np.asarray(ts, dtype=np.float64)
        # written so that NaN fails too
        outside = ~((ts >= -1e-12) & (ts <= self.horizon + 1e-9))
        if outside.any():
            raise HorizonError(f"time {ts[outside][0]} outside [0, {self.horizon}]")
        ts = np.clip(ts, 0.0, self.horizon)
        cols = [np.interp(ts, self.times, self.states[:, i]) for i in range(self.n)]
        return np.stack(cols, axis=-1)


def _rk4_step(x: np.ndarray, h: float, spec: FitnessSpec, k1: np.ndarray) -> np.ndarray:
    """One classical RK4 step of the flow of ``spec`` from x, given
    ``k1 = drift(x, spec)``. x lies in [0, 1]^n (a checked start or a
    clamped step), so a stage state that drift refuses comes from a step
    too long for the flow, and the DomainError names the step."""
    try:
        k2 = drift(x + 0.5 * h * k1, spec)
        k3 = drift(x + 0.5 * h * k2, spec)
        k4 = drift(x + h * k3, spec)
    except DomainError as exc:
        raise DomainError(f"an RK4 stage state of a step of {h:.6g} left [0, 1]^{spec.n}; "
                          f"take a smaller step") from exc
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Most points a time grid may have: the RK4 grid, or a run's jump times.
# Each point is an RK4 step of four drift calls, or a cGA iteration, and
# holds at least a float64 time; ten million points are already minutes of
# stepping and 80 MB of times, against 20 001 points for find_limit_many's
# default horizon. Larger grids are refused before anything is allocated.
_GRID_MAX_POINTS = 10_000_000


def _last_grid_index(steps: float, what: str) -> int:
    """floor(steps), the index of a grid's last regular point, or
    DomainError when that grid would have more than ``_GRID_MAX_POINTS``
    points (an infinite ``steps`` included)."""
    if not steps < _GRID_MAX_POINTS:
        raise DomainError(f"{what} needs {steps + 1:.4g} time points, more than the "
                          f"{_GRID_MAX_POINTS} allowed")
    return math.floor(steps)


def _step(h, name: str = "step size") -> int | float:
    """The one reader of an RK4 step: a real number (:func:`_real`), finite and > 0 (NaN fails)."""
    h = _real(h, name)
    if not 0.0 < h < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {h}")
    return h


def _horizon(T, name: str = "horizon") -> int | float:
    """The one reader of a horizon: a real number (:func:`_real`), finite and >= 0 (NaN fails)."""
    T = _real(T, name)
    if not 0.0 <= T < math.inf:
        raise DomainError(f"{name} must be finite and nonnegative, got {T}")
    return T


def _time_grid(T: float, h: float) -> np.ndarray:
    """RK4 grid 0, h, 2h, ..., ending with a shorter step onto T when T is
    not a multiple of h; step i runs from times[i-1] to times[i]. Needs a
    step (:func:`_step`), a horizon (:func:`_horizon`) and at most
    ``_GRID_MAX_POINTS`` of the points 0, h, 2h, ..."""
    h, T = _step(h), _horizon(T)
    full = _last_grid_index(T / h + 1e-12, f"a step of {h} over a horizon of {T}")
    times = np.arange(full + 1, dtype=np.float64) * h
    if T - times[-1] > 1e-12 * max(1.0, T):
        times = np.append(times, T)
    return times


def integrate(spec: FitnessSpec, x0, h: float = 1e-2, T: float = 10.0) -> OdeTrajectory:
    """Integrate the flow from x0, one start (n,) or a batch (..., n), over
    [0, T] with fixed step h. Each start's flow is the same, bit for bit,
    alone or in any batch.

    The grid is 0, h, 2h, ...; a shorter final step lands exactly on T
    when T is not a multiple of h. T = 0 yields the initial states only.
    """
    x = _as_pv(x0, spec.n)
    times = _time_grid(T, h)
    states = np.empty(times.shape + x.shape, dtype=np.float64)
    states[0] = x
    clamps = 0
    for i in range(1, times.shape[0]):
        nxt = _rk4_step(states[i - 1], float(times[i] - times[i - 1]), spec,
                        drift(states[i - 1], spec))
        clipped = nxt.clip(0.0, 1.0)
        clamps += int(np.count_nonzero(clipped != nxt))
        states[i] = clipped
    return OdeTrajectory(times=times, states=states, step=float(h), clamp_count=clamps, spec=spec)


# ---------------------------------------------------------------------------
# limits of the flow
# ---------------------------------------------------------------------------

# A limit names a corner only closer to it than this (Euclidean distance).
_CORNER_TOL = 1e-6


@dataclass
class BatchLimitResult:
    """Where the flow ended, one row per start: final state, whether the
    stall criterion ||f||_inf < tol was met, the stop time, and the index of
    the corner the state lies within ``_CORNER_TOL`` of, or -1 where it lies
    near no corner (a stall in the interior or on a face, such as a saddle).
    The corner is reported, never applied to the state."""

    states: np.ndarray     # (B, n)
    converged: np.ndarray  # (B,) bool
    t_stop: np.ndarray     # (B,)
    corners: np.ndarray    # (B,) int64 corner index, or -1


def find_limit_many(
    spec: FitnessSpec,
    x0s,
    *,
    tol: float = 1e-8,
    T_max: float = 200.0,
    h: float = 1e-2,
) -> BatchLimitResult:
    """Integrate a batch of starts, (B, n) or one (n,) start as a batch of
    one, until the drift stalls below tol (per row).

    The rows still moving are kept in one compact array, which each RK4
    step updates as a whole. After every step they are checked for a stall
    with one ``drift`` call on exactly those rows. A row that stalls is
    written back into the result there and leaves the compact array; the
    rows still moving at T_max are written back at the end. The rows that
    did not stall move on from the same states, so their rows of that
    drift are the next step's k1: 4 drift calls per step instead of 5.
    """
    X = _as_pv(x0s, spec.n)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise DimensionError("find_limit_many expects (B, n) initial states")
    if not _real(tol, "tolerance") > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    times = _time_grid(T_max, h).tolist()
    X = X.copy()
    B = X.shape[0]
    converged = np.zeros(B, dtype=bool)
    t_stop = np.full(B, T_max, dtype=np.float64)

    def stall_check(t_now: float, rows: np.ndarray, x: np.ndarray):
        """Stop the rows of X listed in ``rows``, whose states are ``x``,
        where the drift is below tol at t_now. Returns the rows still
        moving, their states and their drift."""
        f = drift(x, spec)
        stalled = np.maximum.reduce(np.abs(f), axis=-1) < tol
        if not np.count_nonzero(stalled):
            return rows, x, f
        done = rows[stalled]
        X[done] = x[stalled]
        converged[done] = True
        t_stop[done] = t_now
        moving = ~stalled
        return rows[moving], x[moving], f[moving]

    rows, x, k1 = stall_check(0.0, np.arange(B), X)
    for t_prev, t_now in zip(times, times[1:]):
        if rows.size == 0:
            break
        x = _rk4_step(x, t_now - t_prev, spec, k1).clip(0.0, 1.0)
        rows, x, k1 = stall_check(t_now, rows, x)
    X[rows] = x

    nearest = (X >= 0.5).astype(np.int64)
    near = np.linalg.norm(X - nearest, axis=-1) < _CORNER_TOL
    return BatchLimitResult(states=X, converged=converged, t_stop=t_stop,
                            corners=np.where(near, nearest @ place_values(spec.n), -1))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def lyapunov_increments(traj: OdeTrajectory) -> np.ndarray:
    """Per-step line integral f(X_k) . (X_{k+1} - X_k) along a trajectory,
    with f the field of the trajectory's own spec.

    Approximately ||f(X_k)||^2 h, the squared speed times the step, since
    dX/dt = f; hence nonnegative up to integrator error. The field is not
    a gradient field, so these are not increments of a potential.
    """
    f = drift(traj.states[:-1], traj.spec)
    dx = np.diff(traj.states, axis=0)
    return np.sum(f * dx, axis=-1)


def _flow_times(b: OdeTrajectory, T: float) -> np.ndarray:
    """The times every comparison with the flow ``b`` over [0, T] includes:
    b's grid up to T, and the two ends; T is read by :func:`_horizon`."""
    T = _horizon(T)
    if b.horizon < T - 1e-9:
        raise HorizonError(f"flow ends at {b.horizon} < T={T}")
    return np.concatenate([b.times[b.times <= T + 1e-12], [0.0, T]])


def _jump_times(alpha: float, T: float, last_iteration: int | None = None) -> np.ndarray:
    """Jump times k*alpha of a step process, up to T and, if given, its last
    iteration; DomainError past ``_GRID_MAX_POINTS`` jump times."""
    steps = T / alpha + 1e-12
    if last_iteration is not None:
        steps = min(steps, last_iteration)
    last = _last_grid_index(steps, f"a run with alpha = {alpha} up to T = {T}")
    return np.arange(last + 1, dtype=np.float64) * alpha


def sup_distance(a, b: OdeTrajectory, T: float) -> float:
    """sup over [0, T] of the Euclidean distance between two trajectories.

    ``a`` is a StochasticTrajectory, read as the step function of its
    ``values_at``, or an OdeTrajectory; ``b`` is an OdeTrajectory. Both are
    compared at the union of their time grids. Between two such times b
    is linear and a is linear or constant, so the distance is convex there
    and its supremum sits at an end. For a step process that includes the
    left limit at each jump time k*alpha (1 <= k <= its last iteration):
    p(k-1) against b(k*alpha). The result is exact for the
    piecewise-linear b.
    """
    if not isinstance(a, (StochasticTrajectory, OdeTrajectory)):
        raise DomainError(f"unsupported trajectory type {type(a).__name__}")
    if a.n != b.n:
        raise DimensionError(f"trajectories of n={a.n} and n={b.n} cannot be compared")
    ts_b = _flow_times(b, T)
    left = 0.0
    if isinstance(a, StochasticTrajectory):
        ts_a = _jump_times(a.alpha, T, a.iterations)
        d_left = np.linalg.norm(a.values_at(ts_a[:-1]) - b.values_at(ts_a[1:]), axis=-1)
        left = np.max(d_left, initial=0.0)
    else:
        ts_a = _flow_times(a, T)
    ts = np.unique(np.concatenate([ts_a, ts_b]))
    va = a.values_at(ts)  # an unterminated run that ends before T fails here
    vb = b.values_at(ts)
    return float(max(np.max(np.linalg.norm(va - vb, axis=-1)), left))


class LockstepSupDistance:
    """``sup_distance(traj, b, T)``, bit for bit, for the trajectory ``traj``
    of each of R unthinned lockstep runs, computed block by block without
    keeping trajectories.

    Pass ``update`` as :func:`cgadyn.cga.lockstep`'s ``on_block`` and the
    lockstep result to ``finish``. Every run is compared at the same times
    as :func:`sup_distance` would compare it: b's grid, {0, T}, and the
    run's jump times up to T and up to its last iteration. A time t reads
    the run's state at iteration floor(t / alpha), or its final state if
    the run ended at a corner before then. The left limit at jump time
    k*alpha reads the state at iteration k-1. A block's snapshots begin
    with its start state, so each block holds every state its times and
    left limits read, and nothing but ``sup`` is carried between blocks.
    ``max_iters``, floor(T / alpha) by :func:`sup_distance`'s rule for jump
    times, is a budget that steps every run that does not absorb over [0, T],
    as ``finish`` needs.
    """

    def __init__(self, b: OdeTrajectory, T: float, N: int, runs: int):
        N = _read_N(N)
        self.alpha = 1.0 / (2 * N)
        self.two_n = float(2 * N)
        self.T = T
        shared = _flow_times(b, T)
        jumps = _jump_times(self.alpha, T)
        self.max_iters = jumps.size - 1  # the last jump time's iteration
        self.ts = np.unique(np.concatenate([jumps, shared]))
        self.jump_only = ~np.isin(self.ts, shared)
        self.ks = _iteration_of(self.ts, self.alpha)
        self.vb = b.values_at(self.ts)
        self.left = np.searchsorted(self.ts, jumps[1:])  # entry k-1: jump time k*alpha
        self.sup = np.zeros(runs)

    def _fold(self, rows, at, va, last) -> None:
        """Fold the distances at the times ``at`` (a slice or index array) into
        ``sup[rows]``; ``last[i]`` is row i's last iteration, past which its jump times drop out."""
        d = np.linalg.norm(va - self.vb[at], axis=-1)
        keep = ~self.jump_only[at] | (self.ts[at] <= last[:, None] * self.alpha)
        self.sup[rows] = np.maximum(self.sup[rows], np.max(d, axis=-1, where=keep, initial=0.0))

    def update(self, rows, k0, snaps, ends) -> None:
        """Fold a block of m iterations: the times whose iteration lies in
        [k0, k0 + m], and the left limits at jumps k0+1 .. k0+m, each up to
        the run's end (one at a grid time past it reads the repeated corner)."""
        m = snaps.shape[1] - 1
        at = slice(*np.searchsorted(self.ks, [k0, k0 + m + 1]))
        self._fold(rows, at, snaps[:, self.ks[at] - k0] / self.two_n, ends)
        left = self.left[k0:k0 + m]  # jumps k0+1 .. k0+m that are <= T
        self._fold(rows, left, snaps[:, :left.size] / self.two_n, ends)

    def finish(self, result) -> np.ndarray:
        """Fold each run's final state at the times from its last iteration
        on (all of them for a run that took no block, such as a corner
        start), and return the R sup distances."""
        for r in range(self.sup.shape[0]):
            last = result.iterations[r:r + 1]
            if not result.terminated[r] and (last[0] + 1) * self.alpha <= self.T:
                raise HorizonError(f"run {r} ends at {(last[0] + 1) * self.alpha} <= T={self.T}")
            at = slice(np.searchsorted(self.ks, last[0]), self.ts.size)
            self._fold([r], at, (result.counts[r] / self.two_n)[None, None], last)
        return self.sup


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def ode_to_jsonl(traj: OdeTrajectory, fp, extra_header: dict | None = None) -> None:
    """Same record shape as stochastic trajectories, with "t" replacing "k"
    (:func:`cgadyn.cga.write_jsonl`)."""
    if traj.states.ndim != 2:
        raise DimensionError("ode_to_jsonl needs a one-start trajectory")
    header = {
        "format": "ode-trajectory",
        "n": traj.n,
        "h": traj.step,
        "T": traj.horizon,
        "clamp_count": traj.clamp_count,
        "spec": spec_to_json_dict(traj.spec),
        **(extra_header or {}),
    }
    write_jsonl(fp, header, "t", traj.times, traj.states, 1.0)
