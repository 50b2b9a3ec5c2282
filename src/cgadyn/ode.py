"""Deterministic flow dX/dt = f(X) of the expected update, and its fixed points.

The vector field f is the exact drift from :mod:`cgadyn.drift_field`; it
is a polynomial in X, so a classical fixed-step 4th-order Runge-Kutta
scheme is accurate and keeps runs byte-reproducible. States are clamped to
[0,1]^n after each step; the exact flow stays inside the box, so clamps
only absorb O(h^5) overshoot and their count is reported.

Corner fixed points are classified by the sign pattern of the analytic
Jacobian's eigenvalues: all negative means asymptotically stable, any
positive means unstable.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, DomainError, HorizonError
from .cga import StochasticTrajectory, _iteration_of
from .drift_field import _as_pv, _corner_index, corner_spectra, drift
from .landscape import FitnessSpec, index_to_bits, require_injective, spec_to_json_dict


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
    initial: np.ndarray
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
        if np.any(ts < -1e-12) or np.any(ts > self.horizon + 1e-9):
            raise HorizonError(f"time outside [0, {self.horizon}]")
        ts = np.clip(ts, 0.0, self.horizon)
        cols = [np.interp(ts, self.times, self.states[:, i]) for i in range(self.n)]
        return np.stack(cols, axis=-1)


def _rk4_step(x: np.ndarray, h: float, field, k1: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step; ``k1``, if given, is ``field(x)`` already computed."""
    if k1 is None:
        k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _time_grid(T: float, h: float) -> np.ndarray:
    """RK4 grid 0, h, 2h, ..., ending with a shorter step onto T when T is
    not a multiple of h; step i runs from times[i-1] to times[i]."""
    full = int(np.floor(T / h + 1e-12))
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
    if not h > 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    if T < 0.0:
        raise DomainError(f"horizon must be nonnegative, got {T}")

    field = lambda s: drift(s, spec)
    times = _time_grid(T, h)
    states = np.empty(times.shape + x.shape, dtype=np.float64)
    states[0] = x
    clamps = 0
    for i in range(1, times.shape[0]):
        nxt = _rk4_step(states[i - 1], float(times[i] - times[i - 1]), field)
        clipped = np.clip(nxt, 0.0, 1.0)
        clamps += int(np.count_nonzero(clipped != nxt))
        states[i] = clipped
    return OdeTrajectory(times=times, states=states, step=float(h), initial=x.copy(),
                         clamp_count=clamps, spec=spec)


# ---------------------------------------------------------------------------
# limits of the flow
# ---------------------------------------------------------------------------

@dataclass
class LimitResult:
    """Where the flow ended: final state, whether the stall criterion
    ||f||_inf < tol was met, the stop time, and the nearest corner
    (reported, never applied to the state)."""

    state: np.ndarray
    converged: bool
    t_stop: float
    nearest_corner: tuple[int, ...]
    corner_distance: float


@dataclass
class BatchLimitResult:
    states: np.ndarray           # (B, n)
    converged: np.ndarray        # (B,) bool
    t_stop: np.ndarray           # (B,)
    nearest_corners: np.ndarray  # (B, n) int
    corner_distances: np.ndarray  # (B,)


def find_limit_many(
    spec: FitnessSpec,
    x0s,
    *,
    tol: float = 1e-8,
    T_max: float = 200.0,
    h: float = 1e-2,
) -> BatchLimitResult:
    """Integrate a batch of starts until the drift stalls below tol (per row).

    After every step the rows still moving are checked for a stall with
    one ``drift`` call on exactly those rows. The rows that did not stall
    move on from the same states, so their rows of that drift are the next
    step's k1: 4 drift calls per step instead of 5.
    """
    X = _as_pv(x0s, spec.n)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise DimensionError("find_limit_many expects (B, n) initial states")
    if not h > 0.0 or not tol > 0.0 or T_max < 0.0:
        raise DomainError("need h > 0, tol > 0, T_max >= 0")
    X = X.copy()
    B = X.shape[0]
    converged = np.zeros(B, dtype=bool)
    t_stop = np.full(B, T_max, dtype=np.float64)

    field = lambda s: drift(s, spec)

    def stall_check(t_now: float, active: np.ndarray):
        """Stop the rows of ``active`` whose drift is below tol at t_now.
        Returns the rows still moving and their drift."""
        f = drift(X[active], spec)
        stalled = np.max(np.abs(f), axis=-1) < tol
        converged[active[stalled]] = True
        t_stop[active[stalled]] = t_now
        return active[~stalled], f[~stalled]

    times = _time_grid(T_max, h)
    active, k1 = stall_check(0.0, np.arange(B))
    for t_prev, t_now in zip(times[:-1], times[1:]):
        if active.size == 0:
            break
        X[active] = np.clip(_rk4_step(X[active], t_now - t_prev, field, k1), 0.0, 1.0)
        active, k1 = stall_check(t_now, active)

    corners = np.where(X >= 0.5, 1, 0).astype(np.int64)
    dists = np.linalg.norm(X - corners, axis=-1)
    return BatchLimitResult(states=X, converged=converged, t_stop=t_stop,
                            nearest_corners=corners, corner_distances=dists)


def find_limit(
    spec: FitnessSpec,
    x0,
    *,
    tol: float = 1e-8,
    T_max: float = 200.0,
    h: float = 1e-2,
) -> LimitResult:
    """Single-start convenience wrapper around :func:`find_limit_many`."""
    batch = find_limit_many(spec, np.atleast_2d(np.asarray(x0, dtype=np.float64)),
                            tol=tol, T_max=T_max, h=h)
    return LimitResult(
        state=batch.states[0],
        converged=bool(batch.converged[0]),
        t_stop=float(batch.t_stop[0]),
        nearest_corner=tuple(int(b) for b in batch.nearest_corners[0]),
        corner_distance=float(batch.corner_distances[0]),
    )


# ---------------------------------------------------------------------------
# stability of corner fixed points
# ---------------------------------------------------------------------------

class Stability(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    corner: tuple[int, ...]
    verdict: Stability
    eigenvalues: tuple[float, ...]
    local_max: bool


def classify_corners(spec: FitnessSpec, indices=None) -> Iterator[StabilityVerdict]:
    """Stability verdicts of the corners with the given solution indices
    (default: all 2^n, in index order): asymptotically stable iff every
    eigenvalue is negative. Requires an injective spec; checks it, and
    reads the neighbour table, before the first verdict is made."""
    require_injective(spec, "classify_corners")
    eigs, local_max = corner_spectra(spec, indices)
    idx = range(spec.num_solutions) if indices is None else indices
    return (
        StabilityVerdict(
            corner=index_to_bits(int(i), spec.n),
            verdict=Stability.ASYMPTOTICALLY_STABLE if (e < 0).all() else Stability.UNSTABLE,
            eigenvalues=tuple(float(x) for x in e),
            local_max=bool(m),
        )
        for i, e, m in zip(idx, eigs, local_max)
    )


def classify_corner(spec: FitnessSpec, corner) -> StabilityVerdict:
    """Stability of one corner fixed point (see :func:`classify_corners`)."""
    return next(classify_corners(spec, [_corner_index(corner, spec)]))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def lyapunov_rate(spec: FitnessSpec, p) -> float:
    """||f(p)||^2, the squared speed of the flow at p.

    The field is not a gradient field, so there is no potential whose
    growth rate this is; it is the rate at which the line integral of f
    along the flow accumulates.
    """
    f = drift(p, spec)
    return float(np.dot(f, f))


def lyapunov_increments(traj: OdeTrajectory, spec: FitnessSpec) -> np.ndarray:
    """Per-step line integral f(X_k) . (X_{k+1} - X_k) along a trajectory.

    Approximately ||f(X_k)||^2 h, the squared speed times the step, since
    dX/dt = f; hence nonnegative up to integrator error. The field is not
    a gradient field, so these are not increments of a potential.
    """
    f = drift(traj.states[:-1], spec)
    dx = np.diff(traj.states, axis=0)
    return np.sum(f * dx, axis=-1)


def _flow_times(b: OdeTrajectory, T: float) -> np.ndarray:
    """The times every comparison with the flow ``b`` over [0, T] includes:
    b's grid up to T, and the two ends."""
    if T < 0.0:
        raise DomainError(f"horizon must be nonnegative, got {T}")
    if b.horizon < T - 1e-9:
        raise HorizonError(f"second trajectory ends at {b.horizon} < T={T}")
    return np.concatenate([b.times[b.times <= T + 1e-12], [0.0, T]])


def _jump_times(alpha: float, T: float, last_iteration: int | None = None) -> np.ndarray:
    """Jump times k*alpha of a step process, up to T and its last iteration."""
    last_jump = int(np.floor(T / alpha + 1e-12))
    if last_iteration is not None:
        last_jump = min(last_jump, last_iteration)
    return np.arange(last_jump + 1, dtype=np.float64) * alpha


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
    ts_b = _flow_times(b, T)
    left = 0.0

    if isinstance(a, StochasticTrajectory):
        if not a.terminated and (a.iterations + 1) * a.alpha <= T:
            raise HorizonError(
                f"first trajectory ends at {(a.iterations + 1) * a.alpha} <= T={T}"
            )
        jumps = _jump_times(a.alpha, T, a.iterations)
        ts = np.unique(np.concatenate([jumps, ts_b]))
        va = a.values_at(ts)
        d_left = np.linalg.norm(a.values_at(jumps[:-1]) - b.values_at(jumps[1:]), axis=-1)
        left = np.max(d_left, initial=0.0)
    elif isinstance(a, OdeTrajectory):
        if a.horizon < T - 1e-9:
            raise HorizonError(f"first trajectory ends at {a.horizon} < T={T}")
        ts = np.unique(np.concatenate([a.times[a.times <= T + 1e-12], ts_b]))
        va = a.values_at(ts)
    else:
        raise DomainError(f"unsupported trajectory type {type(a).__name__}")

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
    """

    def __init__(self, b: OdeTrajectory, T: float, N: int, runs: int):
        self.alpha = 1.0 / (2 * N)
        self.two_n = float(2 * N)
        self.T = T
        shared = _flow_times(b, T)
        jumps = _jump_times(self.alpha, T)
        self.ts = np.unique(np.concatenate([jumps, shared]))
        self.jump_only = ~np.isin(self.ts, shared)
        self.ks = _iteration_of(self.ts, self.alpha)
        self.vb = b.values_at(self.ts)
        self.left = np.searchsorted(self.ts, jumps[1:])  # entry k-1: jump time k*alpha
        self.sup = np.zeros(runs)

    def _fold(self, rows, at, va, last) -> None:
        """Fold the distances at the times ``at`` (a slice) into ``sup[rows]``;
        ``last[i]`` is row i's last iteration, past which its jump times drop out."""
        d = np.linalg.norm(va - self.vb[at], axis=-1)
        keep = ~self.jump_only[at] | (self.ts[at] <= last[:, None] * self.alpha)
        self.sup[rows] = np.maximum(self.sup[rows], np.max(d, axis=-1, where=keep, initial=0.0))

    def update(self, rows, k0, snaps, ends) -> None:
        """Fold a block of m iterations: the times whose iteration lies in
        [k0, k0 + m], and the left limits at jumps k0+1 .. k0+m, each up to
        the run's end."""
        m = snaps.shape[1] - 1
        at = slice(*np.searchsorted(self.ks, [k0, k0 + m + 1]))
        self._fold(rows, at, snaps[:, self.ks[at] - k0] / self.two_n, ends)
        vb = self.vb[self.left[k0:k0 + m]]  # jumps k0+1 .. k0+m that are <= T
        d = np.linalg.norm(snaps[:, :len(vb)] / self.two_n - vb, axis=-1)
        keep = k0 + 1 + np.arange(len(vb)) <= ends[:, None]
        self.sup[rows] = np.maximum(self.sup[rows], np.max(d, axis=-1, where=keep, initial=0.0))

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
    """Same record shape as stochastic trajectories, with "t" replacing "k".

    Like :func:`cgadyn.cga.trajectory_to_jsonl`, the records are formatted
    in one pass with ``repr`` for each float, the text ``json.dumps`` writes
    for finite floats.
    """
    if traj.states.ndim != 2:
        raise DimensionError("ode_to_jsonl needs a one-start trajectory")
    header = {
        "format": "ode-trajectory",
        "n": traj.n,
        "h": traj.step,
        "T": traj.horizon,
        "clamp_count": traj.clamp_count,
        "spec": spec_to_json_dict(traj.spec),
    }
    if extra_header:
        header.update(extra_header)
    fp.write(json.dumps(header, sort_keys=True) + "\n")
    fp.write("".join([
        '{"t": %r, "p": [%s]}\n' % (t, ", ".join(map(repr, row)))
        for t, row in zip(traj.times.tolist(), traj.states.tolist())
    ]))
