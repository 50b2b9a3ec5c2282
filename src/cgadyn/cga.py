"""The compact genetic algorithm: sampling, competition, update, trajectories.

State is a probability vector p in [0,1]^n whose coordinates live on the
grid {0, 1/(2N), 2/(2N), ..., 1}. The engine stores grid positions as
integers (``counts``, with p = counts / (2N)), so the grid and range
invariants hold exactly: no clamping, no float accumulation.

One iteration samples two solutions from p, lets them compete (higher
fitness wins, exact ties go to the first sample), and moves each
coordinate by +-alpha toward the winner where winner and loser disagree.
A run terminates when every coordinate is 0 or 1, which is absorbing.

Randomness comes from numpy's PCG64. A run's stream is seeded with
``SeedSequence(seed)``; campaign code derives per-run seeds as tuples
``(master_seed, N, run_index)`` so results are independent of execution
order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, HorizonError
from .landscape import FitnessSpec, evaluate, fitness_values, spec_to_json_dict


def default_max_iters(N: int, n: int) -> int:
    """Generous iteration budget: 50 crossings of the 2N-step grid per locus."""
    return 50 * (2 * N) * n


# ---------------------------------------------------------------------------
# probability vectors on the 1/(2N) grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A grid-aligned probability vector: p = counts / (2N).

    ``counts`` is an integer array in [0, 2N]; ``alpha_steps`` is N, so the
    learning step is alpha = 1/(2N).
    """

    counts: np.ndarray
    alpha_steps: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise DimensionError("counts must be one-dimensional")
        if self.alpha_steps < 1:
            raise DomainError(f"N must be >= 1, got {self.alpha_steps}")
        if np.any(counts < 0) or np.any(counts > 2 * self.alpha_steps):
            raise DomainError("counts must lie in [0, 2N]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    @property
    def alpha(self) -> float:
        return 1.0 / (2 * self.alpha_steps)

    @property
    def p(self) -> np.ndarray:
        return self.counts / float(2 * self.alpha_steps)

    @property
    def is_deterministic(self) -> bool:
        return bool(np.all((self.counts == 0) | (self.counts == 2 * self.alpha_steps)))

    def __array__(self, dtype=None, copy=None):
        arr = self.p
        return arr.astype(dtype) if dtype is not None else arr

    @classmethod
    def center(cls, n: int, N: int) -> "ProbabilityVector":
        return cls(counts=np.full(n, N, dtype=np.int64), alpha_steps=N)

    @classmethod
    def from_p(cls, p, N: int, tol: float = 1e-9) -> "ProbabilityVector":
        """Build from float probabilities; they must sit on the 1/(2N) grid."""
        arr = np.asarray(p, dtype=np.float64)
        counts = np.rint(arr * 2 * N).astype(np.int64)
        if np.any(np.abs(counts / (2.0 * N) - arr) > tol):
            raise DomainError(
                f"initial probabilities must be integer multiples of 1/(2N) = {1.0 / (2 * N)}"
            )
        return cls(counts=counts, alpha_steps=N)


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------

def sample_solution(pv, rng: np.random.Generator) -> np.ndarray:
    """Draw one solution: bit i is 1 with probability p_i, loci independent."""
    p = np.asarray(pv, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise DomainError("probability vector entries must lie in [0, 1]")
    return (rng.random(p.shape[-1]) < p).astype(np.uint8)


def compete(a, b, spec: FitnessSpec):
    """Rank two solutions: returns (winner, loser); exact ties go to a."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[-1] != spec.n:
        raise DimensionError("solutions must both have the spec's length")
    if evaluate(spec, a) >= evaluate(spec, b):
        return a, b
    return b, a


def _update(counts: np.ndarray, inv: float, vals, pow2, rng: np.random.Generator) -> None:
    """One iteration in place: sample a, then b, from p = counts * inv; the
    fitter by the table ``vals`` (a on a tie) wins; counts += winner - loser."""
    p = counts * inv
    a = rng.random(p.shape[0]) < p
    b = rng.random(p.shape[0]) < p
    if vals[b @ pow2] > vals[a @ pow2]:
        a, b = b, a
    counts += a
    counts -= b


def step(pv: ProbabilityVector, spec: FitnessSpec, rng: np.random.Generator) -> ProbabilityVector:
    """One update: sample a and b, compete, move counts by winner - loser."""
    if pv.n != spec.n:
        raise DimensionError(f"pv has n={pv.n}, spec has n={spec.n}")
    counts = pv.counts.copy()
    pow2 = 1 << np.arange(spec.n - 1, -1, -1, dtype=np.int64)
    _update(counts, 1.0 / (2 * pv.alpha_steps), fitness_values(spec), pow2, rng)
    return ProbabilityVector(counts=counts, alpha_steps=pv.alpha_steps)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass
class StochasticTrajectory:
    """Recorded run: snapshot k of the probability vector at iteration recorded_ks[k].

    ``counts`` holds the exact grid positions; ``states`` is the float view
    counts / (2N). With record_every == 1 every iteration 0..iterations is
    present; otherwise snapshots are thinned but the first and final states
    are always kept.
    """

    spec: FitnessSpec
    alpha_steps: int
    seed: object
    counts: np.ndarray          # (R, n) int64
    recorded_ks: np.ndarray     # (R,) int64
    iterations: int
    terminated: bool
    record_every: int = 1

    @property
    def n(self) -> int:
        return int(self.counts.shape[1])

    @property
    def alpha(self) -> float:
        return 1.0 / (2 * self.alpha_steps)

    @property
    def states(self) -> np.ndarray:
        return self.counts / float(2 * self.alpha_steps)

    @property
    def final_pv(self) -> ProbabilityVector:
        return ProbabilityVector(counts=self.counts[-1].copy(), alpha_steps=self.alpha_steps)


def run(
    spec: FitnessSpec,
    N: int,
    *,
    initial=None,
    max_iters: int | None = None,
    seed=0,
    record_every: int = 1,
) -> StochasticTrajectory:
    """Run the algorithm until every coordinate is 0 or 1, or the budget ends.

    Parameters
    ----------
    spec : FitnessSpec
        Fitness to maximize.
    N : int
        Grid resolution; the learning step is alpha = 1/(2N).
    initial : ProbabilityVector or array-like, optional
        Starting configuration; defaults to (0.5, ..., 0.5). Float inputs
        must sit on the 1/(2N) grid.
    max_iters : int, optional
        Iteration budget, default ``50 * 2N * n``. Exhausting it is
        reported via ``terminated=False``, not raised.
    seed : int or tuple of ints
        Entropy for ``numpy.random.SeedSequence``.
    record_every : int
        Keep every k-th snapshot (first and final always kept).
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every}")
    n = spec.n
    if max_iters is None:
        max_iters = default_max_iters(N, n)
    if max_iters < 0:
        raise DomainError(f"max_iters must be >= 0, got {max_iters}")

    if initial is None:
        counts = np.full(n, N, dtype=np.int64)
    elif isinstance(initial, ProbabilityVector):
        if initial.alpha_steps != N:
            raise DomainError("initial pv uses a different N than the run")
        counts = initial.counts.copy()
    else:
        counts = ProbabilityVector.from_p(initial, N).counts.copy()
    if counts.shape[0] != n:
        raise DimensionError(f"initial has n={counts.shape[0]}, spec has n={n}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vals = fitness_values(spec)
    pow2 = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    two_n = 2 * N
    inv = 1.0 / two_n

    snapshots = [counts.copy()]
    ks = [0]
    k = 0

    def at_corner() -> bool:
        return bool(np.all((counts == 0) | (counts == two_n)))

    corner = at_corner()
    while k < max_iters and not corner:
        _update(counts, inv, vals, pow2, rng)
        k += 1
        corner = at_corner()
        if k % record_every == 0 or corner:
            snapshots.append(counts.copy())
            ks.append(k)

    if ks[-1] != k:
        snapshots.append(counts.copy())
        ks.append(k)

    return StochasticTrajectory(
        spec=spec,
        alpha_steps=N,
        seed=seed,
        counts=np.asarray(snapshots, dtype=np.int64),
        recorded_ks=np.asarray(ks, dtype=np.int64),
        iterations=k,
        terminated=corner,
        record_every=record_every,
    )


# ---------------------------------------------------------------------------
# continuous-time embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolatedProcess:
    """Step-function embedding of a run: value p(k) on [k*alpha, (k+1)*alpha).

    Right-continuous. For a terminated run queries beyond the last
    iteration return the absorbing corner; otherwise they raise
    HorizonError. Thinned trajectories only answer at recorded iterations.
    """

    trajectory: StochasticTrajectory

    def _iteration_of(self, ts: np.ndarray) -> np.ndarray:
        alpha = self.trajectory.alpha
        k = np.floor(ts / alpha).astype(np.int64)
        # repair float rounding at the jump times themselves
        k = np.where((k + 1) * alpha <= ts, k + 1, k)
        k = np.where(k * alpha > ts, k - 1, k)
        return k

    def evaluate_many(self, ts) -> np.ndarray:
        traj = self.trajectory
        ts = np.asarray(ts, dtype=np.float64)
        if np.any(ts < 0.0):
            raise HorizonError("time must be nonnegative")
        k = self._iteration_of(ts)
        beyond = k > traj.iterations
        if np.any(beyond):
            if not traj.terminated:
                raise HorizonError(
                    f"t beyond the recorded horizon {(traj.iterations + 1) * traj.alpha}"
                )
            k = np.minimum(k, traj.iterations)
        rows = np.searchsorted(traj.recorded_ks, k, side="right") - 1
        if np.any(traj.recorded_ks[rows] != k):
            raise DomainError(
                "trajectory was thinned; interpolation only answers at recorded iterations"
            )
        return traj.states[rows]

    def evaluate_at(self, t: float) -> np.ndarray:
        return self.evaluate_many(np.asarray([float(t)]))[0]


def interpolate(traj: StochasticTrajectory) -> InterpolatedProcess:
    return InterpolatedProcess(trajectory=traj)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def trajectory_to_jsonl(traj: StochasticTrajectory, fp, extra_header: dict | None = None) -> None:
    """Write one header record then one {"k", "p"} record per snapshot."""
    header = {
        "format": "cga-trajectory",
        "n": traj.n,
        "N": traj.alpha_steps,
        "alpha": traj.alpha,
        "seed": list(traj.seed) if isinstance(traj.seed, (tuple, list)) else traj.seed,
        "spec": spec_to_json_dict(traj.spec),
        "iterations": traj.iterations,
        "terminated": traj.terminated,
        "record_every": traj.record_every,
    }
    if extra_header:
        header.update(extra_header)
    fp.write(json.dumps(header, sort_keys=True) + "\n")
    states = traj.states
    for row, k in enumerate(traj.recorded_ks):
        fp.write(json.dumps({"k": int(k), "p": [float(x) for x in states[row]]}) + "\n")
