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

Runs are stepped R at a time on an (R, n) counts array (:func:`lockstep`;
:func:`run` is the case R = 1), and ``_update`` is the only code that
samples and competes. Each run draws its uniforms in blocks with
``rng.random(B * 2 * n)`` and reads them per iteration as the n uniforms
of sample a, then the n of sample b: the stream order of two
``rng.random(n)`` calls per iteration. Corners absorb, since at p_i in
{0, 1} both samples agree and the update is zero; so instead of testing
for a corner after every iteration, one vectorised scan of a block's
snapshots finds each run's first corner, and finished runs leave the
active set between blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .drift_field import _as_pv
from .errors import DimensionError, DomainError, HorizonError
from .landscape import FitnessSpec, fitness_values, spec_to_json_dict


def default_max_iters(N: int, n: int) -> int:
    """Generous iteration budget: 50 crossings of the 2N-step grid per locus."""
    return 50 * (2 * N) * n


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------

def _pow2(n: int) -> np.ndarray:
    """Place values that turn a solution's bits (locus 1 first) into its table index."""
    return 1 << np.arange(n - 1, -1, -1, dtype=np.int64)


def _update(counts: np.ndarray, inv: float, vals, pow2, ua, ub) -> None:
    """One iteration of R runs in place, counts of shape (R, n): row r samples
    a with ``ua[r] < p`` and b with ``ub[r] < p``, p = counts[r] * inv; the
    fitter by the table ``vals`` (a on a tie) wins; counts[r] += winner - loser."""
    p = counts * inv
    a = ua < p
    b = ub < p
    # winner - loser is a - b, negated where b is strictly fitter
    delta = np.subtract(a, b, dtype=np.int64)
    np.negative(delta, out=delta, where=(vals[b @ pow2] > vals[a @ pow2])[:, None])
    counts += delta


def _at_corner(counts: np.ndarray, two_n: int) -> np.ndarray:
    return ((counts == 0) | (counts == two_n)).all(axis=-1)


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
    counts: np.ndarray          # (K, n) int64, one row per snapshot
    recorded_ks: np.ndarray     # (K,) int64
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

    def values_at(self, ts) -> np.ndarray:
        """The run as a step function of time, shape (len(ts), n): p(k) on
        [k*alpha, (k+1)*alpha), so right-continuous.

        Past the last iteration a terminated run holds its absorbing corner;
        an unterminated one raises HorizonError, as do negative times. A
        thinned run answers only at recorded iterations.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if np.any(ts < 0.0):
            raise HorizonError("time must be nonnegative")
        k = _iteration_of(ts, self.alpha)
        if np.any(k > self.iterations):
            if not self.terminated:
                raise HorizonError(
                    f"t beyond the recorded horizon {(self.iterations + 1) * self.alpha}"
                )
            k = np.minimum(k, self.iterations)
        rows = np.searchsorted(self.recorded_ks, k, side="right") - 1
        if np.any(self.recorded_ks[rows] != k):
            raise DomainError(
                "trajectory was thinned; interpolation only answers at recorded iterations"
            )
        return self.states[rows]


@dataclass
class LockstepResult:
    """Where each of R lockstep runs ended: the shared start ``initial`` (n,),
    final ``counts`` (R, n), ``iterations`` (R,) and ``terminated`` (R,)."""

    initial: np.ndarray
    counts: np.ndarray
    iterations: np.ndarray
    terminated: np.ndarray


# uniforms drawn per block, summed over the active runs (256 KiB of float64)
_BLOCK_UNIFORMS = 1 << 15
_MIN_BLOCK, _MAX_BLOCK = 8, 256


def _initial_counts(initial, N: int, n: int) -> np.ndarray:
    """The grid positions of the start ``initial`` (default the center), a
    probability vector of length n on the 1/(2N) grid."""
    if initial is None:
        return np.full(n, N, dtype=np.int64)
    p = _as_pv(initial, n)
    if p.ndim != 1:
        raise DimensionError("initial must be one-dimensional")
    counts = np.rint(p * 2 * N).astype(np.int64)
    if np.any(np.abs(counts / (2.0 * N) - p) > 1e-9):
        raise DomainError(
            f"initial probabilities must be integer multiples of 1/(2N) = {1.0 / (2 * N)}"
        )
    return counts


def lockstep(
    spec: FitnessSpec,
    N: int,
    seeds,
    *,
    initial=None,
    max_iters: int | None = None,
    on_block=None,
) -> LockstepResult:
    """Step one run per seed together until each is at a corner or the budget ends.

    All runs start from ``initial`` (default the center) and advance one
    iteration at a time on an (R, n) counts array, in blocks of B
    iterations. Run r draws ``rng.random(B * 2 * n)`` per block from its own
    ``PCG64(SeedSequence(seeds[r]))``, read as a then b per iteration, so it
    is bit-identical to the same run stepped alone. After each block,
    ``on_block(rows, k0, snaps, ends)`` sees the runs that were active at its
    start: ``rows`` their indices, ``snaps[i, j]`` the counts of run
    ``rows[i]`` after iteration ``k0 + j`` for j = 0..B, and ``ends[i]`` that
    run's last iteration so far (its corner, or the block's end). So
    ``snaps[:, 0]`` is the block's start: ``initial`` in the first block, the
    previous block's last column in every later one. Snapshots past a
    corner repeat it; the next block overwrites ``snaps``, so copy what you
    keep. Runs at a corner leave the active set.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    n = spec.n
    if max_iters is None:
        max_iters = default_max_iters(N, n)
    if max_iters < 0:
        raise DomainError(f"max_iters must be >= 0, got {max_iters}")
    start = _initial_counts(initial, N, n)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    vals = fitness_values(spec)
    pow2 = _pow2(n)
    two_n = 2 * N
    inv = 1.0 / two_n

    counts = np.tile(start, (len(rngs), 1))
    iterations = np.zeros(len(rngs), dtype=np.int64)
    terminated = np.full(len(rngs), bool(_at_corner(start, two_n)))
    rows = np.flatnonzero(~terminated)
    # every block reuses one pair of flat buffers; snapshots are kept in the
    # narrowest integer type that holds 2N
    size = max(_BLOCK_UNIFORMS, 2 * n * rows.size)
    u_buf = np.empty(size)
    snaps_buf = np.empty(size // 2 + n * rows.size, dtype=next(
        t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= two_n))
    k0 = 0
    while rows.size and k0 < max_iters:
        c = counts[rows]
        # the slowest active run needs at least `need` iterations to reach a
        # corner, so a block of that length never outlasts every run; past
        # that, iterations stepped beyond the last corner stay under k0 / 8
        need = int(np.max(np.minimum(c, two_n - c)))
        m = min(max(need, k0 // 8, _MIN_BLOCK), _MAX_BLOCK, max_iters - k0,
                max(1, _BLOCK_UNIFORMS // (2 * n * rows.size)))
        u = u_buf[:m * 2 * rows.size * n].reshape(m, 2, rows.size, n)
        for i, r in enumerate(rows):
            u[:, :, i] = rngs[r].random(m * 2 * n).reshape(m, 2, n)
        snaps = snaps_buf[:rows.size * (m + 1) * n].reshape(rows.size, m + 1, n)
        snaps[:, 0] = c
        for j in range(m):
            _update(c, inv, vals, pow2, u[j, 0], u[j, 1])
            snaps[:, j + 1] = c
        # at a corner a == b, so the update is zero and the corner absorbs:
        # a run ends at a corner iff its block does, at its first corner snapshot
        done = _at_corner(c, two_n)
        ends = np.full(rows.size, k0 + m, dtype=np.int64)
        ends[done] = k0 + np.argmax(_at_corner(snaps[done], two_n), axis=1)
        counts[rows] = c
        iterations[rows] = ends
        terminated[rows] = done
        if on_block is not None:
            on_block(rows, k0, snaps, ends)
        rows = rows[~done]
        k0 += m
    return LockstepResult(initial=start, counts=counts, iterations=iterations,
                          terminated=terminated)


def run_many(
    spec: FitnessSpec,
    N: int,
    seeds,
    *,
    initial=None,
    max_iters: int | None = None,
    record_every: int = 1,
) -> list[StochasticTrajectory]:
    """One recorded run per seed, stepped together by :func:`lockstep`.

    Trajectory r is exactly ``run(spec, N, seed=seeds[r], ...)`` with the
    same ``initial``, ``max_iters`` and ``record_every``.
    """
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every}")
    seeds = list(seeds)
    kept = [[] for _ in seeds]

    def keep(rows, k0, snaps, ends):
        for i, r in enumerate(rows):
            ks = np.arange(k0 + 1, ends[i] + 1)
            if record_every > 1:
                ks = ks[ks % record_every == 0]
            kept[r].append((ks, snaps[i, ks - k0]))

    result = lockstep(spec, N, seeds, initial=initial, max_iters=max_iters, on_block=keep)
    out = []
    for r, seed in enumerate(seeds):
        ks = np.concatenate([[0]] + [k for k, _ in kept[r]]).astype(np.int64)
        counts = np.concatenate([result.initial[None]] + [c for _, c in kept[r]])
        last = int(result.iterations[r])
        if ks[-1] != last:  # the final state is always kept
            ks = np.append(ks, last)
            counts = np.concatenate([counts, result.counts[r][None]])
        out.append(StochasticTrajectory(
            spec=spec, alpha_steps=N, seed=seed, counts=counts, recorded_ks=ks,
            iterations=last, terminated=bool(result.terminated[r]), record_every=record_every,
        ))
    return out


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
    initial : array-like, optional
        Starting probability vector of length n; defaults to (0.5, ..., 0.5).
        Its entries must lie in [0, 1] and on the 1/(2N) grid.
    max_iters : int, optional
        Iteration budget, default ``50 * 2N * n``. Exhausting it is
        reported via ``terminated=False``, not raised.
    seed : int or tuple of ints
        Entropy for ``numpy.random.SeedSequence``.
    record_every : int
        Keep every k-th snapshot (first and final always kept).
    """
    return run_many(spec, N, [seed], initial=initial, max_iters=max_iters,
                    record_every=record_every)[0]


# ---------------------------------------------------------------------------
# continuous-time embedding
# ---------------------------------------------------------------------------

def _iteration_of(ts: np.ndarray, alpha: float) -> np.ndarray:
    """The iteration k with k*alpha <= t < (k+1)*alpha, for each time t."""
    k = np.floor(ts / alpha).astype(np.int64)
    # repair float rounding at the jump times themselves
    k = np.where((k + 1) * alpha <= ts, k + 1, k)
    k = np.where(k * alpha > ts, k - 1, k)
    return k


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_cells(a, fmt: str) -> np.ndarray:
    """``fmt % x`` for every cell x of float array ``a``, as an object array
    of ``a``'s shape.

    Each distinct bit pattern is formatted once and its text gathered back
    into place. That pays where values repeat, as in a run's states (they
    lie on the 1/(2N) grid) and a drift grid; a flow's states are nearly all
    distinct, so :func:`cgadyn.ode.ode_to_jsonl` does not use it. Keying on
    bits, not values, keeps ``0.0`` and ``-0.0`` apart.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    keys, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    text = np.array([fmt % x for x in keys.view(np.float64).tolist()], dtype=object)
    # numpy versions disagree on the shape of the inverse
    return text[inverse.reshape(a.shape)]


def trajectory_to_jsonl(traj: StochasticTrajectory, fp, extra_header: dict | None = None) -> None:
    """Write one header record then one {"k", "p"} record per snapshot.

    The records are formatted in one pass, each float by ``repr`` through
    :func:`format_cells`: for finite floats that is the text ``json.dumps``
    writes, so the bytes are those of one ``json.dumps`` call per record.
    """
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
    fp.write("".join([
        '{"k": %d, "p": [%s]}\n' % (k, ", ".join(row))
        for k, row in zip(traj.recorded_ks.tolist(), format_cells(traj.states, "%r").tolist())
    ]))
