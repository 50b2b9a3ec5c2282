"""The compact genetic algorithm: sampling, competition, update, trajectories.

State is a probability vector p in [0,1]^n whose coordinates live on the
grid {0, 1/(2N), 2/(2N), ..., 1}. The engine stores grid positions as
integers (``counts``, with p = counts / (2N)), so the grid and range
invariants hold exactly: no clamping, no float accumulation.

One iteration samples two solutions from p, lets them compete (higher
fitness wins, exact ties go to the first sample), and moves each
coordinate by +-alpha toward the winner where winner and loser disagree.
A run terminates when every coordinate is 0 or 1, which is absorbing.

Randomness comes from numpy's PCG64. A run's stream is the PCG64 stream
that ``SeedSequence(seed)`` seeds; campaign code derives per-run seeds as
tuples ``(master_seed, N, run_index)`` so results are independent of
execution order. ``_seed_words`` computes the four state words that
``SeedSequence`` hands PCG64 for every run at once, in numpy's own
algorithm over uint32 columns, so a lockstep builds no ``SeedSequence``
per run.

Runs are stepped R at a time on an (R, n) int64 counts array, whose
snapshots are int64 whatever the N (:func:`lockstep`; :func:`run` is the
case R = 1), and ``_update`` is the only code that samples and competes.
The runs of one lockstep may differ in N and in their iteration budgets,
and each starts on its own grid, so a campaign steps every run of every N
in one lockstep, as long as its longest run needs. Each run draws a block of B
iterations' uniforms into its own row of a slab, B * 2 * n of them in
stream order, and one copy lays the block out iteration-major; iteration
j reads the n uniforms of sample a, then the n of sample b: the stream
order of two ``rng.random(n)`` calls per iteration. Corners absorb, since
at p_i in {0, 1} both samples agree and the update is zero; so instead of
testing for a corner after every iteration, one vectorised scan of a
block's snapshots finds each run's first corner, and finished runs leave
the active set between blocks.

One budget, ``_BLOCK_CELLS`` cells counting every column of a row
(:func:`_block_rows`), sizes every block: a lockstep block's uniforms over
its active runs (but no fewer than 32 iterations, since each block costs
one ``Generator.random`` call per active run), the drift grid's drift
calls and every text artifact's blocks, however long the artifact.

Runs (from their counts) and flows are written as JSON lines by
:func:`write_jsonl`. Its text kernel, ``_block_text``, also writes every
float table of ``harness.write_csv``: it formats each distinct value of a
block once.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .drift_field import _as_pv
from .errors import DimensionError, DomainError, HorizonError
from .landscape import FitnessSpec, _integer, fitness_values, place_values, spec_to_json_dict


def default_max_iters(N: int, n: int) -> int:
    """Generous iteration budget: 50 crossings of the 2N-step grid per locus."""
    return 50 * (2 * N) * n


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------

def _update(counts: np.ndarray, inv, vals, pow2, u) -> None:
    """One iteration of R runs in place, counts of shape (R, n): with
    p = counts * inv (``inv`` is 1/(2N), one scalar or one entry per count),
    one comparison ``u < p`` of the (2, R, n) uniforms samples a (``u[0]``)
    and b (``u[1]``) of every row; the fitter by the table ``vals`` (a on a
    tie) wins; counts[r] += winner - loser."""
    ab = u < counts * inv
    f = vals[ab @ pow2]
    # winner - loser is a - b, negated where b is strictly fitter
    delta = np.subtract(ab[0], ab[1], dtype=np.int64)
    np.negative(delta, out=delta, where=(f[1] > f[0])[:, None])
    counts += delta


def _at_corner(counts: np.ndarray, two_n) -> np.ndarray:
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
    seed: int | tuple[int, ...]
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
        an unterminated one raises HorizonError, as do negative and NaN
        times. A thinned run answers only at recorded iterations.
        """
        ts = np.asarray(ts, dtype=np.float64)
        # written so that NaN fails too
        negative = ~(ts >= 0.0)
        if negative.any():
            raise HorizonError(f"time must be nonnegative, got {ts[negative][0]}")
        horizon = (self.iterations + 1) * self.alpha
        past = ts >= horizon
        if past.any() and not self.terminated:
            raise HorizonError(f"t beyond the recorded horizon {horizon}")
        # only times before the horizon are cast to iterations, so inf and
        # huge times never reach the int64 cast
        k = np.full(ts.shape, self.iterations, dtype=np.int64)
        k[~past] = _iteration_of(ts[~past], self.alpha)
        rows = np.searchsorted(self.recorded_ks, k, side="right") - 1
        if np.any(self.recorded_ks[rows] != k):
            raise DomainError(
                "trajectory was thinned; interpolation only answers at recorded iterations"
            )
        # only the rows returned are made floats, as states would make them
        return self.counts[rows] / float(2 * self.alpha_steps)


@dataclass
class LockstepResult:
    """Where each of R lockstep runs ended: its start ``initial`` (R, n),
    final ``counts`` (R, n), ``iterations`` (R,) and ``terminated`` (R,)."""

    initial: np.ndarray
    counts: np.ndarray
    iterations: np.ndarray
    terminated: np.ndarray

    def __getitem__(self, rows) -> "LockstepResult":
        """The runs ``rows`` (a slice or an index array) of this result."""
        return LockstepResult(self.initial[rows], self.counts[rows], self.iterations[rows],
                              self.terminated[rows])


# the one budget of every block: the most cells one block holds, counting
# every column of its rows (lockstep uniforms, drift tables, text cells)
_BLOCK_CELLS = 1 << 15


def _block_rows(columns: int) -> int:
    """The rows of one block whose rows have ``columns`` cells: as many as
    ``_BLOCK_CELLS`` holds, and at least one."""
    return max(1, _BLOCK_CELLS // columns)


# the budget cuts no lockstep block below this: each costs a Generator.random call per run
_MIN_DRAW = 32
_MIN_BLOCK, _MAX_BLOCK = 8, 256
_INT64_MAX = int(np.iinfo(np.int64).max)
# counts run from 0 to 2N in int64
_MAX_N = _INT64_MAX // 2
# above this 2N a float64 start cannot name every grid point, and p * 2N
# can round past int64
_MAX_START_2N = 1 << 53


def _initial_counts(initial, Ns: np.ndarray, n: int) -> np.ndarray:
    """The (R, n) grid positions of run r's start ``initial`` (default the
    center), a probability vector of length n on its 1/(2N) grid, N =
    ``Ns[r]``: each entry within min(1e-9, a quarter grid step) of it. An
    explicit start needs 2N <= 2^53."""
    if initial is None:
        return np.repeat(Ns[:, None], n, axis=1)
    too_fine = Ns[Ns > _MAX_START_2N // 2]
    if too_fine.size:
        raise DomainError(
            f"an initial start needs 2N <= 2**53, where float64 holds every 1/(2N) "
            f"grid point, got N = {too_fine.min()}"
        )
    p = _as_pv(initial, n)
    if p.ndim != 1:
        raise DimensionError("initial must be one-dimensional")
    two_n = 2.0 * Ns[:, None]
    counts = np.rint(p * two_n).astype(np.int64)
    off = (np.abs(counts / two_n - p) > np.minimum(1e-9, 0.25 / two_n)).any(axis=1)
    if off.any():
        raise DomainError(f"initial probabilities must be integer multiples of "
                          f"1/(2N) = {1.0 / (2 * Ns[off].min())}")
    return counts


def _per_run(values, runs: int, name: str, rule: str, accepts) -> np.ndarray:
    """One int64 per run from ``values``: one integer for every run, or one
    per run. Each distinct type is checked to be an integer (Python or
    numpy, not a bool) once, as a set would fold True into 1, and each
    distinct value by ``accepts`` once, refused as breaking ``rule``. Values
    past int64 are clipped to it, which no iteration count reaches."""
    values = np.asarray(values, dtype=object)
    if values.ndim > 1 or (values.ndim == 1 and values.size != runs):
        raise DimensionError(
            f"{name} must be one integer or one per run ({runs}), got shape {values.shape}")
    flat = values.ravel().tolist()
    for kind in set(map(type, flat)):
        _integer(next(v for v in flat if type(v) is kind), name)
    for value in set(flat):
        if not accepts(value):
            raise DomainError(f"{name} must {rule}, got {value}")
    return np.broadcast_to(np.asarray(np.minimum(values, _INT64_MAX), dtype=np.int64), (runs,))


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

# numpy's SeedSequence constants, which NEP 19 keeps fixed with the
# algorithm: a pool of 4 uint32 words, mixed by hashmix and mix
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _read_seed(seed):
    """The one reader of a seed: a non-negative integer (Python or numpy, not
    a bool), or a tuple, list or 1-D array of them, read as an int or a tuple
    of ints. Anything else raises DomainError; a seed of more dimensions
    raises DimensionError."""
    entries = (seed,) if type(seed) is int else seed
    if type(entries) is tuple:
        for v in entries:  # a campaign's seeds, tuples of ints, in this one pass
            if type(v) is not int or v < 0:
                break
        else:
            return seed
    sequence = (tuple, list, np.ndarray)
    if not isinstance(seed, sequence):
        seed = _integer(seed, "seed")
        if seed < 0:  # numpy.random.SeedSequence takes no negative seed
            raise DomainError(f"seed must be >= 0, got {seed}")
        return seed
    entries = seed.tolist() if isinstance(seed, np.ndarray) else seed  # 0-d: a scalar, refused
    if not isinstance(entries, sequence) or any(isinstance(v, sequence) for v in entries):
        raise DimensionError(f"a seed is an integer or a 1-D sequence of integers, got {seed!r}")
    return tuple(map(_read_seed, entries))


def _entropy_words(seed) -> tuple:
    """The uint32 entropy words SeedSequence makes of a seed that
    :func:`_read_seed` returned: each int's little-endian 32-bit words (0
    is one word 0), concatenated."""
    entries = (seed,) if type(seed) is int else seed
    if max(entries, default=0) <= _MASK32:
        return entries
    return tuple(v >> shift & _MASK32 for v in entries
                 for shift in range(0, max(v.bit_length(), 1), 32))


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """The (G, 4) uint64 words ``SeedSequence(e).generate_state(4, np.uint64)``
    of each row e of the (G, c) uint32 ``entropy``: numpy's mix_entropy into
    a pool of 4 words, then generate_state, one uint32 column at a time.

    The hash constants evolve alike in every row, so they are Python ints
    masked to 32 bits (a numpy scalar would warn on overflow); uint32
    arrays wrap as the C code does.
    """
    G, c = entropy.shape
    # a pool word past the end of the entropy is hashed from 0
    columns = list(entropy.T) + [np.zeros(G, dtype=np.uint32)] * (_POOL_WORDS - c)
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    pool = [hashmix(word) for word in columns[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    # 8 uint32 words from the cycled pool, paired little-endian into 4 uint64
    state = np.empty((G, 8), dtype=np.uint32)
    h = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seed_words(seeds) -> np.ndarray:
    """The (R, 4) uint64 words ``SeedSequence(seed).generate_state(4, np.uint64)``
    of every seed: the state words that seed its run's PCG64.

    Each seed is read by :func:`_read_seed`, and the seeds are grouped by
    their number of entropy words and hashed a group at a time by
    :func:`_state_words`.
    """
    entropies = [_entropy_words(_read_seed(seed)) for seed in seeds]
    sizes = np.array(list(map(len, entropies)), dtype=np.intp)
    # every entropy word in seed order; run r's at starts[r]
    flat = np.fromiter(chain.from_iterable(entropies), dtype=np.uint32)
    starts = np.cumsum(sizes) - sizes
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    # not np.unique, whose masked-array check imports numpy.ma (about 1 MB)
    for size in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == size)
        words[rows] = _state_words(flat[starts[rows, None] + np.arange(size)])
    return words


@functools.cache
def _words_seed_sequence() -> type:
    """The seed sequence that hands PCG64 one run's words from
    :func:`_seed_words`: ``PCG64(seed_seq)`` calls only
    ``seed_seq.generate_state(4, np.uint64)``. The type is built on first
    use, as subclassing numpy's ``ISeedSequence`` imports numpy.random,
    which would add about 10 ms (2-core Xeon) to every import of cgadyn."""
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeedSequence(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a run's seed words are the 4 uint64 words that seed PCG64, "
                                 f"not {n_words} {np.dtype(dtype)} words")
            return self.words

    return WordsSeedSequence


def lockstep(
    spec: FitnessSpec,
    N,
    seeds,
    *,
    initial=None,
    max_iters=None,
    on_block=None,
) -> LockstepResult:
    """Step one run per seed together until each is at a corner or its budget ends.

    ``N`` and ``max_iters`` are each one integer for every run or one per
    run (default budget: :func:`default_max_iters` of the run's N). Run r
    starts from ``initial`` on its own 1/(2N) grid (default the center) and
    advances one iteration at a time on an (R, n) int64 counts array, in
    blocks of B iterations. Run r's stream is the PCG64 stream that
    ``SeedSequence(seeds[r])`` seeds, whose state words :func:`_seed_words`
    computes for all runs at once. Per block, run r draws B * 2 * n
    uniforms from its stream into its row of a slab, and one copy lays the
    block out iteration-major, read as a then b per iteration; so it is
    bit-identical to the same run stepped alone, whatever runs share its
    lockstep.

    A block is as long as the slowest active run needs to reach a corner (at
    least 8 iterations, or k0 / 8 after k0 iterations; at most 256), cut to the
    smallest remaining budget among the active runs and to ``_BLOCK_CELLS``
    uniforms over all of them, but never below 32 iterations for that last cut.
    After each block, ``on_block(rows, k0, snaps, ends)`` sees the runs that
    were active at its start: ``rows`` their indices in increasing order,
    ``snaps[i, j]`` the int64 counts of run ``rows[i]`` after iteration
    ``k0 + j`` for j = 0..B, and ``ends[i]`` that run's last iteration so far
    (its corner, or the block's end). So ``snaps[:, 0]`` is the block's start:
    ``initial`` in the first block, the previous block's last column in every
    later one. Snapshots past a corner repeat it; the next block overwrites
    ``snaps``, so copy what you keep. Runs at a corner or at the end of their
    budget leave the active set.
    """
    n = spec.n
    seeds = list(seeds)
    R = len(seeds)
    Ns = _per_run(N, R, "N", f"lie in [1, {_MAX_N}], so that 2N fits in int64",
                  lambda v: 1 <= v <= _MAX_N)
    # the default budgets are Python ints, clipped to int64 with the rest
    budgets = _per_run(default_max_iters(Ns.astype(object), n) if max_iters is None
                       else max_iters, R, "max_iters", "be >= 0", lambda v: v >= 0)
    start = _initial_counts(initial, Ns, n)
    seeded = _words_seed_sequence()
    rngs = [np.random.Generator(np.random.PCG64(seeded(words))) for words in _seed_words(seeds)]
    vals = fitness_values(spec)
    pow2 = place_values(n)
    # 2N and 1/(2N) are kept for every count, so that each test of the
    # counts and p = counts * inv are elementwise, as fast as with one N
    two_n = np.repeat(2 * Ns[:, None], n, axis=1)
    inv = 1.0 / two_n

    counts = start.copy()
    iterations = np.zeros(R, dtype=np.int64)
    terminated = _at_corner(start, two_n)
    rows = np.flatnonzero(~terminated & (budgets > 0))
    # every block reuses the same flat buffers, sized for the blocks that
    # _BLOCK_CELLS caps; they grow for a block the _MIN_DRAW floor lengthens
    size = max(_BLOCK_CELLS, 2 * n * rows.size)
    slab_buf, u_buf = np.empty(size), np.empty(size)
    snaps_buf = np.empty(size // 2 + n * rows.size, dtype=np.int64)
    k0 = 0
    while rows.size:
        c = counts[rows]
        c_two_n = two_n[rows]
        # the slowest active run needs at least `need` iterations to reach a
        # corner, so a block of that length never outlasts every run; past
        # that, iterations stepped beyond the last corner stay under k0 / 8
        need = int(np.max(np.minimum(c, c_two_n - c)))
        m = min(max(need, k0 // 8, _MIN_BLOCK), _MAX_BLOCK, int(budgets[rows].min()) - k0,
                max(_MIN_DRAW, _block_rows(2 * n * rows.size)))
        size = rows.size * m * 2 * n
        if slab_buf.size < size:
            slab_buf, u_buf = np.empty(size), np.empty(size)
            snaps_buf = np.empty(size // 2 + n * rows.size, dtype=np.int64)
        # each run fills its own contiguous row, continuing its stream
        slab = slab_buf[:size].reshape(rows.size, m * 2 * n)
        for i, r in enumerate(rows):
            rngs[r].random(out=slab[i])
        u = u_buf[:size].reshape(m, 2, rows.size, n)
        np.copyto(u, slab.reshape(rows.size, m, 2, n).transpose(1, 2, 0, 3))
        snaps = snaps_buf[:rows.size * (m + 1) * n].reshape(rows.size, m + 1, n)
        snaps[:, 0] = c
        c_inv = inv[rows]
        for j in range(m):
            _update(c, c_inv, vals, pow2, u[j])
            snaps[:, j + 1] = c
        # at a corner a == b, so the update is zero and the corner absorbs:
        # a run ends at a corner iff its block does, at its first corner snapshot
        done = _at_corner(c, c_two_n)
        ends = np.full(rows.size, k0 + m, dtype=np.int64)
        ends[done] = k0 + np.argmax(_at_corner(snaps[done], c_two_n[done, None]), axis=1)
        counts[rows] = c
        iterations[rows] = ends
        terminated[rows] = done
        if on_block is not None:
            on_block(rows, k0, snaps, ends)
        k0 += m
        rows = rows[~done & (budgets[rows] > k0)]
    return LockstepResult(initial=start, counts=counts, iterations=iterations,
                          terminated=terminated)


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

    It is the one run of a :func:`lockstep`, so bit for bit run r of any
    lockstep with seed r = ``seed`` and the same N, start and budget.

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
    seed : int, or a tuple, list or 1-D array of ints
        Entropy for ``numpy.random.SeedSequence``, each int >= 0 (see
        :func:`_read_seed`); the trajectory keeps it as an int or a tuple.
    record_every : int
        Keep every k-th snapshot (first and final always kept).
    """
    record_every = _integer(record_every, "record_every")
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every}")
    N = _integer(N, "N")
    every = min(record_every, _INT64_MAX)  # as _per_run clips budgets
    kept_ks, kept_counts = [], []

    def keep(rows, k0, snaps, ends):
        ks = np.arange(k0 + 1, ends[0] + 1)
        if every > 1:
            ks = ks[ks % every == 0]
        kept_ks.append(ks)
        kept_counts.append(snaps[0, ks - k0])

    result = lockstep(spec, N, [seed], initial=initial, max_iters=max_iters, on_block=keep)
    ks = np.concatenate([[0], *kept_ks]).astype(np.int64)
    counts = np.concatenate([result.initial, *kept_counts])
    last = int(result.iterations[0])
    if ks[-1] != last:  # the final state is always kept
        ks = np.append(ks, last)
        counts = np.concatenate([counts, result.counts])
    return StochasticTrajectory(
        spec=spec, alpha_steps=N, seed=_read_seed(seed),  # Python ints, which JSON writes
        counts=counts, recorded_ks=ks, iterations=last,
        terminated=bool(result.terminated[0]), record_every=record_every,
    )


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

def _block_text(block, fmt: str, sep: str, end: str, prefix=None, suffix=None) -> str:
    """The text of a float array ``block``, one line per row (every axis
    but the last): each cell in ``fmt`` followed by ``sep``, the row's last
    cell followed by ``end``, between the row's ``prefix`` and ``suffix``
    texts when those per-row lists are given. Callers cut their artifacts
    into blocks of :func:`_block_rows` rows, so the text, its tables and
    its gather stay within one cell budget.

    Each distinct bit pattern is formatted once, kept with ``sep`` and bare
    (for a row's last cell, which ``end`` follows), and one gather puts the
    texts in place for one join. That pays where values repeat, as in a
    run's states (they lie on the 1/(2N) grid), a drift grid and corner
    eigenvalues. Keying on bits, not values, keeps ``0.0`` and ``-0.0`` apart.
    """
    a = np.ascontiguousarray(block, dtype=np.float64)
    keys, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    texts = [fmt % x for x in keys.view(np.float64).tolist()]
    # numpy versions disagree on the shape of the inverse
    index = inverse.reshape(-1, a.shape[-1])
    index[:, -1] += len(texts)
    table = [t + sep for t in texts] + texts + [end]
    rows = np.arange(len(index))[:, None]
    columns = [index, np.full_like(rows, len(table) - 1)]
    if prefix is not None:
        columns.insert(0, len(table) + rows)
        table += prefix
    if suffix is not None:
        columns.append(len(table) + rows)
        table += suffix
    return "".join(np.array(table, dtype=object)[np.hstack(columns)].ravel().tolist())


def write_jsonl(fp, header: dict, key: str, stamps: np.ndarray, rows: np.ndarray,
                scale: float) -> None:
    """Write ``header`` as one JSON record, then one ``{key: stamp, "p": row
    / scale}`` record per entry of the array ``stamps`` and row of ``rows``
    (a run's int64 counts over 2N, or a flow's float states over 1.0).

    The records are written a block at a time, n + 1 cells to a record:
    each block's rows over ``scale``, by one pass of :func:`_block_text`,
    written before the next is built, so no float table of every record is
    made; since x / 1.0 is x, a block over 1.0 is written as it is, with no
    copy. Each stamp and float is written by ``repr`` (each distinct float
    of a block once), which for finite floats and ints is the text
    ``json.dumps`` writes: the bytes of one ``json.dumps`` call per record.
    """
    fp.write(json.dumps(header, sort_keys=True) + "\n")
    head = '{"%s": %%r, "p": [' % key
    step = _block_rows(rows.shape[1] + 1)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        fp.write(_block_text(block if scale == 1.0 else block / scale, "%r", ", ", "]}\n",
                             prefix=[head % stamp for stamp in stamps[lo:lo + step].tolist()]))


def trajectory_to_jsonl(traj: StochasticTrajectory, fp, extra_header: dict | None = None) -> None:
    """Write one header record then one {"k", "p"} record per snapshot,
    from the run's counts (:func:`write_jsonl`)."""
    header = {
        "format": "cga-trajectory",
        "n": traj.n,
        "N": traj.alpha_steps,
        "alpha": traj.alpha,
        "seed": traj.seed,
        "spec": spec_to_json_dict(traj.spec),
        "iterations": traj.iterations,
        "terminated": traj.terminated,
        "record_every": traj.record_every,
        **(extra_header or {}),
    }
    write_jsonl(fp, header, "k", traj.recorded_ks, traj.counts, float(2 * traj.alpha_steps))
