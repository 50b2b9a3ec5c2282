import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgadyn import cga as C
from cgadyn import drift_field as dr
from cgadyn import landscape as ls
from cgadyn.errors import DimensionError, DomainError, HorizonError

from conftest import (
    TWO_MAX_TABLE,
    DiscardingText,
    assert_same_lines,
    reference_cga_run,
    reference_jsonl_records,
    traced_peak,
)


def _update(spec, N, counts, ua, ub):
    """One ``cga._update`` of the rows ``counts`` on the preset uniforms."""
    counts = np.array(counts, dtype=np.int64)
    C._update(counts, 1.0 / (2 * N), ls.fitness_values(spec), ls.place_values(spec.n),
              np.stack((ua, ub)).astype(float))
    return counts


FLAT = ls.table_spec([1.0, 1.0], n=1)  # every pair ties, so a wins and the move is a - b


# --- start states ------------------------------------------------------------

def test_pv_center_and_grid():
    traj = C.run(ls.binval(3), 4, max_iters=0)
    assert traj.alpha == 0.125
    assert np.array_equal(traj.counts, [[4, 4, 4]])
    assert np.array_equal(traj.states, [[0.5, 0.5, 0.5]])
    assert not traj.terminated


def test_pv_from_p_requires_grid_alignment():
    for initial in ([0.75, 0.25], [0.75 + 1e-12, 0.25 - 1e-12]):
        traj = C.run(TWO_MAX_TABLE, 2, initial=initial, max_iters=0)
        assert np.array_equal(traj.counts, [[3, 1]])
    # 0.3 lies 0.4 grid steps off every grid below: farther than 1e-9 at
    # 2N = 2^27, and farther than a quarter step (not 1e-9) at 2N = 2^29
    for N in (2, 1 << 26, 1 << 28):
        with pytest.raises(DomainError, match="multiples of 1/\\(2N\\)"):
            C.run(ls.binval(1), N, initial=[0.3], max_iters=0)
        for k in (N // 2, 3 * N // 5):
            traj = C.run(ls.binval(1), N, initial=[k / (2 * N)], max_iters=0)
            assert traj.counts.tolist() == [[k]]
    with pytest.raises(DimensionError):
        C.run(ls.binval(2), 2, initial=[0.5, 0.5, 0.5])
    with pytest.raises(DimensionError):
        C.run(ls.binval(2), 2, initial=[[0.5, 0.5]])


def test_pv_bounds():
    # refused by the probability-vector check, before any count is formed
    # and without a cast warning; 1.25 and -0.25 lie on the N=2 grid
    for bad in (np.nan, np.inf, -np.inf, 1.25, -0.25):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
                C.run(ls.binval(2), 2, initial=[bad, 0.5])
            with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
                C.lockstep(ls.binval(2), 2, [0], initial=[0.5, bad])


def test_explicit_start_needs_2N_at_most_2_pow_53():
    # p * 2N would round past int64 near N = 2^62 - 1 (a cast warning); the
    # default start works for every N
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in ((1 << 62) - 1, (1 << 52) + 1):
            with pytest.raises(DomainError, match="2N <= 2\\*\\*53"):
                C.run(ls.binval(2), N, initial=[1.0, 0.0], max_iters=1)
        traj = C.run(ls.binval(2), 1 << 52, initial=[1.0, 0.0], max_iters=1)
        assert traj.counts.tolist() == [[1 << 53, 0]] and traj.terminated
        assert C.run(ls.binval(2), (1 << 62) - 1, max_iters=0).counts.tolist() == [
            [(1 << 62) - 1] * 2]


# --- sampling ----------------------------------------------------------------

def test_sample_deterministic_corner():
    # p_i in {0, 1} samples the same bit in a and b whatever the uniforms,
    # u = 0 included, so a corner does not move
    corner = [[4, 0, 4]] * 4
    ua = [[0.0, 0.0, 0.0], [0.999, 0.999, 0.999], [0.5, 0.0, 0.25], [0.0, 0.5, 0.999]]
    for spec in (ls.binval(3), ls.random_injective(3, seed=0)):
        assert np.array_equal(_update(spec, 2, corner, ua, ua[::-1]), corner)


def test_sample_is_strictly_below_p():
    # bit i is 1 iff u_i < p_i: at u = p the bit is 0
    assert np.array_equal(_update(ls.binval(1), 2, [[1], [1]], [[0.25], [0.2]], [[0.3], [0.25]]),
                          [[1], [2]])


def test_sample_marginal_frequency():
    # on the flat table with b all zeros the move is a itself
    ua = np.random.default_rng(7).random((100_000, 1))
    moved = _update(FLAT, 1, np.ones((100_000, 1)), ua, np.full((100_000, 1), 0.75)) - 1
    assert abs(moved.sum() / 100_000 - 0.5) < 0.01


def test_sample_joint_frequency():
    ua = np.random.default_rng(8).random((100_000, 2))
    flat2 = ls.table_spec([1.0] * 4, n=2)
    moved = _update(flat2, 1, np.ones((100_000, 2)), ua, np.full((100_000, 2), 0.75)) - 1
    hits = int(np.count_nonzero((moved[:, 0] == 1) & (moved[:, 1] == 1)))
    assert abs(hits / 100_000 - 0.25) < 0.01


# --- competition -------------------------------------------------------------

def test_compete_orders_by_fitness():
    # row 0: a = 10 beats b = 01; row 1: b = 10 beats a = 01, so the move is b - a
    got = _update(ls.binval(2), 2, [[2, 2], [1, 3]], [[0.2, 0.9], [0.9, 0.2]],
                  [[0.9, 0.2], [0.2, 0.9]])
    assert np.array_equal(got, [[3, 1], [2, 2]])


def test_compete_tie_goes_to_first():
    # a = 0 and b = 1 tie on the flat table, so p moves toward a
    assert np.array_equal(_update(FLAT, 1, [[1]], [[0.7]], [[0.3]]), [[0]])
    assert np.array_equal(_update(FLAT, 1, [[1]], [[0.3]], [[0.7]]), [[2]])
    # identical samples tie and leave p where it is
    assert np.array_equal(_update(ls.binval(2), 2, [[2, 2]], [[0.1, 0.1]], [[0.2, 0.3]]),
                          [[2, 2]])


# --- single update -----------------------------------------------------------

def test_step_at_corner_is_identity():
    rng = np.random.default_rng(0)
    corner = [[4, 4, 4]]
    assert np.array_equal(_update(ls.binval(3), 2, corner, rng.random((1, 3)),
                                  rng.random((1, 3))), corner)


def test_step_single_coordinate():
    # a = 1 wins against b = 0: p moves up by alpha = 0.25
    assert np.array_equal(_update(ls.binval(1), 2, [[2]], [[0.3]], [[0.7]]), [[3]])


def test_step_coordinatewise():
    # a = 10 beats b = 01: update is +alpha at locus 1, -alpha at locus 2
    assert np.array_equal(_update(ls.binval(2), 2, [[2, 2]], [[0.2, 0.9]], [[0.9, 0.2]]),
                          [[3, 1]])


# --- full runs ---------------------------------------------------------------

def test_run_starts_terminated_at_corner():
    traj = C.run(ls.binval(1), 4, initial=[1.0], seed=0)
    assert traj.terminated
    assert traj.iterations == 0
    assert traj.counts.shape == (1, 1)


def test_run_terminates_at_a_corner():
    traj = C.run(ls.binval(4), 8, seed=42, max_iters=100_000)
    assert traj.terminated
    final = traj.counts[-1]
    assert np.all((final == 0) | (final == 16))


def test_run_zero_budget():
    traj = C.run(ls.binval(2), 4, max_iters=0, seed=0)
    assert not traj.terminated
    assert traj.counts.shape[0] == 1


def test_run_grid_and_range_invariants():
    traj = C.run(ls.binval(3), 4, seed=5)
    assert np.all(traj.counts >= 0) and np.all(traj.counts <= 8)
    diffs = np.diff(traj.counts, axis=0)
    assert set(np.unique(diffs)) <= {-1, 0, 1}
    assert np.array_equal(traj.states, traj.counts / 8.0)


def test_run_reproducible():
    kw = dict(seed=(3, 16, 2), max_iters=5000)
    a = C.run(ls.random_injective(4, seed=1), 16, **kw)
    b = C.run(ls.random_injective(4, seed=1), 16, **kw)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.recorded_ks, b.recorded_ks)
    assert a.terminated == b.terminated and a.iterations == b.iterations


def test_run_matches_repeated_step():
    # the tied table exercises the first-sample-wins rule of the shared update
    specs = (ls.binval(2), ls.table_spec([1.0, 2.0, 2.0, 1.0], n=2),
             ls.random_injective(3, seed=2), ls.perturbed_onemax(3, 0.125))
    for spec in specs:
        for N in (1, 3, 4):
            traj = C.run(spec, N, seed=11, max_iters=60)
            counts, ks, iterations, terminated = reference_cga_run(spec, N, 11, max_iters=60)
            assert np.array_equal(traj.counts, counts), (spec, N)
            assert np.array_equal(traj.recorded_ks, ks)
            assert (traj.iterations, traj.terminated) == (iterations, terminated)


@st.composite
def tie_prone_spec(draw):
    """Injective specs and specs whose ties the first-sample-wins rule decides."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["binval", "random_injective", "onemax", "table", "two_max"]))
    if kind == "binval":
        return ls.binval(n)
    if kind == "random_injective":
        return ls.random_injective(n, seed=draw(st.integers(0, 1000)))
    if kind == "onemax":
        return ls.linear((1.0,) * n)
    if kind == "table":
        values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1 << n, max_size=1 << n))
        return ls.table_spec(values, n=n)
    return TWO_MAX_TABLE


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_matches_reference(data):
    spec = data.draw(tie_prone_spec())
    N = data.draw(st.integers(1, 64))
    seed = st.one_of(st.integers(0, 2**32), st.tuples(*[st.integers(0, 99)] * 3))
    seeds = data.draw(st.lists(seed, min_size=1, max_size=12))
    max_iters = data.draw(st.integers(0, 300))
    record_every = data.draw(st.integers(1, 7))
    start = data.draw(st.sampled_from(["center", "corner", "grid"]))
    if start == "corner":
        initial = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=spec.n,
                                     max_size=spec.n))
    elif start == "grid":
        initial = [c / (2 * N) for c in data.draw(
            st.lists(st.integers(0, 2 * N), min_size=spec.n, max_size=spec.n))]
    else:
        initial = None
    kw = dict(initial=initial, max_iters=max_iters, record_every=record_every)

    for seed in seeds:
        counts, ks, iterations, terminated = reference_cga_run(spec, N, seed, **kw)
        got = C.run(spec, N, seed=seed, **kw)
        assert np.array_equal(got.counts, counts), (seed, got.recorded_ks, ks)
        assert np.array_equal(got.recorded_ks, ks)
        assert got.iterations == iterations
        assert got.terminated == terminated
        assert got.seed == seed and got.record_every == record_every


def test_lockstep_reports_where_runs_end():
    seeds = [(4, 8, r) for r in range(9)]
    starts = []
    block_ends = {}  # run -> its counts at the end of its last block so far

    def check_block_start(rows, k0, snaps, ends):
        # each block starts where the run stood: the start, then the
        # previous block's last column
        for i, r in enumerate(rows):
            assert np.array_equal(snaps[i, 0], block_ends.get(r, [8, 8, 8]))
            assert (k0 == 0) == (r not in block_ends)
            block_ends[r] = snaps[i, -1].copy()
        starts.append(k0)

    ends = C.lockstep(ls.binval(3), 8, seeds, max_iters=150, on_block=check_block_start)
    assert len(starts) > 2
    for r, seed in enumerate(seeds):
        traj = C.run(ls.binval(3), 8, seed=seed, max_iters=150)
        assert np.array_equal(ends.counts[r], traj.counts[-1])
        assert ends.iterations[r] == traj.iterations
        assert ends.terminated[r] == traj.terminated
        assert np.array_equal(block_ends[r], ends.counts[r])
    assert np.array_equal(ends.initial, np.full((len(seeds), 3), 8))


def test_lockstep_with_a_binding_uniforms_budget():
    # 2^15 uniforms (C._BLOCK_CELLS) / (300 runs * 2n) < 32, so a block is
    # cut to the 32 iterations of C._MIN_DRAW, shorter than the N iterations
    # the slowest run needs, and runs leave in different blocks
    N = 40
    seeds = [(17, r) for r in range(300)]
    for spec in (ls.binval(2), TWO_MAX_TABLE):
        lengths, leaving = [], []
        last = {}  # run -> its counts at the end of its last block so far

        def check_block(rows, k0, snaps, ends):
            for i, r in enumerate(rows):
                assert np.array_equal(snaps[i, 0], last.get(r, [N, N]))
                last[r] = snaps[i, -1].copy()
            lengths.append(snaps.shape[1] - 1)
            leaving.append(int(np.count_nonzero(ends < k0 + lengths[-1])))

        result = C.lockstep(spec, N, seeds, on_block=check_block)
        assert lengths[0] == C._MIN_DRAW < N
        assert sum(x > 0 for x in leaving) > 1
        for r, seed in enumerate(seeds):
            counts, _, iterations, terminated = reference_cga_run(spec, N, seed)
            assert np.array_equal(result.counts[r], counts[-1]), (spec, seed)
            assert (result.iterations[r], result.terminated[r]) == (iterations, terminated)


@pytest.mark.parametrize("spec", [ls.binval(3), ls.table_spec([1.0, 2.0, 2.0, 1.0], n=2)],
                         ids=["binval3", "tied_table"])
def test_lockstep_of_mixed_N_equals_serial_runs(spec):
    # N = 1; 2N = 128 > 127, and the snapshots of every run are int64; zero
    # budgets; budgets of 7 and 37 that end while longer runs go on
    Ns = [1, 64, 3, 1, 64, 5, 2, 64, 3]
    budgets = [50, 0, 400, 0, 37, 7, 60, 1000, 400]
    seeds = [(21, N, r) for r, N in enumerate(Ns)]
    last = {}  # run -> its counts at the end of its last block so far

    def check_block(rows, k0, snaps, ends):
        assert snaps.dtype == np.int64 and np.all(np.diff(rows) > 0)
        for i, r in enumerate(rows):
            assert np.array_equal(snaps[i, 0], last.get(r, [Ns[r]] * spec.n))
            assert ends[i] <= budgets[r]
            last[r] = snaps[i, -1].copy()

    result = C.lockstep(spec, Ns, seeds, max_iters=budgets, on_block=check_block)
    for r, (N, budget) in enumerate(zip(Ns, budgets)):
        counts, _, iterations, terminated = reference_cga_run(spec, N, seeds[r], max_iters=budget)
        assert np.array_equal(result.initial[r], [N] * spec.n)
        assert np.array_equal(result.counts[r], counts[-1]), (r, N, budget)
        assert (result.iterations[r], result.terminated[r]) == (iterations, terminated)
        assert np.array_equal(last.get(r, result.initial[r]), result.counts[r])
    assert sorted(last) == [r for r, budget in enumerate(budgets) if budget > 0]


def test_lockstep_and_run_refuse_bad_arguments():
    spec, seeds = ls.binval(2), [1, 2, 3]
    for N in (0, 1 << 62):
        with pytest.raises(DomainError, match="2N fits in int64"):
            C.lockstep(spec, N, seeds)
    with pytest.raises(DomainError, match="max_iters"):
        C.lockstep(spec, 4, seeds, max_iters=-1)
    # N and max_iters are one value or one per run
    for kw in ({"N": [4, 4]}, {"N": [[4, 4, 4]]}, {"N": 4, "max_iters": [5, 5]},
               {"N": 4, "max_iters": [[5], [5], [5]]}):
        with pytest.raises(DimensionError, match="one integer or one per run"):
            C.lockstep(spec, kw.pop("N"), seeds, **kw)
    with pytest.raises(DomainError, match="record_every"):
        C.run(spec, 4, seed=seeds[0], record_every=0)


# --- seeds -------------------------------------------------------------------

def seed_sequence_words(seeds) -> np.ndarray:
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds],
                    dtype=np.uint64).reshape(len(seeds), 4)


# word edges: one word, the largest one word, two words, past 2^64
SEED_ENTRY = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64 + 5,
                                        2**96]), st.integers(0, 2**70))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(SEED_ENTRY, st.lists(SEED_ENTRY, min_size=0, max_size=6).map(tuple)),
                min_size=1, max_size=24))
def test_seed_words_equal_seed_sequence_words(seeds):
    # ints and tuples of every entropy length, mixed in one call
    assert np.array_equal(C._seed_words(seeds), seed_sequence_words(seeds))


def test_seed_words_of_other_seeds_are_seed_sequence_words():
    seeds = [np.int64(3), (np.int64(3), np.uint8(7)), np.array([1, 2**33]), [1, 2], (True, 1),
             True, (1, (2, 3)), 5, (5,), (2**40, 0)]
    assert np.array_equal(C._seed_words(seeds), seed_sequence_words(seeds))
    assert C._seed_words([]).shape == (0, 4)
    # numpy's own refusal, raised through lockstep before any run is stepped
    for bad in (-1, (1, -1), (1, 2.5), 1.5, "seed"):
        with pytest.raises(Exception) as want:
            np.random.SeedSequence(bad)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            C.lockstep(ls.binval(2), 4, [7, (1, 2), bad, 2**40])


def test_words_seed_sequence_seeds_only_pcg64():
    words = C._seed_words([(5, 2**33)])[0]
    seq = C._words_seed_sequence()(words)
    assert seq.generate_state(4, np.uint64) is words
    assert (np.random.PCG64(seq).state
            == np.random.PCG64(np.random.SeedSequence((5, 2**33))).state)
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="the 4 uint64 words that seed PCG64"):
            seq.generate_state(n_words, dtype)


def test_lockstep_of_mixed_seeds_equals_reference_runs():
    seeds = [0, 7, 2**32, 2**64 + 5, (3,), (1, 2**40, 5), (), np.int64(9), (2, 3, 4, 5, 6, 7),
             (1, 2, 3), True]
    spec, N = ls.binval(3), 6
    result = C.lockstep(spec, N, seeds, max_iters=200)
    for r, seed in enumerate(seeds):
        counts, _, iterations, terminated = reference_cga_run(spec, N, seed, max_iters=200)
        assert np.array_equal(result.counts[r], counts[-1]), seed
        assert (result.iterations[r], result.terminated[r]) == (iterations, terminated)



def test_non_integer_engine_settings_are_refused():
    # each of these used to run: N = 2.5 stepped on the N = 2 grid but
    # reported alpha 0.2, max_iters = 1.5 ran one iteration, record_every =
    # 2.5 kept every fifth iteration, and N = True ran as N = 1
    spec, seeds = ls.binval(2), [0, 1]
    for call, name in (
        (lambda: C.run(spec, 2.5, seed=1), "N"),
        (lambda: C.run(spec, True), "N"),
        (lambda: C.lockstep(spec, [4, 4.0], seeds), "N"),
        (lambda: C.lockstep(spec, [1, True], seeds), "N"),  # a set folds True into 1
        (lambda: C.lockstep(spec, np.array([True, False]), seeds), "N"),
        (lambda: C.lockstep(spec, 4, seeds, max_iters=1.5), "max_iters"),
        (lambda: C.lockstep(spec, 4, seeds, max_iters=[3, np.float64(2.0)]), "max_iters"),
        (lambda: C.run(spec, 4, max_iters=True), "max_iters"),
        (lambda: C.run(spec, 4, record_every=2.5), "record_every"),
        (lambda: C.run(spec, 4, record_every=True), "record_every"),
        (lambda: C.run(spec, [4, 4]), "N"),  # a trajectory has one N
    ):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
            call()
    # numpy integers are integers, and their runs export as Python ints do
    for seed, plain_seed in ((np.int64(3), 3), ((np.int64(3), np.uint8(7)), (3, 7))):
        ours = C.run(spec, np.int64(4), seed=seed, max_iters=np.int32(9),
                     record_every=np.int8(2))
        plain = C.run(spec, 4, seed=plain_seed, max_iters=9, record_every=2)
        assert ours.alpha == plain.alpha == 0.125
        assert ours.seed == plain.seed == plain_seed
        assert np.array_equal(ours.recorded_ks, plain.recorded_ks)
        assert np.array_equal(ours.counts, plain.counts)
        texts = []
        for traj in (ours, plain):
            fp = io.StringIO()
            C.trajectory_to_jsonl(traj, fp)
            texts.append(fp.getvalue())
        assert texts[0] == texts[1]


def test_termination_iff_deterministic():
    for seed in range(8):
        traj = C.run(ls.random_injective(3, seed=0), 4, seed=seed, max_iters=400)
        final_det = np.all((traj.counts[-1] == 0) | (traj.counts[-1] == 8))
        assert traj.terminated == bool(final_det)


def test_empirical_step_mean_matches_drift():
    # over many single updates from a fixed interior state, the average
    # move per unit alpha agrees with the exact expected-update field
    spec = ls.binval(3)
    p = np.array([0.5, 0.25, 0.75])
    f = dr.drift(p, spec)
    M = 100_000
    tracemalloc.start()
    try:
        result = C.lockstep(spec, 8, [(1234, r) for r in range(M)], initial=p, max_iters=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block buffers hold the one iteration drawn; sized for C._MIN_DRAW
    # iterations instead, they would add about 300 MB
    assert peak < 160 * 2**20
    assert np.all(result.iterations == 1)
    deltas = result.counts - result.initial
    mean = deltas.mean(axis=0)
    se = deltas.std(axis=0, ddof=1) / np.sqrt(M)
    assert np.all(np.abs(mean - f) <= 3.0 * se + 1e-12)


# --- interpolation -----------------------------------------------------------

def _toy_trajectory():
    return C.StochasticTrajectory(
        spec=ls.binval(1), alpha_steps=2, seed=0,
        counts=np.array([[2], [3], [2], [1]]), recorded_ks=np.arange(4),
        iterations=3, terminated=False)


def test_interpolation_right_continuous_steps():
    traj = _toy_trajectory()
    assert np.array_equal(traj.values_at([0.1]), [[0.5]])
    assert np.array_equal(traj.values_at([0.25]), [[0.75]])
    assert np.array_equal(traj.values_at([0.9999]), [[0.25]])
    assert np.array_equal(traj.values_at([0.0]), [[0.5]])
    assert np.array_equal(traj.values_at([0.0, 0.5, 0.25, 0.49]), [[0.5], [0.5], [0.75], [0.75]])
    assert traj.values_at([]).shape == (0, 1)


def test_interpolation_horizon():
    traj = _toy_trajectory()
    with pytest.raises(HorizonError):
        traj.values_at([1.0])
    with pytest.raises(HorizonError):
        traj.values_at([-0.01])
    with pytest.raises(HorizonError, match="nan"):
        traj.values_at([0.0, np.nan])


def test_interpolation_absorbing_after_termination():
    traj = C.run(ls.binval(2), 2, seed=1, max_iters=10_000)
    assert traj.terminated
    far = traj.values_at([1000.0])
    assert np.array_equal(far, traj.states[-1:])


@pytest.mark.parametrize("t", [np.inf, 1e300], ids=["inf", "1e300"])
def test_interpolation_infinite_and_huge_times(t):
    # such times once went through an int64 cast: a RuntimeWarning, then a
    # wrong "thinned" DomainError
    done = C.run(ls.binval(2), 2, seed=1)
    assert done.terminated
    assert np.array_equal(done.values_at([0.0, t]), done.states[[0, -1]])
    cut = C.run(ls.binval(4), 64, seed=1, max_iters=5)
    assert not cut.terminated
    with pytest.raises(HorizonError, match="horizon"):
        cut.values_at([0.0, t])


def _long_trajectory(rng, records: int, n: int = 3, N: int = 512) -> C.StochasticTrajectory:
    """A run record of ``records`` snapshots on the 1/(2N) grid, not stepped."""
    return C.StochasticTrajectory(
        spec=ls.binval(n), alpha_steps=N, seed=1, counts=rng.integers(0, 2 * N + 1, (records, n)),
        recorded_ks=np.arange(records), iterations=records - 1, terminated=False)


def test_interpolation_converts_only_the_rows_it_returns(rng):
    traj = _long_trajectory(rng, 200_000)
    ts = np.array([0.0, 7.5, 100.0])
    assert np.array_equal(traj.values_at(ts), traj.states[[0, 7680, 102400]])
    # the float table of every state would be 4.8 MB
    assert traced_peak(lambda: traj.values_at(ts)) < 2**16


def test_interpolation_thinned_refuses_fine_queries():
    traj = C.run(ls.binval(2), 8, seed=3, record_every=5, max_iters=300)
    assert traj.iterations > 6
    alpha = traj.alpha
    assert np.array_equal(traj.values_at([5 * alpha]), traj.states[1:2])
    with pytest.raises(DomainError):
        traj.values_at([3 * alpha])
    # final state is always recorded, even off the thinning stride
    assert traj.recorded_ks[-1] == traj.iterations


# --- serialization -----------------------------------------------------------

def test_trajectory_jsonl():
    for seed, written in ((1, 1), ((4, 8, 0), [4, 8, 0])):  # JSON writes a tuple as a list
        traj = C.run(ls.binval(2), 4, seed=seed, max_iters=50)
        buf = io.StringIO()
        C.trajectory_to_jsonl(traj, buf)
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header["n"] == 2 and header["N"] == 4 and header["alpha"] == 0.125
        assert header["seed"] == written
        assert header["spec"] == {"kind": "binval", "n": 2}
        assert len(lines) == 1 + traj.counts.shape[0]
        first = json.loads(lines[1])
        assert first == {"k": 0, "p": [0.5, 0.5]}


def test_jsonl_bytes_reproducible():
    def dump():
        buf = io.StringIO()
        C.trajectory_to_jsonl(C.run(ls.binval(3), 8, seed=21), buf)
        return buf.getvalue()

    assert dump() == dump()


@pytest.mark.parametrize("spec, N, kw", [
    (ls.binval(3), 16, dict(seed=2, record_every=3)),  # thinned, last record off the stride
    (ls.binval(8), 64, dict(seed=1)),  # to absorption
    (TWO_MAX_TABLE, 4, dict(seed=5, max_iters=7, initial=[0.25, 0.75])),
], ids=["thinned", "absorbed", "budget"])
def test_trajectory_jsonl_records_equal_json_dumps(spec, N, kw):
    traj = C.run(spec, N, **kw)
    buf = io.StringIO()
    C.trajectory_to_jsonl(traj, buf)
    head, body = buf.getvalue().split("\n", 1)
    assert json.loads(head)["iterations"] == traj.iterations
    assert_same_lines(body, reference_jsonl_records("k", [int(k) for k in traj.recorded_ks],
                                                    traj.states))


def test_trajectory_jsonl_memory_does_not_grow_with_the_records(rng):
    # the writer divides each block's counts by 2N and holds one block at a
    # time, with no float table of every state: 200 000 records peak as
    # 50 000 do
    def peak(records):
        traj = _long_trajectory(rng, records)
        return traced_peak(lambda: C.trajectory_to_jsonl(traj, DiscardingText()))

    small, large = peak(50_000), peak(200_000)
    assert 0 < large <= 1.3 * small
