import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgadyn import cga as C
from cgadyn import drift_field as dr
from cgadyn import landscape as ls
from cgadyn.errors import DimensionError, DomainError, HorizonError

from conftest import TWO_MAX_TABLE, reference_cga_run, reference_jsonl_records


def _update(spec, N, counts, ua, ub):
    """One ``cga._update`` of the rows ``counts`` on the preset uniforms."""
    counts = np.array(counts, dtype=np.int64)
    C._update(counts, 1.0 / (2 * N), ls.fitness_values(spec), C._pow2(spec.n),
              np.asarray(ua, dtype=float), np.asarray(ub, dtype=float))
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
    with pytest.raises(DomainError, match="multiples of 1/\\(2N\\)"):
        C.run(ls.binval(1), 2, initial=[0.3])
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
def test_run_many_matches_reference_and_run(data):
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

    trajs = C.run_many(spec, N, seeds, **kw)
    assert len(trajs) == len(seeds)
    for seed, traj in zip(seeds, trajs):
        counts, ks, iterations, terminated = reference_cga_run(spec, N, seed, **kw)
        for got in (traj, C.run(spec, N, seed=seed, **kw)):
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
    assert np.array_equal(ends.initial, [8, 8, 8])
    assert C.run_many(ls.binval(3), 8, []) == []


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
    result = C.lockstep(spec, 8, [(1234, r) for r in range(M)], initial=p, max_iters=1)
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


def test_interpolation_absorbing_after_termination():
    traj = C.run(ls.binval(2), 2, seed=1, max_iters=10_000)
    assert traj.terminated
    far = traj.values_at([1000.0])
    assert np.array_equal(far, traj.states[-1:])


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
    traj = C.run(ls.binval(2), 4, seed=1, max_iters=50)
    buf = io.StringIO()
    C.trajectory_to_jsonl(traj, buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[0])
    assert header["n"] == 2 and header["N"] == 4 and header["alpha"] == 0.125
    assert header["seed"] == 1
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
    assert body == reference_jsonl_records("k", [int(k) for k in traj.recorded_ks], traj.states)
