import io
import json

import numpy as np
import pytest

from cgadyn import cga as C
from cgadyn import drift_field as dr
from cgadyn import harness as hn
from cgadyn import landscape as ls
from cgadyn import ode as od
from cgadyn.errors import DimensionError, DomainError, HorizonError, TheoremScopeError

from conftest import (
    TWO_MAX_TABLE,
    DiscardingText,
    assert_same_lines,
    injective_suite,
    jump_table,
    reference_find_limit_many,
    reference_jsonl_records,
    traced_peak,
)


SIGMOID_2 = 1.0 / (1.0 + np.exp(-2.0))  # exact flow value at t=1 for n=1 binval


# --- integration -------------------------------------------------------------

def test_logistic_value_at_t1():
    traj = od.integrate(ls.binval(1), [0.5], h=1e-3, T=1.0)
    assert traj.states[-1][0] == pytest.approx(SIGMOID_2, abs=1e-6)
    assert traj.times[-1] == 1.0


def test_integrator_is_fourth_order():
    exact = SIGMOID_2
    errs = []
    for h in (0.05, 0.025):
        traj = od.integrate(ls.binval(1), [0.5], h=h, T=1.0)
        errs.append(abs(traj.states[-1][0] - exact))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0  # halving h cuts the error ~2^4


def test_corner_start_is_constant():
    traj = od.integrate(ls.binval(2), [1.0, 0.0], h=0.1, T=2.0)
    assert np.array_equal(traj.states, np.tile([1.0, 0.0], (traj.times.shape[0], 1)))


def test_zero_horizon():
    traj = od.integrate(ls.binval(2), [0.5, 0.5], h=0.1, T=0.0)
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.states[0], [0.5, 0.5])


@pytest.mark.parametrize("spec", [ls.binval(3), ls.random_injective(5, seed=3), TWO_MAX_TABLE,
                                  ls.table_spec([0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 3.0], n=3)])
def test_integrate_batch_equals_single_starts(spec):
    # one RK4 loop for a start and a batch; each row is bit-identical to its
    # start alone, a corner start, a long step and a short last step included
    rng = np.random.default_rng(spec.n)
    starts = np.vstack([np.ones(spec.n), rng.random((4, spec.n))])
    for h, T in ((1e-2, 2.05), (0.5, 4.2)):
        batch = od.integrate(spec, starts, h=h, T=T)
        singles = [od.integrate(spec, x0, h=h, T=T) for x0 in starts]
        assert batch.states.shape == (singles[0].times.shape[0], 5, spec.n)
        assert np.array_equal(batch.times, singles[0].times)
        for b, single in enumerate(singles):
            assert np.array_equal(batch.states[:, b], single.states)
            assert np.array_equal(od.integrate(spec, starts[b:b + 1], h=h, T=T).states[:, 0],
                                  single.states)
        assert batch.clamp_count == sum(s.clamp_count for s in singles)
    # readers of one flow refuse a batch
    with pytest.raises(DimensionError):
        od.sup_distance(singles[0], batch, 1.0)
    with pytest.raises(DimensionError):
        od.ode_to_jsonl(batch, io.StringIO())


def test_partial_final_step_lands_on_T():
    traj = od.integrate(ls.binval(1), [0.5], h=0.1, T=0.35)
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3, 0.35])
    # the stall search walks the same grid, shorter last step included
    batch = od.find_limit_many(ls.binval(1), [[0.5]], tol=1e-300, T_max=0.35, h=0.1)
    assert not batch.converged[0] and batch.t_stop[0] == 0.35
    assert np.max(np.abs(batch.states[0] - traj.states[-1])) <= 1e-15


@pytest.mark.parametrize("spec, h, T", [
    (ls.binval(4), 0.03, 1.0),  # a short last step onto T
    (ls.random_injective(5, seed=2), 0.01, 0.5),
    (ls.binval(1), 0.1, 0.0),
], ids=["short_last_step", "random5", "T0"])
def test_ode_jsonl_records_equal_json_dumps(spec, h, T):
    traj = od.integrate(spec, np.full(spec.n, 0.5), h=h, T=T)
    buf = io.StringIO()
    od.ode_to_jsonl(traj, buf)
    head, body = buf.getvalue().split("\n", 1)
    assert json.loads(head)["T"] == traj.horizon
    assert_same_lines(body, reference_jsonl_records("t", [float(t) for t in traj.times],
                                                    traj.states))


def test_ode_jsonl_memory_does_not_grow_with_the_records(rng):
    # the writer holds one block at a time: a flow of 200 000 records peaks
    # as one of 50 000 does
    def peak(records):
        h = 1e-3
        flow = od.OdeTrajectory(times=np.arange(records) * h, states=rng.random((records, 1)),
                                step=h, clamp_count=0, spec=ls.binval(1))
        return traced_peak(lambda: od.ode_to_jsonl(flow, DiscardingText()))

    small, large = peak(50_000), peak(200_000)
    assert 0 < large <= 1.3 * small


def test_containment_and_no_clamps_from_center():
    for spec in injective_suite(3):
        traj = od.integrate(spec, np.full(3, 0.5), h=1e-2, T=10.0)
        assert traj.clamp_count == 0
        assert np.all(traj.states >= 0.0) and np.all(traj.states <= 1.0)


def test_integrate_input_guards():
    with pytest.raises(DomainError):
        od.integrate(ls.binval(1), [1.5], h=0.1, T=1.0)
    with pytest.raises(DomainError):
        od.integrate(ls.binval(1), [0.5], h=0.0, T=1.0)
    with pytest.raises(DomainError):
        od.integrate(ls.binval(1), [0.5], h=0.1, T=-1.0)


@pytest.mark.parametrize("h, T", [(np.inf, 1.0), (np.nan, 1.0), (-np.inf, 1.0),
                                  (0.1, np.inf), (0.1, np.nan), (0.1, -np.inf)])
def test_non_finite_step_or_horizon_is_refused(h, T):
    spec = ls.binval(2)
    with pytest.raises(DomainError, match="finite"):
        od.integrate(spec, [0.5, 0.5], h=h, T=T)
    with pytest.raises(DomainError, match="finite"):
        od.find_limit_many(spec, [[0.3, 0.6]], h=h, T_max=T)


@pytest.mark.parametrize("h, T", [(1e-12, 1e6), (1e-300, 1.0), (1e-300, 1e300)])
def test_oversized_time_grid_is_refused(h, T):
    # refused before anything is allocated: these grids have 1e18 points, 1e300 and inf
    spec = ls.binval(2)
    with pytest.raises(DomainError, match="time points"):
        od.integrate(spec, [0.5, 0.5], h=h, T=T)
    with pytest.raises(DomainError, match="time points"):
        od.find_limit_many(spec, [[0.3, 0.6]], h=h, T_max=T)


def test_time_grid_cap(monkeypatch):
    monkeypatch.setattr(od, "_GRID_MAX_POINTS", 100)
    assert od._time_grid(49.5, 0.5).size == 100
    with pytest.raises(DomainError, match="101 time points, more than the 100"):
        od._time_grid(50.0, 0.5)
    assert od._jump_times(1 / 64, 99 / 64).size == 100
    with pytest.raises(DomainError, match="101 time points"):
        od._jump_times(1 / 64, 100 / 64)
    # a run's last iteration bounds its jump times before the cap is checked
    assert od._jump_times(1 / 64, 1e9, last_iteration=99).size == 100
    flow = od.integrate(ls.binval(2), [0.5, 0.5], h=0.5, T=1.0)
    with pytest.raises(DomainError, match="time points"):
        od.LockstepSupDistance(flow, 1.0, 10**12, 3)


def test_lockstep_sup_distance_refuses_a_run_that_ends_before_T():
    spec = ls.binval(2)
    flow = od.integrate(spec, [0.5, 0.5], h=0.1, T=1.0)
    tracker = od.LockstepSupDistance(flow, 1.0, 8, 1)
    # 3 iterations of 1/16 reach t = 0.25 < T
    result = C.lockstep(spec, 8, [5], max_iters=3, on_block=tracker.update)
    assert not result.terminated[0]
    with pytest.raises(HorizonError, match="run 0 ends"):
        tracker.finish(result)


# --- limits ------------------------------------------------------------------

def test_find_limit_binval_center():
    res = od.find_limit_many(ls.binval(2), [[0.5, 0.5]])
    assert res.converged[0]
    assert np.max(np.abs(res.states[0] - [1.0, 1.0])) < 1e-6
    assert res.corners[0] == 0b11
    assert np.max(np.abs(dr.drift(res.states[0], ls.binval(2)))) < 1e-8


def test_find_limit_two_max_table_center():
    res = od.find_limit_many(TWO_MAX_TABLE, [[0.5, 0.5]])
    assert res.converged[0]
    assert res.corners[0] in {0b00, 0b11}
    assert np.linalg.norm(res.states[0] - ls.all_bit_matrix(2)[res.corners[0]]) < 1e-6


def test_find_limit_stationary_start_stays():
    # the all-zeros corner of binval is a fixed point (an unstable one);
    # starting exactly there the flow never moves
    res = od.find_limit_many(ls.binval(2), [[0.0, 0.0]])
    assert res.converged[0]
    assert res.t_stop[0] == 0.0
    assert np.array_equal(res.states[0], [0.0, 0.0])
    assert res.corners[0] == 0b00


def test_find_limit_many_refuses_bad_starts_and_tolerance():
    spec = ls.binval(2)
    with pytest.raises(DimensionError, match=r"\(B, n\)"):
        od.find_limit_many(spec, np.full((2, 2, 2), 0.5))
    with pytest.raises(DomainError, match="tolerance"):
        od.find_limit_many(spec, [[0.3, 0.6]], tol=0.0)


def test_find_limit_many_matches_singles():
    # drift rows do not depend on the batch, so each row of the batch is
    # bit-identical to its start searched alone
    spec = ls.random_injective(3, seed=4)
    rng = np.random.default_rng(0)
    starts = 0.05 + 0.9 * rng.random((8, 3))
    batch = od.find_limit_many(spec, starts, T_max=100.0)
    assert batch.converged.all()
    for i in range(8):
        single = od.find_limit_many(spec, starts[i : i + 1], T_max=100.0)
        assert np.array_equal(single.states[0], batch.states[i])
        assert single.corners[0] == batch.corners[i]
        assert single.t_stop[0] == batch.t_stop[i]


def test_find_limit_names_no_corner_at_a_saddle():
    # from the centre the flow on Jump(8, 3) climbs the diagonal and stalls
    # at the saddle 0.5416 * 1, which lies 1.297 from its nearest corner 1^8
    res = od.find_limit_many(jump_table(8, 3), np.full((1, 8), 0.5))
    assert res.converged[0]
    assert np.max(np.abs(res.states[0] - 0.5416)) < 1e-4
    assert res.corners.dtype == np.int64 and res.corners.tolist() == [-1]


def _staggered_starts(n, rows, seed):
    # distances to the corners from 1e-6 to 0.3, so rows stall at different steps
    rng = np.random.default_rng(seed)
    corners = rng.integers(0, 2, size=(rows, n)).astype(float)
    depth = 10.0 ** rng.uniform(-6.0, np.log10(0.3), size=(rows, 1))
    return np.abs(corners - depth * rng.random((rows, n)))


@pytest.mark.parametrize("spec, starts, kw", [
    # a corner start (stalls at t=0) among staggered ones; 2.35 is not a multiple of 0.1
    (ls.binval(3), np.vstack([[1.0, 0.0, 1.0], _staggered_starts(3, 11, 0)]),
     dict(tol=1e-4, T_max=2.35, h=0.1)),
    (ls.random_injective(4, seed=9), _staggered_starts(4, 16, 1), dict(tol=1e-5, T_max=30.5, h=0.04)),
    (TWO_MAX_TABLE, _staggered_starts(2, 9, 2), dict()),
    (ls.table_spec([0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 3.0], n=3), _staggered_starts(3, 8, 3),
     dict(tol=1e-5, T_max=12.3, h=0.05)),
    (ls.binval(2), np.array([[0.3, 0.6]]), dict(T_max=9.99, h=0.1)),
    # the corner row stops at t=0 and leaves one row moving, whose k1 is
    # its row of the 2-row drift; the reference takes it from a 1-row drift,
    # and with a long step a last-bit difference would reach the state
    (ls.random_injective(6, seed=6), np.vstack([np.ones(6), np.random.default_rng(9).random(6)]),
     dict(T_max=1.25, h=0.5)),
    (ls.random_injective(8, seed=8), np.vstack([np.ones(8), np.random.default_rng(2).random(8)]),
     dict(T_max=1.25, h=0.5)),
    # T_max = 0: no step is taken, and the interior rows end where they start
    (ls.binval(3), np.array([[0.3, 0.6, 0.2], [0.9, 0.1, 0.5]]), dict(T_max=0.0)),
    # every start is a corner, so every row stalls at t = 0
    (ls.random_injective(3, seed=2), np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), dict()),
    # rows stall at 5.1, 5.4 and 5.8; row 3 stalls on the last, shorter
    # step 5.8 -> 5.895, and rows 1 and 2 are still moving at T_max
    (ls.binval(3), 0.05 + 0.9 * np.random.default_rng(5).random((6, 3)),
     dict(tol=1e-4, T_max=5.895, h=0.1)),
])
def test_find_limit_many_equals_reference(spec, starts, kw):
    batch = od.find_limit_many(spec, starts, **kw)
    states, converged, t_stop = reference_find_limit_many(spec, starts, **kw)
    assert np.array_equal(batch.states, states)
    assert np.array_equal(batch.converged, converged)
    assert np.array_equal(batch.t_stop, t_stop)
    if len(starts) > 2:  # the case has rows stopping at several different steps
        assert np.unique(t_stop[converged]).size >= 3


def test_find_limit_many_drift_calls_are_the_plain_loops(monkeypatch):
    # the traced benchmark counts drift work through ode.drift: one call at
    # t = 0 and four per RK4 step, each on the rows the plain loop passes
    # there; the plain loop's fifth call per step is its k1
    spec, starts = ls.random_injective(4, seed=9), _staggered_starts(4, 16, 1)
    kw = dict(tol=1e-5, T_max=30.5, h=0.04)

    def recorder(calls):
        def recorded(p, s):
            calls.append(np.array(p))
            return drift(p, s)
        return recorded

    drift, ours, plain = dr.drift, [], []
    monkeypatch.setattr(od, "drift", recorder(ours))
    batch = od.find_limit_many(spec, starts, **kw)
    monkeypatch.setattr(dr, "drift", recorder(plain))
    states, _, _ = reference_find_limit_many(spec, starts, **kw)
    assert np.array_equal(batch.states, states)
    steps = (len(plain) - 1) // 5
    assert steps > 100 and len(plain) == 1 + 5 * steps and len(ours) == 1 + 4 * steps
    del plain[1::5]
    assert all(np.array_equal(x, y) for x, y in zip(ours, plain, strict=True))
    assert {x.shape[0] for x in ours} > {1, 16}  # rows stalled at several steps


def test_too_long_step_fails_the_stage_check():
    # at h = 1 an RK4 stage state of this flow leaves [0, 1]^3 (the start
    # and the clamped steps cannot), and drift's range check refuses it with
    # a message that names the step, not the user's probabilities
    spec, x0 = ls.binval(3), [0.3, 0.6, 0.2]
    message = r"^an RK4 stage state of a step of 1 left \[0, 1\]\^3; take a smaller step$"
    with pytest.raises(DomainError, match=message):
        od.integrate(spec, x0, h=1.0, T=5.0)
    with pytest.raises(DomainError, match=message):
        od.find_limit_many(spec, [x0], h=1.0)
    assert np.all(np.isfinite(od.integrate(spec, x0, h=0.5, T=5.0).states))
    assert od.find_limit_many(spec, [x0], h=0.5).converged[0]


def test_unstable_corner_escape():
    # nudged 1e-3 inward from the repelling all-zeros corner of binval,
    # the flow moves away by 10x the nudge within t <= 5
    spec = ls.binval(2)
    x0 = np.array([1e-3, 1e-3])
    traj = od.integrate(spec, x0, h=1e-2, T=5.0)
    d0 = np.linalg.norm(x0)
    d = np.linalg.norm(traj.states, axis=1)
    assert d.max() >= 10.0 * d0


# --- stability classification -------------------------------------------------

def test_classify_binval3_corners():
    report = hn.classify_all(ls.binval(3))
    top = ls.bits_to_index((1, 1, 1))
    assert report.stable[top]
    assert report.eigenvalues[top].tolist() == [-2.0, -2.0, -2.0]
    assert report.local_max[top]
    near = ls.bits_to_index((1, 1, 0))
    assert not report.stable[near]
    assert 2.0 in report.eigenvalues[near]
    assert not report.local_max[near]


def test_classify_two_max_table():
    report = hn.classify_all(TWO_MAX_TABLE)
    corner = ls.bits_to_index((0, 0))
    assert report.stable[corner]
    assert report.local_max[corner]


def test_classify_refuses_non_injective():
    with pytest.raises(TheoremScopeError):
        hn.classify_all(ls.table_spec([1.0, 1.0], n=1))


def test_stable_iff_negative_eigenvalues():
    # read from the written report: each verdict against its eigenvalues
    for n in (2, 3):
        for spec in injective_suite(n):
            buf = io.StringIO()
            hn.classify_all(spec).write_csv(buf)
            table = [line.split(",") for line in buf.getvalue().splitlines()[1:-1]]
            assert len(table) == 1 << n
            for _, _, _, verdict, eigenvalues, _ in table:
                stable = verdict == "asymptotically_stable"
                assert stable == all(float(e) < 0 for e in eigenvalues.split(";"))


# --- diagnostics ---------------------------------------------------------------

def test_lyapunov_increments_nonnegative():
    rng = np.random.default_rng(17)
    for spec in injective_suite(3):
        traj = od.integrate(spec, np.stack([np.full(3, 0.5), rng.random(3)]), h=1e-2, T=8.0)
        assert od.lyapunov_increments(traj).min() >= -1e-9


# --- trajectory distance --------------------------------------------------------

def _flat(n):
    return ls.table_spec([1.0] * (1 << n), n=n)


def test_sup_distance_identical_is_zero():
    traj = od.integrate(ls.binval(2), [0.5, 0.5], h=0.05, T=2.0)
    assert od.sup_distance(traj, traj, 2.0) == 0.0


def test_sup_distance_refuses_an_unsupported_trajectory():
    flow = od.integrate(ls.binval(2), [0.5, 0.5], h=0.1, T=1.0)
    with pytest.raises(DomainError, match="unsupported trajectory type object"):
        od.sup_distance(object(), flow, 1.0)


def _sup_distance_refusal(case):
    spec = ls.binval(2)
    flow = od.integrate(spec, [0.5, 0.5], h=0.1, T=1.0)
    short = od.integrate(spec, [0.5, 0.5], h=0.1, T=0.5)
    run = C.run(spec, 8, seed=9, max_iters=3)  # unterminated, defined on [0, 0.25)
    calls = {
        "short_run": lambda: od.sup_distance(run, flow, 0.5),
        "short_flow_a": lambda: od.sup_distance(short, flow, 0.8),
        "short_flow_b": lambda: od.sup_distance(flow, short, 0.8),
        "short_flow_b_against_a_run": lambda: od.sup_distance(run, short, 0.8),
        "nan_T": lambda: od.sup_distance(flow, flow, float("nan")),
        "nan_T_run": lambda: od.sup_distance(run, flow, float("nan")),
        "negative_T": lambda: od.sup_distance(flow, flow, -1.0),
        "negative_T_run": lambda: od.sup_distance(run, flow, -1.0),
        "n_mismatch_run": lambda: od.sup_distance(
            C.run(spec, 8, seed=9), od.integrate(ls.binval(3), [0.5] * 3, h=0.1, T=1.0), 0.5),
        "n_mismatch_flow": lambda: od.sup_distance(
            flow, od.integrate(ls.binval(3), [0.5] * 3, h=0.1, T=1.0), 0.5),
    }
    return calls[case]


# each refusal keeps the exception class it had when sup_distance made its own
# horizon checks; the n mismatch used to reach numpy's broadcasting error
_SUP_DISTANCE_REFUSALS = [
    ("short_run", HorizonError, "0.25"),
    ("short_flow_a", HorizonError, "ends at 0.5 < T=0.8"),
    ("short_flow_b", HorizonError, "ends at 0.5 < T=0.8"),
    ("short_flow_b_against_a_run", HorizonError, "ends at 0.5 < T=0.8"),
    ("nan_T", DomainError, "horizon must be nonnegative, got nan"),
    ("nan_T_run", DomainError, "horizon must be nonnegative, got nan"),
    ("negative_T", DomainError, "horizon must be nonnegative, got -1.0"),
    ("negative_T_run", DomainError, "horizon must be nonnegative, got -1.0"),
    ("n_mismatch_run", DimensionError, "n=2 and n=3"),
    ("n_mismatch_flow", DimensionError, "n=2 and n=3"),
]


@pytest.mark.parametrize("case, error, message", _SUP_DISTANCE_REFUSALS,
                         ids=[case for case, _, _ in _SUP_DISTANCE_REFUSALS])
def test_sup_distance_refusals(case, error, message):
    with pytest.raises(error, match=message):
        _sup_distance_refusal(case)()


def test_sup_distance_constant_gap():
    # a constant-fitness table makes the field vanish, so both flows sit still
    a = od.integrate(_flat(1), [0.5], h=0.1, T=3.0)
    b = od.integrate(_flat(1), [1.0], h=0.1, T=3.0)
    assert od.sup_distance(a, b, 3.0) == pytest.approx(0.5, abs=1e-15)


def test_sup_distance_step_vs_flow_manual():
    spec = ls.binval(1)
    traj = C.run(spec, 2, seed=9, max_iters=6)
    ode = od.integrate(spec, [0.5], h=0.05, T=1.0)
    got = od.sup_distance(traj, ode, 1.0)
    ts = np.unique(np.concatenate([np.arange(5) * 0.25, ode.times, [1.0]]))
    want = max(abs(traj.values_at([t])[0][0] - ode.values_at([t])[0][0]) for t in ts)
    # left limits: the step still holds p(k-1) as the flow reaches k * alpha
    jumps = np.arange(1, min(4, traj.iterations) + 1) * 0.25
    want = max([want] + [abs(traj.values_at([t - 0.25])[0][0] - ode.values_at([t])[0][0])
                         for t in jumps])
    assert got == pytest.approx(want, abs=1e-15)
    assert got <= 1.0  # trajectories live in [0,1]


@pytest.mark.parametrize("spec, N, T, seed", [
    (ls.binval(3), 4, 2.0, 7),
    (ls.binval(2), 1, 3.0, 0),  # ends at a corner before T
    (TWO_MAX_TABLE, 2, 1.5, 4),
], ids=["binval3", "absorbed", "two_max"])
def test_sup_distance_counts_left_limits(spec, N, T, seed):
    # b runs through the run's own states at its jump times, so every
    # right-continuous value lies on b and the distance lives only in the
    # left limits: on [(k-1) alpha, k alpha) the run holds p(k-1) while b
    # moves on to p(k)
    alpha = 1.0 / (2 * N)
    steps = int(round(T / alpha))
    traj = C.run(spec, N, seed=seed, max_iters=steps)
    ks = np.arange(steps + 1)
    states = traj.states[np.minimum(ks, traj.iterations)]
    b = od.OdeTrajectory(times=ks * alpha, states=states, step=alpha,
                         clamp_count=0, spec=spec)
    moves = np.linalg.norm(np.diff(traj.states, axis=0), axis=-1)
    assert moves.max() > 0
    assert od.sup_distance(traj, b, T) == moves.max()
    tracker = od.LockstepSupDistance(b, T, N, 1)
    result = C.lockstep(spec, N, [seed], max_iters=steps, on_block=tracker.update)
    assert tracker.finish(result)[0] == moves.max()


@pytest.mark.parametrize("spec, N, T, initial, away", [
    (ls.binval(3), 8, 4.0, None, False),
    (ls.binval(2), 2, 3.0, None, False),  # most runs end at a corner before T
    (TWO_MAX_TABLE, 16, 2.5, None, False),
    (ls.binval(3), 8, 4.0, [1.0, 0.0, 1.0], True),  # a corner start takes no block
    (ls.binval(3), 8, 4.0, [1.0, 1.0, 0.9375], False),  # one step from a corner
    (ls.binval(3), 8, 4.0, None, True),
], ids=["binval3", "absorbed", "two_max", "corner_start", "near_corner", "away"])
def test_lockstep_sup_distance_equals_serial_on_shadowing_flows(spec, N, T, initial, away):
    # b shadows one run: b(k alpha) = p(k) + c_k (p(k) - p(k-1)) with random
    # c_k in [0, 1), so that run's supremum is a left limit at a random jump,
    # block boundaries and the first jump included. With `away`, b starts
    # off p(0) and its first jump overshoots away from p(0), so the supremum
    # sits at t = 0 or at the first left limit.
    rng = np.random.default_rng(N)
    alpha = 1.0 / (2 * N)
    steps = int(round(T / alpha))
    seeds = [(3, N, r) for r in range(40)]
    serial = [C.run(spec, N, seed=s, initial=initial, max_iters=steps) for s in seeds]

    def shadow(traj):
        p = traj.states[np.minimum(np.arange(steps + 1), traj.iterations)]
        states = p + rng.random((steps + 1, 1)) * np.diff(p, axis=0, prepend=p[:1])
        if away:
            states[0] += 0.5 * rng.random()
            states[1] += 0.5 * rng.random() * np.sign(p[1] - p[0])
        return od.OdeTrajectory(times=np.arange(steps + 1) * alpha, states=states, step=alpha,
                                clamp_count=0, spec=spec)

    def tracked(b, seeds):
        tracker = od.LockstepSupDistance(b, T, N, len(seeds))
        return tracker.finish(C.lockstep(spec, N, seeds, initial=initial, max_iters=steps,
                                         on_block=tracker.update))

    for seed, traj in zip(seeds, serial):
        b = shadow(traj)
        assert tracked(b, [seed]).tolist() == [od.sup_distance(traj, b, T)]
    b = shadow(serial[0])  # every run against one run's shadow
    assert tracked(b, seeds).tolist() == [od.sup_distance(t, b, T) for t in serial]


def test_sup_distance_bounded_by_sqrt_n():
    spec = ls.binval(3)
    traj = C.run(spec, 4, seed=2, max_iters=int(np.ceil(2.0 / (1 / 8))))
    ode = od.integrate(spec, np.full(3, 0.5), h=0.01, T=2.0)
    assert od.sup_distance(traj, ode, 2.0) <= np.sqrt(3)


def test_sup_distance_horizon_mismatch():
    a = od.integrate(ls.binval(1), [0.5], h=0.1, T=1.0)
    b = od.integrate(ls.binval(1), [0.5], h=0.1, T=3.0)
    with pytest.raises(HorizonError):
        od.sup_distance(a, b, 2.0)
    with pytest.raises(HorizonError):
        od.sup_distance(b, a, 2.0)


def test_sup_distance_nonterminated_stochastic_horizon():
    spec = ls.binval(2)
    traj = C.run(spec, 8, seed=9, max_iters=3)  # defined on [0, 4 * 1/16) only
    assert not traj.terminated
    ode = od.integrate(spec, [0.5, 0.5], h=0.1, T=2.0)
    assert od.sup_distance(traj, ode, 0.2) >= 0.0
    with pytest.raises(HorizonError):
        od.sup_distance(traj, ode, 0.5)


def test_nan_horizon_is_refused():
    spec = ls.binval(2)
    a = od.integrate(spec, [0.5, 0.5], h=0.1, T=1.0)
    b = od.integrate(spec, [0.25, 0.5], h=0.1, T=1.0)
    stochastic = C.run(spec, 4, seed=1, max_iters=100)
    nan = float("nan")
    with pytest.raises(DomainError, match="horizon"):
        od.sup_distance(a, b, nan)
    with pytest.raises(DomainError, match="horizon"):
        od.sup_distance(stochastic, b, nan)
    with pytest.raises(DomainError, match="horizon"):
        od.LockstepSupDistance(b, nan, 8, 3)


def test_ode_values_at_refuses_nan_times():
    traj = od.integrate(ls.binval(2), [0.5, 0.5], h=0.1, T=1.0)
    with pytest.raises(HorizonError, match="nan"):
        traj.values_at([np.nan])
    with pytest.raises(HorizonError, match="nan"):
        traj.values_at([0.5, np.nan])
