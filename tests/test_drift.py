import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgadyn import drift_field as dr
from cgadyn import landscape as ls
from cgadyn import ode as od
from cgadyn.errors import DimensionError, DomainError, TheoremScopeError

from conftest import (
    TWO_MAX_TABLE,
    binval_drift_closed_form,
    injective_suite,
    local_maxima,
    pair_oracle,
    reference_drift,
    reference_sampling_probs,
    unitation_table,
)


# --- sampling distribution -------------------------------------------------

def test_sampling_prob_examples():
    index = ls.bits_to_index
    assert dr.sampling_probs([0.5, 0.5], 2)[index((1, 1))] == 0.25
    assert dr.sampling_probs([1.0, 0.0], 2)[index((1, 0))] == 1.0
    assert dr.sampling_probs([1.0, 0.0], 2)[index((1, 1))] == 0.0
    assert dr.sampling_probs([0.25, 0.75], 2)[index((0, 1))] == 0.75 * 0.75


def test_sampling_probs_vector_matches_scalar(rng):
    for n in (1, 3, 5):
        p = rng.random(n)
        assert np.array_equal(dr.sampling_probs(p, n), reference_sampling_probs(p, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_sampling_probs_normalize(n, data):
    p = data.draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    total = dr.sampling_probs(np.asarray(p), n).sum()
    assert abs(total - 1.0) <= 1e-12


# entries of a probability vector, exact 0 and 1 included
_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.lists(st.integers(1, 4), max_size=2), st.data())
def test_sampling_probs_equals_reference(n, batch, data):
    shape = tuple(batch) + (n,)
    size = int(np.prod(shape))
    p = np.asarray(data.draw(st.lists(_PROB, min_size=size, max_size=size))).reshape(shape)
    probs = dr.sampling_probs(p, n)
    assert probs.shape == shape[:-1] + (1 << n,)
    assert np.array_equal(probs, reference_sampling_probs(p, n))


def _edge_probability_vectors(rng, rows, n):
    """Random rows of length n with exact 0/1 and denormal entries mixed in."""
    p = rng.random((rows, n))
    pick = rng.integers(0, 5, size=p.shape)
    p[pick == 0] = 0.0
    p[pick == 1] = 1.0
    p[pick == 2] = 5e-324 * rng.integers(1, 1 << 20, size=int(np.sum(pick == 2)))
    return p


def test_sampling_probs_gather_and_loop_equal_reference(rng):
    # one row is built by the gather; a batch one row past the bound by the
    # doubling loop; both must give the reference's bits
    for n in range(1, 11):
        one = _edge_probability_vectors(rng, 1, n)
        rows = dr._GATHER_MAX_ENTRIES // (1 << n) + 1
        batch = _edge_probability_vectors(rng, rows, n)
        assert 1 << n <= dr._GATHER_MAX_ENTRIES < rows << n
        assert np.array_equal(dr.sampling_probs(one[0], n), reference_sampling_probs(one[0], n))
        assert np.array_equal(dr.sampling_probs(one, n), reference_sampling_probs(one, n))
        assert np.array_equal(dr.sampling_probs(batch, n), reference_sampling_probs(batch, n))


def test_drift_rows_of_a_large_batch_equal_single_rows(rng):
    # the 4096-row batch goes through the doubling loop, each row alone
    # through the gather
    for n in (2, 4, 8):
        spec = ls.random_injective(n, seed=5)
        batch = _edge_probability_vectors(rng, 4096, n)
        assert batch.shape[0] << n > dr._GATHER_MAX_ENTRIES
        f, naive = dr.drift(batch, spec), dr.drift_naive(batch, spec)
        for i, row in enumerate(batch):
            assert np.array_equal(f[i], dr.drift(row, spec))
            assert np.array_equal(naive[i], dr.drift_naive(row, spec))


def test_sampling_probs_exact_at_corners():
    probs = dr.sampling_probs(np.array([1.0, 0.0, 1.0]), 3)
    expected = np.zeros(8)
    expected[ls.bits_to_index((1, 0, 1))] = 1.0
    assert np.array_equal(probs, expected)
    # all 64 corners at n = 6 in one batch take the doubling loop, each
    # corner alone the gather
    corners = ls.all_bit_matrix(6)
    assert corners.shape[0] << 6 > dr._GATHER_MAX_ENTRIES
    assert np.array_equal(dr.sampling_probs(corners, 6), np.eye(64))
    for i, corner in enumerate(corners):
        assert np.array_equal(dr.sampling_probs(corner, 6), np.eye(64)[i])


# --- winner / loser distributions ------------------------------------------

def test_winner_loser_binval_n1():
    # index 0 is the solution (0,), index 1 is (1,)
    spec = ls.binval(1)
    assert np.array_equal(dr.winner_probs([0.5], spec), [0.25, 0.75])
    assert np.array_equal(dr.loser_probs([0.5], spec), [0.75, 0.25])


def test_winner_loser_at_corner_are_indicators():
    spec = ls.binval(2)
    w = dr.winner_probs([1.0, 0.0], spec)
    l = dr.loser_probs([1.0, 0.0], spec)
    expected = np.zeros(4)
    expected[ls.bits_to_index((1, 0))] = 1.0
    assert np.array_equal(w, expected)
    assert np.array_equal(l, expected)


def test_winner_loser_match_pair_enumeration(rng):
    for n in (1, 2, 3):
        for spec in injective_suite(n) + [ls.table_spec([1.0] * (1 << n), n=n)]:
            p = rng.random(n)
            win, lose, _ = pair_oracle(spec, p)
            np.testing.assert_allclose(dr.winner_probs(p, spec), win, atol=1e-12)
            np.testing.assert_allclose(dr.loser_probs(p, spec), lose, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_winner_loser_normalization_and_mirror(n, data):
    p = np.asarray(data.draw(st.lists(st.floats(0, 1, allow_nan=False),
                                      min_size=n, max_size=n)))
    spec = ls.random_injective(n, seed=data.draw(st.integers(0, 50)))
    w = dr.winner_probs(p, spec)
    l = dr.loser_probs(p, spec)
    s = dr.sampling_probs(p, n)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(l.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(w + l, 2.0 * s, atol=1e-12)


def test_mirror_identity_with_ties():
    spec = ls.table_spec([2.0, 2.0, 1.0, 1.0], n=2)
    p = np.array([0.3, 0.8])
    w = dr.winner_probs(p, spec)
    l = dr.loser_probs(p, spec)
    np.testing.assert_allclose(w + l, 2.0 * dr.sampling_probs(p, 2), atol=1e-15)


# --- drift -------------------------------------------------------------------

def test_drift_examples():
    assert dr.drift([0.5], ls.binval(1)) == pytest.approx([0.5], abs=1e-15)
    np.testing.assert_allclose(dr.drift([0.5, 0.5], ls.binval(2)), [0.5, 0.25], atol=1e-15)


def test_drift_zero_at_corners_exactly():
    # one corner at a time and all corners in one batch (the doubling
    # loop at n = 6, the gather below)
    for n in (1, 2, 3, 4, 5, 6):
        for spec in injective_suite(n):
            for i in range(1 << n):
                f = dr.drift(np.asarray(ls.index_to_bits(i, n), dtype=float), spec)
                assert np.array_equal(f, np.zeros(n)), (spec.kind, i)
            assert np.array_equal(dr.drift(ls.all_bit_matrix(n), spec), np.zeros((1 << n, n)))


def test_drift_matches_pair_enumeration(rng):
    for n in (1, 2, 3):
        for spec in injective_suite(n):
            p = rng.random(n)
            _, _, f = pair_oracle(spec, p)
            np.testing.assert_allclose(dr.drift(p, spec), f, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_drift_matches_pair_enumeration_random_tables(n, data):
    # few distinct values, so most tables have ties
    table = data.draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    spec = ls.table_spec([float(v) for v in table], n=n)
    p = np.asarray(data.draw(st.lists(_PROB, min_size=n, max_size=n)))
    _, _, f = pair_oracle(spec, p)
    np.testing.assert_allclose(dr.drift(p, spec), f, rtol=0, atol=1e-12)


def _tied_tables(rng):
    yield ls.table_spec({"00": 3.0, "01": 1.0, "10": 3.0, "11": 4.0})
    for n in (1, 3, 5, 7, 10):
        yield ls.table_spec(rng.integers(0, 4, 1 << n).astype(float), n=n)
    yield ls.table_spec(np.ones(8), n=3)


@pytest.mark.parametrize("shape", [(), (1,), (9,), (2, 3), 1024, 1025],
                         ids=["single", "1", "9", "2x3", "entries1024", "entries1025"])
def test_drift_equals_reference_formula(rng, shape):
    # the grouped prefix-sum formula with every pass, its product taken
    # one row at a time; an int shape is the fewest rows whose rows * 2^n
    # reach it, so 1024 takes the gather wherever 2^n <= 1024 and 1025
    # the doubling loop; the -0.0 entries pin the sign of every zero that
    # drift's 2 * bits matrix gives against the reference's 2.0 * sums
    specs = [s for n in (*range(1, 9), 10, 11, 12) for s in injective_suite(n)]
    for spec in specs + list(_tied_tables(rng)):
        t = dr._tables(spec)
        # the fitness-order selector exists only where the gather can run
        assert (t.selector is None) == (1 << spec.n > dr._GATHER_MAX_ENTRIES)
        batch = (-(-shape >> spec.n),) if isinstance(shape, int) else shape
        p = rng.random(batch + (spec.n,))
        p[rng.random(p.shape) < 0.15] = 0.0
        p[rng.random(p.shape) < 0.15] = 1.0
        p[rng.random(p.shape) < 0.1] = -0.0
        f, win, lose = reference_drift(spec, p)
        assert np.array_equal(dr.drift(p, spec), f)
        assert np.array_equal(dr.winner_probs(p, spec), win)
        assert np.array_equal(dr.loser_probs(p, spec), lose)


def test_drift_matches_binval_closed_form(rng):
    for n in (1, 2, 4, 6):
        spec = ls.binval(n)
        for _ in range(5):
            p = rng.random(n)
            np.testing.assert_allclose(dr.drift(p, spec),
                                       binval_drift_closed_form(p), atol=1e-12)


def test_drift_equals_drift_naive(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        kind = rng.integers(0, 5)
        if kind == 4:
            spec = ls.table_spec(rng.permutation(1 << n).astype(float), n=n)
        else:
            spec = injective_suite(n)[min(kind, 3)]
        p = rng.random(n)
        np.testing.assert_allclose(dr.drift(p, spec), dr.drift_naive(p, spec), atol=1e-12)


def test_drift_bounded_by_one(rng):
    for n in (2, 4, 6):
        spec = ls.random_injective(n, seed=n)
        p = rng.random((50, n))
        assert np.all(np.abs(dr.drift(p, spec)) <= 1.0 + 1e-12)


def test_drift_batch_matches_loop(rng):
    # every row is bit-identical whatever batch it comes in: a plain matmul
    # over the batch (gemm) rounds differently from one row (gemv)
    for n in (1, 2, 4, 8, 12, 16):
        spec = ls.random_injective(n, seed=2)
        batch = rng.random((2, 3, n))
        rows = batch.reshape(6, n)
        singles = np.array([dr.drift(row, spec) for row in rows])
        assert np.array_equal(dr.drift(batch, spec).reshape(6, n), singles)
        assert np.array_equal(dr.drift(rows, spec), singles)
        assert np.array_equal(dr.drift(rows[1:4], spec), singles[1:4])
        for i in range(6):
            assert np.array_equal(dr.drift(rows[i:i + 1], spec)[0], singles[i])
        naive = np.array([dr.drift_naive(row, spec) for row in rows])
        assert np.array_equal(dr.drift_naive(batch, spec).reshape(6, n), naive)


def test_specs_of_one_length_share_the_bit_matrix():
    a, b = dr._tables(ls.binval(6)), dr._tables(ls.random_injective(6, seed=1))
    mat = ls.all_bit_matrix(6)
    assert ls.all_bit_matrix(6) is mat and a.n == b.n == 6
    assert mat.dtype == np.float64 and not mat.flags.writeable
    # and drift's 2 * bits, for every n, the selector's gather cap or not
    assert a.twice_bits is b.twice_bits is dr._twice_bits(6)
    assert not a.twice_bits.flags.writeable
    assert np.array_equal(a.twice_bits, 2.0 * mat)
    for n in (1, 10, 11, 12):
        t = dr._tables(ls.binval(n))
        assert t.twice_bits is dr._twice_bits(n)
        assert np.array_equal(t.twice_bits, 2.0 * ls.all_bit_matrix(n))
        assert (t.selector is None) == (n > 10)
    # and the place values that turn bits into an index
    place = ls.place_values(6)
    assert ls.place_values(6) is place and not place.flags.writeable
    assert place.dtype == np.int64 and place.tolist() == [32, 16, 8, 4, 2, 1]
    assert np.array_equal(mat @ place, np.arange(64))
    # so does sampling_probs' selector into concat(1 - p, p)
    selector = dr._locus_selector(6)
    assert dr._locus_selector(6) is selector and not selector.flags.writeable
    assert selector.dtype == np.intp and selector.shape == (6, 64)
    for y in range(64):
        bits = ls.index_to_bits(y, 6)
        assert selector[:, y].tolist() == [i + 6 * int(bit) for i, bit in enumerate(bits)]


def test_equal_specs_hash_alike_and_share_tables(rng):
    # equal specs hash alike; each builds equal per-spec tables of its own
    # and shares the per-n tables with every spec of its length
    values = rng.permutation(1 << 10).astype(float)
    a, b = ls.table_spec(values), ls.table_spec(list(values))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ls.table_spec(values[::-1]) and a != ls.binval(10)
    assert {a: 1}[b] == 1 and {ls.binval(3), ls.binval(3)} == {ls.binval(3)}
    ta, tb = dr._tables(a), dr._tables(b)
    assert ta is dr._tables(a) and tb is not ta
    for field in ("order", "rank", "group_of", "group_starts", "selector"):
        assert np.array_equal(getattr(tb, field), getattr(ta, field))
    assert tb.twice_bits is ta.twice_bits
    assert ls.fitness_values(a) is ls.fitness_values(a)
    assert ls.fitness_values(b) is not ls.fitness_values(a)
    assert np.array_equal(ls.fitness_values(b), ls.fitness_values(a))


def test_lookups_by_an_equal_spec_compare_it_once(rng, monkeypatch):
    # each spec object keeps its own tables, so a lookup never compares a
    # spec with another one (that compare reads its whole 2^n table)
    values = rng.permutation(1 << 10).astype(float)
    a, b = ls.table_spec(values), ls.table_spec(list(values))
    p = np.full(10, 0.5)
    dr.drift(p, a)
    ls.fitness_values(a)
    compared = []
    eq = ls.FitnessSpec.__eq__
    monkeypatch.setattr(ls.FitnessSpec, "__eq__", lambda s, o: compared.append(1) or eq(s, o))
    for _ in range(5):
        assert np.array_equal(dr.drift(p, b), dr.drift(p, a))
        assert np.array_equal(ls.fitness_values(b), ls.fitness_values(a))
    assert dr._tables(b) is dr._tables(b)
    assert compared == []


def test_a_dropped_spec_frees_its_tables():
    spec = ls.random_injective(8, seed=3)
    dr.drift(np.full(8, 0.5), spec)
    refs = [weakref.ref(dr._tables(spec).order), weakref.ref(ls.fitness_values(spec))]
    del spec
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_interior_non_stationarity(rng):
    for n in (2, 3, 4):
        for spec in injective_suite(n):
            p = 0.01 + 0.98 * rng.random((200, n))
            f = dr.drift(p, spec)
            assert np.all(np.abs(f).sum(axis=-1) > 1e-12), spec.kind


def _p_checkers(spec):
    """Every public entry of the drift and the flow that checks p."""
    return [
        lambda p: dr.drift(p, spec),
        lambda p: dr.winner_probs(p, spec),
        lambda p: dr.loser_probs(p, spec),
        lambda p: dr.sampling_probs(p, spec.n),
        lambda p: od.find_limit_many(spec, p, T_max=0.0),
    ]


def _on_both_routes(x):
    """(0.5, x) alone, which the gather builds, and as the last of 300 rows
    (1 200 entries at n = 2), which the doubling loop builds."""
    batch = np.full((300, 2), 0.5)
    batch[-1, 1] = x
    assert batch.shape[0] << 2 > dr._GATHER_MAX_ENTRIES
    return [np.array([0.5, x]), batch]


def _refused_everywhere(x):
    for check in _p_checkers(ls.binval(2)):
        for p in _on_both_routes(x):
            with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
                check(p)


def test_drift_rejects_out_of_box():
    # exactly the entries outside [0, 1] are refused, on both routes
    for x in (1.2, -1e-300, 1.0 + 2.0 ** -52, np.inf, -np.inf):
        _refused_everywhere(x)
    for check in _p_checkers(ls.binval(2)):
        for x in (-0.0, 0.0, 1.0):
            for p in _on_both_routes(x):
                check(p)
        for p in ([0.5], np.array(0.5)):  # the shape is checked first
            with pytest.raises(DimensionError):
                check(p)


def test_nan_probability_vector_is_refused():
    _refused_everywhere(np.nan)
    spec = ls.binval(2)
    for p in ([np.nan, 0.5], [[0.5, 0.5], [0.25, np.nan]]):
        for check in _p_checkers(spec):
            with pytest.raises(DomainError):
                check(p)


# --- Jacobians ----------------------------------------------------------------

def test_jacobian_analytic_binval_corners():
    spec = ls.binval(2)
    top = dr.jacobian_analytic((1, 1), spec)
    assert np.array_equal(top, np.diag([-2.0, -2.0]))
    assert np.array_equal(np.diag(top), [-2.0, -2.0])
    bottom = dr.jacobian_analytic((0, 0), spec)
    assert np.array_equal(bottom, np.diag([2.0, 2.0]))


def test_jacobian_analytic_two_max_table_corner_10():
    # flipping either bit of 10 (fitness 2) reaches 00 (3) or 11 (4): both raise
    jac = dr.jacobian_analytic((1, 0), TWO_MAX_TABLE)
    assert np.array_equal(np.diag(jac), [2.0, 2.0])


def test_jacobian_analytic_diagonal_pm2_and_stability_link():
    for n in (2, 3, 4):
        for spec in injective_suite(n):
            report = ls.enumerate_local_maxima(spec)
            for i in range(1 << n):
                corner = ls.index_to_bits(i, n)
                jac = dr.jacobian_analytic(corner, spec)
                off_diag = jac - np.diag(np.diag(jac))
                assert np.array_equal(off_diag, np.zeros((n, n)))
                assert set(np.unique(np.diag(jac))) <= {-2.0, 2.0}
                all_negative = bool(np.all(np.diag(jac) == -2.0))
                assert all_negative == (i in report.indices)


def test_jacobian_analytic_rejects_non_corner_and_non_injective():
    with pytest.raises(DomainError):
        dr.jacobian_analytic((1, 0.5), ls.binval(2))
    with pytest.raises(DimensionError):
        dr.jacobian_analytic((1, 0, 1), ls.binval(2))
    with pytest.raises(TheoremScopeError, match="outside boundary|outside theorem scope"):
        dr.jacobian_analytic((0,), ls.table_spec([1.0, 1.0], n=1))


def _non_injective_tables():
    """A 2-bit table and [1, 1], whose neighbors tie, OneMax, whose ties are
    never between neighbors, and seeded {0, 1, 2} tables."""
    yield ls.table_spec({"00": 2.0, "01": 0.0, "10": 1.0, "11": 1.0})
    yield ls.table_spec([1.0, 1.0], n=1)
    yield unitation_table(4, lambda u: u)
    yield unitation_table(6, lambda u: u)
    rng = np.random.default_rng(25)
    for n in range(2, 6):
        for _ in range(10):
            yield ls.table_spec(rng.integers(0, 3, 1 << n).astype(float), n=n)


def test_corner_spectra_equal_one_sided_differences_on_ties():
    # column m of the Jacobian at corner c, by a step eps into the box along
    # locus m; the exact entries are +-2(1 - eps) and 0 on a tie
    eps = 1e-7
    ties = 0
    for spec in _non_injective_tables():
        n = spec.n
        corners = ls.all_bit_matrix(n)
        inward = 1.0 - 2.0 * corners  # +1 at a 0 bit, -1 at a 1 bit
        steps = eps * inward[:, :, None] * np.eye(n)  # steps[c, m] = eps * inward[c, m] e_m
        diff = (dr.drift(corners[:, None, :] + steps, spec)
                - dr.drift(corners, spec)[:, None, :]) / (eps * inward[:, :, None])
        eigs, local_max = dr.corner_spectra(spec)
        np.testing.assert_allclose(np.diagonal(diff, axis1=1, axis2=2), eigs, rtol=0, atol=1e-6)
        assert np.max(np.abs(diff * (1.0 - np.eye(n))), initial=0.0) < 1e-6
        vals = ls.fitness_values(spec)
        tie = vals[np.arange(1 << n)[:, None] ^ ls.place_values(n)] == vals[:, None]
        assert np.all(eigs[tie] == 0.0) and not np.signbit(eigs[tie]).any()
        assert set(np.flatnonzero(local_max)) == {ls.bits_to_index(y) for y in local_maxima(spec)}
        ties += int(np.count_nonzero(tie))
    assert ties > 0


@pytest.mark.parametrize("rows", [[-1], [4], [1.5], [[3]], np.array([2**63], dtype=np.uint64)],
                         ids=["negative", "past_the_last", "float", "2d", "past_int64"])
def test_corner_indices_outside_the_cube_are_refused(rows):
    # -1 used to read corner 3's row: two's complement makes -1 ^ bit the
    # right neighbor of 2^n - 1
    for read in (ls.neighbor_signs, dr.corner_spectra):
        with pytest.raises(DomainError, match="corner indices"):
            read(ls.binval(2), rows)


def test_corner_indices_of_any_integer_dtype_are_read():
    spec = ls.binval(2)
    full = ls.neighbor_signs(spec)
    for rows in ([3, 0], np.array([3, 0], dtype=np.uint8), np.array([3, 0], dtype=np.int32)):
        assert np.array_equal(ls.neighbor_signs(spec, rows), full[[3, 0]])
        assert np.array_equal(dr.corner_spectra(spec, rows)[0], 2.0 * full[[3, 0]])
    assert ls.neighbor_signs(spec, []).shape == (0, 2)
    assert dr.corner_spectra(spec, [])[0].shape == (0, 2)


def test_corner_spectra_builds_no_neighbor_matrix():
    # at the cap the eigenvalues are 8 MiB; a (2^16, 16) neighbor index or
    # value matrix would add 8 MiB more each
    spec = ls.random_injective(16, seed=3)
    ls.fitness_values(spec)  # the spec's own table is not the call's
    tracemalloc.start()
    try:
        dr.corner_spectra(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_jacobian_numeric_matches_analytic_near_corners():
    h = 1e-5
    for spec in (ls.binval(2), ls.binval(3), TWO_MAX_TABLE,
                 ls.random_injective(3, seed=5)):
        n = spec.n
        for i in range(1 << n):
            corner = np.asarray(ls.index_to_bits(i, n), dtype=float)
            inside = np.where(corner > 0.5, 1.0 - 2 * h, 2 * h)
            J = dr.jacobian_numeric(inside, spec, h)
            np.testing.assert_allclose(J, dr.jacobian_analytic(
                ls.index_to_bits(i, n), spec), atol=1e-3)


def test_jacobian_numeric_guards():
    spec = ls.binval(2)
    with pytest.raises(DomainError):
        dr.jacobian_numeric(np.array([0.5, 0.5]), spec, 0.0)
    with pytest.raises(DomainError):
        dr.jacobian_numeric(np.array([1.0, 0.5]), spec, 1e-5)


def test_jacobian_numeric_refuses_a_batch():
    with pytest.raises(DimensionError, match="single probability vector"):
        dr.jacobian_numeric(np.full((2, 2), 0.5), ls.binval(2), 1e-5)


def test_jacobian_asymmetric_at_interior_point():
    # The numeric Jacobian of the update field is NOT symmetric away from
    # the corners: for the binary-value fitness at p = (0.75, 0.5), the
    # first coordinate's field is flat in p_2 while the second responds
    # to p_1. Pinned here so the behavior is documented and stable.
    J = dr.jacobian_numeric(np.array([0.75, 0.5]), ls.binval(2), 1e-6)
    assert abs(J[0, 1]) < 1e-6
    assert J[1, 0] == pytest.approx(0.5, abs=1e-6)
