import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgadyn import landscape as ls
from cgadyn.drift_field import jacobian_analytic
from cgadyn.errors import CapacityError, DimensionError, DomainError

from conftest import TWO_MAX_TABLE, injective_suite, local_maxima, superincreasing_weights


def test_binval_evaluate():
    spec = ls.binval(2)
    assert ls.evaluate(spec, (1, 1)) == 3
    assert ls.evaluate(spec, (0, 0)) == 0
    assert ls.evaluate(spec, (1, 0)) == 2


def test_table_lookup():
    assert ls.evaluate(TWO_MAX_TABLE, (1, 0)) == 2.0


def test_evaluate_length_mismatch():
    with pytest.raises(DimensionError):
        ls.evaluate(ls.binval(2), (1, 1, 1))


def test_evaluate_rejects_non_bits():
    with pytest.raises(DomainError):
        ls.evaluate(ls.binval(2), (0, 2))


def test_evaluate_is_pure():
    spec = ls.random_injective(5, seed=3)
    y = (1, 0, 1, 1, 0)
    assert ls.evaluate(spec, y) == ls.evaluate(spec, y)


def test_is_injective_binval():
    assert ls.is_injective(ls.binval(3))


def test_is_injective_duplicate_table():
    assert not ls.is_injective(ls.table_spec([1.0, 1.0], n=1))


def test_perturbed_onemax_values_and_injectivity():
    spec = ls.perturbed_onemax(2, 0.25)
    values = [ls.evaluate(spec, ls.index_to_bits(i, 2)) for i in range(4)]
    assert values == [0.0, 1.25, 1.5, 2.75]
    assert ls.is_injective(spec)


def test_perturbed_onemax_epsilon_bounds():
    with pytest.raises(DomainError):
        ls.perturbed_onemax(3, 0.0)
    with pytest.raises(DomainError):
        ls.perturbed_onemax(3, 0.25)  # 2^(1-3) = 0.25 is excluded
    ls.perturbed_onemax(3, 0.2)


def test_linear_matches_binval_for_power_weights():
    n = 4
    spec = ls.linear(tuple(float(1 << (n - i)) for i in range(1, n + 1)))
    assert np.array_equal(ls.fitness_values(spec), ls.fitness_values(ls.binval(n)))


def test_enumeration_cap():
    # the constructor is the one check of the cap, however a spec is built
    for make in (lambda: ls.binval(17), lambda: ls.linear(superincreasing_weights(17)),
                 lambda: ls.perturbed_onemax(17, 2.0 ** -17), lambda: ls.table_spec([0.0] * (1 << 17)),
                 lambda: ls.random_injective(17, seed=1),
                 lambda: ls.spec_from_json_dict({"kind": "binval", "n": 17}),
                 lambda: ls.FitnessSpec(kind="binval", n=17),
                 lambda: ls.FitnessSpec(kind="linear", weights=superincreasing_weights(17)),
                 lambda: ls.FitnessSpec(kind="perturbed_onemax", n=17, epsilon=2.0 ** -17),
                 lambda: ls.FitnessSpec(kind="table", table=[0.0] * (1 << 17)),
                 lambda: ls.FitnessSpec(kind="random_injective", n=17, seed=1)):
        with pytest.raises(CapacityError, match="^n=17 exceeds the enumeration cap 16$"):
            make()
    assert ls.evaluate(ls.FitnessSpec(kind="binval", n=16), (1,) + (0,) * 15) == 2.0 ** 15


def test_raised_cap_stops_where_the_int64_index_would_wrap():
    # at n = 64 the index 2^63 wrapped to -9.22e18; bits_to_index, which applies
    # no enumeration cap, stops at n = 62, and the constructor at the cap
    for n in (63, 64):
        with pytest.raises(CapacityError, match=f"^n={n} exceeds the enumeration cap 16$"):
            ls.FitnessSpec(kind="binval", n=n)
        with pytest.raises(CapacityError, match="int64"):
            ls.bits_to_index([1] * n)
    assert ls.bits_to_index([1] * 62) == (1 << 62) - 1


def test_local_maxima_binval():
    report = ls.enumerate_local_maxima(ls.binval(2))
    assert report.indices.dtype == np.int64
    assert report.indices.tolist() == [3]
    assert report.strict.tolist() == [True]


def test_local_maxima_two_max_table():
    report = ls.enumerate_local_maxima(TWO_MAX_TABLE)
    assert report.indices.tolist() == [0, 3]
    assert report.strict.tolist() == [True, True]


def test_local_maxima_tied_table():
    report = ls.enumerate_local_maxima(ls.table_spec([1.0, 1.0], n=1))
    assert report.indices.tolist() == [0, 1]
    assert report.strict.tolist() == [False, False]


def test_point_query_consistent_with_enumeration(rng):
    # against the neighbour-flipping oracle, on tables with ties: a maximum
    # tied with a neighbour is reported, but not as strict
    tables = [np.ones(8), [0.0, 1.0, 1.0, 0.0]]
    for n in (1, 2, 3, 4):
        vals = rng.permutation(1 << n).astype(float)
        vals[rng.integers(0, 1 << n)] = vals[0]  # allow the occasional tie
        tables += [vals, rng.integers(0, 3, 1 << n).astype(float)]
    non_strict = 0
    for vals in tables:
        spec = ls.table_spec(vals, n=int(np.log2(len(vals))))
        report = ls.enumerate_local_maxima(spec)
        expected = local_maxima(spec)
        assert report.indices.tolist() == [ls.bits_to_index(y) for y in expected]
        assert report.strict.tolist() == list(expected.values())
        non_strict += int(np.count_nonzero(~report.strict))
    assert non_strict > 0


def test_neighbor_signs_rows_equal_the_full_table(rng):
    spec = ls.table_spec(rng.integers(0, 3, 32).astype(float), n=5)
    vals = ls.fitness_values(spec).tolist()
    full = ls.neighbor_signs(spec)
    assert full.dtype == np.int8 and full.shape == (32, 5)
    for y in range(32):
        for m in range(5):
            other = vals[y ^ (1 << (4 - m))]
            assert full[y, m] == (other > vals[y]) - (other < vals[y])
    rows = [29, 3, 17, 3, 0, 31, 8]
    assert np.array_equal(ls.neighbor_signs(spec, rows), full[rows])
    assert ls.neighbor_signs(spec, []).shape == (0, 5)


def test_injective_specs_have_a_strict_maximum():
    for n in (2, 3, 4):
        for spec in injective_suite(n):
            report = ls.enumerate_local_maxima(spec)
            assert len(report.indices) >= 1
            assert report.strict.all()


def test_random_injective_many_seeds():
    for n in range(2, 9):
        for seed in range(100):
            assert ls.is_injective(ls.random_injective(n, seed=seed))


def test_random_injective_deterministic():
    a = ls.fitness_values(ls.random_injective(6, seed=9))
    b = ls.fitness_values(ls.random_injective(6, seed=9))
    assert np.array_equal(a, b)
    c = ls.fitness_values(ls.random_injective(6, seed=10))
    assert not np.array_equal(a, c)


def test_bits_index_roundtrip():
    for n in (1, 3, 5):
        for i in range(1 << n):
            assert ls.bits_to_index(ls.index_to_bits(i, n)) == i
    assert ls.bits_to_index((1, 0)) == 2  # locus 1 is most significant
    assert ls.string_to_bits("10") == (1, 0)
    assert ls.bits_to_string((1, 0)) == "10"


@pytest.mark.parametrize("call, message", [
    (lambda: ls.table_spec({}), "empty fitness table"),
    (lambda: ls.table_spec({"00": 1, "01": 2, "10": 3}), r"must cover all 2\^2 bitstrings"),
    (lambda: ls.table_spec([1.0, 2.0, 3.0]), r"needs 2\^1 = 2 values, got 3"),
    (lambda: ls.bits_to_index([0, 2]), "bits must be 0 or 1, got 2"),
    (lambda: ls.index_to_bits(4, 2), "index 4 out of range for n=2"),
    (lambda: ls.index_to_bits(-1, 2), "index -1 out of range for n=2"),
    (lambda: ls.string_to_bits(""), "not a bitstring: ''"),
    (lambda: ls.string_to_bits("012"), "not a bitstring: '012'"),
    (lambda: ls.linear(["a", 1.0]), "weights must be numbers"),
    (lambda: ls.binval(0), "solution length must be a positive integer, got 0"),
    (lambda: ls.FitnessSpec(kind="bogus", n=2), "unknown fitness kind 'bogus'"),
    (lambda: ls.FitnessSpec(kind="binval", n=0), "must be a positive integer, got 0"),
    (lambda: ls.bits_to_index([0.5, 1]), "bits must be 0 or 1, got 0.5"),
    (lambda: ls.bits_to_index([np.nan, 1]), "bits must be 0 or 1, got nan"),
    (lambda: ls.bits_to_string([2, 0]), "bits must be 0 or 1, got 2"),
    (lambda: ls.bits_to_string([0.5, 1]), "bits must be 0 or 1, got 0.5"),
    (lambda: ls.index_to_bits(1.5, 2), "index must be an integer, got 1.5"),
    (lambda: ls.index_to_bits(True, 2), "index must be an integer, got True"),
    (lambda: ls.index_to_bits(0, -1), "index 0 out of range for n=-1"),
    (lambda: ls.FitnessSpec(kind="binval", n=True), "solution length must be an integer, got True"),
], ids=["empty_table", "table_missing_a_key", "table_not_a_power_of_two", "bit_2",
        "index_past_2n", "negative_index", "empty_bitstring", "bitstring_digit_2",
        "weight_not_a_number", "binval_n0", "unknown_kind", "spec_n0",
        "index_of_bit_half", "index_of_bit_nan", "string_of_bit_2", "string_of_bit_half",
        "index_to_bits_float", "index_to_bits_bool", "index_to_bits_negative_n",
        "spec_n_bool"])
def test_bad_landscape_arguments_are_refused(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# a str is refused by its shape, since string_to_bits reads bitstrings
@pytest.mark.parametrize("bits, error", [
    ([0.5, 1], DomainError), ([np.nan, 1], DomainError), ([2, 0], DomainError),
    ([-1, 0], DomainError), (["0", "1"], DomainError), ([None, 1], DomainError),
    ([[0, 1]], DimensionError), ("01", DimensionError), (1, DimensionError),
], ids=["half", "nan", "two", "minus_one", "chars", "none", "2d", "str", "scalar"])
def test_every_bit_reader_refuses_the_same_sequences(bits, error):
    spec = ls.binval(2)
    readers = [ls.bits_to_index, ls.bits_to_string, lambda y: ls.evaluate(spec, y),
               lambda y: jacobian_analytic(y, spec)]
    messages = set()
    for read in readers:
        with pytest.raises(error) as info:
            read(bits)
        messages.add(str(info.value))
    if error is DomainError:
        assert len(messages) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))),
       st.sampled_from([int, np.int64, np.uint16]))
def test_bits_index_and_string_round_trip(n_index, as_type):
    n, i = n_index
    if as_type is np.uint16 and i >= 1 << 16:
        as_type = np.uint32
    bits = ls.index_to_bits(as_type(i), as_type(n))
    assert len(bits) == n and all(type(b) is int for b in bits)
    index = ls.bits_to_index(bits)
    assert type(index) is int and index == i
    assert ls.bits_to_index(np.array(bits, dtype=np.uint8)) == i
    text = ls.bits_to_string(bits)
    assert text == format(i, f"0{n}b")
    assert ls.string_to_bits(text) == bits


# each spec is refused when it is built, with one exception and one message
# whether the constructor or the JSON reader builds it
@pytest.mark.parametrize("fields, message", [
    ({"kind": "random_injective", "n": 2}, "random_injective spec needs field 'seed'"),
    ({"kind": "binval", "n": 2, "seed": 3}, r"binval spec does not take fields \['seed'\]"),
    ({"kind": "table", "n": 2, "table": [1.0, 2.0]},
     "table spec has n=2, but its field 'table' gives 1"),
    ({"kind": "linear", "n": 3, "weights": [1.0, 2.0]},
     "linear spec has n=3, but its field 'weights' gives 2"),
    ({"kind": "perturbed_onemax", "n": 3, "epsilon": 0.5}, r"epsilon must lie in \(0, 2\^\(1-n\)\)"),
    ({"kind": "linear", "weights": [1e308, 1e308, -1e308, -1e308]}, "negative sum, .* overflows"),
], ids=["missing_seed", "stray_seed", "table_of_2_at_n2", "weights_2_at_n3", "epsilon_range",
        "weights_overflow"])
def test_constructor_and_json_reader_refuse_a_spec_alike(fields, message):
    refusals = []
    for build in (lambda: ls.FitnessSpec(**fields), lambda: ls.spec_from_json_dict(dict(fields))):
        with pytest.raises(DomainError, match=message) as info:
            build()
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1]


# a str, a bool or a numeric string is not a fitness number
@pytest.mark.parametrize("build", [
    lambda: ls.linear("12"),
    lambda: ls.table_spec("1234"),
    lambda: ls.linear([1.0, True]),
    lambda: ls.spec_from_json_dict({"kind": "linear", "weights": "12"}),
    lambda: ls.spec_from_json_dict({"kind": "linear", "weights": ["1", "2"]}),
    lambda: ls.spec_from_json_dict({"kind": "table", "table": {"0": True, "1": False}}),
    lambda: ls.spec_from_json_dict({"kind": "perturbed_onemax", "n": 3, "epsilon": "0.1"}),
], ids=["linear_str", "table_str", "linear_bool", "json_weights_str", "json_weights_strs",
        "json_table_bools", "json_epsilon_str"])
def test_strings_and_bools_are_not_fitness_numbers(build):
    with pytest.raises(DomainError, match="must be numbers"):
        build()


def test_linear_weights_whose_sum_overflows_are_refused():
    # each weight is finite, but 1e308 + 1e308 is not: the table would hold
    # inf, or 0.0 where inf meets -inf, by the summation order
    for weights in ([1e308, 1e308], [1.0, -1e308, -1e308]):
        with pytest.raises(DomainError, match="overflows"):
            ls.linear(weights)
    # each sign's sum is finite, and every subset sum lies between the two
    # (an overflow warning would fail the test)
    assert ls.fitness_values(ls.linear([1e308, -1e308])).tolist() == [0.0, -1e308, 1e308, 0.0]


def test_constructor_stores_fields_as_the_factories_do():
    spec = ls.FitnessSpec(kind="linear", n=2, weights=[1.0, 2.0])
    assert spec == ls.linear([1.0, 2.0]) == ls.linear(np.array([1, 2]))
    assert hash(spec) == hash(ls.linear([1.0, 2.0]))
    table = ls.FitnessSpec(kind="table", table={"0": 2, "1": np.float32(1.5)})
    assert table == ls.table_spec([2.0, 1.5]) and hash(table) == hash(ls.table_spec([2.0, 1.5]))


def test_spec_n_is_read_as_the_factories_read_it():
    spec = ls.FitnessSpec(kind="binval", n=np.int64(3))
    assert spec == ls.binval(3) == ls.binval(np.int64(3))
    assert type(spec.n) is int
    assert ls.spec_to_json_dict(spec) == {"kind": "binval", "n": 3}


# --- serialization -------------------------------------------------------

@st.composite
def spec_strategy(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["binval", "linear", "perturbed_onemax",
                                 "table", "random_injective"]))
    if kind == "binval":
        return ls.binval(n)
    if kind == "linear":
        return ls.linear(superincreasing_weights(n))
    if kind == "perturbed_onemax":
        return ls.perturbed_onemax(n, 2.0 ** -n)
    if kind == "table":
        values = draw(st.permutations(list(range(1 << n))))
        return ls.table_spec([float(v) for v in values], n=n)
    return ls.random_injective(n, seed=draw(st.integers(0, 1000)))


@settings(max_examples=60, deadline=None)
@given(spec_strategy())
def test_spec_json_roundtrip(spec):
    blob = json.dumps(ls.spec_to_json_dict(spec))
    restored = ls.spec_from_json_dict(json.loads(blob))
    assert restored == spec
    assert ls.FitnessSpec(**ls.spec_to_json_dict(spec)) == spec
    assert np.array_equal(ls.fitness_values(restored), ls.fitness_values(spec))


def test_pickled_spec_is_rebuilt_from_its_fields():
    # so it carries no cached arrays, and is hashed afresh in a process
    # whose string-hash seed differs
    specs = [ls.binval(3), TWO_MAX_TABLE, ls.linear(superincreasing_weights(3)),
             ls.perturbed_onemax(3, 0.125), ls.random_injective(3, seed=4)]
    for spec in specs:
        ls.fitness_values(spec)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec) and copy._memo == {}
    env = {**os.environ, "PYTHONHASHSEED": "123",
           "PYTHONPATH": str(Path(ls.__file__).parents[1])}
    probe = ("import pickle, sys\n"
             "from cgadyn import landscape as ls\n"
             "specs = pickle.loads(sys.stdin.buffer.read())\n"
             "fresh = [ls.binval(3), ls.table_spec({'00': 3, '01': 1, '10': 2, '11': 4}),\n"
             "         ls.linear([3.0, 1.5, 0.75]), ls.perturbed_onemax(3, 0.125),\n"
             "         ls.random_injective(3, seed=4)]\n"
             "print(all({f: 1}.get(s) == 1 for f, s in zip(fresh, specs)))\n")
    done = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps(specs), env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == b"True"


def test_table_json_keys_are_msb_first():
    obj = ls.spec_to_json_dict(TWO_MAX_TABLE)
    assert obj["table"]["10"] == 2.0
    assert ls.spec_from_json_dict(obj) == TWO_MAX_TABLE


def test_spec_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        ls.spec_from_json_dict({"n": 3})
    with pytest.raises(DomainError):
        ls.spec_from_json_dict({"kind": "mystery", "n": 3})
    # missing and mistyped fields, and fitness values no comparison can order
    for obj in ({"kind": "binval"}, {"kind": "binval", "n": True},
                {"kind": "binval", "n": 2.5}, {"kind": "binval", "n": "3"},
                {"kind": "random_injective", "n": 3}, {"kind": "perturbed_onemax", "n": 3},
                {"kind": "random_injective", "n": 3, "seed": 1.5},
                {"kind": "linear", "n": 3, "weights": [1.0, 2.0]},
                {"kind": "linear", "weights": [1.0, float("inf")]},
                {"kind": "table", "n": 1, "table": {"0": float("nan"), "1": 1.0}},
                {"kind": "table", "table": [0.0, 1.0, float("-inf"), 2.0]}):
        with pytest.raises(DomainError):
            ls.spec_from_json_dict(obj)


# one example per kind, so a kind added to _KINDS without one fails here
_EXAMPLE_SPECS = {
    "binval": ls.binval(3),
    "linear": ls.linear(superincreasing_weights(3)),
    "perturbed_onemax": ls.perturbed_onemax(3, 0.125),
    "table": TWO_MAX_TABLE,
    "random_injective": ls.random_injective(3, seed=4),
}
# a valid value of each spec field, to give a kind a field it does not take
_FIELD_VALUES = {"n": 3, "weights": [1.0, 2.0, 4.0], "epsilon": 0.125,
                 "table": {"0": 1.0, "1": 2.0}, "seed": 1}


@pytest.mark.parametrize("kind", ls.SPEC_KINDS)
def test_every_kind_reads_exactly_its_own_fields(kind):
    spec = _EXAMPLE_SPECS[kind]
    obj = json.loads(json.dumps(ls.spec_to_json_dict(spec)))
    assert obj["kind"] == kind and ls.spec_from_json_dict(obj) == spec
    names = ls._KINDS[kind]
    assert set(obj) == {"kind", "n", *names}
    others = {name for fields in ls._KINDS.values() for name in fields} - {"n", *names}
    for name in sorted(others) + ["bogus"]:
        with pytest.raises(DomainError, match=f"{kind} spec does not take fields \\['{name}'\\]"):
            ls.spec_from_json_dict({**obj, name: _FIELD_VALUES.get(name, 1)})
    for name in names:
        with pytest.raises(DomainError, match=f"{kind} spec needs field '{name}'"):
            ls.spec_from_json_dict({key: value for key, value in obj.items() if key != name})
    if "n" not in names:  # an "n" is optional, and checked against the one the kind derives
        assert ls.spec_from_json_dict({k: v for k, v in obj.items() if k != "n"}) == spec
        with pytest.raises(DomainError, match="has n=4"):
            ls.spec_from_json_dict({**obj, "n": 4})


def test_table_keys_are_the_bitstrings_of_each_index():
    for n in range(1, 11):
        keys = list(ls.spec_to_json_dict(ls.table_spec(list(range(1 << n))))["table"])
        assert keys == [ls.bits_to_string(ls.index_to_bits(i, n)) for i in range(1 << n)]
    spec = ls.random_injective(16, seed=16)
    table = ls.table_spec(ls.fitness_values(spec))
    obj = json.loads(json.dumps(ls.spec_to_json_dict(table)))
    assert ls.spec_from_json_dict(obj) == table
    assert np.array_equal(ls.fitness_values(ls.spec_from_json_dict(obj)), ls.fitness_values(spec))
