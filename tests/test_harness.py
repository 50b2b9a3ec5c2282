import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import cgadyn
from cgadyn import cga
from cgadyn import harness as hn
from cgadyn import landscape as ls
from cgadyn import ode
from cgadyn import cli
from cgadyn.cli import cli_main
from cgadyn.drift_field import corner_spectra
from cgadyn.errors import DomainError, TheoremScopeError

from conftest import (
    TWO_MAX_TABLE,
    assert_same_lines,
    injective_suite,
    reference_drift_grid_csv,
    reference_jsonl_records,
    reference_real_csv,
    strict_local_maxima,
)


def small_config(tmp_path, **kw):
    base = dict(
        spec=ls.binval(2), N_values=(2, 4), runs_per_setting=5,
        T_horizon=1.0, master_seed=3, output_dir=tmp_path / "out",
    )
    base.update(kw)
    return hn.ExperimentConfig(**base)


# --- configuration -----------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    # every config the constructor accepts is valid JSON and reads back the same
    for kw in ({}, {"N_values": [1, 7]}, {"T_horizon": 0}, {"T_horizon": 1e300},
               {"ode_step": 5e-324}, {"max_iters": 0}, {"master_seed": 1 << 70}):
        cfg = small_config(tmp_path, **kw)
        restored = hn.ExperimentConfig.from_json_dict(
            json.loads(json.dumps(cfg.to_json_dict(), allow_nan=False)))
        assert restored == cfg
        assert restored.to_json_dict() == cfg.to_json_dict()
        assert restored.config_hash() == cfg.config_hash()


def test_config_hash_changes_with_content(tmp_path):
    a = small_config(tmp_path)
    b = small_config(tmp_path, master_seed=4)
    assert a.config_hash() != b.config_hash()


def test_config_validation(tmp_path):
    with pytest.raises(DomainError):
        small_config(tmp_path, runs_per_setting=0)
    with pytest.raises(DomainError):
        small_config(tmp_path, N_values=())
    for N in (1 << 62, 10**400):  # 2N past int64, and past float64 too
        with pytest.raises(DomainError, match="2N fits in int64"):
            small_config(tmp_path, N_values=(32, N))
    with pytest.raises(DomainError):
        small_config(tmp_path, ode_step=0.0)
    # the constructor refuses what the JSON check refuses: a NaN or infinite
    # real would be written out as invalid JSON, a float N silently truncated
    for field, value in (("T_horizon", float("nan")), ("T_horizon", float("inf")),
                         ("ode_step", float("inf")), ("ode_step", float("nan")),
                         ("N_values", (2.7,)), ("N_values", 4), ("runs_per_setting", 2.0),
                         ("master_seed", True), ("max_iters", 1.5),
                         # SeedSequence takes no negative seed
                         ("master_seed", -1), ("max_iters", -1), ("T_horizon", -1.0)):
        with pytest.raises(DomainError, match=field):
            small_config(tmp_path, **{field: value})
    with pytest.raises(DomainError):
        hn.ExperimentConfig.from_json_dict(
            {"spec": {"kind": "binval", "n": 2}, "bogus_field": 1})
    for field, value in (("runs_per_setting", "3"), ("N_values", 4), ("N_values", ["4"]),
                         ("master_seed", "x"), ("T_horizon", float("inf")),
                         ("max_iters", 1.5), ("master_seed", -1)):
        with pytest.raises(DomainError, match=field):
            hn.ExperimentConfig.from_json_dict({"spec": {"kind": "binval", "n": 2}, field: value})
    # a JSON bool is not an integer, though Python's bool is an int
    for field, value in (("runs_per_setting", True), ("master_seed", False),
                         ("max_iters", True), ("N_values", [True])):
        with pytest.raises(DomainError, match=f"'{field}' must be an? .*integer"):
            hn.ExperimentConfig.from_json_dict({"spec": {"kind": "binval", "n": 2}, field: value})


def test_config_fields_cannot_be_assigned(tmp_path):
    # an assignment would skip the check in __post_init__: master_seed = -1
    # used to fail only inside numpy, in monte_carlo
    cfg = hn.ExperimentConfig(spec=ls.binval(2), output_dir=tmp_path)
    for field in fields(hn.ExperimentConfig):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field.name, -1)
    assert cfg == hn.ExperimentConfig(spec=ls.binval(2), output_dir=tmp_path)


def test_config_spec_must_be_a_fitness_spec(tmp_path):
    # a spec's JSON object is read by from_json_dict; the constructor takes the spec itself
    with pytest.raises(DomainError, match="config field 'spec' must be a FitnessSpec"):
        small_config(tmp_path, spec={"kind": "binval", "n": 2})


@pytest.mark.parametrize("obj", [[], {"N_values": [4]}], ids=["not_an_object", "no_spec"])
def test_config_json_needs_an_object_with_a_spec(obj):
    with pytest.raises(DomainError, match="must be an object with a 'spec' field"):
        hn.ExperimentConfig.from_json_dict(obj)


# a value that breaks each field's rule
_BAD_FIELDS = [("N_values", [0]), ("runs_per_setting", 0), ("T_horizon", -1.0),
               ("master_seed", -1), ("ode_step", 0.0), ("max_iters", -1)]


@pytest.mark.parametrize("command", ["run", "drift", "ode", "classify", "localmaxima",
                                     "montecarlo", "alphasweep"])
def test_every_subcommand_checks_every_config_field(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    for field, value in _BAD_FIELDS:
        Path("cfg.json").write_text(json.dumps(
            {"spec": {"kind": "binval", "n": 2}, "N_values": [2, 4], field: value}))
        assert cli_main([command, "--config", "cfg.json"]) == 1, field
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"cgadyn: error: config field {field!r}")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


_BAD_FLAGS = [
    (["run", "--N", "0"], "N_values"), (["run", "--N", "2", "--seed", "-1"], "master_seed"),
    (["run", "--N", "2", "--max-iters", "-1"], "max_iters"),
    (["ode", "--step", "0"], "ode_step"), (["ode", "--horizon", "-1"], "T_horizon"),
    (["montecarlo", "--N", "0"], "N_values"), (["montecarlo", "--runs", "0"], "runs_per_setting"),
    (["montecarlo", "--seed", "-1"], "master_seed"), (["montecarlo", "--max-iters", "-1"], "max_iters"),
    (["alphasweep", "--runs", "0"], "runs_per_setting"), (["alphasweep", "--seed", "-1"], "master_seed"),
    (["alphasweep", "--horizon", "-1"], "T_horizon"), (["alphasweep", "--step", "0"], "ode_step"),
]


@pytest.mark.parametrize("argv, field", _BAD_FLAGS,
                         ids=[f"{argv[0]}{argv[-2]}" for argv, _ in _BAD_FLAGS])
def test_every_flag_is_checked_by_its_field_rule(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)
    assert cli_main([*argv, "--spec", "binval", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"cgadyn: error: config field {field!r}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, value", [("find_limit_tol", 1e-8), ("record_every", 1)])
def test_removed_config_fields_are_refused(tmp_path, capsys, field, value):
    obj = {"spec": {"kind": "binval", "n": 2}, field: value}
    with pytest.raises(DomainError, match=f"unknown config fields: \\['{field}'\\]"):
        hn.ExperimentConfig.from_json_dict(obj)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert cli_main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 1
    assert cli_main(["ode", "--config", str(cfg), "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.count(field) == 2 and "internal error" not in err
    assert field not in small_config(tmp_path).to_json_dict()


_EDGE_REALS = [0.0, -0.0, 1.0, 5e-324, 1e-5, 1e16, 2 / 3, float(np.nextafter(1.0, 0.0)),
               -1e300, 1e-300, 123456789.125, -0.1]


def test_fmt_real_roundtrips():
    for x in (0.1, 1 / 3, 2.0 ** -52, 123456.789, *_EDGE_REALS):
        assert float(hn._cell(x)) == x
        assert hn._cell(x) == format(x, ".17g")
    assert [hn._cell(x) for x in (np.inf, -np.inf, np.nan)] == ["inf", "-inf", "nan"]


def test_write_csv_rows_write_every_cell_by_one_rule():
    # callers pass raw values; write_csv alone decides how each is written
    tally = {"10": 2, "01": 1}  # keys out of order
    rows = [[x, tally, None, True, False, 7, -3, "a,b"]
            for x in [*_EDGE_REALS, -0.0, np.float64(0.1)]]
    names = [f"c{i}" for i in range(len(rows[0]))]
    buf = io.StringIO()
    hn.write_csv(buf, names, rows, header={"seed": 1}, footer=["end"])
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(names)
    for x, counts, *rest in rows:
        writer.writerow(["%.17g" % x, json.dumps(counts, sort_keys=True), *rest])
    assert buf.getvalue() == "# seed: 1\n" + expected.getvalue() + "# end\n"


# --- Monte Carlo campaign ------------------------------------------------------

def test_monte_carlo_counts_add_up(tmp_path):
    cfg = small_config(tmp_path, runs_per_setting=20)
    result = hn.monte_carlo(cfg)
    assert result.theorem_scope == "ok"
    maxima = {format(i, "02b") for i in ls.enumerate_local_maxima(cfg.spec).indices.tolist()}
    for setting in result.settings:
        assert sum(setting.convergence_counts.values()) + setting.non_terminated == 20
        # coarse learning steps may absorb off the maxima; the flag must say so
        seen = set(setting.convergence_counts)
        assert setting.terminal_corners_are_local_maxima == (seen <= maxima)
        assert setting.alpha == 1.0 / (2 * setting.N)


def test_monte_carlo_terminal_corners_subset_of_maxima(tmp_path):
    spec = ls.random_injective(3, seed=12)
    maxima = {format(i, "03b") for i in ls.enumerate_local_maxima(spec).indices.tolist()}
    cfg = small_config(tmp_path, spec=spec, N_values=(16,), runs_per_setting=40)
    result = hn.monte_carlo(cfg)
    seen = set(result.settings[0].convergence_counts)
    assert seen <= maxima


def test_monte_carlo_reproducible(tmp_path):
    cfg = small_config(tmp_path, runs_per_setting=8)
    assert hn.monte_carlo(cfg) == hn.monte_carlo(cfg)


def test_monte_carlo_non_injective_labeled(tmp_path):
    cfg = small_config(tmp_path, spec=ls.table_spec([1.0, 1.0], n=1), N_values=(4,))
    result = hn.monte_carlo(cfg)
    assert result.theorem_scope == "outside"
    assert result.settings[0].terminal_corners_are_local_maxima is None


def serial_tallies(cfg):
    """monte_carlo's tallies, recomputed from one cga.run per run seed."""
    spec = cfg.spec
    maxima = (set(ls.enumerate_local_maxima(spec).indices.tolist()) if ls.is_injective(spec)
              else None)
    out = []
    for N in cfg.N_values:
        max_iters = cfg.max_iters if cfg.max_iters is not None else cga.default_max_iters(N, spec.n)
        counts, iters, non_terminated = {}, [], 0
        for r in range(cfg.runs_per_setting):
            traj = cga.run(spec, N, seed=hn.run_seed(cfg.master_seed, N, r), max_iters=max_iters)
            if traj.terminated:
                corner = tuple(int(c) // (2 * N) for c in traj.counts[-1])
                counts[ls.bits_to_string(corner)] = counts.get(ls.bits_to_string(corner), 0) + 1
                iters.append(traj.iterations)
            else:
                non_terminated += 1
        on_maxima = None if maxima is None else all(
            ls.bits_to_index(ls.string_to_bits(c)) in maxima for c in counts)
        out.append((counts, non_terminated, float(np.mean(iters)) if iters else None, on_maxima))
    return out


@pytest.mark.parametrize("spec, N_values, runs, max_iters", [
    (ls.binval(2), (1, 2, 4, 64), 30, None),
    (TWO_MAX_TABLE, (64,), 40, None),
    (ls.table_spec([1.0, 2.0, 2.0, 1.0], n=2), (3, 8), 25, None),
    (ls.random_injective(3, seed=12), (5, 16), 30, 40),
])
def test_monte_carlo_equals_serial_runs(tmp_path, spec, N_values, runs, max_iters):
    cfg = small_config(tmp_path, spec=spec, N_values=N_values, runs_per_setting=runs,
                       max_iters=max_iters)
    got = [(s.convergence_counts, s.non_terminated, s.mean_iterations,
            s.terminal_corners_are_local_maxima) for s in hn.monte_carlo(cfg).settings]
    assert got == serial_tallies(cfg)


_ORDER_TABLES = [np.random.default_rng(n).permutation(1 << n) for n in range(2, 7)] + [
    np.array([1, 2, 2, 1, 0, 3, 1, 3])]


@pytest.mark.parametrize("values", _ORDER_TABLES, ids=[f"permutation{n}" for n in range(2, 7)]
                         + ["tied3"])
def test_maxima_and_tallies_are_bit_identical_under_an_increasing_map(tmp_path, values):
    # the tournament and the neighbor table only compare fitness values, so
    # v and exp(v / 7) give the same maxima and the same runs
    spec, mapped = (ls.table_spec(v) for v in (values.astype(float), np.exp(values / 7)))
    got = [ls.enumerate_local_maxima(s) for s in (spec, mapped)]
    assert got[0].indices.dtype == got[1].indices.dtype == np.int64
    assert np.array_equal(got[0].indices, got[1].indices)
    assert np.array_equal(got[0].strict, got[1].strict)
    settings = [hn.monte_carlo(small_config(tmp_path, spec=s, N_values=(1, 2, 8),
                                            runs_per_setting=12, max_iters=60)).settings
                for s in (spec, mapped)]
    assert settings[0] == settings[1]
    assert sum(sum(s.convergence_counts.values()) for s in settings[0]) > 0


@pytest.mark.parametrize("values", _ORDER_TABLES[:-1],
                         ids=[f"permutation{n}" for n in range(2, 7)])
def test_classify_report_is_bit_identical_under_an_increasing_map(values):
    # a corner's spectrum only compares its fitness with its neighbors', so v
    # and exp(v / 7) give the same report apart from the fitness column
    specs = [ls.table_spec(v) for v in (values.astype(float), np.exp(values / 7))]
    reports = [hn.classify_all(spec) for spec in specs]
    for name in ("eigenvalues", "local_max", "stable"):
        ours, mapped = (getattr(report, name) for report in reports)
        assert ours.dtype == mapped.dtype and ours.tobytes() == mapped.tobytes(), name
    tables = [_report_table(report) for report in reports]
    assert [[row[0], *row[2:]] for row in tables[0]] == [[row[0], *row[2:]] for row in tables[1]]
    for table, spec in zip(tables, specs):
        assert [float(row[1]) for row in table] == ls.fitness_values(spec).tolist()


# --- learning-step sweep ---------------------------------------------------------

def test_alpha_sweep_rows(tmp_path):
    cfg = small_config(tmp_path, N_values=(2, 8), runs_per_setting=6, T_horizon=1.0)
    rows = hn.alpha_sweep(cfg)
    assert [r.N for r in rows] == [2, 8]
    for row in rows:
        assert 0.0 <= row.median_sup_distance <= np.sqrt(2)
        assert row.median_sup_distance <= row.q90_sup_distance + 1e-15


def test_alpha_sweep_requires_two_N(tmp_path):
    with pytest.raises(DomainError):
        hn.alpha_sweep(small_config(tmp_path, N_values=(4,)))


def test_alpha_sweep_deterministic(tmp_path):
    cfg = small_config(tmp_path, N_values=(2, 4), runs_per_setting=4)
    assert hn.alpha_sweep(cfg) == hn.alpha_sweep(cfg)


@pytest.mark.parametrize("spec, N_values, T, h", [
    (ls.binval(2), (1, 2, 3), 5.0, 0.01),       # most runs reach a corner before T
    (ls.binval(8), (8, 32), 2.5, 0.01),
    (TWO_MAX_TABLE, (3, 16), 1.37, 0.01),       # T on neither grid
    (ls.table_spec([1.0, 2.0, 2.0, 1.0], n=2), (2, 6), 2.0, 0.03),
    (ls.binval(3), (2, 5, 16), 1.0, 0.01),     # three horizons in one lockstep
])
def test_alpha_sweep_equals_serial_sup_distance(tmp_path, spec, N_values, T, h):
    cfg = small_config(tmp_path, spec=spec, N_values=N_values, runs_per_setting=9,
                       T_horizon=T, ode_step=h)
    reference = ode.integrate(spec, np.full(spec.n, 0.5), h=h, T=T)
    ended_early = 0
    for row in hn.alpha_sweep(cfg):
        horizon = ode.LockstepSupDistance(reference, T, row.N, 1).max_iters
        trajs = [cga.run(spec, row.N, seed=hn.run_seed(cfg.master_seed, row.N, r),
                         max_iters=horizon) for r in range(cfg.runs_per_setting)]
        ended_early += sum(t.terminated and t.iterations < horizon for t in trajs)
        dists = [ode.sup_distance(t, reference, T) for t in trajs]
        assert row.median_sup_distance == float(np.median(dists))
        assert row.q90_sup_distance == float(np.quantile(dists, 0.9))
    if spec == ls.binval(2):
        assert ended_early > 0


def test_alpha_sweep_budget_stops_at_the_last_jump_before_T(tmp_path, monkeypatch):
    # T / alpha = 8.22, 43.84 and 13.7: each run is given floor(T / alpha)
    # iterations, since iteration k holds its state up to (k + 1) * alpha > T;
    # the bytes were recorded with the ceil(T / alpha) budgets 9, 44 and 14
    monkeypatch.chdir(tmp_path)
    budgets = []

    def spy(*args, max_iters, **kwargs):
        budgets.append(np.asarray(max_iters).tolist())
        return cga.lockstep(*args, max_iters=max_iters, **kwargs)

    monkeypatch.setattr(hn, "lockstep", spy)
    assert cli_main(["alphasweep", "--spec", "binval", "--n", "3", "--N", "3", "--N", "16",
                     "--N", "5", "--runs", "30", "--horizon", "1.37", "--seed", "4",
                     "--out", "sweep"]) == 0
    assert budgets == [[8] * 30 + [43] * 30 + [13] * 30]
    assert {name: hashlib.sha256(Path("sweep", name).read_bytes()).hexdigest()
            for name in ("alpha_sweep.csv", "alpha_sweep_summary.json")} == {
        "alpha_sweep.csv": "4f3b16851e5936ea50150a63421772f47f0f04534a9a9a96c80ce4d7437e78f7",
        "alpha_sweep_summary.json":
            "deb0fc739ac7aebfdb548bc1b64fa3cad4081f698d6299d9518ae8a0260ca23a",
    }


# --- classification report -------------------------------------------------------

def test_classify_all_binval3():
    report = hn.classify_all(ls.binval(3))
    assert len(report.fitness) == 8
    assert np.flatnonzero(report.stable).tolist() == [ls.bits_to_index((1, 1, 1))]
    assert report.all_agree


def test_classify_all_random_injective_matches_oracle():
    spec = ls.random_injective(4, seed=7)
    report = hn.classify_all(spec)
    stable = np.count_nonzero(report.stable)
    assert stable == len(ls.enumerate_local_maxima(spec).indices)
    assert report.all_agree


def _report_table(report) -> list[list[str]]:
    """The cells of each corner's row of the report's CSV table."""
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(hn._REPORT_COLUMNS) and lines[-1].startswith("# agreement")
    return list(csv.reader(lines[1:-1]))


@pytest.mark.parametrize("spec", [s for n in (2, 3, 4) for s in injective_suite(n)]
                         + [ls.random_injective(8, seed=8)])
def test_classify_all_equals_per_corner_verdicts_and_oracle(spec):
    # each corner's arrays and its row of the written report, against the
    # oracle's strict local maxima and each neighbor's own evaluation
    report = hn.classify_all(spec)
    maxima = strict_local_maxima(spec)
    table = _report_table(report)
    assert report.eigenvalues.shape == (1 << spec.n, spec.n) and len(table) == 1 << spec.n
    for i, (bits, fitness, local_max, verdict, eigenvalues, agreement) in enumerate(table):
        corner = ls.index_to_bits(i, spec.n)
        assert bits == ls.bits_to_string(corner)
        own = ls.evaluate(spec, corner)
        assert report.fitness[i] == float(fitness) == own
        is_max = corner in maxima
        assert report.local_max[i] == report.stable[i] == is_max
        assert local_max == str(is_max) and agreement == "True"
        assert verdict == ("asymptotically_stable" if is_max else "unstable")
        assert [float(e) for e in eigenvalues.split(";")] == report.eigenvalues[i].tolist()
        for m, e in enumerate(report.eigenvalues[i]):
            flipped = corner[:m] + (1 - corner[m],) + corner[m + 1:]
            assert e == (2.0 if ls.evaluate(spec, flipped) > own else -2.0)


def test_classify_all_refuses_non_injective():
    with pytest.raises(TheoremScopeError, match="injective"):
        hn.classify_all(ls.table_spec([1.0, 1.0], n=1))


def test_classify_csv_shape():
    report = hn.classify_all(TWO_MAX_TABLE)
    buf = io.StringIO()
    report.write_csv(buf, header={"master_seed": 0})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# master_seed: 0"
    assert lines[1] == "corner,fitness,local_max,verdict,eigenvalues,agreement"
    assert lines[-1].startswith("# agreement: 4/4")


def _classify_csv_oracle(report, header) -> str:
    """The report as csv.writer writes one row per corner of its arrays."""
    buf = io.StringIO()
    buf.write("".join(f"# {key}: {header[key]}\n" for key in sorted(header)))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["corner", "fitness", "local_max", "verdict", "eigenvalues", "agreement"])
    columns = zip(report.fitness.tolist(), report.local_max.tolist(), report.stable.tolist(),
                  report.eigenvalues.tolist())
    agree = 0
    for i, (fitness, is_max, stable, eigs) in enumerate(columns):
        writer.writerow([format(i, f"0{report.spec.n}b"), "%.17g" % fitness, is_max,
                         "asymptotically_stable" if stable else "unstable",
                         ";".join("%.17g" % e for e in eigs), stable == is_max])
        agree += stable == is_max
    corners = len(report.fitness)
    verdict = "(100%)" if agree == corners else "(MISMATCH)"
    buf.write(f"# agreement: {agree}/{corners} {verdict}\n")
    return buf.getvalue()


def test_classify_csv_across_a_block_boundary():
    # 2^13 = 8 192 corners of 18 cells: four blocks of 1 820 rows and one of 912
    spec = ls.random_injective(13, seed=3)
    step = cga._block_rows(spec.n + 5)
    assert (step, (1 << spec.n) % step) == (1820, 912)
    report = hn.classify_all(spec)
    eigs, local_max = corner_spectra(spec)
    assert np.array_equal(report.fitness, ls.fitness_values(spec))
    assert np.array_equal(report.eigenvalues, eigs)
    assert np.array_equal(report.local_max, local_max)
    assert np.array_equal(report.stable, (eigs < 0).all(axis=1))
    header = {"master_seed": 0, "config_hash": "abc"}
    buf = io.StringIO()
    report.write_csv(buf, header=header)
    assert_same_lines(buf.getvalue(), _classify_csv_oracle(report, header))
    assert report.agreement_count == 1 << spec.n and report.all_agree

    # a report whose flags disagree in one corner of each block
    flipped = report.local_max.copy()
    flips = np.arange(5, 1 << spec.n, step)
    flipped[flips] ^= True
    odd = replace(report, local_max=flipped)
    agree = (1 << spec.n) - len(flips)
    assert odd.agreement_count == agree and not odd.all_agree
    buf = io.StringIO()
    odd.write_csv(buf, header=header)
    assert_same_lines(buf.getvalue(), _classify_csv_oracle(odd, header))
    assert buf.getvalue().endswith(f"# agreement: {agree}/{1 << spec.n} (MISMATCH)\n")


def test_classify_report_holds_no_object_per_corner(tmp_path):
    # 2^14 = 16 384 corners. The report and its CSV peak at 6.1 MiB traced;
    # a report of one row object per corner peaks at 16.9 MiB
    spec = ls.random_injective(14, seed=1)
    ls.fitness_values(spec)  # the spec's own table is not the report's
    tracemalloc.start()
    try:
        with open(tmp_path / "classify.csv", "w") as fp:
            hn.classify_all(spec).write_csv(fp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- drift grid --------------------------------------------------------------------

def _cut(rows, step):
    """The row counts of ``rows`` rows cut into blocks of ``step``."""
    return [step] * (rows // step) + [rows % step] * (rows % step > 0)


def _sub_block_sizes(rows):
    """The row counts of the drift calls that build one grid block of n = 4:
    one cell budget over a call's four (rows, 2^4) tables, 512 rows."""
    assert cga._block_rows(4 << 4) == 512
    return _cut(rows, cga._block_rows(4 << 4))


def test_drift_grid_rows_shape_and_values(monkeypatch):
    from cgadyn.drift_field import drift

    calls = []
    monkeypatch.setattr(hn, "drift", lambda p, spec: calls.append(p.shape) or drift(p, spec))
    blocks = list(hn.drift_grid_rows(ls.binval(2), 3))
    assert calls == [(9, 2)]  # one block for a grid this small
    assert len(blocks) == 1
    rows = blocks[0]
    assert rows.shape == (9, 4)
    axis = np.linspace(0.0, 1.0, 3)
    assert np.array_equal(rows[:, :2], [[a, b] for a in axis for b in axis])
    assert np.array_equal(rows[:, 2:], drift(rows[:, :2], ls.binval(2)))


def test_drift_grid_rows_in_blocks_equal_one_call(monkeypatch):
    # 9^4 = 6561 points of 8 cells span two blocks of at most 4 096 rows;
    # drift rows do not depend on the batch
    from cgadyn.drift_field import drift

    spec = ls.random_injective(4, seed=5)
    calls = []
    monkeypatch.setattr(hn, "drift", lambda p, s: calls.append(p.shape[0]) or drift(p, s))
    blocks = list(hn.drift_grid_rows(spec, 9))
    step = cga._block_rows(2 * spec.n)
    tail = 9 ** 4 - step
    assert [len(b) for b in blocks] == [step, tail] == [4096, 2465]
    assert calls == _sub_block_sizes(step) + _sub_block_sizes(tail)
    rows = np.concatenate(blocks)
    assert np.array_equal(rows[:, 4:], drift(rows[:, :4], spec))


def test_drift_grid_guards():
    # refused when called, before any block is asked for
    with pytest.raises(DomainError):
        hn.drift_grid_rows(ls.binval(2), 1)
    with pytest.raises(DomainError):
        hn.drift_grid_rows(ls.binval(8), 101)
    for resolution in (3.0, True):
        with pytest.raises(DomainError, match="grid resolution must be an integer"):
            hn.drift_grid_rows(ls.binval(2), resolution)
    # a numpy integer is read as an int, so 2^16 points per axis cannot wrap
    # (2^16)^8 to a grid of 0 rows
    with pytest.raises(DomainError, match="row limit"):
        hn.drift_grid_rows(ls.binval(8), np.int64(2 ** 16))
    assert np.array_equal(np.concatenate(list(hn.drift_grid_rows(ls.binval(2), np.int64(3)))),
                          np.concatenate(list(hn.drift_grid_rows(ls.binval(2), 3))))


def test_drift_grid_writes_each_block_before_the_next_is_built(monkeypatch):
    # 10^4 = 10 000 points: blocks of 4 096, 4 096 and 1 808 rows
    from cgadyn.drift_field import drift

    buf = io.StringIO()
    calls = []  # (output size, rows) at each drift call
    monkeypatch.setattr(hn, "drift",
                        lambda p, s: calls.append((buf.tell(), p.shape[0])) or drift(p, s))
    names = [f"c{i}" for i in range(8)]
    hn.write_csv(buf, names, hn.drift_grid_rows(ls.binval(4), 10))
    lines = buf.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 + 10 ** 4
    step = cga._block_rows(len(names))
    sizes = [step, step, 10 ** 4 - 2 * step]
    assert [rows for _, rows in calls] == [r for b in sizes for r in _sub_block_sizes(b)]
    assert max(rows for _, rows in calls) <= cga._block_rows(4 << 4) == 512
    # while block k is built, the header and blocks 0..k-1 are written and nothing more
    written, first = 1, 0
    for b in sizes:
        k = len(_sub_block_sizes(b))
        assert {size for size, _ in calls[first:first + k]} == {len("".join(lines[:written]))}
        written, first = written + b, first + k


# every real a writer may meet: both zeros, neighbours one ulp apart, the
# smallest subnormal, the non-finite values and the edge reals
_ULP_PAIR = [0.1, float(np.nextafter(0.1, 1.0))]
_REAL_POOL = np.array([0.0, -0.0, *_ULP_PAIR, 5e-324, np.nan, np.inf, -np.inf, *_EDGE_REALS])


def _pool_table(rng, rows, cols, finite=False):
    """A table of few distinct values, drawn from ``_REAL_POOL``."""
    pool = _REAL_POOL[np.isfinite(_REAL_POOL)] if finite else _REAL_POOL
    table = rng.choice(pool, (rows, cols))
    table[0, :2] = [0.0, -0.0]  # one block formats both zeros
    table[-1, :2] = _ULP_PAIR
    return table


@pytest.mark.parametrize("rows, pooled", [(1, False), (5, False), (5000, False), (5000, True)],
                         ids=["1row", "5rows", "5000rows", "5000rows_pool"])
def test_write_csv_real_array_equals_csv_writer(monkeypatch, rng, rows, pooled):
    # at a budget of 4 096 cells, 5000 rows of 3 cells cross three block boundaries
    monkeypatch.setattr(cga, "_BLOCK_CELLS", 1 << 12)
    if pooled:
        table = _pool_table(rng, rows, 3)
    else:
        table = rng.random((rows, 3)) * 10.0 ** rng.integers(-30, 30, (rows, 3))
        flat = table.reshape(-1)
        k = min(flat.size, len(_EDGE_REALS))
        flat[:k] = _EDGE_REALS[:k]
        flat[-k:] = _EDGE_REALS[-k:]
    names = ["a", "b", "c"]
    step = cga._block_rows(len(names))
    blocks = np.split(table, range(step, rows, step))
    buf = io.StringIO()
    hn.write_csv(buf, names, iter(blocks), header={"seed": 1}, footer=["end"])
    assert_same_lines(buf.getvalue(), "# seed: 1\n" + reference_real_csv(names, table) + "# end\n")


def _joined(cells, sep, end, prefix=None, suffix=None) -> str:
    """Rows of cell texts joined one row at a time: what ``_block_text``
    writes for a block at once."""
    return "".join((prefix[r] if prefix else "") + sep.join(row) + end + (suffix[r] if suffix else "")
                   for r, row in enumerate(cells))


@pytest.mark.parametrize("shape", [(7,), (0, 3), (2, 3, 4), (40, 6)])
def test_block_text_formats_every_cell(rng, shape):
    a = rng.choice(_REAL_POOL, shape)
    for fmt in (hn.REAL_FMT, "%r"):
        cells = [[fmt % x for x in row] for row in a.reshape(-1, shape[-1]).tolist()]
        assert cga._block_text(a, fmt, ",", "\n") == _joined(cells, ",", "\n")
    strided = a[..., ::2]
    assert cga._block_text(strided, "%r", ",", "\n") == cga._block_text(strided.copy(), "%r", ",", "\n")
    assert cga._block_text(np.array([0.0, -0.0, 0.0]), "%r", ",", "\n") == "0.0,-0.0,0.0\n"


def test_block_text_separator_line_end_prefix_and_suffix(rng):
    a = rng.choice(_REAL_POOL, (60, 4))
    a[::2, -1] = a[::2, 0]  # the last column shares texts with the first
    cells = [["%r" % x for x in row] for row in a.tolist()]
    prefix = ['{"k": %d, "p": [' % r for r in range(len(a))]
    suffix = [f"|{r}\n" for r in range(len(a))]
    assert cga._block_text(a, "%r", ", ", "]}\n", prefix=prefix) == _joined(cells, ", ", "]}\n", prefix)
    assert cga._block_text(a, "%r", ";", ",", suffix=suffix) == _joined(cells, ";", ",", None, suffix)
    assert (cga._block_text(a, "%r", ";", ",", prefix, suffix)
            == _joined(cells, ";", ",", prefix, suffix))
    # one column: every cell is the last of its row
    assert cga._block_text(a[:, :1], "%r", ",", "\n") == _joined([r[:1] for r in cells], ",", "\n")
    assert cga._block_text(np.zeros((0, 2)), "%r", ",", "\n", prefix=[], suffix=[]) == ""


class _GivenStates(cga.StochasticTrajectory):
    """A run record whose states are set directly, not counts / (2N)."""

    states = None


def test_jsonl_writers_real_pool_equal_json_dumps(rng):
    states = _pool_table(rng, 300, 3, finite=True)
    run = _GivenStates(**vars(cga.run(ls.binval(3), 8, seed=1)))
    run.states, run.recorded_ks = states, np.arange(len(states)) * 2
    buf = io.StringIO()
    cga.trajectory_to_jsonl(run, buf)
    assert_same_lines(buf.getvalue().split("\n", 1)[1],
                      reference_jsonl_records("k", run.recorded_ks.tolist(), states))

    times = np.linspace(0.0, 3.0, len(states))
    flow = replace(ode.integrate(ls.binval(3), np.full(3, 0.5), h=0.5, T=1.0),
                   times=times, states=states)
    buf = io.StringIO()
    ode.ode_to_jsonl(flow, buf)
    assert_same_lines(buf.getvalue().split("\n", 1)[1],
                      reference_jsonl_records("t", times.tolist(), states))


class _Writes(list):
    """A text file that keeps each write apart."""

    write = list.append


def test_every_text_artifact_is_cut_by_the_cell_budget(monkeypatch, tmp_path):
    # at a budget of 16 cells: runs and flows of n = 3 are written 4 records
    # (4 cells each) at a time, a corner report of n = 3 two corners (8
    # cells) and one of n = 5 one corner (10), and the grid of n = 2 four
    # rows (4 cells) and of n = 3 two (6 cells); the bytes do not change
    monkeypatch.setattr(cga, "_BLOCK_CELLS", 16)
    run = cga.run(ls.binval(3), 8, seed=1)
    flow = ode.integrate(ls.binval(3), np.full(3, 0.5), h=0.1, T=2.05)
    for write, record, key, stamps in [(cga.trajectory_to_jsonl, run, "k", run.recorded_ks),
                                       (ode.ode_to_jsonl, flow, "t", flow.times)]:
        out = _Writes()
        write(record, out)
        assert [text.count("\n") for text in out[1:]] == _cut(len(stamps), 4)
        assert_same_lines("".join(out[1:]),
                          reference_jsonl_records(key, stamps.tolist(), record.states))

    for spec, step in [(ls.binval(3), 2), (ls.random_injective(5, seed=1), 1)]:
        report = hn.classify_all(spec)
        assert [text.count("\n") for text in report._text_blocks()] == _cut(1 << spec.n, step)
        buf = io.StringIO()
        report.write_csv(buf, header={"master_seed": 0})
        assert_same_lines(buf.getvalue(), _classify_csv_oracle(report, {"master_seed": 0}))

    for spec, grid, step in [(ls.binval(2), 5, 4), (ls.random_injective(3, seed=4), 4, 2)]:
        assert [len(b) for b in hn.drift_grid_rows(spec, grid)] == _cut(grid ** spec.n, step)
        out = tmp_path / "grid.csv"
        assert cli_main(["drift", "--spec-file", str(_spec_file(tmp_path, spec)),
                         "--grid", str(grid), "--out", str(out)]) == 0
        assert_same_lines(_csv_body(out), reference_drift_grid_csv(spec, grid))


def test_one_cell_budget_sizes_every_block(monkeypatch):
    # at a budget of 256 cells: a lockstep block draws at most 256 uniforms
    # over its active runs, but runs at least _MIN_DRAW iterations, and a
    # grid's drift calls hold one budget of four (rows, 2^n) tables; the
    # results and the bytes are those of the default budget
    from cgadyn.drift_field import drift

    assert [cga._block_rows(4 << n) for n in (2, 4, 6)] == [2048, 512, 128]
    seeds = [(5, r) for r in range(3)]
    runs = [(ls.binval(2), 100, seeds[:1]), (ls.binval(3), 64, seeds), (TWO_MAX_TABLE, 40, seeds)]
    grids = [(2, 9), (4, 5), (6, 3)]

    def grid_csv(n, grid):
        buf = io.StringIO()
        hn.write_csv(buf, [f"c{i}" for i in range(2 * n)], hn.drift_grid_rows(ls.binval(n), grid))
        return buf.getvalue()

    expected_runs = [cga.run_many(spec, N, s, record_every=3) for spec, N, s in runs]
    expected_grids = [grid_csv(n, grid) for n, grid in grids]
    monkeypatch.setattr(cga, "_BLOCK_CELLS", 256)
    for (spec, N, s), expected in zip(runs, expected_runs):
        blocks = []  # (iterations, their bound) of each block

        def check_block(rows, k0, snaps, ends):
            blocks.append((snaps.shape[1] - 1,
                           max(cga._MIN_DRAW, cga._block_rows(2 * spec.n * rows.size))))

        result = cga.lockstep(spec, N, s, on_block=check_block)
        assert all(m <= bound for m, bound in blocks) and (blocks[0][0] == blocks[0][1])
        got = cga.run_many(spec, N, s, record_every=3)
        for run, want in zip(got, expected):
            assert np.array_equal(run.counts, want.counts)
            assert np.array_equal(run.recorded_ks, want.recorded_ks)
        assert np.array_equal(result.counts, [want.counts[-1] for want in expected])
        assert result.iterations.tolist() == [want.iterations for want in expected]

    calls = []
    monkeypatch.setattr(hn, "drift", lambda p, spec: calls.append(p.shape[0]) or drift(p, spec))
    for (n, grid), expected in zip(grids, expected_grids):
        calls.clear()
        assert grid_csv(n, grid) == expected
        sub_rows = cga._block_rows(4 << n)
        assert sub_rows == {2: 16, 4: 4, 6: 1}[n]
        assert calls == [r for b in _cut(grid ** n, cga._block_rows(2 * n)) for r in _cut(b, sub_rows)]


def test_record_every_past_int64_keeps_the_first_and_final_states(tmp_path):
    huge = 99999999999999999999
    full = cga.run(ls.binval(3), 4, seed=0)
    thinned = cga.run(ls.binval(3), 4, seed=0, record_every=huge)
    assert thinned.record_every == huge
    assert thinned.recorded_ks.tolist() == [0, full.iterations]
    assert np.array_equal(thinned.counts, full.counts[[0, -1]])

    out = tmp_path / "run.jsonl"
    assert cli_main(["run", "--spec", "binval", "--n", "3", "--N", "4", "--record-every", str(huge),
                     "--out", str(out)]) == 0
    header, *records = map(json.loads, out.read_text().splitlines())
    assert header["record_every"] == huge
    assert [r["k"] for r in records] == [0, full.iterations]


def _spec_file(tmp_path, spec) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(ls.spec_to_json_dict(spec)))
    return path


def _csv_body(path) -> str:
    return "".join(l for l in path.read_text().splitlines(keepends=True) if not l.startswith("#"))


@pytest.mark.parametrize("spec_args, spec, grid", [
    (["--spec", "binval", "--n", "2"], ls.binval(2), 5),
    (["--spec", "random_injective", "--n", "3", "--spec-seed", "4"], ls.random_injective(3, seed=4), 4),
    (None, ls.table_spec({"00": 3.0, "01": 1.0, "10": 3.0, "11": 4.0}), 6),
    (["--spec", "binval", "--n", "4"], ls.binval(4), 9),  # 6 561 rows: two CSV blocks
    # 16 807 rows: four full blocks and a ragged tail of 423 rows
    (["--spec", "random_injective", "--n", "5", "--spec-seed", "2"], ls.random_injective(5, seed=2), 7),
], ids=["binval2", "random3", "tied_table", "binval4_two_blocks", "random5_ragged_tail"])
def test_cli_drift_csv_bytes(tmp_path, spec_args, spec, grid):
    if spec_args is None:
        spec_args = ["--spec-file", str(_spec_file(tmp_path, spec))]
    out = tmp_path / "grid.csv"
    assert cli_main(["drift", *spec_args, "--grid", str(grid), "--out", str(out)]) == 0
    assert_same_lines(_csv_body(out), reference_drift_grid_csv(spec, grid))


@pytest.mark.parametrize("n, grid", [(2, 1), (4, 32)], ids=["grid1", "over_row_cap"])
def test_cli_refused_grid_leaves_no_file(tmp_path, capsys, n, grid):
    out = tmp_path / "f.csv"
    argv = ["drift", "--spec", "binval", "--n", str(n), "--grid", str(grid), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    out.write_text("kept\n")
    assert cli_main(argv) == 1
    assert out.read_text() == "kept\n"
    err = capsys.readouterr().err
    assert "grid" in err and "internal error" not in err


# binval-17's 2^17 grid-2 rows are under the row limit, so the refusal comes
# from the spec reader's cap, while the config is read, before any file is opened
@pytest.mark.parametrize("argv", [["drift", "--grid", "2"], ["classify"], ["localmaxima"]],
                         ids=["drift_grid2", "classify", "localmaxima"])
def test_cli_spec_over_the_cap_leaves_no_file(tmp_path, capsys, argv):
    out = tmp_path / "f.csv"
    argv = [*argv, "--spec", "binval", "--n", "17", "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()
    out.write_text("kept\n")
    assert cli_main(argv) == 1
    assert out.read_text() == "kept\n"
    err = capsys.readouterr().err
    assert "n=17 exceeds the enumeration cap 16" in err and "internal error" not in err


# --- CLI ------------------------------------------------------------------------

@pytest.mark.parametrize("argv, needle", [
    (["ode", "--step", "1e-12", "--horizon", "1e6"], "1e+18 time points"),
    (["ode", "--step", "1e-300", "--horizon", "1"], "1e+300 time points"),
    (["run", "--N", "4611686018427387904"], "2N fits in int64"),
    (["run", "--N", "9223372036854775808"], "2N fits in int64"),
], ids=["ode_1e18_points", "ode_1e300_points", "run_2N_past_int64", "run_N_past_int64"])
def test_cli_refuses_oversized_grids_and_N(tmp_path, capsys, argv, needle):
    out = tmp_path / "out.jsonl"
    assert cli_main([*argv, "--spec", "binval", "--n", "3", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("cgadyn: error:") and needle in err


def test_negative_spec_seed_is_refused(tmp_path, capsys):
    # SeedSequence takes no negative entropy, so the spec is refused when made,
    # not at its first use
    with pytest.raises(DomainError, match="seed must be >= 0"):
        ls.random_injective(3, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        ls.spec_from_json_dict({"kind": "random_injective", "n": 3, "seed": -1})
    out = tmp_path / "run.jsonl"
    argv = ["run", "--spec", "random_injective", "--n", "3", "--spec-seed", "-1", "--N", "4"]
    assert cli_main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("cgadyn: error:") and "seed" in err


def test_cli_alphasweep_refuses_oversized_jump_times(tmp_path, capsys):
    # N = 10^12 has 10^13 jump times up to T = 5; the sweep stops before any run
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"spec": {"kind": "binval", "n": 3}, "N_values": [32, 10**12],
                               "runs_per_setting": 3, "output_dir": str(tmp_path / "sweep")}))
    assert cli_main(["alphasweep", "--config", str(cfg)]) == 1
    assert not (tmp_path / "sweep").exists()
    err = capsys.readouterr().err
    assert err.startswith("cgadyn: error:") and "1e+13 time points" in err


def test_cli_ode_refuses_a_too_long_step(tmp_path, capsys):
    # an RK4 stage state leaves [0, 1]^3 at step 5, and drift's range
    # check refuses it before the output file is opened
    out = tmp_path / "flow.jsonl"
    argv = ["ode", "--spec", "binval", "--n", "3", "--horizon", "20", "--out", str(out)]
    assert cli_main([*argv, "--step", "5"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "[0, 1]" in err and "internal error" not in err
    assert cli_main([*argv, "--step", "0.5"]) == 0
    assert out.exists()


@pytest.mark.parametrize("flags", [["--step", "inf", "--horizon", "1"], ["--horizon", "inf"],
                                   ["--horizon", "nan"], ["--step", "nan"]],
                         ids=["step_inf", "horizon_inf", "horizon_nan", "step_nan"])
def test_cli_ode_refuses_non_finite_step_or_horizon(tmp_path, capsys, flags):
    out = tmp_path / "flow.jsonl"
    assert cli_main(["ode", "--spec", "binval", "--n", "2", *flags, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("cgadyn: error:") and "finite" in err


@pytest.mark.parametrize("module", ["cgadyn", "cgadyn.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    env = {**os.environ, "PYTHONPATH": str(Path(cgadyn.__file__).parents[1])}

    def run(n, out):
        return subprocess.run([sys.executable, "-m", module, "run", "--spec", "binval", "--n", n,
                               "--N", "8", "--seed", "2", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)

    done = run("3", tmp_path / "run.jsonl")
    assert done.returncode == 0, done.stderr
    assert cli_main(["run", "--spec", "binval", "--n", "3", "--N", "8", "--seed", "2",
                     "--out", str(tmp_path / "in_process.jsonl")]) == 0
    assert (tmp_path / "run.jsonl").read_bytes() == (tmp_path / "in_process.jsonl").read_bytes()

    done = run("0", tmp_path / "refused.jsonl")
    assert done.returncode == 1
    assert "cgadyn: error:" in done.stderr
    assert not (tmp_path / "refused.jsonl").exists()


def test_cli_classify_stdout(capsys):
    assert cli_main(["classify", "--spec", "binval", "--n", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "corner,fitness,local_max,verdict,eigenvalues,agreement"
    assert len(lines) == 9
    assert "# artifact_version:" in out


@pytest.mark.parametrize("spec_args, sha256", [
    (["--spec", "random_injective", "--n", "4", "--spec-seed", "7"],
     "7df20b0a3b0f7ede364b61b4faa99523b97132e7e55c79ce326498468e79c7cc"),
    (["--spec", "binval", "--n", "3"],
     "a21dbc26866b693354ee608971d5caf40dfb5281b9dfa37595e6792c9e9b7c93"),
], ids=["random_injective4", "binval3"])
def test_cli_classify_stdout_bytes_are_pinned(capsys, spec_args, sha256):
    # criterion 12 compares two runs of one version; this pins the bytes
    # across versions, provenance header included
    assert cli_main(["classify", *spec_args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    (["montecarlo", "--out", "mc"], {
        "mc/montecarlo_summary.json":
            "fb6d52b24438ecb8c250456e68cc36bf6b18a6af3655bf49531a94f3a833ad16",
        "mc/montecarlo_settings.csv":
            "307e65b4fe50505a68d5c4c7c6579a197bfa94aaab4772e4b815f162ef23fc6c",
    }),
    (["alphasweep", "--out", "sweep"], {
        "sweep/alpha_sweep.csv":
            "d4a1e3bd14065e27395de19d1026e1a768c10de26656caf61727c43b3932b6c8",
        "sweep/alpha_sweep_summary.json":
            "95f18ebf0ab03bee36cfd423b796e19093455f858342d2889010b0e19dd5e865",
    }),
    (["run", "--N", "8", "--seed", "3", "--out", "run.jsonl"], {
        "run.jsonl": "dee459d724b9953a4dc9cd71cf9d93f02cdbd9199e5b32971536ed169dea3c9b",
    }),
    (["ode", "--step", "0.1", "--out", "ode.jsonl"], {
        "ode.jsonl": "821ba2a9b039898fa82ee1818289df1d3505353cea1c2925ccd0cf2ad0317b96",
    }),
    # runs end at six corners, three of them not local maxima, and no N=16 run
    # terminates within the budget
    (["montecarlo", "--spec", "random_injective", "--n", "4", "--spec-seed", "5",
      "--N", "1", "--N", "2", "--N", "4", "--N", "16", "--runs", "12", "--max-iters", "30",
      "--out", "mc"], {
        "mc/montecarlo_summary.json":
            "be3e18e974bc67e6d03a57df2a56622bc4a31f2b935b4f865f8e8b46bbe81cec",
        "mc/montecarlo_settings.csv":
            "cf5e68d1dfb57282591582b78a852fa498d765f0aa916d995cfc64f94666923c",
    }),
], ids=["montecarlo", "alphasweep", "run", "ode", "montecarlo_many_corners"])
def test_cli_campaign_and_trajectory_bytes_are_pinned(tmp_path, monkeypatch, argv, sha256):
    # output_dir is part of the hashed config, so the paths are relative
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({
        "spec": {"kind": "binval", "n": 3}, "N_values": [4, 8], "runs_per_setting": 3,
        "T_horizon": 1.0, "master_seed": 2, "ode_step": 0.05,
    }))
    assert cli_main([*argv, "--config", "cfg.json"]) == 0
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in sha256} == sha256


@pytest.mark.parametrize("argv, sha256", [
    # the linear weights' sums have no short decimal form, so 17 digits show
    (["localmaxima", "--spec", "linear", "--weights", "0.1,0.25,3.5"],
     "9e69fcd11619d3fc9910ed7c68f06e58a13513b7a124a6b5a6430a1123c35ca0"),
    (["classify", "--spec", "linear", "--weights", "0.1,0.25,3.5"],
     "9348aaa7924229f2d7929868d8ae9ffb4477abc71de18b37574d502bd3e46ddb"),
    (["drift", "--spec", "random_injective", "--n", "3", "--spec-seed", "4", "--grid", "7"],
     "85fe243d7231dd8feea0f5da46e58ceed4cc0abeb5ee35e887052a2dd3e5ff23"),
    # maxima 010 (strict), 101 and 111 (a tie between neighbors)
    (["localmaxima", "--spec-file", "tied.json"],
     "d9d14e65777aa9f9a2abd8a7709c85e3242545676823562f4ee7bcebe154597f"),
], ids=["localmaxima", "classify", "drift", "localmaxima_tied"])
def test_cli_table_bytes_are_pinned(tmp_path, monkeypatch, argv, sha256):
    monkeypatch.chdir(tmp_path)
    Path("tied.json").write_text(json.dumps({"kind": "table", "table": [1, 2, 2, 1, 0, 3, 1, 3]}))
    out = tmp_path / "table.csv"
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_demo_campaign_script_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cgadyn.__file__).parents[1])}
    script = Path(__file__).parents[1] / "scripts" / "demo_campaign.py"
    done = subprocess.run([sys.executable, str(script), "--runs", "2", "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("classify_binval4", "classify_two_max", "classify_rugged5",
                 "classify_binval3_cli", "alpha_sweep"):
        assert (tmp_path / f"{name}.csv").is_file(), name
    # every table is stamped with the hash of the settings that made it
    hashes = [line for path in tmp_path.rglob("*.csv") for line in path.read_text().splitlines()
              if line.startswith("# config_hash:")]
    assert len(hashes) == len(list(tmp_path.rglob("*.csv")))
    assert all(re.fullmatch(r"# config_hash: [0-9a-f]{16}", line) for line in hashes), hashes


def test_calibrate_alpha_sweep_script_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(cgadyn.__file__).parents[1])}
    script = Path(__file__).parents[1] / "scripts" / "calibrate_alpha_sweep.py"
    done = subprocess.run([sys.executable, str(script), "--runs", "2", "--horizon", "1"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split()[0] for line in done.stdout.splitlines()[2:-1]]
    assert rows == ["32", "128", "512", "2048"]


# each argv, and patterns its message must hold: the flag names, for the
# --spec/--spec-file clash
_REFUSED_ARGV = [
    ([], ["subcommand"]),
    (["classify", "--spec", "binval", "--n", "2", "--spec-file", "spec.json"],
     ["--spec-file", "--spec(?!-)"]),
    (["classify", "--spec-file", "bad.json", "--out", "out.csv"], ["malformed spec JSON"]),
    (["classify", "--config", "array.json", "--out", "out.csv"], ["JSON object"]),
    (["run", "--spec", "binval", "--n", "2", "--out", "out.jsonl"], ["--N"]),
    (["run", "--spec", "binval", "--n", "2", "--N", "4", "--record-every", "0",
      "--out", "out.jsonl"], ["record_every"]),
    (["alphasweep", "--spec", "binval", "--n", "2", "--N", "2", "--N", "4", "--horizon", "0",
      "--out", "sweep"],
     ["T_horizon"]),
    # every weight is finite, but 1e308 + 1e308 is not
    (["localmaxima", "--spec", "linear", "--weights", "1e308,1e308,-1e308,-1e308",
      "--out", "out.csv"], ["weights", "overflows"]),
]


@pytest.mark.parametrize("argv, needles", _REFUSED_ARGV,
                         ids=["no_subcommand", "spec_and_spec_file", "malformed_spec_file",
                              "config_array", "run_without_N", "run_record_every_0",
                              "alphasweep_horizon_0", "linear_weights_overflow"])
def test_cli_usage_refusals_write_no_file(tmp_path, monkeypatch, capsys, argv, needles):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps({"kind": "binval", "n": 2}))
    Path("bad.json").write_text('{"kind": "binval", "n": ')
    Path("array.json").write_text(json.dumps([{"spec": {"kind": "binval", "n": 2}}]))
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("cgadyn: error:")
    assert all(re.search(needle, captured.err) for needle in needles), captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json", "bad.json", "spec.json"]


def _config_flag_table() -> dict[str, tuple[str, set[str]]]:
    """README's table of the flags that set config fields: flag -> (field,
    subcommands)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| flag | config field | subcommands |\n|---|---|---|\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines():
        flag, field, commands = line.strip("|").split("|")
        rows[flag.strip(" `")] = (field.strip(" `"), set(re.findall(r"`([a-z]+)`", commands)))
    return rows


def test_readme_flag_table_matches_the_parser():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    rows = _config_flag_table()
    assert rows and all(commands <= set(subparsers.choices) for _, commands in rows.values())
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for flag in action.option_strings:
                if action.dest in hn._CONFIG_FIELDS:
                    assert flag in rows, (command, flag)
                if flag in rows:
                    field, commands = rows[flag]
                    assert (action.dest == field) == (command in commands), (command, flag)
        for flag, (field, commands) in rows.items():
            has_flag = any(flag in a.option_strings for a in parser._actions)
            assert has_flag or command not in commands, (command, flag)


def _spec_kind_table() -> dict[str, list[tuple[list[str], list[str]]]]:
    """README's table of fitness kinds: kind -> [(JSON fields, optional
    ones), (CLI flags, optional ones)]."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| kind | JSON fields | CLI flags |\n|---|---|---|\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines():
        kind, *cells = line.strip("|").split("|")
        rows[kind.strip(" `")] = [(re.findall(r"(?<!optional )`([\w-]+)`", cell),
                                   re.findall(r"optional `([\w-]+)`", cell)) for cell in cells]
    return rows


def test_readme_spec_table_matches_the_kinds_and_the_parser():
    rows = _spec_kind_table()
    assert list(rows) == list(ls.SPEC_KINDS)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        dest = {flag: a.dest for a in parser._actions for flag in a.option_strings}
        listed = set()
        for kind, ((names, optional), (flags, optional_flags)) in rows.items():
            fields = ls._KINDS[kind]
            assert names == list(fields) and optional == ([] if "n" in fields else ["n"]), kind
            # --spec offers a kind iff the table gives a flag for each of its fields
            assert (kind in parser._option_string_actions["--spec"].choices) == bool(flags)
            if flags:
                assert [dest[f] for f in flags] == names, (command, kind)
                assert [dest[f] for f in optional_flags] == optional, (command, kind)
            listed |= set(flags + optional_flags)
        # every flag that sets a spec field but the kind has a row
        assert listed == {flag for flag, field in dest.items()
                          if field in cli._SPEC_FIELDS - {"kind"}}, command


# each subcommand, and the names it looks up in cgadyn.cli that perfbench wraps
_TRACED_NAMES = {
    "run": (["--N", "4"], ["cga_run", "trajectory_to_jsonl"]),
    "drift": (["--grid", "3"], ["drift_grid_rows", "write_csv"]),
    "ode": (["--step", "0.1", "--horizon", "0.5"], ["integrate", "ode_to_jsonl"]),
    "classify": ([], ["classify_all"]),
    "localmaxima": ([], ["enumerate_local_maxima", "write_csv"]),
    "montecarlo": (["--runs", "2"], ["monte_carlo", "write_csv"]),
    "alphasweep": (["--N", "2", "--N", "4", "--runs", "2", "--horizon", "0.5"],
                   ["alpha_sweep", "write_csv"]),
}


def test_subcommands_look_up_wrapped_names_at_call_time(tmp_path, monkeypatch, capsys):
    cli._shared_parser()  # built before the names are swapped
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in {name for _, names in _TRACED_NAMES.values() for name in names}:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    monkeypatch.chdir(tmp_path)
    for command, (flags, names) in _TRACED_NAMES.items():
        calls.clear()
        argv = [command, "--spec", "binval", "--n", "2", *flags, "--out", command]
        assert cli_main(argv) == 0, capsys.readouterr().err
        assert sorted(set(calls)) == sorted(names), command


def test_cli_run_jsonl(capsys):
    assert cli_main(["run", "--spec", "binval", "--n", "2", "--N", "4", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0])
    assert header["N"] == 4 and header["seed"] == 1
    assert json.loads(lines[1]) == {"k": 0, "p": [0.5, 0.5]}


def test_cli_rejects_non_injective_spec_file(tmp_path, capsys):
    spec_file = tmp_path / "noninjective.json"
    spec_file.write_text(json.dumps(
        {"kind": "table", "n": 1, "table": {"0": 1.0, "1": 1.0}}))
    assert cli_main(["classify", "--spec-file", str(spec_file)]) == 1
    assert "injective" in capsys.readouterr().err


def test_cli_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_spec(capsys):
    assert cli_main(["classify"]) == 1
    assert "spec" in capsys.readouterr().err
    # flags are checked by the same parser as spec files
    assert cli_main(["classify", "--spec", "random_injective", "--n", "3"]) == 1
    assert "seed" in capsys.readouterr().err


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert cli_main(["classify", "--config", str(bad)]) == 1
    assert "malformed" in capsys.readouterr().err
    bad.write_text(json.dumps({"spec": {"kind": "binval", "n": 2}, "runs_per_setting": "3"}))
    assert cli_main(["montecarlo", "--config", str(bad), "--out", str(tmp_path / "mc")]) == 1
    err = capsys.readouterr().err
    assert "runs_per_setting" in err and "internal error" not in err
    # single-spec commands read their config fields through the same check
    bad.write_text(json.dumps({"spec": {"kind": "binval", "n": 2}, "ode_step": "0.1"}))
    assert cli_main(["ode", "--config", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "ode_step" in err and "internal error" not in err
    # the config's spec is checked even where a flag replaces it
    bad.write_text(json.dumps({"spec": {"kind": "bogus"}}))
    argv = ["classify", "--config", str(bad), "--spec", "binval", "--n", "2"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "'bogus'" in err and "internal error" not in err


@pytest.mark.parametrize("spec_obj, needle", [
    ({"kind": "binval"}, "'n'"),
    ({"kind": "binval", "n": True}, "integer"),
    ({"kind": "random_injective", "n": 3}, "'seed'"),
    ({"kind": "table", "n": 1, "table": {"0": float("nan"), "1": 1.0}}, "finite"),
    ({"kind": "linear", "weights": [1.0, float("inf")]}, "finite"),
], ids=["missing_n", "bool_n", "missing_seed", "nan_table", "inf_weight"])
def test_cli_rejects_malformed_spec_file(tmp_path, capsys, spec_obj, needle):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_obj))  # NaN and Infinity as Python's json writes them
    assert cli_main(["classify", "--spec-file", str(spec_file)]) == 1
    err = capsys.readouterr().err
    assert needle in err and "internal error" not in err


def test_spec_fields_the_kind_does_not_take_are_refused(tmp_path, monkeypatch, capsys):
    # flags, spec files and config specs are checked alike: a stray field is
    # named, not ignored
    with pytest.raises(DomainError, match="binval spec does not take fields \\['bogus'\\]"):
        ls.spec_from_json_dict({"kind": "binval", "n": 3, "bogus": 1})
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps({"kind": "binval", "n": 3, "epsilon": 0.1}))
    Path("cfg.json").write_text(json.dumps(
        {"spec": {"kind": "random_injective", "n": 3, "seed": 1, "weights": [1.0]}}))
    Path("kind.json").write_text(json.dumps({"kind": [1]}))
    for argv, needle in (
        (["--spec", "binval", "--n", "3", "--epsilon", "0.1", "--weights", "5,6",
          "--spec-seed", "9"], "binval spec does not take fields ['epsilon', 'seed', 'weights']"),
        (["--spec-file", "spec.json"], "binval spec does not take fields ['epsilon']"),
        (["--config", "cfg.json"], "random_injective spec does not take fields ['weights']"),
        (["--spec-file", "kind.json"], "unknown fitness kind [1]"),
    ):
        assert cli_main(["localmaxima", *argv, "--out", "out.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("cgadyn: error:")
        assert needle in captured.err, captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "kind.json", "spec.json"]


def test_duplicate_N_values_are_refused(tmp_path, monkeypatch, capsys):
    # one N given twice made two identical rows: a sweep over one step
    with pytest.raises(DomainError, match="'N_values' must be a nonempty list of distinct"):
        small_config(tmp_path, N_values=(4, 2, 4))
    monkeypatch.chdir(tmp_path)
    spec = ["--spec", "binval", "--n", "2"]
    runs = [["montecarlo", *spec, "--N", "4", "--N", "4", "--runs", "3"],
            ["alphasweep", *spec, "--N", "4", "--N", "4", "--runs", "3", "--horizon", "1"]]
    for values in ([4, 2, 4], [[1]]):  # an unhashable N is refused before any set
        Path("cfg.json").write_text(json.dumps({"spec": {"kind": "binval", "n": 2},
                                                "N_values": values}))
        runs += [["montecarlo", "--config", "cfg.json"], ["alphasweep", "--config", "cfg.json"]]
    for argv in runs:
        assert cli_main([*argv, "--out", "out"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            "cgadyn: error: config field 'N_values' must be a nonempty list of distinct")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_ode_and_drift(tmp_path):
    out = tmp_path / "flow.jsonl"
    assert cli_main(["ode", "--spec", "binval", "--n", "1", "--step", "0.01",
                     "--horizon", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["h"] == 0.01 and header["T"] == 1.0
    last = json.loads(lines[-1])
    assert last["t"] == 1.0
    assert abs(last["p"][0] - 1 / (1 + np.exp(-2))) < 1e-6

    grid = tmp_path / "grid.csv"
    assert cli_main(["drift", "--spec", "binval", "--n", "2", "--grid", "3",
                     "--out", str(grid)]) == 0
    rows = [l for l in grid.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "p_1,p_2,f_1,f_2"
    assert len(rows) == 10


def test_cli_refusal_while_writing_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    out = tmp_path / "grid.csv"
    out.write_text("the old artifact\n")

    def refusing_blocks(spec, grid):
        raise DomainError("refused while the grid is built")
        yield

    monkeypatch.setattr(cli, "drift_grid_rows", refusing_blocks)
    assert cli_main(["drift", "--spec", "binval", "--n", "2", "--grid", "3",
                     "--out", str(out)]) == 1
    assert "refused while the grid is built" in capsys.readouterr().err
    assert out.read_text() == "the old artifact\n"
    assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
    # a whole artifact replaces the file, with the mode a new file gets
    monkeypatch.undo()
    assert cli_main(["drift", "--spec", "binval", "--n", "2", "--grid", "3",
                     "--out", str(out)]) == 0
    fresh = tmp_path / "fresh.csv"
    with open(fresh, "w"):
        pass
    assert out.read_text().startswith("# ")
    assert out.stat().st_mode == fresh.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "grid.csv"]


def test_campaign_failure_while_writing_leaves_its_files_as_they_were(tmp_path, monkeypatch,
                                                                       capsys):
    argv = ["montecarlo", "--spec", "binval", "--n", "2", "--N", "2", "--runs", "3",
            "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == ["montecarlo_settings.csv", "montecarlo_summary.json"]

    def failing_write_csv(fp, *args, **kwargs):
        fp.write("a partial table")
        raise OSError("disk full while the table is written")

    # another seed, so a summary written before the table fails would differ
    monkeypatch.setattr(cli, "write_csv", failing_write_csv)
    assert cli_main([*argv, "--seed", "9"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_cli_montecarlo_and_alphasweep(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": {"kind": "binval", "n": 2},
        "N_values": [2, 4],
        "runs_per_setting": 4,
        "T_horizon": 1.0,
        "master_seed": 5,
        "output_dir": str(tmp_path / "mc"),
    }))
    assert cli_main(["montecarlo", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "mc" / "montecarlo_summary.json").read_text())
    assert summary["theorem_scope"] == "ok"
    assert len(summary["settings"]) == 2

    assert cli_main(["alphasweep", "--config", str(cfg),
                     "--out", str(tmp_path / "sweep")]) == 0
    table = (tmp_path / "sweep" / "alpha_sweep.csv").read_text()
    assert "median_sup_distance" in table



@pytest.mark.parametrize("argv", [
    ["montecarlo", "--spec", "random_injective", "--n", "4", "--spec-seed", "5", "--N", "1",
     "--N", "2", "--N", "16", "--runs", "12", "--max-iters", "30", "--seed", "7"],
    ["alphasweep", "--N", "4", "--N", "8", "--runs", "3", "--horizon", "0.5", "--step", "0.05"],
], ids=["montecarlo", "alphasweep"])
def test_campaign_reproduces_from_the_config_in_its_summary(tmp_path, monkeypatch, argv):
    # the summary's config, written by to_json_dict, is a config file that
    # from_json_dict reads back into the same campaign, byte for byte
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"spec": {"kind": "binval", "n": 3},
                                            "master_seed": 2, "T_horizon": 2.0}))
    assert cli_main([*argv, "--config", "cfg.json", "--out", "out"]) == 0
    written = {path.name: path.read_bytes() for path in Path("out").iterdir()}
    summary = json.loads(next(data for name, data in written.items() if name.endswith(".json")))
    Path("summary_config.json").write_text(json.dumps(summary["config"]))
    for path in Path("out").iterdir():
        path.unlink()
    assert cli_main([argv[0], "--config", "summary_config.json"]) == 0
    assert {path.name: path.read_bytes() for path in Path("out").iterdir()} == written
    assert len(written) == 2

def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": {"kind": "binval", "n": 2},
        "N_values": [2],
        "runs_per_setting": 3,
        "master_seed": 5,
        "output_dir": str(tmp_path / "a"),
    }))
    assert cli_main(["montecarlo", "--config", str(cfg), "--seed", "9",
                     "--out", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "b" / "montecarlo_summary.json").read_text())
    assert summary["config"]["master_seed"] == 9


def test_cli_outputs_byte_identical(tmp_path):
    args_a = ["run", "--spec", "binval", "--n", "3", "--N", "8", "--seed", "2",
              "--out", str(tmp_path / "a.jsonl")]
    args_b = ["run", "--spec", "binval", "--n", "3", "--N", "8", "--seed", "2",
              "--out", str(tmp_path / "b.jsonl")]
    assert cli_main(args_a) == 0 and cli_main(args_b) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
