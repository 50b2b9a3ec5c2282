import io
import json
from dataclasses import replace

import numpy as np
import pytest

from cgadyn import cga
from cgadyn import harness as hn
from cgadyn import landscape as ls
from cgadyn import ode
from cgadyn.cli import cli_main
from cgadyn.errors import DomainError, TheoremScopeError

from conftest import (
    TWO_MAX_TABLE,
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
    cfg = small_config(tmp_path)
    restored = hn.ExperimentConfig.from_json_dict(cfg.to_json_dict())
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
    with pytest.raises(DomainError):
        small_config(tmp_path, ode_step=0.0)
    with pytest.raises(DomainError):
        hn.ExperimentConfig.from_json_dict(
            {"spec": {"kind": "binval", "n": 2}, "bogus_field": 1})
    for field, value in (("runs_per_setting", "3"), ("N_values", 4), ("N_values", ["4"]),
                         ("master_seed", "x"), ("T_horizon", float("inf")),
                         ("max_iters", 1.5)):
        with pytest.raises(DomainError, match=field):
            hn.ExperimentConfig.from_json_dict({"spec": {"kind": "binval", "n": 2}, field: value})
    # a JSON bool is not an integer, though Python's bool is an int
    for field, value in (("runs_per_setting", True), ("master_seed", False),
                         ("max_iters", True), ("N_values", [True])):
        with pytest.raises(DomainError, match=f"'{field}' must be an? .*integer"):
            hn.ExperimentConfig.from_json_dict({"spec": {"kind": "binval", "n": 2}, field: value})


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
        assert float(hn.fmt_real(x)) == x
        assert hn.fmt_real(x) == format(x, ".17g")
    assert [hn.fmt_real(x) for x in (np.inf, -np.inf, np.nan)] == ["inf", "-inf", "nan"]


# --- Monte Carlo campaign ------------------------------------------------------

def test_monte_carlo_counts_add_up(tmp_path):
    cfg = small_config(tmp_path, runs_per_setting=20)
    result = hn.monte_carlo(cfg)
    assert result.theorem_scope == "ok"
    maxima = {ls.bits_to_string(m) for m in ls.enumerate_local_maxima(cfg.spec).maxima}
    for setting in result.settings:
        assert sum(setting.convergence_counts.values()) + setting.non_terminated == 20
        # coarse learning steps may absorb off the maxima; the flag must say so
        seen = set(setting.convergence_counts)
        assert setting.terminal_corners_are_local_maxima == (seen <= maxima)
        assert setting.alpha == 1.0 / (2 * setting.N)


def test_monte_carlo_terminal_corners_subset_of_maxima(tmp_path):
    spec = ls.random_injective(3, seed=12)
    maxima = {ls.bits_to_string(m) for m in ls.enumerate_local_maxima(spec).maxima}
    cfg = small_config(tmp_path, spec=spec, N_values=(16,), runs_per_setting=40)
    result = hn.monte_carlo(cfg)
    seen = set(result.settings[0].convergence_counts)
    assert seen <= maxima


def test_monte_carlo_reproducible(tmp_path):
    cfg = small_config(tmp_path, runs_per_setting=8)
    a = hn.monte_carlo(cfg).to_json_dict()
    b = hn.monte_carlo(cfg).to_json_dict()
    assert a == b


def test_monte_carlo_non_injective_labeled(tmp_path):
    cfg = small_config(tmp_path, spec=ls.table_spec([1.0, 1.0], n=1), N_values=(4,))
    result = hn.monte_carlo(cfg)
    assert result.theorem_scope == "outside"
    assert result.settings[0].terminal_corners_are_local_maxima is None


def serial_tallies(cfg):
    """monte_carlo's tallies, recomputed from one cga.run per run seed."""
    spec = cfg.spec
    maxima = set(ls.enumerate_local_maxima(spec).maxima) if ls.is_injective(spec) else None
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
        on_maxima = None if maxima is None else all(ls.string_to_bits(c) in maxima for c in counts)
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
    a = [r.to_json_dict() for r in hn.alpha_sweep(cfg)]
    b = [r.to_json_dict() for r in hn.alpha_sweep(cfg)]
    assert a == b


@pytest.mark.parametrize("spec, N_values, T, h", [
    (ls.binval(2), (1, 2, 3), 5.0, 0.01),       # most runs reach a corner before T
    (ls.binval(8), (8, 32), 2.5, 0.01),
    (TWO_MAX_TABLE, (3, 16), 1.37, 0.01),       # T on neither grid
    (ls.table_spec([1.0, 2.0, 2.0, 1.0], n=2), (2, 6), 2.0, 0.03),
])
def test_alpha_sweep_equals_serial_sup_distance(tmp_path, spec, N_values, T, h):
    cfg = small_config(tmp_path, spec=spec, N_values=N_values, runs_per_setting=9,
                       T_horizon=T, ode_step=h)
    reference = ode.integrate(spec, np.full(spec.n, 0.5), h=h, T=T)
    ended_early = 0
    for row in hn.alpha_sweep(cfg):
        horizon = int(np.ceil(T / (1.0 / (2 * row.N)) - 1e-12))
        trajs = [cga.run(spec, row.N, seed=hn.run_seed(cfg.master_seed, row.N, r),
                         max_iters=horizon) for r in range(cfg.runs_per_setting)]
        ended_early += sum(t.terminated and t.iterations < horizon for t in trajs)
        dists = [ode.sup_distance(t, reference, T) for t in trajs]
        assert row.median_sup_distance == float(np.median(dists))
        assert row.q90_sup_distance == float(np.quantile(dists, 0.9))
    if spec == ls.binval(2):
        assert ended_early > 0


# --- classification report -------------------------------------------------------

def test_classify_all_binval3():
    report = hn.classify_all(ls.binval(3))
    assert len(report.rows) == 8
    stable = [r for r in report.rows if r.verdict == "asymptotically_stable"]
    assert len(stable) == 1 and stable[0].corner == "111"
    assert report.all_agree


def test_classify_all_random_injective_matches_oracle():
    spec = ls.random_injective(4, seed=7)
    report = hn.classify_all(spec)
    stable = sum(r.verdict == "asymptotically_stable" for r in report.rows)
    assert stable == len(ls.enumerate_local_maxima(spec).maxima)
    assert report.all_agree


@pytest.mark.parametrize("spec", [s for n in (2, 3, 4) for s in injective_suite(n)]
                         + [ls.random_injective(8, seed=8)])
def test_classify_all_equals_per_corner_verdicts_and_oracle(spec):
    report = hn.classify_all(spec)
    maxima = strict_local_maxima(spec)
    assert len(report.rows) == 1 << spec.n
    for i, row in enumerate(report.rows):
        corner = ls.index_to_bits(i, spec.n)
        verdict = ode.classify_corner(spec, corner)
        assert (row.corner, row.verdict, row.eigenvalues, row.local_max) == (
            ls.bits_to_string(verdict.corner), verdict.verdict.value, verdict.eigenvalues,
            verdict.local_max)
        own = ls.evaluate(spec, corner)
        assert row.fitness == own
        assert row.local_max == (corner in maxima) == (row.verdict == "asymptotically_stable")
        assert row.agreement
        for m, e in enumerate(row.eigenvalues):
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


# --- drift grid --------------------------------------------------------------------

def test_drift_grid_rows_shape_and_values(monkeypatch):
    from cgadyn.drift_field import drift

    calls = []
    monkeypatch.setattr(hn, "drift", lambda p, spec: calls.append(p.shape) or drift(p, spec))
    rows = hn.drift_grid_rows(ls.binval(2), 3)
    assert calls == [(9, 2)]  # one block for a grid this small
    assert rows.shape == (9, 4)
    axis = np.linspace(0.0, 1.0, 3)
    assert np.array_equal(rows[:, :2], [[a, b] for a in axis for b in axis])
    assert np.array_equal(rows[:, 2:], drift(rows[:, :2], ls.binval(2)))


def test_drift_grid_rows_in_blocks_equal_one_call(monkeypatch):
    # 9^4 = 6561 points span two blocks; drift rows do not depend on the batch
    from cgadyn.drift_field import drift

    spec = ls.random_injective(4, seed=5)
    calls = []
    monkeypatch.setattr(hn, "drift", lambda p, s: calls.append(p.shape[0]) or drift(p, s))
    rows = hn.drift_grid_rows(spec, 9)
    assert calls == [hn._CSV_BLOCK_ROWS, 9 ** 4 - hn._CSV_BLOCK_ROWS]
    assert np.array_equal(rows[:, 4:], drift(rows[:, :4], spec))


def test_drift_grid_guards():
    with pytest.raises(DomainError):
        list(hn.drift_grid_rows(ls.binval(2), 1))
    with pytest.raises(DomainError):
        list(hn.drift_grid_rows(ls.binval(8), 101))


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
def test_write_csv_real_array_equals_csv_writer(rng, rows, pooled):
    # 5000 rows cross a block boundary
    if pooled:
        table = _pool_table(rng, rows, 3)
    else:
        table = rng.random((rows, 3)) * 10.0 ** rng.integers(-30, 30, (rows, 3))
        flat = table.reshape(-1)
        k = min(flat.size, len(_EDGE_REALS))
        flat[:k] = _EDGE_REALS[:k]
        flat[-k:] = _EDGE_REALS[-k:]
    names = ["a", "b", "c"]
    buf = io.StringIO()
    hn.write_csv(buf, names, table, header={"seed": 1}, footer=["end"])
    assert buf.getvalue() == "# seed: 1\n" + reference_real_csv(names, table) + "# end\n"


@pytest.mark.parametrize("shape", [(7,), (0, 3), (2, 3, 4), (40, 6)])
def test_format_cells_formats_every_cell(rng, shape):
    a = rng.choice(_REAL_POOL, shape)
    for fmt in (hn.REAL_FMT, "%r"):
        cells = cga.format_cells(a, fmt)
        assert cells.shape == a.shape
        assert cells.ravel().tolist() == [fmt % x for x in a.ravel().tolist()]
    strided = a[..., ::2]
    assert cga.format_cells(strided, "%r").tolist() == cga.format_cells(strided.copy(), "%r").tolist()
    assert cga.format_cells(np.array([0.0, -0.0, 0.0]), "%r").tolist() == ["0.0", "-0.0", "0.0"]


class _GivenStates(cga.StochasticTrajectory):
    """A run record whose states are set directly, not counts / (2N)."""

    states = None


def test_jsonl_writers_real_pool_equal_json_dumps(rng):
    states = _pool_table(rng, 300, 3, finite=True)
    run = _GivenStates(**vars(cga.run(ls.binval(3), 8, seed=1)))
    run.states, run.recorded_ks = states, np.arange(len(states)) * 2
    buf = io.StringIO()
    cga.trajectory_to_jsonl(run, buf)
    assert buf.getvalue().split("\n", 1)[1] == reference_jsonl_records(
        "k", run.recorded_ks.tolist(), states)

    times = np.linspace(0.0, 3.0, len(states))
    flow = replace(ode.integrate(ls.binval(3), np.full(3, 0.5), h=0.5, T=1.0),
                   times=times, states=states)
    buf = io.StringIO()
    ode.ode_to_jsonl(flow, buf)
    assert buf.getvalue().split("\n", 1)[1] == reference_jsonl_records("t", times.tolist(), states)


def _csv_body(path) -> str:
    return "".join(l for l in path.read_text().splitlines(keepends=True) if not l.startswith("#"))


@pytest.mark.parametrize("spec_args, spec, grid", [
    (["--spec", "binval", "--n", "2"], ls.binval(2), 5),
    (["--spec", "random_injective", "--n", "3", "--spec-seed", "4"], ls.random_injective(3, seed=4), 4),
    (None, ls.table_spec({"00": 3.0, "01": 1.0, "10": 3.0, "11": 4.0}), 6),
    (["--spec", "binval", "--n", "4"], ls.binval(4), 9),  # 6 561 rows: two CSV blocks
], ids=["binval2", "random3", "tied_table", "binval4_two_blocks"])
def test_cli_drift_csv_bytes(tmp_path, spec_args, spec, grid):
    if spec_args is None:
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(ls.spec_to_json_dict(spec)))
        spec_args = ["--spec-file", str(spec_file)]
    out = tmp_path / "grid.csv"
    assert cli_main(["drift", *spec_args, "--grid", str(grid), "--out", str(out)]) == 0
    assert _csv_body(out) == reference_drift_grid_csv(spec, grid)


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


# --- CLI ------------------------------------------------------------------------

def test_cli_classify_stdout(capsys):
    assert cli_main(["classify", "--spec", "binval", "--n", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "corner,fitness,local_max,verdict,eigenvalues,agreement"
    assert len(lines) == 9
    assert "# artifact_version:" in out


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
