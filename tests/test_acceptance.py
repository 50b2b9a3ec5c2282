"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with stated runtime budgets assert them.

Criterion 6b (interior Jacobian symmetry) asks whether the update field
is a gradient field, i.e. whether J = J^T at interior points, and answers
it against independent oracles rather than assuming it: every entry of
the numeric Jacobian must match the pair-enumeration oracle (and, on the
binary-value landscape, the closed form), and the asymmetry J - J^T must
match the oracle's. The answer is no. At p = (0.75, 0.5) on the 2-bit
binary-value landscape the exact field is
f = (2 p1 (1-p1), 2 p2 (1-p2) (p1^2 + (1-p1)^2)), whose Jacobian has
df1/dp2 = 0 but df2/dp1 = 0.5, so the criterion also asserts that the
symmetry fails by a clear margin.
"""

import json
import time

import numpy as np

from cgadyn import drift_field as dr
from cgadyn import harness as hn
from cgadyn import landscape as ls
from cgadyn import ode as od
from cgadyn.cli import cli_main

from conftest import (TWO_MAX_TABLE, binval_jacobian_closed_form, injective_suite,
                      pair_oracle_jacobian)


MASTER_SEED = 0


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def interior_points(rng, count, n):
    return 0.001 + 0.998 * rng.random((count, n))


def spec_pool(n_values):
    out = []
    for n in n_values:
        out.extend(injective_suite(n))
    return out


# --- 1: corner stationarity ---------------------------------------------------

def test_criterion_01_corner_stationarity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        corners = ls.all_bit_matrix(n).astype(np.float64)
        for spec in injective_suite(n):
            f = dr.drift(corners, spec)
            worst = max(worst, float(np.abs(f).max()))
    elapsed = time.perf_counter() - t0
    report("criterion 1: drift vanishes at every corner (n <= 6)",
           worst <= 1e-12 and elapsed < 10.0,
           f"max |f_i| = {worst:g}, {elapsed:.2f}s")


# --- 2: interior non-stationarity ----------------------------------------------

def test_criterion_02_interior_non_stationarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    smallest = np.inf
    for spec in spec_pool((2, 3, 4)):
        pts = interior_points(rng, 1000, spec.n)
        totals = np.abs(dr.drift(pts, spec)).sum(axis=-1)
        smallest = min(smallest, float(totals.min()))
    elapsed = time.perf_counter() - t0
    report("criterion 2: drift nonzero at 1000 random interior points per spec (n <= 4)",
           smallest > 1e-12 and elapsed < 10.0,
           f"min sum|f_i| = {smallest:g}, {elapsed:.2f}s")


# --- 3: the two drift routes agree ----------------------------------------------

def test_criterion_03_drift_route_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pick = int(rng.integers(0, 5))
        if pick == 4:
            spec = ls.table_spec(rng.permutation(1 << n).astype(float), n=n)
        else:
            spec = injective_suite(n)[pick if pick < 3 else 3]
        p = rng.random(n)
        worst = max(worst, float(np.abs(dr.drift(p, spec) - dr.drift_naive(p, spec)).max()))
    spot = dr.drift([0.5, 0.5], ls.binval(2))
    spot_ok = np.allclose(spot, [0.5, 0.25], atol=1e-12)
    report("criterion 3: prefix-sum and winner/loser drift routes agree",
           worst <= 1e-12 and spot_ok,
           f"max |diff| = {worst:g}, binval-2 center = {spot}")


# --- 4: winner + loser = 2 * sampling --------------------------------------------

def test_criterion_04_winner_loser_identity():
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        spec = injective_suite(n)[int(rng.integers(0, 4))]
        p = rng.random(n)
        gap = dr.winner_probs(p, spec) + dr.loser_probs(p, spec) - 2.0 * dr.sampling_probs(p, n)
        worst = max(worst, float(np.abs(gap).max()))
    report("criterion 4: winner + loser = 2 x sampling distribution",
           worst <= 1e-12, f"max |gap| = {worst:g}")


# --- 5: stability classification agrees with the local-max oracle -----------------

def _criterion5_specs():
    specs = [TWO_MAX_TABLE]
    for n in (2, 3, 4):
        specs.append(ls.binval(n))
        specs.append(ls.perturbed_onemax(n, 2.0 ** -n))
        specs.extend(ls.random_injective(n, seed=s) for s in range(20))
    return specs


def test_criterion_05_stability_classification():
    t0 = time.perf_counter()
    checked = 0
    for spec in _criterion5_specs():
        maxima = set(ls.enumerate_local_maxima(spec).indices.tolist())
        classified = hn.classify_all(spec)
        for i in range(1 << spec.n):
            corner = ls.index_to_bits(i, spec.n)
            # the flag the report's verdict column is written from
            assert classified.stable[i] == (i in maxima), (spec, corner)
            if i in maxima:
                jac = dr.jacobian_analytic(corner, spec)
                assert np.array_equal(jac, np.diag([-2.0] * spec.n)), (spec, corner)
            checked += 1
    elapsed = time.perf_counter() - t0
    report("criterion 5: corner stability = strict local maximality, eigenvalues -2",
           True, f"{checked} corners across {len(_criterion5_specs())} specs, {elapsed:.2f}s")


# --- 6: numeric Jacobian oracle ---------------------------------------------------

def test_criterion_06a_jacobian_matches_analytic_near_corners():
    h = 1e-5
    worst = 0.0
    for spec in (ls.binval(2), ls.binval(3), TWO_MAX_TABLE,
                 ls.perturbed_onemax(3, 0.125), ls.random_injective(3, seed=1)):
        for i in range(1 << spec.n):
            corner = np.asarray(ls.index_to_bits(i, spec.n), dtype=float)
            inside = np.where(corner > 0.5, 1.0 - 2 * h, 2 * h)
            gap = dr.jacobian_numeric(inside, spec, h) - dr.jacobian_analytic(
                ls.index_to_bits(i, spec.n), spec)
            worst = max(worst, float(np.abs(gap).max()))
    report("criterion 6a: finite differences reproduce the corner Jacobians",
           worst <= 1e-3, f"max |gap| = {worst:g}")


def test_criterion_06b_jacobian_symmetry_at_interior_points():
    # Each entry of J is checked against the oracles; the symmetry question
    # is then answered by them: the field is not a gradient field (see the
    # module docstring), so max |J - J^T| must be large, not zero.
    h = 1e-5
    rng = np.random.default_rng(MASTER_SEED + 6)
    worst_oracle = worst_closed = worst_asym_gap = 0.0
    asymmetry = 0.0
    for spec in (ls.binval(2), ls.binval(3), ls.random_injective(3, seed=2)):
        pts = 0.1 + 0.8 * rng.random((34, spec.n))
        for p in pts:
            J = dr.jacobian_numeric(p, spec, h)
            oracle = pair_oracle_jacobian(spec, p, h)
            worst_oracle = max(worst_oracle, float(np.abs(J - oracle).max()))
            if spec.kind == "binval":
                closed = binval_jacobian_closed_form(p)
                worst_closed = max(worst_closed, float(np.abs(J - closed).max()))
            worst_asym_gap = max(worst_asym_gap,
                                 float(np.abs((J - J.T) - (oracle - oracle.T)).max()))
            asymmetry = max(asymmetry, float(np.abs(J - J.T).max()))
    report("criterion 6b: interior Jacobian matches the oracles; not a gradient field",
           worst_oracle <= 1e-6 and worst_closed <= 1e-6 and worst_asym_gap <= 1e-6
           and asymmetry >= 0.1,
           f"max |J - oracle| = {worst_oracle:.2g}, max |J - closed form| = {worst_closed:.2g}, "
           f"max |asym - oracle asym| = {worst_asym_gap:.2g}, max |J - J^T| = {asymmetry:.4g}")


# --- 7: the flow converges to local maxima ------------------------------------------

def test_criterion_07_flow_reaches_local_maxima():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 7)
    starts_checked = 0
    for spec in spec_pool((2, 3, 4)):
        maxima = set(ls.enumerate_local_maxima(spec).indices.tolist())
        bits = ls.all_bit_matrix(spec.n)
        center = od.find_limit_many(spec, np.full((1, spec.n), 0.5))
        assert center.converged[0], spec
        assert center.corners[0] in maxima, spec  # never -1, the mark of no corner
        assert np.max(np.abs(dr.drift(center.states[0], spec))) < 1e-8
        assert np.linalg.norm(center.states[0] - bits[center.corners[0]]) < 1e-6

        batch = od.find_limit_many(spec, interior_points(rng, 100, spec.n))
        assert batch.converged.all(), spec
        assert set(batch.corners.tolist()) <= maxima, spec
        assert np.all(np.linalg.norm(batch.states - bits[batch.corners], axis=-1) < 1e-6), spec
        starts_checked += 101
    elapsed = time.perf_counter() - t0
    report("criterion 7: flow limits are local-max corners with ||f|| < 1e-8",
           elapsed < 60.0, f"{starts_checked} starts, {elapsed:.2f}s")


# --- 8: integrator accuracy -----------------------------------------------------------

def test_criterion_08_integrator_accuracy():
    exact = 1.0 / (1.0 + np.exp(-2.0))  # 0.880797...
    traj = od.integrate(ls.binval(1), [0.5], h=1e-3, T=1.0)
    err = abs(float(traj.states[-1][0]) - exact)
    errs = [abs(float(od.integrate(ls.binval(1), [0.5], h=h, T=1.0).states[-1][0]) - exact)
            for h in (0.05, 0.025)]
    ratio = errs[0] / errs[1]
    report("criterion 8: logistic value to 1e-6 at h=1e-3; halving h gives ~2^4",
           err <= 1e-6 and 8.0 <= ratio <= 32.0,
           f"X(1) err = {err:.3g}, order ratio = {ratio:.1f}")


# --- 9: squared speed along the flow --------------------------------------------------

def test_criterion_09_lyapunov_monotonicity():
    rng = np.random.default_rng(MASTER_SEED + 9)
    worst = np.inf
    for spec in spec_pool((2, 3, 4)):
        starts = np.vstack([np.full(spec.n, 0.5), interior_points(rng, 3, spec.n)])
        traj = od.integrate(spec, starts, h=1e-2, T=10.0)
        worst = min(worst, float(od.lyapunov_increments(traj).min()))
    big = od.integrate(ls.binval(8), np.full(8, 0.5), h=1e-2, T=5.0)
    worst = min(worst, float(od.lyapunov_increments(big).min()))
    report("criterion 9: line-integral increments f(X_k) . dX (squared speed) >= -1e-9",
           worst >= -1e-9, f"min increment = {worst:g}")


# --- 10: runs track the flow as the step shrinks -------------------------------------------

def test_criterion_10_weak_convergence_trend():
    t0 = time.perf_counter()
    cfg = hn.ExperimentConfig(
        spec=ls.binval(8), N_values=(32, 128, 512), runs_per_setting=100,
        T_horizon=5.0, master_seed=MASTER_SEED, output_dir="unused",
    )
    rows = hn.alpha_sweep(cfg)
    medians = [row.median_sup_distance for row in rows]
    elapsed = time.perf_counter() - t0
    decreasing = medians[0] > medians[1] > medians[2]
    # threshold frozen after a one-time N=2048 calibration run
    # (scripts/calibrate_alpha_sweep.py: medians 0.310 / 0.154 / 0.083 / 0.040)
    report("criterion 10: median sup distance falls with the step; < 0.15 at N=512",
           decreasing and medians[2] < 0.15 and elapsed < 300.0,
           f"medians = {[f'{m:.4f}' for m in medians]}, {elapsed:.1f}s")


# --- 11: Monte Carlo convergence -------------------------------------------------------------

def test_criterion_11_monte_carlo_convergence():
    t0 = time.perf_counter()
    cfg = hn.ExperimentConfig(
        spec=ls.binval(4), N_values=(64,), runs_per_setting=200,
        master_seed=MASTER_SEED, output_dir="unused",
    )
    setting = hn.monte_carlo(cfg).settings[0]
    terminated = sum(setting.convergence_counts.values())
    frac_top = setting.convergence_counts.get("1111", 0) / terminated

    cfg2 = hn.ExperimentConfig(
        spec=TWO_MAX_TABLE, N_values=(64,), runs_per_setting=500,
        master_seed=MASTER_SEED, output_dir="unused",
    )
    setting2 = hn.monte_carlo(cfg2).settings[0]
    corners2 = set(setting2.convergence_counts)
    elapsed = time.perf_counter() - t0
    report("criterion 11: >= 95% of runs reach 1111; table runs end at 00/11 only",
           frac_top >= 0.95 and corners2 <= {"00", "11"} and elapsed < 120.0,
           f"frac(1111) = {frac_top:.3f}, table corners = {sorted(corners2)}, {elapsed:.1f}s")


# --- 12: byte-identical reruns ------------------------------------------------------------------

def test_criterion_12_reproducible_outputs(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "random_injective", "n": 3, "seed": 11}))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "spec": {"kind": "binval", "n": 2},
        "N_values": [4, 8],
        "runs_per_setting": 6,
        "T_horizon": 1.0,
        "master_seed": 13,
        "output_dir": str(tmp_path / "campaign"),
    }))

    invocations = [
        ["run", "--spec", "binval", "--n", "3", "--N", "8", "--seed", "5",
         "--out", str(tmp_path / "traj.jsonl")],
        ["ode", "--spec-file", str(spec_file), "--step", "0.01", "--horizon", "2.0",
         "--out", str(tmp_path / "flow.jsonl")],
        ["drift", "--spec", "binval", "--n", "2", "--grid", "5",
         "--out", str(tmp_path / "grid.csv")],
        ["classify", "--spec-file", str(spec_file), "--out", str(tmp_path / "verdicts.csv")],
        ["localmaxima", "--spec-file", str(spec_file), "--out", str(tmp_path / "maxima.csv")],
        ["montecarlo", "--config", str(cfg_file)],
        ["alphasweep", "--config", str(cfg_file)],
    ]
    for argv in invocations:
        assert cli_main(argv) == 0, argv
    produced = sorted(p for p in tmp_path.rglob("*")
                      if p.is_file() and p not in (spec_file, cfg_file))
    first = {p: p.read_bytes() for p in produced}
    for argv in invocations:
        assert cli_main(argv) == 0, argv
    stable = all(p.read_bytes() == first[p] for p in produced)
    report("criterion 12: re-running every subcommand reproduces files byte for byte",
           stable, f"{len(produced)} files compared")
