"""The four benchmark workloads.

Each workload is built from the benchmark seed, which feeds every master
seed and start point it uses. It has three phases:

* ``setup`` builds the fitness specs and makes the first
  ``fitness_values`` and ``drift`` call per spec, so that the package's
  per-spec caches are filled before anything is timed;
* ``segments`` is one timed repetition, split at its entry calls: the
  segments run in order, from the first entry call until the last
  artifact is written. Every repetition of a run uses the same inputs
  and must write the same bytes;
* ``check`` compares the written artifacts with the oracles in
  ``oracle.py``; ``planned_checks`` says how many checks it makes, so that
  an exception can fail all of the remaining ones.

Entry points are looked up on their module at call time
(``cli.cli_main``, ``ode.find_limit_many``, ``harness.classify_all``) so
that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from cgadyn import cli, drift_field, harness, landscape, ode

import oracle

TWO_MAX = {"kind": "table", "n": 2, "table": {"00": 3.0, "01": 1.0, "10": 2.0, "11": 4.0}}


class Checks:
    """Tally of oracle checks; each one is a single pass/fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    def fail_remaining(self, planned: int, label: str) -> None:
        remaining = max(planned - self.attempted, 0)
        self.attempted += remaining
        self.failed += remaining
        self.failures.append(f"{label} ({remaining} checks not run)")


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"cgadyn {' '.join(argv)} exited with {code}")


def _warm(spec) -> float:
    """First fitness_values and drift call for a spec; returns the fitness_values seconds."""
    t0 = time.perf_counter()
    landscape.fitness_values(spec)
    t1 = time.perf_counter()
    drift_field.drift(np.full(spec.n, 0.5), spec)
    return t1 - t0


def _read_csv(path: Path):
    """(column names, data rows) of a cgadyn CSV file, without its # lines."""
    with open(path, newline="") as fp:
        rows = list(csv.reader(line for line in fp if not line.startswith("#")))
    return rows[0], rows[1:]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, out: Path):
        self.seed = int(seed)
        self.out = out
        self.art = out / "art"

    def setup(self) -> float:
        """Build specs and fill the caches; returns cold fitness_values seconds."""
        return sum(_warm(spec) for spec in self.build_specs())

    def build_specs(self) -> list:
        raise NotImplementedError

    def write_inputs(self) -> None:
        self.art.mkdir(parents=True, exist_ok=True)

    def segments(self) -> list:
        """Zero-argument callables, one per entry call, run in order."""
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        return sorted(p for p in self.art.rglob("*") if p.is_file())

    def planned_checks(self) -> int:
        raise NotImplementedError

    def check(self, chk: Checks) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class SweepBinval8(Workload):
    name = "sweep_binval8"
    why = ("criterion 10 (claim a): cgadyn alphasweep on binval n=8, N=32/128/512, T=5; "
           "fixed-horizon cga.run dominates, drift barely runs")
    N_VALUES = (32, 128, 512)
    RUNS = 7  # medians of 7 keep the strict-decrease check safe for any seed

    def build_specs(self):
        return [landscape.binval(8)]

    def write_inputs(self):
        super().write_inputs()
        self.config = self.out / "sweep.json"
        self.config.write_text(json.dumps({
            "spec": {"kind": "binval", "n": 8},
            "N_values": list(self.N_VALUES),
            "runs_per_setting": self.RUNS,
            "T_horizon": 5.0,
            "ode_step": 0.01,
            "master_seed": self.seed,
            "output_dir": str(self.art),
        }))

    def segments(self):
        return [lambda: _cli(["alphasweep", "--config", str(self.config)])]

    def planned_checks(self):
        return 2 + 5 * len(self.N_VALUES)

    def check(self, chk):
        summary = json.loads((self.art / "alpha_sweep_summary.json").read_text())
        rows = summary["rows"]
        chk.check([r["N"] for r in rows] == list(self.N_VALUES)
                  and all(r["runs"] == self.RUNS for r in rows), "sweep rows and run counts")
        names, table = _read_csv(self.art / "alpha_sweep.csv")
        chk.check(names == ["N", "alpha", "median_sup_distance", "q90_sup_distance", "runs"]
                  and [[int(t[0])] + [float(x) for x in t[1:4]] + [int(t[4])] for t in table]
                  == [[r["N"], r["alpha"], r["median_sup_distance"], r["q90_sup_distance"],
                       r["runs"]] for r in rows], "CSV parses back to the summary rows")
        bound = math.sqrt(8)
        for r in rows:
            chk.check(r["alpha"] == 1.0 / (2 * r["N"]), f"alpha at N={r['N']}")
            for key in ("median_sup_distance", "q90_sup_distance"):
                v = r[key]
                chk.check(math.isfinite(v) and 0.0 <= v <= bound, f"{key} at N={r['N']} in [0, sqrt n]")
            chk.check(r["q90_sup_distance"] >= r["median_sup_distance"], f"q90 >= median at N={r['N']}")
        medians = [r["median_sup_distance"] for r in rows]
        for a, b, N in zip(medians, medians[1:], self.N_VALUES[1:]):
            chk.check(a > b, f"median falls at N={N}: {a} > {b}")
        chk.check(medians[-1] < 0.15, f"median at N=512 below 0.15: {medians[-1]}")


class TallyAbsorb(Workload):
    name = "tally_absorb"
    why = ("criterion 11 (claim b): cgadyn montecarlo at N=64 on binval n=4 and the two-max "
           "table; ragged runs to absorption, every snapshot kept, no ODE work")
    N = 64
    RUNS = 100

    def build_specs(self):
        return [landscape.binval(4), landscape.spec_from_json_dict(TWO_MAX)]

    def write_inputs(self):
        super().write_inputs()
        self.configs = {}
        for label, spec in (("binval4", {"kind": "binval", "n": 4}), ("twomax", TWO_MAX)):
            path = self.out / f"{label}.json"
            path.write_text(json.dumps({
                "spec": spec, "N_values": [self.N], "runs_per_setting": self.RUNS,
                "master_seed": self.seed, "output_dir": str(self.art / label),
            }))
            self.configs[label] = (path, spec)

    def segments(self):
        return [lambda path=path: _cli(["montecarlo", "--config", str(path)])
                for path, _ in self.configs.values()]

    def planned_checks(self):
        return len(self.configs) * (3 + self.RUNS) + 2

    def check(self, chk):
        for label, (_, spec) in self.configs.items():
            n = spec["n"]
            maxima = oracle.strict_local_maxima(oracle.fitness_table(spec), n)
            setting = json.loads((self.art / label / "montecarlo_summary.json").read_text())
            setting = setting["settings"][0]
            chk.check(setting["N"] == self.N and setting["alpha"] == 1.0 / (2 * self.N),
                      f"{label}: N and alpha")
            counts = setting["convergence_counts"]
            ends = [corner for corner, k in sorted(counts.items()) for _ in range(k)]
            ends += ["not terminated"] * setting["non_terminated"]
            chk.check(len(ends) == self.RUNS, f"{label}: {len(ends)} run outcomes for {self.RUNS} runs")
            ends = (ends + ["missing"] * self.RUNS)[:self.RUNS]
            for i, end in enumerate(ends):
                chk.check(end in maxima, f"{label}: run outcome {end} is not an oracle local maximum")
            names, table = _read_csv(self.art / label / "montecarlo_settings.csv")
            chk.check(names[:4] == ["N", "alpha", "convergence_counts", "non_terminated"]
                      and len(table) == 1 and json.loads(table[0][2]) == counts
                      and int(table[0][3]) == setting["non_terminated"],
                      f"{label}: settings CSV parses back to the summary")
            if label == "binval4":
                chk.check(counts.get("1111", 0) >= 0.95 * self.RUNS, "binval4: >= 95% reach 1111")
            else:
                chk.check(set(counts) <= {"00", "11"}, f"twomax: ends only at 00/11, got {sorted(counts)}")


class FlowLimits(Workload):
    name = "flow_limits"
    why = ("criterion 7 and 5 (claim b): find_limit_many on every injective family at n=2-4, "
           "a short-horizon n=12 batch and classify_all at n=12; no cga")
    STARTS = 16
    SHORT_ROWS = 8
    SHORT_T = 0.25
    H = 0.01

    def build_specs(self):
        pool = []
        for n in (2, 3, 4):
            pool += [
                landscape.binval(n),
                landscape.linear([0.75 * 2.0 ** (n - i) for i in range(1, n + 1)]),
                landscape.perturbed_onemax(n, 2.0 ** -n),
                landscape.random_injective(n, seed=100 + n),
            ]
            if n == 2:
                pool.append(landscape.spec_from_json_dict(TWO_MAX))
        self.pool = pool
        self.big = landscape.random_injective(12, seed=112)
        return pool + [self.big]

    def write_inputs(self):
        super().write_inputs()
        self.build_specs()
        rng = np.random.default_rng(self.seed)
        self.starts = [0.001 + 0.998 * rng.random((self.STARTS, s.n)) for s in self.pool]
        self.short_starts = 0.001 + 0.998 * rng.random((self.SHORT_ROWS, self.big.n))

    def segments(self):
        limits = []

        def limit(spec, starts):
            limits.append(self._batch_json(spec, ode.find_limit_many(spec, starts)))

        def short():
            batch = ode.find_limit_many(self.big, self.short_starts, T_max=self.SHORT_T, h=self.H)
            with open(self.art / "limits.json", "w") as fp:
                json.dump({"pool": limits, "short": self._batch_json(self.big, batch)}, fp)
                fp.write("\n")

        def classify():
            report = harness.classify_all(self.big)
            with open(self.art / "classify_n12.csv", "w") as fp:
                report.write_csv(fp)

        return [lambda spec=spec, starts=starts: limit(spec, starts)
                for spec, starts in zip(self.pool, self.starts)] + [short, classify]

    @staticmethod
    def _batch_json(spec, batch):
        return {"spec": landscape.spec_to_json_dict(spec),
                "states": batch.states.tolist(),
                "converged": batch.converged.tolist(),
                "t_stop": batch.t_stop.tolist()}

    def planned_checks(self):
        return len(self.pool) * self.STARTS + self.SHORT_ROWS + 1 + (1 << self.big.n)

    def check(self, chk):
        data = json.loads((self.art / "limits.json").read_text())
        for entry in data["pool"]:
            spec = entry["spec"]
            n = spec["n"]
            maxima = oracle.strict_local_maxima(oracle.fitness_table(spec), n)
            for state, converged in zip(entry["states"], entry["converged"]):
                corner = (np.asarray(state) >= 0.5).astype(float)
                label = "".join(str(int(b)) for b in corner)
                chk.check(converged and label in maxima
                          and float(np.linalg.norm(np.asarray(state) - corner)) < 1e-6,
                          f"{spec['kind']} n={n}: start ends at {label}, not within 1e-6 of a local maximum")

        short = data["short"]
        values = oracle.fitness_table(short["spec"])
        field = lambda x: oracle.drift(values, self.big.n, x)
        for start, state, t_stop in zip(self.short_starts, short["states"], short["t_stop"]):
            expect, _ = oracle.rk4(field, start[None, :], self.H, int(round(t_stop / self.H)))
            gap = float(np.max(np.abs(expect[-1][0] - np.asarray(state))))
            chk.check(gap < 1e-9, f"short-horizon row differs from the oracle flow by {gap}")

        n = self.big.n
        values = oracle.fitness_table(landscape.spec_to_json_dict(self.big))
        maxima = oracle.strict_local_maxima(values, n)
        names, rows = _read_csv(self.art / "classify_n12.csv")
        chk.check(names == ["corner", "fitness", "local_max", "verdict", "eigenvalues", "agreement"]
                  and len(rows) == 1 << n, f"classify_all wrote {len(rows)} rows")
        rows = (rows + [[""] * 6] * (1 << n))[: 1 << n]
        for i, (corner, fitness, local_max, verdict, _, agreement) in enumerate(rows):
            want = oracle.bitstring(i, n)
            is_max = want in maxima
            chk.check(corner == want and float(fitness or "nan") == values[i]
                      and local_max == str(is_max) and agreement == "True"
                      and (verdict == "asymptotically_stable") == is_max,
                      f"classify row {i} ({corner}) disagrees with the oracle")


class ExportIO(Workload):
    name = "export_io"
    why = ("serialization: cgadyn drift grid CSV (binval n=4, grid 21, 27 MB, one 194k-row "
           "drift batch), cgadyn run JSON-lines to absorption, cgadyn ode JSON-lines")
    GRID = 21
    SAMPLED_ROWS = 32

    def build_specs(self):
        return [landscape.binval(4), landscape.binval(8)]

    def write_inputs(self):
        super().write_inputs()
        self.sampled = np.random.default_rng(self.seed).choice(self.GRID ** 4, self.SAMPLED_ROWS,
                                                               replace=False)

    def segments(self):
        argvs = [
            ["drift", "--spec", "binval", "--n", "4", "--grid", str(self.GRID),
             "--out", str(self.art / "grid.csv")],
            ["run", "--spec", "binval", "--n", "8", "--N", "512", "--seed", str(self.seed),
             "--out", str(self.art / "run.jsonl")],
            ["ode", "--spec", "binval", "--n", "8", "--step", "0.01", "--horizon", "5",
             "--out", str(self.art / "flow.jsonl")],
        ]
        return [lambda argv=argv: _cli(argv) for argv in argvs]

    def planned_checks(self):
        return 4 + 16 + self.SAMPLED_ROWS + 6 + 4

    def check(self, chk):
        self._check_grid(chk)
        self._check_run(chk)
        self._check_flow(chk)

    def _check_grid(self, chk):
        n, g = 4, self.GRID
        axis = np.linspace(0.0, 1.0, g)
        want = set(int(i) for i in self.sampled)
        corners, sampled = [], {}
        count = parsed = on_grid = 0
        with open(self.art / "grid.csv", newline="") as fp:
            reader = csv.reader(line for line in fp if not line.startswith("#"))
            header_ok = next(reader) == [f"p_{i}" for i in range(1, n + 1)] + [f"f_{i}" for i in range(1, n + 1)]
            for index, row in enumerate(reader):
                count = index + 1
                try:
                    values = [float(x) for x in row]
                except ValueError:
                    continue
                if len(values) != 2 * n:
                    continue
                parsed += 1
                digits = [(index // g ** (n - 1 - k)) % g for k in range(n)]
                on_grid += values[:n] == [axis[d] for d in digits]
                if all(d in (0, g - 1) for d in digits):
                    corners.append(values[n:])
                if index in want:
                    sampled[index] = values
        chk.check(header_ok, "grid CSV column names")
        chk.check(count == g ** n, f"grid CSV has {count} rows, want {g ** n}")
        chk.check(parsed == count, f"{count - parsed} grid rows do not parse as {2 * n} reals")
        chk.check(on_grid == count, f"{count - on_grid} grid rows are off the {g}-point grid")
        for f in (corners + [None] * 16)[:16]:
            chk.check(f is not None and all(v == 0.0 for v in f), "drift is not zero at a grid corner")
        spec = landscape.binval(n)
        for i in sorted(want):
            row = sampled.get(i)
            ok = row is not None
            if ok:
                p, f = np.asarray(row[:n]), np.asarray(row[n:])
                ok = (np.max(np.abs(f - oracle.binval_drift(p))) < 1e-12
                      and np.max(np.abs(f - drift_field.drift_naive(p, spec))) < 1e-12)
            chk.check(ok, f"grid row {i} does not match the closed form and drift_naive")

    def _check_run(self, chk):
        lines = (self.art / "run.jsonl").read_text().splitlines()
        head = json.loads(lines[0])
        chk.check(head["format"] == "cga-trajectory" and head["n"] == 8 and head["N"] == 512
                  and head["seed"] == self.seed and head["record_every"] == 1, "run header")
        records = [json.loads(line) for line in lines[1:]]
        iterations = head["iterations"]
        chk.check([r["k"] for r in records] == list(range(iterations + 1)),
                  "run records k = 0 .. iterations")
        counts = np.asarray([r["p"] for r in records]) * 1024
        chk.check(np.array_equal(counts, np.rint(counts)) and counts.min() >= 0 and counts.max() <= 1024,
                  "run states on the 1/1024 grid in [0, 1]")
        chk.check(np.all(counts[0] == 512), "run starts at the centre")
        # two samples, winner - loser: each locus moves by at most one grid step
        chk.check(np.all(np.abs(np.diff(counts, axis=0)) <= 1), "run moves by at most 1/(2N) per locus")
        maxima = oracle.strict_local_maxima(oracle.fitness_table({"kind": "binval", "n": 8}), 8)
        final = "".join(str(int(c // 1024)) for c in counts[-1])
        chk.check(head["terminated"] and np.all((counts[-1] == 0) | (counts[-1] == 1024))
                  and final in maxima, f"run ends at {final}, not an oracle local maximum")

    def _check_flow(self, chk):
        lines = (self.art / "flow.jsonl").read_text().splitlines()
        head = json.loads(lines[0])
        chk.check(head["format"] == "ode-trajectory" and head["n"] == 8 and head["h"] == 0.01
                  and head["T"] == 5.0, "ode header")
        records = [json.loads(line) for line in lines[1:]]
        chk.check(len(records) == 501 and all(abs(r["t"] - 0.01 * k) < 1e-12 for k, r in enumerate(records)),
                  "ode records on the 0.01 time grid up to 5")
        expect, clamps = oracle.rk4(oracle.binval_drift, np.full(8, 0.5), 0.01, 500)
        got = np.asarray([r["p"] for r in records])
        gap = float(np.max(np.abs(got - expect))) if got.shape == expect.shape else math.inf
        chk.check(gap < 1e-10, f"ode states differ from the oracle flow by {gap}")
        chk.check(head["clamp_count"] == clamps, "ode clamp count")


WORKLOADS = {w.name: w for w in (SweepBinval8, TallyAbsorb, FlowLimits, ExportIO)}
