"""Campaign runner: Monte Carlo convergence tallies, learning-step sweeps,
corner classification reports, and reproducible file output.

Every output file carries a provenance header (artifact version, master
seed, hash of the effective configuration) and contains no timestamps,
so re-running with the same configuration reproduces files byte for
byte. Reals are written with 17 significant digits and round-trip
exactly. Per-run seeds are derived as ``(master_seed, N, run_index)``,
so results do not depend on execution order and runs could be
dispatched concurrently without changing any output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from .cga import _MAX_N, _block_rows, _block_text, lockstep
from .drift_field import corner_spectra, drift
from .landscape import (
    FitnessSpec,
    _integer,
    enumerate_local_maxima,
    fitness_values,
    is_injective,
    place_values,
    require_injective,
    spec_from_json_dict,
    spec_to_json_dict,
)
from .ode import LockstepSupDistance, integrate


REAL_FMT = "%.17g"  # 17 significant digits: parses back to the same float


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


# every config field but "spec": its rule, and the test of its value (a
# JSON value, or a constructor argument: N_values may be a tuple there)
_CONFIG_FIELDS = {
    "N_values": (f"a nonempty list of distinct integers in [1, {_MAX_N}] (2N fits in int64)",
                 lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                 and all(_is_int(N) and 1 <= N <= _MAX_N for N in v) and len(set(v)) == len(v)),
    "runs_per_setting": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "T_horizon": ("a finite number >= 0", lambda v: _is_real(v) and v >= 0),
    "master_seed": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "output_dir": ("a path", lambda v: isinstance(v, (str, Path))),
    "ode_step": ("a finite number > 0", lambda v: _is_real(v) and v > 0),
    "max_iters": ("an integer >= 0 or null", lambda v: v is None or (_is_int(v) and v >= 0)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; fully determines every output byte.
    Frozen, so no field changes after its check."""

    spec: FitnessSpec
    N_values: tuple[int, ...] = (32,)
    runs_per_setting: int = 100
    T_horizon: float = 5.0
    master_seed: int = 0
    output_dir: Path = Path("outputs")
    ode_step: float = 1e-2
    max_iters: int | None = None

    def __post_init__(self):
        # the one check of a config's fields, however it is built, so every
        # config writes valid JSON (no NaN, no infinity) that reads back the same
        if not isinstance(self.spec, FitnessSpec):
            raise DomainError(f"config field 'spec' must be a FitnessSpec, got {self.spec!r}")
        for key, (rule, accepts) in _CONFIG_FIELDS.items():
            if not accepts(getattr(self, key)):
                raise DomainError(f"config field {key!r} must be {rule}, got {getattr(self, key)!r}")
        object.__setattr__(self, "N_values", tuple(self.N_values))
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def to_json_dict(self) -> dict:
        return {"spec": spec_to_json_dict(self.spec),
                **{key: getattr(self, key) for key in _CONFIG_FIELDS},
                "N_values": list(self.N_values), "output_dir": str(self.output_dir)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict) or "spec" not in obj:
            raise DomainError("config JSON must be an object with a 'spec' field")
        unknown = set(obj) - set(_CONFIG_FIELDS) - {"spec"}  # the constructor cannot see these
        if unknown:
            raise DomainError(f"unknown config fields: {sorted(unknown)}")
        kwargs = {k: obj[k] for k in _CONFIG_FIELDS if k in obj}
        return cls(spec=spec_from_json_dict(obj["spec"]), **kwargs)

    def config_hash(self) -> str:
        return hash_of(self.to_json_dict())


def run_seed(master_seed: int, N: int, run_index: int) -> tuple[int, int, int]:
    """Per-run entropy tuple; feeds numpy.random.SeedSequence."""
    return (int(master_seed), int(N), int(run_index))


def _campaign_runs(cfg: ExperimentConfig) -> tuple[np.ndarray, list]:
    """Every run of a campaign, N-major: each run's N and its seed
    ``run_seed(master_seed, N, run_index)``."""
    R = cfg.runs_per_setting
    return (np.repeat(cfg.N_values, R),
            [run_seed(cfg.master_seed, N, r) for N in cfg.N_values for r in range(R)])


def provenance(cfg_hash: str, master_seed) -> dict:
    return {
        "artifact_version": __version__,
        "config_hash": cfg_hash,
        "master_seed": master_seed,
    }


def hash_of(obj) -> str:
    """Short sha256 of any JSON-serializable object (canonical form)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _cell(value):
    """One CSV cell: a real in ``REAL_FMT``, a dict (a tally) as sorted-key
    JSON, anything else as csv.writer writes it (None becomes an empty
    cell)."""
    if isinstance(value, float):
        return REAL_FMT % value
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


def write_csv(fp, fieldnames, rows, header: dict | None = None, footer: list[str] | None = None):
    """Comment-prefixed provenance lines, then an RFC-style CSV table.

    ``rows`` is one of:

    - a list (or other iterable that is not an iterator) of rows of raw
      values, each cell written by one rule (:func:`_cell`);
    - an iterator of blocks, each written before the next is pulled: a 2-D
      float array, such as :func:`drift_grid_rows` yields, with every value
      in ``REAL_FMT``, or a block of rows already written as CSV text, as
      :meth:`ClassificationReport.write_csv` yields.

    A float block is written from its array by one pass of
    :func:`cgadyn.cga._block_text`: each distinct value is formatted once,
    and the block is joined once. Reals never need CSV quoting, so both
    paths give the same bytes for the same reals.
    """
    if header:
        for key in sorted(header):
            fp.write(f"# {key}: {header[key]}\n")
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(fieldnames)
    if isinstance(rows, Iterator):
        for block in rows:
            fp.write(block if isinstance(block, str) else _block_text(block, REAL_FMT, ",", "\n"))
    else:
        writer.writerows(map(_cell, row) for row in rows)
    for line in footer or ():
        fp.write(f"# {line}\n")


# ---------------------------------------------------------------------------
# Monte Carlo campaign
# ---------------------------------------------------------------------------

@dataclass
class SettingResult:
    """Aggregates for one N: where runs terminated and how fast."""

    N: int
    alpha: float
    convergence_counts: dict[str, int]
    non_terminated: int
    mean_iterations: float | None
    terminal_corners_are_local_maxima: bool | None


@dataclass
class CampaignResult:
    config: ExperimentConfig
    settings: list[SettingResult]
    theorem_scope: str  # "ok" for injective specs, "outside" otherwise


def monte_carlo(cfg: ExperimentConfig) -> CampaignResult:
    """Seeded runs from the center for each N, all in one lockstep; tally
    terminal corners, keyed by their bitstrings.

    Terminal corners are cross-referenced against the brute-force
    local-maxima report. Non-injective specs still run, but the result is
    labeled outside theorem scope and the cross-reference is skipped.
    """
    spec = cfg.spec
    injective = is_injective(spec)
    maxima = enumerate_local_maxima(spec).indices if injective else None

    # every run of every N in one lockstep
    R = cfg.runs_per_setting
    result = lockstep(spec, *_campaign_runs(cfg), max_iters=cfg.max_iters)
    settings = []
    for i, N in enumerate(cfg.N_values):
        ends = result[i * R:(i + 1) * R]
        # a terminated run's counts are 0 or 2N, so counts // 2N are its corner's bits
        corners, counts = np.unique(ends.counts[ends.terminated] // (2 * N) @ place_values(spec.n),
                                    return_counts=True)
        iters = ends.iterations[ends.terminated]
        settings.append(SettingResult(
            N=N,
            alpha=1.0 / (2 * N),
            convergence_counts={format(c, f"0{spec.n}b"): k
                                for c, k in zip(corners.tolist(), counts.tolist())},
            non_terminated=int(np.count_nonzero(~ends.terminated)),
            mean_iterations=float(np.mean(iters)) if iters.size else None,
            terminal_corners_are_local_maxima=(bool(np.isin(corners, maxima).all())
                                               if injective else None),
        ))
    return CampaignResult(config=cfg, settings=settings,
                          theorem_scope="ok" if injective else "outside")


# ---------------------------------------------------------------------------
# learning-step sweep
# ---------------------------------------------------------------------------

@dataclass
class AlphaSweepRow:
    N: int
    alpha: float
    median_sup_distance: float
    q90_sup_distance: float
    runs: int


def alpha_sweep(cfg: ExperimentConfig) -> list[AlphaSweepRow]:
    """For each N, measure how far seeded runs stray from the deterministic
    flow started at the same center, as sup distance over [0, T_horizon].
    The runs of every N share one lockstep."""
    if len(cfg.N_values) < 2:
        raise DomainError("alpha_sweep needs at least two N values")
    if not cfg.T_horizon > 0:
        raise DomainError("alpha_sweep needs a positive T_horizon")
    spec = cfg.spec
    T = cfg.T_horizon
    reference = integrate(spec, np.full(spec.n, 0.5), h=cfg.ode_step, T=T)

    # every run of every N in one lockstep, each up to its N's horizon; each
    # tracker refuses an N with too many jump times before any run
    R = cfg.runs_per_setting
    trackers = [LockstepSupDistance(reference, T, N, R) for N in cfg.N_values]

    def on_block(rows, k0, snaps, ends):
        # rows increase, so each N's runs are one slice of the block
        bounds = np.searchsorted(rows, np.arange(len(trackers) + 1) * R)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                trackers[i].update(rows[lo:hi] - i * R, k0, snaps[lo:hi], ends[lo:hi])

    result = lockstep(spec, *_campaign_runs(cfg),
                      max_iters=np.repeat([t.max_iters for t in trackers], R), on_block=on_block)
    rows = []
    for i, N in enumerate(cfg.N_values):
        dists = trackers[i].finish(result[i * R:(i + 1) * R])
        rows.append(AlphaSweepRow(
            N=N,
            alpha=1.0 / (2 * N),
            median_sup_distance=float(np.median(dists)),
            q90_sup_distance=float(np.quantile(dists, 0.9)),
            runs=R,
        ))
    return rows


# ---------------------------------------------------------------------------
# corner classification report
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = ("corner", "fitness", "local_max", "verdict", "eigenvalues", "agreement")
_VERDICTS = ("unstable", "asymptotically_stable")  # indexed by the stable flag


@dataclass
class ClassificationReport:
    """The corner report, held as arrays with one entry per corner index:
    ``fitness`` (the spec's ``fitness_values``), and the ``eigenvalues``
    (2^n, n) and ``local_max`` flags of ``corner_spectra``. The counts and
    the CSV table are taken from the arrays; no object is made per corner.
    """

    spec: FitnessSpec
    fitness: np.ndarray
    eigenvalues: np.ndarray
    local_max: np.ndarray

    @property
    def stable(self) -> np.ndarray:
        """A corner is asymptotically stable iff every eigenvalue of its
        Jacobian is negative, and unstable otherwise."""
        return (self.eigenvalues < 0).all(axis=1)

    @property
    def agreement_count(self) -> int:
        return int(np.count_nonzero(self.stable == self.local_max))

    @property
    def all_agree(self) -> bool:
        return self.agreement_count == len(self.fitness)

    def write_csv(self, fp, header: dict | None = None) -> None:
        """One row per corner as a CSV table (:func:`write_csv`) with the
        columns ``_REPORT_COLUMNS``, and the agreement count as its footer.
        The table is written a block at a time from the arrays, n + 5
        cells to a row (:func:`cgadyn.cga._block_rows`): each real in
        ``REAL_FMT``, and a corner's eigenvalues joined by ``;`` through
        :func:`cgadyn.cga._block_text`."""
        summary = f"agreement: {self.agreement_count}/{len(self.fitness)}" + (
            " (100%)" if self.all_agree else " (MISMATCH)"
        )
        write_csv(fp, _REPORT_COLUMNS, self._text_blocks(), header=header, footer=[summary])

    def _text_blocks(self) -> Iterator[str]:
        bits = f"0{self.spec.n}b"
        all_stable = self.stable
        # corner, fitness, local_max and verdict lead the n eigenvalues, and
        # the agreement ends the row
        step = _block_rows(self.spec.n + 5)
        for lo in range(0, len(self.fitness), step):
            hi = lo + step
            stable, is_max = all_stable[lo:hi], self.local_max[lo:hi]
            lead = ["%s,%s,%s,%s," % (format(i, bits), REAL_FMT % fitness, m, _VERDICTS[s])
                    for i, fitness, m, s in zip(range(lo, hi), self.fitness[lo:hi].tolist(),
                                                is_max.tolist(), stable.tolist())]
            agreement = np.where(stable == is_max, "True\n", "False\n").tolist()
            yield _block_text(self.eigenvalues[lo:hi], REAL_FMT, ";", ",", lead, agreement)


def classify_all(spec: FitnessSpec) -> ClassificationReport:
    """The corner report of an injective spec, from one ``corner_spectra``
    call: each corner's fitness, local-max flag and eigenvalues, its
    stability verdict, and whether the two agree (stable iff local
    maximum)."""
    require_injective(spec, "classify_all")
    eigs, local_max = corner_spectra(spec)
    return ClassificationReport(spec=spec, fitness=fitness_values(spec), eigenvalues=eigs,
                                local_max=local_max)


# ---------------------------------------------------------------------------
# drift grid export
# ---------------------------------------------------------------------------

_GRID_MAX_ROWS = 1_000_000


def drift_grid_rows(spec: FitnessSpec, resolution: int) -> Iterator[np.ndarray]:
    """Cartesian grid over [0,1]^n with `resolution` points per axis, the
    last axis varying fastest, as an iterator of ``(rows, 2n)`` blocks of
    ``cga._block_rows(2n)`` rows (the last may be shorter) whose rows are
    (p_1..p_n, f_1..f_n).

    A refused resolution (below 2, or a grid of more than
    ``_GRID_MAX_ROWS`` points) raises DomainError here, before any block is
    built, so a caller that asks for the blocks before opening its output
    leaves no file behind. Each block is built only when it is pulled, so
    a consumer that writes a block before pulling the next holds one block
    at a time. Drift rows do not depend on the batch, so the blocks equal
    one call over the whole grid.
    """
    resolution = _integer(resolution, "grid resolution")
    if resolution < 2:
        raise DomainError(f"grid resolution must be >= 2, got {resolution}")
    total = resolution ** spec.n
    if total > _GRID_MAX_ROWS:
        raise DomainError(
            f"grid of {total} points exceeds the {_GRID_MAX_ROWS} row limit; lower the resolution"
        )
    return _grid_blocks(spec, resolution, total)


def _grid_blocks(spec: FitnessSpec, resolution: int, total: int) -> Iterator[np.ndarray]:
    n = spec.n
    axis = np.linspace(0.0, 1.0, resolution)
    step = _block_rows(2 * n)
    # a drift call holds about four (rows, 2^n) tables; in calls of one budget
    # they stay small enough for malloc to reuse instead of handing back to the OS
    sub_rows = _block_rows(4 << n)
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total))
        block = np.empty((index.size, 2 * n))
        for j in range(n):  # column j is digit j of the row index in base `resolution`
            block[:, j] = axis.take(index // resolution ** (n - 1 - j) % resolution)
        for sub in range(0, index.size, sub_rows):
            rows = block[sub:sub + sub_rows]
            rows[:, n:] = drift(rows[:, :n], spec)
        yield block
