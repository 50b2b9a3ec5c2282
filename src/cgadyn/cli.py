"""Command-line interface.

Subcommands::

    run         one seeded stochastic trajectory, JSON lines
    drift       expected-update field on a grid, CSV
    ode         integrate the deterministic flow from the center, JSON lines
    classify    per-corner stability vs local-maximum report, CSV
    localmaxima brute-force local maxima of a fitness, CSV
    montecarlo  seeded convergence campaign, files under the output dir
    alphasweep  trajectory-vs-flow distance across learning steps, files

Each subcommand is declared once, in ``build_parser``: its own flags and
the handler it runs. Every subcommand also takes the spec flags and
``--config FILE`` with an experiment-config JSON object. A flag's argparse
dest is the spec or config field it sets; a config flag given overrides
the file's value, and ``ExperimentConfig.from_json_dict`` reads the
result, checking every config field by its rule in
``harness._CONFIG_FIELDS``. Exit codes: 0 success, 1 validation/usage
error (diagnostic on stderr), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cga import run as cga_run, trajectory_to_jsonl
from .harness import (
    _CONFIG_FIELDS,
    ExperimentConfig,
    alpha_sweep,
    classify_all,
    drift_grid_rows,
    hash_of,
    monte_carlo,
    provenance,
    write_csv,
)
from .landscape import (
    _KINDS,
    FitnessSpec,
    enumerate_local_maxima,
    fitness_values,
    spec_from_json_dict,
    spec_to_json_dict,
)
from .ode import integrate, ode_to_jsonl

_SPEC_FIELDS = {field.name for field in fields(FitnessSpec)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _add_subcommand(sub, name: str, handler, help: str) -> _Parser:
    """The subparser of one subcommand, bound to its handler, with the flags
    every subcommand takes: the spec flags, each with the spec JSON field it
    sets as its dest, and ``--config``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    source = p.add_mutually_exclusive_group()
    kind = source.add_argument("--spec", dest="kind", help="built-in fitness kind")
    source.add_argument("--spec-file", type=Path, help="JSON file with a fitness spec object")
    flags = [p.add_argument("--n", type=int, help="solution length"),
             p.add_argument("--epsilon", type=float, help="perturbation size"),
             p.add_argument("--weights", type=lambda text: [float(w) for w in text.split(",")],
                            help="comma-separated locus weights"),
             p.add_argument("--spec-seed", type=int, dest="seed", metavar="SPEC_SEED",
                            help="spec seed (its spec field 'seed')")]
    # --spec offers each kind whose fields all have a flag; the rest need a file
    given = {flag.dest for flag in flags}
    kind.choices = [k for k, names in _KINDS.items() if given.issuperset(names)]
    p.add_argument("--config", type=Path, help="experiment-config JSON file")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="cgadyn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cgadyn {__version__}")
    parser.set_defaults(handler=_missing_subcommand)
    sub = parser.add_subparsers(dest="command")

    p = _add_subcommand(sub, "run", _cmd_run, "one stochastic trajectory (JSON lines)")
    p.add_argument("--N", type=int, nargs=1, dest="N_values", metavar="N",
                   help="grid resolution; learning step is 1/(2N)")
    p.add_argument("--seed", type=int, dest="master_seed", help="run seed")
    p.add_argument("--max-iters", type=int, help="iteration budget")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", type=Path, help="output file (default: stdout)")

    p = _add_subcommand(sub, "drift", _cmd_drift, "expected-update field on a grid (CSV)")
    p.add_argument("--grid", type=int, default=11, help="points per axis")
    p.add_argument("--out", type=Path)

    p = _add_subcommand(sub, "ode", _cmd_ode, "integrate the deterministic flow (JSON lines)")
    p.add_argument("--step", type=float, dest="ode_step", help="integrator step size")
    p.add_argument("--horizon", type=float, dest="T_horizon", help="integration horizon T")
    p.add_argument("--out", type=Path)

    p = _add_subcommand(sub, "classify", _cmd_classify, "corner stability report (CSV)")
    p.add_argument("--out", type=Path)

    p = _add_subcommand(sub, "localmaxima", _cmd_localmaxima, "brute-force local maxima (CSV)")
    p.add_argument("--out", type=Path)

    p = _add_subcommand(sub, "montecarlo", _cmd_montecarlo, "seeded convergence campaign")
    p.add_argument("--N", type=int, action="append", dest="N_values",
                   help="grid resolution (repeatable)")
    p.add_argument("--runs", type=int, dest="runs_per_setting", help="runs per setting")
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", type=Path, dest="output_dir", help="output directory")

    p = _add_subcommand(sub, "alphasweep", _cmd_alphasweep,
                        "trajectory-vs-flow distances per learning step")
    p.add_argument("--N", type=int, action="append", dest="N_values",
                   help="grid resolution (repeatable, need at least two)")
    p.add_argument("--runs", type=int, dest="runs_per_setting")
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--horizon", type=float, dest="T_horizon", help="comparison horizon T")
    p.add_argument("--step", type=float, dest="ode_step", help="integrator step size")
    p.add_argument("--out", type=Path, dest="output_dir", help="output directory")
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process. Parsing leaves it unchanged, and a parser is a
    web of reference cycles: building one per call takes about 2 ms and
    leaves garbage that only a full collection frees."""
    return build_parser()


# ---------------------------------------------------------------------------
# argument resolution
# ---------------------------------------------------------------------------

def _read_json(path: Path, what: str):
    """The JSON value in the file at ``path``; ``what`` names it if malformed."""
    try:
        with open(path) as fp:
            return json.load(fp)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed {what} JSON in {path}: {exc}") from exc


def _spec_object(args, cfg: dict):
    """The spec JSON object from --spec-file, the --spec flags (whose dests
    are the fields of a spec object) or the config; a config's spec that a
    file or flags replace is still checked, first."""
    if args.spec_file is None and args.kind is None:
        if "spec" not in cfg:
            raise _UsageError("no fitness spec: use --spec/--spec-file or a config file")
        return cfg["spec"]
    if "spec" in cfg:
        spec_from_json_dict(cfg["spec"])
    if args.spec_file is not None:
        return _read_json(args.spec_file, "spec")
    return {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS and v is not None}


def _config(args, needs_N: bool = False) -> ExperimentConfig:
    """The config read by ``ExperimentConfig.from_json_dict`` from one object:
    the config file's fields, each flag given on top of them (a flag's
    argparse dest is the name of the field it sets), and the chosen spec."""
    cfg = {} if args.config is None else _read_json(args.config, "config")
    if not isinstance(cfg, dict):
        raise _UsageError(f"config file {args.config} must contain a JSON object")
    obj = {**cfg, **{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None},
           "spec": _spec_object(args, cfg)}
    if needs_N and "N_values" not in obj:
        raise _UsageError("run needs --N")
    return ExperimentConfig.from_json_dict(obj)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _missing_subcommand(args) -> int:
    raise _UsageError("missing subcommand (see --help)")


def _write_files(writers: dict) -> None:
    """Write each file ``path`` of ``writers`` by its ``write(fp)``. Every file
    is built beside its path and moved onto it once all of them are whole,
    so a failure while any is built leaves every path as it was, and no
    partial file behind."""
    partials = {path: path.with_name(f".{path.name}.{os.getpid()}.partial") for path in writers}
    try:
        for path, write in writers.items():
            with open(partials[path], "w") as fp:
                write(fp)
        for path, partial in partials.items():
            os.replace(partial, path)
    except BaseException:
        for partial in partials.values():
            partial.unlink(missing_ok=True)
        raise


def _write_artifact(args, config: ExperimentConfig, settings: dict, write) -> int:
    """Write a single-spec subcommand's artifact by ``write(fp, header)``; the
    header hashes the command, the spec and ``settings``, with the master seed."""
    effective = {"command": args.command, "spec": spec_to_json_dict(config.spec), **settings}
    header = provenance(hash_of(effective), config.master_seed)
    if args.out is None:
        write(sys.stdout, header)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        _write_files({args.out: lambda fp: write(fp, header)})
    return 0


def _cmd_run(args) -> int:
    config = _config(args, needs_N=True)  # no default N for one run
    N, seed, max_iters = config.N_values[0], config.master_seed, config.max_iters
    traj = cga_run(config.spec, N, seed=seed, max_iters=max_iters, record_every=args.record_every)
    settings = {"N": N, "seed": seed, "max_iters": max_iters, "record_every": args.record_every}
    return _write_artifact(args, config, settings,
                           lambda fp, header: trajectory_to_jsonl(traj, fp, extra_header=header))


def _cmd_drift(args) -> int:
    config = _config(args)
    n = config.spec.n
    names = [f"p_{i+1}" for i in range(n)] + [f"f_{i+1}" for i in range(n)]
    # the grid is checked before the output is opened, so a refused grid
    # writes no file; its blocks are built one at a time as write_csv pulls them
    blocks = drift_grid_rows(config.spec, args.grid)
    return _write_artifact(args, config, {"grid": args.grid},
                           lambda fp, header: write_csv(fp, names, blocks, header=header))


def _cmd_ode(args) -> int:
    config = _config(args)
    h, T = config.ode_step, config.T_horizon
    traj = integrate(config.spec, np.full(config.spec.n, 0.5), h=h, T=T)
    return _write_artifact(args, config, {"h": h, "T": T},
                           lambda fp, header: ode_to_jsonl(traj, fp, extra_header=header))


def _cmd_classify(args) -> int:
    config = _config(args)
    return _write_artifact(args, config, {}, classify_all(config.spec).write_csv)


def _cmd_localmaxima(args) -> int:
    config = _config(args)
    report = enumerate_local_maxima(config.spec)
    rows = list(zip([format(i, f"0{config.spec.n}b") for i in report.indices.tolist()],
                    fitness_values(config.spec)[report.indices].tolist(), report.strict.tolist()))
    return _write_artifact(args, config, {}, lambda fp, header: write_csv(
        fp, ["solution", "fitness", "strict"], rows, header=header))


def _write_campaign(config: ExperimentConfig, rows_key: str, rows, summary_name: str,
                    table_name: str, reported: str, **extra) -> int:
    """Write the summary JSON (rows under ``rows_key``, ``extra`` beside them)
    and the CSV of the rows' dataclass fields, both or neither
    (:func:`_write_files`); stdout names ``reported``."""
    records = [asdict(row) for row in rows]
    header = provenance(config.config_hash(), config.master_seed)
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)

    def write_summary(fp):
        json.dump({"provenance": header, "config": config.to_json_dict(), rows_key: records,
                   **extra}, fp, indent=2, sort_keys=True)
        fp.write("\n")

    def write_table(fp):
        write_csv(fp, list(records[0]), [r.values() for r in records], header=header)

    _write_files({outdir / summary_name: write_summary, outdir / table_name: write_table})
    print(f"wrote {outdir / reported}")
    return 0


def _cmd_montecarlo(args) -> int:
    config = _config(args)
    result = monte_carlo(config)
    return _write_campaign(config, "settings", result.settings, "montecarlo_summary.json",
                           "montecarlo_settings.csv", "montecarlo_summary.json",
                           theorem_scope=result.theorem_scope)


def _cmd_alphasweep(args) -> int:
    config = _config(args)
    return _write_campaign(config, "rows", alpha_sweep(config), "alpha_sweep_summary.json",
                           "alpha_sweep.csv", "alpha_sweep.csv")


def cli_main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"cgadyn: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"cgadyn: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
