"""Command-line interface.

Subcommands::

    run         one seeded stochastic trajectory, JSON lines
    drift       expected-update field on a grid, CSV
    ode         integrate the deterministic flow from the center, JSON lines
    classify    per-corner stability vs local-maximum report, CSV
    localmaxima brute-force local maxima of a fitness, CSV
    montecarlo  seeded convergence campaign, files under the output dir
    alphasweep  trajectory-vs-flow distance across learning steps, files

Each subcommand accepts ``--config FILE`` with an experiment-config JSON
object; a flag given sets the config field its argparse dest names, over
the file's value, and every field is checked by its rule in
``harness._CONFIG_FIELDS``. Exit codes: 0 success, 1 validation/usage
error (diagnostic on stderr), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .cga import run as cga_run, trajectory_to_jsonl
from .harness import (
    _CONFIG_FIELDS,
    ExperimentConfig,
    alpha_sweep,
    check_config_fields,
    classify_all,
    drift_grid_rows,
    hash_of,
    monte_carlo,
    provenance,
    write_csv,
)
from .landscape import (
    bits_to_string,
    enumerate_local_maxima,
    evaluate,
    spec_from_json_dict,
    spec_to_json_dict,
)
from .ode import integrate, ode_to_jsonl


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _add_spec_flags(p: _Parser) -> None:
    p.add_argument("--spec", choices=["binval", "linear", "perturbed_onemax", "random_injective"],
                   help="built-in fitness kind")
    p.add_argument("--n", type=int, help="solution length")
    p.add_argument("--spec-file", type=Path, help="JSON file with a fitness spec object")
    p.add_argument("--epsilon", type=float, help="perturbation size for perturbed_onemax")
    p.add_argument("--weights", type=str, help="comma-separated locus weights for linear")
    p.add_argument("--spec-seed", type=int, help="seed for random_injective (its spec field 'seed')")


def build_parser() -> _Parser:
    parser = _Parser(prog="cgadyn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cgadyn {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("run", help="one stochastic trajectory (JSON lines)")
    _add_spec_flags(p)
    p.add_argument("--N", type=int, nargs=1, dest="N_values", metavar="N",
                   help="grid resolution; learning step is 1/(2N)")
    p.add_argument("--seed", type=int, dest="master_seed", help="run seed")
    p.add_argument("--max-iters", type=int, help="iteration budget")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", type=Path, help="output file (default: stdout)")
    p.add_argument("--config", type=Path, help="experiment-config JSON file")

    p = sub.add_parser("drift", help="expected-update field on a grid (CSV)")
    _add_spec_flags(p)
    p.add_argument("--grid", type=int, default=11, help="points per axis")
    p.add_argument("--out", type=Path)
    p.add_argument("--config", type=Path)

    p = sub.add_parser("ode", help="integrate the deterministic flow (JSON lines)")
    _add_spec_flags(p)
    p.add_argument("--step", type=float, dest="ode_step", help="integrator step size")
    p.add_argument("--horizon", type=float, dest="T_horizon", help="integration horizon T")
    p.add_argument("--out", type=Path)
    p.add_argument("--config", type=Path)

    p = sub.add_parser("classify", help="corner stability report (CSV)")
    _add_spec_flags(p)
    p.add_argument("--out", type=Path)
    p.add_argument("--config", type=Path)

    p = sub.add_parser("localmaxima", help="brute-force local maxima (CSV)")
    _add_spec_flags(p)
    p.add_argument("--out", type=Path)
    p.add_argument("--config", type=Path)

    p = sub.add_parser("montecarlo", help="seeded convergence campaign")
    _add_spec_flags(p)
    p.add_argument("--N", type=int, action="append", dest="N_values",
                   help="grid resolution (repeatable)")
    p.add_argument("--runs", type=int, dest="runs_per_setting", help="runs per setting")
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", type=Path, dest="output_dir", help="output directory")
    p.add_argument("--config", type=Path)

    p = sub.add_parser("alphasweep", help="trajectory-vs-flow distances per learning step")
    _add_spec_flags(p)
    p.add_argument("--N", type=int, action="append", dest="N_values",
                   help="grid resolution (repeatable, need at least two)")
    p.add_argument("--runs", type=int, dest="runs_per_setting")
    p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    p.add_argument("--horizon", type=float, dest="T_horizon", help="comparison horizon T")
    p.add_argument("--step", type=float, dest="ode_step", help="integrator step size")
    p.add_argument("--out", type=Path, dest="output_dir", help="output directory")
    p.add_argument("--config", type=Path)

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

def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        with open(path) as fp:
            obj = json.load(fp)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed config JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise _UsageError(f"config file {path} must contain a JSON object")
    check_config_fields(obj)
    return obj


def _resolve_spec(args, cfg: dict):
    """The spec from --spec-file, --spec flags or the config; flags become the
    JSON object a spec file holds, so one parser checks every source. The
    config's spec is checked even where a flag replaces it."""
    if args.spec is not None and args.spec_file is not None:
        raise _UsageError("give either --spec or --spec-file, not both")
    config_spec = spec_from_json_dict(cfg["spec"]) if "spec" in cfg else None
    if args.spec_file is not None:
        try:
            with open(args.spec_file) as fp:
                obj = json.load(fp)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"malformed spec JSON in {args.spec_file}: {exc}") from exc
    elif args.spec is not None:
        weights = None if args.weights is None else args.weights.split(",")
        fields = {"n": args.n, "epsilon": args.epsilon, "seed": args.spec_seed, "weights": weights}
        obj = {"kind": args.spec, **{k: v for k, v in fields.items() if v is not None}}
    elif config_spec is not None:
        return config_spec
    else:
        raise _UsageError("no fitness spec: use --spec/--spec-file or a config file")
    return spec_from_json_dict(obj)


def _config(args) -> ExperimentConfig:
    """The config file's fields, then each flag given on top of them: a
    flag's argparse dest is the name of the field it sets."""
    fields = _load_config(args)
    spec = _resolve_spec(args, fields)
    fields.update({k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None})
    if args.command == "run" and "N_values" not in fields:  # no default N for one run
        raise _UsageError("run needs --N")
    return ExperimentConfig(**{**fields, "spec": spec})


@contextmanager
def _open_out(path: Path | None):
    if path is None:
        yield sys.stdout
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            yield fp


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _single_spec(args, body) -> int:
    """Shared path of the subcommands that write one artifact for one spec.

    ``body(args, config)`` does the work and returns the command's own
    settings and a ``write(fp, header)`` callable. The provenance header
    hashes the command, the spec and those settings; its seed is the
    config's master seed.
    """
    config = _config(args)
    settings, write = body(args, config)
    effective = {"command": args.command, "spec": spec_to_json_dict(config.spec), **settings}
    with _open_out(args.out) as fp:
        write(fp, provenance(hash_of(effective), config.master_seed))
    return 0


def _cmd_run(args, config):
    N, seed, max_iters = config.N_values[0], config.master_seed, config.max_iters
    traj = cga_run(config.spec, N, seed=seed, max_iters=max_iters, record_every=args.record_every)
    settings = {"N": N, "seed": seed, "max_iters": max_iters, "record_every": args.record_every}
    return settings, lambda fp, header: trajectory_to_jsonl(traj, fp, extra_header=header)


def _cmd_drift(args, config):
    n = config.spec.n
    names = [f"p_{i+1}" for i in range(n)] + [f"f_{i+1}" for i in range(n)]
    # the grid is checked before the output is opened, so a refused grid
    # writes no file; its blocks are built one at a time as write_csv pulls them
    blocks = drift_grid_rows(config.spec, args.grid)
    return {"grid": args.grid}, lambda fp, header: write_csv(fp, names, blocks, header=header)


def _cmd_ode(args, config):
    h, T = config.ode_step, config.T_horizon
    traj = integrate(config.spec, np.full(config.spec.n, 0.5), h=h, T=T)
    return {"h": h, "T": T}, lambda fp, header: ode_to_jsonl(traj, fp, extra_header=header)


def _cmd_classify(args, config):
    return {}, classify_all(config.spec).write_csv


def _cmd_localmaxima(args, config):
    spec = config.spec
    report = enumerate_local_maxima(spec)
    rows = [(bits_to_string(bits), evaluate(spec, bits), strict)
            for bits, strict in zip(report.maxima, report.strict_flags)]
    return {}, lambda fp, header: write_csv(fp, ["solution", "fitness", "strict"], rows,
                                            header=header)


def _cmd_campaign(args) -> int:
    """Run a campaign, then write its summary JSON and its settings CSV, whose
    columns are the fields of the campaign's row dataclass."""
    config = _config(args)
    if args.command == "montecarlo":
        result = monte_carlo(config)
        rows, extra = result.settings, {"theorem_scope": result.theorem_scope}
    else:
        rows, extra = alpha_sweep(config), {}
    rows_key, summary_name, table_name, reported = _CAMPAIGNS[args.command]
    records = [asdict(row) for row in rows]
    header = provenance(config.config_hash(), config.master_seed)
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / summary_name, "w") as fp:
        json.dump({"provenance": header, "config": config.to_json_dict(), rows_key: records,
                   **extra}, fp, indent=2, sort_keys=True)
        fp.write("\n")
    with open(outdir / table_name, "w") as fp:
        write_csv(fp, list(records[0]), [r.values() for r in records], header=header)
    print(f"wrote {outdir / reported}")
    return 0


_SINGLE_SPEC_COMMANDS = {
    "run": _cmd_run,
    "drift": _cmd_drift,
    "ode": _cmd_ode,
    "classify": _cmd_classify,
    "localmaxima": _cmd_localmaxima,
}
# subcommand -> (the summary's key for its rows, summary JSON, settings CSV,
# the file stdout names)
_CAMPAIGNS = {
    "montecarlo": ("settings", "montecarlo_summary.json", "montecarlo_settings.csv",
                   "montecarlo_summary.json"),
    "alphasweep": ("rows", "alpha_sweep_summary.json", "alpha_sweep.csv", "alpha_sweep.csv"),
}


def cli_main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand (see --help)")
        if args.command in _CAMPAIGNS:
            return _cmd_campaign(args)
        return _single_spec(args, _SINGLE_SPEC_COMMANDS[args.command])
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
