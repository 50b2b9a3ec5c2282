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
object; individual flags override config fields. Exit codes: 0 success,
1 validation/usage error (diagnostic on stderr), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .cga import run as cga_run, trajectory_to_jsonl
from .harness import (
    ExperimentConfig,
    alpha_sweep,
    check_config_fields,
    classify_all,
    drift_grid_rows,
    fmt_real,
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
    p.add_argument("--N", type=int, help="grid resolution; learning step is 1/(2N)")
    p.add_argument("--seed", type=int, help="run seed")
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
    p.add_argument("--step", type=float, help="integrator step size")
    p.add_argument("--horizon", type=float, help="integration horizon T")
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
    p.add_argument("--N", type=int, action="append", dest="N_list",
                   help="grid resolution (repeatable)")
    p.add_argument("--runs", type=int, help="runs per setting")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--config", type=Path)

    p = sub.add_parser("alphasweep", help="trajectory-vs-flow distances per learning step")
    _add_spec_flags(p)
    p.add_argument("--N", type=int, action="append", dest="N_list",
                   help="grid resolution (repeatable, need at least two)")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--horizon", type=float, help="comparison horizon T")
    p.add_argument("--step", type=float, help="integrator step size")
    p.add_argument("--out", type=Path, help="output directory")
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
    JSON object a spec file holds, so one parser checks every source."""
    if args.spec is not None and args.spec_file is not None:
        raise _UsageError("give either --spec or --spec-file, not both")
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
    elif "spec" in cfg:
        obj = cfg["spec"]
    else:
        raise _UsageError("no fitness spec: use --spec/--spec-file or a config file")
    return spec_from_json_dict(obj)


def _setting(value, cfg: dict, key: str):
    """A flag's value if given, else the config's field ``key``, else that
    field's :class:`ExperimentConfig` default."""
    return value if value is not None else cfg.get(key, getattr(ExperimentConfig, key))


def _effective_config(cfg: dict, spec, **overrides) -> ExperimentConfig:
    merged = dict(cfg)
    merged.pop("spec", None)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    merged = {k: v for k, v in merged.items() if v is not None or k == "max_iters"}
    return ExperimentConfig.from_json_dict({"spec": spec_to_json_dict(spec), **merged})


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

    ``body(args, cfg, spec)`` does the work and returns the command's own
    settings and a ``write(fp, header)`` callable. The provenance header
    hashes the command, the spec and those settings; its seed is the
    command's ``seed`` setting if it has one, else the config's master seed.
    """
    cfg = _load_config(args)
    spec = _resolve_spec(args, cfg)
    settings, write = body(args, cfg, spec)
    effective = {"command": args.command, "spec": spec_to_json_dict(spec), **settings}
    seed = _setting(settings.get("seed"), cfg, "master_seed")
    with _open_out(args.out) as fp:
        write(fp, provenance(hash_of(effective), seed))
    return 0


def _cmd_run(args, cfg, spec):
    N = args.N if args.N is not None else (cfg.get("N_values") or [None])[0]
    if N is None:
        raise _UsageError("run needs --N")
    seed = _setting(args.seed, cfg, "master_seed")
    max_iters = _setting(args.max_iters, cfg, "max_iters")
    traj = cga_run(spec, int(N), seed=seed, max_iters=max_iters,
                   record_every=args.record_every)
    settings = {"N": int(N), "seed": seed, "max_iters": max_iters,
                "record_every": args.record_every}
    return settings, lambda fp, header: trajectory_to_jsonl(traj, fp, extra_header=header)


def _cmd_drift(args, cfg, spec):
    names = [f"p_{i+1}" for i in range(spec.n)] + [f"f_{i+1}" for i in range(spec.n)]
    # the grid is checked before the output is opened, so a refused grid
    # writes no file; its blocks are built one at a time as write_csv pulls them
    blocks = drift_grid_rows(spec, args.grid)
    return {"grid": args.grid}, lambda fp, header: write_csv(fp, names, blocks, header=header)


def _cmd_ode(args, cfg, spec):
    h = _setting(args.step, cfg, "ode_step")
    T = _setting(args.horizon, cfg, "T_horizon")
    traj = integrate(spec, np.full(spec.n, 0.5), h=h, T=T)
    return {"h": h, "T": T}, lambda fp, header: ode_to_jsonl(traj, fp, extra_header=header)


def _cmd_classify(args, cfg, spec):
    return {}, classify_all(spec).write_csv


def _cmd_localmaxima(args, cfg, spec):
    report = enumerate_local_maxima(spec)
    rows = [
        (bits_to_string(bits), fmt_real(evaluate(spec, bits)), strict)
        for bits, strict in zip(report.maxima, report.strict_flags)
    ]
    return {}, lambda fp, header: write_csv(fp, ["solution", "fitness", "strict"], rows,
                                            header=header)


def _campaign_config(args, cfg: dict) -> ExperimentConfig:
    spec = _resolve_spec(args, cfg)
    return _effective_config(
        cfg, spec,
        N_values=args.N_list,
        runs_per_setting=args.runs,
        master_seed=args.seed,
        output_dir=args.out,
        T_horizon=getattr(args, "horizon", None),
        ode_step=getattr(args, "step", None),
        max_iters=getattr(args, "max_iters", None),
    )


def _cmd_montecarlo(args) -> int:
    config = _campaign_config(args, _load_config(args))
    result = monte_carlo(config)
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    summary = outdir / "montecarlo_summary.json"
    with open(summary, "w") as fp:
        json.dump(result.to_json_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")
    rows = [
        (s.N, fmt_real(s.alpha), json.dumps(dict(sorted(s.convergence_counts.items()))),
         s.non_terminated,
         fmt_real(s.mean_iterations) if s.mean_iterations is not None else "",
         s.terminal_corners_are_local_maxima)
        for s in result.settings
    ]
    with open(outdir / "montecarlo_settings.csv", "w") as fp:
        write_csv(fp, ["N", "alpha", "convergence_counts", "non_terminated",
                       "mean_iterations", "terminal_corners_are_local_maxima"],
                  rows, header=provenance(config.config_hash(), config.master_seed))
    print(f"wrote {summary}")
    return 0


def _cmd_alphasweep(args) -> int:
    config = _campaign_config(args, _load_config(args))
    rows = alpha_sweep(config)
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    table = outdir / "alpha_sweep.csv"
    with open(table, "w") as fp:
        write_csv(fp, ["N", "alpha", "median_sup_distance", "q90_sup_distance", "runs"],
                  [(r.N, fmt_real(r.alpha), fmt_real(r.median_sup_distance),
                    fmt_real(r.q90_sup_distance), r.runs) for r in rows],
                  header=provenance(config.config_hash(), config.master_seed))
    with open(outdir / "alpha_sweep_summary.json", "w") as fp:
        json.dump({
            "provenance": provenance(config.config_hash(), config.master_seed),
            "config": config.to_json_dict(),
            "rows": [r.to_json_dict() for r in rows],
        }, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {table}")
    return 0


_SINGLE_SPEC_COMMANDS = {
    "run": _cmd_run,
    "drift": _cmd_drift,
    "ode": _cmd_ode,
    "classify": _cmd_classify,
    "localmaxima": _cmd_localmaxima,
}
_CAMPAIGN_COMMANDS = {
    "montecarlo": _cmd_montecarlo,
    "alphasweep": _cmd_alphasweep,
}


def cli_main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand (see --help)")
        if args.command in _CAMPAIGN_COMMANDS:
            return _CAMPAIGN_COMMANDS[args.command](args)
        return _single_spec(args, _SINGLE_SPEC_COMMANDS[args.command])
    except (_UsageError, ValueError, OSError) as exc:
        print(f"cgadyn: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"cgadyn: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
