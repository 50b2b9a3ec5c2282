#!/usr/bin/env python3
"""End-to-end demo campaign: classification, Monte Carlo tallies, and a
learning-step sweep for a few landscapes, written under ./outputs through
the cgadyn command, so every file carries its provenance header.

Usage: python scripts/demo_campaign.py [--outdir outputs] [--seed 0]
"""

import argparse
import json
import sys
from pathlib import Path

from cgadyn.cli import cli_main


def cgadyn(*argv) -> None:
    rc = cli_main([str(a) for a in argv])
    if rc:
        sys.exit(rc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("outputs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=200)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    two_max = args.outdir / "two_max_spec.json"
    two_max.write_text(json.dumps(
        {"kind": "table", "n": 2, "table": {"00": 3.0, "01": 1.0, "10": 2.0, "11": 4.0}}))
    specs = {  # name -> the flags that select its spec
        "binval4": ["--spec", "binval", "--n", "4"],
        "two_max": ["--spec-file", two_max],
        "rugged5": ["--spec", "random_injective", "--n", "5", "--spec-seed", "7"],
        "binval3_cli": ["--spec", "binval", "--n", "3"],
    }
    for name, flags in specs.items():
        table = args.outdir / f"classify_{name}.csv"
        cgadyn("classify", *flags, "--out", table)
        text = table.read_text()
        print(f"{name}: {text.count(',asymptotically_stable,')} stable corner(s), "
              f"local-max oracle {text.splitlines()[-1][2:]}")

        mc = args.outdir / f"montecarlo_{name}"
        cgadyn("montecarlo", *flags, "--N", 16, "--N", 64, "--runs", args.runs,
               "--seed", args.seed, "--out", mc)
        for s in json.loads((mc / "montecarlo_summary.json").read_text())["settings"]:
            print(f"  N={s['N']}: terminal corners {s['convergence_counts']}, "
                  f"non-terminated {s['non_terminated']}, mean iters {s['mean_iterations']:.0f}")

    cgadyn("alphasweep", "--spec", "binval", "--n", 8, "--N", 32, "--N", 128, "--N", 512,
           "--runs", 50, "--horizon", 5.0, "--seed", args.seed, "--out", args.outdir)
    rows = json.loads((args.outdir / "alpha_sweep_summary.json").read_text())["rows"]
    print("sweep medians:", {r["N"]: round(r["median_sup_distance"], 4) for r in rows})


if __name__ == "__main__":
    main()
