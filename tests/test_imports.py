"""Every name imported in src/, tests/ and scripts/ is referenced in its module,
importing the package leaves numpy.random unloaded, and a cold start of each
subcommand but alphasweep leaves numpy.ma unloaded.

A package ``__init__.py`` imports names to export them, so it is skipped.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for pattern in ("src/**/*.py", "tests/*.py", "scripts/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never mentions again."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_finds_each_form():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "def f(x: np.ndarray):\n    return b(x)\n")
    assert unused_imports(source) == ["os", "os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_package_leaves_numpy_random_unloaded():
    # importing numpy.random adds about 10 ms to every cold start of the CLI;
    # the engine imports it when it first seeds a run
    code = ("import sys, cgadyn, cgadyn.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "[]\n"


# a cold start of each of these subcommands leaves numpy.ma unloaded; alphasweep is
# left out: besides ode's np.unique and np.isin, the sweep's own np.median and
# np.quantile import numpy.ma (numpy 2.4), so ode alone cannot keep it unloaded
_COLD_STARTS = {
    "run": ["run", "--spec", "binval", "--n", "3", "--N", "4", "--out", "{out}/run.jsonl"],
    "drift": ["drift", "--spec", "binval", "--n", "3", "--grid", "3", "--out", "{out}/drift.csv"],
    "ode": ["ode", "--spec", "binval", "--n", "3", "--step", "0.1", "--horizon", "1",
            "--out", "{out}/ode.jsonl"],
    "classify": ["classify", "--spec", "binval", "--n", "3", "--out", "{out}/classify.csv"],
    "localmaxima": ["localmaxima", "--spec", "binval", "--n", "3", "--out", "{out}/maxima.csv"],
    "montecarlo": ["montecarlo", "--spec", "binval", "--n", "3", "--N", "4", "--runs", "2",
                   "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(_COLD_STARTS))
def test_a_monte_carlo_campaign_leaves_numpy_ma_unloaded(command, tmp_path):
    # np.unique without return flags imports numpy.ma (about 1 MB and 12-16 ms);
    # is_injective compares sorted neighbours instead
    argv = [arg.format(out=tmp_path) for arg in _COLD_STARTS[command]]
    code = ("import sys; from cgadyn.cli import cli_main; "
            f"code = cli_main({argv!r}); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "0 False"  # exit code 0, numpy.ma not loaded
