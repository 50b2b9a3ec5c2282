"""Spans around the calls into each cgadyn module, recorded from outside.

Callers inside cgadyn import by name (``from .ode import sup_distance``),
so a wrapper only sees a call if it replaces the name the caller looks up.
``TARGETS`` lists those names, module by module. Each wrapped call records
a span: name (``<layer>.<function>``), start, end, parent span and, for a
few functions, counts read from the arguments or the result. Spans stay in
memory; ``write`` stores them when the run ends.

A generator function (``drift_grid_rows``) runs only while its consumer
pulls rows, interleaved with the consumer's own work. Its span opens at
the first pull and closes at the last; ``busy`` sums the time spent
inside its pulls, and its parent is charged only that time.

Self time of a span is its busy time minus the busy time of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

import numpy as np

def _drift_rows(args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["p"])
    return {"rows": math.prod(shape[:-1]), "n": shape[-1]}


def _run_counts(args, kwargs, traj):
    return {"iterations": int(traj.iterations), "terminated": bool(traj.terminated),
            "snapshot_rows": int(len(traj.counts))}


def _limit_counts(args, kwargs, batch):
    return {"rows": int(len(batch.converged)), "converged": int(np.count_nonzero(batch.converged))}


def _clamps(args, kwargs, traj):
    return {"clamps": int(traj.clamp_count)}


def _bytes_written(args, kwargs, result):
    fp = args[1] if len(args) > 1 else kwargs["fp"]
    try:
        return {"bytes": int(fp.tell())}
    except (AttributeError, OSError, ValueError):
        return {}


# module -> {bound name: hook or None}
TARGETS = {
    "cgadyn.cli": {
        "cli_main": None,
        "cga_run": _run_counts,
        "trajectory_to_jsonl": _bytes_written,
        "alpha_sweep": None,
        "monte_carlo": None,
        "classify_all": None,
        "drift_grid_rows": None,
        "write_csv": None,
        "enumerate_local_maxima": None,
        "integrate": _clamps,
        "ode_to_jsonl": _bytes_written,
    },
    "cgadyn.harness": {
        "run": _run_counts,
        "sup_distance": None,
        "integrate": _clamps,
        "drift": _drift_rows,
        "enumerate_local_maxima": None,
        "classify_corner": None,
        "classify_all": None,
        "write_csv": None,
    },
    "cgadyn.ode": {
        "drift": _drift_rows,
        "jacobian_analytic": None,
        "is_local_maximum": None,
        "find_limit_many": _limit_counts,
    },
}


class Span:
    __slots__ = ("id", "name", "parent", "rep", "start", "end", "busy", "attrs")

    def __init__(self, sid, name, parent, rep, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.rep = rep
        self.start = start
        self.end = start
        self.busy = 0
        self.attrs = None


class Tracer:
    """Records spans; ``clock`` returns nanoseconds (run.py passes a clock
    that leaves out the time its speed sampler takes)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.rep = -1
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr, hook in names.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    target = f"{module_name}.{attr}"
                    if target not in self.missing:
                        self.missing.append(target)
                        print(f"perfbench: trace target {target} not found; its spans are missing",
                              file=sys.stderr)
                    continue
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}", hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- span recording -----------------------------------------------------

    def _open(self, name: str, start: int) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, parent, self.rep, start)
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, hook):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._traced_gen(name, fn(*args, **kwargs))
            return gen_wrapper

        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, clock())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = clock()
                span.busy = span.end - span.start
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result
        return wrapper

    def _traced_gen(self, name, gen):
        span = None
        try:
            while True:
                t = self.clock()
                if span is None:
                    span = self._open(name, t)
                self._stack.append(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    span.end = self.clock()
                    span.busy += span.end - t
                yield item
        finally:
            gen.close()

    # -- output -------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """One JSON header line, then [rep, id, parent, name, start_ns, end_ns, busy_ns, attrs] per span."""
        with open(path, "w") as fp:
            fp.write(json.dumps({**header, "missing_targets": self.missing}, sort_keys=True) + "\n")
            for s in self.spans:
                fp.write(json.dumps([s.rep, s.id, s.parent, s.name, s.start, s.end, s.busy,
                                     s.attrs]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("landscape", "cga", "drift_field", "ode", "harness", "cli")
DRIFT_ROW_SIZES = (2, 3, 4, 8, 12)
MICRO_SIZES = (4, 8, 12, 16)

UNITS = {
    "landscape.fitness_values_s": "s",
    "landscape.local_maxima_s": "s",
    "landscape.local_max_calls": "count",
    "cga.run_calls": "count",
    "cga.iterations": "count",
    "cga.run_s": "s",
    "cga.iters_per_s": "1/s",
    "cga.run_ms_p50": "ms",
    "cga.run_ms_p95": "ms",
    "cga.terminated_frac": "ratio",
    "cga.snapshot_rows": "count",
    "cga.jsonl_write_s": "s",
    "cga.jsonl_bytes": "B",
    "drift_field.drift_calls": "count",
    "drift_field.drift_rows": "count",
    "drift_field.drift_s": "s",
    **{f"drift_field.us_per_row.n{n}": "us" for n in DRIFT_ROW_SIZES},
    **{f"drift_field.single_us.n{n}": "us" for n in MICRO_SIZES},
    **{f"drift_field.batch64_us_per_row.n{n}": "us" for n in MICRO_SIZES},
    "ode.find_limit_many_self_s": "s",
    "ode.integrate_self_s": "s",
    "ode.converged_frac": "ratio",
    "ode.clamp_count": "count",
    "ode.sup_distance_s": "s",
    "ode.sup_distance_calls": "count",
    "ode.sup_distance_ms_p50": "ms",
    "ode.sup_distance_ms_p95": "ms",
    "ode.jsonl_write_s": "s",
    "harness.alpha_sweep_self_s": "s",
    "harness.monte_carlo_self_s": "s",
    "harness.classify_all_self_s": "s",
    "harness.drift_grid_rows_self_s": "s",
    "harness.write_csv_s": "s",
    "harness.artifact_bytes": "B",
    "cli.cli_main_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.campaign_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def rep_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for the spans of one traced campaign."""
    covered: dict[int, int] = {}
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] = covered.get(s.parent, 0) + s.busy
    by_name: dict[str, list[Span]] = {}
    self_ns: dict[str, int] = {}
    layer_self: dict[str, int] = dict.fromkeys(LAYERS, 0)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        own = s.busy - covered.get(s.id, 0)
        self_ns[s.name] = self_ns.get(s.name, 0) + own
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own

    def busy_s(*names) -> float:
        return sum(s.busy for name in names for s in by_name.get(name, ())) * 1e-9

    def self_s(name) -> float:
        return self_ns.get(name, 0) * 1e-9

    def attr_sum(name, key) -> int:
        return sum((s.attrs or {}).get(key, 0) for s in by_name.get(name, ()))

    runs = by_name.get("cga.run", [])
    run_ms = [s.busy * 1e-6 for s in runs]
    iterations = attr_sum("cga.run", "iterations")
    sups = by_name.get("ode.sup_distance", [])
    sup_ms = [s.busy * 1e-6 for s in sups]
    limit_rows = attr_sum("ode.find_limit_many", "rows")
    out = {
        "landscape.local_maxima_s": busy_s("landscape.enumerate_local_maxima",
                                           "landscape.is_local_maximum"),
        "landscape.local_max_calls": len(by_name.get("landscape.enumerate_local_maxima", ()))
        + len(by_name.get("landscape.is_local_maximum", ())),
        "cga.run_calls": len(runs),
        "cga.iterations": iterations,
        "cga.run_s": busy_s("cga.run"),
        "cga.iters_per_s": iterations / busy_s("cga.run") if runs else 0.0,
        "cga.run_ms_p50": _pct(run_ms, 50),
        "cga.run_ms_p95": _pct(run_ms, 95),
        "cga.terminated_frac": attr_sum("cga.run", "terminated") / len(runs) if runs else 0.0,
        "cga.snapshot_rows": attr_sum("cga.run", "snapshot_rows"),
        "cga.jsonl_write_s": busy_s("cga.trajectory_to_jsonl"),
        "cga.jsonl_bytes": attr_sum("cga.trajectory_to_jsonl", "bytes"),
        "drift_field.drift_calls": len(by_name.get("drift_field.drift", ())),
        "drift_field.drift_rows": attr_sum("drift_field.drift", "rows"),
        "drift_field.drift_s": busy_s("drift_field.drift"),
        "ode.find_limit_many_self_s": self_s("ode.find_limit_many"),
        "ode.integrate_self_s": self_s("ode.integrate"),
        "ode.converged_frac": attr_sum("ode.find_limit_many", "converged") / limit_rows
        if limit_rows else 0.0,
        "ode.clamp_count": attr_sum("ode.integrate", "clamps"),
        "ode.sup_distance_s": busy_s("ode.sup_distance"),
        "ode.sup_distance_calls": len(sups),
        "ode.sup_distance_ms_p50": _pct(sup_ms, 50),
        "ode.sup_distance_ms_p95": _pct(sup_ms, 95),
        "ode.jsonl_write_s": busy_s("ode.ode_to_jsonl"),
        "harness.alpha_sweep_self_s": self_s("harness.alpha_sweep"),
        "harness.monte_carlo_self_s": self_s("harness.monte_carlo"),
        "harness.classify_all_self_s": self_s("harness.classify_all"),
        "harness.drift_grid_rows_self_s": self_s("harness.drift_grid_rows"),
        "harness.write_csv_s": self_s("harness.write_csv"),
        "cli.cli_main_self_s": self_s("cli.cli_main"),
    }
    for n in DRIFT_ROW_SIZES:
        hits = [s for s in by_name.get("drift_field.drift", ()) if s.attrs["n"] == n]
        rows = sum(s.attrs["rows"] for s in hits)
        out[f"drift_field.us_per_row.n{n}"] = sum(s.busy for s in hits) * 1e-3 / rows if rows else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * 1e-9
    return out


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Scale the time-valued metrics (s, ms, us and rates) by a repetition's speed factor."""
    out = {}
    for key, value in metrics.items():
        unit = UNITS[key]
        out[key] = value * factor if unit in ("s", "ms", "us") else (
            value / factor if unit == "1/s" else value)
    return out


def drift_micro(seed: int, measure) -> dict[str, float]:
    """``drift`` on binval for one vector and for a batch of 64, per size in MICRO_SIZES.

    ``measure(fn)`` returns (wall, scaled) seconds; each figure is the
    scaled time of a block of calls sized to about 0.2 s, per call.
    """
    from cgadyn import drift_field, landscape

    rng = np.random.default_rng(seed)
    out = {}
    for n in MICRO_SIZES:
        spec = landscape.binval(n)
        one = 0.001 + 0.998 * rng.random(n)
        batch = 0.001 + 0.998 * rng.random((64, n))
        drift_field.drift(one, spec)  # fill the per-spec caches first
        out[f"drift_field.single_us.n{n}"] = _per_call_s(
            lambda: drift_field.drift(one, spec), measure) * 1e6
        out[f"drift_field.batch64_us_per_row.n{n}"] = _per_call_s(
            lambda: drift_field.drift(batch, spec), measure) * 1e6 / 64
    return out


def _per_call_s(fn, measure, budget_s: float = 0.2) -> float:
    t0 = time.perf_counter()
    fn()
    calls = max(3, int(budget_s / (time.perf_counter() - t0)))
    _, scaled = measure(lambda: [fn() for _ in range(calls)])
    return scaled / calls
