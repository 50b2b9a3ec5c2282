"""Campaign benchmark for cgadyn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cgadyn is imported from its
``src/``. One process runs one workload: it measures set-up in fresh
child processes, repeats the workload's campaign with the same inputs
for about S seconds, checks the artifacts against independent oracles and
prints one JSON object as its last line of output. Timings are scaled to
a reference machine speed (see ``SpeedSampler``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced repetitions, so the
gap between their medians is the tracing overhead. Results, provenance
and artifact digests go to ``.perfbench_out/results/``, spans to
``.perfbench_out/traces/``.
"""

import os

# Pin BLAS before numpy loads: the `@` in drift is a gemm, and OpenBLAS
# would spread it over every core of this small machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")
WORKLOAD_NAMES = ("sweep_binval8", "tally_absorb", "flow_limits", "export_io")
SETUP_PROBES = 7
MIN_REPS = 2
REFERENCE_ITERS = 100
REFERENCE_NOMINAL_S = 0.001  # time scale: seconds on a machine where reference_s() reads 1 ms
SAMPLE_PERIOD_S = 0.02
SETUP_REFERENCE_ITERS = 1000
END_TO_END_UNITS = {"setup_s": "s", "campaign_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import cgadyn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cgadyn
        import cgadyn.cli  # noqa: F401  (the CLI is part of what a user imports)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cgadyn from {src}: {exc}")
    if src not in Path(cgadyn.__file__).resolve().parents:
        sys.exit(f"perfbench: cgadyn was imported from {cgadyn.__file__}, not from {src}")


def setup_probe(args) -> None:
    """Child process: time a cold import plus the workload's set-up."""
    t0 = time.perf_counter()
    import_program()
    t1 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    t2 = time.perf_counter()
    workload.setup()
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(args) -> tuple[list[float], list[float]]:
    """(wall, scaled) seconds of SETUP_PROBES fresh set-ups. A child cannot be
    sampled from inside, so each is scaled by reference runs just before and after it."""
    wall, scaled = [], []
    before = reference_s(SETUP_REFERENCE_ITERS)
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        after = reference_s(SETUP_REFERENCE_ITERS)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        took = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        nominal = REFERENCE_NOMINAL_S * SETUP_REFERENCE_ITERS / REFERENCE_ITERS
        wall.append(took)
        scaled.append(took * nominal / math.sqrt(before * after))
        before = after
    return wall, scaled


# ---------------------------------------------------------------------------
# scaled time
# ---------------------------------------------------------------------------

def reference_s(iterations: int = REFERENCE_ITERS) -> float:
    """Seconds for a fixed loop shaped like a cGA iteration, in numpy, not in cgadyn."""
    import numpy as np
    rng = np.random.default_rng(0)
    counts = np.full(8, 64)
    values = np.arange(256.0)
    weights = 1 << np.arange(7, -1, -1)
    t0 = time.perf_counter()
    for _ in range(iterations):
        p = counts / 128.0
        a = rng.random(8) < p
        b = rng.random(8) < p
        if values[a @ weights] >= values[b @ weights]:
            counts += a.astype(np.int64) - b.astype(np.int64)
    return time.perf_counter() - t0


class SpeedSampler:
    """Measures the machine's speed while a segment runs.

    The machine this benchmark was built on switches between speed states
    (the slow one about 1.5 times slower) from one 100 ms to the next, and
    the mix drifts over seconds to minutes, so one state can cover a whole
    run. During a segment a SIGALRM handler runs ``reference_s()`` every
    SAMPLE_PERIOD_S. The segment's time leaves out the handler's time, and
    its scaled time is that time x REFERENCE_NOMINAL_S / mean(reference
    time). A change to cgadyn does not move the reference, so the scaled
    time still shows it.
    """

    def __init__(self):
        self.spent_ns = 0
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def now_ns(self) -> int:
        """A clock that stands still while the handler runs."""
        return time.perf_counter_ns() - self.spent_ns

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        self.samples.append(reference_s())
        self.spent_ns += time.perf_counter_ns() - t0

    def measure(self, fn) -> tuple[float, float]:
        """(wall, scaled) seconds of fn()."""
        self.samples = [reference_s()]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = self.now_ns()
        try:
            fn()
        finally:
            t1 = self.now_ns()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = (t1 - t0) * 1e-9
        return wall, wall * REFERENCE_NOMINAL_S / statistics.fmean(self.samples)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        info = {"name": "unknown", "version": "unknown"}
    info["threads_pinned"] = int(BLAS_THREADS)
    info["threads_runtime"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fp:
            libs = {line.split()[-1] for line in fp if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "run_seconds": args.seconds,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def digest(root: Path, files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        with open(path, "rb") as fp:
            for block in iter(lambda: fp.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return {"samples": len(samples), "percentile": None, "value": None}
    ranked = sorted(samples)
    k = len(ranked) - 11
    return {"samples": len(ranked), "percentile": round(100.0 * (k + 1) / len(ranked), 1),
            "value": ranked[k]}


def timed_campaign(workload, sampler: SpeedSampler) -> tuple[float, float]:
    """(wall, scaled) seconds of one repetition, segment by segment."""
    wall = scaled = 0.0
    for segment in workload.segments():
        w, s = sampler.measure(segment)
        wall += w
        scaled += s
    return wall, scaled


def run_campaigns(workload, seconds: float, sampler: SpeedSampler, tracer) -> dict:
    """Repeat the campaign for about `seconds`; with a tracer, alternate untraced and traced."""
    reps = {"untraced": [], "traced": [], "untraced_wall": [], "traced_wall": [], "digests": []}
    start = time.perf_counter()
    while True:
        kind = "traced" if tracer is not None and len(reps["untraced"]) > len(reps["traced"]) else "untraced"
        if kind == "traced":
            tracer.rep = len(reps["traced"])
            tracer.install()
        t0 = time.perf_counter()
        try:
            wall, scaled = timed_campaign(workload, sampler)
        finally:
            if kind == "traced":
                tracer.uninstall()
        took = time.perf_counter() - t0
        reps[kind].append(scaled)
        reps[f"{kind}_wall"].append(wall)
        reps["digests"].append(digest(workload.art, workload.artifacts()))
        done = len(reps["untraced"]) + len(reps["traced"])
        paired = tracer is None or len(reps["untraced"]) == len(reps["traced"])
        if done >= MIN_REPS and paired and time.perf_counter() - start + took > seconds:
            return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_program()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)
    workload.write_inputs()
    sampler = SpeedSampler()
    tracer = tracing.Tracer(sampler.now_ns) if args.trace else None
    chk = workloads.Checks()
    planned = workload.planned_checks()
    record: dict = {"provenance": provenance(args), "why": workload.why}
    metrics: dict[str, float] = {}
    reps = None
    try:
        setup_wall, setup_samples = measure_setup(args)
        cold = []
        wall, scaled = sampler.measure(lambda: cold.append(workload.setup()))
        cold_fitness_s = cold[0] * scaled / wall
        if tracer is not None:
            metrics.update(tracing.drift_micro(args.seed, sampler.measure))
        reps = run_campaigns(workload, args.seconds, sampler, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        traceback.print_exc()
        chk.fail_remaining(planned, "set-up or campaign raised")
    if reps is not None:
        try:
            workload.check(chk)
            if chk.attempted != planned:
                chk.check(False, f"benchmark planned {planned} checks but made {chk.attempted}")
        except Exception:
            traceback.print_exc()
            chk.fail_remaining(planned, "oracle check raised")
        first = reps["digests"][0]
        for d in reps["digests"][1:]:
            chk.check(d == first, "artifact digest changed between repetitions with one seed")
        untraced = statistics.median(reps["untraced"])
        record.update(campaign_samples_s=reps["untraced"], campaign_s_tail=tail(reps["untraced"]),
                      campaign_wall_samples_s=reps["untraced_wall"],
                      setup_samples_s=setup_samples, setup_wall_samples_s=setup_wall,
                      artifact_sha256=first,
                      artifact_bytes=sum(p.stat().st_size for p in workload.artifacts()))
        if tracer is None:
            metrics.update(setup_s=statistics.median(setup_samples), campaign_s=untraced,
                           peak_rss_mb=peak_rss_mb)
        else:
            per_rep = []
            for r, (scaled, wall) in enumerate(zip(reps["traced"], reps["traced_wall"])):
                m = tracing.rep_metrics([s for s in tracer.spans if s.rep == r])
                per_rep.append(tracing.scale_times(m, scaled / wall))
            for key in per_rep[0]:
                metrics[key] = statistics.median(m[key] for m in per_rep)
            traced = statistics.median(reps["traced"])
            metrics.update({
                "landscape.fitness_values_s": cold_fitness_s,
                "harness.artifact_bytes": record["artifact_bytes"],
                "trace.campaign_s": traced,
                "trace.overhead_s": traced - untraced,
                "trace.overhead_frac": (traced - untraced) / untraced,
            })
            record.update(traced_samples_s=reps["traced"], traced_wall_samples_s=reps["traced_wall"])

    units = END_TO_END_UNITS if tracer is None else tracing.UNITS
    metrics = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    record.update(metrics=metrics, attempted=chk.attempted, failed=chk.failed,
                  ops_failed_frac=chk.failed / max(chk.attempted, 1), failures=chk.failures)
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    if results.exists() and "artifact_sha256" in record:
        previous = json.loads(results.read_text()).get("artifact_sha256")
        record["digest_repeats_previous_run"] = previous == record["artifact_sha256"]
    results.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl", record["provenance"])

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "campaign_s_tail" in record:
        t = record["campaign_s_tail"]
        print(f"campaign samples {t['samples']}; tail p{t['percentile']} = {t['value']} s")
        print(f"artifact sha256 {record['artifact_sha256']}")
    print(f"checks {chk.attempted - chk.failed}/{chk.attempted} passed; results in {results}")
    print(json.dumps({"correct": chk.failed == 0 and chk.attempted > 0,
                      "attempted": chk.attempted, "failed": chk.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
