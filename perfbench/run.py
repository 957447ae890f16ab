"""Benchmark for the reflectsde simulate -> estimate -> summarize pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_long --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout.  A run sets the
workload up from ``--seed``, then repeats one fixed sweep of work for
``--seconds`` seconds in a single thread (``workers=1``, one BLAS thread).
With ``--trace 0`` it reports the end-to-end metrics, each call scaled by
the host's speed measured around it (see clock.py).  With ``--trace 1`` it
alternates untraced sweeps with replays of the same work one level down,
with spans; it checks that each replay reproduced every estimate bit for
bit and reports the per-layer metrics.  Standard output carries an
environment record, a readable table, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
SETUP_REFERENCE_RUNS = 9
MIN_SWEEPS = 3

# The benchmark measures one core.  Left at its default, OpenBLAS threads the
# long quadrature dot products and its workers spin on the second core, which
# doubled cpu_s on estimate_ci and widened its run-to-run spread.  Set before
# numpy is imported here or in any child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

PER_LAYER = {
    "simulate.fine_steps_per_s": "1/s",
    "simulate.fine_steps_per_s.builtin": "1/s",
    "simulate.fine_steps_per_s.custom": "1/s",
    "simulate.fine_steps_per_s.two_factor": "1/s",
    "simulate.fine_steps": "count",
    "simulate.integrate.s": "s",
    "simulate.validate.s": "s",
    "simulate.s_per_path": "s",
    "rng.path_draws.s": "s",
    "rng.draws": "count",
    "harness.run_mc.self_s": "s",
    "harness.reps": "count",
    "harness.failed_reps": "count",
    "estimate.closed_form.s": "s",
    "estimate.golden.s": "s",
    "estimate.golden.iterations": "count",
    "estimate.pinned": "count",
    "stationary.invariant_density.s": "s",
    "stationary.information.s": "s",
    "stationary.grid_nodes": "count",
    "stationary.grid_nodes.max": "count",
    "stationary.calls": "count",
    "cli.parse_config.s": "s",
    "cli.read_path_csv.s": "s",
    "cli.main.self_s": "s",
    "cli.csv_rows_read": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Sweep:
    wall: float
    outcome: object
    tracer: object = None


def _run_sweep(fn, *args) -> Sweep:
    t0 = time.perf_counter()
    outcome = fn(*args)
    return Sweep(wall=time.perf_counter() - t0, outcome=outcome)


def timed_sweeps(fn, budget: float) -> list[Sweep]:
    """Repeat ``fn`` until ``budget`` seconds have passed, at least
    MIN_SWEEPS times."""
    sweeps: list[Sweep] = []
    start = time.perf_counter()
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - start < budget:
        sweeps.append(_run_sweep(fn))
    return sweeps


def scaled_setup(setup) -> tuple[float, float]:
    """Seconds of one set-up (a fresh interpreter's import plus ``setup``),
    raw and scaled by the host's speed measured just before and after."""
    from clock import reference, speed

    before = statistics.median(reference() for _ in range(SETUP_REFERENCE_RUNS))
    t0 = time.perf_counter()
    import_package()
    setup()
    raw = time.perf_counter() - t0
    after = statistics.median(reference() for _ in range(SETUP_REFERENCE_RUNS))
    return raw, raw * speed(before, after)


def traced_pairs(wl, budget: float) -> tuple[list[Sweep], list[Sweep]]:
    """Alternate an untraced sweep with its traced replay until ``budget``
    seconds have passed.  Pairs run back to back, so the machine's slow
    drift in speed cancels in traced/untraced comparisons."""
    from tracing import Tracer

    untraced: list[Sweep] = []
    traced: list[Sweep] = []
    start = time.perf_counter()
    while len(untraced) < MIN_SWEEPS or time.perf_counter() - start < budget:
        untraced.append(_run_sweep(wl.sweep))
        tr = Tracer(len(traced))
        traced.append(_run_sweep(wl.replay, tr))
        traced[-1].tracer = tr
    return untraced, traced


def import_package() -> None:
    """A fresh interpreter imports the package and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import reflectsde.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "reflectsde").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def integration_backend() -> str:
    """Which integrator runs, seen from outside: a numba dispatcher exposes
    ``py_func``; a plain function means the pure-Python fallback."""
    try:
        from reflectsde import _kernels
    except ImportError:
        return "unknown"
    kernel = getattr(_kernels, "integrate_builtin", None)
    if kernel is None:
        return "unknown"
    return "numba" if hasattr(kernel, "py_func") else "python"


def environment(workload: str, seed: int, size: str) -> dict:
    import importlib.util

    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "backend": integration_backend(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _consistency(sweeps: list[Sweep], reference: list) -> list[str]:
    """Every sweep repeats the same inputs, so it must give exactly the
    reference estimates; a sweep that does not counts all its operations
    failed."""
    problems = []
    for i, sw in enumerate(sweeps):
        if sw.outcome.outputs != reference:
            sw.outcome.failed = sw.outcome.ops
            problems.append(f"sweep {i} did not reproduce the reference estimates bit for bit")
    return problems


def scaled_calls(sweeps: list[Sweep]) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each call of a sweep: every sweep makes the
    same calls, each call's seconds are scaled by the host's speed around
    it, and the median over the sweeps is taken per call."""
    from clock import speed

    walls, cpus = [], []
    for i in range(len(sweeps[0].outcome.calls)):
        scale = [speed(sw.outcome.marks[i], sw.outcome.marks[i + 1]) for sw in sweeps]
        calls = [sw.outcome.calls[i] for sw in sweeps]
        walls.append(statistics.median(c.wall * k for c, k in zip(calls, scale)))
        cpus.append(statistics.median(c.cpu * k for c, k in zip(calls, scale)))
    return walls, cpus


def end_to_end(sweeps: list[Sweep], setup_s: float) -> dict:
    """A sweep's time is the sum of its calls' scaled median times.  One
    call of ``ops`` operations gives ``ops`` latency samples at its mean:
    run_mc exposes no per-replication timing."""
    import numpy as np

    walls, cpus = scaled_calls(sweeps)
    wall = sum(walls)
    ops = [c.ops for c in sweeps[0].outcome.calls]
    latencies = np.repeat([w / n for w, n in zip(walls, ops)], ops)
    completed = sum(sw.outcome.ops - sw.outcome.failed for sw in sweeps) / len(sweeps)
    p50, p95 = np.percentile(latencies, [50, 95])
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": completed / wall,
        "op_p50_ms": float(p50) * 1e3,
        "op_p95_ms": float(p95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": sum(cpus),
    }


def _sweep_layers(tr) -> dict:
    """Per-layer seconds of one traced sweep.

    ``simulate_path`` hides the draws and the validation; both are timed by
    separate calls on the same inputs, and the remainder of the simulate
    span is the derived integration time (fine steps plus path assembly).
    """
    from workloads import KINDS

    total, self_time = tr.durations()
    layers = {}
    for kind in KINDS:
        simulate = (total.get(("simulate.simulate_path", kind), 0.0)
                    + total.get(("simulate.simulate_two_factor", kind), 0.0))
        layers[f"simulate.s.{kind}"] = simulate
        layers[f"simulate.integrate.s.{kind}"] = (
            simulate - total.get(("rng.path_draws", kind), 0.0)
            - total.get(("simulate.validate", kind), 0.0))
    layers["simulate.integrate.s"] = sum(layers[f"simulate.integrate.s.{k}"] for k in KINDS)
    layers["simulate.s"] = sum(layers[f"simulate.s.{k}"] for k in KINDS)
    for name in ("simulate.validate", "rng.path_draws", "estimate.closed_form",
                 "estimate.golden", "stationary.invariant_density",
                 "stationary.information", "cli.parse_config", "cli.read_path_csv"):
        layers[name + ".s"] = total.get(name, 0.0)
    layers["harness.run_mc.self_s"] = self_time.get("harness.run_mc", 0.0)
    layers["cli.main.children_s"] = total.get("cli.main", 0.0) - self_time.get("cli.main", 0.0)
    return layers


def per_layer(untraced: list[Sweep], traced: list[Sweep]) -> dict:
    """Median seconds per sweep over the traced sweeps, counts per sweep
    (identical in every sweep), and the tracing overhead.

    The replay reaches cli.main's children only; argument parsing and
    output happen inside cli.main itself.  Its self time is derived per
    pair: untraced seconds in cli.main minus the replayed children.
    """
    from workloads import KINDS

    rows = [_sweep_layers(sw.tracer) for sw in traced]
    for row, sw in zip(rows, untraced):
        row["cli.main.self_s"] = sw.outcome.cli_main_s - row["cli.main.children_s"]
    med = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    counts = traced[0].tracer.counts
    peaks = traced[0].tracer.peaks

    def rate(steps: int, seconds: float) -> float:
        return steps / seconds if steps and seconds > 0 else 0.0

    steps = {k: counts[f"simulate.fine_steps.{k}"] for k in KINDS}
    metrics = {
        "simulate.fine_steps_per_s": rate(sum(steps.values()), med["simulate.integrate.s"]),
        **{f"simulate.fine_steps_per_s.{k}": rate(steps[k], med[f"simulate.integrate.s.{k}"])
           for k in KINDS},
        "simulate.fine_steps": sum(steps.values()),
        "simulate.s_per_path": (med["simulate.s"] / counts["simulate.paths"]
                                if counts["simulate.paths"] else 0.0),
        "trace.overhead_frac": (statistics.median(sw.wall for sw in traced)
                                / statistics.median(sw.wall for sw in untraced) - 1.0),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if PER_LAYER[name] == "count":
            metrics[name] = peaks.get(name, 0) if name.endswith(".max") else counts[name]
        else:
            metrics[name] = med[name]
    return metrics


def _trace_problems(untraced: list[Sweep], traced: list[Sweep]) -> list[str]:
    problems = []
    reference = untraced[0].outcome.outputs
    for i, sw in enumerate(traced):
        if sw.outcome.outputs != reference:
            sw.outcome.failed = sw.outcome.ops
            problems.append(f"traced replay {i} did not reproduce the untraced estimates")
        if sw.tracer.counts != traced[0].tracer.counts:
            problems.append(f"traced replay {i} counted different work from replay 0")
    return problems


def _write_trace(path: Path, env: dict, traced: list[Sweep]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "sweeps": [sw.tracer.export() for sw in traced]}, fh)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc_long", "mc_tables", "estimate_ci"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="work per sweep; smoke is for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "reflectsde" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'reflectsde'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import SIZES, WORKLOADS

    env = environment(args.workload, args.seed, args.size)
    print(json.dumps({"env": env}))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.workload, args.seed, SIZES[args.size], workdir)
    try:
        if args.trace:
            wl.setup()
            untraced, traced = traced_pairs(wl, args.seconds)
            sweeps = untraced + traced
            problems = _consistency(untraced, untraced[0].outcome.outputs)
            problems += _trace_problems(untraced, traced)
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
            _write_trace(WORK / f"trace-{args.workload}-seed{args.seed}.json", env, traced)
        else:
            from clock import reference

            setups = [scaled_setup(wl.setup) for _ in range(SETUP_REPEATS)]
            sweeps = timed_sweeps(lambda: wl.sweep(reference), args.seconds)
            problems = _consistency(sweeps, sweeps[0].outcome.outputs)
            metrics = end_to_end(sweeps, statistics.median(s for _, s in setups))
            units = END_TO_END
            raw = sum(c.wall for sw in sweeps for c in sw.outcome.calls) / len(sweeps)
            print(f"# unscaled: setup {statistics.median(r for r, _ in setups)!r} s, "
                  f"mean sweep calls {raw!r} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(sw.outcome.ops for sw in sweeps)
    failed = sum(sw.outcome.failed for sw in sweeps)
    problems = wl.setup_problems + [p for sw in sweeps for p in sw.outcome.problems] + problems
    if wl.setup_problems:
        failed = attempted
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} sweeps={len(sweeps)} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted!r}")
    for name, value in metrics.items():
        print(f"# {name:40s} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
