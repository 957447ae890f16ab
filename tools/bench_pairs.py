"""Alternating benchmark pairs between two checkouts of this repository.

    python tools/bench_pairs.py pairs --parent ../parent --change . --label pr20 \
        --pairs 10 --seconds 25 --percall-rounds 4

runs ``perfbench/run.py --workload W --seed S --seconds T`` from each
checkout in turn (seeds ``--first-seed`` to ``--first-seed`` + N − 1, 1
by default; the side that runs first alternates from pair to pair), for
every workload of ``BENCHMARK.json``, and writes
``BENCH_<label>.json`` beside this script's repository: every run's last
stdout line, and per workload and end-to-end metric the medians,
quartiles and ranges of both sides, the relative change of the median and
the pairs the change won.  With ``--percall-rounds R`` it also runs
``percall`` R times a side, alternating sides, one fresh process each.

    python tools/bench_pairs.py percall --root ../parent

prints per-call timings of the checkout at ``--root`` as one JSON object:
the golden-section search, a contrast closure built and evaluated once,
the CSV reader on the five CSVs of the estimate_ci workload, its time-grid
check, a custom drift's fine step, a sha256 of every search result
over 60 paths per drift kind on both steppers, and the cold start: fresh
children (one a sample, three of each) of
``python -c "import reflectsde.cli"``, timed with the ``sys.modules``
count after it, whether ``scipy.special``'s package was imported and the
child's peak RSS, and of ``python -m reflectsde estimate`` on the
estimate_ci mean-reversion CSV (2,001 rows), timed with a sha256 of its
stdout, plus one ``python -X importtime`` of the import.  The children run
with one BLAS thread, as ``perfbench/run.py`` does.  Only names that both
checkouts define are called.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and metric: both sides' medians, quartiles and ranges,
    the relative change of the median and the pairs the change won."""
    out: dict = {}
    for wl in dict.fromkeys(run["workload"] for run in runs):
        out[wl] = {}
        for name, better in metrics.items():
            side = {s: {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == wl and r["side"] == s
                        and name in r["result"]["metrics"]} for s in ("parent", "change")}
            seeds = sorted(set(side["parent"]) & set(side["change"]))
            if not seeds:
                continue
            old = [side["parent"][k] for k in seeds]
            new = [side["change"][k] for k in seeds]
            sign = 1.0 if better == "lower" else -1.0
            med_old, med_new = statistics.median(old), statistics.median(new)
            out[wl][name] = {
                "parent_median": med_old, "new_median": med_new,
                "parent_iqr": _quartiles(old), "new_iqr": _quartiles(new),
                "parent_range": [min(old), max(old)], "new_range": [min(new), max(new)],
                "change": med_new / med_old - 1.0 if med_old else None,
                "new_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
                "pairs": len(seeds),
            }
    return out


def run_pairs(args: argparse.Namespace) -> None:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = []
    for wl in workloads:
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for name in order:
                started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                done = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                     "--seconds", str(args.seconds)],
                    cwd=sides[name], capture_output=True, text=True, check=True)
                runs.append({"workload": wl, "side": name, "seed": seed,
                             "seconds": args.seconds, "trace": 0, "first": order[0],
                             "started": started, "result": _last_json(done.stdout)})
                print(wl, seed, name, runs[-1]["result"]["metrics"]["wall_s"]["value"],
                      flush=True)
    percall: dict = {"parent": [], "change": []}
    for k in range(args.percall_rounds):
        for name in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            done = subprocess.run([sys.executable, __file__, "percall", "--root", str(sides[name])],
                                  capture_output=True, text=True, check=True)
            percall[name].append(_last_json(done.stdout))
    record = {
        "description": args.description,
        "host": args.host,
        "parent_commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=sides["parent"],
                                        capture_output=True, text=True).stdout.strip(),
        "medians": summarize(runs, metrics),
        "percall": percall,
        "runs": runs,
    }
    dest = Path(args.out) if args.out else HERE.parent / f"BENCH_{args.label}.json"
    dest.write_text(json.dumps(record, indent=1) + "\n")


def _best_median(fn, calls: int) -> dict:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"best_us": min(times) * 1e6, "median_us": statistics.median(times) * 1e6}


_IMPORT_CHILD = ("import reflectsde.cli, sys; n = len(sys.modules); "
                 "init = 'scipy.special' in sys.modules; import resource; "
                 "print(n, init, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
# the modules whose cumulative import time the importtime record keeps
_IMPORTTIME_NAMES = ("site", "numpy", "scipy", "scipy.special", "scipy.special._ufuncs",
                     "scipy.special._support_alternative_backends", "numpy.f2py",
                     "reflectsde", "reflectsde.cli")
# fresh children of each kind per cold-start record
_COLD_SAMPLES = 3


def _timed_child(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return time.perf_counter() - t0, done


def cold_start(root: Path, cfg: Path, csv: Path) -> dict:
    """Fresh-process timings of the checkout at ``root`` (see the module
    text): ``_COLD_SAMPLES`` children of each kind, one a sample."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    imports, estimates = [], []
    for _ in range(_COLD_SAMPLES):
        wall, done = _timed_child([sys.executable, "-c", _IMPORT_CHILD], env)
        modules, init, rss_kb = done.stdout.split()
        imports.append({"wall_s": wall, "modules": int(modules),
                        "scipy_special_init": init == "True", "maxrss_mb": int(rss_kb) / 1024})
        wall, done = _timed_child([sys.executable, "-m", "reflectsde", "estimate", "--config",
                                   str(cfg), "--path", str(csv)], env)
        estimates.append({"wall_s": wall,
                          "stdout_sha256": hashlib.sha256(done.stdout.encode()).hexdigest()})
    _, done = _timed_child([sys.executable, "-X", "importtime", "-c", "import reflectsde.cli"],
                           env)
    cumulative_us = {}
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            if fields[2].strip() in _IMPORTTIME_NAMES:
                cumulative_us[fields[2].strip()] = int(fields[1])
    return {
        "import": {"median_s": statistics.median(s["wall_s"] for s in imports),
                   "samples": imports},
        "estimate": {"csv": csv.name, "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
                     "median_s": statistics.median(s["wall_s"] for s in estimates),
                     "samples": estimates},
        "importtime_cumulative_us": cumulative_us,
    }


def percall(root: Path) -> dict:
    """Per-call timings of the checkout at ``root`` (see the module text)."""
    import contextlib
    import io
    import tempfile

    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np

    import reflectsde as rs
    import workloads
    from reflectsde import _native, cli, estimate, simulate

    def path_of(drift, n, seed, domain=(0.01, 10.0)):
        model = rs.ModelConfig(drift=drift, sigma=workloads.SIGMA,
                               barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                               theta_domain=domain, x0=1.0)
        return rs.simulate_path(model, 2.0 if domain[0] > 0 else 0.5,
                                rs.SamplingPlan(n=n, h=0.01), rs.SimOptions(seed=seed))

    kinds = {"mean_reversion": (rs.DriftSpec.mean_reversion_to_one(), (0.01, 10.0)),
             "shifted_covariate": (rs.DriftSpec.shifted_covariate(-1.0), (-5.0, 5.0)),
             "custom": (workloads.custom_drift(), (-20.0, 20.0)),
             "power_half": (rs.DriftSpec.power(0.5), (0.01, 10.0))}
    out: dict = {"golden_section": {}, "contrast_closure": {}, "read_rows": {}}
    for name, n in (("mean_reversion", 2000), ("shifted_covariate", 2000), ("custom", 200),
                    ("custom", 2000)):
        drift, domain = kinds[name]
        path = path_of(drift, n, 7, domain)
        res = rs.nlse_optimize(path, drift, domain)
        entry = _best_median(lambda: rs.nlse_optimize(path, drift, domain), 101)
        out["golden_section"][f"{name} n={n}"] = {**entry, "theta_hat": res.theta_hat.hex()}
    for n in (200, 2000):
        spec = rs.DriftSpec.power(0.5)
        path = path_of(spec, n, 7)
        out["contrast_closure"][f"_contrast_of power n={n}"] = _best_median(
            lambda: estimate._contrast_of(path, spec)(2.0), 2001)
        out["contrast_closure"][f"contrast power n={n}"] = _best_median(
            lambda: rs.contrast(path, spec, 2.0), 2001)
        out["contrast_closure"][f"estimate_power_closed_form n={n}"] = _best_median(
            lambda: rs.estimate_power_closed_form(path, 0.5, (0.01, 10.0)), 2001)
    with tempfile.TemporaryDirectory() as tmp:
        for leg in workloads.CLI_LEGS:
            cfg, csv = Path(tmp, leg.name + ".cfg"), Path(tmp, leg.name + ".csv")
            cfg.write_text(leg.config + workloads._BASE + "n = 2000\n", encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["simulate", "--config", str(cfg), "--seed", "11", "--out", str(csv)])
            text = csv.read_text().split("\n", 1)[1]
            ncol = text.split("\n", 1)[0].count(",") + 1
            out["read_rows"][leg.name] = _best_median(
                lambda: simulate._read_rows(text, ncol), 301)
            steps = np.diff(simulate._read_rows(text, ncol)[:, 0])
            h = float(steps[0])
        regular = getattr(simulate, "_regular", None)
        check = ((lambda: regular(steps.copy(), h)) if regular else
                 (lambda: np.allclose(steps, h, rtol=1e-9, atol=0.0)))
        out["time_grid_check"] = _best_median(check, 1001)
        leg = "mean_reversion_two_sided"
        out["cold_start"] = cold_start(root, Path(tmp, leg + ".cfg"), Path(tmp, leg + ".csv"))
    custom = rs.ModelConfig(drift=workloads.custom_drift(), sigma=0.5,
                            barriers=rs.BarrierConfig.two_sided(0.0, 2.0),
                            theta_domain=(-20.0, 20.0), x0=1.0)
    plan = rs.SamplingPlan(n=5000, h=0.01)
    rs.simulate_path(custom, 2.0, plan, rs.SimOptions(seed=1))
    steps_run = _best_median(lambda: rs.simulate_path(custom, 2.0, plan,
                                                      rs.SimOptions(seed=2)), 40)
    out["custom_fine_step_ns"] = {k.replace("_us", "_ns"): v * 1e3 / 50000
                                  for k, v in steps_run.items()}
    digests = {}
    for backend in ("native", "python"):
        if backend == "python":
            _native.load = lambda: None
        digest = hashlib.sha256()
        for name, (drift, domain) in kinds.items():
            for seed in range(60):
                res = rs.nlse_optimize(path_of(drift, 200, seed, domain), drift, domain)
                digest.update(repr((res.theta_hat, res.contrast_at_min, res.iterations,
                                    res.boundary_hit)).encode())
        digests[backend] = digest.hexdigest()
    out["search_results_sha256"] = digests
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", default=str(HERE.parent))
    pairs.add_argument("--label", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--first-seed", type=int, default=1)
    pairs.add_argument("--seconds", type=float, default=25)
    pairs.add_argument("--workloads", nargs="*")
    pairs.add_argument("--percall-rounds", type=int, default=0)
    pairs.add_argument("--description", default="")
    pairs.add_argument("--host", default="")
    pairs.add_argument("--out")
    one = sub.add_parser("percall")
    one.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    if args.command == "pairs":
        run_pairs(args)
    else:
        print(json.dumps(percall(Path(args.root).resolve())))


if __name__ == "__main__":
    main()
