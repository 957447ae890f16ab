"""Command-line front end.

Subcommands: ``simulate``, ``estimate``, ``mc``, ``density``, ``ginfo``.
Model, sampling, and simulation settings come from a key-value
configuration file; command-line flags override file values.  Exit status:
0 success, 1 usage error, 2 model/configuration/data error.  Diagnostics go
to stderr, data to the selected output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Mapping

import numpy as np

from .errors import ConfigError, DataError, ModelError, UsageError
from .estimate import estimate_nlse
from .harness import McConfig, normality_diagnostic, run_mc
from .model import (
    BarrierConfig,
    DriftSpec,
    ModelConfig,
    SamplingPlan,
)
from .simulate import (
    LEPINGLE,
    PROJECTION,
    SimOptions,
    read_path_csv,
    simulate_path,
    write_csv,
    write_path_csv,
)
from .stationary import information, invariant_density

_MODEL_KEYS = {
    "drift.kind", "drift.gamma", "drift.covariate",
    "sigma", "barrier.a", "barrier.b",
    "theta.lo", "theta.hi", "theta.true", "x0",
}
_RUN_KEYS = {"n", "h", "alpha", "substeps", "scheme", "seed", "reps"}
_ALL_KEYS = _MODEL_KEYS | _RUN_KEYS

_DEFAULTS = {"alpha": 0.25, "substeps": 10, "scheme": LEPINGLE, "seed": 0}


@dataclass(frozen=True)
class ParsedConfig:
    """Validated configuration: the model plus optional run settings."""

    model: ModelConfig
    sim: SimOptions
    theta_true: float | None
    n: int | None
    h: float | None
    alpha: float
    reps: int | None

    def require_plan(self) -> SamplingPlan:
        if self.n is None:
            raise ConfigError("missing required key: n")
        if self.h is None:
            raise ConfigError("missing required key: h")
        return SamplingPlan(n=self.n, h=self.h, alpha=self.alpha)

    def require_theta_true(self) -> float:
        if self.theta_true is None:
            raise ConfigError("missing required key: theta.true")
        return self.theta_true


def _read_key_values(path: str | Path) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key: {key}")
        if key in raw:
            raise ConfigError(f"duplicate key: {key}")
        raw[key] = value
    return raw


def _as_float(raw: Mapping[str, str], key: str) -> float | None:
    if key not in raw:
        return None
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"malformed number for key {key}: {raw[key]!r}")


def _as_int(raw: Mapping[str, str], key: str) -> int | None:
    if key not in raw:
        return None
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"malformed integer for key {key}: {raw[key]!r}")


def _require(raw: Mapping[str, str], key: str) -> str:
    if key not in raw:
        raise ConfigError(f"missing required key: {key}")
    return raw[key]


def parse_config(
    path: str | Path, overrides: Mapping[str, object] | None = None
) -> ParsedConfig:
    """Load and validate a configuration file, applying flag overrides.

    Defaults: substeps=10, scheme=lepingle, alpha=0.25, seed=0.
    """
    raw = _read_key_values(path)
    overrides = dict(overrides or {})

    kind = _require(raw, "drift.kind")
    if kind == "power":
        gamma = _as_float(raw, "drift.gamma")
        if gamma is None:
            raise ConfigError("missing required key: drift.gamma")
        drift = DriftSpec.power(gamma)
    elif kind == "mean_reversion_to_one":
        drift = DriftSpec.mean_reversion_to_one()
    elif kind == "shifted_covariate":
        cov = _as_float(raw, "drift.covariate")
        if cov is None:
            raise ConfigError("missing required key: drift.covariate")
        drift = DriftSpec.shifted_covariate(cov)
    else:
        raise ConfigError(f"unknown drift.kind: {kind!r}")

    sigma = _as_float(raw, "sigma")
    if sigma is None:
        raise ConfigError("missing required key: sigma")
    if sigma <= 0:
        raise ConfigError("sigma must be > 0")

    a = _as_float(raw, "barrier.a")
    if a is None:
        raise ConfigError("missing required key: barrier.a")
    b = _as_float(raw, "barrier.b")
    barriers = BarrierConfig(a=a, b=b)

    lo = _as_float(raw, "theta.lo")
    hi = _as_float(raw, "theta.hi")
    if lo is None:
        raise ConfigError("missing required key: theta.lo")
    if hi is None:
        raise ConfigError("missing required key: theta.hi")
    x0 = _as_float(raw, "x0")
    if x0 is None:
        raise ConfigError("missing required key: x0")

    model = ModelConfig(
        drift=drift, sigma=sigma, barriers=barriers, theta_domain=(lo, hi), x0=x0
    )

    def merged(key: str, parser, default=None):
        if key in overrides and overrides[key] is not None:
            return overrides[key]
        value = parser(raw, key)
        return default if value is None else value

    n = merged("n", _as_int)
    h = merged("h", _as_float)
    alpha = merged("alpha", _as_float, _DEFAULTS["alpha"])
    substeps = merged("substeps", _as_int, _DEFAULTS["substeps"])
    seed = merged("seed", _as_int, _DEFAULTS["seed"])
    reps = merged("reps", _as_int)
    theta_true = merged("theta.true", _as_float)
    if "scheme" in overrides and overrides["scheme"] is not None:
        scheme = overrides["scheme"]
    else:
        scheme = raw.get("scheme", _DEFAULTS["scheme"])
    if scheme not in (LEPINGLE, PROJECTION):
        raise ConfigError(f"unknown scheme: {scheme!r}")

    sim = SimOptions(scheme=scheme, substeps=int(substeps), seed=int(seed))
    return ParsedConfig(
        model=model,
        sim=sim,
        theta_true=theta_true,
        n=None if n is None else int(n),
        h=None if h is None else float(h),
        alpha=float(alpha),
        reps=None if reps is None else int(reps),
    )


def _check_destination(dest: str | Path) -> None:
    """Fail before any work when ``dest`` lies in a directory that does not
    exist; the same usage error as opening it afterwards would give."""
    if dest == "-":
        return
    parent = Path(dest).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise UsageError(f"cannot write {dest}: {os.strerror(code)}")


def _prepare_out_dir(out_dir: Path) -> None:
    """Create ``out_dir`` and check that it takes files, before any work."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write into {out_dir}: {exc.strerror}") from None
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise UsageError(f"cannot write into {out_dir}: {os.strerror(errno.EACCES)}")


@contextlib.contextmanager
def _output(dest: str | Path) -> Iterator[IO[str]]:
    """``dest`` opened for writing, or stdout for ``-``; a destination that
    cannot be opened is a usage error."""
    if dest == "-":
        yield sys.stdout
        return
    try:
        fh = open(dest, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {dest}: {exc.strerror}") from None
    with fh:
        yield fh


def _level(text: str) -> float:
    """``estimate --level``: a confidence level strictly between 0 and 1."""
    try:
        level = float(text)
    except ValueError:
        level = math.nan
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return level


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via UsageError instead
    of exiting with argparse's default status."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing fills a fresh
    namespace on every call, so reusing it carries no state over."""
    parser = _Parser(prog="reflectsde", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--config", required=True, help="model configuration file")
        p.add_argument("--out", default="-", help="output file ('-' = stdout)")

    p_sim = sub.add_parser("simulate", help="simulate a reflected path to CSV")
    add_common(p_sim)
    p_sim.add_argument("--n", type=int, help="number of increments")
    p_sim.add_argument("--h", type=float, help="observation step size")
    p_sim.add_argument("--seed", type=int, help="stream seed")
    p_sim.add_argument("--substeps", type=int, help="fine steps per interval")
    p_sim.add_argument("--scheme", choices=[LEPINGLE, PROJECTION])
    p_sim.add_argument("--theta", type=float, help="true drift parameter")

    p_est = sub.add_parser("estimate", help="estimate theta from a path CSV")
    add_common(p_est)
    p_est.add_argument("--path", required=True, help="path CSV to estimate from")
    p_est.add_argument("--level", type=_level, default=0.95,
                       help="confidence level (default 0.95)")

    p_mc = sub.add_parser("mc", help="Monte Carlo bias/std/mse sweep")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--reps", type=int, help="number of replications")
    p_mc.add_argument("--seed", type=int, help="root seed")
    p_mc.add_argument("--n", help="comma-separated n values, e.g. 50,100,200")
    p_mc.add_argument("--h", type=float)
    p_mc.add_argument("--substeps", type=int)
    p_mc.add_argument("--scheme", choices=[LEPINGLE, PROJECTION])
    p_mc.add_argument("--theta", type=float, help="true drift parameter")
    p_mc.add_argument("--out-dir", default=".", help="directory for CSV outputs")
    p_mc.add_argument("--zscores", action="store_true",
                      help="also write zscores.csv for the largest n")

    p_den = sub.add_parser("density", help="invariant density as x,pi CSV")
    add_common(p_den)
    p_den.add_argument("--theta", type=float, help="parameter value")

    p_gi = sub.add_parser("ginfo", help="information integral over a theta grid")
    add_common(p_gi)
    p_gi.add_argument("--points", type=int, default=50, help="grid size")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config, {
        "n": args.n, "h": args.h, "seed": args.seed,
        "substeps": args.substeps, "scheme": args.scheme,
        "theta.true": args.theta,
    })
    plan = parsed.require_plan()
    theta = parsed.require_theta_true()
    _check_destination(args.out)
    path = simulate_path(parsed.model, theta, plan, parsed.sim)
    with _output(args.out) as fh:
        write_path_csv(path, fh)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config)
    _check_destination(args.out)
    try:
        path = read_path_csv(args.path, parsed.model.barriers)
    except OSError as exc:
        raise UsageError(f"cannot read path CSV {args.path}: {exc.strerror}")
    plan = SamplingPlan(n=path.n, h=path.h, alpha=parsed.alpha)
    result = estimate_nlse(path, parsed.model, plan, level=args.level)
    record = {
        "theta_hat": result.theta_hat,
        "stderr": result.stderr,
        "ci_lo": result.ci[0],
        "ci_hi": result.ci[1],
        "method": result.method,
        "n": path.n,
        "h": path.h,
    }
    with _output(args.out) as fh:
        fh.write(json.dumps(record) + "\n")
    return 0


def _parse_n_list(text: str | None, fallback: int | None) -> tuple[int, ...]:
    if text is None:
        if fallback is None:
            raise ConfigError("missing required key: n")
        return (int(fallback),)
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--n expects comma-separated integers, got {text!r}")
    if not values:
        raise UsageError("--n expects at least one value")
    return values


def _cmd_mc(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config, {
        "h": args.h, "seed": args.seed, "substeps": args.substeps,
        "scheme": args.scheme, "theta.true": args.theta, "reps": args.reps,
    })
    if parsed.h is None:
        raise ConfigError("missing required key: h")
    if parsed.reps is None:
        raise ConfigError("missing required key: reps")
    n_values = _parse_n_list(args.n, parsed.n)
    theta0 = parsed.require_theta_true()
    plan = SamplingPlan(n=max(n_values), h=parsed.h, alpha=parsed.alpha)
    cfg = McConfig(
        model=parsed.model, theta0=theta0, plan=plan, sim=parsed.sim,
        replications=parsed.reps, n_values=n_values,
    )
    out_dir = Path(args.out_dir)
    _prepare_out_dir(out_dir)
    run = run_mc(cfg)

    ns = sorted(run.estimates)
    with _output(out_dir / "estimates.csv") as fh:
        write_csv(fh, "n,rep,theta_hat",
                  np.repeat(ns, [len(run.estimates[n]) for n in ns]),
                  np.concatenate([run.rep_indices[n] for n in ns]),
                  np.concatenate([run.estimates[n] for n in ns]))
    with _output(out_dir / "summary.csv") as fh:
        write_csv(fh, "n,bias,std_dev,mse",
                  *zip(*((s.n, s.bias, s.std_dev, s.mse) for s in run.summaries(theta0))))
    if args.zscores:
        n_big = max(run.estimates)
        plan_big = SamplingPlan(n=n_big, h=parsed.h, alpha=parsed.alpha)
        report = normality_diagnostic(
            run.estimates[n_big], theta0, plan_big, parsed.model
        )
        with _output(out_dir / "zscores.csv") as fh:
            write_csv(fh, "rep,z", run.rep_indices[n_big], report.z)
    for n in sorted(run.failures):
        for rep, msg in run.failures[n]:
            print(f"warning: n={n} rep={rep} excluded: {msg}", file=sys.stderr)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config, {"theta.true": args.theta})
    theta = parsed.require_theta_true()
    _check_destination(args.out)
    grid = invariant_density(parsed.model, theta)
    with _output(args.out) as fh:
        write_csv(fh, "x,pi", grid.nodes, grid.values)
    return 0


def _cmd_ginfo(args: argparse.Namespace) -> int:
    parsed = parse_config(args.config)
    lo, hi = parsed.model.theta_domain
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    _check_destination(args.out)
    pad = 1e-9 * (hi - lo)
    thetas = np.linspace(lo + pad, hi - pad, args.points)
    g = [information(parsed.model, float(th)) for th in thetas]
    with _output(args.out) as fh:
        write_csv(fh, "theta,g", thetas, g)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "mc": _cmd_mc,
    "density": _cmd_density,
    "ginfo": _cmd_ginfo,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point.  Returns the exit status instead of raising SystemExit
    so it can be driven in-process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ModelError, DataError) as exc:
        kind = "configuration" if isinstance(exc, ConfigError) else "model/data"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
