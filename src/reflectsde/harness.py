"""Monte Carlo experiment runner: replicate simulate -> estimate sweeps,
bias / standard deviation / MSE summaries, and a normality diagnostic for
the standardized estimates.  The diagnostic imports ``scipy.stats`` on its
first call, not at import: no other code here needs it.

Replications are independent pure tasks keyed by (replication index, n);
each derives its own stream seed from the root seed, so results are
identical whether replications run serially or concurrently.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import rng
from .errors import DataError, ModelError
from .estimate import _point_estimate, estimate_two_factor
from .model import ModelConfig, SamplingPlan, _frozen, _is_integral, _require_in_domain
from .simulate import SimOptions, _check_two_factor, simulate_path, simulate_two_factor
from .stationary import information

_FAILURE_FRACTION = 0.01


def _check_sweep(cfg: McConfig | TwoFactorMcConfig) -> None:
    """Validate a sweep's replication count and n values, and store them as
    ints: 50.0 is n=50, and 50.7, nan, "50" or a repeated n is refused."""
    if not _is_integral(cfg.replications) or cfg.replications < 2:
        raise ModelError(f"replications must be an integer >= 2, got {cfg.replications!r}")
    if not cfg.n_values:
        raise ModelError("n_values must be non-empty")
    for n in cfg.n_values:
        if not _is_integral(n) or n < 2:
            raise ModelError(f"n values must be integers >= 2, got {n!r}")
    n_values = tuple(int(n) for n in cfg.n_values)
    if len(set(n_values)) < len(n_values):
        raise ModelError(f"n values must not repeat, got {cfg.n_values!r}")
    object.__setattr__(cfg, "replications", int(cfg.replications))
    object.__setattr__(cfg, "n_values", n_values)


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo experiment: a model with its true parameter, the
    sampling plan template, simulation options (whose seed is the root
    seed), the replication count, and the n values to sweep."""

    model: ModelConfig
    theta0: float
    plan: SamplingPlan
    sim: SimOptions
    replications: int
    n_values: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_in_domain(self.theta0, self.model.theta_domain)
        _check_sweep(self)


@dataclass(frozen=True)
class McSummary:
    """Bias, population standard deviation, and mean squared error of the
    replicate estimates at one n.  The population convention makes
    mse = bias**2 + std_dev**2 an identity."""

    n: int
    bias: float
    std_dev: float
    mse: float


@dataclass(frozen=True)
class McRun:
    """Replicate estimates per n, with per-replication failure records."""

    estimates: Mapping[int, np.ndarray]
    rep_indices: Mapping[int, np.ndarray]
    failures: Mapping[int, tuple[tuple[int, str], ...]]

    def summary(self, theta0: float, n: int) -> McSummary:
        return summarize(self.estimates[n], theta0, n=n)

    def summaries(self, theta0: float) -> list[McSummary]:
        return [self.summary(theta0, n) for n in sorted(self.estimates)]


def _replicate(
    cfg: McConfig | TwoFactorMcConfig,
    rep: Callable[[SamplingPlan, SimOptions], tuple[float, ...] | str],
    workers: int,
) -> tuple[McRun, ...]:
    """Run ``rep`` for each n and replication i, seeded from (root seed, i,
    n), and return one run per position of the estimate tuple it returns.
    A failure reason returned, or a DataError/ModelError raised, excludes
    the replication; more than 1% failures at any n aborts the run.
    ``workers`` must be an integer >= 1."""
    if not _is_integral(workers) or workers < 1:
        raise ModelError(f"workers must be an integer >= 1, got {workers!r}")
    root = cfg.sim.seed
    columns: dict[int, np.ndarray] = {}
    rep_indices: dict[int, np.ndarray] = {}
    failures: dict[int, tuple[tuple[int, str], ...]] = {}

    for n in cfg.n_values:
        plan_n = replace(cfg.plan, n=n)

        def one(i: int, *, _plan=plan_n, _n=n) -> tuple[float, ...] | str:
            opts = replace(cfg.sim, seed=rng.derive_seed(root, i, _n))
            try:
                return rep(_plan, opts)
            except (DataError, ModelError) as exc:
                return str(exc)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(one, range(cfg.replications)))
        else:
            outcomes = [one(i) for i in range(cfg.replications)]

        good = [(i, out) for i, out in enumerate(outcomes) if not isinstance(out, str)]
        bad = tuple((i, out) for i, out in enumerate(outcomes) if isinstance(out, str))
        if len(bad) > _FAILURE_FRACTION * cfg.replications:
            raise DataError(
                f"{len(bad)} of {cfg.replications} replications failed at n={n}: "
                f"{bad[0][1]}"
            )
        # one contiguous row of estimates per tuple position
        columns[n] = np.array([out for _, out in good]).T.copy()
        rep_indices[n] = np.array([i for i, _ in good], dtype=int)
        failures[n] = bad

    width = len(columns[cfg.n_values[0]])
    return tuple(McRun({n: col[j] for n, col in columns.items()}, rep_indices, failures)
                 for j in range(width))


def run_mc(cfg: McConfig, workers: int = 1) -> McRun:
    """Run the experiment: for each n and replication i, simulate with the
    stream seed derived from (root seed, i, n) and estimate with the
    estimator :func:`~reflectsde.estimate_nlse` picks.

    Failed replications (estimation errors or estimates pinned at the
    parameter-domain boundary) are recorded and excluded; more than 1%
    failures at any n aborts the run.  Deterministic given the root seed,
    serially or with ``workers`` threads.
    """

    def rep(plan: SamplingPlan, opts: SimOptions) -> tuple[float] | str:
        path = simulate_path(cfg.model, cfg.theta0, plan, opts)
        result = _point_estimate(path, cfg.model)
        if result.boundary_hit:
            return "estimate pinned at the domain boundary"
        return (result.theta_hat,)

    return _replicate(cfg, rep, workers)[0]


def summarize(estimates: Sequence[float], theta0: float, n: int = 0) -> McSummary:
    """Bias, population std, and MSE of replicate estimates around the true
    value."""
    values = np.asarray(estimates, dtype=float)
    if values.size < 2:
        raise DataError("summaries need at least two estimates")
    bias = float(np.mean(values) - theta0)
    std = float(np.std(values))
    mse = float(np.mean((values - theta0) ** 2))
    return McSummary(n=n, bias=bias, std_dev=std, mse=mse)


@dataclass(frozen=True)
class NormalityReport:
    """Standardized estimates z = sqrt(n h info) (theta_hat - theta0) / sigma
    with their sample moments and a Kolmogorov-Smirnov test against N(0,1)."""

    z: np.ndarray
    sample_mean: float
    sample_std: float
    ks_statistic: float
    ks_pvalue: float
    level: float
    passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _frozen(self.z))


def normality_diagnostic(
    estimates: Sequence[float],
    theta0: float,
    plan: SamplingPlan,
    config: ModelConfig,
    level: float = 0.01,
) -> NormalityReport:
    """Standardize replicate estimates with the model-based scaling at the
    true parameter and test them against the standard normal limit at
    ``level``, which must lie in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ModelError(f"level must lie in (0, 1), got {level!r}")
    if config.sigma <= 0:
        raise ModelError("the normality diagnostic requires sigma > 0")
    values = np.asarray(estimates, dtype=float)
    if values.size < 2:
        raise DataError("the normality diagnostic needs at least two estimates")
    if not np.all(np.isfinite(values)):
        raise DataError("the normality diagnostic needs finite estimates")
    info = information(config, theta0)
    scale = math.sqrt(plan.n * plan.h * info) / config.sigma
    z = scale * (values - theta0)
    from scipy import stats  # imported here: about 0.5 s that no other code path needs

    ks = stats.kstest(z, "norm")
    return NormalityReport(
        z=z,
        sample_mean=float(np.mean(z)),
        sample_std=float(np.std(z, ddof=1)),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        level=level,
        passed=bool(ks.pvalue > level),
    )


@dataclass(frozen=True)
class TwoFactorMcConfig:
    """Monte Carlo sweep for the coupled log-price / short-rate system."""

    y0: float
    r0: float
    theta1: float
    theta2: float
    sigma: float
    a: float
    b: float
    plan: SamplingPlan
    sim: SimOptions
    replications: int
    n_values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_two_factor(self.y0, self.r0, self.theta1, self.theta2, self.sigma, self.a,
                          self.b)
        _check_sweep(self)


def run_mc_two_factor(
    cfg: TwoFactorMcConfig, workers: int = 1
) -> tuple[McRun, McRun]:
    """Replicate the two-factor simulate -> estimate pipeline; returns one
    run per parameter.  Seeding and failure handling mirror :func:`run_mc`."""
    def rep(plan: SamplingPlan, opts: SimOptions) -> tuple[float, float]:
        tf = simulate_two_factor(
            cfg.y0, cfg.r0, cfg.theta1, cfg.theta2, cfg.sigma, cfg.a, cfg.b, plan, opts,
        )
        r1, r2 = estimate_two_factor(tf, cfg.sigma)
        return r1.theta_hat, r2.theta_hat

    return _replicate(cfg, rep, workers)
