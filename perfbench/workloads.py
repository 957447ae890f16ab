"""The benchmark workloads: mc_long, mc_tables and estimate_ci.

Each workload builds its inputs from the workload seed in ``setup`` and then
offers two ways to run one fixed unit of work, a *sweep*:

* ``sweep()`` calls the entry points a user calls (``run_mc``,
  ``run_mc_two_factor``, ``cli.main``, ``estimate_nlse``), untraced;
* ``replay(tracer)`` does the same work one level down, calling what those
  entry points call, each call inside a span.

Both return an :class:`Outcome`.  Their ``outputs`` hold every estimate as
raw bytes or exact floats, so equal outputs mean bit-identical estimates.
Every sweep of a run repeats the same inputs.

The correctness checks here do not depend on the exact random stream: they
hold for any valid draws, so a deliberate stream-layout change or an ulp-level
change in the arithmetic leaves them passing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import reflectsde as rs
from reflectsde import cli, rng
from reflectsde.errors import DataError, ModelError
from reflectsde.model import POWER

from clock import cpu_seconds
from tracing import Tracer

BUILTIN, CUSTOM, TWO_FACTOR = "builtin", "custom", "two_factor"
KINDS = (BUILTIN, CUSTOM, TWO_FACTOR)
SIGMA = 0.2  # diffusion coefficient of every one-factor model here

# Work per sweep.  "smoke" exists for the benchmark's own tests.
# estimate_ci has three cheap and three expensive models.  With as many
# custom-drift paths as CLI paths per model, the median call fell in the gap
# between them and jumped with the custom path's grid size (7 to 64 ms);
# with fewer custom paths it falls inside the power gamma=1/2 one-sided calls.
SIZES = {
    "full": {"long_reps": 2, "long_n": 10_000, "tf_n": 5000,
             "table_reps": 40, "est_paths": 4, "custom_paths": 2, "est_n": 2000},
    "smoke": {"long_reps": 2, "long_n": 200, "tf_n": 200,
              "table_reps": 2, "est_paths": 1, "custom_paths": 1, "est_n": 200},
}

_IDENTITY_REL_TOL = 1e-10   # mse == bias^2 + std^2, exact up to rounding
_CLOSED_FORM_REL_TOL = 1e-6  # quadrature information against its closed form
_PIN_FRACTION = 1e-6        # estimates this close to a domain end are pinned


@dataclass(frozen=True)
class Call:
    """One timed call into the package, which performs ``ops`` operations."""

    ops: int
    wall: float
    cpu: float


@dataclass
class Outcome:
    """What one sweep did: operations attempted and failed, the estimates
    it produced, its timed calls, the seconds spent inside ``cli.main``
    calls, and any check that failed.

    With a ``reference`` kernel, the sweep runs it before its first call and
    after each call, so ``marks[i]`` and ``marks[i + 1]`` bracket
    ``calls[i]``."""

    ops: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    cli_main_s: float = 0.0
    problems: list = field(default_factory=list)
    reference: Callable[[], float] | None = None
    marks: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.reference is not None:
            self.marks.append(self.reference())

    def record(self, ops: int, failed: int, problems: list[str]) -> None:
        self.ops += ops
        self.failed += failed
        self.problems.extend(problems)

    @contextlib.contextmanager
    def call(self, ops: int) -> Iterator[None]:
        """Time the calls into the package made inside the block."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            yield
        finally:
            t1, c1 = time.perf_counter(), cpu_seconds()
            self.calls.append(Call(ops, t1 - t0, c1 - c0))
            if self.reference is not None:
                self.marks.append(self.reference())


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _summary_problems(label: str, summaries) -> list[str]:
    return [
        f"{label} n={s.n}: mse {s.mse!r} != bias^2 + std^2 "
        f"{s.bias ** 2 + s.std_dev ** 2!r}"
        for s in summaries
        if not _close(s.mse, s.bias ** 2 + s.std_dev ** 2, _IDENTITY_REL_TOL)
    ]


def _ci_problems(label: str, theta: float, se: float, lo: float, hi: float) -> list[str]:
    problems = []
    if not (math.isfinite(se) and se > 0.0):
        problems.append(f"{label}: stderr {se!r} is not a positive number")
    elif abs((hi - theta) - (theta - lo)) > 1e-9 * se:
        problems.append(f"{label}: CI ({lo!r}, {hi!r}) is not symmetric about {theta!r}")
    return problems


def custom_drift() -> rs.DriftSpec:
    """f(x, theta) = theta * (1 - x) - x**3: not a built-in kind, so it runs
    through the Python stepper and the golden-section search."""
    return rs.DriftSpec.custom(
        f=lambda x, th: th * (1.0 - x) - x ** 3,
        df_dtheta=lambda x, th: 1.0 - x + 0.0 * th,
        d2f_dtheta2=lambda x, th: 0.0 * (x + th),
        lipschitz_bound=30.0,
    )


def _power_model(gamma: float, two_sided: bool) -> rs.ModelConfig:
    return rs.ModelConfig(
        drift=rs.DriftSpec.power(gamma),
        sigma=SIGMA,
        barriers=(rs.BarrierConfig.two_sided(0.0, 3.0) if two_sided
                  else rs.BarrierConfig.one_sided_lower(0.0)),
        theta_domain=(0.01, 10.0),
        x0=1.0 if two_sided else 0.5,
    )


def _custom_model() -> rs.ModelConfig:
    return rs.ModelConfig(
        drift=custom_drift(), sigma=SIGMA,
        barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
        theta_domain=(-20.0, 20.0), x0=1.0,
    )


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McLeg:
    """One ``run_mc`` (or ``run_mc_two_factor``) call of a sweep."""

    name: str
    kind: str
    cfg: rs.McConfig | rs.TwoFactorMcConfig

    @property
    def reps(self) -> int:
        return self.cfg.replications * len(self.cfg.n_values)

    @property
    def theta0s(self) -> tuple[float, ...]:
        if self.kind == TWO_FACTOR:
            return (self.cfg.theta1, self.cfg.theta2)
        return (self.cfg.theta0,)


def _mc_long_legs(rnd: random.Random, size: dict) -> list[McLeg]:
    """Few long paths: the criterion-4 nh=100 shape and the table-3
    two-factor shape.  Integration is about 95% of the time."""
    reps = size["long_reps"]
    n = size["long_n"]
    tf_n = size["tf_n"]
    return [
        McLeg("ou_nh100", BUILTIN, rs.McConfig(
            model=_power_model(1.0, two_sided=True), theta0=2.0,
            plan=rs.SamplingPlan(n=n, h=0.01),
            sim=rs.SimOptions(scheme=rs.LEPINGLE, substeps=10, seed=rnd.getrandbits(63)),
            replications=reps, n_values=(n,),
        )),
        McLeg("table3_two_factor", TWO_FACTOR, rs.TwoFactorMcConfig(
            y0=1.0, r0=0.5, theta1=1.0, theta2=1.0, sigma=0.1, a=0.0, b=3.0,
            plan=rs.SamplingPlan(n=tf_n, h=0.01),
            sim=rs.SimOptions(seed=rnd.getrandbits(63)),
            replications=reps, n_values=(tf_n,),
        )),
    ]


def _mc_tables_legs(rnd: random.Random, size: dict) -> list[McLeg]:
    """Many short paths: tables 1 and 2 and a custom-drift leg, where
    per-path fixed costs carry weight."""
    reps = size["table_reps"]
    plan = rs.SamplingPlan(n=200, h=0.01)

    def leg(name, kind, model, n_values):
        return McLeg(name, kind, rs.McConfig(
            model=model, theta0=2.0, plan=plan,
            sim=rs.SimOptions(seed=rnd.getrandbits(63)),
            replications=reps, n_values=n_values,
        ))

    return [
        leg("table1_two_sided", BUILTIN, _power_model(0.5, True), (200,)),
        leg("table1_one_sided", BUILTIN, _power_model(0.5, False), (200,)),
        leg("table2_one_sided", BUILTIN, _power_model(2.0 / 3.0, False), (50, 100, 200)),
        leg("custom_drift", CUSTOM, _custom_model(), (200,)),
    ]


class McWorkload:
    def __init__(self, name: str, seed: int, size: dict, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.legs: list[McLeg] = []
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        build = _mc_long_legs if self.name == "mc_long" else _mc_tables_legs
        self.legs = build(random.Random(self.seed), self.size)
        self.setup_problems = []
        for leg in self.legs:
            warm = replace(leg.cfg, replications=2, n_values=(min(leg.cfg.n_values[0], 200),))
            if leg.kind == TWO_FACTOR:
                rs.run_mc_two_factor(warm, workers=1)
                self.setup_problems += self._two_factor_stderr_problems(warm)
            else:
                rs.run_mc(warm, workers=1)

    @staticmethod
    def _two_factor_stderr_problems(cfg: rs.TwoFactorMcConfig) -> list[str]:
        plan = replace(cfg.plan, n=cfg.n_values[0])
        tf = rs.simulate_two_factor(cfg.y0, cfg.r0, cfg.theta1, cfg.theta2, cfg.sigma,
                                    cfg.a, cfg.b, plan, cfg.sim)
        r1, r2 = rs.estimate_two_factor(tf, cfg.sigma)
        return McWorkload._theta1_stderr_problems(cfg, tf, r1) + [
            p for r in (r1, r2)
            for p in _ci_problems("two-factor", r.theta_hat, r.stderr, *r.ci)
        ]

    @staticmethod
    def _theta1_stderr_problems(cfg, tf, r1) -> list[str]:
        expected = cfg.sigma / math.sqrt(tf.n * tf.h)
        if _close(r1.stderr, expected, 1e-12):
            return []
        return [f"two-factor theta1 stderr {r1.stderr!r} != sigma/sqrt(nh) {expected!r}"]

    def _finish_leg(self, leg: McLeg, estimates: list[dict], failures: dict,
                    out: Outcome, checks: list[str] = ()) -> None:
        """Summarize and check one leg's results and record its operations
        and outputs.  A failed check fails every replication of the leg."""
        problems = [f"{leg.name} n={n} rep={i}: {msg}"
                    for n, bad in failures.items() for i, msg in bad]
        failed = len(problems)
        checks = list(checks)
        for est, theta0 in zip(estimates, leg.theta0s):
            if any(not np.all(np.isfinite(v)) for v in est.values()):
                checks.append(f"{leg.name}: non-finite estimate")
            summaries = [rs.summarize(est[n], theta0, n=n) for n in sorted(est)]
            checks += _summary_problems(leg.name, summaries)
        if checks:
            failed = leg.reps
        out.record(leg.reps, failed, problems + checks)
        out.outputs.append((leg.name, tuple(
            (n, est[n].tobytes()) for est in estimates for n in sorted(est)
        )))

    def _abort(self, leg: McLeg, message: str, out: Outcome) -> None:
        """run_mc's 1% rule fired: every replication of the leg failed."""
        out.record(leg.reps, leg.reps, [f"{leg.name}: {message}"])
        out.outputs.append((leg.name, None))

    def sweep(self, reference: Callable[[], float] | None = None) -> Outcome:
        out = Outcome(reference=reference)
        for leg in self.legs:
            try:
                with out.call(leg.reps):
                    if leg.kind == TWO_FACTOR:
                        runs = rs.run_mc_two_factor(leg.cfg, workers=1)
                    else:
                        runs = (rs.run_mc(leg.cfg, workers=1),)
            except (DataError, ModelError) as exc:
                self._abort(leg, str(exc), out)
                continue
            self._finish_leg(leg, [dict(r.estimates) for r in runs],
                             dict(runs[0].failures), out)
        return out

    def replay(self, tr: Tracer) -> Outcome:
        """The sweep one level down: run_mc's per-replication seed
        derivation, simulate and estimate calls, plus separate calls that
        time the draws and the validation hidden inside simulate."""
        out = Outcome()
        for leg in self.legs:
            cfg = leg.cfg
            with tr.span("harness.run_mc", leg.kind):
                estimates = [dict() for _ in leg.theta0s]
                failures = {}
                checks: list[str] = []
                aborted = None
                for n in cfg.n_values:
                    plan_n = replace(cfg.plan, n=n)
                    good, bad = [], []
                    for i in range(cfg.replications):
                        opts = replace(cfg.sim, seed=rng.derive_seed(cfg.sim.seed, i, n))
                        try:
                            thetas = self._replay_rep(tr, leg, plan_n, opts, checks)
                        except (DataError, ModelError) as exc:
                            bad.append((i, str(exc)))
                            continue
                        if thetas is None:
                            bad.append((i, "estimate pinned at the domain boundary"))
                        else:
                            good.append(thetas)
                    tr.count("harness.reps", cfg.replications)
                    tr.count("harness.failed_reps", len(bad))
                    if len(bad) > 0.01 * cfg.replications:
                        aborted = f"{len(bad)} of {cfg.replications} replications failed at n={n}"
                        break
                    for j, est in enumerate(estimates):
                        est[n] = np.array([th[j] for th in good])
                    failures[n] = tuple(bad)
                if aborted is None:
                    self._finish_leg(leg, estimates, failures, out, checks)
                else:
                    self._abort(leg, aborted, out)
        return out

    def _replay_rep(self, tr: Tracer, leg: McLeg, plan: rs.SamplingPlan,
                    opts: rs.SimOptions, checks: list[str]) -> tuple | None:
        cfg = leg.cfg
        steps = plan.n * opts.substeps
        if leg.kind == TWO_FACTOR:
            with tr.span("simulate.simulate_two_factor", leg.kind):
                tf = rs.simulate_two_factor(cfg.y0, cfg.r0, cfg.theta1, cfg.theta2,
                                            cfg.sigma, cfg.a, cfg.b, plan, opts)
            with tr.span("rng.path_draws", leg.kind):
                rng.path_draws(rng.derive_seed(opts.seed, 1), steps)
                rng.path_draws(rng.derive_seed(opts.seed, 2), steps)
            with tr.span("simulate.validate", leg.kind):
                tf.validate()
            self._count_path(tr, leg.kind, 2 * steps)
            with tr.span("estimate.closed_form"):
                r1, r2 = rs.estimate_two_factor(tf, cfg.sigma)
            checks.extend(self._theta1_stderr_problems(cfg, tf, r1))
            return r1.theta_hat, r2.theta_hat

        with tr.span("simulate.simulate_path", leg.kind):
            path = rs.simulate_path(cfg.model, cfg.theta0, plan, opts)
        with tr.span("rng.path_draws", leg.kind):
            rng.path_draws(opts.seed, steps)
        with tr.span("simulate.validate", leg.kind):
            path.validate()
        self._count_path(tr, leg.kind, steps)
        result = _replay_point_estimate(tr, path, cfg.model)
        return None if result.boundary_hit else (result.theta_hat,)

    @staticmethod
    def _count_path(tr: Tracer, kind: str, steps: int) -> None:
        """``steps`` counts scalar fine steps: a two-factor step advances two
        components and counts twice.  Each consumes two uniform draws."""
        tr.count("simulate.paths")
        tr.count(f"simulate.fine_steps.{kind}", steps)
        tr.count("rng.draws", 2 * steps)


def _replay_point_estimate(tr: Tracer, path: rs.SamplePath,
                           model: rs.ModelConfig) -> rs.EstimateResult:
    """The estimator run_mc and estimate_nlse pick for the model."""
    if model.drift.kind == POWER:
        with tr.span("estimate.closed_form"):
            result = rs.estimate_power_closed_form(path, model.drift.gamma, model.theta_domain)
    else:
        with tr.span("estimate.golden"):
            result = rs.nlse_optimize(path, model.drift, model.theta_domain)
        tr.count("estimate.golden.iterations", result.iterations)
    if result.boundary_hit:
        tr.count("estimate.pinned")
    return result


# ---------------------------------------------------------------------------
# estimate_ci: theta with stderr and CI from one observed path
# ---------------------------------------------------------------------------


def _stderr_half_normal(theta: float, n: int, h: float) -> float:
    """Two-sided power gamma=1 and mean reversion to one: the information is
    sigma^2 / (2 theta), so the stderr is sqrt(2 theta / (n h))."""
    return math.sqrt(2.0 * theta / (n * h))


def _stderr_unit_information(theta: float, n: int, h: float) -> float:
    """Shifted covariate: df/dtheta = 1, information 1, stderr sigma/sqrt(nh)."""
    return SIGMA / math.sqrt(n * h)


@dataclass(frozen=True)
class CliLeg:
    name: str
    config: str
    method: str
    domain: tuple[float, float]
    expected_stderr: object = None


_BASE = f"sigma = {SIGMA}\nbarrier.a = 0.0\nh = 0.01\n"
_TWO_SIDED = "barrier.b = 3.0\nx0 = 1.0\n"
_POWER_DOMAIN = "theta.lo = 0.01\ntheta.hi = 10.0\ntheta.true = 2.0\n"

CLI_LEGS = (
    CliLeg("power_half_two_sided",
           "drift.kind = power\ndrift.gamma = 0.5\n" + _TWO_SIDED + _POWER_DOMAIN,
           "closed_form", (0.01, 10.0)),
    CliLeg("power_half_one_sided",
           "drift.kind = power\ndrift.gamma = 0.5\nx0 = 0.5\n" + _POWER_DOMAIN,
           "closed_form", (0.01, 10.0)),
    CliLeg("power_one_two_sided",
           "drift.kind = power\ndrift.gamma = 1.0\n" + _TWO_SIDED + _POWER_DOMAIN,
           "closed_form", (0.01, 10.0), _stderr_half_normal),
    CliLeg("mean_reversion_two_sided",
           "drift.kind = mean_reversion_to_one\n" + _TWO_SIDED + _POWER_DOMAIN,
           "golden_section", (0.01, 10.0), _stderr_half_normal),
    CliLeg("shifted_covariate_two_sided",
           "drift.kind = shifted_covariate\ndrift.covariate = -1.0\n" + _TWO_SIDED
           + "theta.lo = -5.0\ntheta.hi = 5.0\ntheta.true = 0.5\n",
           "golden_section", (-5.0, 5.0), _stderr_unit_information),
)


class EstimateCiWorkload:
    """The analyst's call: estimate theta with stderr and CI from one
    observed path, through the CLI for the built-in drifts and through the
    library for a custom drift.  The timed part simulates nothing."""

    def __init__(self, name: str, seed: int, size: dict, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.inputs: list[tuple[CliLeg, Path, Path]] = []
        self.custom_paths: list[rs.SamplePath] = []
        self.custom_model = _custom_model()
        self.custom_plan = rs.SamplingPlan(n=size["est_n"], h=0.01)
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        """Write the configs, simulate the observed paths with
        ``reflectsde simulate`` and warm up every estimator once."""
        rnd = random.Random(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs, self.setup_problems = [], []
        for leg in CLI_LEGS:
            cfg = self.workdir / f"{leg.name}.cfg"
            cfg.write_text(leg.config + _BASE + f"n = {self.size['est_n']}\n", encoding="utf-8")
            for k in range(self.size["est_paths"]):
                csv = self.workdir / f"{leg.name}_{k}.csv"
                argv = ["simulate", "--config", str(cfg), "--seed",
                        str(rnd.getrandbits(63)), "--out", str(csv)]
                if cli.main(argv) != 0:
                    self.setup_problems.append(f"reflectsde {' '.join(argv)} failed")
                self.inputs.append((leg, cfg, csv))
        self.custom_paths = [
            rs.simulate_path(self.custom_model, 2.0, self.custom_plan,
                             rs.SimOptions(seed=rnd.getrandbits(63)))
            for _ in range(self.size["custom_paths"])
        ]
        warm = Outcome()
        for leg, cfg, csv in self.inputs[::self.size["est_paths"]]:
            self._cli_estimate(leg, cfg, csv, warm)
        self._library_estimate(self.custom_paths[0], warm)
        self.setup_problems += warm.problems

    def _cli_estimate(self, leg: CliLeg, cfg: Path, csv: Path, out: Outcome) -> None:
        buf = io.StringIO()
        with out.call(1), contextlib.redirect_stdout(buf):
            status = cli.main(["estimate", "--config", str(cfg), "--path", str(csv)])
        out.cli_main_s += out.calls[-1].wall
        if status != 0:
            self._error(leg.name + " " + csv.name, f"reflectsde estimate exited {status}", out)
            return
        rec = json.loads(buf.getvalue())
        self._finish(leg.name + " " + csv.name, leg,
                     (rec["theta_hat"], rec["stderr"], rec["ci_lo"], rec["ci_hi"],
                      rec["method"]), rec["n"], rec["h"], out)

    def _library_estimate(self, path: rs.SamplePath, out: Outcome) -> None:
        try:
            with out.call(1):
                r = rs.estimate_nlse(path, self.custom_model, self.custom_plan)
        except (DataError, ModelError) as exc:
            self._error("custom_drift", exc, out)
            return
        self._finish("custom_drift", None,
                     (r.theta_hat, r.stderr, r.ci[0], r.ci[1], r.method),
                     path.n, path.h, out)

    @staticmethod
    def _error(label: str, exc: Exception, out: Outcome) -> None:
        out.record(1, 1, [f"{label}: {exc}"])
        out.outputs.append((label, None))

    def _finish(self, label: str, leg: CliLeg | None, output: tuple, n: int, h: float,
                out: Outcome) -> None:
        theta, se, lo, hi, method = output
        expected_method = leg.method if leg else "golden_section"
        d_lo, d_hi = leg.domain if leg else self.custom_model.theta_domain
        problems = _ci_problems(label, theta, se, lo, hi)
        if method != expected_method:
            problems.append(f"{label}: method {method!r}, expected {expected_method!r}")
        pad = _PIN_FRACTION * (d_hi - d_lo)
        if not d_lo + pad < theta < d_hi - pad:
            problems.append(f"{label}: estimate {theta!r} pinned at the domain boundary")
        if leg is not None and leg.expected_stderr is not None and not problems:
            expected = leg.expected_stderr(theta, n, h)
            if not _close(se, expected, _CLOSED_FORM_REL_TOL):
                problems.append(f"{label}: stderr {se!r} != closed form {expected!r}")
        out.record(1, 1 if problems else 0, problems)
        out.outputs.append((label, output))

    def sweep(self, reference: Callable[[], float] | None = None) -> Outcome:
        out = Outcome(reference=reference)
        for leg, cfg, csv in self.inputs:
            self._cli_estimate(leg, cfg, csv, out)
        for path in self.custom_paths:
            self._library_estimate(path, out)
        return out

    def replay(self, tr: Tracer) -> Outcome:
        """The sweep one level down: what ``cli.main estimate`` and
        ``estimate_nlse`` call, with the stderr formula of
        ``asymptotic_stderr`` applied to a separately timed information
        integral."""
        out = Outcome()
        for leg, cfg, csv in self.inputs:
            label = leg.name + " " + csv.name
            try:
                with tr.span("cli.main"):
                    with tr.span("cli.parse_config"):
                        parsed = cli.parse_config(cfg)
                    with tr.span("cli.read_path_csv"):
                        with open(csv, "r", encoding="utf-8") as fh:
                            path = rs.read_path_csv(fh, parsed.model.barriers)
                    tr.count("cli.csv_rows_read", path.n + 1)
                    plan = rs.SamplingPlan(n=path.n, h=path.h, alpha=parsed.alpha)
                    output = _replay_estimate_ci(tr, path, parsed.model, plan)
                    json.dumps(dict(zip(("theta_hat", "stderr", "ci_lo", "ci_hi", "method"),
                                        output)))
            except (DataError, ModelError) as exc:
                self._error(label, exc, out)
                continue
            self._finish(label, leg, output, path.n, path.h, out)
        for path in self.custom_paths:
            try:
                with tr.span("estimate.estimate_nlse"):
                    output = _replay_estimate_ci(tr, path, self.custom_model, self.custom_plan)
            except (DataError, ModelError) as exc:
                self._error("custom_drift", exc, out)
                continue
            self._finish("custom_drift", None, output, path.n, path.h, out)
        return out


def _replay_estimate_ci(tr: Tracer, path: rs.SamplePath, model: rs.ModelConfig,
                        plan: rs.SamplingPlan) -> tuple:
    result = _replay_point_estimate(tr, path, model)
    theta = result.theta_hat
    with tr.span("stationary.invariant_density"):
        grid = rs.invariant_density(model, theta)
    tr.count("stationary.calls")
    tr.count("stationary.grid_nodes", len(grid.nodes))
    tr.peak("stationary.grid_nodes.max", len(grid.nodes))
    with tr.span("stationary.information"):
        info = rs.information(model, theta, grid)
    se = math.sqrt(model.sigma ** 2 / (plan.n * plan.h * info))
    lo, hi = rs.confidence_interval(theta, se, 0.95)
    return theta, se, lo, hi, result.method


WORKLOADS = {
    "mc_long": McWorkload,
    "mc_tables": McWorkload,
    "estimate_ci": EstimateCiWorkload,
}
