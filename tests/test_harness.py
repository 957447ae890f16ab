import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import reflectsde as rs
from reflectsde import _native, harness
from reflectsde.errors import DataError, ModelError
from reflectsde.estimate import estimate_power_closed_form

from conftest import power_model


class TestSummarize:
    def test_hand_values(self):
        s = rs.summarize([1.0, 3.0], theta0=2.0)
        assert s.bias == 0.0
        assert s.std_dev == 1.0
        assert s.mse == 1.0

    def test_all_equal(self):
        s = rs.summarize([2.0, 2.0, 2.0], theta0=2.0)
        assert (s.bias, s.std_dev, s.mse) == (0.0, 0.0, 0.0)

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            rs.summarize([2.0], theta0=2.0)

    def test_mse_identity_on_random_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            values = rng.normal(2.0, 0.3, size=rng.integers(2, 40))
            s = rs.summarize(values, theta0=2.0)
            assert abs(s.mse - (s.bias**2 + s.std_dev**2)) <= 1e-12 * max(1.0, s.mse)

    def test_reported_rounding_consistency(self):
        # bias 0.0010 and std 0.0340 reconstruct an MSE that rounds to 0.0012
        mse = 0.0010**2 + 0.0340**2
        assert round(mse, 4) == 0.0012


def small_mc_config(replications=6, n_values=(40,), sigma=0.2, seed=5):
    return rs.McConfig(
        model=power_model(0.5, sigma=sigma) if sigma > 0 else rs.ModelConfig(
            drift=rs.DriftSpec.power(0.5), sigma=0.0,
            barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
            theta_domain=(0.01, 10.0), x0=1.0,
        ),
        theta0=2.0,
        plan=rs.SamplingPlan(n=40, h=0.01),
        sim=rs.SimOptions(seed=seed),
        replications=replications,
        n_values=n_values,
    )


def _golden_two_factor_config(**overrides):
    fields = dict(y0=1.0, r0=0.5, theta1=1.0, theta2=1.0, sigma=0.1, a=0.0, b=3.0,
                  plan=rs.SamplingPlan(n=200, h=0.01), sim=rs.SimOptions(seed=33),
                  replications=6, n_values=(100, 200))
    fields.update(overrides)
    return rs.TwoFactorMcConfig(**fields)


class TestRunMc:
    def test_noiseless_gives_zero_spread(self):
        # substeps=1 so the contrast's own discretization matches exactly
        cfg = small_mc_config(replications=2, sigma=0.0)
        cfg = rs.McConfig(model=cfg.model, theta0=2.0, plan=cfg.plan,
                          sim=rs.SimOptions(substeps=1, seed=5),
                          replications=2, n_values=(40,))
        run = rs.run_mc(cfg)
        s = run.summary(2.0, 40)
        assert abs(s.bias) <= 1e-9
        assert s.std_dev <= 1e-9
        assert s.mse <= 1e-18

    def test_deterministic_across_runs_and_workers(self):
        cfg = small_mc_config(replications=12, n_values=(30, 60))
        run1 = rs.run_mc(cfg)
        run2 = rs.run_mc(cfg)
        run3 = rs.run_mc(cfg, workers=4)
        for n in (30, 60):
            assert np.array_equal(run1.estimates[n], run2.estimates[n])
            assert np.array_equal(run1.estimates[n], run3.estimates[n])

    def test_replication_streams_differ(self):
        cfg = small_mc_config(replications=8)
        run = rs.run_mc(cfg)
        assert len(np.unique(run.estimates[40])) == 8

    def test_failures_excluded_with_count(self, monkeypatch):
        cfg = small_mc_config(replications=300, n_values=(5,))

        def estimator(path, config, _memo={"count": 0}):
            _memo["count"] += 1
            if _memo["count"] == 7:
                raise DataError("synthetic failure")
            return estimate_power_closed_form(path, 0.5)

        monkeypatch.setattr(harness, "_point_estimate", estimator)
        run = rs.run_mc(cfg)
        assert len(run.failures[5]) == 1
        assert len(run.estimates[5]) == 299
        assert 6 not in run.rep_indices[5]

    def test_overflowing_drift_is_a_failed_replication(self, monkeypatch):
        # the drift overflows on its 301st call: the first fine step of
        # replication 6 (5 intervals x 10 substeps per replication)
        calls = {"count": 0}

        def f(x, th):
            calls["count"] += 1
            scale = 1e200 if calls["count"] == 301 else 1.0
            return -th * x ** 0.5 * scale ** 2

        drift = rs.DriftSpec.custom(f=f, df_dtheta=lambda x, th: -x ** 0.5,
                                    d2f_dtheta2=lambda x, th: 0.0, lipschitz_bound=1.0)
        base = small_mc_config(replications=300, n_values=(5,))
        cfg = rs.McConfig(model=rs.ModelConfig(drift=drift, sigma=0.2,
                                               barriers=base.model.barriers,
                                               theta_domain=base.model.theta_domain,
                                               x0=1.0),
                          theta0=2.0, plan=base.plan, sim=base.sim,
                          replications=300, n_values=(5,))
        monkeypatch.setattr(harness, "_point_estimate",
                            lambda path, config: estimate_power_closed_form(path, 0.5))
        run = rs.run_mc(cfg)
        assert [i for i, _ in run.failures[5]] == [6]
        assert "finite range" in run.failures[5][0][1]
        assert len(run.estimates[5]) == 299

    def test_exploding_builtin_drift_is_a_failed_replication(self):
        # mean reversion at theta = -500 repels from 1; from x0 = 0.985 the
        # rare path whose noise carries it past 1 runs to inf, then NaN
        model = rs.ModelConfig(drift=rs.DriftSpec.mean_reversion_to_one(), sigma=0.2,
                               barriers=rs.BarrierConfig.one_sided_lower(0.0),
                               theta_domain=(-1000.0, 10.0), x0=0.985)
        cfg = rs.McConfig(model=model, theta0=-500.0, plan=rs.SamplingPlan(n=250, h=0.01),
                          sim=rs.SimOptions(seed=0), replications=300, n_values=(250,))
        run = rs.run_mc(cfg)
        assert run.failures[250] == ((113, "path x holds non-finite values"),)
        assert len(run.estimates[250]) == 299

    def test_exploding_builtin_drift_fails_alike_on_python_stepper(self, python_stepper):
        self.test_exploding_builtin_drift_is_a_failed_replication()

    def test_too_many_failures_abort(self, monkeypatch):
        cfg = small_mc_config(replications=300, n_values=(5,))

        def estimator(path, config, _memo={"count": 0}):
            _memo["count"] += 1
            if _memo["count"] % 50 == 0:
                raise DataError("synthetic failure")
            return estimate_power_closed_form(path, 0.5)

        monkeypatch.setattr(harness, "_point_estimate", estimator)
        with pytest.raises(DataError):
            rs.run_mc(cfg)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            small_mc_config(replications=1)
        with pytest.raises(ModelError):
            small_mc_config(n_values=())

    @pytest.mark.parametrize("make", (small_mc_config, _golden_two_factor_config),
                             ids=("mc", "two_factor"))
    @pytest.mark.parametrize("field, value", (
        ("replications", 2.5), ("replications", float("nan")), ("replications", "6"),
        ("n_values", (50.7,)), ("n_values", (float("nan"),)),
        ("n_values", (float("inf"),)), ("n_values", (40, "50")), ("n_values", (1,)),
    ), ids=str)
    def test_non_integral_sweep_rejected(self, make, field, value):
        # 50.7 ran as n=50, a fractional or nan count failed in range(), and
        # a nan or infinite n failed in int()
        message = ("replications must be an integer >= 2" if field == "replications"
                   else "n values must be integers >= 2")
        with pytest.raises(ModelError, match=message):
            make(**{field: value})

    @pytest.mark.parametrize("make", (small_mc_config, _golden_two_factor_config),
                             ids=("mc", "two_factor"))
    def test_integral_floats_are_taken_as_ints(self, make):
        cfg = make(replications=6.0, n_values=(40.0,))
        assert (cfg.replications, cfg.n_values) == (6, (40,))
        assert type(cfg.replications) is int and type(cfg.n_values[0]) is int

    @pytest.mark.parametrize("make", (small_mc_config, _golden_two_factor_config),
                             ids=("mc", "two_factor"))
    @pytest.mark.parametrize("n_values", ((50, 50), (40, 50, 40), (50, 50.0)), ids=str)
    def test_repeated_n_rejected(self, make, n_values):
        # (50, 50) ran every replication twice and returned one entry for n=50
        with pytest.raises(ModelError, match=r"^n values must not repeat, got \("):
            make(replications=5, n_values=n_values)

    @pytest.mark.parametrize("driver, make", ((rs.run_mc, small_mc_config),
                                              (rs.run_mc_two_factor, _golden_two_factor_config)),
                             ids=("mc", "two_factor"))
    @pytest.mark.parametrize("workers", (0, -3, 2.5, "2", float("nan"), float("inf"), None),
                             ids=repr)
    def test_workers_must_be_an_integer_of_at_least_one(self, driver, make, workers,
                                                        monkeypatch):
        # 0, -3 and 2.5 ran serially and "2" raised a bare TypeError; the
        # refusal comes before any replication is simulated
        def no_path(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "simulate_path", no_path)
        monkeypatch.setattr(harness, "simulate_two_factor", no_path)
        with pytest.raises(ModelError) as raised:
            driver(make(), workers=workers)
        assert str(raised.value) == f"workers must be an integer >= 1, got {workers!r}"

    @pytest.mark.parametrize("theta0", (0.01, 10.0, -1.0, 50.0, float("nan"), float("inf")))
    def test_theta0_outside_the_open_domain_rejected(self, theta0):
        # the error simulate_path raises for the same theta
        cfg = small_mc_config()
        with pytest.raises(ModelError) as per_path:
            rs.simulate_path(cfg.model, theta0, cfg.plan, cfg.sim)
        with pytest.raises(ModelError) as up_front:
            rs.McConfig(model=cfg.model, theta0=theta0, plan=cfg.plan, sim=cfg.sim,
                        replications=cfg.replications, n_values=cfg.n_values)
        assert str(up_front.value) == str(per_path.value)
        assert "open domain (0.01, 10.0)" in str(up_front.value)


class TestNormalityDiagnostic:
    def test_injected_standard_normal_passes(self):
        cfg = power_model(1.0)
        plan = rs.SamplingPlan(n=10_000, h=0.01)
        info = rs.information(cfg, 2.0)
        scale = cfg.sigma / np.sqrt(plan.n * plan.h * info)
        z = np.random.default_rng(123).standard_normal(600)
        estimates = 2.0 + z * scale
        report = rs.normality_diagnostic(estimates, 2.0, plan, cfg)
        assert report.passed
        np.testing.assert_allclose(report.z, z, rtol=1e-10)
        assert abs(report.sample_mean) < 0.15
        assert 0.9 < report.sample_std < 1.1

    def test_constant_estimates_fail(self):
        cfg = power_model(1.0)
        plan = rs.SamplingPlan(n=1000, h=0.01)
        report = rs.normality_diagnostic(np.full(100, 2.3), 2.0, plan, cfg)
        assert not report.passed

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=str)
    def test_non_finite_estimates_refused(self, bad):
        # read as data, not as a failed normality test (ks_pvalue nan, passed False)
        estimates = np.full(100, 2.0)
        estimates[7] = bad
        with pytest.raises(DataError, match="finite estimates"):
            rs.normality_diagnostic(estimates, 2.0, rs.SamplingPlan(n=1000, h=0.01),
                                    power_model(1.0))

    @pytest.mark.parametrize("level", (0.0, 1.0, 1.5, -0.01, math.nan), ids=str)
    def test_level_outside_the_unit_interval_refused(self, level):
        # level=1.5 returned passed=False, as if the estimates were not normal
        with pytest.raises(ModelError, match="level must lie in"):
            rs.normality_diagnostic(np.full(100, 2.0), 2.0, rs.SamplingPlan(n=1000, h=0.01),
                                    power_model(1.0), level=level)

    def test_degenerate_information_raises(self):
        drift = rs.DriftSpec.custom(
            f=lambda x, th: 0.0 * x, df_dtheta=lambda x, th: 0.0 * x,
            d2f_dtheta2=lambda x, th: 0.0 * x, lipschitz_bound=1.0,
        )
        cfg = rs.ModelConfig(drift=drift, sigma=0.2,
                             barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                             theta_domain=(0.01, 10.0), x0=1.0)
        with pytest.raises(ModelError):
            rs.normality_diagnostic([1.9, 2.1], 2.0,
                                    rs.SamplingPlan(n=10, h=0.01), cfg)

    def test_standardized_spread_in_asymptotic_regime(self, ou_nh100):
        model, plan, estimates = ou_nh100
        report = rs.normality_diagnostic(estimates, 2.0, plan, model)
        assert 0.85 <= report.sample_std <= 1.15

    def test_model_stderr_tracks_monte_carlo_spread(self, ou_nh100):
        # in the long-span regime the model-based standard error must agree
        # with the spread of replicate estimates to well within 50%
        model, plan, estimates = ou_nh100
        se_model = rs.asymptotic_stderr(2.0, model, plan)
        mc_std = float(np.std(estimates, ddof=1))
        assert abs(se_model / mc_std - 1.0) <= 0.5

    def test_confidence_interval_coverage(self, ou_nh100):
        # plug-in 95% intervals should cover the true value for roughly
        # 95% of replications in the long-span regime
        model, plan, estimates = ou_nh100
        covered = 0
        for th in estimates:
            se = rs.asymptotic_stderr(float(th), model, plan)
            lo, hi = rs.confidence_interval(float(th), se, 0.95)
            covered += lo <= 2.0 <= hi
        coverage = covered / len(estimates)
        assert 0.90 <= coverage <= 0.99


class TestVarianceShrinkage:
    def test_one_sided_std_rank_order_large_replication(self):
        # the one-sided spread must shrink as n grows, in rank order, with
        # enough replications that the ordering is not sampling noise
        run = rs.run_mc(rs.McConfig(
            model=power_model(2.0 / 3.0, two_sided=False), theta0=2.0,
            plan=rs.SamplingPlan(n=200, h=0.01), sim=rs.SimOptions(seed=515),
            replications=500, n_values=(50, 100, 200),
        ))
        stds = [run.summary(2.0, n).std_dev for n in (50, 100, 200)]
        assert stds[0] > stds[1] > stds[2]


class TestConsistencyTrend:
    def test_median_error_non_increasing_in_span(self):
        model = power_model(1.0)
        errors = []
        for n in (100, 1000, 10_000):
            cfg = rs.McConfig(
                model=model, theta0=2.0,
                plan=rs.SamplingPlan(n=n, h=0.01),
                sim=rs.SimOptions(seed=909),
                replications=100, n_values=(n,),
            )
            run = rs.run_mc(cfg)
            errors.append(float(np.median(np.abs(run.estimates[n] - 2.0))))
        assert errors[0] >= errors[1] >= errors[2]


class TestTwoFactorHarness:
    @pytest.mark.parametrize("field, value", (
        ("a", -1.0), ("b", 0.0), ("b", math.inf), ("y0", 5.0), ("y0", -0.5), ("y0", math.nan),
        ("r0", math.nan), ("theta1", math.inf), ("theta2", -math.inf), ("r0", -0.5),
        ("sigma", -1.0), ("sigma", math.nan), ("sigma", math.inf),
    ), ids=str)
    def test_config_refuses_what_simulation_refuses(self, field, value):
        # sigma = -1 or y0 = 5 built a config whose every replication then
        # failed, and run_mc_two_factor raised a DataError for a model error
        cfg = _golden_two_factor_config(replications=4, n_values=(20,))
        args = {name: getattr(cfg, name)
                for name in ("y0", "r0", "theta1", "theta2", "sigma", "a", "b")}
        args[field] = value
        with pytest.raises(ModelError) as per_path:
            rs.simulate_two_factor(**args, plan=cfg.plan, opts=cfg.sim)
        with pytest.raises(ModelError) as up_front:
            _golden_two_factor_config(**args, replications=4, n_values=(20,))
        assert str(up_front.value) == str(per_path.value)

    def test_deterministic_and_identity(self):
        cfg = rs.TwoFactorMcConfig(
            y0=1.0, r0=0.5, theta1=1.0, theta2=1.0, sigma=0.1, a=0.0, b=3.0,
            plan=rs.SamplingPlan(n=200, h=0.01), sim=rs.SimOptions(seed=4),
            replications=8, n_values=(200,),
        )
        run1a, run2a = rs.run_mc_two_factor(cfg)
        run1b, run2b = rs.run_mc_two_factor(cfg)
        assert np.array_equal(run1a.estimates[200], run1b.estimates[200])
        assert np.array_equal(run2a.estimates[200], run2b.estimates[200])
        s = run1a.summary(1.0, 200)
        assert abs(s.mse - (s.bias**2 + s.std_dev**2)) <= 1e-12 * max(1.0, s.mse)


def _run_digest(*runs):
    digest = hashlib.sha256()
    for run in runs:
        for n in sorted(run.estimates):
            digest.update(np.ascontiguousarray(run.estimates[n]).tobytes())
            digest.update(np.ascontiguousarray(run.rep_indices[n]).tobytes())
            digest.update(repr(run.failures[n]).encode())
    return digest.hexdigest()


def _golden_mc_config(kind):
    if kind == "power":
        return small_mc_config(replications=10, n_values=(30, 60, 120), seed=31)
    # a custom drift takes the golden-section search
    drift = rs.DriftSpec.custom(
        f=lambda x, th: th * (1.0 - x) - x ** 3,
        df_dtheta=lambda x, th: 1.0 - x + 0.0 * th,
        d2f_dtheta2=lambda x, th: 0.0 * (x + th),
        lipschitz_bound=30.0,
    )
    model = rs.ModelConfig(drift=drift, sigma=0.2,
                           barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                           theta_domain=(0.01, 10.0), x0=1.0)
    return rs.McConfig(model=model, theta0=2.0, plan=rs.SamplingPlan(n=100, h=0.1),
                       sim=rs.SimOptions(seed=32), replications=8,
                       n_values=(50, 100))


# Recorded on the replication loops as they stood before run_mc and
# run_mc_two_factor shared one driver (CPython 3.11, numpy 2.4, scipy 1.17,
# x86-64 Linux).
_GOLDEN_RUN_DIGESTS = {
    "power": "b5ad39d6dea3a097b5cd16d0a9450b73d6e1740afcc2552ae4318dd8faf732b3",
    "custom": "fcd0fdcc1129eb029c2d1203482b8d0d54aaa0c9796d181d867c2884328e7bda",
    "two_factor": "85f08e234c23033fd671a83ae5c6c6d3e50d39fea4a0e1e5b88cf6498313dc9e",
}


class TestGoldenRuns:
    @pytest.mark.parametrize("kind", ("power", "custom"))
    def test_run_mc_digest(self, kind):
        run = rs.run_mc(_golden_mc_config(kind))
        assert _run_digest(run) == _GOLDEN_RUN_DIGESTS[kind]

    def test_run_mc_two_factor_digest(self):
        run1, run2 = rs.run_mc_two_factor(_golden_two_factor_config())
        assert _run_digest(run1, run2) == _GOLDEN_RUN_DIGESTS["two_factor"]

    @pytest.mark.parametrize("kind", ("power", "custom"))
    def test_run_mc_digest_on_python_stepper(self, kind, python_stepper):
        self.test_run_mc_digest(kind)

    def test_run_mc_two_factor_digest_on_python_stepper(self, python_stepper):
        self.test_run_mc_two_factor_digest()

    def test_two_factor_workers_match_serial(self):
        cfg = _golden_two_factor_config()
        serial = rs.run_mc_two_factor(cfg)
        threaded = rs.run_mc_two_factor(cfg, workers=2)
        assert _run_digest(*threaded) == _run_digest(*serial)

    @pytest.mark.parametrize("driver, make", ((rs.run_mc, small_mc_config),
                                              (rs.run_mc_two_factor, _golden_two_factor_config)),
                             ids=("mc", "two_factor"))
    def test_integral_floats_and_a_float32_step_run_as_their_twins(self, driver, make,
                                                                   backend):
        # substeps=4.0 let a bare TypeError out of run_mc_two_factor's
        # handling of failed replications
        cfg, h = make(), np.float32(0.01)
        digests = []
        for n, step, substeps, seed in ((40.0, h, 4.0, 5.0), (40, float(h), 4, 5)):
            runs = driver(replace(cfg, plan=rs.SamplingPlan(n=n, h=step),
                                  sim=rs.SimOptions(substeps=substeps, seed=seed)))
            digests.append(_run_digest(*(runs if isinstance(runs, tuple) else (runs,))))
        assert digests[0] == digests[1]

    def test_two_factor_abort_names_the_reason(self, monkeypatch):
        # a failure that the config cannot see fails every replication
        def fail(tf, sigma):
            raise DataError("the estimate failed")

        monkeypatch.setattr(harness, "estimate_two_factor", fail)
        cfg = _golden_two_factor_config(replications=4, n_values=(20,))
        with pytest.raises(DataError) as raised:
            rs.run_mc_two_factor(cfg)
        assert str(raised.value) == "4 of 4 replications failed at n=20: the estimate failed"


class TestIncrementsTakenOnce:
    """Validation and the estimators share the increments of each path, so
    no estimator differences x, l or r itself: the compiled check_path
    writes them while it validates, and without it np.diff runs once per
    array, on x, l and r of one path, or of each two-factor component."""

    @pytest.mark.parametrize("compiled", (True, False), ids=("compiled", "numpy"))
    @pytest.mark.parametrize("kind,per_rep", (("power", 3), ("custom", 3), ("two_factor", 6)))
    def test_np_diff_calls_per_replication(self, kind, per_rep, compiled, monkeypatch):
        if kind == "two_factor":
            cfg = _golden_two_factor_config(replications=10, n_values=(200,))
        else:
            cfg = _golden_mc_config(kind)
            cfg = replace(cfg, replications=10, n_values=(cfg.n_values[-1],))
        if not compiled:
            monkeypatch.setattr(_native, "load", lambda: None)
        elif _native.load() is None:
            pytest.skip("the compiled library is not built")
        calls = []
        diff = np.diff

        def spy(*args, **kwargs):
            calls.append(None)
            return diff(*args, **kwargs)

        monkeypatch.setattr(np, "diff", spy)
        if kind == "two_factor":
            runs = rs.run_mc_two_factor(cfg)
        else:
            runs = (rs.run_mc(cfg),)
        monkeypatch.undo()
        for run in runs:
            assert [len(est) for est in run.estimates.values()] == [10]
        assert len(calls) == (0 if compiled else per_rep * 10)
