import math

import numpy as np
import pytest

import reflectsde as rs
from reflectsde import estimate
from reflectsde import rng as rng_mod
from reflectsde.errors import DataError, ModelError
from reflectsde.model import eval_on_array

from conftest import power_model


def two_point_path():
    return rs.SamplePath(
        h=0.01,
        times=np.array([0.0, 0.01]),
        x=np.array([1.0, 0.99]),
        l=np.zeros(2),
        r=np.zeros(2),
        barriers=rs.BarrierConfig.one_sided_lower(0.0),
    )


def noiseless_path(gamma=1.0, theta0=2.0, n=50, two_sided=True):
    # substeps=1 makes the simulated increments exactly the Euler residuals
    # the contrast measures, so recovery is exact
    cfg = rs.ModelConfig(
        drift=rs.DriftSpec.power(gamma), sigma=0.0,
        barriers=rs.BarrierConfig.two_sided(0.0, 3.0) if two_sided
        else rs.BarrierConfig.one_sided_lower(0.0),
        theta_domain=(0.1, 6.0), x0=1.0,
    )
    plan = rs.SamplingPlan(n=n, h=0.01)
    return cfg, rs.simulate_path(cfg, theta0, plan, rs.SimOptions(substeps=1, seed=1))


class TestContrast:
    def test_two_point_hand_value(self):
        path = two_point_path()
        spec = rs.DriftSpec.power(1.0)
        assert rs.contrast(path, spec, 1.0) == pytest.approx(0.0, abs=1e-24)
        # moving theta away raises the contrast
        assert rs.contrast(path, spec, 2.0) > 0.0

    def test_noiseless_contrast_vanishes_at_true_theta(self):
        _, path = noiseless_path()
        spec = rs.DriftSpec.power(1.0)
        assert rs.contrast(path, spec, 2.0) <= 1e-20
        assert rs.contrast(path, spec, 2.5) > 1e-6

    def test_single_point_path_rejected(self):
        with pytest.raises(DataError):
            rs.SamplePath(h=0.01, times=np.array([0.0]), x=np.array([1.0]),
                          l=np.zeros(1), r=np.zeros(1),
                          barriers=rs.BarrierConfig.one_sided_lower(0.0))

    def test_non_finite_theta_rejected(self):
        with pytest.raises(ModelError):
            rs.contrast(two_point_path(), rs.DriftSpec.power(1.0), float("nan"))


def _reference_contrast(path, spec, theta):
    """The contrast spelled out as it stood before the golden-section
    search took the path increments once: every increment taken again."""
    f = eval_on_array(lambda v: spec.f(v, theta), path.x[:-1])
    res = np.diff(path.x) - f * path.h - np.diff(path.l) + np.diff(path.r)
    return float(np.dot(res, res) / (path.n * path.h * path.h))


_SEARCH_SPECS = {
    "power_half": rs.DriftSpec.power(0.5),
    "power_one": rs.DriftSpec.power(1.0),
    "mean_reversion": rs.DriftSpec.mean_reversion_to_one(),
    "shifted_covariate": rs.DriftSpec.shifted_covariate(-1.0),
    "custom": rs.DriftSpec.custom(
        f=lambda x, th: th * (1.0 - x) - x ** 3,
        df_dtheta=lambda x, th: 1.0 - x + 0.0 * th,
        d2f_dtheta2=lambda x, th: 0.0 * (x + th),
        lipschitz_bound=30.0,
    ),
}


class TestSearchObjective:
    """The golden-section search minimizes exactly the public contrast."""

    @pytest.fixture(scope="class")
    def paths(self):
        plan = rs.SamplingPlan(n=300, h=0.01)
        out = {}
        # narrow barriers about the mean keep both regulators busy, so that
        # the order of the residual's terms shows in the last bits
        for two_sided in (True, False):
            cfg = rs.ModelConfig(
                drift=rs.DriftSpec.mean_reversion_to_one(), sigma=0.3,
                barriers=rs.BarrierConfig.two_sided(0.9, 1.1) if two_sided
                else rs.BarrierConfig.one_sided_lower(0.98),
                theta_domain=(0.01, 10.0), x0=1.0,
            )
            out[two_sided] = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=21))
        return out

    @pytest.mark.parametrize("two_sided", (True, False), ids=("two_sided", "one_sided"))
    @pytest.mark.parametrize("kind", sorted(_SEARCH_SPECS))
    def test_objective_is_the_contrast_bit_for_bit(self, kind, two_sided, paths):
        path, spec = paths[two_sided], _SEARCH_SPECS[kind]
        assert np.any(np.diff(path.l) > 0)
        assert np.any(np.diff(path.r) > 0) == two_sided
        objective = estimate._contrast_of(path, spec)
        for theta in np.concatenate((np.linspace(-20.0, 20.0, 401), [0.0, 1e-300, 2.0, 1e6])):
            theta = float(theta)
            value = objective(theta)
            assert value == rs.contrast(path, spec, theta)
            assert value == _reference_contrast(path, spec, theta)

    @pytest.mark.parametrize("kind", sorted(_SEARCH_SPECS))
    def test_search_matches_a_search_over_contrast(self, kind, paths):
        path, spec = paths[True], _SEARCH_SPECS[kind]
        lo, hi = -5.0, 5.0
        eps = estimate._DOMAIN_SHRINK * (hi - lo)
        found = rs.minimize_unimodal(lambda t: rs.contrast(path, spec, t), lo + eps, hi - eps)
        result = rs.nlse_optimize(path, spec, (lo, hi))
        assert (result.theta_hat, result.contrast_at_min, result.iterations,
                result.boundary_hit) == (found.x, found.fx, found.iterations,
                                         found.boundary_hit)


class TestClosedForm:
    def test_two_point_hand_value(self):
        assert rs.nlse_closed_form_power(two_point_path(), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_noiseless_exact_recovery(self):
        for gamma in (1.0, 0.5):
            for two_sided in (True, False):
                _, path = noiseless_path(gamma=gamma, two_sided=two_sided)
                assert rs.nlse_closed_form_power(path, gamma) == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_path_rejected(self):
        stuck = rs.SamplePath(
            h=0.01, times=np.array([0.0, 0.01, 0.02]), x=np.zeros(3),
            l=np.zeros(3), r=np.zeros(3),
            barriers=rs.BarrierConfig.one_sided_lower(0.0),
        )
        with pytest.raises(DataError):
            rs.nlse_closed_form_power(stuck, 0.5)


class TestOptimizer:
    def test_matches_closed_form(self):
        cfg = power_model(0.5)
        plan = rs.SamplingPlan(n=200, h=0.01)
        for seed in range(20):
            path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=seed))
            closed = rs.nlse_closed_form_power(path, 0.5)
            opt = rs.nlse_optimize(path, cfg.drift, cfg.theta_domain)
            assert abs(opt.theta_hat - closed) <= 1e-8
            assert opt.method == "golden_section"
            assert opt.iterations > 0

    def test_noiseless_recovery(self):
        cfg, path = noiseless_path()
        opt = rs.nlse_optimize(path, cfg.drift, (0.1, 6.0))
        assert opt.theta_hat == pytest.approx(2.0, abs=1e-8)
        assert not opt.boundary_hit

    def test_true_value_outside_domain_pins_boundary(self):
        cfg = power_model(0.5)
        plan = rs.SamplingPlan(n=500, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=77))
        opt = rs.nlse_optimize(path, cfg.drift, (3.5, 5.0))
        assert opt.boundary_hit
        assert opt.theta_hat == pytest.approx(3.5, abs=1e-6)

    def test_scalar_minimizer_invariances(self):
        base = lambda t: (t - 1.3) ** 2
        ref = rs.minimize_unimodal(base, 0.0, 4.0)
        scaled = rs.minimize_unimodal(lambda t: 7.25 * base(t), 0.0, 4.0)
        shifted = rs.minimize_unimodal(lambda t: base(t) + 11.0, 0.0, 4.0)
        assert ref.x == pytest.approx(1.3, abs=1e-9)
        assert scaled.x == pytest.approx(ref.x, abs=1e-9)
        assert shifted.x == pytest.approx(ref.x, abs=1e-9)

    def test_flat_objective_returns_midpoint(self):
        found = rs.minimize_unimodal(lambda t: 5.0, 1.0, 3.0)
        assert found.x == pytest.approx(2.0, abs=1e-6)

    def test_argmin_invariant_to_path_scaling(self):
        # for the linear drift, scaling (x, l, r) by c scales the contrast
        # by c^2, so the optimizer must land on the same parameter
        cfg = power_model(1.0)
        plan = rs.SamplingPlan(n=300, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=51))
        base = rs.nlse_optimize(path, cfg.drift, cfg.theta_domain)
        c = 3.7
        scaled = rs.SamplePath(
            h=path.h, times=path.times, x=c * path.x, l=c * path.l,
            r=c * path.r, barriers=rs.BarrierConfig.two_sided(0.0, 3.0 * c),
        )
        res = rs.nlse_optimize(scaled, cfg.drift, cfg.theta_domain)
        assert abs(res.theta_hat - base.theta_hat) <= 1e-8

    def test_argmin_invariant_to_theta_free_shift(self):
        # subtracting the contrast at a reference parameter shifts the
        # objective by a constant and cannot move the minimizer
        cfg = power_model(0.5)
        plan = rs.SamplingPlan(n=200, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=52))
        spec = cfg.drift
        lo, hi = cfg.theta_domain
        base = rs.minimize_unimodal(lambda t: rs.contrast(path, spec, t), lo, hi)
        ref = rs.contrast(path, spec, 2.0)
        shifted = rs.minimize_unimodal(
            lambda t: rs.contrast(path, spec, t) - ref, lo, hi
        )
        assert abs(shifted.x - base.x) <= 1e-8

    def test_non_finite_objective_propagates(self):
        with pytest.raises(DataError):
            rs.minimize_unimodal(lambda t: float("nan"), 0.0, 1.0)


class TestStderr:
    def constant_sensitivity_config(self, sigma=0.2):
        drift = rs.DriftSpec.custom(
            f=lambda x, th: -th + 0.0 * x,
            df_dtheta=lambda x, th: -1.0 + 0.0 * x,
            d2f_dtheta2=lambda x, th: 0.0 * x,
            lipschitz_bound=1.0,
        )
        return rs.ModelConfig(drift=drift, sigma=sigma,
                              barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                              theta_domain=(0.01, 10.0), x0=1.0)

    def test_hand_value(self):
        cfg = self.constant_sensitivity_config()
        plan = rs.SamplingPlan(n=200, h=0.01)  # nh = 2
        se = rs.asymptotic_stderr(1.0, cfg, plan)
        assert se == pytest.approx(0.2 / math.sqrt(2.0), rel=1e-9)

    def test_quadruple_span_halves_stderr(self):
        cfg = self.constant_sensitivity_config()
        se1 = rs.asymptotic_stderr(1.0, cfg, rs.SamplingPlan(n=200, h=0.01))
        se2 = rs.asymptotic_stderr(1.0, cfg, rs.SamplingPlan(n=800, h=0.01))
        assert se2 == pytest.approx(se1 / 2.0, rel=1e-12)

    def test_ci_contains_estimate_and_orders(self):
        cfg = power_model(0.5)
        plan = rs.SamplingPlan(n=200, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=5))
        result = rs.estimate_nlse(path, cfg, plan, level=0.95)
        assert result.stderr > 0
        lo, hi = result.ci
        assert lo < result.theta_hat < hi
        wide = rs.estimate_nlse(path, cfg, plan, level=0.99)
        assert wide.ci[0] < lo and wide.ci[1] > hi

    def test_degenerate_information_raises(self):
        drift = rs.DriftSpec.custom(
            f=lambda x, th: 0.0 * x,
            df_dtheta=lambda x, th: 0.0 * x,
            d2f_dtheta2=lambda x, th: 0.0 * x,
            lipschitz_bound=1.0,
        )
        cfg = rs.ModelConfig(drift=drift, sigma=0.2,
                             barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                             theta_domain=(0.01, 10.0), x0=1.0)
        with pytest.raises(ModelError):
            rs.asymptotic_stderr(1.0, cfg, rs.SamplingPlan(n=10, h=0.01))

    @pytest.mark.parametrize("stderr", (-1.0, -math.inf, math.nan), ids=str)
    def test_ci_refuses_an_impossible_stderr(self, stderr):
        # -1 would give the inverted interval (2.96, -0.96), NaN (nan, nan)
        with pytest.raises(ModelError, match="stderr must be >= 0"):
            rs.confidence_interval(1.0, stderr)

    def test_ci_keeps_a_zero_and_an_infinite_stderr(self):
        assert rs.confidence_interval(1.0, 0.0) == (1.0, 1.0)
        # estimate_two_factor passes +inf when the information is 0
        assert rs.confidence_interval(1.0, math.inf) == (-math.inf, math.inf)


class TestEstimateNlse:
    def test_auto_uses_closed_form_for_power(self):
        cfg = power_model(0.5)
        plan = rs.SamplingPlan(n=200, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=3))
        auto = rs.estimate_nlse(path, cfg, plan)
        assert auto.method == "closed_form"
        golden = rs.nlse_optimize(path, cfg.drift, cfg.theta_domain)
        assert abs(golden.theta_hat - auto.theta_hat) <= 1e-8

    @pytest.mark.parametrize("drift", (
        rs.DriftSpec.power(0.5), rs.DriftSpec.mean_reversion_to_one(),
        rs.DriftSpec.shifted_covariate(-1.0),
    ), ids=lambda drift: drift.kind)
    def test_run_mc_uses_the_same_estimator(self, drift):
        cfg = rs.ModelConfig(drift=drift, sigma=0.2,
                             barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                             theta_domain=(0.1, 6.0), x0=0.2)
        plan = rs.SamplingPlan(n=50, h=0.01)
        run = rs.run_mc(rs.McConfig(model=cfg, theta0=2.0, plan=plan,
                                    sim=rs.SimOptions(seed=9), replications=2,
                                    n_values=(50,)))
        direct = [
            rs.estimate_nlse(rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(
                seed=rng_mod.derive_seed(9, i, 50))), cfg, plan).theta_hat
            for i in run.rep_indices[50]
        ]
        assert run.estimates[50].tolist() == direct

    @pytest.mark.parametrize("plan", (
        # the stderr reads plan.n: a 10x longer plan gives a 10x smaller one
        rs.SamplingPlan(n=20_000, h=0.01),
        rs.SamplingPlan(n=199, h=0.01),
        rs.SamplingPlan(n=200, h=0.01 * (1.0 + 2e-9)),
    ), ids=("n", "n-1", "h"))
    def test_plan_must_match_the_path(self, plan):
        cfg = power_model(0.5)
        path = rs.simulate_path(cfg, 2.0, rs.SamplingPlan(n=200, h=0.01), rs.SimOptions(seed=3))
        with pytest.raises(ModelError, match="does not match the path"):
            rs.estimate_nlse(path, cfg, plan)
        # within the CSV reader's spacing tolerance, the plan's h is the path's
        rs.estimate_nlse(path, cfg, rs.SamplingPlan(n=200, h=0.01 * (1.0 + 5e-10)))

    def test_mean_reversion_golden_section_recovers(self):
        drift = rs.DriftSpec.mean_reversion_to_one()
        cfg = rs.ModelConfig(drift=drift, sigma=0.1,
                             barriers=rs.BarrierConfig.one_sided_lower(0.0),
                             theta_domain=(0.1, 8.0), x0=0.5)
        plan = rs.SamplingPlan(n=20_000, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=15))
        result = rs.estimate_nlse(path, cfg, plan)
        assert result.method == "golden_section"
        assert abs(result.theta_hat - 2.0) <= 4.0 * result.stderr


class TestTwoFactorEstimation:
    def test_noiseless_exact_recovery(self):
        # interior system: wide upper barrier, r0 != 1 so the short-rate
        # denominator stays alive
        plan = rs.SamplingPlan(n=100, h=0.01)
        tf = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.0, 0.0, 30.0, plan,
                                    rs.SimOptions(substeps=1, seed=2))
        r1, r2 = rs.estimate_two_factor(tf, 0.0)
        assert r1.theta_hat == pytest.approx(1.0, abs=1e-9)
        assert r2.theta_hat == pytest.approx(1.0, abs=1e-9)

    def test_grid_oracle_matches_closed_forms(self):
        plan = rs.SamplingPlan(n=500, h=0.01)
        tf = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                    rs.SimOptions(seed=44))
        est1, est2 = rs.estimate_two_factor(tf, 0.1)

        h = tf.h
        r_left = tf.rshort.x[:-1]
        dy, dl1, du1 = (np.diff(tf.y.x), np.diff(tf.y.l), np.diff(tf.y.r))
        drs, dl2 = np.diff(tf.rshort.x), np.diff(tf.rshort.l)

        def psi1(th):
            res = dy - (r_left + th) * h - dl1 + du1
            return float(np.dot(res, res))

        def psi2(th):
            res = drs - th * (1.0 - r_left) * h - dl2
            return float(np.dot(res, res))

        for psi, closed in ((psi1, est1.theta_hat), (psi2, est2.theta_hat)):
            grid = np.arange(0.5, 1.5, 1e-4)
            values = np.array([psi(t) for t in grid])
            k = int(np.argmin(values))
            assert abs(grid[k] - closed) <= 1e-3
            # quadratic interpolation through the grid minimum recovers the
            # vertex of these exactly quadratic objectives
            x0, x1, x2 = grid[k - 1], grid[k], grid[k + 1]
            y0, y1, y2 = values[k - 1], values[k], values[k + 1]
            vertex = x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / (
                (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            )
            assert abs(vertex - closed) <= 1e-8

    def test_degenerate_short_rate_rejected(self):
        plan = rs.SamplingPlan(n=50, h=0.01)
        tf = rs.simulate_two_factor(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 30.0, plan,
                                    rs.SimOptions(substeps=1, seed=2))
        with pytest.raises(DataError):
            rs.estimate_two_factor(tf, 0.0)

    @pytest.mark.parametrize("sigma, message", [
        (math.nan, "sigma must be finite, got nan"),
        (math.inf, "sigma must be finite, got inf"),
        (-math.inf, "sigma must be >= 0"),
        (-0.1, "sigma must be >= 0"),
    ])
    def test_bad_sigma_rejected(self, sigma, message):
        plan = rs.SamplingPlan(n=50, h=0.01)
        tf = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                    rs.SimOptions(seed=3))
        with pytest.raises(ModelError, match=f"^{message}$"):
            rs.estimate_two_factor(tf, sigma)

    def test_stderr_formulas(self):
        plan = rs.SamplingPlan(n=500, h=0.01)
        tf = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                    rs.SimOptions(seed=23))
        r1, r2 = rs.estimate_two_factor(tf, 0.1)
        nh = 500 * 0.01
        assert r1.stderr == pytest.approx(0.1 / math.sqrt(nh), rel=1e-12)
        info2 = float(np.mean((1.0 - tf.rshort.x[:-1]) ** 2))
        assert r2.stderr == pytest.approx(0.1 / math.sqrt(nh * info2), rel=1e-12)
        assert r1.ci[0] < r1.theta_hat < r1.ci[1]
        assert r2.ci[0] < r2.theta_hat < r2.ci[1]


class TestRealizedVolatility:
    def test_recovers_sigma_squared(self):
        cfg = power_model(1.0)
        plan = rs.SamplingPlan(n=20_000, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=61))
        assert rs.realized_volatility(path) == pytest.approx(cfg.sigma**2, rel=0.1)
