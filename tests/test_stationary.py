import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sciint
from scipy import stats as scistats

import reflectsde as rs
from reflectsde import stationary
from reflectsde.errors import ModelError

from conftest import power_model


def model_with(drift, sigma=0.2, barriers=None, x0=1.0):
    return rs.ModelConfig(
        drift=drift,
        sigma=sigma,
        barriers=barriers or rs.BarrierConfig.two_sided(0.0, 3.0),
        theta_domain=(0.01, 10.0),
        x0=x0,
    )


def zero_drift(sensitivity=lambda x, th: 1.0 + 0.0 * x):
    return rs.DriftSpec.custom(
        f=lambda x, th: 0.0 * x,
        df_dtheta=sensitivity,
        d2f_dtheta2=lambda x, th: 0.0 * x,
        lipschitz_bound=1.0,
    )


class TestScaleDensity:
    def test_zero_drift_scale_is_one(self):
        cfg = model_with(zero_drift())
        for x in (0.0, 0.7, 3.0):
            assert rs.scale_density(cfg, 2.0, x) == pytest.approx(1.0, abs=1e-14)

    def test_at_lower_barrier_exactly_one(self):
        cfg = power_model(0.5)
        assert rs.scale_density(cfg, 2.0, 0.0) == 1.0

    def test_linear_drift_against_quadrature_oracle(self):
        # gamma=1, theta=2, sigma^2=1, a=0, x=1
        cfg = model_with(rs.DriftSpec.power(1.0), sigma=1.0)
        value = rs.scale_density(cfg, 2.0, 1.0)
        integral, _ = sciint.quad(lambda y: -2.0 * y, 0.0, 1.0)
        oracle = math.exp(-2.0 / 1.0**2 * integral)
        assert oracle == pytest.approx(math.exp(2.0), rel=1e-12)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_custom_drift_adaptive_quadrature(self):
        drift = rs.DriftSpec.custom(
            f=lambda x, th: -th * math.sin(x) if np.isscalar(x) else -th * np.sin(x),
            df_dtheta=lambda x, th: -np.sin(x),
            d2f_dtheta2=lambda x, th: 0.0 * x,
            lipschitz_bound=5.0,
        )
        cfg = model_with(drift, sigma=0.5)
        # integral of -2 sin on [0, 1] = 2(cos 1 - 1)
        expected = math.exp(-2.0 / 0.25 * 2.0 * (math.cos(1.0) - 1.0))
        assert rs.scale_density(cfg, 2.0, 1.0) == pytest.approx(expected, rel=1e-9)

    # NaN lies in no interval
    @pytest.mark.parametrize("two_sided, x", (
        (True, 3.5), (True, -0.5), (True, math.nan), (False, -0.5), (False, math.nan),
    ))
    def test_outside_interval_rejected(self, two_sided, x):
        cfg = power_model(0.5, two_sided=two_sided)
        with pytest.raises(ModelError, match="outside the barrier interval"):
            rs.scale_density(cfg, 2.0, x)


class TestInvariantDensity:
    def test_zero_drift_uniform(self):
        cfg = model_with(zero_drift())
        grid = rs.invariant_density(cfg, 2.0)
        np.testing.assert_allclose(grid.values, 1.0 / 3.0, rtol=1e-10)
        assert rs.stationary_average(cfg, 2.0, lambda x: x) == pytest.approx(1.5, rel=1e-10)
        assert rs.stationary_average(cfg, 2.0, lambda x: 1.0 + 0.0 * x) == pytest.approx(1.0, abs=1e-10)

    def test_weights_sum_to_interval_length(self):
        grid = rs.invariant_density(power_model(0.5), 2.0)
        assert np.sum(grid.weights) == pytest.approx(grid.hi - grid.lo, rel=1e-12)

    def test_normalization(self):
        for cfg, theta in [
            (power_model(0.5), 2.0),
            (power_model(1.0), 2.0),
            (power_model(1.0, two_sided=False), 2.0),
        ]:
            grid = rs.invariant_density(cfg, theta)
            assert grid.integrate() == pytest.approx(1.0, abs=1e-8)
            assert np.all(grid.values >= 0.0)

    def test_reflected_linear_drift_matches_truncated_gaussian(self):
        # gamma=1, theta=2, sigma=0.2 on [0,3]: density proportional to
        # exp(-theta x^2 / sigma^2), a Gaussian of scale 0.1 truncated to [0,3]
        cfg = power_model(1.0)
        theta = 2.0
        scale = cfg.sigma / math.sqrt(2.0 * theta)
        oracle = scistats.truncnorm(loc=0.0, scale=scale, a=0.0, b=3.0 / scale)
        mean = rs.stationary_average(cfg, theta, lambda x: x)
        second = rs.stationary_average(cfg, theta, lambda x: x * x)
        assert mean == pytest.approx(oracle.mean(), abs=1e-6)
        assert second == pytest.approx(oracle.moment(2), abs=1e-6)

    def test_sqrt_drift_moments_match_gamma_function_oracle(self):
        # for the pull -theta*x**0.5 the density on [0, inf) is
        # proportional to exp(-c x^(3/2)) with c = 2 theta / (sigma^2 * 1.5),
        # so E[x^k] = Gamma((k+1)*2/3) / Gamma(2/3) * c**(-2k/3); the upper
        # barrier at 3 carries no visible mass at these parameters
        from scipy.special import gamma as gamma_fn

        cfg = power_model(0.5)
        theta = 2.0
        c = 2.0 * theta / (cfg.sigma**2 * 1.5)
        mean = rs.stationary_average(cfg, theta, lambda x: x)
        second = rs.stationary_average(cfg, theta, lambda x: x * x)
        assert mean == pytest.approx(
            gamma_fn(4.0 / 3.0) / gamma_fn(2.0 / 3.0) * c ** (-2.0 / 3.0), rel=1e-8
        )
        assert second == pytest.approx(
            gamma_fn(2.0) / gamma_fn(2.0 / 3.0) * c ** (-4.0 / 3.0), rel=1e-8
        )

    def test_information_equals_mean_for_sqrt_drift(self):
        # the squared sensitivity of the sqrt pull is x itself, so the
        # information integral must equal the stationary mean
        cfg = power_model(0.5)
        grid = rs.invariant_density(cfg, 2.0)
        assert rs.information(cfg, 2.0, grid=grid) == pytest.approx(
            rs.stationary_average(cfg, 2.0, lambda x: x, grid=grid), rel=1e-12
        )

    def test_one_sided_matches_half_gaussian(self):
        cfg = power_model(1.0, two_sided=False)
        theta = 2.0
        scale = cfg.sigma / math.sqrt(2.0 * theta)
        grid = rs.invariant_density(cfg, theta)
        mean = rs.stationary_average(cfg, theta, lambda x: x, grid=grid)
        assert mean == pytest.approx(scale * math.sqrt(2.0 / math.pi), rel=1e-8)
        # the truncation point leaves no visible mass at the edge
        assert grid.values[-1] <= 1e-12 * grid.values.max()

    def test_non_integrable_one_sided_rejected(self):
        repelling = rs.DriftSpec.custom(
            f=lambda x, th: th * x,
            df_dtheta=lambda x, th: x,
            d2f_dtheta2=lambda x, th: 0.0 * x,
            lipschitz_bound=10.0,
        )
        cfg = rs.ModelConfig(drift=repelling, sigma=0.2,
                             barriers=rs.BarrierConfig.one_sided_lower(0.0),
                             theta_domain=(0.01, 10.0), x0=0.5)
        with pytest.raises(ModelError):
            rs.invariant_density(cfg, 2.0)

    def test_sigma_zero_rejected(self):
        cfg = rs.ModelConfig(drift=rs.DriftSpec.power(1.0), sigma=0.0,
                             barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                             theta_domain=(0.01, 10.0), x0=1.0)
        with pytest.raises(ModelError):
            rs.invariant_density(cfg, 2.0)

    def test_custom_pipeline_matches_analytic_primitive(self):
        # the same linear drift through the analytic and the cumulative
        # quadrature pipelines; Simpson is exact for polynomials, so any
        # additive offset in the primitive cancels in the normalization
        custom = rs.DriftSpec.custom(
            f=lambda x, th: -th * x,
            df_dtheta=lambda x, th: -x,
            d2f_dtheta2=lambda x, th: 0.0 * x,
            lipschitz_bound=5.0,
        )
        g_analytic = rs.invariant_density(power_model(1.0), 2.0)
        g_custom = rs.invariant_density(model_with(custom), 2.0)
        np.testing.assert_allclose(g_custom.values, g_analytic.values,
                                   rtol=1e-12, atol=1e-15)


class TestInformation:
    def test_constant_sensitivity(self):
        drift = rs.DriftSpec.custom(
            f=lambda x, th: -th + 0.0 * x,
            df_dtheta=lambda x, th: -1.0 + 0.0 * x,
            d2f_dtheta2=lambda x, th: 0.0 * x,
            lipschitz_bound=1.0,
        )
        cfg = model_with(drift, sigma=0.3)
        assert rs.information(cfg, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_uniform_density_linear_sensitivity(self):
        # zero drift on [0,3] with sensitivity -x: integral of x^2/3 = 3
        drift = zero_drift(sensitivity=lambda x, th: -x)
        cfg = model_with(drift)
        assert rs.information(cfg, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_matches_ergodic_time_average(self):
        # information for the reflected linear drift is E[x^2]; compare to
        # the time average of x^2 along a long path, skipping the decay
        # from x0 which would otherwise bias the small moment
        cfg = power_model(1.0)
        theta = 2.0
        info = rs.information(cfg, theta)
        plan = rs.SamplingPlan(n=202_000, h=0.01)
        path = rs.simulate_path(cfg, theta, plan, rs.SimOptions(seed=606))
        time_avg = float(np.mean(path.x[2_000:-1] ** 2))
        assert abs(time_avg - info) <= 0.02 * info

    def test_degenerate_sensitivity_rejected(self):
        drift = zero_drift(sensitivity=lambda x, th: 0.0 * x)
        cfg = model_with(drift)
        with pytest.raises(ModelError):
            rs.information(cfg, 1.0)

    def test_refinement_stability(self, monkeypatch):
        # a custom drift, because only the quadrature path reads the grid;
        # the second grid's refinement starts from twice the panels
        cfg = model_with(_cubic_custom_drift())
        g1 = rs.information(cfg, 2.0, grid=rs.invariant_density(cfg, 2.0))
        monkeypatch.setattr(stationary, "_START_INTERVALS", 8192)
        g2 = rs.information(cfg, 2.0, grid=rs.invariant_density(cfg, 2.0))
        assert g1 != g2  # the value comes from the grid it is given
        assert abs(g2 - g1) <= 1e-8 * abs(g2)


_ORACLE_THETAS = (1e-4, 0.01, 0.5, 2.0, 7.0, 10.0)
_ORACLE_BARRIERS = ((0.0, 3.0), (0.5, 3.0), (0.0, None), (0.5, None))
_ORACLE_DRIFTS = (("power", 0.25), ("power", 0.5), ("power", 2.0 / 3.0),
                  ("power", 1.0), ("mean_reversion", None))


def _builtin_model(kind, param, a, b, sigma=0.2):
    if kind == "power":
        drift = rs.DriftSpec.power(param)
    elif kind == "mean_reversion":
        drift = rs.DriftSpec.mean_reversion_to_one()
    else:
        drift = rs.DriftSpec.shifted_covariate(param)
    barriers = (rs.BarrierConfig.one_sided_lower(a) if b is None
                else rs.BarrierConfig.two_sided(a, b))
    return rs.ModelConfig(drift=drift, sigma=sigma, barriers=barriers,
                          theta_domain=(-10.0, 10.0), x0=a + 0.1)


def _exact_information(kind, param, a, b, theta, sigma=0.2):
    """The information at 50 digits from the stationary law's masses:
    incomplete gamma functions for the power drift, the normal cdf and pdf
    for mean reversion.  mp.quad is no oracle here: with a = 0.5 and a
    large theta it misses the boundary layer at a."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        theta, a, sigma = mp.mpf(theta), mp.mpf(a), mp.mpf(sigma)
        if kind == "power":
            g1 = mp.mpf(param) + 1
            k = 2 * theta / (sigma**2 * g1)
            lo = k * a**g1
            hi = mp.inf if b is None else k * mp.mpf(b) ** g1
            value = (k ** (-2 * mp.mpf(param) / g1)
                     * mp.gammainc((2 * mp.mpf(param) + 1) / g1, lo, hi)
                     / mp.gammainc(1 / g1, lo, hi))
        else:
            s2 = sigma**2 / (2 * theta)
            alpha = (a - 1) / mp.sqrt(s2)
            beta = mp.inf if b is None else (mp.mpf(b) - 1) / mp.sqrt(s2)
            z = mp.ncdf(beta) - mp.ncdf(alpha)
            edge = alpha * mp.npdf(alpha) - (0 if b is None else beta * mp.npdf(beta))
            value = s2 * (1 + edge / z)
        return float(value)


def _quadrature_information(cfg, theta):
    grid = rs.invariant_density(cfg, theta)
    sens = cfg.drift.df_dtheta(grid.nodes, theta)
    return grid.integrate(sens * sens)


_NON_FINITE_MODELS = {
    "power": power_model(0.5),
    "power_one_sided": power_model(0.5, two_sided=False),
    "mean_reversion": model_with(rs.DriftSpec.mean_reversion_to_one()),
    "shifted_covariate": model_with(rs.DriftSpec.shifted_covariate(-0.5)),
    "custom": model_with(zero_drift()),
}
_UNIFORM_GRID = stationary.DensityGrid(lo=0.0, hi=3.0, nodes=[0.0, 1.5, 3.0],
                                       weights=[0.5, 2.0, 0.5], values=[1 / 3] * 3)
_STATIONARY_CALLS = {
    "invariant_density": lambda cfg, th: rs.invariant_density(cfg, th),
    "information": lambda cfg, th: rs.information(cfg, th),
    "stationary_average": lambda cfg, th: rs.stationary_average(cfg, th, lambda x: x),
    # theta only picks the grid, so a supplied one must not hide a bad theta
    "stationary_average_on_grid": lambda cfg, th: rs.stationary_average(
        cfg, th, lambda x: x, grid=_UNIFORM_GRID),
    "scale_density": lambda cfg, th: rs.scale_density(cfg, th, 1.0),
}


class TestNonFiniteTheta:
    """A non-finite theta is refused by name before any grid is built,
    with no numpy warning on the way; a finite theta <= 0 stays valid."""

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", sorted(_STATIONARY_CALLS))
    @pytest.mark.parametrize("model", sorted(_NON_FINITE_MODELS))
    def test_rejected_before_the_grid(self, model, call, theta, monkeypatch):
        def refuse(*args):
            raise AssertionError("a grid was built for a non-finite theta")
        monkeypatch.setattr(stationary, "_simpson_weights", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match=f"^theta must be finite, got {theta!r}$"):
                _STATIONARY_CALLS[call](_NON_FINITE_MODELS[model], theta)

    @pytest.mark.parametrize("model, theta", [
        ("power", 0.0), ("mean_reversion", 0.0), ("mean_reversion", -0.1),
    ])
    def test_finite_non_positive_theta_still_valid(self, model, theta):
        cfg = _NON_FINITE_MODELS[model]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = rs.invariant_density(cfg, theta)
            info = rs.information(cfg, theta)
        assert grid.integrate() == pytest.approx(1.0, rel=1e-12)
        assert math.isfinite(info) and info > 0.0


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, [(w.category, str(w.message)) for w in caught]


@pytest.fixture
def no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form fell back to the quadrature")
    monkeypatch.setattr(stationary, "invariant_density", refuse)


class TestClosedFormInformation:
    @pytest.mark.parametrize("barriers", _ORACLE_BARRIERS, ids=str)
    @pytest.mark.parametrize("kind,param", _ORACLE_DRIFTS, ids=str)
    def test_matches_exact_value(self, kind, param, barriers, no_quadrature):
        cfg = _builtin_model(kind, param, *barriers)
        for theta in _ORACLE_THETAS:
            exact = _exact_information(kind, param, *barriers, theta)
            assert rs.information(cfg, theta) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", (0.0, 0.5))
    @pytest.mark.parametrize("gamma", (0.25, 1.0))
    def test_near_uniform_power_law_uses_the_lower_tail(self, gamma, a, no_quadrature):
        # at theta = 1e-8 the gamma variable stays below 3e-6 on [a, 3],
        # so its upper-tail values lie within 2e-3 of 1 and would cancel
        exact = _exact_information("power", gamma, a, 3.0, 1e-8)
        assert rs.information(_builtin_model("power", gamma, a, 3.0), 1e-8) == pytest.approx(
            exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("barriers", ((0.1, 0.5), (1.5, 3.0), (1.5, None)), ids=str)
    def test_mean_reversion_off_centre_uses_its_near_tail(self, barriers, no_quadrature):
        # [a, b] on one side of the centre 1: the two cdf values counted
        # from the far side both lie within 1e-6 of 1 and would cancel
        cfg = _builtin_model("mean_reversion", None, *barriers)
        for theta in (2.0, 10.0):
            exact = _exact_information("mean_reversion", None, *barriers, theta)
            assert rs.information(cfg, theta) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind,param,a,b,theta", [
        # the masses of the law on [a, b] underflow
        ("power", 1.0, 2.0, 2.5, 50.0),
        ("power", 0.25, 0.1, 0.3, 1000.0),
        ("mean_reversion", None, 0.1, 0.3, 1000.0),
        # E[(1-x)^2] / s^2 = 3e-7 is a near-total cancellation
        ("mean_reversion", None, 0.1, 0.3, 1e-8),
        # theta <= 0
        ("power", 0.5, 0.0, 3.0, -0.5),
        ("mean_reversion", None, 0.0, 3.0, 0.0),
    ], ids=str)
    def test_ill_conditioned_and_nonpositive_theta_use_the_quadrature(
            self, kind, param, a, b, theta):
        # the cap warnings of the quadrature come along unchanged as well
        cfg = _builtin_model(kind, param, a, b)
        assert (_with_warnings(rs.information, cfg, theta)
                == _with_warnings(_quadrature_information, cfg, theta))

    @pytest.mark.parametrize("kind,param,barriers,theta", [
        ("power", 0.5, (0.0, 3.0), 2.0),
        ("power", 2.0 / 3.0, (0.0, None), 2.0),
        ("power", 1.0, (0.5, 3.0), 7.0),
        ("mean_reversion", None, (0.0, 3.0), 2.0),
        ("mean_reversion", None, (0.5, None), 0.01),
        ("shifted", -1.0, (0.0, 3.0), 0.5),
        ("shifted", 1.0, (0.0, None), -2.0),
    ], ids=str)
    def test_grid_argument_does_not_change_a_builtin(self, kind, param, barriers, theta):
        # the traced replay of the estimate_ci benchmark passes its own grid
        # and must reproduce the untraced estimates bit for bit
        cfg = _builtin_model(kind, param, *barriers)
        grid = rs.invariant_density(cfg, theta)
        assert rs.information(cfg, theta, grid) == rs.information(cfg, theta)

    @pytest.mark.parametrize("b,theta", [(3.0, 0.5), (3.0, 4.0), (None, 0.5)])
    def test_shifted_covariate_is_exactly_one(self, b, theta):
        assert rs.information(_builtin_model("shifted", -1.0, 0.0, b), theta) == 1.0

    def test_shifted_covariate_non_integrable_one_sided_rejected(self):
        with pytest.raises(ModelError, match="not integrable"):
            rs.information(_builtin_model("shifted", -1.0, 0.0, None), 1.0)


class TestErgodicConsistency:
    def test_long_run_histogram_close_in_total_variation(self):
        cfg = power_model(1.0)
        theta = 2.0
        plan = rs.SamplingPlan(n=200_000, h=0.01)
        path = rs.simulate_path(cfg, theta, plan, rs.SimOptions(seed=71))
        grid = rs.invariant_density(cfg, theta)
        edges = np.linspace(0.0, 3.0, 121)
        observed, _ = np.histogram(path.x[:-1], bins=edges)
        observed = observed / observed.sum()
        expected = np.empty(len(edges) - 1)
        for i in range(len(edges) - 1):
            inside = (grid.nodes >= edges[i]) & (grid.nodes < edges[i + 1])
            expected[i] = float(np.sum(grid.weights[inside] * grid.values[inside]))
        expected = expected / expected.sum()
        tv = 0.5 * float(np.sum(np.abs(observed - expected)))
        assert tv < 0.05

    def test_time_averages_match_quadrature(self):
        cfg = power_model(1.0)
        theta = 2.0
        plan = rs.SamplingPlan(n=200_000, h=0.01)
        path = rs.simulate_path(cfg, theta, plan, rs.SimOptions(seed=37))
        grid = rs.invariant_density(cfg, theta)
        for g in (lambda x: x, lambda x: x * x, lambda x: np.exp(-x)):
            space = rs.stationary_average(cfg, theta, g, grid=grid)
            time_avg = float(np.mean(g(path.x[:-1])))
            assert abs(time_avg - space) <= 0.02 * (1.0 + abs(space))


# sha256 over the bytes of nodes, weights and values, recorded before the
# refinement loop took one fixed shift and evaluated only the new nodes;
# these kinds peak on a node of every level (a or the upper end), so their
# grids must not change by a bit
_GOLDEN_GRIDS = {
    ("power", 0.5, True, 2.0): "18e605eb795de3980047bb587aa49fe4c7c208adb068f542c7feff2ed3b9b881",
    ("power", 0.5, False, 2.0): "cd5a9e0581d85ab31be376187b76d54995f921d94fd07ee8a5d73c843950b57b",
    ("power", 0.5, False, 7.0): "98e5f30890221e2b12d6629606ebe1fcdeea53e9a3cc74cf7d863b10fde6123b",
    ("power", 2.0 / 3.0, True, 2.0): "aa1a30a2bebdcbd79243a334b77ed45c2fcb8164a4de59651b5e82decf9d1989",
    ("power", 2.0 / 3.0, True, 7.0): "ff3042dc96bd9426a18663827b540484c214513e84a2f3fc7b4e8d710fe78543",
    ("power", 2.0 / 3.0, False, 2.0): "7f672d395712ed9e6375cdf77c68f6d45fbe9f06ad845de7c8ef499bba2e8523",
    ("power", 1.0, True, 2.0): "6a7d466b5c6affe9bfa8d2f98a528df0f294f3c9f218c371c06d1ae14aa0256c",
    ("power", 1.0, False, 2.0): "3dd3de91c7ab0c70e0f082c106cb189dbd5c0bc08d4dc6640c12dbef8c28f4f6",
    ("shifted", 1.0, True, 2.0): "e6b34ed8456e222782327dc90d6e33811ec434b7892831a542c4e4d08fe73499",
    ("shifted", -1.0, True, 2.0): "fd8447469a840c2aa6fc8a7376c9c652fd6da3ef51b0fc1770ef4890712ceb77",
}

# information of the custom drift theta*(1 - x) - x**3 at theta = 2, sigma =
# 0.2 on [0, 3] as the per-level shift computed it (16,385 nodes)
_CUSTOM_INFORMATION_BEFORE_FIXED_SHIFT = 0.059274480918013406


def _grid_digest(grid):
    h = hashlib.sha256()
    for arr in (grid.nodes, grid.weights, grid.values):
        h.update(arr.tobytes())
    return h.hexdigest()


def _cubic_custom_drift():
    return rs.DriftSpec.custom(
        f=lambda x, th: th * (1.0 - x) - x ** 3,
        df_dtheta=lambda x, th: 1.0 - x + 0.0 * th,
        d2f_dtheta2=lambda x, th: 0.0 * (x + th),
        lipschitz_bound=30.0,
    )


class TestCumulativeSimpson:
    """The custom-drift primitive's numpy port of scipy's cumulative
    Simpson rule gives scipy's bits."""

    @staticmethod
    def _scipy(y, x):
        from scipy import integrate

        return integrate.cumulative_simpson(y, x=x, initial=0.0)

    # the grids of the refinement levels, 4,096 to 16,384 panels
    @pytest.mark.parametrize("intervals", (4096, 8192, 16384))
    @pytest.mark.parametrize("lo, hi", ((0.0, 3.0), (0.01, 7.3), (-2.3, 11.9)))
    def test_refinement_grids_match_scipy(self, intervals, lo, hi):
        nodes, _ = stationary._simpson_weights(lo, hi, intervals)
        for f in (lambda x: 2.0 * (1.0 - x) - x ** 3, np.sin, lambda x: np.exp(-x * x)):
            y = f(nodes)
            assert stationary._cumulative_simpson(y, nodes).tobytes() == \
                self._scipy(y, nodes).tobytes()

    @pytest.mark.parametrize("count", (3, 4, 5, 6, 7, 8))
    def test_small_odd_and_even_node_counts_match_scipy(self, count):
        rng = np.random.default_rng(count)
        x = np.cumsum(rng.uniform(0.1, 1.0, count))
        y = rng.standard_normal(count)
        assert stationary._cumulative_simpson(y, x).tobytes() == self._scipy(y, x).tobytes()

    def test_negative_zero_sums_to_zero_as_in_scipy(self):
        y, x = np.full(4, -0.0), np.arange(4.0)
        out = stationary._cumulative_simpson(y, x)
        assert out.tobytes() == self._scipy(y, x).tobytes() == np.zeros(4).tobytes()


class TestRefinement:
    @pytest.mark.parametrize("case", sorted(_GOLDEN_GRIDS), ids=str)
    def test_grid_bytes_unchanged(self, case):
        kind, param, two_sided, theta = case
        if kind == "power":
            cfg = power_model(param, two_sided=two_sided)
        else:
            cfg = model_with(rs.DriftSpec.shifted_covariate(param))
        assert _grid_digest(rs.invariant_density(cfg, theta)) == _GOLDEN_GRIDS[case]

    def test_mean_reversion_stops_once_simpson_converges(self):
        # the peak x = 1 is never a node of [0, 3], so a per-level shift kept
        # the normalizers apart and ran to the 262,145-node cap
        cfg = model_with(rs.DriftSpec.mean_reversion_to_one())
        grid = rs.invariant_density(cfg, 2.0)
        assert len(grid.nodes) <= 8193
        assert rs.information(cfg, 2.0, grid) == pytest.approx(
            cfg.sigma**2 / (2.0 * 2.0), rel=1e-12, abs=0.0)

    def test_custom_drift_information_unchanged(self):
        cfg = model_with(_cubic_custom_drift())
        assert rs.information(cfg, 2.0) == pytest.approx(
            _CUSTOM_INFORMATION_BEFORE_FIXED_SHIFT, rel=1e-12, abs=0.0)

    def test_cap_warning_names_change_and_nodes(self):
        cfg = power_model(0.25)
        with pytest.warns(RuntimeWarning, match=r"262145 nodes .* 1\.5e-08 relative"):
            grid = rs.invariant_density(cfg, 9.0)
        assert len(grid.nodes) == 262145

    @pytest.mark.parametrize("gamma,two_sided,theta", [
        (1.0, True, 9.0),
        (0.5, True, 2.3),
        (0.5, False, 2.3),
    ])
    def test_no_warning_when_converged(self, gamma, two_sided, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs.invariant_density(power_model(gamma, two_sided=two_sided), theta)


class TestDensityGridArrays:
    def test_returned_arrays_read_only(self):
        grid = rs.invariant_density(power_model(1.0), 2.0)
        for arr in (grid.nodes, grid.weights, grid.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_nodes_are_the_grid_built_and_own_their_memory(self, monkeypatch):
        built = []

        def spy(lo, hi, intervals):
            nodes, w = simpson(lo, hi, intervals)
            built.append(nodes)
            return nodes, w

        simpson = stationary._simpson_weights
        monkeypatch.setattr(stationary, "_simpson_weights", spy)
        grid = rs.invariant_density(power_model(1.0), 2.0)
        assert grid.nodes.base is None
        assert grid.nodes is built[-1]
        for lo, hi in ((0.0, 3.0), (-1.0, 2.0), (0.1, 7.3)):
            for k in (512, 262144):
                nodes, _ = simpson(lo, hi, k)
                assert nodes.tobytes() == np.linspace(lo, hi, k + 1).tobytes()

    def test_caller_arrays_copied(self):
        nodes = np.linspace(0.0, 1.0, 3)
        weights = np.array([1.0, 4.0, 1.0]) / 6.0
        values = np.ones(3)
        grid = rs.DensityGrid(lo=0.0, hi=1.0, nodes=nodes, weights=weights,
                              values=values)
        nodes[0] = weights[0] = values[0] = 9.0
        assert grid.nodes[0] == 0.0
        assert grid.weights[0] == pytest.approx(1.0 / 6.0)
        assert grid.values[0] == 1.0
        assert grid.integrate() == pytest.approx(1.0)
        assert not grid.values.flags.writeable
