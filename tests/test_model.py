import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectsde as rs
from reflectsde.errors import DataError, ModelError
from reflectsde.model import eval_on_array


def drift_derivative_errors(spec, x_probes, theta_probes):
    """The worst relative discrepancies of the stored first and second
    theta-derivatives from central finite differences over the probe grid.
    The second-difference stencil uses a wider eps because the 1e-5 step
    puts roundoff of order machine-eps/eps**2 above the tolerance."""
    eps_first, eps_second = 1e-5, 1e-3
    worst1 = worst2 = 0.0
    for x in x_probes:
        for th in theta_probes:
            fd1 = (spec.f(x, th + eps_first) - spec.f(x, th - eps_first)) / (2.0 * eps_first)
            a1 = spec.df_dtheta(x, th)
            worst1 = max(worst1, abs(a1 - fd1) / max(1.0, abs(a1), abs(fd1)))
            fd2 = (spec.f(x, th + eps_second) - 2.0 * spec.f(x, th)
                   + spec.f(x, th - eps_second)) / (eps_second * eps_second)
            a2 = spec.d2f_dtheta2(x, th)
            worst2 = max(worst2, abs(a2 - fd2) / max(1.0, abs(a2), abs(fd2)))
    return worst1, worst2


def custom_theta_squared():
    # f(x, theta) = -theta^2 * x
    return rs.DriftSpec.custom(
        f=lambda x, th: -(th**2) * x,
        df_dtheta=lambda x, th: -2.0 * th * x,
        d2f_dtheta2=lambda x, th: -2.0 * x,
        lipschitz_bound=25.0,
    )


class TestDriftValues:
    def test_power_gamma_one(self):
        spec = rs.DriftSpec.power(1.0)
        assert spec.f(1.0, 2.0) == -2.0

    def test_power_sqrt(self):
        spec = rs.DriftSpec.power(0.5)
        assert spec.f(4.0, 2.0) == pytest.approx(-4.0, rel=1e-14)

    def test_mean_reversion_fixed_point(self):
        spec = rs.DriftSpec.mean_reversion_to_one()
        assert spec.f(1.0, 5.0) == 0.0

    def test_shifted_covariate(self):
        spec = rs.DriftSpec.shifted_covariate(0.7)
        assert spec.f(123.0, 0.3) == pytest.approx(1.0)

    def test_non_finite_input_rejected(self):
        # the drift is only evaluated behind checks that refuse NaN and inf
        spec = rs.DriftSpec.power(1.0)
        barriers = rs.BarrierConfig.two_sided(0.0, 3.0)
        with pytest.raises(ModelError):
            rs.ModelConfig(drift=spec, sigma=0.2, barriers=barriers,
                           theta_domain=(0.1, 5.0), x0=float("nan"))
        config = rs.ModelConfig(drift=spec, sigma=0.2, barriers=barriers,
                                theta_domain=(0.1, 5.0), x0=1.0)
        plan, opts = rs.SamplingPlan(n=2, h=0.01), rs.SimOptions()
        with pytest.raises(ModelError):
            rs.simulate_path(config, float("nan"), plan, opts)
        path = rs.simulate_path(config, 1.0, plan, opts)
        with pytest.raises(ModelError):
            rs.contrast(path, spec, float("inf"))

    def test_deterministic(self):
        spec = rs.DriftSpec.power(0.5)
        values = {spec.f(1.7, 2.3) for _ in range(100)}
        assert len(values) == 1


class TestEvalOnArray:
    X = np.array([0.1, 0.7, 2.5])

    @pytest.mark.parametrize("spec", (
        rs.DriftSpec.power(0.5), rs.DriftSpec.mean_reversion_to_one(),
        rs.DriftSpec.shifted_covariate(-1.0),
    ), ids=lambda spec: spec.kind)
    def test_builtin_drifts_evaluate_on_the_array(self, spec):
        # the 0.0 * x and 0.0 * theta terms give every built-in result the
        # shape of x, so no kind drops to the scalar loop
        for g in (lambda v: spec.f(v, 1.5), lambda v: spec.df_dtheta(v, 1.5)):
            assert np.shape(g(self.X)) == self.X.shape
            np.testing.assert_array_equal(eval_on_array(g, self.X),
                                          [g(float(v)) for v in self.X])

    def test_scalar_only_callable_falls_back_to_a_loop(self):
        out = eval_on_array(lambda v: math.exp(-v), self.X)
        np.testing.assert_array_equal(out, [math.exp(-v) for v in self.X])

    def test_reducing_callable_falls_back_to_a_loop(self):
        # an array argument collapses to one number: it must not broadcast
        out = eval_on_array(lambda v: float(np.max(v)) - 1.0, self.X)
        np.testing.assert_array_equal(out, self.X - 1.0)

    @pytest.mark.parametrize("g, message", (
        (lambda v: np.full(np.shape(v), "0.5"), "the drift is not a real number"),
        (lambda v: b"0.5", "the drift is not a real number"),
        (lambda v: None, "the drift is not a real number"),
        # the steppers refuse it as their conversion overflows
        (lambda v: 10 ** 400, "the drift left the finite range: "
                              "int too large to convert to float"),
    ), ids=("str-array", "bytes", "none", "huge-int"))
    def test_values_the_steppers_refuse_are_refused(self, g, message):
        # each was parsed, read as NaN or raised a bare OverflowError
        with pytest.raises(DataError) as raised:
            eval_on_array(g, self.X, "the drift")
        assert str(raised.value) == message


class TestDriftDerivatives:
    def test_power_dtheta_independent_of_theta(self):
        spec = rs.DriftSpec.power(1.0)
        for theta in (0.1, 2.0, 4.5):
            assert spec.df_dtheta(3.0, theta) == -3.0

    def test_mean_reversion_dtheta(self):
        spec = rs.DriftSpec.mean_reversion_to_one()
        assert spec.df_dtheta(0.25, 9.9) == 0.75

    def test_custom_dtheta_matches_finite_difference(self):
        spec = custom_theta_squared()
        x, theta, eps = 1.0, 2.0, 1e-6
        fd = (spec.f(x, theta + eps) - spec.f(x, theta - eps)) / (2 * eps)
        assert spec.df_dtheta(x, theta) == pytest.approx(-4.0, rel=1e-12)
        assert fd == pytest.approx(-4.0, rel=1e-8)

    def test_dtheta2_zero_for_linear_kinds(self):
        for spec in (rs.DriftSpec.power(0.7), rs.DriftSpec.mean_reversion_to_one()):
            assert spec.d2f_dtheta2(1.3, 2.2) == 0.0

    def test_custom_dtheta2_second_difference(self):
        spec = custom_theta_squared()
        assert spec.d2f_dtheta2(1.0, 2.0) == -2.0
        eps = 1e-4
        fd2 = (spec.f(1.0, 2.0 + eps) - 2 * spec.f(1.0, 2.0) + spec.f(1.0, 2.0 - eps)) / eps**2
        assert fd2 == pytest.approx(-2.0, rel=1e-6)

    @pytest.mark.parametrize(
        "spec",
        [
            rs.DriftSpec.power(0.5),
            rs.DriftSpec.power(1.0),
            rs.DriftSpec.mean_reversion_to_one(),
            rs.DriftSpec.shifted_covariate(0.4),
            custom_theta_squared(),
        ],
        ids=["power-0.5", "power-1", "mean-reversion", "shifted", "custom"],
    )
    def test_derivatives_match_finite_differences_on_grid(self, spec):
        # 50 probe points inside the working domain
        xs = np.linspace(0.02, 3.0, 10)
        thetas = np.linspace(0.2, 4.8, 5)
        err1, err2 = drift_derivative_errors(spec, xs, thetas)
        assert err1 <= 1e-6 and err2 <= 1e-6


class TestLipschitz:
    @pytest.mark.parametrize(
        "spec,lo",
        [
            (rs.DriftSpec.power(0.5), 0.01),
            (rs.DriftSpec.power(1.0), 0.0),
            (rs.DriftSpec.mean_reversion_to_one(), 0.0),
            (rs.DriftSpec.shifted_covariate(1.1), 0.0),
        ],
        ids=["power-0.5", "power-1", "mean-reversion", "shifted"],
    )
    def test_bound_holds_on_random_pairs(self, spec, lo):
        # gamma < 1 is not Lipschitz at zero, so that case starts at 0.01
        rng = np.random.default_rng(1234)
        xs = rng.uniform(lo, 3.0, size=(1000, 2))
        for theta in (0.5, 2.0, 5.0):
            f1 = np.array([spec.f(a, theta) for a in xs[:, 0]])
            f2 = np.array([spec.f(b, theta) for b in xs[:, 1]])
            gap = np.abs(f1 - f2)
            allowed = spec.lipschitz_bound * np.abs(xs[:, 0] - xs[:, 1]) + 1e-12
            assert np.all(gap <= allowed)

    # the declared bounds of the built-in drifts, pinned: |theta| <= 5 and,
    # for the power drift, x >= 0.01
    @pytest.mark.parametrize("spec, bound", (
        (rs.DriftSpec.power(0.5), 25.0),
        (rs.DriftSpec.power(2.0 / 3.0), 15.471962778709264),
        (rs.DriftSpec.power(0.25), 39.52847075210474),
        (rs.DriftSpec.power(1.0), 5.0),
        (rs.DriftSpec.mean_reversion_to_one(), 5.0),
        (rs.DriftSpec.shifted_covariate(1.1), 1.0),
    ), ids=("power-0.5", "power-2/3", "power-0.25", "power-1", "mean-reversion",
            "shifted"))
    def test_declared_bound(self, spec, bound):
        assert spec.lipschitz_bound == bound


class TestTypesValidation:
    def test_gamma_out_of_range(self):
        with pytest.raises(ModelError):
            rs.DriftSpec.power(0.0)
        with pytest.raises(ModelError):
            rs.DriftSpec.power(1.5)

    def test_lipschitz_must_be_positive(self):
        with pytest.raises(ModelError):
            rs.DriftSpec.custom(lambda x, t: 0.0, lambda x, t: 0.0,
                                lambda x, t: 0.0, lipschitz_bound=0.0)

    def test_barrier_ordering(self):
        with pytest.raises(ModelError):
            rs.BarrierConfig.two_sided(1.0, 1.0)
        with pytest.raises(ModelError):
            rs.BarrierConfig.two_sided(-0.5, 1.0)
        with pytest.raises(ModelError):
            rs.BarrierConfig.one_sided_lower(-1.0)
        assert not rs.BarrierConfig.one_sided_lower(0.0).is_two_sided

    def test_model_config_invariants(self):
        drift = rs.DriftSpec.power(1.0)
        barriers = rs.BarrierConfig.two_sided(0.0, 3.0)
        with pytest.raises(ModelError):
            rs.ModelConfig(drift=drift, sigma=-0.1, barriers=barriers,
                           theta_domain=(0.0, 1.0), x0=1.0)
        with pytest.raises(ModelError):
            rs.ModelConfig(drift=drift, sigma=0.2, barriers=barriers,
                           theta_domain=(2.0, 1.0), x0=1.0)
        with pytest.raises(ModelError):
            rs.ModelConfig(drift=drift, sigma=0.2, barriers=barriers,
                           theta_domain=(0.0, 1.0), x0=3.5)

    @pytest.mark.parametrize("domain", ((-1e308, 1e308), (-1.7e308, 1.7e308)), ids=str)
    def test_domain_whose_width_overflows_is_refused(self, domain):
        # (-1e308, 1e308) built, and the search then failed with
        # "minimize_unimodal needs lo < hi"
        with pytest.raises(ModelError) as raised:
            rs.ModelConfig(drift=rs.DriftSpec.mean_reversion_to_one(), sigma=0.2,
                           barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                           theta_domain=domain, x0=1.0)
        assert str(raised.value) == (f"theta domain ({domain[0]}, {domain[1]}) is too wide: "
                                     "hi - lo is not finite")

    def test_sampling_plan_invariants(self):
        with pytest.raises(ModelError):
            rs.SamplingPlan(n=1, h=0.01)
        with pytest.raises(ModelError):
            rs.SamplingPlan(n=2, h=0.0)
        with pytest.raises(ModelError):
            rs.SamplingPlan(n=2, h=0.01, alpha=0.5)

    @pytest.mark.parametrize("n", (float("nan"), float("inf")), ids=("nan", "inf"))
    def test_non_finite_n_is_a_model_error(self, n):
        with pytest.raises(ModelError, match="n must be an integer >= 2"):
            rs.SamplingPlan(n=n, h=0.01)


class TestRegime:
    def test_short_span_flagged(self):
        diag = rs.validate_regime(rs.SamplingPlan(n=200, h=0.01, alpha=0.25))
        assert diag.nh == pytest.approx(2.0)
        assert diag.bias_measure == pytest.approx(0.2)
        assert len(diag.warnings) == 1 and "nh" in diag.warnings[0]
        assert not diag.ok

    def test_bias_regime_flagged(self):
        diag = rs.validate_regime(rs.SamplingPlan(n=10**5, h=0.01, alpha=0.25))
        assert diag.nh == pytest.approx(1000.0)
        assert diag.bias_measure == pytest.approx(100.0)
        assert len(diag.warnings) == 1 and "bias" in diag.warnings[0]

    def test_comfortable_regime_clean(self):
        # nh = 20 and n*h**1.5 = 0.2: inside both advisory thresholds
        diag = rs.validate_regime(rs.SamplingPlan(n=200_000, h=1e-4, alpha=0.25))
        assert diag.ok


@given(
    x=st.floats(min_value=0.01, max_value=5.0),
    theta=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_power_dtheta_matches_fd_property(x, theta):
    spec = rs.DriftSpec.power(0.5)
    eps = 1e-6
    fd = (spec.f(x, theta + eps) - spec.f(x, theta - eps)) / (2 * eps)
    assert math.isclose(spec.df_dtheta(x, theta), fd, rel_tol=1e-7, abs_tol=1e-9)
