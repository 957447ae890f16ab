import gc
import hashlib
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectsde as rs
from reflectsde import _native, estimate
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

    def test_a_custom_drift_array_is_not_written(self, paths):
        # a custom drift may return an array it keeps: the residual pass
        # writes into a buffer of its own
        path = paths[True]
        kept = 1.0 - path.x[:-1]
        before = kept.copy()
        spec = rs.DriftSpec.custom(lambda x, th: kept, lambda x, th: 0.0 * x,
                                   lambda x, th: 0.0 * x, 1.0)
        value = rs.contrast(path, spec, 2.0)
        rs.nlse_optimize(path, spec, (-5.0, 5.0))
        assert kept.tobytes() == before.tobytes()
        assert value == _reference_contrast(path, spec, 2.0) == rs.contrast(path, spec, 2.0)


def _residuals(objective):
    """The residual buffer a closure of ``estimate._contrast_of`` writes."""
    cells = dict(zip(objective.__code__.co_freevars,
                     (cell.cell_contents for cell in objective.__closure__)))
    return cells["res"]


def _scalar_drift(x, th):
    if isinstance(x, np.ndarray):
        raise TypeError("scalars only")
    return th * math.sin(3.0 * x) - x * x


class TestCompiledContrast:
    """The search's contrast gives the residuals, and so the contrast, of
    the numpy expression for every drift kind, bit for bit, with and
    without the compiled library: ``contrast_residuals`` for the
    mean-reversion and shifted-covariate drifts, the numpy expression
    itself for the others."""

    @given(
        kind=st.sampled_from(("power", "mean_reversion", "shifted_covariate", "custom",
                              "custom_scalar")),
        gamma=st.floats(0.0, 1.0, exclude_min=True),
        covariate=st.floats(-3.0, 3.0),
        two_sided=st.booleans(),
        theta=st.one_of(st.floats(-1e6, 1e6), st.sampled_from((0.0, -0.0, 1e-300, 2.0))),
        n=st.integers(2, 80),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_compiled_contrast_is_the_numpy_expression(self, kind, gamma, covariate,
                                                        two_sided, theta, n, seed):
        spec = {
            "power": lambda: rs.DriftSpec.power(gamma),
            "mean_reversion": rs.DriftSpec.mean_reversion_to_one,
            "shifted_covariate": lambda: rs.DriftSpec.shifted_covariate(covariate),
            "custom": lambda: _SEARCH_SPECS["custom"],
            "custom_scalar": lambda: rs.DriftSpec.custom(
                _scalar_drift, lambda x, th: math.sin(3.0 * x), lambda x, th: 0.0, 5.0),
        }[kind]()
        # narrow barriers keep both regulators busy
        cfg = rs.ModelConfig(
            drift=rs.DriftSpec.mean_reversion_to_one(), sigma=0.5,
            barriers=rs.BarrierConfig.two_sided(0.9, 1.1) if two_sided
            else rs.BarrierConfig.one_sided_lower(0.95),
            theta_domain=(0.01, 10.0), x0=1.0)
        path = rs.simulate_path(cfg, 2.0, rs.SamplingPlan(n=n, h=0.01),
                                rs.SimOptions(substeps=2, seed=seed))
        outcomes = []
        for backend in ("compiled", "numpy"):
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                warnings.simplefilter("error")
                if backend == "numpy":
                    mp.setattr(_native, "load", lambda: None)
                objective = estimate._contrast_of(path, spec)
                value = objective(theta)
                outcomes.append((value, _residuals(objective).tobytes()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == _reference_contrast(path, spec, theta)

    @pytest.mark.parametrize("kind", ("mean_reversion", "shifted_covariate"))
    def test_compiled_closure_keeps_its_path(self, kind):
        # contrast_residuals reads the path's arrays through the bare
        # addresses of a struct: the closure must keep the path alive once
        # the caller drops it, and let it go with the closure
        spec = _SEARCH_SPECS[kind]
        _, path = noiseless_path()
        expected = rs.contrast(path, spec, 0.7)
        alive = weakref.ref(path)
        objective = estimate._contrast_of(path, spec)
        del path
        gc.collect()
        assert alive() is not None
        assert objective(0.7) == expected
        del objective
        gc.collect()
        assert alive() is None


class TestComplexDrift:
    """A custom drift whose values are complex, numpy.complex128 among
    them, is refused in the contrast on either backend, rather than cut to
    its real part with a ComplexWarning."""

    @pytest.mark.parametrize("backend", ("compiled", "numpy"))
    @pytest.mark.parametrize("f", (
        lambda x, th: np.complex128(th) * (1.0 - x),
        lambda x, th: (th * (1.0 - x)).astype(np.complex64),
        lambda x, th: np.complex128(_scalar_drift(x, th)),
        lambda x, th: complex(_scalar_drift(x, th)),
    ), ids=("vectorised", "complex64-array", "scalar", "python-complex"))
    def test_complex_drift_is_refused(self, f, backend, monkeypatch):
        if backend == "numpy":
            monkeypatch.setattr(_native, "load", lambda: None)
        spec = rs.DriftSpec.custom(f, lambda x, th: 1.0 - x, lambda x, th: 0.0, 1.0)
        _, path = noiseless_path()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="the drift is not a real number"):
                rs.contrast(path, spec, 1.0)
            with pytest.raises(DataError, match="the drift is not a real number"):
                rs.nlse_optimize(path, spec, (-5.0, 5.0))


class TestClosedForm:
    def test_two_point_hand_value(self):
        theta = rs.estimate_power_closed_form(two_point_path(), 1.0).theta_hat
        assert theta == pytest.approx(1.0, rel=1e-14)

    def test_noiseless_exact_recovery(self):
        for gamma in (1.0, 0.5):
            for two_sided in (True, False):
                _, path = noiseless_path(gamma=gamma, two_sided=two_sided)
                theta = rs.estimate_power_closed_form(path, gamma).theta_hat
                assert theta == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_path_rejected(self):
        stuck = rs.SamplePath(
            h=0.01, times=np.array([0.0, 0.01, 0.02]), x=np.zeros(3),
            l=np.zeros(3), r=np.zeros(3),
            barriers=rs.BarrierConfig.one_sided_lower(0.0),
        )
        with pytest.raises(DataError):
            rs.estimate_power_closed_form(stuck, 0.5)

    def test_closed_form_digest(self):
        # 720 estimates: four powers, both barrier kinds, three sample sizes,
        # 15 seeds, and a domain that holds the estimate and one, above
        # theta0 = 2, that clamps it
        digest = hashlib.sha256()
        clamped = 0
        for gamma in (0.25, 0.5, 2.0 / 3.0, 1.0):
            for two_sided in (True, False):
                cfg = power_model(gamma, two_sided=two_sided)
                for n in (50, 200, 2000):
                    plan = rs.SamplingPlan(n=n, h=0.01)
                    for seed in range(15):
                        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=seed))
                        for domain in ((0.01, 10.0), (2.5, 3.0)):
                            res = rs.estimate_power_closed_form(path, gamma, domain)
                            clamped += res.boundary_hit
                            digest.update(repr((res.theta_hat.hex(), res.contrast_at_min.hex(),
                                                res.boundary_hit)).encode())
        assert clamped > 300
        assert digest.hexdigest() == _GOLDEN_CLOSED_FORM_DIGEST

    @pytest.mark.parametrize("gamma", (0.5, 2.0 / 3.0))
    def test_one_power_estimate_evaluates_the_power_once(self, gamma, monkeypatch):
        # x**gamma at the left endpoints is taken once, for the slope and
        # the contrast (numpy takes x**0.5 as np.sqrt), and no DriftSpec is
        # built
        powers, specs = [], []

        class Counting(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc in (np_power, np.sqrt):
                    powers.append(ufunc)
                inputs = [np.asarray(v) if isinstance(v, Counting) else v for v in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def power_call(*args, **kwargs):
            powers.append(np_power)
            return np_power(*args, **kwargs)

        def spec_init(self, *args, **kwargs):
            specs.append(self)
            spec_init_of(self, *args, **kwargs)

        np_power, spec_init_of = np.power, rs.DriftSpec.__init__
        _, path = noiseless_path(gamma=gamma)
        object.__setattr__(path, "x", path.x.view(Counting))
        monkeypatch.setattr(np, "power", power_call)
        monkeypatch.setattr(rs.DriftSpec, "__init__", spec_init)
        result = rs.estimate_power_closed_form(path, gamma, (0.1, 6.0))
        assert (len(powers), specs) == (1, [])
        assert result.theta_hat == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("domain", ((10.0, 0.01), (math.nan, 10.0), (0.01, math.nan),
                                        (5.0, 5.0)), ids=str)
    def test_domain_that_is_not_an_interval_is_refused(self, domain):
        # the closed form returned a pinned 0.01 for (10, 0.01), the
        # unclamped 2.0 for either NaN and a pinned 5.0 for (5, 5)
        _, path = noiseless_path(gamma=0.5)
        for estimate_with in (lambda: rs.estimate_power_closed_form(path, 0.5, domain),
                              lambda: rs.nlse_optimize(path, rs.DriftSpec.power(0.5), domain)):
            with pytest.raises(ModelError, match="theta domain must satisfy lo < hi"):
                estimate_with()

    @pytest.mark.parametrize("domain", ((-1e308, 1e308), (-math.inf, 5.0), (0.01, math.inf)),
                             ids=str)
    def test_domain_whose_width_overflows_is_refused(self, domain):
        # (-1e308, 1e308) failed with "minimize_unimodal needs lo < hi"
        _, path = noiseless_path(gamma=0.5)
        with pytest.raises(ModelError) as raised:
            rs.nlse_optimize(path, rs.DriftSpec.power(0.5), domain)
        assert str(raised.value) == (f"theta domain ({domain[0]}, {domain[1]}) is too wide: "
                                     "hi - lo is not finite")


# Recorded with CPython 3.11 and numpy 2.4 on x86-64 Linux once the
# steppers took x**0.5 as the correctly rounded sqrt: 6 of the 90 gamma = 1/2
# paths changed, at 26 observations by at most 1.4e-17, where 623 of their
# 675,000 fine steps met a root that glibc pow rounded otherwise.
_GOLDEN_CLOSED_FORM_DIGEST = "be3babf66b44e446565ecce39b16eb5ca13a552bc3770f22f49de45acc19d586"


class TestOptimizer:
    def test_matches_closed_form(self):
        cfg = power_model(0.5)
        plan = rs.SamplingPlan(n=200, h=0.01)
        for seed in range(20):
            path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=seed))
            closed = rs.estimate_power_closed_form(path, 0.5).theta_hat
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


    def test_two_factor_digest(self):
        # both factors' estimates, contrasts, stderrs and intervals over 120
        # paths, noisy and noiseless (whose residuals are zero or nearly);
        # a narrow log-price band and a short rate started near 0 keep the
        # regulators busy
        digest = hashlib.sha256()
        plan = rs.SamplingPlan(n=200, h=0.01)
        pushed = np.zeros(3)
        for sigma in (0.1, 0.0):
            for seed in range(60):
                tf = rs.simulate_two_factor(1.0, 0.01, -0.05, 0.2, sigma, 0.95, 1.05, plan,
                                            rs.SimOptions(seed=seed))
                pushed += [tf.y.l[-1] > 0, tf.y.r[-1] > 0, tf.rshort.l[-1] > 0]
                for res in rs.estimate_two_factor(tf, sigma):
                    digest.update(repr((res.theta_hat.hex(), res.contrast_at_min.hex(),
                                        res.stderr, res.ci)).encode())
        assert np.all(pushed >= 20)
        assert digest.hexdigest() == _GOLDEN_TWO_FACTOR_DIGEST


# Recorded on the parent of the shared residual pass (CPython 3.11,
# numpy 2.4, x86-64 Linux), where each factor spelled out its residual.
_GOLDEN_TWO_FACTOR_DIGEST = "8d5323b62412ff986993e1cdb54a8efe6ebfc74e8c0fe932fd6e4fbf92976168"
