import ctypes
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectsde as rs
from reflectsde import _native, model, simulate
from reflectsde import rng as rng_mod
from reflectsde.errors import DataError, ModelError

from conftest import power_model


def _step(x, mu, h, z, u, a, b=math.inf, sig2h=0.0):
    """One reflected fine step of the stepper in use, with the constant
    drift ``mu``, the scaled Gaussian increment ``z`` (sigma * dw), the
    bridge uniform ``u`` and 2 sigma^2 h = ``sig2h``; returns the next
    state and the lower and upper regulator increments."""
    xs, ls, rs_ = np.array([x, 0.0]), np.zeros(2), np.zeros(2)
    trace = (xs, ls, rs_, np.empty(1, dtype=bool), np.empty(1, dtype=bool))
    simulate._integrate((simulate._K_CONSTANT, mu, 0.0), np.array([z]), np.array([u]),
                        1, a, b, h, sig2h, True, trace)(0, 1)
    return float(xs[1]), float(ls[1]), float(rs_[1])


def _sampled_minimum(s, u, sig2h):
    """The stepper's within-step minimum for the endpoint increment ``s``:
    from x = a = 0 with no drift, the push is exactly minus the minimum."""
    return -_step(0.0, 0.0, 1.0, s, u, 0.0, sig2h=sig2h)[1]


def _bridge_minimum(s, u, sig2h):
    """Oracle: the minimum of a Brownian bridge from 0 to ``s`` with
    2 sigma^2 h = ``sig2h``, sampled by inversion from ``u`` in (0, 1]."""
    return 0.5 * (s - math.sqrt(s * s - sig2h * math.log(u)))


class TestBridgeMinimum:
    def test_u_one_positive_endpoint(self):
        assert _sampled_minimum(0.5, 1.0, 2.0) == 0.0

    def test_u_one_negative_endpoint(self):
        assert _sampled_minimum(-0.3, 1.0, 2.0) == -0.3

    def test_hand_value(self):
        # s=0, sigma^2 h=1, u=e^-2: (0 - sqrt(0 + 4)) / 2 = -1
        m = _sampled_minimum(0.0, math.exp(-2.0), 2.0)
        assert m == pytest.approx(-1.0, rel=1e-14)

    def test_never_above_min_zero_endpoint(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = rng.normal()
            u = 1.0 - rng.random()
            assert _sampled_minimum(s, u, 2.0 * 0.5 * 0.5 * 0.01) <= min(0.0, s) + 1e-15

    def test_smallest_uniform_gives_a_finite_minimum(self):
        # the draw stream's smallest uniform, 2**-53: -sqrt(2 * 53 ln 2) / 2
        m = _sampled_minimum(0.0, 2.0**-53, 2.0)
        assert m == pytest.approx(-0.5 * math.sqrt(106.0 * math.log(2.0)), rel=1e-14)


class TestSteps:
    def test_interior_step(self):
        x, dl, dr = _step(10.0, -0.5, 0.01, 0.1 * 0.03, 0.9, 0.0, sig2h=2e-4)
        assert (dl, dr) == (0.0, 0.0)
        assert x == pytest.approx(10.0 - 0.005 + 0.003)

    def test_push_from_barrier(self):
        # x=a, drift takes s=-0.1, u=1 puts the minimum at the endpoint
        x, dl, _ = _step(0.5, -10.0, 0.01, 0.0, 1.0, 0.5)
        assert dl == pytest.approx(0.1)
        assert x == pytest.approx(0.5)

    def test_graze_above_barrier(self):
        x, dl, _ = _step(0.05, 20.0, 0.01, 0.0, 1.0, 0.0)
        assert dl == 0.0
        assert x == pytest.approx(0.25)

    def test_two_sided_interior(self):
        x, dl, dr = _step(1.0, 0.5, 0.01, 0.0, 1.0, 0.0, 3.0, sig2h=2e-4)
        assert (dl, dr) == (0.0, 0.0)
        assert x == pytest.approx(1.005)

    def test_two_sided_upper_clip(self):
        x, dl, dr = _step(3.0, 10.0, 0.01, 0.0, 1.0, 0.0, 3.0)
        assert dl == 0.0
        assert dr == pytest.approx(0.1)
        assert x == 3.0

    def test_two_sided_lower_push(self):
        x, dl, dr = _step(0.0, -10.0, 0.01, 0.0, 1.0, 0.0, 3.0)
        assert dl == pytest.approx(0.1)
        assert dr == 0.0
        assert x == pytest.approx(0.0)

    def test_positive_push_lifts_minimum_exactly_to_barrier(self):
        # whenever dl > 0, the reflected within-step minimum x + m + dl
        # sits on the barrier
        rng = np.random.default_rng(3)
        h, sigma, a = 0.01, 0.2, 0.0
        sig2h = 2.0 * sigma * sigma * h
        pushes = 0
        for _ in range(2000):
            x = rng.uniform(0.0, 0.1)
            mu = rng.uniform(-4.0, 1.0)
            z = sigma * rng.normal() * math.sqrt(h)
            u = 1.0 - rng.random()
            _, dl, _ = _step(x, mu, h, z, u, a, sig2h=sig2h)
            if dl > 0.0:
                pushes += 1
                m = _bridge_minimum(mu * h + z, u, sig2h)
                assert x + m + dl == pytest.approx(a, abs=1e-15)
        assert pushes > 100


@pytest.mark.usefixtures("python_stepper")
class TestBridgeMinimumOnPythonStepper(TestBridgeMinimum):
    """The same minima from the Python stepper."""


@pytest.mark.usefixtures("python_stepper")
class TestStepsOnPythonStepper(TestSteps):
    """The same steps on the Python stepper."""


class TestSimulatePath:
    def test_noiseless_euler_accumulation(self):
        config = rs.ModelConfig(
            drift=rs.DriftSpec.power(1.0), sigma=0.0,
            barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
            theta_domain=(0.1, 6.0), x0=1.5,
        )
        plan = rs.SamplingPlan(n=20, h=0.05)
        m = 4
        path = rs.simulate_path(config, 0.5, plan, rs.SimOptions(substeps=m, seed=3))
        expected = np.empty(21)
        x = 1.5
        expected[0] = x
        hf = 0.05 / m
        for k in range(20):
            for _ in range(m):
                x = x + (-0.5 * x) * hf
            expected[k + 1] = x
        np.testing.assert_allclose(path.x, expected, rtol=0, atol=1e-15)
        assert np.all(path.l == 0.0) and np.all(path.r == 0.0)

    def test_same_seed_bit_identical(self):
        config = power_model(0.5)
        plan = rs.SamplingPlan(n=100, h=0.01)
        p1 = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=42))
        p2 = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=42))
        assert np.array_equal(p1.x, p2.x)
        assert np.array_equal(p1.l, p2.l)
        assert np.array_equal(p1.r, p2.r)
        p3 = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=43))
        assert not np.array_equal(p1.x, p3.x)

    def test_barrier_and_regulator_invariants(self):
        config = power_model(0.5)
        plan = rs.SamplingPlan(n=2000, h=0.01)
        path = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=7))
        a, b = 0.0, 3.0
        assert path.x.min() >= a - 1e-12
        assert path.x.max() <= b + 1e-12
        assert path.l[0] == 0.0 and path.r[0] == 0.0
        assert np.all(np.diff(path.l) >= 0.0)
        assert np.all(np.diff(path.r) >= 0.0)
        path.validate()
        # the benchmark path actually works its barrier
        assert path.l[-1] > 0.0

    def test_complementary_slackness_flags(self):
        config = power_model(0.5)
        plan = rs.SamplingPlan(n=1000, h=0.01)
        path = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=11))
        grew = np.diff(path.l) > 0
        assert np.all(path.hit_lower[grew])
        grew_r = np.diff(path.r) > 0
        assert np.all(path.hit_upper[grew_r])

    def test_theta_outside_domain_rejected(self):
        config = power_model(0.5, theta_domain=(0.5, 1.5))
        with pytest.raises(ModelError):
            rs.simulate_path(config, 2.0, rs.SamplingPlan(n=10, h=0.01),
                             rs.SimOptions(seed=0))

    def test_unusual_seeds_are_deterministic(self):
        config = power_model(0.5)
        plan = rs.SamplingPlan(n=20, h=0.01)
        for seed in (0, -5, 2**63 + 11):
            p1 = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=seed))
            p2 = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=seed))
            assert np.array_equal(p1.x, p2.x)

    def test_custom_drift_matches_builtin_kernel(self):
        # identical dynamics expressed as a custom drift go through spec.f;
        # the paths must agree with the built-in power drift
        custom = rs.DriftSpec.custom(
            f=lambda x, th: -th * x,
            df_dtheta=lambda x, th: -x,
            d2f_dtheta2=lambda x, th: 0.0,
            lipschitz_bound=5.0,
        )
        barriers = rs.BarrierConfig.two_sided(0.0, 3.0)
        cfg_custom = rs.ModelConfig(drift=custom, sigma=0.2, barriers=barriers,
                                    theta_domain=(0.1, 6.0), x0=1.0)
        cfg_builtin = rs.ModelConfig(drift=rs.DriftSpec.power(1.0), sigma=0.2,
                                     barriers=barriers, theta_domain=(0.1, 6.0), x0=1.0)
        plan = rs.SamplingPlan(n=200, h=0.01)
        opts = rs.SimOptions(seed=99)
        p_custom = rs.simulate_path(cfg_custom, 2.0, plan, opts)
        p_builtin = rs.simulate_path(cfg_builtin, 2.0, plan, opts)
        np.testing.assert_allclose(p_custom.x, p_builtin.x, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(p_custom.l, p_builtin.l, rtol=1e-12, atol=1e-14)

    def test_projection_endpoint_sits_on_barrier(self):
        # with the projection scheme at one fine step per interval, any
        # interval whose lower regulator grew ends exactly on the barrier
        cfg = power_model(1.0, two_sided=False)
        plan = rs.SamplingPlan(n=2000, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan,
                                rs.SimOptions(scheme=rs.PROJECTION, substeps=1, seed=17))
        dl = np.diff(path.l)
        pushed = dl > 0.0
        assert pushed.sum() > 20
        assert np.all(path.x[1:][pushed] == 0.0)

    def test_projection_scheme_agrees_in_distribution(self):
        # at many substeps the exact-minimum and projection schemes must
        # give the same endpoint mean within Monte Carlo resolution
        config = rs.ModelConfig(
            drift=rs.DriftSpec.power(1.0), sigma=0.5,
            barriers=rs.BarrierConfig.one_sided_lower(0.0),
            theta_domain=(0.1, 6.0), x0=0.3,
        )
        plan = rs.SamplingPlan(n=20, h=0.05)
        reps = 400
        ends = {}
        for scheme in (rs.LEPINGLE, rs.PROJECTION):
            vals = np.empty(reps)
            for i in range(reps):
                opts = rs.SimOptions(scheme=scheme, substeps=64,
                                     seed=rng_mod.derive_seed(555, i))
                vals[i] = rs.simulate_path(config, 2.0, plan, opts).x[-1]
            ends[scheme] = vals
        diff = abs(ends[rs.LEPINGLE].mean() - ends[rs.PROJECTION].mean())
        se = math.sqrt(ends[rs.LEPINGLE].var(ddof=1) / reps
                       + ends[rs.PROJECTION].var(ddof=1) / reps)
        assert diff <= 3.0 * se


class TestTwoFactor:
    def test_barrier_invariants_and_determinism(self):
        plan = rs.SamplingPlan(n=500, h=0.01)
        tf = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                    rs.SimOptions(seed=21))
        tf.validate()
        assert tf.y.x.min() >= -1e-12 and tf.y.x.max() <= 3.0 + 1e-12
        assert tf.rshort.x.min() >= -1e-12
        assert np.all(tf.rshort.r == 0.0)
        tf2 = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                     rs.SimOptions(seed=21))
        assert np.array_equal(tf.y.x, tf2.y.x)
        assert np.array_equal(tf.rshort.x, tf2.rshort.x)
        # the two Brownian drivers are distinct streams
        assert not np.array_equal(np.diff(tf.y.x), np.diff(tf.rshort.x))

    def test_noiseless_pins_at_upper_barrier(self):
        # sigma=0, r0=1 freezes the short rate; the log price grows at rate
        # 1 + theta1 until it hits b, after which the upper regulator
        # absorbs the drift
        plan = rs.SamplingPlan(n=300, h=0.01)
        tf = rs.simulate_two_factor(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 3.0, plan,
                                    rs.SimOptions(seed=5))
        np.testing.assert_allclose(tf.rshort.x, 1.0, rtol=0, atol=1e-14)
        expected_y = np.minimum(1.0 + 2.0 * tf.y.times, 3.0)
        np.testing.assert_allclose(tf.y.x, expected_y, rtol=0, atol=1e-12)
        assert np.all(tf.y.l == 0.0)
        assert np.all(tf.rshort.l == 0.0)
        # once pinned, the regulator grows by the full drift each interval
        du = np.diff(tf.y.r)
        pinned = tf.y.times[1:] > 1.0 + plan.h
        np.testing.assert_allclose(du[pinned], 2.0 * plan.h, rtol=0, atol=1e-12)

    def test_invalid_inputs(self):
        plan = rs.SamplingPlan(n=10, h=0.01)
        with pytest.raises(ModelError):
            rs.simulate_two_factor(5.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                   rs.SimOptions())
        with pytest.raises(ModelError):
            rs.simulate_two_factor(1.0, -0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                   rs.SimOptions())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r0", "theta1", "theta2"])
    def test_non_finite_inputs_rejected_before_drawing(self, name, bad, monkeypatch):
        def refuse(*args):
            raise AssertionError("the path was drawn before its inputs were checked")
        monkeypatch.setattr(rng_mod, "generator", refuse)
        args = dict(y0=1.0, r0=0.5, theta1=1.0, theta2=1.0, sigma=0.1, a=0.0, b=3.0)
        args[name] = bad
        with pytest.raises(ModelError, match=f"^{name} must be finite, got {bad!r}$"):
            rs.simulate_two_factor(**args, plan=rs.SamplingPlan(n=10, h=0.01),
                                   opts=rs.SimOptions())


# ---------------------------------------------------------------------------
# Seed -> path contract: sha256 digests of x, l, r and the hit flags for a
# fixed set of models, pinned so that any change to the stepper's arithmetic
# or draw consumption shows up as a digest mismatch.
# ---------------------------------------------------------------------------

_GOLDEN_PLAN = rs.SamplingPlan(n=80, h=0.01)
_GOLDEN_SUBSTEPS = 5


def _golden_drift(kind):
    if kind == "power_1/2":
        return rs.DriftSpec.power(0.5), 2.0
    if kind == "power_2/3":
        return rs.DriftSpec.power(2.0 / 3.0), 2.0
    if kind == "power_1":
        return rs.DriftSpec.power(1.0), 2.0
    if kind == "mean_reversion":
        return rs.DriftSpec.mean_reversion_to_one(), 1.5
    if kind == "shifted_covariate":
        return rs.DriftSpec.shifted_covariate(-1.0), 0.5
    return rs.DriftSpec.custom(
        f=lambda x, th: th * (1.0 - x) - x ** 3,
        df_dtheta=lambda x, th: 1.0 - x,
        d2f_dtheta2=lambda x, th: 0.0,
        lipschitz_bound=30.0,
    ), 1.5


def _golden_path(kind, two_sided, scheme, seed, plan=_GOLDEN_PLAN,
                 substeps=_GOLDEN_SUBSTEPS):
    drift, theta = _golden_drift(kind)
    barriers = (rs.BarrierConfig.two_sided(0.0, 1.0) if two_sided
                else rs.BarrierConfig.one_sided_lower(0.0))
    config = rs.ModelConfig(drift=drift, sigma=0.8, barriers=barriers,
                            theta_domain=(-20.0, 20.0), x0=0.5)
    return rs.simulate_path(config, theta, plan,
                            rs.SimOptions(scheme=scheme, substeps=substeps, seed=seed))


def _golden_two_factor(scheme, seed):
    return rs.simulate_two_factor(1.0, 0.05, 1.0, 1.0, 0.5, 0.0, 1.5, _GOLDEN_PLAN,
                                  rs.SimOptions(scheme=scheme,
                                                substeps=_GOLDEN_SUBSTEPS, seed=seed))


def _path_digest(*paths):
    digest = hashlib.sha256()
    for p in paths:
        for arr in (p.x, p.l, p.r, p.hit_lower, p.hit_upper):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


_GOLDEN_KINDS = ("power_1/2", "power_2/3", "power_1", "mean_reversion",
                 "shifted_covariate", "custom")
_GOLDEN_CASES = [
    (kind, two_sided, scheme)
    for kind in _GOLDEN_KINDS
    for two_sided in (True, False)
    for scheme in (rs.LEPINGLE, rs.PROJECTION)
]


def _golden_seed(case):
    return 1000 + _GOLDEN_CASES.index(case)


# Recorded on the stepper as it stood before the single-loop rewrite, with
# CPython 3.11, numpy 2.4 and scipy 1.17 on x86-64 Linux; another libm may
# round log, sqrt or pow differently and so change these digests.
_GOLDEN_DIGESTS = {
    ('power_1/2', True, 'lepingle'): '05bb9e68082bb6d0440a7632716c236e8b0b2b2d30fa75f7648a27c48ce2544d',
    ('power_1/2', True, 'projection'): '5942cee6175e9ed42004838b86619eb0b2b23db48a756a3a2b14861d823382c3',
    ('power_1/2', False, 'lepingle'): '6e10d22abc8458995b7d66722e30334a3f1704f446d640fed54703c18d60ef41',
    ('power_1/2', False, 'projection'): '4dca1c7746a0888f35157a9482cc9a9409594302c62a72d635f8e005f5429e9f',
    ('power_2/3', True, 'lepingle'): 'cb052adfc96b46578d9d1490f2971d60741449afe1fe21d30dafcf648994b4ad',
    ('power_2/3', True, 'projection'): 'a1f7685d8a28fa1a41444b54d6e4d9f7023022dfbc411c6e1285a3214748eba5',
    ('power_2/3', False, 'lepingle'): '86c3ac19ffa723a21d4fa663d57ea02cb073898efce3998f2eceae1576589454',
    ('power_2/3', False, 'projection'): '0203f385f0340f2df63b0a1660409886d80f320272f551a30fa4f1f41da56327',
    ('power_1', True, 'lepingle'): '5391df8b439407eb8aa949d3b6d9c676ca92d534cf2c590630ee177fe6b6c1ea',
    ('power_1', True, 'projection'): 'd34a28870936dd5170b80a00574507d54f136a63dddff96833a59c41e90f1e73',
    ('power_1', False, 'lepingle'): '747b5f0977ec258e2bc692f0ada383ea9f08d77b766a03007f00b7a33e5da82a',
    ('power_1', False, 'projection'): '467cc8c207fc01743118f639452d8256efcedb8f070c5c1648ea770d61bfb60a',
    ('mean_reversion', True, 'lepingle'): 'b564f18f4ef9a4f5f8dece2f144f463c5c0b1e188e6c3bc76f4d18600913df1c',
    ('mean_reversion', True, 'projection'): 'b65397b16d1bfab443d251f9d31af602ff26ec43e83e8669792132c13b10a78e',
    ('mean_reversion', False, 'lepingle'): '57f7320a139012e48d0e86630323f3a45e64c3f0ba12173ad964626cd8cf621a',
    ('mean_reversion', False, 'projection'): '682da0399a647f84314d4c7397a8c2ead099c513dd760977423d85acade1f003',
    ('shifted_covariate', True, 'lepingle'): 'f33cd3dc49e5e5c972fbd835a9acfec3a7feefcd104c6c0dd0ccb205b4b294ba',
    ('shifted_covariate', True, 'projection'): 'd8626bf557d47602ccc66d91d7c2c69ebe7e6c2cab177e1490a9c39708edec98',
    ('shifted_covariate', False, 'lepingle'): '82f8c1478437c62d81616a993bca837888ac6a0f439687af0b937eab24d25d77',
    ('shifted_covariate', False, 'projection'): '3f748f480f3e067a5216bbe8015e131144b66e06efab9a7fc34c7173e621cbbc',
    ('custom', True, 'lepingle'): '96d8d0f941af58f882b77add8205400e3001daf7e4d4006e69b96475f68019d3',
    ('custom', True, 'projection'): 'e2e459ff53ac8ccc9eda7300fcf7d131a865425d66ae0a917ebd351c2ebeae59',
    ('custom', False, 'lepingle'): '429cffc0bfe47f48dde4656b8c77d532a0f28e04770682957fe6a5e2324a14ff',
    ('custom', False, 'projection'): 'cbb61206dd695f9402e971a9be990a0c2e431b3836ef9ce53f7b2fa53e246710',
    ('two_factor', 'lepingle'): '9a394945afac7013bfae3fd2a8533cb85b8d6eefb2bc81e3ad8bee4e00595ab0',
    ('two_factor', 'projection'): 'fa698aa763fe409328c7974604510cf9dc1fbd1a5fce72908eb1642f89fe8c53',
}

# The gamma = 1/2 paths above have 400 fine steps, too few to meet an x at
# which glibc's pow(x, 0.5) and the correctly rounded sqrt(x) differ (about
# 0.09% of the states).  These have 20,000, about 17 such states each, but
# an ulp of the drift is mostly lost in the noise and in the state: 4 of
# the 48 paths of seeds 2000-2047 carry it into an observation.  Seed 2020
# is the first from 2000 that does on both barrier kinds with a two-sided
# path that reaches b, so these digests change if the steppers take x**0.5
# by pow.  Lepingle scheme.
_LONG_GOLDEN_PLAN = rs.SamplingPlan(n=2000, h=0.01)
_LONG_GOLDEN_SUBSTEPS = 10
_LONG_GOLDEN_SEED = 2020
_LONG_GOLDEN_DIGESTS = {
    True: 'fb83da1c0c04a6a4c951d22cb5ea2f93e773e8c23c8050395ee6eafead3cea37',
    False: '93f59580da89eeeb5a969ac38dc7cddddb6ecf123f7b487cb35957aab357eb3d',
}


def _long_golden_path(two_sided):
    return _golden_path("power_1/2", two_sided, rs.LEPINGLE, _LONG_GOLDEN_SEED,
                        _LONG_GOLDEN_PLAN, _LONG_GOLDEN_SUBSTEPS)


def _scalar_drift(drift, theta):
    """x -> the drift the steppers take at the state x, on Python floats,
    spelled out from the kernel's formulas."""
    code, p, gamma = simulate._drift_of_state(drift, theta)
    if code == simulate._K_CALLBACK:
        return lambda x: float(p(x, gamma))
    if code == simulate._K_POWER:
        return lambda x: -p * (math.sqrt(x) if gamma == 0.5 else x ** gamma)
    if code == simulate._K_MEAN_REVERSION:
        return lambda x: p * (1.0 - x)
    return lambda x: p


class TestGoldenPaths:
    @pytest.mark.parametrize("case", _GOLDEN_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_path_digest(self, case):
        path = _golden_path(*case, _golden_seed(case))
        assert _path_digest(path) == _GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("scheme", (rs.LEPINGLE, rs.PROJECTION))
    def test_two_factor_digest(self, scheme):
        tf = _golden_two_factor(scheme, 77)
        assert _path_digest(tf.y, tf.rshort) == _GOLDEN_DIGESTS[("two_factor", scheme)]

    # the same digests from the Python stepper, which the compiled kernel
    # mirrors bit for bit
    @pytest.mark.parametrize("case", _GOLDEN_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_path_digest_on_python_stepper(self, case, python_stepper):
        self.test_path_digest(case)

    @pytest.mark.parametrize("scheme", (rs.LEPINGLE, rs.PROJECTION))
    def test_two_factor_digest_on_python_stepper(self, scheme, python_stepper):
        self.test_two_factor_digest(scheme)

    @pytest.mark.parametrize("two_sided", (True, False))
    def test_long_half_power_digest(self, two_sided, backend):
        path = _long_golden_path(two_sided)
        assert _path_digest(path) == _LONG_GOLDEN_DIGESTS[two_sided]

    @pytest.mark.parametrize("kind", _GOLDEN_KINDS)
    @pytest.mark.parametrize("two_sided", (True, False))
    def test_step_helpers_chain_to_simulate_path(self, kind, two_sided):
        # single fine steps through _step, chained over the same draws with
        # the drift frozen at each left endpoint, give simulate_path's bits
        case = (kind, two_sided, rs.LEPINGLE)
        path = _golden_path(*case, _golden_seed(case))
        mu_of = _scalar_drift(*_golden_drift(kind))
        n, m = _GOLDEN_PLAN.n, _GOLDEN_SUBSTEPS
        hf = _GOLDEN_PLAN.h / m
        normals, uniforms = rng_mod.path_draws(_golden_seed(case), n * m)
        z = normals * (0.8 * math.sqrt(hf))
        b = 1.0 if two_sided else math.inf
        x, cl, cr = 0.5, 0.0, 0.0
        xs, ls, rs_ = [x], [cl], [cr]
        for k in range(n):
            for j in range(k * m, (k + 1) * m):
                x, dl, dr = _step(x, mu_of(x), hf, z[j], uniforms[j], 0.0, b,
                                  2.0 * 0.8 * 0.8 * hf)
                cl += dl
                cr += dr
            xs.append(x)
            ls.append(cl)
            rs_.append(cr)
        np.testing.assert_array_equal(path.x, xs)
        np.testing.assert_array_equal(path.l, ls)
        np.testing.assert_array_equal(path.r, rs_)


class TestHalfPowerDrift:
    def test_stepper_drift_is_the_drift_spec_at_every_fine_step(self, backend):
        # the stepper's x**0.5 is the estimator's, DriftSpec.power(0.5).f
        # (numpy's power, which takes it by sqrt), at each fine-step left
        # endpoint of a long path.  One fine step of h = 2**60 without noise
        # or barriers takes each x to mu * 2**60 exactly, since x lies below
        # half its ulp, so the state after it shows the stepper's drift mu
        theta, n, m = 2.0, _LONG_GOLDEN_PLAN.n, _LONG_GOLDEN_SUBSTEPS
        hf, sigma = _LONG_GOLDEN_PLAN.h / m, 0.8
        normals, uniforms = rng_mod.path_draws(_LONG_GOLDEN_SEED, n * m)
        z = normals * (sigma * math.sqrt(hf))
        trace = (np.full(n + 1, 0.5), np.zeros(n + 1), np.zeros(n + 1),
                 np.empty(n, dtype=bool), np.empty(n, dtype=bool))
        fine = np.empty(n * m)
        drift = (simulate._K_POWER, theta, 0.5)
        simulate._integrate(drift, z, uniforms, m, 0.0, 1.0, hf, 2.0 * sigma * sigma * hf,
                            True, trace, fine=fine)(0, n)
        assert trace[0].tobytes() == _long_golden_path(True).x.tobytes()

        big = 2.0 ** 60
        one = (np.zeros(2), np.zeros(2), np.zeros(2), np.empty(1, dtype=bool),
               np.empty(1, dtype=bool))
        noise, u = np.zeros(1), np.ones(1)
        step = simulate._integrate(drift, noise, u, 1, -math.inf, math.inf, big, 0.0, False, one)
        moved = np.empty_like(fine)
        for i, x in enumerate(fine):
            one[0][0] = x
            step(0, 1)
            moved[i] = one[0][1]
        mu = rs.DriftSpec.power(0.5).f(fine, theta)
        assert np.all(fine < np.abs(mu * big) / 2.0 ** 53)
        assert moved.tobytes() == (fine + (mu * big + 0.0)).tobytes()


# ---------------------------------------------------------------------------
# Block boundaries: a path is drawn and integrated in blocks of whole
# observation intervals.  n * m spans three blocks and ends in a partial one.
# ---------------------------------------------------------------------------

_BLOCK_PLAN = rs.SamplingPlan(n=2501, h=0.01)
_BLOCK_SUBSTEPS = 7


def _block_sizes():
    per = simulate._BLOCK_STEPS // _BLOCK_SUBSTEPS
    return [min(per, _BLOCK_PLAN.n - k) for k in range(0, _BLOCK_PLAN.n, per)]


def _whole_path_reference(drift, x0, seed, sigma, a, b, shift=None, fine=None):
    """The path of ``drift`` (as :func:`simulate._drift_of_state` gives it)
    from the draws of the whole path at once, in one call of the Python
    stepper over every observation interval; ``shift`` and ``fine`` hold
    the fine steps of the whole path."""
    n, m = _BLOCK_PLAN.n, _BLOCK_SUBSTEPS
    hf = _BLOCK_PLAN.h / m
    normals, uniforms = rng_mod.path_draws(seed, n * m)
    trace = (np.full(n + 1, x0), np.zeros(n + 1), np.zeros(n + 1), np.empty(n, dtype=bool),
             np.empty(n, dtype=bool))
    if drift[0] == simulate._K_CALLBACK:
        (code, f, param), theta, gamma = drift, 0.0, 0.0
    else:
        (code, theta, gamma), f, param = drift, None, None
    status = simulate._reflect_path(
        code, theta, gamma, shift, normals * (sigma * math.sqrt(hf)), uniforms, 0, n, m,
        a, b, hf, 2.0 * sigma * sigma * hf, True, *trace, fine, f, param, ctypes.c_long())
    assert status == -1
    return [arr.tobytes() for arr in trace]


def _path_bytes(path):
    return [np.ascontiguousarray(arr).tobytes()
            for arr in (path.x, path.l, path.r, path.hit_lower, path.hit_upper)]


class TestBlocks:
    def test_plan_spans_three_blocks_and_a_partial_one(self):
        sizes = _block_sizes()
        assert len(sizes) >= 3
        assert sizes[-1] < sizes[0]

    @pytest.mark.parametrize("kind", _GOLDEN_KINDS)
    def test_single_factor_path_equals_whole_path_reference(self, kind, backend):
        drift, theta = _golden_drift(kind)
        config = rs.ModelConfig(drift=drift, sigma=0.8,
                                barriers=rs.BarrierConfig.two_sided(0.0, 1.0),
                                theta_domain=(-20.0, 20.0), x0=0.5)
        path = rs.simulate_path(config, theta, _BLOCK_PLAN,
                                rs.SimOptions(substeps=_BLOCK_SUBSTEPS, seed=41))
        assert _path_bytes(path) == _whole_path_reference(
            simulate._drift_of_state(drift, theta), 0.5, 41, 0.8, 0.0, 1.0)

    def test_two_factor_path_equals_whole_path_reference(self, backend):
        theta1, theta2, sigma = 1.0, 1.0, 0.5
        opts = rs.SimOptions(substeps=_BLOCK_SUBSTEPS, seed=42)
        tf = rs.simulate_two_factor(1.0, 0.05, theta1, theta2, sigma, 0.0, 1.5,
                                    _BLOCK_PLAN, opts)
        fine = np.empty(_BLOCK_PLAN.n * _BLOCK_SUBSTEPS)
        rshort = _whole_path_reference(
            (simulate._K_MEAN_REVERSION, theta2, 0.0), 0.05, rng_mod.derive_seed(42, 2),
            sigma, 0.0, math.inf, fine=fine)
        y = _whole_path_reference(
            (simulate._K_SHIFTED, theta1, 0.0), 1.0, rng_mod.derive_seed(42, 1), sigma,
            0.0, 1.5, shift=fine)
        assert _path_bytes(tf.rshort) == rshort
        assert _path_bytes(tf.y) == y

    def _custom_path(self, f):
        drift = rs.DriftSpec.custom(f=f, df_dtheta=lambda x, th: 0.0,
                                    d2f_dtheta2=lambda x, th: 0.0, lipschitz_bound=1.0)
        return simulate._simulate(
            [(simulate._drift_of_state(drift, 2.0), 0.5, 43,
              rs.BarrierConfig.one_sided_lower(0.0))],
            0.8, _BLOCK_PLAN, rs.SimOptions(substeps=_BLOCK_SUBSTEPS, seed=43))

    # the 16,480th drift call is fine step 16,479: observation interval 2,354
    # of the third block
    _LATE_CALL = 16_480

    def test_overflowing_drift_in_a_later_block(self, backend):
        assert self._LATE_CALL > _BLOCK_SUBSTEPS * sum(_block_sizes()[:2])
        calls = []

        def f(x, th):
            calls.append(x)
            return math.exp(1e3 * (1.0 + x)) if len(calls) == self._LATE_CALL else th * (1.0 - x)

        with pytest.raises(DataError) as caught:
            self._custom_path(f)
        assert str(caught.value) == ("the drift left the finite range in observation "
                                     "interval 2354: math range error")
        assert len(calls) == self._LATE_CALL

    def test_raising_drift_in_a_later_block_stops_alike(self):
        records = {}
        for name in ("native", "python"):
            calls = records[name] = []

            def f(x, th, calls=calls):
                calls.append(x)
                if len(calls) == self._LATE_CALL:
                    raise ValueError("no drift here")
                return th * (1.0 - x)

            with pytest.MonkeyPatch.context() as mp:
                if name == "python":
                    mp.setattr(_native, "load", lambda: None)
                with pytest.raises(ValueError, match="^no drift here$"):
                    self._custom_path(f)
        assert len(records["native"]) == self._LATE_CALL
        assert records["native"] == records["python"]

    def test_memory_is_flat_in_the_substeps(self):
        # the draws of one block, not of the path: about 6 MB at m = 10
        # and 24 MB at m = 40 when a path was drawn whole
        import tracemalloc

        config = power_model(0.5)
        peaks = []
        for m in (10, 40):
            tracemalloc.start()
            try:
                rs.simulate_path(config, 2.0, rs.SamplingPlan(n=20_000, h=0.01),
                                 rs.SimOptions(substeps=m, seed=5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6, peaks

    def test_two_factor_memory_is_flat_in_the_substeps(self):
        # the log price reads the short rate of one block, not of the path,
        # whose n * m doubles are 0.4 MB at m = 10 and 1.6 MB at m = 40; the
        # bound is one block's draw buffers, 32 bytes a fine step (the Python
        # stepper keeps a row of floats per observation interval of a block,
        # 0.16 MB more at m = 10 than at m = 40)
        import tracemalloc

        peaks = []
        for m in (10, 40):
            tracemalloc.start()
            try:
                rs.simulate_two_factor(1.0, 0.05, 1.0, 1.0, 0.5, 0.0, 1.5,
                                       rs.SamplingPlan(n=5_000, h=0.01),
                                       rs.SimOptions(substeps=m, seed=5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 32 * simulate._BLOCK_STEPS, peaks


class TestSamplePathArrays:
    @staticmethod
    def _path(x=(0.5, 0.0, 0.0, 0.0), **hits):
        # three intervals, in each of which the lower regulator rises
        return rs.SamplePath(h=0.1, x=x, l=[0.0, 0.1, 0.2, 0.3], r=np.zeros(4),
                             barriers=rs.BarrierConfig.one_sided_lower(0.0), **hits)

    def test_read_only_view_of_a_writable_array_is_copied(self):
        base = np.array([0.5, 0.0, 0.0, 0.0])
        view = base[:]
        view.setflags(write=False)
        path = self._path(x=view)
        base[0] = 9.0
        assert path.x[0] == 0.5
        assert not path.x.flags.writeable

    def test_read_only_arrays_that_own_their_memory_are_kept(self):
        x = np.array([0.5, 0.0, 0.0, 0.0])
        hits = np.ones(3, dtype=bool)
        for arr in (x, hits):
            arr.setflags(write=False)
        path = self._path(x=x, hit_lower=hits)
        assert path.x is x and path.hit_lower is hits

    def test_simulated_arrays_are_not_copied(self, monkeypatch):
        kept = []

        def spy(arr, dtype=float):
            out = model._frozen(arr, dtype)
            kept.append(out is arr)
            return out

        monkeypatch.setattr(simulate, "_frozen", spy)
        rs.simulate_path(power_model(0.5), 2.0, rs.SamplingPlan(n=50, h=0.01),
                         rs.SimOptions(seed=1))
        assert kept == [True] * 5

    def test_increments_are_taken_once_and_read_only(self):
        model_ = rs.ModelConfig(drift=rs.DriftSpec.power(1.0), sigma=1.0,
                                barriers=rs.BarrierConfig.two_sided(0.0, 1.0),
                                theta_domain=(0.01, 10.0), x0=0.5)
        path = rs.simulate_path(model_, 1.0, rs.SamplingPlan(n=200, h=0.01),
                                rs.SimOptions(seed=4))
        steps = path.increments
        assert path.l[-1] > 0.0 and path.r[-1] > 0.0
        for arr, step in zip((path.x, path.l, path.r), steps):
            assert step.tobytes() == np.diff(arr).tobytes()
            assert not step.flags.writeable
        assert all(again is step for again, step in zip(path.increments, steps))

    def test_csv_paths_own_their_arrays(self, backend):
        # the rows the compiled reader returns are a slice of a larger
        # buffer: the path keeps copies of its columns, not views into it
        plan, opts = rs.SamplingPlan(n=50, h=0.01), rs.SimOptions(seed=6)
        for two_sided in (True, False):
            config = power_model(0.5, two_sided=two_sided)
            buf = io.StringIO()
            rs.write_path_csv(rs.simulate_path(config, 2.0, plan, opts), buf)
            path = rs.read_path_csv(io.StringIO(buf.getvalue()), config.barriers)
            for arr in (path.times, path.x, path.l, path.r, *path.increments):
                assert arr.base is None and arr.flags.owndata
                assert not arr.flags.writeable

    @pytest.mark.parametrize("name", ("hit_lower", "hit_upper"))
    @pytest.mark.parametrize("flags", ([True], [True, True]), ids=("one", "two"))
    def test_hit_flags_of_another_length_rejected(self, name, flags):
        # one flag used to broadcast and pass validate(); two made it raise
        # numpy's broadcast ValueError
        with pytest.raises(DataError, match="one flag per observation interval"):
            self._path(**{name: flags})

    @pytest.mark.parametrize("name", ("x", "l", "r"))
    @pytest.mark.parametrize("shape", ((), (4, 1), (1, 4)), ids=("0-d", "column", "row"))
    def test_arrays_that_are_not_one_dimensional_rejected(self, name, shape, backend):
        # a 0-d x raised a bare TypeError, and a column passed on both
        # steppers, with increments of shape (n,) on one and (n + 1, 0) on
        # the other, where the closed form and the CSV writer then raised
        arrays = {"x": [0.5, 0.0, 0.0, 0.0], "l": [0.0, 0.1, 0.2, 0.3], "r": np.zeros(4)}
        values = np.asarray(arrays[name], dtype=float)
        arrays[name] = values[0] if shape == () else values.reshape(shape)
        with pytest.raises(DataError) as raised:
            rs.SamplePath(h=0.1, barriers=rs.BarrierConfig.one_sided_lower(0.0), **arrays)
        assert str(raised.value) == f"path {name} must be one-dimensional, got shape {shape}"


class TestObservationTimes:
    """A path's times are ``t0 + k h``, so its time grid and its step
    cannot disagree."""

    def test_times_have_the_bytes_of_the_stored_grid(self, backend):
        # paths stored np.arange(n + 1) * h, and their CSVs read back the same
        plan, opts = rs.SamplingPlan(n=2_000, h=0.01), rs.SimOptions(seed=8)
        expected = (np.arange(plan.n + 1) * plan.h).tobytes()
        tf = rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan, opts)
        for path in (rs.simulate_path(power_model(0.5), 2.0, plan, opts),
                     rs.simulate_path(power_model(0.5, two_sided=False), 2.0, plan, opts),
                     tf.y, tf.rshort):
            buf = io.StringIO()
            rs.write_path_csv(path, buf)
            loaded = rs.read_path_csv(io.StringIO(buf.getvalue()), path.barriers)
            for p in (path, loaded):
                assert p.t0 == 0.0 and p.times.tobytes() == expected
                assert not p.times.flags.writeable

    def test_no_grid_but_t0_and_h(self):
        # h=0.01 with times [0, 1, 2] validated, and its CSV read back h = 1
        with pytest.raises(TypeError):
            rs.SamplePath(**_CHECKED_PATH, times=[0.0, 1.0, 2.0])
        path = rs.SamplePath(**{**_CHECKED_PATH, "h": 0.01}, t0=3.0)
        buf = io.StringIO()
        rs.write_path_csv(path, buf)
        loaded = rs.read_path_csv(io.StringIO(buf.getvalue()), path.barriers)
        assert loaded.t0 == 3.0 and abs(loaded.h - 0.01) <= 1e-9 * 0.01

    @pytest.mark.parametrize("t0", (math.nan, math.inf, -math.inf), ids=repr)
    def test_non_finite_start_rejected(self, t0):
        # a NaN time validated, and made a CSV that the reader refused
        with pytest.raises(DataError, match="the start time t0 must be finite"):
            rs.SamplePath(**_CHECKED_PATH, t0=t0)

    def test_another_tools_grid_is_written_back_as_t0_plus_k_h(self, backend):
        # 0.3 - 0.2 is 0.1 less 2.8e-17: regular to the reader's 1e-9 h,
        # but not 0.1 + 2 * 0.1 bit for bit
        path = rs.read_path_csv(io.StringIO("t,x,l\n0.1,1,0\n0.2,1,0\n0.3,1,0\n"),
                                rs.BarrierConfig.one_sided_lower(0.0))
        assert (path.t0, path.h) == (0.1, 0.2 - 0.1)
        buf = io.StringIO()
        rs.write_path_csv(path, buf)
        assert [row.split(",")[0] for row in buf.getvalue().splitlines()[1:]] == [
            "0.10000000000000001", "0.20000000000000001", "0.30000000000000004"]
        again = rs.read_path_csv(io.StringIO(buf.getvalue()), path.barriers)
        assert again.times.tobytes() == path.times.tobytes()


class TestNonFinitePaths:
    @pytest.mark.parametrize("name", ("x", "l", "r"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_values_rejected(self, name, bad):
        # NaN compares False with every barrier, so containment alone
        # lets it through
        arrays = {"x": [0.5, 0.5, 0.5], "l": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0]}
        arrays[name][1] = bad
        with pytest.raises(DataError, match="non-finite"):
            rs.SamplePath(h=0.1, barriers=rs.BarrierConfig.two_sided(0.0, 1.0), **arrays)

    @pytest.mark.parametrize("f, x0, message", (
        # theta*x**3 from x0 = 5 blows up to an infinite state
        (lambda x, th: th * x ** 3, 5.0, "non-finite"),
        # Python floats raise where numpy scalars returned inf
        (lambda x, th: th * x ** 500, 5.0, "finite range"),
        (lambda x, th: th / x, 0.0, "finite range"),
    ), ids=("cubic", "overflow", "zero-division"))
    def test_exploding_drift_raises_data_error(self, f, x0, message):
        # simulation never evaluates the theta-derivatives
        drift = rs.DriftSpec.custom(f=f, df_dtheta=lambda x, th: 0.0,
                                    d2f_dtheta2=lambda x, th: 0.0, lipschitz_bound=1.0)
        config = rs.ModelConfig(drift=drift, sigma=0.2,
                                barriers=rs.BarrierConfig.one_sided_lower(0.0),
                                theta_domain=(0.1, 100.0), x0=x0)
        with pytest.raises(DataError, match=message):
            rs.simulate_path(config, 50.0, rs.SamplingPlan(n=50, h=0.1),
                             rs.SimOptions(substeps=2, seed=0))

    def test_complex_drift_raises_data_error(self):
        # (x - 0.5)**0.5 turns complex once the state drops below 0.5
        drift = rs.DriftSpec.custom(
            f=lambda x, th: -th * (x - 0.5) ** 0.5,
            df_dtheta=lambda x, th: -((x - 0.5) ** 0.5),
            d2f_dtheta2=lambda x, th: 0.0,
            lipschitz_bound=1.0,
        )
        config = rs.ModelConfig(drift=drift, sigma=0.3,
                                barriers=rs.BarrierConfig.one_sided_lower(0.0),
                                theta_domain=(0.1, 5.0), x0=1.0)
        with pytest.raises(DataError, match="not a real number"):
            rs.simulate_path(config, 3.0, rs.SamplingPlan(n=200, h=0.01),
                             rs.SimOptions(seed=1))


class TestObservationStep:
    @pytest.mark.parametrize("h", (-0.01, 0.0, math.nan, math.inf))
    def test_step_that_is_not_positive_and_finite_is_refused(self, h, backend):
        # h = -0.01 let nlse_optimize return a pinned estimate, and h = 0
        # failed in the search with "objective is not finite"
        config = rs.ModelConfig(drift=rs.DriftSpec.mean_reversion_to_one(), sigma=0.5,
                                barriers=rs.BarrierConfig.two_sided(0.0, 2.0),
                                theta_domain=(0.01, 10.0), x0=1.0)
        path = rs.simulate_path(config, 2.0, rs.SamplingPlan(n=50, h=0.01),
                                rs.SimOptions(seed=3))
        x = np.array(path.x)
        x[3] = math.nan
        # refused before the checks of the path, which the NaN would fail
        for changes in ({"h": h}, {"h": h, "x": x}):
            with pytest.raises(DataError, match="h must be positive and finite"):
                replace(path, **changes)


# a valid hand-built path on [0, 1] whose lower regulator rises in the first
# interval and upper one in the second, each under a set flag, and the one
# change to it that breaks each check of validate(), with the message
_CHECKED_PATH = {"h": 0.1, "x": [0.5, 0.0, 1.0],
                 "l": [0.0, 0.1, 0.1], "r": [0.0, 0.0, 0.2],
                 "barriers": rs.BarrierConfig.two_sided(0.0, 1.0),
                 "hit_lower": [True, False], "hit_upper": [False, True]}
_BROKEN_PATHS = {
    "negative-h": ({"h": -0.01}, "the observation step h must be positive and finite, got -0.01"),
    "inf-l": ({"l": [0.0, math.inf, math.inf]}, "path l holds non-finite values"),
    "below-a": ({"x": [0.5, -0.5, 1.0]}, "state drops below the lower barrier 0.0"),
    "above-b": ({"x": [0.5, 0.0, 5.0]}, "state exceeds the upper barrier 1.0"),
    "l-start": ({"l": [0.1, 0.2, 0.2]}, "regulator l must start at 0"),
    "l-decreases": ({"l": [0.0, 0.1, 0.05]}, "regulator l must be non-decreasing"),
    "r-decreases": ({"r": [0.0, 0.2, 0.1], "hit_upper": [True, True]},
                    "regulator r must be non-decreasing"),
    "r-one-sided": ({"barriers": rs.BarrierConfig.one_sided_lower(0.0)},
                    "one-sided paths cannot carry an upper regulator"),
    "l-unflagged": ({"hit_lower": [False, False]},
                    "lower regulator increased without touching the barrier"),
    "r-unflagged": ({"hit_upper": [False, False]},
                    "upper regulator increased without touching the barrier"),
}

# one element of _CHECKED_PATH changed after it is built, and the message
# of the check that the change breaks
_CHANGED_AFTER_BUILD = {
    "l-decreases": ("l", 2, 0.05, "regulator l must be non-decreasing"),
    "r-decreases": ("r", 1, 0.3, "regulator r must be non-decreasing"),
    "l-unflagged": ("l", 2, 0.2, "lower regulator increased without touching the barrier"),
    "above-b": ("x", 2, 5.0, "state exceeds the upper barrier 1.0"),
}


class TestCheckedWhenBuilt:
    """Every SamplePath runs validate() as it is built, by hand, by
    dataclasses.replace, by the simulators or by the CSV readers, so no
    estimator sees a path that breaks its invariants."""

    @pytest.mark.parametrize("case", _BROKEN_PATHS)
    def test_building_or_replacing_a_broken_path_raises(self, case, backend):
        changes, message = _BROKEN_PATHS[case]
        valid = rs.SamplePath(**_CHECKED_PATH)
        for build in (lambda: rs.SamplePath(**{**_CHECKED_PATH, **changes}),
                      lambda: replace(valid, **changes)):
            with pytest.raises(DataError) as raised:
                build()
            assert str(raised.value) == message

    def test_estimators_never_see_a_broken_path(self, backend):
        # each returned an estimate from the path unchecked: a pinned
        # 0.01000001 for h = -0.01, 9.99999999 for a state above b and a
        # pinned 0.01 from the closed form for a decreasing l
        config = rs.ModelConfig(drift=rs.DriftSpec.mean_reversion_to_one(), sigma=0.5,
                                barriers=rs.BarrierConfig.two_sided(0.0, 2.0),
                                theta_domain=(0.01, 10.0), x0=1.0)
        path = rs.simulate_path(config, 2.0, rs.SamplingPlan(n=50, h=0.01),
                                rs.SimOptions(seed=3))
        x, l = np.array(path.x), np.array(path.l)
        x[3], l[-1] = 5.0, -1.0
        spec, domain = config.drift, config.theta_domain
        with pytest.raises(DataError, match="h must be positive and finite"):
            rs.nlse_optimize(replace(path, h=-0.01), spec, domain)
        with pytest.raises(DataError, match="state exceeds the upper barrier"):
            rs.nlse_optimize(replace(path, x=x), spec, domain)
        with pytest.raises(DataError, match="regulator l must be non-decreasing"):
            rs.estimate_power_closed_form(replace(path, l=l), 1.0, domain)

    def test_each_path_is_checked_once_as_it_is_built(self, monkeypatch):
        # the producers call validate() no more: each SamplePath makes its
        # checks once, in _check, and neither validate() is called
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled library")
        plan, opts = rs.SamplingPlan(n=50, h=0.01), rs.SimOptions(seed=2)
        one = io.StringIO()
        rs.write_path_csv(rs.simulate_path(power_model(0.5), 2.0, plan, opts), one)
        checks, validated = [], []
        check = lib.check_path
        monkeypatch.setattr(lib, "check_path", lambda *args: checks.append(1) or check(*args))

        def spy(cls, name):
            method = getattr(cls, name)

            def counted(self):
                validated.append(f"{cls.__name__}.{name}")
                return method(self)

            monkeypatch.setattr(cls, name, counted)

        spy(rs.SamplePath, "_check")
        spy(rs.SamplePath, "validate")
        spy(rs.TwoFactorPath, "validate")
        for produce, count in (
                (lambda: rs.simulate_path(power_model(0.5), 2.0, plan, opts), 1),
                (lambda: rs.read_path_csv(io.StringIO(one.getvalue()),
                                          rs.BarrierConfig.two_sided(0.0, 3.0)), 1),
                (lambda: rs.simulate_two_factor(1.0, 0.5, 1.0, 1.0, 0.1, 0.0, 3.0, plan,
                                                opts), 2)):
            checks.clear()
            validated.clear()
            produce()
            assert (len(checks), validated) == (count, ["SamplePath._check"] * count)

    @pytest.mark.parametrize("case", _CHANGED_AFTER_BUILD)
    def test_another_validate_checks_the_arrays_it_is_given(self, case, backend):
        # it checked the regulators against the increments taken when the
        # path was built, so the first three passed
        name, index, value, message = _CHANGED_AFTER_BUILD[case]
        path = rs.SamplePath(**_CHECKED_PATH)
        path.validate()
        arr = getattr(path, name)
        arr.setflags(write=True)
        arr[index] = value
        with pytest.raises(DataError) as raised:
            path.validate()
        assert str(raised.value) == message

    def test_another_validate_keeps_the_increments(self, backend):
        # the compiled contrast closure holds raw addresses into them
        path = rs.simulate_path(power_model(0.5), 2.0, rs.SamplingPlan(n=50, h=0.01),
                                rs.SimOptions(seed=5))
        steps = path.increments
        arrays = tuple(steps)
        path.validate()
        assert path.increments is steps
        assert all(again is arr for again, arr in zip(path.increments, arrays))
        # nor does a validate() that fails
        for name, index, value, _ in _CHANGED_AFTER_BUILD.values():
            path = rs.SamplePath(**_CHECKED_PATH)
            steps = path.increments
            arrays, values = tuple(steps), [step.tobytes() for step in steps]
            changed = getattr(path, name)
            changed.setflags(write=True)
            changed[index] = value
            with pytest.raises(DataError):
                path.validate()
            assert path.increments is steps
            assert all(again is arr for again, arr in zip(path.increments, arrays))
            assert [step.tobytes() for step in path.increments] == values


# header, row builder and reader for each CSV format
_CSV_FORMATS = {
    "path": ("t,x,l\n", "{:g},1,0\n".format,
             lambda src: rs.read_path_csv(src, rs.BarrierConfig.one_sided_lower(0.0))),
}

# each case builds the text from a format's header and row builder and
# names the expected error
_MALFORMED_CSV = {
    "bad_header": lambda header, row: ("a,b,c\n" + row(0.0) + row(0.01), "header"),
    "ragged_row": lambda header, row: (
        header + row(0.0) + row(0.01).rsplit(",", 1)[0] + "\n", "malformed"),
    "non_numeric_cell": lambda header, row: (
        header + row(0.0) + row(0.01).replace(",1,", ",abc,", 1), "malformed"),
    "too_few_rows": lambda header, row: (header + row(0.0), "rows"),
    "header_only": lambda header, row: (header, "rows"),
    "blank_body": lambda header, row: (header + "\n\n", "rows"),
    "irregular_times": lambda header, row: (
        header + row(0.0) + row(0.01) + row(0.05), "regularly spaced"),
}


class TestCsvRoundTrip:
    def test_two_sided_round_trip_exact(self):
        config = power_model(0.5)
        path = rs.simulate_path(config, 2.0, rs.SamplingPlan(n=50, h=0.01),
                                rs.SimOptions(seed=8))
        buf = io.StringIO()
        rs.write_path_csv(path, buf)
        buf.seek(0)
        assert buf.readline().strip() == "t,x,l,r"
        buf.seek(0)
        loaded = rs.read_path_csv(buf, config.barriers)
        assert np.array_equal(loaded.x, path.x)
        assert np.array_equal(loaded.l, path.l)
        assert np.array_equal(loaded.r, path.r)
        assert loaded.h == path.h

    def test_one_sided_round_trip(self):
        config = power_model(0.5, two_sided=False)
        path = rs.simulate_path(config, 2.0, rs.SamplingPlan(n=50, h=0.01),
                                rs.SimOptions(seed=8))
        buf = io.StringIO()
        rs.write_path_csv(path, buf)
        buf.seek(0)
        assert buf.readline().strip() == "t,x,l"
        buf.seek(0)
        loaded = rs.read_path_csv(buf, config.barriers)
        assert np.array_equal(loaded.x, path.x)
        assert np.all(loaded.r == 0.0)

    @pytest.mark.parametrize("fmt", sorted(_CSV_FORMATS))
    def test_well_formed_text_reads(self, fmt):
        header, row, read = _CSV_FORMATS[fmt]
        assert read(io.StringIO(header + row(0.0) + row(0.01) + row(0.02))).n == 2

    @pytest.mark.parametrize("fmt", sorted(_CSV_FORMATS))
    @pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
    def test_malformed_csv_rejected(self, case, fmt):
        header, row, read = _CSV_FORMATS[fmt]
        text, message = _MALFORMED_CSV[case](header, row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                read(io.StringIO(text))

    def test_data_outside_barriers_rejected(self):
        text = "t,x,l\n0,1,0\n0.01,-0.5,0\n"
        with pytest.raises(DataError):
            rs.read_path_csv(io.StringIO(text), rs.BarrierConfig.one_sided_lower(0.0))

    def test_decreasing_regulator_rejected(self):
        text = "t,x,l\n0,1,0.0\n0.01,1,0.5\n0.02,1,0.2\n"
        with pytest.raises(DataError):
            rs.read_path_csv(io.StringIO(text), rs.BarrierConfig.one_sided_lower(0.0))


@pytest.mark.usefixtures("python_stepper")
class TestCsvRoundTripOnLoadtxt(TestCsvRoundTrip):
    """Every CSV test again without the compiled library, so every text is
    read by ``np.loadtxt``."""


class TestTimeGrid:
    """``simulate._regular``, the spacing check of ``_read_csv``, accepts
    exactly what ``np.allclose(steps, h, rtol=1e-9, atol=0.0)`` accepts,
    NaN and infinite steps among them."""

    @staticmethod
    def _outcomes(steps, h):
        """What ``_regular`` and ``np.allclose`` give, or the warning each
        raises: both overflow alike where step - h does."""
        outcomes = []
        for check in (lambda: simulate._regular(steps.copy(), h),
                      lambda: np.allclose(steps, h, rtol=1e-9, atol=0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    outcomes.append(bool(check()))
                except RuntimeWarning as warning:
                    outcomes.append(str(warning))
        return outcomes

    @given(
        h=st.floats(min_value=0.0, exclude_min=True),
        steps=st.lists(st.one_of(
            st.floats(-3e-9, 3e-9).map(lambda d: ("rel", d)),
            st.floats().map(lambda v: ("abs", v))), max_size=6),
    )
    @settings(max_examples=500, deadline=None)
    def test_accepts_what_allclose_accepts(self, h, steps):
        arr = np.array([h] + [h * (1.0 + v) if how == "rel" else v for how, v in steps])
        regular, allclose = self._outcomes(arr, h)
        assert regular == allclose

    @pytest.mark.parametrize("h, steps", (
        (0.01, [0.01 * (1 + 1e-9)]), (0.01, [0.01 * (1 - 1e-9)]),
        (0.01, [0.01 * (1 + 2e-9)]), (0.01, [math.nan]), (0.01, [math.inf]),
        (0.01, [-math.inf]), (math.inf, [math.inf]), (math.inf, [1.0]),
        (math.inf, [math.nan]), (5e-324, [5e-324]), (5e-324, [1e-323]),
        (1e308, [1.7976931348623157e308]), (1e308, [-1e308]),
    ))
    def test_edges(self, h, steps):
        regular, allclose = self._outcomes(np.array([h, *steps]), h)
        assert regular == allclose


def _loadtxt(lines):
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def _field_texts():
    """Numbers spelled as the compiled reader's grammar allows: ``.17g``
    and short ``%g`` forms of any finite double (subnormals and -0 among
    them), and hand-built signs, mantissas and exponents."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    sign = st.sampled_from(("", "-", "+"))
    digits = st.text("0123456789", max_size=25)
    mantissa = st.tuples(digits, st.sampled_from((".", "")), digits).filter(
        lambda parts: parts[0] or parts[2]).map("".join)
    exponent = st.one_of(st.just(""), st.tuples(
        st.sampled_from("eE"), sign, st.text("0123456789", min_size=1, max_size=4)).map("".join))
    built = st.tuples(sign, mantissa, exponent).map("".join)
    return st.one_of(finite.map("{:.17g}".format), finite.map("{:g}".format),
                     finite.map(repr), built)


class TestCompiledCsvReader:
    """``simulate._read_rows``, the compiled reader behind ``_read_csv``."""

    @pytest.fixture(autouse=True)
    def _needs_library(self):
        if _native.load() is None:
            pytest.skip("no compiled library")

    @given(ncol=st.integers(1, 6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepted_text_reads_as_loadtxt(self, ncol, data):
        rows = data.draw(st.lists(st.lists(_field_texts(), min_size=ncol, max_size=ncol),
                                  min_size=1, max_size=5))
        lines = [",".join(row) + "\n" for row in rows]
        fast = simulate._read_rows("".join(lines), ncol)
        if fast is not None:
            assert fast.tobytes() == _loadtxt(lines).tobytes()

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=3, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_written_rows_are_accepted(self, values):
        # what write_csv writes never goes to np.loadtxt, except a subnormal
        # (strtod reports ERANGE), which np.loadtxt reads to the same bits
        buf = io.StringIO()
        simulate.write_csv(buf, "a,b,c", values, values[::-1], np.negative(values))
        lines = buf.getvalue().splitlines(keepends=True)[1:]
        fast = simulate._read_rows("".join(lines), 3)
        if all(v == 0.0 or abs(v) >= sys.float_info.min for v in values):
            assert fast is not None
        if fast is not None:
            assert fast.tobytes() == _loadtxt(lines).tobytes()

    def test_extreme_values(self):
        lines = ["-0,0.5,5.,.5,+7,1E-3\n",
                 "1.7976931348623157e308,2.2250738585072014e-308,-1e-307,"
                 "9007199254740993,0.1000000000000000055511151231257827,123456789e-20\n"]
        fast = simulate._read_rows("".join(lines), 6)
        assert fast is not None
        assert fast.tobytes() == _loadtxt(lines).tobytes()
        assert math.copysign(1.0, fast[0, 0]) == -1.0

    @pytest.mark.parametrize("lines", (
        ["0,1\n", "# comment\n", "1,2\n"],
        ["0,1\n", "\n", "1,2\n"],
        ["0,1\r\n", "1,2\r\n"],
        ["0, 1\n", "1,2\n"],
        ["0,1\n", "1,2"],
        ["0,nan\n", "1,2\n"],
        ["0,inf\n", "1,2\n"],
        ["0,1e999\n", "1,2\n"],
        ["0,4.9e-324\n", "1,2\n"],
        ["0,1\n", "1,\u0662\n"],
        ["0,1,2\n", "1,2\n"],
        ["0,1\n", "1\n"],
        ["0,.\n"], ["0,-\n"], ["0,1e\n"], ["0,1e+\n"], ["0,0x10\n"], ["0,1_0\n"],
    ), ids=repr)
    def test_hands_back_all_else(self, lines):
        assert simulate._read_rows("".join(lines), 2) is None

    def test_rows_are_bounded_by_newlines(self):
        # the reader writes at most one row per "\n", so a last line that
        # no "\n" ends hands the text back; this replaces the case of a
        # list element holding two rows, since the reader takes one text
        assert simulate._read_rows("0,1\n1,2", 2) is None
        assert simulate._read_rows("0,1\n1,2\n", 2).tolist() == [[0.0, 1.0], [1.0, 2.0]]

    def test_decimal_comma_locale_hands_back(self):
        # under a locale whose decimal point is ',' strtod ends "0.5" early;
        # the Eisel-Lemire path reads such a field whatever the locale, so a
        # text either reads as np.loadtxt or is handed back, and a field of
        # 20 significant digits, which goes to strtod, is handed back
        code = (
            "import locale, sys\n"
            "import numpy as np\n"
            "from reflectsde import simulate\n"
            "for name in ('de_DE.UTF-8', 'de_DE.utf8', 'fr_FR.UTF-8', 'fr_FR.utf8'):\n"
            "    try:\n"
            "        locale.setlocale(locale.LC_NUMERIC, name)\n"
            "        break\n"
            "    except locale.Error:\n"
            "        pass\n"
            "else:\n"
            "    sys.exit(3)\n"
            "lines = ['0,0.5\\n', '1,2\\n']\n"
            "fast = simulate._read_rows(''.join(lines), 2)\n"
            "expected = np.loadtxt(lines, delimiter=',', ndmin=2)\n"
            "print(fast is None or fast.tobytes() == expected.tobytes())\n"
            "print(simulate._read_rows('0,0.12345678901234567891\\n', 2))\n"
        )
        src = str(Path(rs.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        if done.returncode == 3:
            pytest.skip("no locale with a decimal comma installed")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True\nNone\n"


def _outcome_of_reading(text, src=None):
    """The arrays read from ``text`` (or from ``src``, a file name or handle
    holding it), or the exception raised."""
    try:
        path = rs.read_path_csv(io.StringIO(text) if src is None else src,
                                rs.BarrierConfig.one_sided_lower(0.0))
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [arr.tobytes() for arr in (path.times, path.x, path.l, path.r)] + [path.h]


class TestCsvHandBack:
    """Text the compiled reader gives back reads, or fails, exactly as it
    does on ``np.loadtxt`` alone."""

    _TEXTS = (
        "t,x,l\n# a comment\n0,1,0\n0.01,1,0\n",
        "t,x,l\n0,1,0 # trailing\n0.01,1,0\n",
        "t,x,l\n0,1,0\n\n0.01,1,0\n\n",
        "t,x,l\r\n0,1,0\r\n0.01,1,0\r\n",
        "t,x,l\n0, 1,0\n0.01,1 ,0\n",
        "t,x,l\n0,1,0\n0.01,1,0",
        "t,x,l\n0,nan,0\n0.01,1,0\n",
        "t,x,l\n0,inf,0\n0.01,1,0\n",
        "t,x,l\n0,1e999,0\n0.01,1,0\n",
        "t,x,l\n0,1,0\n0.01,1,\u0662\n",
        "t,x,l\n0,1,0\n0.01,\u00e9,0\n",
        "t,x,l\n# only a comment\n",
        "t,x,l\n0,1\n0.01,1\n",
        "t,x,l\n0,1,0,5\n0.01,1,0\n",
    )

    @pytest.mark.parametrize("text", _TEXTS, ids=repr)
    def test_same_as_loadtxt(self, text):
        compiled = _outcome_of_reading(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            assert _outcome_of_reading(text) == compiled

    # str.splitlines would also split at \x0c, \x1c and \u2028, which end no
    # line of a file opened in text mode
    @pytest.mark.parametrize("text", _TEXTS + (
        "t,x,l\n# a\x0cb\x1cc\u2028d\n0,1,0\n0.01,1,0\n",
        "t,x,l\n0,1,0\x0c\n0.01,1,0\n",
        "t,x,l\r0,1,0\r0.01,1,0\r",
        "t,x,l\n0,1,0\r\n0.01,1,0\r",
    ), ids=repr)
    @pytest.mark.parametrize("backend", ("compiled", "loadtxt"))
    def test_file_by_name_reads_as_its_handle(self, text, backend, tmp_path):
        # a file given by name is read whole; an open handle line by line
        src = tmp_path / "path.csv"
        src.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            if backend == "loadtxt":
                mp.setattr(_native, "load", lambda: None)
            with open(src, encoding="utf-8") as fh:
                expected = _outcome_of_reading(text, fh)
            assert _outcome_of_reading(text, src) == expected
            assert _outcome_of_reading(text, str(src)) == expected

    def test_written_path_skips_loadtxt(self, monkeypatch):
        if _native.load() is None:
            pytest.skip("no compiled library")
        path = _golden_csv_path(two_sided=True)
        buf = io.StringIO()
        rs.write_path_csv(path, buf)
        buf.seek(0)

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called")

        monkeypatch.setattr(np, "loadtxt", refuse)
        loaded = rs.read_path_csv(buf, path.barriers)
        assert loaded.x.tobytes() == path.x.tobytes()
        assert loaded.r.tobytes() == path.r.tobytes()


def _golden_csv_path(two_sided):
    return rs.simulate_path(power_model(0.5, two_sided=two_sided), 2.0,
                            rs.SamplingPlan(n=50, h=0.01), rs.SimOptions(seed=8))


# sha256 of the file bytes, recorded on the per-format writers as they stood
# before the formats shared one writer.
_GOLDEN_CSV_DIGESTS = {
    "two_sided": "4f27d0cd0290d96e33ffb2216246027ed9bc39639666276d4816ef21c751015f",
    "one_sided": "d22842c3ef2acd624eeaf1c8c0dbc8f760956fae29d19098714138d5baca5836",
}


class TestGoldenCsv:
    @pytest.mark.parametrize("kind", ("two_sided", "one_sided"))
    def test_path_csv_bytes(self, kind, tmp_path):
        out = tmp_path / "path.csv"
        rs.write_path_csv(_golden_csv_path(kind == "two_sided"), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_CSV_DIGESTS[kind]

    # the same bytes from the Python expression alone
    @pytest.mark.parametrize("kind", ("two_sided", "one_sided"))
    def test_path_csv_bytes_on_python_writer(self, kind, tmp_path, python_stepper):
        self.test_path_csv_bytes(kind, tmp_path)


def _formatted(header, *columns):
    """What the Python expression of ``write_csv`` writes, the reference."""
    line = ",".join(["{:.17g}"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return header + "\n" + "".join(line.format(*row) for row in rows)


def _written(header, *columns):
    buf = io.StringIO()
    simulate.write_csv(buf, header, *columns)
    return buf.getvalue()


def _written_on_both(header, *columns):
    """The text ``write_csv`` writes with the compiled ``write_rows`` (None
    without the library) and on the Python expression alone."""
    native = None if _native.load() is None else _written(header, *columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        python = _written(header, *columns)
    return native, python


def _ties():
    """Doubles halfway between two 17-digit decimals: j / 2^(s + 1) for odd
    j with j 5^s in [2e16, 2e17), so that 10^s v is an odd multiple of 1/2
    between 10^16 and 10^17."""
    ties = []
    for s in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**s), min(2 * 10**17 // 5**s, 2**53)
        for j in np.linspace(lo, hi - 1, 9).astype(np.int64).tolist():
            j |= 1
            if j < hi:
                ties.append(math.ldexp(j, -(s + 1)))
    return ties


def _neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


class TestCsvWriter:
    """``write_csv`` writes the bytes of its Python expression, ``{:.17g}``
    a value, whether the compiled ``write_rows`` formats a block of rows or
    hands it back."""

    @given(values=st.lists(st.floats() | st.floats(1e-16, 1e17) | st.floats(-1e17, -1e-16),
                           min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_double_on_both_backends(self, values):
        expected = _formatted("a,b", values, values[::-1])
        native, python = _written_on_both("a,b", values, values[::-1])
        assert python == expected
        assert native in (None, expected)

    @pytest.mark.parametrize("values", (
        [0.0, -0.0],
        _neighbours(1e-16),
        _neighbours(1e17),
        [float(f"1e{k}") * sign for k in range(-20, 21) for sign in (1, -1)],
        [math.ldexp(1.0, k) * sign for k in range(-60, 61) for sign in (1, -1)],
        [*_ties(), 2251799813685247.75, 0.5, 2.5, -0.125],
        [k * 0.01 for k in range(2001)],
        [9.9999999999999995e-5, 0.0001, 9.999999999999999e-5, 1e-5, 123456789012345680.0],
    ), ids=("zeros", "1e-16", "1e17", "powers_of_10", "powers_of_2", "ties", "times", "edges"))
    def test_edges_on_both_backends(self, values):
        native, python = _written_on_both("v,w", values, np.negative(values))
        assert python == _formatted("v,w", values, np.negative(values))
        assert native in (None, python)

    def test_ties_and_range_ends_are_formatted_in_c(self):
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled library")
        col = np.array([*_ties(), 0.0, -0.0, np.nextafter(1e-16, 1.0), np.nextafter(1e17, 0.0)])
        out = np.empty(len(col) * simulate._FIELD_BYTES, dtype=np.uint8)
        size = lib.write_rows(np.array([col.ctypes.data], dtype=np.uintp).ctypes.data, 1,
                              len(col), out.ctypes.data, len(out))
        assert out[:size].tobytes().decode() == _formatted("v", col).partition("\n")[2]
        assert _written("v", [2251799813685247.75]) == "v\n2251799813685247.8\n"
        # the longest fields fit the bytes a field that write_csv reserves
        longest = [-1.2345678901234567e-16, -0.00012345678901234567]
        assert max(map(len, _written(",", longest, longest).splitlines()[1:])) == (
            2 * simulate._FIELD_BYTES - 1)

    @pytest.mark.parametrize("value", (math.nan, -math.inf, math.inf, 5e-324, 2.0**-1070,
                                       1e-16, -1e17, 1e300))
    def test_block_with_one_handed_back_value(self, value, monkeypatch):
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled library")
        sizes, write_rows = [], lib.write_rows

        def spy(*args):
            sizes.append(write_rows(*args))
            return sizes[-1]

        values = np.linspace(0.5, 3.0, 11)
        values[6] = value
        monkeypatch.setattr(simulate, "_WRITE_ROWS", 4)
        monkeypatch.setattr(lib, "write_rows", spy)
        assert _written("x,y", values, values * 2) == _formatted("x,y", values, values * 2)
        # rows 4 to 7 go to the Python expression, the others to write_rows
        assert [size < 0 for size in sizes] == [False, True, False]

    @pytest.mark.parametrize("columns", (
        # the int64 n and rep of estimates.csv, beside a failed estimate
        (np.repeat([200, 2000], 3), np.tile(np.arange(3), 2),
         np.array([1.9, 2.1, math.nan, 2.0, 1.99, 2.01])),
        # summary.csv, whose columns are tuples
        ((200, 2000), (0.1, math.nan), (7, 8)),
        ([2**53 - 1, -(2**53 - 1)], [True, False]),
        # from 2**53 on, an integer formats as int.__format__ rounds it
        (np.array([2**53 + 1, 0], dtype=np.int64), np.array([2**64 - 1, 1], dtype=np.uint64)),
    ), ids=("estimates", "summary", "exact_ints", "large_ints"))
    def test_integer_columns_of_mc(self, columns):
        native, python = _written_on_both("h", *columns)
        assert python == _formatted("h", *columns)
        assert native in (None, python)

    def test_other_columns_take_the_python_expression(self):
        # a 2-d or string column fails, and a complex one formats, as before
        for columns in (([[1.0, 2.0]],), ([1 + 2j],), (["1.5"],)):
            try:
                expected = _formatted("h", *columns)
            except (TypeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    _written("h", *columns)
            else:
                assert _written("h", *columns) == expected
        assert _written("h") == "h\n"
        assert _written("a,b", [], []) == "a,b\n"

    @pytest.mark.parametrize("on_python", (False, True))
    def test_unequal_columns_refused(self, on_python, monkeypatch, tmp_path):
        if on_python:
            monkeypatch.setattr(_native, "load", lambda: None)
        with pytest.raises(ValueError, match="columns differ in length: 3, 2"):
            _written("a,b", [1.0, 2.0, 3.0], [4.0, 5.0])
        out = tmp_path / "kept.csv"
        out.write_text("kept\n")
        with pytest.raises(ValueError, match="differ in length"):
            simulate.write_csv(out, "a,b", [1.0], [])
        assert out.read_text() == "kept\n"

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.floats(1e-16, 1e17), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_through_read_rows(self, values):
        if _native.load() is None:
            pytest.skip("no compiled library")
        text = _written("a,b", values, values[::-1]).partition("\n")[2]
        data = simulate._read_rows(text, 2)
        # read_rows hands a subnormal (ERANGE from strtod) to np.loadtxt
        if data is None:
            data = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        assert data.tobytes() == np.array([values, values[::-1]]).T.tobytes()


class TestOptionsValidation:
    def test_bad_substeps(self):
        with pytest.raises(ModelError):
            rs.SimOptions(substeps=0)

    @pytest.mark.parametrize("seed", (1.5, -0.25, float("nan"), float("inf"), "1", None))
    def test_non_integral_seed_rejected(self, seed):
        with pytest.raises(ModelError, match="seed must be an integer"):
            rs.SimOptions(seed=seed)

    @pytest.mark.parametrize("seed, same_as", ((2.0, 2), (-1, 2**64 - 1), (2**64, 0),
                                               (2**64 + 7, 7), (np.int64(-3), 2**64 - 3)))
    def test_integer_seeds_are_taken_modulo_2_64(self, seed, same_as):
        config = power_model(0.5)
        plan = rs.SamplingPlan(n=20, h=0.01)
        a = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=seed))
        b = rs.simulate_path(config, 2.0, plan, rs.SimOptions(seed=same_as))
        assert a.x.tobytes() == b.x.tobytes()

    def test_bad_scheme(self):
        with pytest.raises(ModelError):
            rs.SimOptions(scheme="euler")


class TestStoredForms:
    """Counts are stored as ints and the step as a float, the forms both
    steppers compute with, so an input in another numeric form gives the
    path of its int or float twin."""

    # n=200.0 and substeps=10.0 raised a bare TypeError in simulate_path, and
    # a float32 h made the Python stepper compute in float32
    @pytest.mark.parametrize("given, twin", (
        ({"n": 200.0}, {"n": 200}),
        ({"substeps": 10.0}, {"substeps": 10}),
        ({"seed": 5.0}, {"seed": 5}),
        ({"h": np.float32(0.01)}, {"h": float(np.float32(0.01))}),
        ({"n": np.int64(200), "substeps": np.int32(10), "h": np.float64(0.01)}, {}),
    ), ids=("n", "substeps", "seed", "h", "numpy"))
    def test_path_of_the_int_or_float_twin(self, given, twin, backend):
        def simulate(fields):
            fields = {"n": 200, "h": 0.01, "substeps": 10, "seed": 5, **fields}
            plan = rs.SamplingPlan(n=fields["n"], h=fields["h"])
            opts = rs.SimOptions(substeps=fields["substeps"], seed=fields["seed"])
            assert (type(plan.n), type(plan.h)) == (int, float)
            assert (type(opts.substeps), type(opts.seed)) == (int, int)
            return rs.simulate_path(power_model(0.5), 2.0, plan, opts)

        path, expected = simulate(given), simulate(twin)
        assert type(path.h) is float and path.h == expected.h
        assert path.times.tobytes() == expected.times.tobytes()
        assert _path_bytes(path) == _path_bytes(expected)

    @pytest.mark.parametrize("h", (np.float32(0.1), np.float64(0.1), 1), ids=repr)
    def test_sample_path_step_is_a_float(self, h):
        path = rs.SamplePath(**{**_CHECKED_PATH, "h": h})
        assert type(path.h) is float and path.h == float(h)
        assert type(replace(path, h=h).h) is float
