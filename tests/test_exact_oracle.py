"""An exact oracle for the whole simulate -> estimate chain.

The shifted covariate f = c + theta does not depend on the state, so every
fine step adds (c + theta0) h/m + sigma sqrt(h/m) z plus its regulator
pushes, and the pushes enter dl and dr exactly as they enter dx.  Over each
observation interval dx - dl + dr = (c + theta0) h + sigma sqrt(h/m) sum(z),
whatever the barriers do, and the least-squares estimate is, in real
arithmetic,

    theta_hat = theta0 + sigma sqrt(h/m) sum(z) / (n h),

with z the path's own draws, ``rng.path_draws(seed, n m)``.  Its error is
sigma W_T / T on every path: the stderr sigma / sqrt(nh) is exact rather
than asymptotic, and the level-alpha interval covers with probability
exactly alpha at any n and h.  A sign or bookkeeping slip in either
regulator, in either stepper, in the path's increments or in the contrast
breaks the identity, where a golden digest could only say that a path
changed.

The two-factor theta1 is not exact in this way: its drift r + theta1 reads
the short rate at every fine step, and the estimator reads it only at the
observation times.  Its closed form, like the power drift's and theta2's, is
checked against an exact rational evaluation of the same slope instead.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import reflectsde as rs
from reflectsde import estimate, rng

SIGMA = 0.5
DOMAIN = (-10.0, 10.0)

# (barriers, x0, c, theta0): a drift c + theta0 of -2 pushes the state into
# the lower barrier, one of +2 into the upper
_CASES = {
    "one_sided_lower": (rs.BarrierConfig.one_sided_lower(0.0), 0.05, 0.5, -2.5),
    "two_sided_lower": (rs.BarrierConfig.two_sided(0.0, 1.0), 0.05, 0.5, -2.5),
    "two_sided_upper": (rs.BarrierConfig.two_sided(0.0, 1.0), 0.95, -0.5, 2.5),
}


def _model(case):
    barriers, x0, c, theta0 = _CASES[case]
    return rs.ModelConfig(drift=rs.DriftSpec.shifted_covariate(c), sigma=SIGMA,
                          barriers=barriers, theta_domain=DOMAIN, x0=x0), theta0


def _oracle(seed, theta0, n, m, h):
    z, _ = rng.path_draws(seed, n * m)
    return theta0 + SIGMA * math.sqrt(h / m) * math.fsum(z) / (n * h)


class TestIdentity:
    @pytest.mark.parametrize("scheme", (rs.LEPINGLE, rs.PROJECTION))
    @pytest.mark.parametrize("case", tuple(_CASES))
    def test_every_estimate_is_the_oracle(self, case, scheme, backend):
        cfg, theta0 = _model(case)
        c = cfg.drift.covariate
        busy = "r" if case.endswith("upper") else "l"
        bound = 1e-12 * max(1.0, abs(theta0))
        bracket = estimate._BRACKET_REL_TOL * (DOMAIN[1] - DOMAIN[0])
        h = 0.01
        for m in (1, 10):
            for n in (50, 200, 2000):
                plan = rs.SamplingPlan(n=n, h=h)
                for seed in (n + m, n + m + 1):
                    path = rs.simulate_path(cfg, theta0, plan,
                                            rs.SimOptions(scheme=scheme, substeps=m, seed=seed))
                    pushed = getattr(path, busy)[-1]
                    assert pushed > (n * h if n == 2000 else 0.0)
                    exact = _oracle(seed, theta0, n, m, h)
                    dx, dl, dr = path.increments
                    closed = math.fsum(dx - dl + dr) / (n * h) - c
                    assert abs(closed - exact) <= bound
                    fit = estimate._linear_fit(path, None, np.full(n, c), None)
                    assert abs(fit.theta_hat - exact) <= bound
                    found = rs.nlse_optimize(path, cfg.drift, DOMAIN)
                    assert abs(found.theta_hat - exact) <= bracket


# the coverage run: N paths at n = 50, h = 0.01 (nh = 0.5) and a level-0.9
# interval
COVERAGE_PATHS, LEVEL = 400, 0.9


@pytest.fixture(scope="module")
def coverage_run():
    """theta0 and, per path, the estimate, its stderr, its interval and its
    exact oracle."""
    cfg, theta0 = _model("two_sided_lower")
    plan = rs.SamplingPlan(n=50, h=0.01)
    rows = []
    for i in range(COVERAGE_PATHS):
        seed = rng.derive_seed(2026, i)
        path = rs.simulate_path(cfg, theta0, plan, rs.SimOptions(seed=seed))
        res = rs.estimate_nlse(path, cfg, plan, level=LEVEL)
        rows.append((res.theta_hat, res.stderr, *res.ci, _oracle(seed, theta0, 50, 10, 0.01)))
    return theta0, np.array(rows)


class TestExactLaw:
    def test_estimates_and_stderr_are_exact(self, coverage_run):
        _, rows = coverage_run
        bracket = estimate._BRACKET_REL_TOL * (DOMAIN[1] - DOMAIN[0])
        assert np.max(np.abs(rows[:, 0] - rows[:, 4])) <= bracket
        assert rows[:, 1] == pytest.approx(np.full(COVERAGE_PATHS, SIGMA / math.sqrt(0.5)),
                                           rel=1e-14)

    def test_interval_misses_are_binomial(self, coverage_run):
        # the miss count is Binomial(N, 1 - level) exactly; the two tails
        # beyond the bounds hold at most 2e-6 of the law
        theta0, rows = coverage_run
        misses = int(np.sum((rows[:, 2] > theta0) | (rows[:, 3] < theta0)))
        law = stats.binom(COVERAGE_PATHS, 1.0 - LEVEL)
        assert law.ppf(1e-6) <= misses <= law.isf(1e-6)

    def test_standardised_errors_are_standard_normal(self, coverage_run):
        # at nh = 0.5 no asymptotic argument applies, but the identity does
        theta0, rows = coverage_run
        z = (rows[:, 0] - theta0) / rows[:, 1]
        assert stats.kstest(z, "norm").pvalue > 1e-4


def _fraction_slope(g, y, h):
    """sum(g y) / (sum(g^2) h) in exact rational arithmetic."""
    g = [Fraction(v) for v in g]
    return (sum(a * Fraction(b) for a, b in zip(g, y))
            / (sum(a * a for a in g) * Fraction(h)))


class TestExactSlopes:
    """Each closed form against the exact rational slope of the increments
    it reads: only the rounding of its sums separates them."""

    @pytest.mark.parametrize("two_sided", (True, False), ids=("two_sided", "one_sided"))
    def test_power_gamma_one(self, two_sided):
        barriers = (rs.BarrierConfig.two_sided(0.0, 3.0) if two_sided
                    else rs.BarrierConfig.one_sided_lower(0.0))
        cfg = rs.ModelConfig(drift=rs.DriftSpec.power(1.0), sigma=0.2, barriers=barriers,
                             theta_domain=(0.01, 10.0), x0=0.1)
        for n, seed in ((200, 1), (2000, 2)):
            path = rs.simulate_path(cfg, 2.0, rs.SamplingPlan(n=n, h=0.01),
                                    rs.SimOptions(seed=seed))
            assert path.l[-1] > 0.0
            dx, dl, dr = path.increments
            y = [Fraction(a) - Fraction(b) + Fraction(c) for a, b, c in zip(dx, dl, dr)]
            exact = _fraction_slope(-path.x[:-1], y, path.h)
            theta = rs.estimate_power_closed_form(path, 1.0).theta_hat
            assert abs(Fraction(theta) - exact) <= Fraction(1e-12) * abs(exact)

    def test_two_factor(self):
        plan = rs.SamplingPlan(n=200, h=0.01)
        for seed in range(3):
            tf = rs.simulate_two_factor(1.0, 0.01, -0.05, 0.2, 0.1, 0.95, 1.05, plan,
                                        rs.SimOptions(seed=seed))
            r1, r2 = rs.estimate_two_factor(tf, 0.1)
            h, r_left = Fraction(tf.h), [Fraction(v) for v in tf.rshort.x[:-1]]
            dy, dl1, du1 = tf.y.increments
            theta1 = sum(Fraction(a) - r * h - Fraction(b) + Fraction(c)
                         for a, r, b, c in zip(dy, r_left, dl1, du1)) / (tf.n * h)
            drs, dl2, dr2 = tf.rshort.increments
            y2 = [Fraction(a) - Fraction(b) + Fraction(c) for a, b, c in zip(drs, dl2, dr2)]
            theta2 = _fraction_slope(1.0 - tf.rshort.x[:-1], y2, tf.h)
            for closed, exact in ((r1.theta_hat, theta1), (r2.theta_hat, theta2)):
                assert abs(Fraction(closed) - exact) <= Fraction(1e-12) * abs(exact)
