"""Least-squares drift estimation from discretely observed reflected paths.

The contrast is the average squared discretized drift residual

    (1/(n h^2)) * sum_k | dX_k - f(X_k, theta) h - dL_k + dR_k |^2,

whose minimizer over the parameter domain is the estimator.  The
increments dX, dL and dR are the path's own (``SamplePath.increments``),
taken once per path, and one residual pass, :func:`_contrast_value`,
evaluates the contrast for every estimator.  Where the drift is linear in
theta, f = f0 + theta g, the minimizer is one least-squares slope, and
one fit, :func:`_linear_fit`, serves every closed form: the power drift
and both equations of the two-factor system.  Otherwise a golden-section
search on the compactified domain is used.
Asymptotic standard errors come from
sqrt(nh) * (theta_hat - theta0) -> N(0, sigma^2 / information).
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _native, stationary
from ._special import ndtri
from .errors import DataError, ModelError
from .model import (
    MEAN_REVERSION_TO_ONE,
    POWER,
    SHIFTED_COVARIATE,
    DriftSpec,
    ModelConfig,
    SamplingPlan,
    _require_finite,
    _require_finite_width,
    eval_on_array,
)
from .simulate import (
    _K_CONSTANT,
    _K_MEAN_REVERSION,
    SamplePath,
    TwoFactorPath,
    _address,
)

CLOSED_FORM = "closed_form"
GOLDEN_SECTION = "golden_section"

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_DOMAIN_SHRINK = 1e-9
_BRACKET_REL_TOL = 1e-10


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with optimizer diagnostics and, when attached,
    asymptotic standard error and confidence interval."""

    theta_hat: float
    method: str
    contrast_at_min: float
    iterations: int
    boundary_hit: bool = False
    stderr: float | None = None
    ci: tuple[float, float] | None = None
    level: float | None = None


def _contrast_value(f: np.ndarray, increments: tuple[np.ndarray, np.ndarray, np.ndarray],
                    h: float, res: np.ndarray) -> float:
    """The contrast of the drift values ``f`` on the left endpoints of n
    intervals with increments (dx, dl, dr): the residuals ((dx - f h) - dl)
    + dr go into ``res``, which may be ``f`` itself, and
    np.dot(res, res) / (n h^2) is returned.  ``contrast_residuals`` in
    ``_stepper.c`` is the compiled twin of these residuals."""
    dx, dl, dr = increments
    np.multiply(f, h, out=res)
    np.subtract(dx, res, out=res)
    np.subtract(res, dl, out=res)
    np.add(res, dr, out=res)
    return float(np.dot(res, res) / (len(dx) * h * h))


def _numpy_contrast_of(path: SamplePath, spec: DriftSpec) -> Callable[[float], float]:
    """theta -> the contrast of ``path`` by :func:`_contrast_value`, whose
    residuals go into one buffer of the closure at each call, never into
    the drift's values (a custom drift may return an array it keeps)."""
    increments, left, h = path.increments, path.x[:-1], path.h
    res = np.empty(path.n)

    def at(theta: float) -> float:
        f = eval_on_array(lambda v: spec.f(v, theta), left, "the drift")
        return _contrast_value(f, increments, h, res)

    return at


def _contrast_of(path: SamplePath, spec: DriftSpec) -> Callable[[float], float]:
    """theta -> the contrast of ``path`` for a search, which evaluates it
    many times: for a mean-reversion or shifted-covariate drift, the
    residuals of :func:`_numpy_contrast_of`, bit for bit, in one call of the
    compiled ``contrast_residuals``, whose arguments are fixed here, and
    np.dot sums their squares.  A power or custom drift, and any drift
    without the compiled library, takes :func:`_numpy_contrast_of`."""
    if spec.kind not in (MEAN_REVERSION_TO_ONE, SHIFTED_COVARIATE):
        return _numpy_contrast_of(path, spec)
    lib = _native.load()
    if lib is None:
        return _numpy_contrast_of(path, spec)
    dx, dl, dr = path.increments
    left, h, n = path.x[:-1], path.h, path.n
    scale = n * h * h
    res = np.empty(n)
    if spec.kind == MEAN_REVERSION_TO_ONE:
        code, c = _K_MEAN_REVERSION, 0.0
    else:
        code, c = _K_CONSTANT, spec.covariate
    fixed = _native.Contrast(_address(res), dx.ctypes.data, dl.ctypes.data, dr.ctypes.data,
                             left.ctypes.data, n, code, h, c)
    # the struct holds bare addresses into the path's x and increments, so
    # it keeps the path, and the reference to it keeps the struct, as long
    # as the closure lives
    fixed.path = path
    residuals, args = lib.contrast_residuals, ctypes.byref(fixed)

    def at(theta: float) -> float:
        residuals(args, theta)
        return float(np.dot(res, res) / scale)

    return at


def contrast(path: SamplePath, spec: DriftSpec, theta: float) -> float:
    """Average squared drift residual; the upper-regulator term vanishes
    automatically on one-sided paths.  One evaluation takes the numpy
    expression: fixing the arguments of the compiled pass would cost it
    more than the pass saves."""
    if not math.isfinite(theta):
        raise ModelError(f"theta must be finite, got {theta!r}")
    return _numpy_contrast_of(path, spec)(theta)


def _linear_fit(factor: SamplePath, g: np.ndarray | None, f0: np.ndarray | None,
                degenerate: str | None, theta_domain: tuple[float, float] | None = None
                ) -> EstimateResult:
    """The closed-form estimate for a drift f0 + theta g, linear in theta, on
    the left endpoints of ``factor``: the least-squares slope
    dot(g, y) / (sum(g^2) h) of y = ((dx - f0 h) - dl) + dr, or
    sum(y) / (n h) where g is None (g = 1).  f0 None is f0 = 0, and then
    y = (dx - dl) + dr.  A vanishing sum(g^2) raises DataError with the
    message ``degenerate``.  When a domain is given the estimate is clamped
    to it and flagged if it lands on the boundary; the domain must satisfy
    lo < hi, as for :func:`nlse_optimize`."""
    dx, dl, dr = factor.increments
    h = factor.h
    y = ((dx if f0 is None else dx - f0 * h) - dl) + dr
    if g is None:
        theta = float(np.sum(y)) / (factor.n * h)
    else:
        denom = float(np.sum(g * g)) * h
        if not denom > 0.0:
            raise DataError(degenerate)
        theta = float(np.dot(g, y)) / denom
    boundary = False
    if theta_domain is not None:
        lo, hi = theta_domain
        if not lo < hi:
            raise ModelError("theta domain must satisfy lo < hi")
        clamped = min(max(theta, lo), hi)
        boundary = clamped != theta
        theta = clamped
    if not math.isfinite(theta):
        raise ModelError(f"theta must be finite, got {theta!r}")
    f = np.full(factor.n, theta) if g is None else theta * g
    if f0 is not None:
        np.add(f0, f, out=f)
    return EstimateResult(
        theta_hat=theta,
        method=CLOSED_FORM,
        contrast_at_min=_contrast_value(f, factor.increments, h, f),
        iterations=0,
        boundary_hit=boundary,
    )


@dataclass(frozen=True)
class ScalarMinimum:
    x: float
    fx: float
    iterations: int
    boundary_hit: bool


def minimize_unimodal(fn: Callable[[float], float], lo: float, hi: float) -> ScalarMinimum:
    """Golden-section search on [lo, hi] followed by one parabolic
    refinement step.

    The search shrinks the bracket to ``1e-10 * (hi - lo)``.  A flat
    objective yields the bracket midpoint; a minimum pinned against either
    end of the interval sets ``boundary_hit``.
    """
    if not lo < hi:
        raise ModelError("minimize_unimodal needs lo < hi")
    span = hi - lo
    tol = _BRACKET_REL_TOL * span
    a, b = lo, hi
    c = a + _INV_PHI2 * span
    d = a + _INV_PHI * span
    yc = fn(c)
    yd = fn(d)
    _check_objective(yc, c)
    _check_objective(yd, d)
    iterations = 0
    ties = 0
    while b - a > tol:
        if yc == yd:
            ties += 1
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * (b - a)
            yc = fn(c)
            _check_objective(yc, c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = fn(d)
            _check_objective(yd, d)
        iterations += 1
    if iterations > 0 and ties == iterations:
        # objective flat to machine precision everywhere it was probed
        xm = 0.5 * (lo + hi)
        return ScalarMinimum(x=xm, fx=fn(xm), iterations=iterations,
                             boundary_hit=False)

    xm = 0.5 * (a + b)
    ym = fn(xm)
    # One parabolic step through widely spaced points.  Near the minimum the
    # objective is flat to machine precision over a region wider than the
    # final bracket, so the fit must reach outside it; for an exactly
    # quadratic objective the vertex is then recovered to full precision.
    # The candidate is kept only when it does not worsen the objective.
    delta = max(1e-4 * span, 10.0 * tol)
    x1 = max(lo, xm - delta)
    x2 = min(hi, xm + delta)
    if x1 < xm < x2:
        y1, y2 = fn(x1), fn(x2)
        den = (xm - x1) * (ym - y2) - (xm - x2) * (ym - y1)
        if den != 0.0 and math.isfinite(den):
            x_par = xm - 0.5 * (
                (xm - x1) ** 2 * (ym - y2) - (xm - x2) ** 2 * (ym - y1)
            ) / den
            if lo <= x_par <= hi and math.isfinite(x_par):
                y_par = fn(x_par)
                if math.isfinite(y_par) and y_par <= ym + 8.0 * sys.float_info.epsilon * max(
                    1.0, abs(ym)
                ):
                    xm, ym = x_par, min(y_par, ym)
    boundary = xm - lo <= 2.0 * tol or hi - xm <= 2.0 * tol
    return ScalarMinimum(x=xm, fx=ym, iterations=iterations, boundary_hit=boundary)


def _check_objective(value: float, at: float) -> None:
    if not math.isfinite(value):
        raise DataError(f"objective is not finite at theta={at!r}")


def nlse_optimize(
    path: SamplePath, spec: DriftSpec, theta_domain: tuple[float, float]
) -> EstimateResult:
    """Minimize the contrast over the compactified parameter domain by
    golden-section search.  For drifts linear in theta the result matches
    the closed form to optimizer precision."""
    lo, hi = theta_domain
    if not lo < hi:
        raise ModelError("theta domain must satisfy lo < hi")
    _require_finite_width(lo, hi)
    eps = _DOMAIN_SHRINK * (hi - lo)
    found = minimize_unimodal(_contrast_of(path, spec), lo + eps, hi - eps)
    return EstimateResult(
        theta_hat=found.x,
        method=GOLDEN_SECTION,
        contrast_at_min=found.fx,
        iterations=found.iterations,
        boundary_hit=found.boundary_hit,
    )


def estimate_power_closed_form(
    path: SamplePath,
    gamma: float,
    theta_domain: tuple[float, float] | None = None,
) -> EstimateResult:
    """Closed-form power-drift estimate packaged with diagnostics: the
    drift -theta x**gamma is theta g with g = -x**gamma, fitted by
    :func:`_linear_fit`, which clamps to ``theta_domain`` when one is
    given."""
    if not 0.0 < gamma <= 1.0:
        raise ModelError("gamma must lie in (0, 1]")
    return _linear_fit(path, -(path.x[:-1] ** gamma), None,
                       "degenerate path: sum of x**(2*gamma) vanishes", theta_domain)


def asymptotic_stderr(theta_hat: float, config: ModelConfig, plan: SamplingPlan) -> float:
    """Standard error sqrt(sigma^2 / (n h * information(theta_hat)))."""
    info = stationary.information(config, theta_hat)
    return math.sqrt(config.sigma**2 / (plan.n * plan.h * info))


def confidence_interval(
    theta_hat: float, stderr: float, level: float = 0.95
) -> tuple[float, float]:
    """Two-sided normal confidence interval around the estimate.  A stderr of
    0 gives a point and +inf the whole line; NaN or a negative stderr is
    refused."""
    if not 0.0 < level < 1.0:
        raise ModelError(f"level must lie in (0, 1), got {level!r}")
    if not stderr >= 0.0:
        raise ModelError(f"stderr must be >= 0, got {stderr!r}")
    z = float(ndtri(0.5 * (1.0 + level)))
    return theta_hat - z * stderr, theta_hat + z * stderr


def _point_estimate(path: SamplePath, config: ModelConfig) -> EstimateResult:
    """The estimator a model gets, here and in ``run_mc``: the closed form
    for the power drift, golden-section search on the contrast otherwise."""
    if config.drift.kind == POWER:
        return estimate_power_closed_form(path, config.drift.gamma, config.theta_domain)
    return nlse_optimize(path, config.drift, config.theta_domain)


def estimate_nlse(
    path: SamplePath,
    config: ModelConfig,
    plan: SamplingPlan,
    level: float = 0.95,
) -> EstimateResult:
    """End-to-end estimate: closed form for the power drift (golden-section
    otherwise), with asymptotic standard error and confidence interval.
    ``plan``, which the standard error reads, must have the path's n and h
    (to 1e-9 relative, the spacing tolerance of the CSV reader)."""
    if plan.n != path.n or abs(plan.h - path.h) > 1e-9 * path.h:
        raise ModelError(f"the plan (n={plan.n}, h={plan.h}) does not match the path "
                         f"(n={path.n}, h={path.h})")
    result = _point_estimate(path, config)
    se = asymptotic_stderr(result.theta_hat, config, plan)
    return replace(result, stderr=se, ci=confidence_interval(result.theta_hat, se, level),
                   level=level)


def estimate_two_factor(tf: TwoFactorPath, sigma: float) -> tuple[EstimateResult, EstimateResult]:
    """Closed-form least-squares estimates for the two-factor system.

    The log-price equation gives
    theta1_hat = (1/(n h)) * sum(dY - R h - dL1 + dU1); the short-rate
    equation gives
    theta2_hat = sum((1-R)(dR - dL2)) / (sum((1-R)^2) h).

    Standard errors use information constants 1 (log price) and the path
    average of (1-R)^2 (short rate), the ergodic plug-in for its stationary
    expectation.  The confidence intervals are at level 0.95.
    """
    if sigma < 0.0:
        raise ModelError("sigma must be >= 0")
    _require_finite(sigma=sigma)
    r_left = tf.rshort.x[:-1]
    one_minus_r = 1.0 - r_left
    # the drifts r + theta1 and theta2 (1 - r); the short rate's dr is zero
    fits = (_linear_fit(tf.y, None, r_left, None),
            _linear_fit(tf.rshort, one_minus_r, None,
                        "degenerate short-rate path: sum of (1-R)^2 vanishes"))
    results = []
    for fit, info in zip(fits, (1.0, float(np.mean(one_minus_r**2)))):
        se = math.sqrt(sigma**2 / (tf.n * tf.h * info)) if info > 0 else math.inf
        results.append(replace(fit, stderr=se, ci=confidence_interval(fit.theta_hat, se),
                               level=0.95))
    return tuple(results)
