"""Stationary (invariant) density, the scale density, and the
information integral behind the estimator's asymptotic variance.

The invariant density on the barrier interval is the Kolmogorov stationary
solution

    pi(x) proportional to exp( (2 / sigma^2) * integral_a^x f(y, theta) dy ),

normalized by composite Simpson quadrature.  For a mean-reverting drift this
puts the mass where the drift pushes the state, which is what long-run
simulated histograms show.  The scale density carries the opposite sign in
the exponent, so pi is proportional to 1/scale.

The quadrature starts at 4,096 Simpson panels and doubles them, up to at
most 262,144, until the normalizer changes by at most 1e-10 relative.  The
log-density is shifted by one constant, its maximum on the first grid, at
every level, so successive normalizers are comparable even when the peak
lies between nodes.  Each doubling keeps the old nodes, so for the built-in
drifts (analytic primitive) only the new midpoints are evaluated; a custom
drift's cumulative-Simpson primitive is recomputed on the whole grid, by
a numpy port of ``scipy.integrate.cumulative_simpson`` with its bits.
Only the custom branch of ``scale_density`` uses ``scipy.integrate``
(adaptive ``quad``), and it imports it when first called.  A grid
returned at the cap before meeting the tolerance raises a RuntimeWarning
naming the last relative change and the node count.

For one-sided models the support is truncated at a point where the
remaining tail mass is below 1e-10 of the total; a drift that fails to push
the state down is reported as non-integrable.

The information integral E[(df/dtheta)^2] has a closed form for the
built-in drifts at theta > 0, because their stationary laws are known on
[a, b]: x**(gamma+1) follows a gamma law for the power drift, x a normal law
centred on 1 for mean reversion, and the shifted covariate's sensitivity is
the constant 1.  The quadrature grid is built, or a supplied one used, only
for custom drifts, theta <= 0 and the cases where the closed form would
cancel or underflow (a mass of the law on [a, b] below 1e-290, or a
difference that keeps less than 1e-4 of its terms).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _special
from .errors import ModelError
from .model import (
    CUSTOM,
    MEAN_REVERSION_TO_ONE,
    POWER,
    SHIFTED_COVARIATE,
    DriftSpec,
    ModelConfig,
    _frozen,
    _require_finite,
    eval_on_array,
)

_START_INTERVALS = 4096
_REFINE_REL_TOL = 1e-10
_TAIL_MASS = 1e-10
_MAX_REFINES = 6
_MAX_SUPPORT_DOUBLINGS = 40
# the closed-form information gives way to the quadrature below these: a
# mass near the subnormal range, or a difference of two terms that keeps
# less than this fraction of the larger one (about 13 bits lost)
_MIN_MASS = 1e-290
_MIN_KEPT = 1e-4


@dataclass(frozen=True)
class DensityGrid:
    """Normalized density values on a uniform quadrature grid.

    ``weights`` are composite Simpson weights summing to (hi - lo);
    ``values`` integrate to 1 against them.  The three arrays are read-only:
    read-only float arrays that own their memory are kept as they are, and
    anything else is copied on construction.
    """

    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nodes", "weights", "values"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def integrate(self, gvals: np.ndarray | None = None) -> float:
        """Quadrature of g against the density (g = 1 when omitted)."""
        if gvals is None:
            return float(np.dot(self.weights, self.values))
        return float(np.dot(self.weights, self.values * np.asarray(gvals)))


def _simpson_weights(lo: float, hi: float, intervals: int) -> tuple[np.ndarray, np.ndarray]:
    # linspace's own operations, on an array that owns its memory
    nodes = np.arange(intervals + 1) * ((hi - lo) / intervals) + lo
    nodes[-1] = hi
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / intervals / 3.0
    return nodes, w


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` for 1-D
    ``y`` and strictly increasing ``x`` of at least three nodes, with
    scipy's operations in its order, so bit for bit.  Each spacing's
    integral comes from the parabola through three nodes (Cartwright's
    unequal-interval formula: rounding, and the last node that
    ``_simpson_weights`` snaps to ``hi``, make a grid's spacings differ),
    taken forward for the even spacings and backward for the odd ones and
    the last."""

    def first_spacing(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
        # the integral over the first spacing of each run of three nodes
        x21, x32 = dx[:-1], dx[1:]
        x31 = x21 + x32
        x21_x31 = x21 / x31
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          + -x21x21_x31x32 * y[2:])

    dx = np.diff(x)
    forward = first_spacing(y, dx)
    backward = first_spacing(y[::-1], dx[::-1])[::-1]
    parts = np.empty(len(dx))
    parts[:-1:2] = forward[::2]
    parts[1::2] = backward[::2]
    parts[-1] = backward[-1]
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(parts, out=out[1:])
    out[1:] += 0.0  # scipy adds initial=0.0 to every sum, turning -0.0 into 0.0
    return out


def _drift_primitive(drift: DriftSpec, a: float, xs: np.ndarray, theta: float) -> np.ndarray:
    """integral_a^x f(y, theta) dy at each grid node.

    Analytic for the built-in kinds; cumulative Simpson on the grid
    (:func:`_cumulative_simpson`) otherwise, whose accuracy the resolution
    refinement loop controls.
    """
    xs = np.asarray(xs, dtype=float)
    if drift.kind == POWER:
        g1 = drift.gamma + 1.0
        return -theta * (xs**g1 - a**g1) / g1
    if drift.kind == MEAN_REVERSION_TO_ONE:
        return theta * ((xs - 0.5 * xs**2) - (a - 0.5 * a**2))
    if drift.kind == SHIFTED_COVARIATE:
        return (drift.covariate + theta) * (xs - a)
    return _cumulative_simpson(eval_on_array(lambda v: drift.f(v, theta), xs, "the drift"),
                               xs)


def _require_stationary(config: ModelConfig, theta: float) -> None:
    """What every stationary quantity needs: sigma > 0 and a finite theta,
    checked before any grid is built."""
    if config.sigma <= 0.0:
        raise ModelError("stationary quantities require sigma > 0")
    _require_finite(theta=theta)


def scale_density(config: ModelConfig, theta: float, x: float) -> float:
    """Scale density exp(-(2/sigma^2) * integral_a^x f(y, theta) dy).

    For custom drifts the integral is computed by adaptive quadrature.
    """
    _require_stationary(config, theta)
    a = config.barriers.a
    if not config.barriers.contains(x):
        raise ModelError(f"x={x!r} outside the barrier interval")
    if config.drift.kind == CUSTOM:
        from scipy import integrate

        integral, _ = integrate.quad(lambda y: config.drift.f(y, theta), a, x)
    else:
        integral = float(_drift_primitive(config.drift, a, np.array([x]), theta)[0])
    return math.exp(-2.0 / config.sigma**2 * integral)


def _upper_limit(config: ModelConfig, theta: float) -> float:
    """Truncation point for a one-sided support: doubled until the upper
    half of the trial interval carries less than 1e-10 of the mass."""
    a = config.barriers.a
    theta_scale = max(abs(theta), 1e-2)
    span = max(20.0 * config.sigma / math.sqrt(2.0 * theta_scale), 1.0)
    probe_intervals = 512
    for _ in range(_MAX_SUPPORT_DOUBLINGS):
        hi = a + span
        nodes, w = _simpson_weights(a, hi, probe_intervals)
        log_pi = 2.0 / config.sigma**2 * _drift_primitive(config.drift, a, nodes, theta)
        log_pi -= np.max(log_pi)
        mass = w * np.exp(log_pi)
        total = float(np.sum(mass))
        tail = float(np.sum(mass[nodes >= a + 0.5 * span]))
        grows_outward = log_pi[-1] >= log_pi[len(log_pi) // 2]
        if total > 0 and not grows_outward and tail < _TAIL_MASS * total:
            return hi
        span *= 2.0
    raise ModelError(
        "one-sided invariant density is not integrable: the drift does not "
        "push the state toward the barrier"
    )


def invariant_density(config: ModelConfig, theta: float) -> DensityGrid:
    """Normalized invariant density on the barrier interval.

    The quadrature resolution is doubled until the normalizing constant is
    stable to 1e-10 relative, starting from 4,096 Simpson panels;
    a :class:`RuntimeWarning` reports a grid returned at the refinement cap
    before that.
    """
    _require_stationary(config, theta)
    a = config.barriers.a
    if config.barriers.is_two_sided:
        hi = config.barriers.b
    else:
        hi = _upper_limit(config, theta)

    drift = config.drift
    scale = 2.0 / config.sigma**2
    shift = unnorm = z = None
    k = _START_INTERVALS
    for _ in range(_MAX_REFINES + 1):
        nodes, w = _simpson_weights(a, hi, k)
        if unnorm is None or drift.kind == CUSTOM:
            log_pi = scale * _drift_primitive(drift, a, nodes, theta)
            if shift is None:
                shift = np.max(log_pi)
            finer = np.exp(log_pi - shift)
        else:
            # the even nodes of the doubled grid are the old nodes bit for
            # bit, so only the new odd nodes need the primitive and exp
            odd = np.ascontiguousarray(nodes[1::2])
            finer = np.empty(k + 1)
            finer[::2] = unnorm
            finer[1::2] = np.exp(scale * _drift_primitive(drift, a, odd, theta) - shift)
        prev_z, unnorm = z, finer
        z = float(np.dot(w, unnorm))
        if not math.isfinite(z) or z <= 0.0:
            raise ModelError("invariant density normalization failed")
        if prev_z is not None and abs(z - prev_z) <= _REFINE_REL_TOL * abs(z):
            break
        k *= 2
    else:
        warnings.warn(
            f"invariant density quadrature stopped at the refinement cap of "
            f"{len(nodes)} nodes with the normalizer still changing by "
            f"{abs(z - prev_z) / abs(z):.2g} relative (tolerance "
            f"{_REFINE_REL_TOL:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    values = unnorm / z
    for arr in (nodes, w, values):
        arr.setflags(write=False)
    return DensityGrid(lo=a, hi=hi, nodes=nodes, weights=w, values=values)


def stationary_average(
    config: ModelConfig,
    theta: float,
    g: Callable[[float], float],
    grid: DensityGrid | None = None,
) -> float:
    """Stationary expectation of g by quadrature against the invariant
    density (a precomputed grid can be supplied to amortize the setup)."""
    _require_finite(theta=theta)
    if grid is None:
        grid = invariant_density(config, theta)
    return grid.integrate(eval_on_array(g, grid.nodes))


def _difference(big: float, small: float) -> float | None:
    """big - small, or None when it underflows or cancels below _MIN_KEPT
    of the larger term.

    An interval's mass is the difference of its upper-tail pair or of its
    lower-tail pair; ``_difference(*min(upper, lower))`` takes the pair led
    by the smaller value, so the mass does not cancel in the far tail.
    """
    d = big - small
    if d > _MIN_MASS and d >= _MIN_KEPT * max(abs(big), abs(small)):
        return d
    return None


def _power_information(gamma: float, sigma: float, a: float, b: float | None,
                       theta: float) -> float | None:
    """E[x**(2 gamma)] for the density proportional to exp(-k x**(gamma+1))
    on [a, b], k = 2 theta / (sigma^2 (gamma+1)).  With u = k x**(gamma+1)
    it is k**(-2 gamma/(gamma+1)) times the ratio of the incomplete gamma
    masses of u on [k a**(gamma+1), k b**(gamma+1)] with shapes
    (2 gamma+1)/(gamma+1) and 1/(gamma+1) (DLMF 8.2)."""
    g1 = gamma + 1.0
    k = 2.0 * theta / (sigma**2 * g1)
    if not _MIN_MASS < k < math.inf:  # keeps k**(-2 gamma/(gamma+1)) finite
        return None
    lo = k * a**g1
    hi = math.inf if b is None else k * b**g1
    s1, s2 = 1.0 / g1, (2.0 * gamma + 1.0) / g1
    masses = []
    for s in (s1, s2):
        mass = _difference(*min(
            (float(_special.gammaincc(s, lo)), float(_special.gammaincc(s, hi))),
            (float(_special.gammainc(s, hi)), float(_special.gammainc(s, lo))),
        ))
        if mass is None:
            return None
        masses.append(mass * math.gamma(s))
    return k ** (-2.0 * gamma / g1) * masses[1] / masses[0]


def _mean_reversion_information(sigma: float, a: float, b: float | None,
                                theta: float) -> float | None:
    """E[(1 - x)^2] for N(1, s^2) truncated to [a, b], s^2 = sigma^2 /
    (2 theta): s^2 (1 + (alpha phi(alpha) - beta phi(beta)) / Z) with
    alpha = (a-1)/s, beta = (b-1)/s and Z = Phi(beta) - Phi(alpha)."""
    s2 = sigma**2 / (2.0 * theta)
    if not 0.0 < s2 < math.inf:
        return None
    s = math.sqrt(s2)
    lo = (a - 1.0) / s
    hi = math.inf if b is None else (b - 1.0) / s
    # Z = Phi(hi) - Phi(lo) = Phi(-lo) - Phi(-hi): an interval left of the
    # centre is mirrored to the right, where erfc gives its small tail values
    zlo, zhi = (-hi, -lo) if hi <= 0.0 else (lo, hi)
    r = math.sqrt(0.5)
    z = _difference(*min(
        (float(_special.erfc(zlo * r)), float(_special.erfc(zhi * r))),
        (float(_special.erf(zhi * r)), float(_special.erf(zlo * r))),
    ))
    if z is None:
        return None

    def edge(u: float) -> float:
        return 0.0 if math.isinf(u) else u * math.exp(-0.5 * u * u)

    # z holds 2 Z and edge() lacks phi's 1/sqrt(2 pi), hence sqrt(2/pi);
    # E[u^2] for u = (x - 1)/s cancels when [a, b] is narrow against s
    ratio = math.sqrt(2.0 / math.pi) * (edge(lo) - edge(hi)) / z
    second = _difference(1.0, -ratio)
    return None if second is None else s2 * second


def _closed_form_information(config: ModelConfig, theta: float) -> float | None:
    """The information from the stationary law of a built-in drift, or None
    where the quadrature decides: custom drifts, theta <= 0 (for the power
    and mean-reversion drifts), a one-sided shifted covariate that does not
    push the state down, and ill-conditioned masses."""
    drift = config.drift
    a, b = config.barriers.a, config.barriers.b
    if drift.kind == SHIFTED_COVARIATE:
        return 1.0 if b is not None or drift.covariate + theta < 0.0 else None
    if not theta > 0.0:
        return None
    if drift.kind == POWER:
        return _power_information(drift.gamma, config.sigma, a, b, theta)
    if drift.kind == MEAN_REVERSION_TO_ONE:
        return _mean_reversion_information(config.sigma, a, b, theta)
    return None


def information(
    config: ModelConfig, theta: float, grid: DensityGrid | None = None
) -> float:
    """Stationary expectation of the squared drift sensitivity,
    E[(df/dtheta)^2], the information-like constant in the asymptotic
    variance sigma^2 / information.

    Closed form for the built-in drifts where it applies (see the module
    docstring); otherwise quadrature against the invariant density, on
    ``grid`` when one is supplied.  ``grid`` is used only on that quadrature
    path, so a built-in drift gives the same value with or without it.

    Raises :class:`ModelError` when the value is numerically zero, which
    means the parameter does not move the drift anywhere the state lives.
    """
    _require_stationary(config, theta)
    value = _closed_form_information(config, theta)
    if value is None:
        if grid is None:
            grid = invariant_density(config, theta)
        sens = eval_on_array(lambda v: config.drift.df_dtheta(v, theta), grid.nodes,
                             "df_dtheta")
        value = grid.integrate(sens * sens)
    if not math.isfinite(value) or value <= 1e-14:
        raise ModelError(
            f"degenerate model: information integral is {value!r}"
        )
    return value
