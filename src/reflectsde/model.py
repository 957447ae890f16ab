"""Drift specifications, barrier geometry, parameter domains, and
sampling-regime diagnostics.

All types are immutable after construction and all operations are pure, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._native import COMPLEX_TYPES
from .errors import DataError, ModelError

DriftFn = Callable[[float, float], float]

POWER = "power"
MEAN_REVERSION_TO_ONE = "mean_reversion_to_one"
SHIFTED_COVARIATE = "shifted_covariate"
CUSTOM = "custom"


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ModelError(f"{name} must be finite, got {v!r}")


def _as_int(v, what: str, least: int | None = None) -> int:
    """``v`` as an int, the form counts and seeds are stored in: 3 or 3.0
    is 3, and anything that is not a whole number (3.5, nan, "3") or is
    below ``least`` raises ModelError "``what``, got ``v!r``"."""
    try:
        integral = int(v) == v
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or (least is not None and v < least):
        raise ModelError(f"{what}, got {v!r}")
    return int(v)


def _require_finite_width(lo: float, hi: float) -> None:
    """Refuse a theta domain whose width hi - lo overflows to inf."""
    if not math.isfinite(hi - lo):
        raise ModelError(f"theta domain ({lo}, {hi}) is too wide: hi - lo is not finite")


def _require_in_domain(theta: float, domain: tuple[float, float]) -> None:
    lo, hi = domain
    if not lo < theta < hi:
        raise ModelError(f"theta={theta!r} lies outside the open domain ({lo}, {hi})")


def _frozen(arr, dtype=float) -> np.ndarray:
    """``arr`` as a read-only C-contiguous array of ``dtype``: kept where it
    is one and owns its memory, else copied, so that no view can write it."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.base is None
            and arr.flags.c_contiguous and not arr.flags.writeable):
        arr = np.array(arr, dtype=dtype, order="C")
        arr.setflags(write=False)
    return arr


# the |theta| and the least x for which the built-in drifts declare their
# Lipschitz bounds
_THETA_MAX, _X_MIN = 5.0, 0.01


@dataclass(frozen=True)
class DriftSpec:
    """Drift f(x, theta) with its first and second theta-derivatives.

    Built-in kinds evaluate elementwise on numpy arrays as well as scalars.
    ``lipschitz_bound`` is a declared constant K with
    |f(x,theta) - f(y,theta)| <= K |x - y| on the barrier interval; for the
    power drift with exponent < 1 the bound is only valid away from zero
    (see :meth:`power`).
    """

    kind: str
    f: DriftFn
    df_dtheta: DriftFn
    d2f_dtheta2: DriftFn
    lipschitz_bound: float
    gamma: float | None = None
    covariate: float | None = None

    def __post_init__(self) -> None:
        if not (self.lipschitz_bound > 0 and math.isfinite(self.lipschitz_bound)):
            raise ModelError("lipschitz_bound must be a positive finite number")
        if self.kind == POWER and (
            self.gamma is None or not 0.0 < self.gamma <= 1.0
        ):
            raise ModelError("power drift requires gamma in (0, 1]")

    @staticmethod
    def power(gamma: float) -> "DriftSpec":
        """Pull toward zero: f(x, theta) = -theta * x**gamma, x >= 0.

        The declared Lipschitz bound is 5 * gamma * 0.01**(gamma - 1), valid
        for |theta| <= 5 (``_THETA_MAX``) on [0.01, inf) (``_X_MIN``).  For
        gamma < 1 the drift is not Lipschitz at x = 0; simulation and
        estimation never rely on the bound at runtime.
        """
        if not 0.0 < gamma <= 1.0:
            raise ModelError("gamma must lie in (0, 1]")
        return DriftSpec(
            kind=POWER,
            f=lambda x, theta: -theta * np.power(x, gamma),
            df_dtheta=lambda x, theta: -np.power(x, gamma) + 0.0 * theta,
            d2f_dtheta2=lambda x, theta: 0.0 * (x + theta),
            lipschitz_bound=_THETA_MAX * gamma * _X_MIN ** (gamma - 1.0),
            gamma=gamma,
        )

    @staticmethod
    def mean_reversion_to_one() -> "DriftSpec":
        """f(x, theta) = theta * (1 - x); Lipschitz constant ``_THETA_MAX``."""
        return DriftSpec(
            kind=MEAN_REVERSION_TO_ONE,
            f=lambda x, theta: theta * (1.0 - x),
            df_dtheta=lambda x, theta: 1.0 - x + 0.0 * theta,
            d2f_dtheta2=lambda x, theta: 0.0 * (x + theta),
            lipschitz_bound=_THETA_MAX,
        )

    @staticmethod
    def shifted_covariate(covariate: float) -> "DriftSpec":
        """f(x, theta) = c + theta for a fixed exogenous covariate c.

        Constant in x, so any positive Lipschitz constant is valid.
        """
        _require_finite(covariate=covariate)
        c = float(covariate)
        return DriftSpec(
            kind=SHIFTED_COVARIATE,
            f=lambda x, theta: c + theta + 0.0 * x,
            df_dtheta=lambda x, theta: 1.0 + 0.0 * (x + theta),
            d2f_dtheta2=lambda x, theta: 0.0 * (x + theta),
            lipschitz_bound=1.0,
            covariate=c,
        )

    @staticmethod
    def custom(
        f: DriftFn,
        df_dtheta: DriftFn,
        d2f_dtheta2: DriftFn,
        lipschitz_bound: float,
    ) -> "DriftSpec":
        """User-supplied drift.  Derivatives must be provided explicitly;
        there is no automatic differentiation."""
        return DriftSpec(
            kind=CUSTOM,
            f=f,
            df_dtheta=df_dtheta,
            d2f_dtheta2=d2f_dtheta2,
            lipschitz_bound=lipschitz_bound,
        )


@dataclass(frozen=True)
class BarrierConfig:
    """Reflecting barrier geometry: a lower barrier a >= 0 and, for the
    two-sided case, an upper barrier b with a < b < inf."""

    a: float
    b: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ModelError(f"lower barrier must satisfy a >= 0, got {self.a!r}")
        if self.b is not None and not (math.isfinite(self.b) and self.b > self.a):
            raise ModelError(
                f"upper barrier must satisfy a < b < inf, got b={self.b!r}"
            )

    @staticmethod
    def two_sided(a: float, b: float) -> "BarrierConfig":
        return BarrierConfig(a=float(a), b=float(b))

    @staticmethod
    def one_sided_lower(a: float) -> "BarrierConfig":
        return BarrierConfig(a=float(a), b=None)

    @property
    def is_two_sided(self) -> bool:
        return self.b is not None

    def contains(self, x: float) -> bool:
        return self.a <= x and (self.b is None or x <= self.b)


@dataclass(frozen=True)
class ModelConfig:
    """Full model: drift, diffusion coefficient, barriers, parameter domain,
    and initial state.

    ``sigma == 0`` is accepted here so that noiseless diagnostic runs can be
    constructed programmatically; the configuration-file loader rejects it.
    """

    drift: DriftSpec
    sigma: float
    barriers: BarrierConfig
    theta_domain: tuple[float, float]
    x0: float

    def __post_init__(self) -> None:
        _require_finite(sigma=self.sigma, x0=self.x0)
        if self.sigma < 0:
            raise ModelError(f"sigma must be >= 0, got {self.sigma!r}")
        lo, hi = self.theta_domain
        _require_finite(theta_lo=lo, theta_hi=hi)
        if not lo < hi:
            raise ModelError(f"theta domain must satisfy lo < hi, got ({lo}, {hi})")
        _require_finite_width(lo, hi)
        if not self.barriers.contains(self.x0):
            raise ModelError(
                f"x0={self.x0!r} lies outside the barrier set "
                f"[{self.barriers.a}, {self.barriers.b if self.barriers.is_two_sided else 'inf'}]"
            )


@dataclass(frozen=True)
class SamplingPlan:
    """Observation scheme: n increments at step size h, with the regime
    exponent alpha in (0, 1/2) used only for diagnostics.  n is stored as
    an int and h as a float, the forms both steppers compute with."""

    n: int
    h: float
    alpha: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_int(self.n, "n must be an integer >= 2", 2))
        if not (math.isfinite(self.h) and self.h > 0):
            raise ModelError(f"h must be positive and finite, got {self.h!r}")
        object.__setattr__(self, "h", float(self.h))
        if not 0.0 < self.alpha < 0.5:
            raise ModelError(f"alpha must lie in (0, 0.5), got {self.alpha!r}")


@dataclass(frozen=True)
class RegimeDiagnostics:
    """Advisory figures for the sampling regime.

    The underlying requirements are asymptotic (h -> 0, nh -> inf,
    n*h**(1+2*alpha) -> 0), so a finite plan is never rejected; short spans
    and coarse steps are only flagged.
    """

    h: float
    nh: float
    bias_measure: float
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.warnings


def validate_regime(plan: SamplingPlan) -> RegimeDiagnostics:
    """Compute (h, nh, n*h**(1+2*alpha)) and advisory warning flags."""
    nh = plan.n * plan.h
    bias_measure = plan.n * plan.h ** (1.0 + 2.0 * plan.alpha)
    warnings = []
    if nh < 10.0:
        warnings.append(
            f"nh = {nh:g} < 10: short time span, weak ergodic averaging"
        )
    if bias_measure > 1.0:
        warnings.append(
            f"n*h**(1+2*alpha) = {bias_measure:g} > 1: discretization bias regime"
        )
    return RegimeDiagnostics(
        h=plan.h, nh=nh, bias_measure=bias_measure, warnings=tuple(warnings)
    )


_FLOAT64 = np.dtype(np.float64)


def eval_on_array(g: Callable[[float], float], x: np.ndarray, what: str = "g") -> np.ndarray:
    """Evaluate ``g`` on the whole array ``x``, or value by value when ``g``
    rejects arrays (custom drifts need not accept them) or returns a result
    of another shape or kind.  Built-in drifts keep the shape of ``x``
    through their ``0.0 * x`` terms, so a custom drift that reduces over its
    argument is caught here rather than broadcast.  Values convert as the
    steppers convert a drift's result, by ``math.ldexp(v, 0)``, and what
    they refuse raises their :class:`DataError`: "``what`` is not a real
    number" for a complex value, which a cast would cut to its real part, a
    str, bytes or None, and a str or bytes array, which a cast would parse;
    "``what`` left the finite range" for an int too large for a double."""
    x = np.asarray(x, dtype=float)
    kind = "f"
    try:
        out = g(x)
        # a float64 array, the usual result, is not looked into
        if getattr(out, "dtype", None) is not _FLOAT64:
            kind = np.asarray(out).dtype.kind
            # bool, int, uint and float arrays convert as their values do
            out = np.asarray(out, dtype=float) if kind in "biuf" else None
        if out is not None and out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    if kind not in "cSU":
        values = [g(float(v)) for v in x]
        kinds = set(map(type, values)) - {float}
        if not kinds:
            return np.array(values, dtype=float)
        if not any(issubclass(t, COMPLEX_TYPES) for t in kinds):
            try:
                return np.array([math.ldexp(v, 0) for v in values])
            except OverflowError as exc:
                raise DataError(f"{what} left the finite range: {exc}") from exc
            except TypeError:
                pass
    raise DataError(f"{what} is not a real number")

