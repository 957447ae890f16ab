"""Discretely observed reflected sample paths.

Paths follow the reflected dynamics
``dX = f(X, theta) dt + sigma dW + dL - dR`` between a lower barrier ``a``
and, in the two-sided case, an upper barrier ``b``.  Each observation
interval of length ``h`` is integrated with ``substeps`` fine Euler steps.
The default scheme samples the running minimum of each fine step exactly
(conditioned on the Gaussian endpoint) so the lower reflection acts at the
within-step minimum; upper-barrier overshoot is clipped per fine step.  A
plain projection scheme is available for comparison.

Regulator values are accumulated exactly across fine steps and recorded at
observation times, giving the data set {X_tk, L_tk, R_tk} that the
estimators consume.  Everything is deterministic given the stream seed.

:func:`_simulate` draws and integrates each path in blocks of whole
observation intervals of about ``_BLOCK_STEPS`` fine steps, into draw
buffers reused from block to block, so that they stay in the cache; the
stream, and so every path, is the same as when drawn whole.  The two
factors of :func:`simulate_two_factor` step block by block in turn, the
log price reading one block of the short rate's fine steps.
:func:`_integrate` picks the stepper once, and the whole path runs on it,
called with the same arguments: ``reflect_path`` in ``_stepper.c`` (see
:mod:`._native`), or its Python twin :func:`_reflect_path`, the reference,
which gives the same bits.  The kernel runs the built-in drifts and the
two-factor system in C with the GIL released, and calls a custom drift
``f(x, theta)`` itself through the Python C API with the GIL held,
converting its result in C.  What a custom drift raises stops either
stepper and is raised alike; a power drift of a negative state, and a
custom drift whose result is not a real number, raise the same
:class:`DataError` on both.  Without a C compiler,
paths run on :func:`_reflect_path`.  The same library reads the CSV rows
:func:`write_csv` writes: :func:`read_path_csv` hands it a file's bytes
once, with line ends made ``\\n``, and any other body goes to
``np.loadtxt``, which gives the same values and errors; the times must lie
on the path's own grid ``t0 + k h``.  It also writes them: its ``write_rows``
formats blocks of rows to the bytes of the Python expression
``"{:.17g}".format`` in :func:`write_csv`, which formats every block it
hands back, and every row without the library.

Every :class:`SamplePath` is checked as it is built, whether simulated,
read from CSV, made by hand or by ``dataclasses.replace``, so no path
exists unchecked, and keeps the increments its checks take: those one
pass of the compiled ``check_path`` writes as it makes every check, else
``np.diff`` of x, l and r in the numpy checks, which run where the pass
finds a fault or without the library: they are the reference, and their
first failing check names the fault.  :meth:`SamplePath.validate` makes
the same checks again on the arrays as they are, and replaces nothing.
"""

from __future__ import annotations

import ctypes
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import _native, rng
from .errors import DataError, ModelError
from .model import (
    MEAN_REVERSION_TO_ONE,
    POWER,
    SHIFTED_COVARIATE,
    BarrierConfig,
    DriftSpec,
    ModelConfig,
    SamplingPlan,
    _as_int,
    _frozen,
    _require_finite,
    _require_in_domain,
)

LEPINGLE = "lepingle"
PROJECTION = "projection"
_BARRIER_TOL = 1e-12

@dataclass(frozen=True)
class SimOptions:
    """Integration scheme, fine steps per observation interval, and the
    64-bit stream seed (an integer, taken modulo 2**64).  substeps and
    seed are stored as ints: 10.0 is 10."""

    scheme: str = LEPINGLE
    substeps: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in (LEPINGLE, PROJECTION):
            raise ModelError(f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "substeps",
                           _as_int(self.substeps, "substeps must be an integer >= 1", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed must be an integer"))


@dataclass(frozen=True)
class SamplePath:
    """Discrete observations of the state and its regulators at the
    times ``t0 + k h`` (see :attr:`times`).

    ``x``, ``l`` and ``r`` are one-dimensional; ``l`` and ``r`` hold the
    cumulative lower/upper regulator values (``r`` is identically zero for
    one-sided paths).  ``hit_lower``/``hit_upper`` flag, per observation
    interval, whether any fine step touched the corresponding barrier; they
    are not serialized.  ``increments`` holds (dx, dl, dr), the read-only
    increments of ``x``, ``l`` and ``r`` over each observation interval,
    taken once by the checks the path makes as it is built (see
    :meth:`validate`) and never replaced: every estimator reads them, the
    compiled contrast by address.
    """

    h: float
    x: np.ndarray
    l: np.ndarray
    r: np.ndarray
    barriers: BarrierConfig
    hit_lower: np.ndarray | None = None
    hit_upper: np.ndarray | None = None
    t0: float = 0.0
    increments: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("x", "l", "r"):
            arr = _frozen(getattr(self, name))
            if arr.ndim != 1:
                raise DataError(f"path {name} must be one-dimensional, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        if len(self.x) < 2:
            raise DataError("a path needs at least two observations")
        if not (len(self.x) == len(self.l) == len(self.r)):
            raise DataError("path arrays must have equal lengths")
        for name in ("hit_lower", "hit_upper"):
            arr = getattr(self, name)
            if arr is not None:
                arr = _frozen(arr, dtype=bool)
                if arr.shape != (self.n,):
                    raise DataError(f"{name} must hold one flag per observation interval")
                object.__setattr__(self, name, arr)
        if not math.isfinite(self.t0):
            raise DataError(f"the start time t0 must be finite, got {self.t0!r}")
        steps = self._check()
        for arr in steps:
            arr.setflags(write=False)
        object.__setattr__(self, "increments", steps)
        for name in ("h", "t0"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def times(self) -> np.ndarray:
        """The observation times ``t0 + k h``, k = 0, ..., n, in a new
        read-only array."""
        times = _times(self.t0, self.h, self.n)
        times.setflags(write=False)
        return times

    @property
    def n(self) -> int:
        """Number of increments."""
        return len(self.x) - 1

    def validate(self) -> None:
        """Check finiteness, barrier containment, regulator monotonicity,
        and (when hit flags are present) discrete complementary slackness,
        raising :class:`DataError` at the first fault.  A step ``h`` that is
        not positive and finite is refused first, then one whose last time
        ``t0 + n h`` overflows.  Every path makes these
        checks as it is built; a call makes them again on the arrays as they
        are now, and leaves :attr:`increments` as they were."""
        self._check()

    def _check(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Make the checks of :meth:`validate` and return the increments
        (dx, dl, dr) they took.  The compiled ``check_path`` (see
        :mod:`._native`) makes every check in one pass and writes them.
        Where it finds a fault, or is not built, the numpy checks below
        run: the reference, whose first failing check names the fault."""
        h = self.h
        if not (h > 0.0 and math.isfinite(h)):
            raise DataError(f"the observation step h must be positive and finite, got {h!r}")
        # the last time of :attr:`times`, by the same operations
        if not math.isfinite(float(self.t0) + self.n * float(h)):
            raise DataError(f"the last observation time t0 + n h overflows: t0 = {self.t0!r}, "
                            f"n = {self.n}, h = {h!r}")
        lib = _native.load()
        if lib is not None:
            # three arrays of their own: as rows of one 3-by-n array they
            # made perfbench's estimate_ci about 4% slower on a 2-vCPU Xeon
            steps = np.empty(self.n), np.empty(self.n), np.empty(self.n)
            b = self.barriers.b
            if not lib.check_path(self.n, self.x, self.l, self.r, self.hit_lower,
                                  self.hit_upper, self.barriers.a - _BARRIER_TOL,
                                  math.inf if b is None else b + _BARRIER_TOL,
                                  b is None, *steps):
                return steps
        for name in ("x", "l", "r"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"path {name} holds non-finite values")
        a, b = self.barriers.a, self.barriers.b
        if np.min(self.x) < a - _BARRIER_TOL:
            raise DataError(f"state drops below the lower barrier {a}")
        if b is not None and np.max(self.x) > b + _BARRIER_TOL:
            raise DataError(f"state exceeds the upper barrier {b}")
        steps = _, dl, dr = tuple(np.diff(arr) for arr in (self.x, self.l, self.r))
        for name, reg, step in (("l", self.l, dl), ("r", self.r, dr)):
            if reg[0] != 0.0:
                raise DataError(f"regulator {name} must start at 0")
            if np.any(step < 0.0):
                raise DataError(f"regulator {name} must be non-decreasing")
        if not self.barriers.is_two_sided and np.any(self.r != 0.0):
            raise DataError("one-sided paths cannot carry an upper regulator")
        for side, step, hit in (("lower", dl, self.hit_lower), ("upper", dr, self.hit_upper)):
            if hit is not None and np.any((step > 0) & ~hit):
                raise DataError(f"{side} regulator increased without touching the barrier")
        return steps


@dataclass(frozen=True)
class TwoFactorPath:
    """Coupled log-price / short-rate observations.

    ``y`` is the two-sided component on [a, b] (lower regulator in ``y.l``,
    upper in ``y.r``); ``rshort`` is the one-sided short rate reflected at 0
    with its regulator in ``rshort.l``.
    """

    y: SamplePath
    rshort: SamplePath

    def __post_init__(self) -> None:
        if self.y.n != self.rshort.n or self.y.h != self.rshort.h:
            raise DataError("two-factor components must share n and h")

    @property
    def h(self) -> float:
        return self.y.h

    @property
    def n(self) -> int:
        return self.y.n

    def validate(self) -> None:
        """Run :meth:`SamplePath.validate` again on both factors."""
        self.y.validate()
        self.rshort.validate()


# drift codes of the compiled kernel (see _stepper.c)
_K_POWER, _K_MEAN_REVERSION, _K_CONSTANT, _K_SHIFTED, _K_CALLBACK = range(5)
# a built-in drift (code, theta, gamma), or a custom one (_K_CALLBACK, f,
# theta), whose f(x, theta) the stepper calls with the caller's theta
_Drift = tuple[int, float, float] | tuple[int, Callable[[float, object], object], object]


def _reflect_path(kind, theta, gamma, shift, z, u, k0, n, m, a, b, hf, sig2hf,
                  exact_min, xs, ls, rs, hit_lo, hit_up, fine, drift, param, stop):
    """Integrate the observation intervals ``k0`` to ``k0 + n - 1`` of ``m``
    fine steps: the Python twin of ``reflect_path`` in ``_stepper.c``, with
    its arguments (arrays where it takes pointers) and its operations in the
    same order, on Python floats.  A change to one must be made to both.

    ``z`` (the Gaussian increments scaled by sigma*sqrt(hf)), ``u`` (the
    bridge-minimum uniforms), ``shift`` and ``fine`` are buffers of the
    block, read and written from index 0; ``b`` is ``inf`` for a one-sided
    path.  The lower reflection lifts the exactly sampled within-step
    minimum (the endpoint, without ``exact_min``) to ``a``; overshoot above
    ``b`` is clipped into the upper regulator.  A custom drift is
    ``drift(x, param)``, its result converted by ``math.ldexp(mu, 0)``,
    which converts as the kernel's ``PyFloat_AsDouble`` does, unless it is
    one of ``_native.COMPLEX_TYPES`` (a ``complex`` or a numpy complex
    scalar), whose real part that would keep.  Returns -1, or the fine step
    of the block where the drift is not a real number: a negative state to
    a fractional power (``math.sqrt``, which takes ``x ** 0.5`` as the
    kernel's ``sqrt`` does, refuses it, and ``x ** gamma`` is complex), the
    custom drift's result is complex, or its conversion raises TypeError (a
    str).
    Where ``drift``, or the test or the conversion otherwise, raises,
    ``stop.value`` receives the fine step.
    """
    log, sqrt, ldexp, complex_types = math.log, math.sqrt, math.ldexp, _native.COMPLEX_TYPES
    power, reverting = kind == _K_POWER, kind == _K_MEAN_REVERSION
    constant, shifted = kind == _K_CONSTANT, kind == _K_SHIFTED
    z, u = z[:n * m].tolist(), u[:n * m].tolist()
    if shifted:
        shift = shift[:n * m].tolist()
    left = [] if fine is not None else None
    x, cl, cr = float(xs[k0]), float(ls[k0]), float(rs[k0])
    rows = []
    for k in range(n):
        lo = up = False
        for i in range(k * m, (k + 1) * m):
            if left is not None:
                left.append(x)
            if power:
                if gamma == 1.0:
                    mu = x
                elif gamma == 0.5:
                    if x < 0.0:
                        return i
                    mu = sqrt(x)
                else:
                    mu = x ** gamma
                    if type(mu) is complex:
                        return i
                mu = -theta * mu
            elif reverting:
                mu = theta * (1.0 - x)
            elif constant:
                mu = theta
            elif shifted:
                mu = shift[i] + theta
            else:
                try:
                    mu = drift(x, param)
                    if type(mu) is not float:
                        if isinstance(mu, complex_types):
                            return i
                        try:
                            mu = ldexp(mu, 0)
                        except TypeError:
                            return i
                except BaseException:
                    stop.value = i
                    raise
            s = mu * hf + z[i]
            if exact_min:
                dl = a - x - 0.5 * (s - sqrt(s * s - sig2hf * log(u[i])))
            else:
                dl = a - (x + s)
            if dl < 0.0:
                dl = 0.0
            x = x + s + dl
            if dl > 0.0:
                lo = True
                cl += dl
            if x > b:
                up = True
                cr += x - b
                x = b
        rows.append((x, cl, cr, lo, up))
    # the kernel writes these as it goes; after a failure nothing reads them
    done = slice(k0 + 1, k0 + n + 1)
    xs[done], ls[done], rs[done], hit_lo[k0:k0 + n], hit_up[k0:k0 + n] = zip(*rows)
    if left is not None:
        fine[:n * m] = left
    return -1


def _drift_of_state(spec: DriftSpec, theta: float) -> _Drift:
    """The drift for :func:`_integrate`: the kernel's ``(code, theta, gamma)``
    for a built-in kind, where the shifted covariate is the constant
    mu = c + theta, or ``(_K_CALLBACK, f, theta)`` for a custom one, with
    the caller's ``theta`` object."""
    if spec.kind == POWER:
        return _K_POWER, float(theta), float(spec.gamma)
    if spec.kind == MEAN_REVERSION_TO_ONE:
        return _K_MEAN_REVERSION, float(theta), 0.0
    if spec.kind == SHIFTED_COVARIATE:
        return _K_CONSTANT, float(spec.covariate) + float(theta), 0.0
    return _K_CALLBACK, spec.f, theta


_Trace = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _address(arr: np.ndarray) -> int:
    """The address of the first element of ``arr``, a C-contiguous and
    writable array, in about 0.5 us against about 2 us for
    ``arr.ctypes.data``; a path takes up to nine."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr))


def _integrate(
    drift: _Drift, z: np.ndarray, us: np.ndarray, m: int, a: float, b: float, hf: float,
    sig2hf: float, exact_min: bool, trace: _Trace, shift: np.ndarray | None = None,
    fine: np.ndarray | None = None,
) -> Callable[[int, int], None]:
    """The stepper of one path of observation intervals of ``m`` fine steps.

    ``trace`` is ``(x, l, r, hit_lower, hit_upper)``: n + 1 observations of
    the state and the cumulative regulators, and n hit flags.  The
    returned ``step(k, count)`` integrates intervals ``k`` to
    ``k + count - 1`` with the scaled Gaussian increments and bridge
    uniforms at the front of ``z`` and ``us``, resuming from ``x[k]``,
    ``l[k]`` and ``r[k]``, and writes the rest of ``trace`` for those
    intervals; so a path can be drawn and integrated block by block into
    the same draw buffers.  An error names its observation interval in the
    whole path.

    ``drift`` comes from :func:`_drift_of_state`, or is the kernel's shifted
    drift ``(_K_SHIFTED, theta, 0.0)`` with ``shift`` holding the values
    added at each fine step of the block.  ``fine``, a buffer of the block
    like ``shift``, receives every fine-step left endpoint.  Every block
    runs on the stepper picked here, with the same arguments: the compiled
    kernel when it loads, else its twin :func:`_reflect_path`.  Where the
    drift is not a real number (the power drift of a negative state, or a
    custom drift's complex, numpy complex or str result), both raise the
    same :class:`DataError`.
    """
    n = len(trace[3])
    custom = drift[0] == _K_CALLBACK
    if custom:
        (code, f, param), theta, gamma = drift, 0.0, 0.0
    else:
        (code, theta, gamma), f, param = drift, None, None
    buffers = [arr for arr in (z, us, shift, fine) if arr is not None]
    room = min(len(arr) for arr in buffers) // m  # observation intervals a block
    arrays = (shift, z, us, *trace, fine)
    lib = _native.load()
    if lib is None:
        kernel = _reflect_path
    else:
        for arr in buffers:
            # the kernel reads or writes contiguous doubles through each
            if arr.ndim != 1 or arr.dtype != np.float64 or not arr.flags.c_contiguous:
                raise ValueError("fine-step arrays must be contiguous doubles")
        kernel = lib.reflect_path_with_gil if custom else lib.reflect_path
        arrays = tuple(None if arr is None else _address(arr) for arr in arrays)
    sp, zp, up, xp, lp, rp, lo, hi, fp = arrays
    stop = ctypes.c_long()

    def step(k: int, count: int) -> None:
        if count > room or k + count > n:
            raise ValueError("a block must lie in the path and its buffers")
        try:
            status = kernel(code, theta, gamma, sp, zp, up, k, count, m, a, b, hf, sig2hf,
                            exact_min, xp, lp, rp, lo, hi, fp, f, param, stop)
        except (OverflowError, ZeroDivisionError) as exc:
            # a custom drift raised at fine step stop.value of the block
            raise DataError("the drift left the finite range in observation interval "
                            f"{k + stop.value // m}: {exc}") from exc
        if status >= 0:
            # a negative state to a fractional power (NaN in C; refused by
            # math.sqrt or complex in Python), or a custom drift's result
            # that does not convert
            raise DataError("the drift is not a real number in observation interval "
                            f"{k + status // m}")

    # step holds the arrays behind the addresses it passes as long as it
    # lives: a caller's temporary buffer would otherwise be freed under the kernel
    step.arrays = (shift, z, us, trace, fine)
    return step


def integration_backend() -> str:
    """``"native"`` when paths run on the compiled kernel (a custom drift
    called from it through the Python C API), ``"python"`` when they run on
    the Python stepper.  Every path runs wholly on the stepper named."""
    return "python" if _native.load() is None else "native"


# Fine steps drawn and integrated at a time.  A path runs in blocks of whole
# observation intervals of about this many fine steps, whose draws fill the
# same buffers block after block: about 256 KiB that stay in the L2 cache,
# where drawing a whole path at once wrote some 56 bytes a fine step into
# fresh memory.  On a 2-vCPU Xeon with 2 MiB of L2 a core, a 10**5-step
# path took 6.75 ms at 8,192 steps a block, 6.97 ms at 4,096, 6.74 ms at
# 16,384 and 7.09 ms at 32,768, against 8.36 ms drawn whole (medians of
# interleaved runs); a 2 * 10**4-step path took 1.44 ms against 1.42 ms.
_BLOCK_STEPS = 8192


def _simulate(
    factors: list[tuple[_Drift, float, int, BarrierConfig]], sigma: float,
    plan: SamplingPlan, opts: SimOptions,
) -> list[SamplePath]:
    """One path of ``plan`` for each factor ``(drift, x0, seed, barriers)``:
    the stream of ``seed`` integrated from ``x0`` between ``barriers`` with
    ``drift`` as in :func:`_integrate`.  The paths run in blocks of whole
    observation intervals of about ``_BLOCK_STEPS`` fine steps, each block
    drawn (see :func:`rng.fill_draws`; the stream and the path do not depend
    on the block size) and integrated for every factor in turn into the same
    draw buffers.  With two factors, the first writes the block's fine-step
    left endpoints, which the second, a shifted drift, reads.  Each
    :class:`SamplePath` checks itself as it is built."""
    n, m = plan.n, opts.substeps
    hf = plan.h / m
    sigma = float(sigma)
    per = max(1, _BLOCK_STEPS // m)  # observation intervals a block
    size = min(n, per) * m
    u, z, us = np.empty((size, 2)), np.empty(size), np.empty(size)
    left = np.empty(size) if len(factors) > 1 else None
    runs = []
    for drift, x0, seed, barriers in factors:
        trace = xs, ls, rs, _, _ = (
            np.empty(n + 1), np.empty(n + 1), np.empty(n + 1),
            np.empty(n, dtype=bool), np.empty(n, dtype=bool))
        xs[0], ls[0], rs[0] = float(x0), 0.0, 0.0
        b = float(barriers.b) if barriers.is_two_sided else math.inf
        shifted = drift[0] == _K_SHIFTED
        step = _integrate(drift, z, us, m, float(barriers.a), b, hf, 2.0 * sigma * sigma * hf,
                          opts.scheme == LEPINGLE, trace, shift=left if shifted else None,
                          fine=None if shifted else left)
        runs.append((rng.generator(seed), step, trace, barriers))
    scale = sigma * math.sqrt(hf)
    for k in range(0, n, per):
        count = min(per, n - k)
        rows = count * m
        for gen, step, _, _ in runs:
            rng.fill_draws(gen, u[:rows], z[:rows], us[:rows], scale)
            step(k, count)
    paths = []
    for _, _, trace, barriers in runs:
        for arr in trace:  # fresh, so the path keeps them uncopied
            arr.setflags(write=False)
        xs, ls, rs, hit_lo, hit_up = trace
        paths.append(SamplePath(h=plan.h, x=xs, l=ls, r=rs, barriers=barriers,
                                hit_lower=hit_lo, hit_upper=hit_up))
    return paths


def simulate_path(
    config: ModelConfig, theta: float, plan: SamplingPlan, opts: SimOptions
) -> SamplePath:
    """Simulate a discretely observed reflected path at the true parameter
    ``theta``.  Deterministic given ``opts.seed``; a drift that overflows
    raises :class:`DataError`."""
    _require_in_domain(theta, config.theta_domain)
    return _simulate([(_drift_of_state(config.drift, theta), config.x0, opts.seed,
                       config.barriers)], config.sigma, plan, opts)[0]


def _check_two_factor(
    y0: float, r0: float, theta1: float, theta2: float, sigma: float, a: float, b: float
) -> BarrierConfig:
    """Refuse, with :class:`ModelError`, a two-factor model that
    :func:`simulate_two_factor` cannot run: barriers [a, b] that are not
    0 <= a < b < inf, y0 outside them, a non-finite r0, theta1 or theta2,
    r0 < 0, or a sigma that is not finite and >= 0.  Returns the log
    price's barriers."""
    barriers = BarrierConfig.two_sided(a, b)
    if not barriers.contains(y0):
        raise ModelError(f"y0={y0!r} must lie in [{a}, {b}]")
    _require_finite(r0=r0, theta1=theta1, theta2=theta2)
    if r0 < 0.0:
        raise ModelError(f"r0={r0!r} must be >= 0")
    if sigma < 0.0 or not math.isfinite(sigma):
        raise ModelError(f"sigma must be >= 0, got {sigma!r}")
    return barriers


def simulate_two_factor(
    y0: float,
    r0: float,
    theta1: float,
    theta2: float,
    sigma: float,
    a: float,
    b: float,
    plan: SamplingPlan,
    opts: SimOptions,
) -> TwoFactorPath:
    """Simulate the coupled system: a short rate reflected at 0 with drift
    theta2*(1 - R), and a log price reflected on [a, b] whose drift
    R + theta1 uses the short rate at each fine-step left endpoint.

    The two Brownian drivers use independent streams derived from
    ``opts.seed``.
    """
    barriers_y = _check_two_factor(y0, r0, theta1, theta2, sigma, a, b)
    # The short rate does not feel the log price, so each block of it is
    # stepped first and the log price then reads its fine-step left endpoints.
    rshort, y = _simulate(
        [((_K_MEAN_REVERSION, float(theta2), 0.0), r0, rng.derive_seed(opts.seed, 2),
          BarrierConfig.one_sided_lower(0.0)),
         ((_K_SHIFTED, float(theta1), 0.0), y0, rng.derive_seed(opts.seed, 1), barriers_y)],
        sigma, plan, opts)
    return TwoFactorPath(y=y, rshort=rshort)


# ---------------------------------------------------------------------------
# CSV round-trip (17 significant digits, lossless for doubles)
# ---------------------------------------------------------------------------


# Rows formatted at a time by the compiled write_rows, into one buffer of
# at most this many rows of _FIELD_BYTES a field, reused block after block
_WRITE_ROWS = 4096
# the longest field write_rows writes, with its separator
_FIELD_BYTES = 24


def write_csv(dest: str | Path | IO[str], header: str, *columns) -> None:
    """Write ``header`` and one row per position of the equal-length
    ``columns``, every value as ``{:.17g}``; raises ValueError where the
    columns differ in length, before ``dest`` is opened.

    Numeric columns (integers of magnitude below 2**53, which format as
    their float) are converted to contiguous float64 once and formatted
    in blocks of ``_WRITE_ROWS`` rows by the compiled ``write_rows`` (see
    :mod:`._native`), which gives the bytes of the Python expression.  A
    block that holds a value it hands back, which is anything but zero or
    a magnitude in [1e-16, 1e17), is formatted by that expression, the
    reference, as is every row without the library or of other columns."""
    cols = [np.asarray(col) for col in columns]
    if len({len(col) for col in cols}) > 1:
        raise ValueError("write_csv: columns differ in length: "
                         + ", ".join(str(len(col)) for col in cols))
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            write_csv(fh, header, *cols)
        return
    dest.write(header + "\n")
    lib = _native.load() if cols else None
    if lib is None or not all(_formats_as_float(col) for col in cols):
        _format_rows(dest, cols)
        return
    cols = [np.ascontiguousarray(col, dtype=np.float64) for col in cols]
    nrows = len(cols[0])
    buf = bytearray(min(nrows, _WRITE_ROWS) * len(cols) * _FIELD_BYTES)
    out = np.frombuffer(buf, dtype=np.uint8).ctypes.data
    # the address of each column's next row, advanced block by block
    starts = np.array([col.ctypes.data for col in cols], dtype=np.uintp)
    for k in range(0, nrows, _WRITE_ROWS):
        count = min(_WRITE_ROWS, nrows - k)
        size = lib.write_rows(starts.ctypes.data, len(cols), count, out, len(buf))
        if size < 0:
            _format_rows(dest, [col[k:k + count] for col in cols])
        else:
            dest.write(str(memoryview(buf)[:size], "ascii"))
        starts += count * 8


def _format_rows(dest: IO[str], cols: list[np.ndarray]) -> None:
    """Write the rows of ``cols`` by the Python expression, the reference."""
    line = ",".join(["{:.17g}"] * len(cols)) + "\n"
    # Python floats and ints format faster than numpy scalars
    dest.writelines(line.format(*row) for row in zip(*(col.tolist() for col in cols)))


def _formats_as_float(col: np.ndarray) -> bool:
    """Whether every value of ``col``, an array, formats as ``{:.17g}`` of
    its float64: it is 1-d and of floats of at most 64 bits, of bools, or of
    integers of magnitude below 2**53, which ``int.__format__`` converts
    exactly."""
    if col.ndim != 1 or col.dtype.kind not in "biuf" or col.dtype.itemsize > 8:
        return False
    if col.dtype.kind in "iu" and col.size:
        return -2**53 < int(col.min()) and int(col.max()) < 2**53
    return True


def _read_rows(body: bytes, ncol: int) -> np.ndarray | None:
    """The rows of ``body`` parsed by the compiled ``read_rows``, or None
    where it gives them back (anything but rows as :func:`write_csv` writes
    them, which are ASCII) or is not built, so that the caller reads them
    with ``np.loadtxt``.  ``read_rows`` converts a field of up to 19
    significant digits by the Eisel-Lemire algorithm and any other by
    ``strtod``, as it converts every field on a build without
    ``__int128``; both give the bits of ``np.loadtxt``."""
    lib = _native.load()
    if lib is None:
        return None
    # a row takes at least two bytes a field, a digit and "," or "\n"
    data = np.empty((len(body) // (2 * ncol), ncol))
    rows = lib.read_rows(body, len(body), ncol, data.ctypes.data, len(data))
    return None if rows < 0 else data[:rows]


def _times(t0: float, h: float, n: int) -> np.ndarray:
    """The observation times ``t0 + k h``, k = 0, ..., n, in a new array."""
    times = np.arange(n + 1, dtype=np.float64)
    times *= h
    times += t0
    return times


def _grid_step(t: np.ndarray) -> float:
    """The step h of the times ``t``: ``t1`` where ``t0 = 0``, so that a
    path written from 0 reads back with the bits of its h, and
    ``(tn - t0) / n`` otherwise, which divides the rounding of the times
    by n.  Each time must lie within 1e-9 h + 8 ulp(max(|t0|, |t0 + n h|))
    of ``t0 + k h`` (see :func:`_times`): the ulps bound the rounding of a
    written grid and of this one, and lie far below a step, so that a
    missing or repeated row fails wherever the grid starts.  Raises
    :class:`DataError` otherwise.  A NaN time fails the check, and so does
    a grid whose last time ``t0 + n h`` overflows, as its times cannot be
    those of a path."""
    n = len(t) - 1
    t0, tn = float(t[0]), float(t[-1])
    h = float(t[1]) if t0 == 0.0 else (tn - t0) / n
    if 0.0 < h < math.inf and math.isfinite(t0 + n * h):
        dev = _times(t0, h, n)
        tol = 1e-9 * h + 8 * math.ulp(max(abs(t0), abs(dev[-1])))
        np.subtract(t, dev, out=dev)
        if np.abs(dev, out=dev).max() <= tol:
            return h
    raise DataError("CSV requires regularly spaced times")


def write_path_csv(path: SamplePath, dest: str | Path | IO[str]) -> None:
    """Write ``t,x,l,r`` (two-sided) or ``t,x,l`` (one-sided) rows."""
    if path.barriers.is_two_sided:
        write_csv(dest, "t,x,l,r", path.times, path.x, path.l, path.r)
    else:
        write_csv(dest, "t,x,l", path.times, path.x, path.l)


def read_path_csv(src: str | Path | IO, barriers: BarrierConfig) -> SamplePath:
    """Read a path written by :func:`write_path_csv` from a file name or
    an open handle, text or binary.

    The CSV does not carry barrier geometry, so it must be supplied (for the
    command-line tools it comes from the model configuration file).  The
    file's bytes are read once, text encoded as UTF-8, and ``\\r\\n`` and
    ``\\r`` end lines as ``\\n`` does, as in a file opened in text mode.  The
    body goes to the compiled ``read_rows`` as it is, and what that gives
    back is decoded and read by ``np.loadtxt``.  The path keeps the first
    time of the t column as its ``t0``, and its ``h`` is the step of the
    grid ``t0 + k h`` that every time must lie on, within 1e-9 h and the
    rounding of the times (see :func:`_grid_step`).  A file written from
    t0 = 0 reads back with the bits of its h; one written from any other
    t0 with an h within a few ulps of max(|t0|, |tn|) / n of it.
    """
    headers = ("t,x,l,r", "t,x,l")
    try:
        if hasattr(src, "read"):
            raw = src.read()
            if isinstance(raw, str):
                raw = raw.encode("utf-8")
        else:
            raw = Path(src).read_bytes()
        # on a 2,001-row file (86 kB, 2-vCPU Xeon) the test for one byte
        # takes about 1.2 µs, a replace of b"\r\n" that finds none 89 µs
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        first, _, body = raw.partition(b"\n")
        header = first.decode("utf-8").strip()
        if header not in headers:
            raise DataError(f"unrecognized CSV header {header!r}, expected {headers}")
        ncol = header.count(",") + 1
        data = _read_rows(body, ncol)
        if data is None:
            lines = io.StringIO(body.decode("utf-8")).readlines()
            # a header-only file would make np.loadtxt warn before the row check
            if not any(line.split("#", 1)[0].strip() for line in lines):
                raise DataError(f"CSV must have >= 2 rows with the columns {header!r}")
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except DataError:
        raise
    except ValueError as exc:  # a non-numeric cell, a ragged row, undecodable bytes
        raise DataError(f"malformed CSV: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != ncol:
        raise DataError(f"CSV must have >= 2 rows with the columns {header!r}")
    h = _grid_step(data[:, 0])
    r = data[:, 3] if ncol == 4 else np.zeros(len(data))
    return SamplePath(h=h, x=data[:, 1], l=data[:, 2], r=r, barriers=barriers,
                      t0=data[0, 0])
