"""The compiled fine-step kernel: bit-for-bit parity with the Python
stepper, the build cache, and the fallback when no compiler is found; and
the Eisel-Lemire conversion of the compiled CSV reader."""

import ctypes
import decimal
import functools
import gc
import importlib.resources
import inspect
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectsde as rs
from reflectsde import _native, estimate, simulate

import test_simulate
from conftest import power_model

_PLAN = rs.SamplingPlan(n=40, h=0.01)


def _outcome(run):
    """The bytes of every array of the paths ``run()`` returns, or the
    exception it raises."""
    try:
        paths = run()
    except Exception as exc:  # both backends must fail alike
        return type(exc).__name__, str(exc)
    return [np.ascontiguousarray(arr).tobytes() for p in paths
            for arr in (p.x, p.l, p.r, p.hit_lower, p.hit_upper)]


def _on_both_backends(run):
    native = _outcome(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        python = _outcome(run)
    return native, python


def _model(kind, gamma=0.5, covariate=-1.0, sigma=0.8, two_sided=True, x0=0.5):
    drift = {
        "power": lambda: rs.DriftSpec.power(gamma),
        "mean_reversion": rs.DriftSpec.mean_reversion_to_one,
        "shifted_covariate": lambda: rs.DriftSpec.shifted_covariate(covariate),
    }[kind]()
    barriers = (rs.BarrierConfig.two_sided(0.0, 1.0) if two_sided
                else rs.BarrierConfig.one_sided_lower(0.0))
    return rs.ModelConfig(drift=drift, sigma=sigma, barriers=barriers,
                          theta_domain=(-1000.0, 1000.0), x0=x0)


def _power_path():
    return rs.simulate_path(_model("power"), 2.0, _PLAN, rs.SimOptions(substeps=5, seed=3))


class TestParity:
    # the exponents the steppers take without pow, x itself and sqrt(x),
    # which a continuous range would almost never draw; and -0.0, whose
    # sqrt is -0.0 where pow(-0.0, 0.5) is +0.0
    @given(
        kind=st.sampled_from(("power", "mean_reversion", "shifted_covariate")),
        gamma=st.sampled_from((0.5, 1.0)) | st.floats(0.0, 1.0, exclude_min=True),
        covariate=st.floats(-2.0, 2.0),
        theta=st.floats(-10.0, 10.0),
        sigma=st.floats(0.0, 2.0),
        x0=st.just(-0.0) | st.floats(0.0, 1.0),
        scheme=st.sampled_from((rs.LEPINGLE, rs.PROJECTION)),
        two_sided=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_single_factor_paths_match(self, kind, gamma, covariate, theta, sigma, x0,
                                       scheme, two_sided, seed):
        config = _model(kind, gamma, covariate, sigma, two_sided, x0)
        opts = rs.SimOptions(scheme=scheme, substeps=5, seed=seed)
        native, python = _on_both_backends(
            lambda: [rs.simulate_path(config, theta, _PLAN, opts)])
        assert native == python

    @given(
        theta1=st.floats(-3.0, 3.0),
        theta2=st.floats(-3.0, 5.0),
        sigma=st.floats(0.0, 1.0),
        y0=st.floats(0.0, 1.5),
        r0=st.floats(0.0, 2.0),
        scheme=st.sampled_from((rs.LEPINGLE, rs.PROJECTION)),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_factor_paths_match(self, theta1, theta2, sigma, y0, r0, scheme, seed):
        opts = rs.SimOptions(scheme=scheme, substeps=5, seed=seed)
        native, python = _on_both_backends(lambda: (lambda tf: [tf.y, tf.rshort])(
            rs.simulate_two_factor(y0, r0, theta1, theta2, sigma, 0.0, 1.5, _PLAN, opts)))
        assert native == python

    # 2,000 intervals of 10 fine steps: long enough for a one-ulp change of
    # the drift on one stepper (x**0.5 by pow rather than sqrt) to show
    @pytest.mark.parametrize("gamma", (0.5, 2.0 / 3.0, 1.0))
    @pytest.mark.parametrize("two_sided", (True, False))
    def test_long_power_paths_match(self, gamma, two_sided):
        config = _model("power", gamma, sigma=0.8, two_sided=two_sided)
        plan = rs.SamplingPlan(n=2000, h=0.01)
        native, python = _on_both_backends(
            lambda: [rs.simulate_path(config, 2.0, plan, rs.SimOptions(substeps=10, seed=2020))])
        assert native == python and isinstance(native, list)

    def test_stepper_holds_its_buffers(self, backend):
        # the kernel is passed addresses, so a buffer that only the stepper
        # refers to must live as long as the stepper does
        n, m = 200, 10
        draws = np.random.default_rng(8)
        z, us = 0.05 * draws.standard_normal(n * m), draws.random(n * m)
        drift = simulate._drift_of_state(rs.DriftSpec.power(0.5), 2.0)

        def run(temporary):
            trace = (np.full(n + 1, 0.5), np.zeros(n + 1), np.zeros(n + 1),
                     np.empty(n, dtype=bool), np.empty(n, dtype=bool))
            held = z.copy(), us.copy()
            buffers = (z.copy(), us.copy()) if temporary else held
            step = simulate._integrate(drift, *buffers, m, 0.0, 1.0, 0.01 / m,
                                       2.0 * 0.8**2 * 0.01 / m, True, trace)
            del buffers
            # memory the size of a buffer, written over
            junk = [np.full(n * m, 7.0) for _ in range(8)]
            step(0, n)
            del junk
            return [arr.tobytes() for arr in trace]

        assert run(temporary=True) == run(temporary=False)

    @pytest.mark.parametrize("gamma", (0.5, 2.0 / 3.0, 1.0))
    @pytest.mark.parametrize("sigma", (0.0, 0.8))
    @pytest.mark.parametrize("scheme", (rs.LEPINGLE, rs.PROJECTION))
    def test_power_paths_from_negative_zero_match(self, gamma, sigma, scheme):
        config = _model("power", gamma, sigma=sigma, x0=-0.0)
        opts = rs.SimOptions(scheme=scheme, substeps=5, seed=9)
        native, python = _on_both_backends(
            lambda: [rs.simulate_path(config, 2.0, _PLAN, opts)])
        assert native == python and isinstance(native, list)

    def test_exploding_mean_reversion_fails_alike(self):
        # theta = -500 repels from 1: the state runs to inf, then NaN
        config = _model("mean_reversion", sigma=0.2, two_sided=False, x0=1.5)
        plan = rs.SamplingPlan(n=250, h=0.01)
        native, python = _on_both_backends(
            lambda: [rs.simulate_path(config, -500.0, plan, rs.SimOptions(seed=0))])
        assert native == python == ("DataError", "path x holds non-finite values")

    @pytest.mark.parametrize("x0, k, count, z, interval", (
        (-0.5, 0, 2, [0.0, 0.0, 0.0, 0.0], 0),
        # the state turns negative in interval 1, whose first step raises
        (0.5, 0, 2, [0.0, -1.0, 0.0, 0.0], 1),
        # a block that starts at interval 1 numbers it in the whole path
        (-0.5, 1, 1, [0.0, 0.0, 0.0, 0.0], 1),
    ))
    def test_power_of_a_negative_state_fails_alike(self, x0, k, count, z, interval):
        # CPython turns (-0.5) ** 0.5 complex where C pow returns NaN: both
        # steppers raise the same DataError; an integer power runs the block
        if _native.load() is None:
            pytest.skip("no compiled kernel")

        def run(gamma):
            trace = (np.full(3, x0), np.zeros(3), np.zeros(3), np.zeros(2, dtype=bool),
                     np.zeros(2, dtype=bool))
            try:
                simulate._integrate((simulate._K_POWER, 1.0, gamma), np.array(z),
                                    np.ones(4), 2, -1.0, np.inf, 0.01, 0.0, True,
                                    trace)(k, count)
            except Exception as exc:  # both steppers must fail alike
                return type(exc).__name__, str(exc)
            return [arr.tobytes() for arr in trace]

        def on_both(gamma):
            native = run(gamma)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_native, "load", lambda: None)
                return native, run(gamma)

        native, python = on_both(0.5)
        assert native == python == ("DataError", "the drift is not a real number in "
                                    f"observation interval {interval}")
        native, python = on_both(1.0)
        assert native == python and isinstance(native, list)

    def test_root_of_minus_infinity_fails_alike(self):
        # sqrt(-inf) is NaN, and math.sqrt refuses every negative state:
        # both steppers stop at -inf under gamma = 0.5, where pow(-inf, 0.5)
        # was inf, and run on under gamma = 2/3, whose pow is still inf
        def run(gamma):
            trace = (np.full(2, -math.inf), np.zeros(2), np.zeros(2),
                     np.zeros(1, dtype=bool), np.zeros(1, dtype=bool))
            z, u = np.zeros(1), np.ones(1)
            try:
                simulate._integrate((simulate._K_POWER, 1.0, gamma), z, u, 1, -math.inf,
                                    math.inf, 0.01, 0.0, False, trace)(0, 1)
            except rs.DataError as exc:
                return str(exc)
            return [arr.tobytes() for arr in trace]

        for gamma, expected in ((0.5, "the drift is not a real number in observation "
                                       "interval 0"), (2.0 / 3.0, None)):
            native = run(gamma)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_native, "load", lambda: None)
                assert run(gamma) == native
            assert native == expected if expected else isinstance(native, list)

    def test_arrays_and_blocks_outside_the_path_are_refused(self):
        # the kernel would read or write past the arrays it is given
        if _native.load() is None:
            pytest.skip("no compiled kernel")
        trace = (np.zeros(3), np.zeros(3), np.zeros(3), np.empty(2, dtype=bool),
                 np.empty(2, dtype=bool))
        args = (np.zeros(4), np.ones(4), 2, 0.0, np.inf, 0.01, 0.0, True, trace)
        drift = (simulate._K_CONSTANT, 0.0, 0.0)
        step = simulate._integrate(drift, *args)
        with pytest.raises(ValueError, match="must lie in the path"):
            step(1, 2)
        with pytest.raises(ValueError, match="must lie in the path"):
            step(0, 3)
        step(0, 2)
        # shift and fine are buffers of a block, of one interval here
        for buffer in ({"fine": np.empty(3)}, {"shift": np.empty(2)}):
            step = simulate._integrate(drift, *args, **buffer)
            with pytest.raises(ValueError, match="must lie in the path and its buffers"):
                step(0, 2)
            step(1, 1)
        with pytest.raises(ValueError, match="contiguous doubles"):
            simulate._integrate(drift, *args, shift=np.empty(8)[::2])

    def test_twins_take_the_same_arguments(self):
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled kernel")
        assert (len(lib.reflect_path.argtypes)
                == len(inspect.signature(simulate._reflect_path).parameters))
        # contrast_residuals takes its arguments fixed in a struct contrast
        # and theta, as its numpy twin, estimate._numpy_contrast_of, takes
        # theta with the rest fixed in its closure; the ctypes mirror must
        # follow the C struct member for member
        source = _native.SOURCE.read_text()
        body = re.search(r"struct contrast \{(.*?)\};", source, re.S).group(1)
        members = []
        for decl in body.split(";")[:-1]:
            ctype, names = re.match(r"\s*((?:const )?\w+)\s+(.*)", decl, re.S).groups()
            for name in names.split(","):
                members.append((name.strip().lstrip("*"), "ptr" if "*" in name else ctype))
        ctypes_of = {"ptr": ctypes.c_void_p, "long": ctypes.c_long, "int": ctypes.c_int,
                     "double": ctypes.c_double}
        assert [(name, ctypes_of[ctype]) for name, ctype in members] == _native.Contrast._fields_
        assert lib.contrast_residuals.argtypes == [ctypes.c_void_p, ctypes.c_double]
        for closure_of in (estimate._contrast_of, estimate._numpy_contrast_of):
            closure = closure_of(_power_path(), rs.DriftSpec.mean_reversion_to_one())
            assert list(inspect.signature(closure).parameters) == ["theta"]

    def test_no_path_falls_back_to_the_python_stepper(self, monkeypatch):
        # with the kernel loaded, every golden path runs without the Python
        # stepper: every kind, both schemes and barriers, and two factors
        if _native.load() is None:
            pytest.skip("no compiled kernel")
        monkeypatch.setattr(simulate, "_reflect_path",
                            lambda *args: _raise(AssertionError("Python stepper ran")))
        golden = test_simulate.TestGoldenPaths()
        for case in test_simulate._GOLDEN_CASES:
            golden.test_path_digest(case)
        for scheme in (rs.LEPINGLE, rs.PROJECTION):
            golden.test_two_factor_digest(scheme)


# the faults that TestCheckPath plants in a valid path
_FAULTS = ("nonfinite", "lower_edge", "upper_edge", "start", "decrease", "r_one_sided",
           "false_hit")


@functools.cache
def _base_path(two_sided):
    """A valid path on [0, 1] or [0, inf) whose regulators both rise in
    some intervals and stay in others."""
    path = rs.simulate_path(_model("mean_reversion", sigma=2.0, two_sided=two_sided), 1.0,
                            _PLAN, rs.SimOptions(substeps=5, seed=2))
    for reg in (path.l, path.r) if two_sided else (path.l,):
        assert 0 < np.count_nonzero(np.diff(reg)) < path.n
    return path


def _planted(data, two_sided, flags):
    """Writable copies of the arrays of a valid path, its hit flags or None
    (a path read from CSV), and up to two faults drawn from _FAULTS."""
    base = _base_path(two_sided)
    x, l, r = (np.array(arr) for arr in (base.x, base.l, base.r))
    hits = [np.array(base.hit_lower), np.array(base.hit_upper)] if flags else [None, None]
    for fault in data.draw(st.lists(st.sampled_from(_FAULTS), max_size=2), label="faults"):
        i = data.draw(st.integers(0, base.n), label="at")
        if fault == "nonfinite":
            arr = data.draw(st.sampled_from((x, l, r)), label="array")
            arr[i] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)), label="value")
        elif fault in ("lower_edge", "upper_edge"):
            # the bound validate computes, and the double one ulp past it
            bound, beyond = ((0.0 - simulate._BARRIER_TOL, -math.inf) if fault == "lower_edge"
                             else (1.0 + simulate._BARRIER_TOL, math.inf))
            x[i] = data.draw(st.sampled_from((bound, np.nextafter(bound, beyond))), label="x")
        elif fault == "start":
            arr = data.draw(st.sampled_from((l, r)), label="regulator")
            arr[0] = data.draw(st.sampled_from((-0.0, 5e-324, -5e-324, 0.25)), label="value")
        elif fault == "decrease":
            arr = data.draw(st.sampled_from((l, r)), label="regulator")
            i = max(i, 1)
            arr[i] = data.draw(st.sampled_from((np.nextafter(arr[i - 1], -math.inf),
                                                arr[i - 1] - 0.1)), label="value")
        elif fault == "r_one_sided":
            # a rise that stays, so r is non-decreasing, or r negated from i
            # on, which is -0.0 where r is 0: equal to 0, and np.diff gives
            # -0.0 at i - 1
            rise = data.draw(st.sampled_from((None, 5e-324, 0.01)), label="rise")
            r[i:] = -r[i:] if rise is None else r[i:] + rise
        elif flags:
            # a regulator that rises where its flag says the barrier was not hit
            side = data.draw(st.sampled_from((0, 1)), label="side")
            rises = np.flatnonzero(np.diff((l, r)[side]) > 0.0)
            if len(rises):
                hits[side][rises[i % len(rises)]] = False
    return base, x, l, r, hits


class TestCheckPath:
    """The compiled check_path against the numpy checks of
    SamplePath.validate, its reference and fallback: the same verdict, the
    numpy message, and increments equal to np.diff's bit for bit."""

    @given(data=st.data(), two_sided=st.booleans(), flags=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_verdict_message_and_increments_match_numpy(self, data, two_sided, flags):
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled library")
        base, x, l, r, hits = _planted(data, two_sided, flags)
        verdicts, taken = [], []
        check = lib.check_path

        def spy(*args):
            verdicts.append(check(*args))
            return verdicts[-1]

        def run():
            path = rs.SamplePath(h=base.h, x=x, l=l, r=r,
                                 barriers=base.barriers, hit_lower=hits[0],
                                 hit_upper=hits[1])
            taken.append(path.increments)
            return [path]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lib, "check_path", spy)
            native, python = _on_both_backends(run)
        assert native == python
        valid = not isinstance(native, tuple)
        assert verdicts == [0 if valid else 1]
        if valid:
            for steps in taken:
                for step, arr in zip(steps, (x, l, r)):
                    assert step.tobytes() == np.diff(arr).tobytes()
        else:
            assert native[0] == "DataError"

    def test_arrays_it_cannot_read_are_left_to_numpy(self):
        # an array of another length, a strided one, read-only increments or
        # no buffer at all: the check reads nothing and sends the path to
        # the numpy checks, with no exception left set
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled library")
        path = _base_path(True)
        n, strided = path.n, np.repeat(path.x, 2)[::2]
        frozen = np.empty(n)
        frozen.setflags(write=False)
        good = {"x": path.x, "l": path.l, "r": path.r, "hit_lo": path.hit_lower,
                "hit_up": path.hit_upper, "dx": np.empty(n), "dl": np.empty(n),
                "dr": np.empty(n)}

        def check(**arrays):
            a = {**good, **arrays}
            return lib.check_path(n, a["x"], a["l"], a["r"], a["hit_lo"], a["hit_up"],
                                  -1e-12, 1.0 + 1e-12, False, a["dx"], a["dl"], a["dr"])

        assert check() == 0
        for bad in ({"x": path.x[:-1]}, {"l": strided}, {"r": list(path.r)},
                    {"hit_up": path.hit_upper[1:]}, {"dl": np.empty(n - 1)},
                    {"dr": frozen}):
            assert check(**bad) == 1, list(bad)


def _custom_model(f, sigma=0.8, two_sided=True, x0=0.5):
    drift = rs.DriftSpec.custom(f=f, df_dtheta=lambda x, th: 0.0,
                                d2f_dtheta2=lambda x, th: 0.0, lipschitz_bound=1.0)
    barriers = (rs.BarrierConfig.two_sided(0.0, 1.0) if two_sided
                else rs.BarrierConfig.one_sided_lower(0.0))
    return rs.ModelConfig(drift=drift, sigma=sigma, barriers=barriers,
                          theta_domain=(-1000.0, 1000.0), x0=x0)


def _raise(exc):
    raise exc


def _unvalidated_path(config, theta, opts, plan=_PLAN):
    """The arrays of the path simulate_path builds, taken before a
    SamplePath checks them, so that a NaN path can be compared byte for
    byte: a namespace of the SamplePath's fields."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "SamplePath", types.SimpleNamespace)
        [path] = simulate._simulate(
            [(simulate._drift_of_state(config.drift, theta), config.x0, opts.seed,
              config.barriers)], config.sigma, plan, opts)
    return path


class TestCustomDriftCallback:
    """A custom drift runs on the compiled kernel, which calls it through the
    Python C API, with the bits, calls and exceptions of the Python
    stepper."""

    @given(
        coefs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
        theta=st.floats(-10.0, 10.0),
        sigma=st.floats(0.0, 2.0),
        x0=st.floats(0.0, 1.0),
        scheme=st.sampled_from((rs.LEPINGLE, rs.PROJECTION)),
        two_sided=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_polynomial_drift_paths_match(self, coefs, theta, sigma, x0, scheme,
                                          two_sided, seed):
        def f(x, th):
            mu = 0.0
            for c in reversed(coefs):
                mu = mu * x + c
            return th * mu

        config = _custom_model(f, sigma, two_sided, x0)
        opts = rs.SimOptions(scheme=scheme, substeps=5, seed=seed)
        native, python = _on_both_backends(
            lambda: [_unvalidated_path(config, theta, opts)])
        assert native == python

    # each drift is the constant theta until it fails: with seed 9 the state
    # runs from 0.5 up past 0.75, then down below 0.3
    @pytest.mark.parametrize("f, expected", (
        (lambda x, th: _raise(ValueError(f"no drift at x={x!r}")) if x < 0.3 else th,
         ("ValueError", "no drift at x=0.29076144268212956")),
        # a custom drift's own TypeError is not taken for a complex power
        (lambda x, th: _raise(TypeError(f"no drift at x={x!r}")) if x < 0.3 else th,
         ("TypeError", "no drift at x=0.29076144268212956")),
        # the first state below 0.35, 0.33650977991681347, gives a complex
        # drift, and the str is not parsed: the conversion, PyFloat_AsDouble
        # or its Python match, refuses both
        (lambda x, th: (x - 0.35) ** 0.5 if x < 0.35 else th,
         ("DataError", "the drift is not a real number in observation interval 25")),
        (lambda x, th: "0.5" if x < 0.35 else th,
         ("DataError", "the drift is not a real number in observation interval 25")),
        # a numpy.complex128 converts to its real part with a ComplexWarning
        # unless it is refused first, whatever its imaginary part
        (lambda x, th: np.complex128(th) if x < 0.35 else th,
         ("DataError", "the drift is not a real number in observation interval 25")),
        (lambda x, th: np.complex128(th, 1.0) if x < 0.35 else th,
         ("DataError", "the drift is not a real number in observation interval 25")),
        # numpy's other complex scalars are not complex subclasses
        (lambda x, th: np.complex64(th) if x < 0.35 else th,
         ("DataError", "the drift is not a real number in observation interval 25")),
        (lambda x, th: np.clongdouble(th) if x < 0.35 else th,
         ("DataError", "the drift is not a real number in observation interval 25")),
        (lambda x, th: math.exp(1000.0 * x) if x > 0.75 else th,
         ("DataError", "the drift left the finite range in observation interval 17: "
                      "math range error")),
        (lambda x, th: th / (x > 0.3),
         ("DataError", "the drift left the finite range in observation interval 30: "
                      "float division by zero")),
        # an int too large for a double fails its conversion
        (lambda x, th: 10 ** 400 if x < 0.3 else th,
         ("DataError", "the drift left the finite range in observation interval 30: "
                      "int too large to convert to float")),
    ), ids=("value-error", "type-error", "complex", "str", "numpy-complex-real",
            "numpy-complex", "complex64", "clongdouble", "overflow", "zero-division",
            "huge-int"))
    def test_failing_drift_fails_alike(self, f, expected):
        config = _custom_model(f, sigma=0.8, two_sided=False)
        opts = rs.SimOptions(substeps=5, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning among them
            native, python = _on_both_backends(
                lambda: [_unvalidated_path(config, 1.0, opts)])
        assert native == python
        assert native[0] == expected[0]
        assert native[1].startswith(expected[1])

    def test_type_error_of_the_drift_propagates_unchanged(self):
        error = TypeError("the drift's own")

        def f(x, th):
            raise error

        for backend in ("native", "python"):
            with pytest.MonkeyPatch.context() as mp:
                if backend == "python":
                    mp.setattr(_native, "load", lambda: None)
                with pytest.raises(TypeError) as raised:
                    _unvalidated_path(_custom_model(f), 1.0, rs.SimOptions(seed=1))
            assert raised.value is error, backend

    def test_drift_is_called_with_the_callers_theta(self):
        class Theta(float):
            pass

        theta = Theta(2.0)
        for backend in ("native", "python"):
            received = []

            def f(x, th):
                received.append(th)
                return th * (1.0 - x)

            with pytest.MonkeyPatch.context() as mp:
                if backend == "python":
                    mp.setattr(_native, "load", lambda: None)
                rs.simulate_path(_custom_model(f), theta, _PLAN, rs.SimOptions(seed=2))
            assert len(received) == _PLAN.n * 10
            assert all(th is theta for th in received), backend

    def test_int_float_and_numpy_results_give_the_same_path(self):
        def run(convert):
            config = _custom_model(lambda x, th: convert(2 if x < 0.5 else -3))
            return [_unvalidated_path(config, 1.0, rs.SimOptions(substeps=5, seed=9))]

        # a 0-d array is real, though its type defines __complex__
        outcomes = [_on_both_backends(lambda: run(convert))
                    for convert in (float, int, np.float64, np.float32, np.longdouble,
                                    np.asarray)]
        native, python = outcomes[0]
        assert isinstance(native, list) and native == python
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_nan_drift_gives_the_same_nan_path(self):
        config = _custom_model(lambda x, th: math.nan if x < 0.3 else th, two_sided=False)
        opts = rs.SimOptions(substeps=5, seed=9)
        native, python = _on_both_backends(
            lambda: [_unvalidated_path(config, 1.0, opts)])
        assert native == python
        x = np.frombuffer(native[0])
        assert np.isnan(x[-1]) and not np.isnan(x[0])

    @pytest.mark.parametrize("fail_at", (None, 1, 57, 200))
    def test_drift_is_called_alike(self, fail_at):
        # the 57th call is fine step 56, in observation interval 11 of 5
        # substeps; the drift is not called again once it has raised
        records = []

        def run():
            record = []
            records.append(record)

            def f(x, th):
                record.append(x)
                if len(record) == fail_at:
                    raise OverflowError("too big")
                return th * (1.0 - x)

            return [_unvalidated_path(_custom_model(f), 2.0, rs.SimOptions(substeps=5, seed=9))]

        native, python = _on_both_backends(run)
        native_calls, python_calls = records
        assert native == python
        assert native_calls == python_calls
        if fail_at is None:
            assert len(native_calls) == _PLAN.n * 5
        else:
            assert len(native_calls) == fail_at
            assert native == ("DataError", "the drift left the finite range in "
                              f"observation interval {(fail_at - 1) // 5}: too big")

    def test_run_mc_with_worker_threads_matches_serial(self):
        config = _custom_model(lambda x, th: th * (1.0 - x) - x ** 3, sigma=0.5)
        cfg = rs.McConfig(model=config, theta0=2.0, plan=_PLAN,
                          sim=rs.SimOptions(substeps=5, seed=21), replications=12,
                          n_values=(20, 40))

        def estimates(workers):
            run = rs.run_mc(cfg, workers=workers)
            return [run.estimates[n].tobytes() for n in cfg.n_values], run.failures

        hook = sys.unraisablehook
        serial = estimates(1)
        assert estimates(2) == serial
        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert estimates(4) == serial
        finally:
            sys.setswitchinterval(interval)
        assert sys.unraisablehook is hook
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            assert estimates(1) == serial

    @pytest.mark.parametrize("exc_type", (KeyboardInterrupt, RecursionError))
    def test_interrupt_in_the_drift_propagates(self, exc_type):
        def f(x, th):
            raise exc_type

        for backend in ("native", "python"):
            with pytest.MonkeyPatch.context() as mp:
                if backend == "python":
                    mp.setattr(_native, "load", lambda: None)
                with pytest.raises(exc_type):
                    _unvalidated_path(_custom_model(f), 1.0, rs.SimOptions(seed=1))

    def test_signal_in_the_drift_propagates(self, monkeypatch):
        # a real SIGINT, raised at call 58, reaches the drift through the
        # interpreter's signal handler; the drift is called no more, and
        # nothing is printed and dropped on the way
        dropped = []
        monkeypatch.setattr(sys, "unraisablehook", dropped.append)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            for backend in ("native", "python"):
                calls = []

                def f(x, th):
                    calls.append(x)
                    if len(calls) == 58:
                        signal.raise_signal(signal.SIGINT)
                    return th * (1.0 - x)

                with pytest.MonkeyPatch.context() as mp:
                    if backend == "python":
                        mp.setattr(_native, "load", lambda: None)
                    with pytest.raises(KeyboardInterrupt):
                        _unvalidated_path(_custom_model(f), 2.0,
                                          rs.SimOptions(substeps=5, seed=9))
                assert 0 < len(calls) <= 58, backend
        finally:
            signal.signal(signal.SIGINT, previous)
        assert dropped == []

    def test_drift_result_and_argument_are_released(self):
        # the kernel owns the state it passes and the value it gets back
        mu = float("0.625")
        config = _custom_model(lambda x, th: mu)
        plan, opts = rs.SamplingPlan(n=2000, h=0.01), rs.SimOptions(substeps=5, seed=4)
        _unvalidated_path(config, 1.0, opts, plan)
        gc.collect()
        refs, blocks = sys.getrefcount(mu), sys.getallocatedblocks()
        path = _unvalidated_path(config, 1.0, opts, plan)
        del path
        gc.collect()
        assert sys.getrefcount(mu) == refs
        # a leaked float per fine step would hold 10**4 blocks
        assert sys.getallocatedblocks() - blocks < 1000

    @pytest.mark.parametrize("fail_at", (None, 120))
    def test_drift_that_simulates_a_path_matches(self, fail_at):
        # each drift call runs a custom path, and one whose drift raises at
        # its first fine step; the outer path still fails where its own
        # drift raises
        inner = _custom_model(lambda x, th: th * (1.0 - x))
        failing = _custom_model(lambda x, th: th / 0.0)
        plan, opts = rs.SamplingPlan(n=2, h=0.01), rs.SimOptions(substeps=2, seed=5)

        def run():
            calls = []

            def f(x, th):
                calls.append(x)
                if len(calls) == fail_at:
                    raise OverflowError("too big")
                with pytest.raises(rs.DataError, match="interval 0: float division"):
                    _unvalidated_path(failing, th, opts, plan)
                return th * (1.0 - x) + 1e-3 * _unvalidated_path(inner, th, opts, plan).x[-1]

            return [_unvalidated_path(_custom_model(f), 2.0, rs.SimOptions(substeps=5, seed=9))]

        native, python = _on_both_backends(run)
        assert native == python
        if fail_at is not None:
            assert native == ("DataError", "the drift left the finite range in "
                              "observation interval 23: too big")


class TestBackend:
    def test_native_with_a_compiler(self):
        expected = "native" if _native.find_compiler() else "python"
        assert simulate.integration_backend() == expected

    def test_forced_python_stepper(self, python_stepper):
        assert simulate.integration_backend() == "python"

    def test_not_exported(self):
        assert "integration_backend" not in rs.__all__

    def test_source_ships_with_the_package(self):
        assert (importlib.resources.files("reflectsde") / "_stepper.c").is_file()


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    _native._load.cache_clear()
    yield
    _native._load.cache_clear()


def _record_opens(monkeypatch):
    """Record, for every library the loader opens, its path and bytes."""
    opened = []
    real_open = _native._open

    def spy(path):
        opened.append((path, path.read_bytes()))
        return real_open(path)

    monkeypatch.setattr(_native, "_open", spy)
    return opened


class TestBuild:
    def test_no_compiler_falls_back_with_one_warning(self, fresh_loader, monkeypatch):
        expected = _outcome(lambda: [_power_path()])
        _native._load.cache_clear()
        monkeypatch.setattr(_native, "find_compiler", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = _outcome(lambda: [_power_path()])
            second = _outcome(lambda: [_power_path()])
            backend = simulate.integration_backend()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "no C compiler" in str(caught[0].message)
        assert backend == "python"
        assert first == second == expected

    def test_concurrent_first_use_loads_once(self, fresh_loader, monkeypatch):
        # more threads than cores race for the first load, whose compiler
        # lookup here sleeps the way a build would; the loader's lock lets
        # exactly one of them try, and warn
        monkeypatch.setattr(_native, "find_compiler", lambda: time.sleep(0.05))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(_outcome, lambda: [_power_path()])
                               for _ in range(16)]
                    outcomes = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(caught) == 1
        assert all(o == outcomes[0] for o in outcomes)

    def test_unloadable_library_falls_back_with_one_warning(self, fresh_loader,
                                                            monkeypatch):
        # an interpreter that does not export the C API functions the
        # library names
        if _native.find_compiler() is None:
            pytest.skip("no C compiler")
        expected = _outcome(lambda: [_power_path()])
        _native._load.cache_clear()

        def refuse(path):
            raise OSError(f"{path}: undefined symbol: PyFloat_AsDouble")

        monkeypatch.setattr(_native, "_open", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _native.load() is None
            assert _native.load() is None
            assert _outcome(lambda: [_power_path()]) == expected
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "undefined symbol: PyFloat_AsDouble" in str(caught[0].message)

    def test_unloadable_library_is_built_once(self, fresh_loader, monkeypatch, tmp_path):
        # a library that built but does not load is not built again in a
        # temporary directory, and the warning names the load, not the build
        if _native.find_compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        runs = []
        real_run = subprocess.run

        def spy(*args, **kwargs):
            runs.append(args[0])
            return real_run(*args, **kwargs)

        def refuse(path):
            raise OSError(f"{path}: undefined symbol: PyFloat_AsDouble")

        monkeypatch.setattr(subprocess, "run", spy)
        monkeypatch.setattr(_native, "_open", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _native.load() is None
        assert len(runs) == 1
        assert [w.category for w in caught] == [RuntimeWarning]
        message = str(caught[0].message)
        assert f"loading {_native.library_name()} failed" in message
        assert "undefined symbol: PyFloat_AsDouble" in message
        assert "building" not in message

    def test_failing_compiler_falls_back(self, fresh_loader, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "find_compiler", lambda: "false")
        with pytest.warns(RuntimeWarning, match="false failed"):
            assert _native.load() is None

    def test_fallback_warns_once_on_stderr(self, tmp_path):
        code = (
            "import reflectsde as rs\n"
            "from reflectsde import simulate\n"
            "m = rs.ModelConfig(drift=rs.DriftSpec.power(0.5), sigma=0.2,\n"
            "    barriers=rs.BarrierConfig.one_sided_lower(0.0),\n"
            "    theta_domain=(0.01, 10.0), x0=0.5)\n"
            "for seed in (1, 2):\n"
            "    rs.simulate_path(m, 2.0, rs.SamplingPlan(n=10, h=0.01),\n"
            "                     rs.SimOptions(seed=seed))\n"
            "print(simulate.integration_backend())\n"
        )
        src = Path(rs.__file__).resolve().parent.parent
        env = {"PATH": "", "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(tmp_path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "python\n"
        assert done.stderr.count("RuntimeWarning") == 1
        assert not any(tmp_path.rglob("*.so"))

    def test_unwritable_cache_dir_builds_in_a_temp_dir(self, fresh_loader, monkeypatch,
                                                       tmp_path):
        if _native.find_compiler() is None:
            pytest.skip("no C compiler")
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        opened = _record_opens(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _native.load() is not None
            assert simulate.integration_backend() == "native"
        (path, _), = opened
        assert Path(tempfile.gettempdir()) in path.parents
        assert not path.parent.exists()  # the temp dir is removed once loaded
        path_bytes = _outcome(lambda: [_power_path()])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            assert _outcome(lambda: [_power_path()]) == path_bytes

    def test_truncated_cached_library_is_rebuilt(self, fresh_loader, monkeypatch, tmp_path):
        if _native.find_compiler() is None:
            pytest.skip("no C compiler")
        # build into one cache, then plant half of that library where a
        # second cache expects it (a path this process has never loaded)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "first"))
        opened = _record_opens(monkeypatch)
        assert _native.load() is not None
        (_, whole), = opened
        _native._load.cache_clear()
        opened.clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second"))
        lib = _native.cache_dir() / _native.library_name()
        lib.parent.mkdir(parents=True)
        lib.write_bytes(whole[: len(whole) // 2])
        assert _native.load() is not None
        (path, loaded), = opened
        assert path == lib
        assert len(loaded) == len(whole)
        assert _native._intact(lib)

    def test_build_removes_stale_libraries(self, fresh_loader, monkeypatch, tmp_path):
        if _native.find_compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = _native.cache_dir()
        cache.mkdir(parents=True)
        long_ago = time.time() - _native.UNUSED_FOR_S - 3600
        for name in ("stepper-0123456789abcdef.so", "stepper-fedcba9876543210.so"):
            (cache / name).write_bytes(b"a library of another source")
            os.utime(cache / name, (long_ago, long_ago))
        # a library loaded lately may belong to another version in use; a
        # directory cannot be unlinked; a build in progress and other files
        # do not match stepper-*.so
        kept = {"stepper-0000000000000000.so", "stepper-dir.so", ".stepper-abc.so",
                "notes.txt"}
        (cache / "stepper-0000000000000000.so").write_bytes(b"")
        (cache / "stepper-dir.so").mkdir()
        os.utime(cache / "stepper-dir.so", (long_ago, long_ago))
        (cache / ".stepper-abc.so").write_bytes(b"")
        (cache / "notes.txt").write_text("")
        assert _native.load() is not None
        assert {p.name for p in cache.iterdir()} == kept | {_native.library_name()}
        # loading a cached library removes nothing, and marks it as loaded
        _native._load.cache_clear()
        lib = cache / _native.library_name()
        os.utime(lib, (long_ago, long_ago))
        (cache / "stepper-0123456789abcdef.so").write_bytes(b"")
        os.utime(cache / "stepper-0123456789abcdef.so", (long_ago, long_ago))
        assert _native.load() is not None
        assert (cache / "stepper-0123456789abcdef.so").exists()
        assert time.time() - lib.stat().st_mtime < 3600


def _pow10_128(q):
    """10^q scaled by a power of two to [2^127, 2^128) and truncated."""
    if q >= 0:
        n = 5**q
        shift = 128 - n.bit_length()
        return n << shift if shift >= 0 else n >> -shift
    d = 5**-q
    return (1 << (127 + d.bit_length())) // d


# Each is read alone and compared bit for bit with np.loadtxt.  The integer
# halfway points that round down to the even neighbour and
# "3.237915274644869e16" fail without the halfway guard of eisel_lemire;
# "4503599627370497.5", the two 19-digit fractions and the two roundings of
# a halfway point fail without its second product.
_FIELDS = (
    # exact halfway points between adjacent doubles, each pair rounding down
    # to the even neighbour and then up
    "10000000000000001", "10000000000000003",
    "4503599627370496.5", "4503599627370497.5",
    "100000000000000008", "100000000000000024",
    "1000000000000000064", "1000000000000000192",
    "2190180552635696.375", "786618438015134.6875",
    "4503599627370496.500000000000000000000000",
    "1000000000000000064.000000000000000000000",
    "3.237915274644869e16",
    # halfway points rounded to 19 significant digits
    "1.239791724290477410e8", "3.638827496688786356",
    # q at both ends of the table and one step beyond each
    "1e-40", "1e-41", "1e10", "1e11",
    "1.2345678901234567e-24", "1.2345678901234567e-25",
    "1.2345678901234567e26", "1.2345678901234567e27",
    # 19 against 20 significant digits; 2^64 + 1 wraps to 1 in 64 bits
    "1234567890123456789", "12345678901234567891",
    "9999999999999999999", "18446744073709551615", "18446744073709551617",
    "0.1234567890123456789", "0.12345678901234567891",
    # long runs of leading and trailing zeros
    "0.000000000000000000000000000000000000001", "0000000000000000000000000001.5",
    "1.5000000000000000000000000000", "100000000000000000000000000000",
    "-0", "0e5", "-0.000e-99999999999", "0e99999999999",
    # an exponent past the point where the scan stops counting it: with the
    # 10^5 fraction digits the scan would see 10^0
    "0." + "0" * 99999 + "1e1000000",
    # the largest and smallest normal doubles
    "1.7976931348623157e308", "-2.2250738585072014e-308",
    # doubles and halfway points with q < 0, which eisel_lemire gives back,
    # read by Clinger's quotient where w <= 2^53 and q >= -22: w = 2^53 - 1,
    # 2^53 and 2^53 + 1 with q = -1, and q = -22 against -23
    "0.5", "0.25", "1.5", "2.5e-1", "-0.125",
    "900719925474099.1", "900719925474099.2", "900719925474099.3",
    "5e-22", "5e-23", "0.0000000000000000000005", "2.384185791015625e-7",
    # digit runs of 7, 8, 9, 16 and 17 digits, which the scan takes eight
    # at a time and one at a time
    "1234567", "12345678", "123456789", "1234567890123456", "12345678901234567",
    "0.1234567", "0.12345678", "0.123456789", "0.1234567890123456",
    "0.12345678901234567", "98765432.12345678e-3",
    # leading zeros that straddle an 8-byte boundary
    "0.000000001234567891", "000000000000123456789.5",
    # 19 against 20 significant digits, the 20th the last digit of an
    # eight-digit chunk and inside one
    "1234.567890123456789", "1234.5678901234567891",
    "12345.67890123456789", "12345.678901234567891234",
)


def _loadtxt_field(field):
    return np.loadtxt([field + "\n"], delimiter=",", ndmin=2)


# the compiler flags of each build that TestCsvFieldConversion compiles
_BUILDS = {"default": (), "without_int128": ("-U__SIZEOF_INT128__",)}


class TestCsvFieldConversion:
    """The Eisel-Lemire conversion in ``read_rows`` and its ``strtod``
    fallback, against exact integers and ``np.loadtxt``."""

    def test_power_table_is_exact(self):
        source = _native.SOURCE.read_text()
        q_min, q_max = map(int, re.search(
            r"enum \{ Q_MIN = (-?\d+), Q_MAX = (-?\d+) \};", source).groups())
        table = source[source.index("POW10[][2] = {"):]
        table = table[:table.index("};")]
        pairs = re.findall(r"\{0x([0-9a-f]{16}), 0x([0-9a-f]{16})\}", table)
        assert [(int(hi, 16) << 64) | int(lo, 16) for hi, lo in pairs] == [
            _pow10_128(q) for q in range(q_min, q_max + 1)]

    @pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f[:45])
    def test_field_reads_as_loadtxt(self, field):
        if _native.load() is None:
            pytest.skip("no compiled library")
        fast = simulate._read_rows((field + "\n").encode(), 1)
        expected = _loadtxt_field(field)
        value = abs(expected[0, 0])
        # every finite normal value or zero is read here; an overflow is
        # handed back
        assert (fast is not None) == (math.isfinite(value)
                                      and (value == 0.0 or value >= sys.float_info.min))
        if fast is not None:
            assert fast.tobytes() == expected.tobytes()

    @given(k=st.integers(1, 2**40), j=st.integers(1, 60))
    @settings(max_examples=300, deadline=None)
    def test_dyadic_fractions_read_as_loadtxt(self, k, j):
        # k / 2^j is a double with j decimal places, which eisel_lemire
        # gives back and Clinger's quotient reads where w <= 2^53, q >= -22
        if _native.load() is None:
            pytest.skip("no compiled library")
        field = format(decimal.Context(prec=100).divide(k, 2**j), "f")
        # a trailing zero makes w ten times larger and q one less
        for text in (field, field + "0"):
            assert (simulate._read_rows((text + "\n").encode(), 1).tobytes()
                    == _loadtxt_field(text).tobytes()), text

    @pytest.mark.parametrize("at", range(9))
    @pytest.mark.parametrize("char", ("/", ":"))
    def test_digit_scan_stops_at_the_neighbours_of_the_digits(self, char, at):
        # "/" and ":" are 0x2F and 0x3A, one either side of the digits: in
        # any byte of an 8-byte word they end the run, and the field with it
        if _native.load() is None:
            pytest.skip("no compiled library")
        digits = "123456789"
        for lead in ("", "0.", "1234567."):
            field = lead + digits[:at] + char + digits[at + 1:]
            assert simulate._read_rows((field + "\n").encode(), 1) is None, field
            assert simulate._read_rows(f"{field},1\n".encode(), 2) is None, field

    def test_digit_run_that_ends_the_text(self):
        # the scan reads no byte past the length it is given: an 8-digit
        # run that ends the text ends no row, though a newline follows it
        lib = _native.load()
        if lib is None:
            pytest.skip("no compiled library")
        out = np.empty((4, 1))
        for text in ("12345678", "1\n12345678", "1\n0.12345678", "1\n1234567812345678"):
            raw = (text + "9\n").encode()
            assert lib.read_rows(raw, len(text), 1, out.ctypes.data, 4) == -1, text
            assert lib.read_rows(raw, len(raw), 1, out.ctypes.data, 4) == text.count("\n") + 1
            assert simulate._read_rows(text.encode(), 1) is None
            lines = [line + "\n" for line in text.split("\n")]
            assert (simulate._read_rows("".join(lines).encode(), 1).tobytes()
                    == np.loadtxt(lines, delimiter=",", ndmin=2).tobytes())

    @pytest.fixture(scope="class")
    def strict_builds(self, tmp_path_factory):
        """Each of ``_BUILDS`` compiled with -Wall -Wextra -Werror: the
        compiler's result and the library's path, by build."""
        compiler = _native.find_compiler()
        if compiler is None:
            pytest.skip("no C compiler")
        builds = {}
        for build, extra in _BUILDS.items():
            lib = tmp_path_factory.mktemp(build) / "stepper.so"
            builds[build] = subprocess.run(
                [compiler, *_native.FLAGS, "-Wall", "-Wextra", "-Werror", *extra,
                 "-o", str(lib), str(_native.SOURCE), "-lm"],
                capture_output=True, text=True, timeout=120), lib
        return builds

    @pytest.mark.parametrize("build", _BUILDS)
    def test_source_compiles_without_warnings(self, build, strict_builds):
        # without __int128, read_rows converts every field by strtod and
        # write_rows hands every row back
        done, lib = strict_builds[build]
        assert done.returncode == 0, done.stderr
        built = _native._open(lib)
        # write_rows formats with __int128 and hands every value back without
        values = [0.5, -0.0, 1e-5, 123.25, math.nan]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "load", lambda: built)
            assert test_simulate._written("v", values) == test_simulate._formatted("v", values)
        col = np.array(values[:-1])
        out = np.empty(len(col) * simulate._FIELD_BYTES, dtype=np.uint8)
        size = built.write_rows(np.array([col.ctypes.data], dtype=np.uintp).ctypes.data, 1,
                                len(col), out.ctypes.data, len(out))
        assert (size < 0) == (build == "without_int128")
        for field in _FIELDS:
            raw = (field + "\n").encode()
            out = np.empty((1, 1))
            if built.read_rows(raw, len(raw), 1, out.ctypes.data, 1) == 1:
                assert out.tobytes() == _loadtxt_field(field).tobytes(), field
        # a custom path, and one whose drift raises, through this build
        for f in (lambda x, th: th * (1.0 - x) - x ** 3,
                  lambda x, th: th / (x > 0.3)):
            config = _custom_model(f, two_sided=False)
            run = lambda: [_unvalidated_path(config, 1.0, rs.SimOptions(substeps=5, seed=9))]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_native, "load", lambda: built)
                native = _outcome(run)
                mp.setattr(_native, "load", lambda: None)
                assert native == _outcome(run)

    def test_builds_with_and_without_int128_read_alike(self, strict_builds):
        # every directed field, read or handed back, and the body of a
        # written two-sided path, which the default build converts by
        # Eisel-Lemire and the other by strtod
        libs = []
        for done, lib in strict_builds.values():
            assert done.returncode == 0, done.stderr
            libs.append(_native._open(lib))

        def read(lib, raw, ncol, maxrows):
            out = np.empty((maxrows, ncol))
            rows = lib.read_rows(raw, len(raw), ncol, out.ctypes.data, maxrows)
            return rows, out[:max(rows, 0)].tobytes()

        path = rs.simulate_path(power_model(0.5), 2.0, rs.SamplingPlan(n=2000, h=0.01),
                                rs.SimOptions(seed=11))
        written = io.StringIO()
        rs.write_path_csv(path, written)
        body = written.getvalue().split("\n", 1)[1].encode()
        default, portable = (read(lib, body, 4, 2001) for lib in libs)
        assert default[0] == 2001
        assert default == portable
        for field in _FIELDS:
            raw = (field + "\n").encode()
            assert read(libs[0], raw, 1, 1) == read(libs[1], raw, 1, 1), field
