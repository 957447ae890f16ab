"""The compiled fine-step kernel: bit-for-bit parity with the Python
stepper, the build cache, and the fallback when no compiler is found."""

import importlib.resources
import subprocess
import sys
import tempfile
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflectsde as rs
from reflectsde import _native, simulate

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
    @given(
        kind=st.sampled_from(("power", "mean_reversion", "shifted_covariate")),
        gamma=st.floats(0.0, 1.0, exclude_min=True),
        covariate=st.floats(-2.0, 2.0),
        theta=st.floats(-10.0, 10.0),
        sigma=st.floats(0.0, 2.0),
        x0=st.floats(0.0, 1.0),
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

    def test_exploding_mean_reversion_fails_alike(self):
        # theta = -500 repels from 1: the state runs to inf, then NaN
        config = _model("mean_reversion", sigma=0.2, two_sided=False, x0=1.5)
        plan = rs.SamplingPlan(n=250, h=0.01)
        native, python = _on_both_backends(
            lambda: [rs.simulate_path(config, -500.0, plan, rs.SimOptions(seed=0))])
        assert native == python == ("DataError", "path x holds non-finite values")

    def test_power_of_a_negative_state_defers_to_python(self):
        # CPython turns (-0.5) ** 0.5 complex where C pow returns NaN, so
        # the kernel gives the path back; an integer power stays native
        kernel = _native.load()
        if kernel is None:
            pytest.skip("no compiled kernel")
        z, u = np.zeros(4), np.ones(4)
        args = (-0.5, z, u, 2, 2, -1.0, np.inf, 0.01, 0.0, True)
        assert simulate._native_path(kernel, (simulate._K_POWER, 1.0, 0.5), *args) is None
        assert simulate._native_path(kernel, (simulate._K_POWER, 1.0, 1.0), *args) is not None


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
