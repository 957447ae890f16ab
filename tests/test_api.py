"""The public surface of ``reflectsde``."""

import inspect
import math

import numpy as np
import pytest
from scipy import stats

import reflectsde as rs
from reflectsde import cli, model, rng

from conftest import fresh_interpreter, power_model

# The names the benchmark in perfbench/workloads.py calls as ``rs.<name>``;
# dropping one from __all__ breaks its timed and traced runs.
_BENCHMARK_NAMES = (
    "BarrierConfig", "DriftSpec", "EstimateResult", "LEPINGLE", "McConfig",
    "ModelConfig", "SamplePath", "SamplingPlan", "SimOptions", "TwoFactorMcConfig",
    "confidence_interval", "estimate_nlse", "estimate_power_closed_form",
    "estimate_two_factor", "information", "invariant_density", "nlse_optimize",
    "read_path_csv", "run_mc", "run_mc_two_factor", "simulate_path",
    "simulate_two_factor", "summarize",
)

# The names perfbench/workloads.py calls from the submodules, and the
# keyword it passes to both Monte Carlo drivers.
_BENCHMARK_MODULE_NAMES = (
    (cli, "main"), (cli, "parse_config"), (rng, "derive_seed"), (rng, "path_draws"),
    (model, "POWER"),
)


def test_every_exported_name_resolves():
    assert len(set(rs.__all__)) == len(rs.__all__)
    missing = [name for name in rs.__all__ if not hasattr(rs, name)]
    assert not missing


def test_benchmark_names_stay_exported():
    missing = [name for name in _BENCHMARK_NAMES if name not in rs.__all__]
    assert not missing


def test_benchmark_module_names_resolve():
    missing = [f"{mod.__name__}.{name}" for mod, name in _BENCHMARK_MODULE_NAMES
               if not hasattr(mod, name)]
    assert not missing


def test_benchmark_passes_workers_to_the_drivers():
    for driver in (rs.run_mc, rs.run_mc_two_factor):
        assert "workers" in inspect.signature(driver).parameters


# scipy.stats and scipy.integrate (with the linalg, optimize and sparse
# modules they pull in) cost about 0.7 s to import; nothing but
# `mc --zscores` and a custom drift's scale_density uses them.
_DEFERRED = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg",
             "scipy.sparse")
# Nor does any command need scipy.special's package (the five ufuncs come
# from its compiled _ufuncs), whose __init__ loads scipy's array-API layer
# and with it numpy.f2py, numpy.ma and numpy.testing.
_UNUSED = _DEFERRED + ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.ma",
                       "numpy.testing")

_CLI_IN_A_FRESH_INTERPRETER = """
import json, runpy, sys
import reflectsde.cli
watched = %r
seen = {"import": sorted(m for m in watched if m in sys.modules)}
for argv in %r:
    sys.argv = ["reflectsde", *argv]
    try:  # what `python -m reflectsde ...` runs
        runpy.run_module("reflectsde", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        seen[argv[0] + " status"] = stop.code
    seen[argv[0]] = sorted(m for m in watched if m in sys.modules)
print(json.dumps(seen))
"""

_LAZY_USERS_IN_A_FRESH_INTERPRETER = """
import json, sys
import numpy as np
import reflectsde as rs
drift = rs.DriftSpec.custom(f=lambda x, th: -th * x, df_dtheta=lambda x, th: -x + 0.0 * th,
                            d2f_dtheta2=lambda x, th: 0.0 * x, lipschitz_bound=10.0)
custom = rs.ModelConfig(drift=drift, sigma=0.2, barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                        theta_domain=(0.01, 10.0), x0=1.0)
power = rs.ModelConfig(drift=rs.DriftSpec.power(1.0), sigma=0.2,
                       barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                       theta_domain=(0.01, 10.0), x0=1.0)
watched = %r
out = {"before": sorted(m for m in watched if m in sys.modules)}
out["values"] = rs.invariant_density(custom, 2.0).values.tolist()
out["information"] = rs.information(custom, 2.0)
out["quadrature"] = sorted(m for m in watched if m in sys.modules)
plan = rs.SamplingPlan(n=200, h=0.01)
path = rs.simulate_path(custom, 2.0, plan, rs.SimOptions(seed=3))
result = rs.estimate_nlse(path, custom, plan)
out["estimate_nlse"] = [result.theta_hat, result.stderr]
out["estimate"] = sorted(m for m in watched if m in sys.modules)
out["scale"] = rs.scale_density(custom, 2.0, 1.5)
out["scale_density"] = sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules)
estimates = 2.0 + 0.01 * np.random.default_rng(7).standard_normal(50)
report = rs.normality_diagnostic(estimates, 2.0, rs.SamplingPlan(n=1000, h=0.01), power)
out["z"] = report.z.tolist()
out["ks"] = [report.ks_statistic, report.ks_pvalue]
out["after"] = sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules)
print(json.dumps(out))
"""


def test_common_commands_import_no_heavy_scipy(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("drift.kind = power\ndrift.gamma = 0.5\nsigma = 0.2\nbarrier.a = 0.0\n"
                   "barrier.b = 3.0\ntheta.lo = 0.01\ntheta.hi = 10.0\ntheta.true = 2.0\n"
                   "x0 = 1.0\nn = 200\nh = 0.01\nseed = 42\n")
    csv = tmp_path / "path.csv"
    commands = (("simulate", "--config", str(cfg), "--out", str(csv)),
                ("estimate", "--config", str(cfg), "--path", str(csv)),
                ("density", "--config", str(cfg), "--out", str(tmp_path / "pi.csv")),
                ("ginfo", "--config", str(cfg), "--points", "3",
                 "--out", str(tmp_path / "g.csv")),
                ("mc", "--config", str(cfg), "--reps", "3", "--n", "50",
                 "--out-dir", str(tmp_path / "mc")))
    seen = fresh_interpreter(_CLI_IN_A_FRESH_INTERPRETER % (_UNUSED, commands), tmp_path)
    assert seen["import"] == []
    for argv in commands:
        assert seen[argv[0] + " status"] == 0, argv[0]
        assert seen[argv[0]] == [], argv[0]


def test_lazy_scipy_users_work_in_a_fresh_interpreter(tmp_path):
    out = fresh_interpreter(_LAZY_USERS_IN_A_FRESH_INTERPRETER % (_DEFERRED,), tmp_path)
    assert out["before"] == []
    # a custom drift's quadrature and stderr are numpy's own; only its
    # scale_density imports scipy.integrate
    assert out["quadrature"] == out["estimate"] == []
    assert out["scale_density"] == ["scipy.integrate"]
    assert out["after"] == ["scipy.integrate", "scipy.stats"]
    # the custom drift -theta*x is the built-in power drift with gamma = 1
    power = power_model(1.0)
    np.testing.assert_allclose(out["values"], rs.invariant_density(power, 2.0).values,
                               rtol=1e-9)
    assert out["information"] == pytest.approx(rs.information(power, 2.0), rel=1e-9)
    theta_hat, stderr = out["estimate_nlse"]
    assert stderr == pytest.approx(
        rs.asymptotic_stderr(theta_hat, power, rs.SamplingPlan(n=200, h=0.01)), rel=1e-9)
    # exp(-(2/sigma^2) * integral_0^1.5 (-2y) dy) = exp(2.25 / 0.02)
    assert out["scale"] == pytest.approx(math.exp(2.25 / 0.02), rel=1e-12)
    ks = stats.kstest(np.array(out["z"]), "norm")
    assert out["ks"] == [ks.statistic, ks.pvalue]
