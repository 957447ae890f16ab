"""The public surface of ``reflectsde``."""

import ast
import inspect
from pathlib import Path

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


# The whole public surface, sorted: adding or removing a name is an edit here.
_PUBLIC_NAMES = (
    "BarrierConfig", "ConfigError", "DataError", "DensityGrid", "DriftSpec",
    "EstimateResult", "LEPINGLE", "McConfig", "McRun", "McSummary", "ModelConfig",
    "ModelError", "NormalityReport", "PROJECTION", "RegimeDiagnostics", "SamplePath",
    "SamplingPlan", "SimOptions", "TwoFactorMcConfig", "TwoFactorPath", "UsageError",
    "__version__", "asymptotic_stderr", "confidence_interval", "contrast",
    "estimate_nlse", "estimate_power_closed_form", "estimate_two_factor", "information",
    "invariant_density", "minimize_unimodal", "nlse_optimize", "normality_diagnostic",
    "read_path_csv", "run_mc", "run_mc_two_factor", "simulate_path",
    "simulate_two_factor", "stationary_average", "summarize", "validate_regime",
    "write_path_csv",
)

# The public names that no code of the package (outside __init__.py),
# perfbench/ or tools/ reads, each with the reason it stays public.
_UNREAD_PUBLIC_NAMES = {
    "stationary_average": "the acceptance tests average over a stationary grid with it",
    "validate_regime": "the regime check a run record is to carry (ROADMAP Direction 7)",
}

_ROOT = Path(__file__).resolve().parents[1]


def test_public_surface_is_pinned():
    assert _PUBLIC_NAMES == tuple(sorted(_PUBLIC_NAMES))
    assert tuple(sorted(rs.__all__)) == _PUBLIC_NAMES


def test_every_public_name_is_read():
    # a name that only its own definition and __all__ mention is surface
    # to keep for no caller; dropping it is an edit of _PUBLIC_NAMES
    files = [path for path in (_ROOT / "src" / "reflectsde").glob("*.py")
             if path.name != "__init__.py"]
    files += [*(_ROOT / "perfbench").rglob("*.py"), *(_ROOT / "tools").rglob("*.py")]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(set(rs.__all__) - read - set(_UNREAD_PUBLIC_NAMES)) == []
    # an entry whose name is read, or no longer public, is stale
    assert sorted(name for name in _UNREAD_PUBLIC_NAMES
                  if name in read or name not in rs.__all__) == []


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


# scipy.stats (with the integrate, linalg, optimize and sparse modules it
# pulls in) costs about 0.7 s to import; nothing but the normality
# diagnostic of `mc --zscores` uses it, and no code of the package imports
# scipy.integrate.
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
import builtins, json, sys
import numpy as np
import reflectsde as rs
requested = set()  # the scipy modules the package's own code imports from here on
def recording_import(name, globals=None, locals=None, fromlist=(), level=0,
                     _import=builtins.__import__):
    if (level == 0 and name.split(".")[0] == "scipy"
            and (globals or {}).get("__name__", "").startswith("reflectsde")):
        requested.update([f"{name}.{item}" for item in fromlist] if fromlist else [name])
    return _import(name, globals, locals, fromlist, level)
builtins.__import__ = recording_import
def seen():
    return {"loaded": sorted(m for m in watched if m in sys.modules),
            "imported": sorted(requested)}
drift = rs.DriftSpec.custom(f=lambda x, th: -th * x, df_dtheta=lambda x, th: -x + 0.0 * th,
                            d2f_dtheta2=lambda x, th: 0.0 * x, lipschitz_bound=10.0)
custom = rs.ModelConfig(drift=drift, sigma=0.2, barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                        theta_domain=(0.01, 10.0), x0=1.0)
power = rs.ModelConfig(drift=rs.DriftSpec.power(1.0), sigma=0.2,
                       barriers=rs.BarrierConfig.two_sided(0.0, 3.0),
                       theta_domain=(0.01, 10.0), x0=1.0)
watched = %r
out = {"before": seen()}
out["values"] = rs.invariant_density(custom, 2.0).values.tolist()
out["invariant_density"] = seen()
out["information"] = rs.information(custom, 2.0)
out["quadrature"] = seen()
plan = rs.SamplingPlan(n=200, h=0.01)
path = rs.simulate_path(custom, 2.0, plan, rs.SimOptions(seed=3))
result = rs.estimate_nlse(path, custom, plan)
out["estimate_nlse"] = [result.theta_hat, result.stderr]
out["estimate"] = seen()
estimates = 2.0 + 0.01 * np.random.default_rng(7).standard_normal(50)
report = rs.normality_diagnostic(estimates, 2.0, rs.SamplingPlan(n=1000, h=0.01), power)
out["z"] = report.z.tolist()
out["ks"] = [report.ks_statistic, report.ks_pvalue]
out["after"] = seen()
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
    # a custom drift's quadrature and stderr are numpy's own
    nothing = {"loaded": [], "imported": []}
    for step in ("before", "invariant_density", "quadrature", "estimate"):
        assert out[step] == nothing, step
    # the diagnostic imports scipy.stats and nothing else of scipy; what
    # else is loaded after it (scipy.integrate among them) scipy.stats loads
    assert out["after"]["imported"] == ["scipy.stats"]
    assert "scipy.stats" in out["after"]["loaded"]
    # the custom drift -theta*x is the built-in power drift with gamma = 1
    power = power_model(1.0)
    np.testing.assert_allclose(out["values"], rs.invariant_density(power, 2.0).values,
                               rtol=1e-9)
    assert out["information"] == pytest.approx(rs.information(power, 2.0), rel=1e-9)
    theta_hat, stderr = out["estimate_nlse"]
    assert stderr == pytest.approx(
        rs.asymptotic_stderr(theta_hat, power, rs.SamplingPlan(n=200, h=0.01)), rel=1e-9)
    ks = stats.kstest(np.array(out["z"]), "norm")
    assert out["ks"] == [ks.statistic, ks.pvalue]
