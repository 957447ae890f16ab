"""The public surface of ``reflectsde``."""

import inspect

import reflectsde as rs
from reflectsde import cli, model, rng

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
