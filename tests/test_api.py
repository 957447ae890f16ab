"""The public surface of ``reflectsde``."""

import reflectsde as rs

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


def test_every_exported_name_resolves():
    assert len(set(rs.__all__)) == len(rs.__all__)
    missing = [name for name in rs.__all__ if not hasattr(rs, name)]
    assert not missing


def test_benchmark_names_stay_exported():
    missing = [name for name in _BENCHMARK_NAMES if name not in rs.__all__]
    assert not missing
