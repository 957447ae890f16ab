"""Shared model builders and the expensive session-scoped Monte Carlo runs
reused by the harness tests and the acceptance suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reflectsde as rs
from reflectsde import _native

ROOT_SEED = 202608


def fresh_interpreter(code: str, cwd: Path, env: dict[str, str] | None = None) -> dict:
    """The JSON object on the last stdout line of ``python -c code`` run in a
    new interpreter that imports this checkout's package, with ``env``
    added to its environment."""
    src = str(Path(rs.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=240, env=env, cwd=cwd, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def power_model(
    gamma: float,
    two_sided: bool = True,
    sigma: float = 0.2,
    theta_domain: tuple[float, float] = (0.01, 10.0),
) -> rs.ModelConfig:
    """The benchmark mean-reverting power model on [0, 3] (x0 = 1 two-sided,
    x0 = 0.5 one-sided)."""
    barriers = (
        rs.BarrierConfig.two_sided(0.0, 3.0)
        if two_sided
        else rs.BarrierConfig.one_sided_lower(0.0)
    )
    return rs.ModelConfig(
        drift=rs.DriftSpec.power(gamma),
        sigma=sigma,
        barriers=barriers,
        theta_domain=theta_domain,
        x0=1.0 if two_sided else 0.5,
    )


@pytest.fixture(scope="session")
def table1_runs():
    """gamma = 1/2 benchmark at n = 200: two-sided and one-sided sweeps,
    200 replications each, with the wall-clock time of the whole block."""
    plan = rs.SamplingPlan(n=200, h=0.01)
    sim = rs.SimOptions(seed=ROOT_SEED)
    t0 = time.perf_counter()
    run_two = rs.run_mc(rs.McConfig(
        model=power_model(0.5, two_sided=True), theta0=2.0, plan=plan, sim=sim,
        replications=200, n_values=(200,),
    ))
    run_one = rs.run_mc(rs.McConfig(
        model=power_model(0.5, two_sided=False), theta0=2.0, plan=plan, sim=sim,
        replications=200, n_values=(200,),
    ))
    elapsed = time.perf_counter() - t0
    return run_two, run_one, elapsed


@pytest.fixture(scope="session")
def table2_run():
    """gamma = 2/3 one-sided sweep over n in {50, 100, 200}."""
    plan = rs.SamplingPlan(n=200, h=0.01)
    sim = rs.SimOptions(seed=ROOT_SEED + 1)
    return rs.run_mc(rs.McConfig(
        model=power_model(2.0 / 3.0, two_sided=False), theta0=2.0, plan=plan,
        sim=sim, replications=200, n_values=(50, 100, 200),
    ))


@pytest.fixture(scope="session")
def table3_runs():
    """Two-factor sweep at n = 5000, 200 replications, with wall-clock."""
    cfg = rs.TwoFactorMcConfig(
        y0=1.0, r0=0.5, theta1=1.0, theta2=1.0, sigma=0.1, a=0.0, b=3.0,
        plan=rs.SamplingPlan(n=5000, h=0.01), sim=rs.SimOptions(seed=ROOT_SEED + 2),
        replications=200, n_values=(5000,),
    )
    t0 = time.perf_counter()
    run1, run2 = rs.run_mc_two_factor(cfg)
    elapsed = time.perf_counter() - t0
    return run1, run2, elapsed


@pytest.fixture(scope="session")
def ou_nh100():
    """Reflected linear-drift model (gamma = 1) at nh = 100: 500 replicate
    estimates for the normality checks."""
    model = power_model(1.0, two_sided=True)
    plan = rs.SamplingPlan(n=10_000, h=0.01)
    run = rs.run_mc(rs.McConfig(
        model=model, theta0=2.0, plan=plan, sim=rs.SimOptions(seed=ROOT_SEED + 3),
        replications=500, n_values=(10_000,),
    ))
    return model, plan, run.estimates[10_000]


@pytest.fixture
def python_stepper(monkeypatch):
    """Run without the compiled library: built-in drifts on the Python
    stepper, path CSVs through ``np.loadtxt``."""
    monkeypatch.setattr(_native, "load", lambda: None)
