"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single pass/fail line with the measured values (run with
``pytest -s`` to see the lines for passing criteria as well).
"""

import numpy as np
from scipy import stats as scistats

import reflectsde as rs
from reflectsde import rng as rng_mod

from conftest import power_model


def _criterion(num: int, name: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(passed for _, passed, _ in checks)
    parts = "; ".join(
        f"{desc}: {value} [{'ok' if passed else 'FAIL'}]"
        for desc, passed, value in checks
    )
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} | {parts}")
    assert ok, f"criterion {num} failed: {parts}"


def test_criterion_1_table1_reproduction(table1_runs):
    run_two, run_one, elapsed = table1_runs
    s_two = run_two.summary(2.0, 200)
    s_one = run_one.summary(2.0, 200)
    _criterion(1, "two- and one-sided bias/std at n=200", [
        ("|bias| two-sided <= 0.02", abs(s_two.bias) <= 0.02, f"{s_two.bias:+.4f}"),
        ("std two-sided in [0.02, 0.05]", 0.02 <= s_two.std_dev <= 0.05,
         f"{s_two.std_dev:.4f}"),
        ("std one-sided in [0.004, 0.016]", 0.004 <= s_one.std_dev <= 0.016,
         f"{s_one.std_dev:.4f}"),
        ("runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_2_table2_reproduction(table2_run):
    s50 = table2_run.summary(2.0, 50)
    s100 = table2_run.summary(2.0, 100)
    s200 = table2_run.summary(2.0, 200)
    _criterion(2, "one-sided std rank order, gamma=2/3", [
        ("std(50) > std(100) > std(200)",
         s50.std_dev > s100.std_dev > s200.std_dev,
         f"{s50.std_dev:.4f} > {s100.std_dev:.4f} > {s200.std_dev:.4f}"),
        ("std(200) in [0.003, 0.012]", 0.003 <= s200.std_dev <= 0.012,
         f"{s200.std_dev:.4f}"),
    ])


def test_criterion_3_table3_two_factor(table3_runs):
    run1, run2, elapsed = table3_runs
    s1 = run1.summary(1.0, 5000)
    s2 = run2.summary(1.0, 5000)
    _criterion(3, "two-factor bias/std at n=5000", [
        ("|bias(theta1)| <= 0.005", abs(s1.bias) <= 0.005, f"{s1.bias:+.5f}"),
        ("std(theta1) in [0.0007, 0.003]", 0.0007 <= s1.std_dev <= 0.003,
         f"{s1.std_dev:.5f}"),
        ("std(theta2) in [0.014, 0.06]", 0.014 <= s2.std_dev <= 0.06,
         f"{s2.std_dev:.4f}"),
        ("runtime <= 300 s", elapsed <= 300.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_4_asymptotic_normality(ou_nh100):
    model, plan, estimates = ou_nh100
    report = rs.normality_diagnostic(estimates, 2.0, plan, model, level=0.01)
    _criterion(4, "standardized estimates vs N(0,1) at nh=100", [
        ("sample std in [0.85, 1.15]", 0.85 <= report.sample_std <= 1.15,
         f"{report.sample_std:.3f}"),
        ("KS passes at 1%", report.passed,
         f"stat={report.ks_statistic:.4f}, p={report.ks_pvalue:.3f}"),
    ])


def test_criterion_5_ergodic_theorem():
    # The averaging window spans nh = 2000 and starts after a 20-time-unit
    # burn-in: the decay from x0 = 1 alone contributes several percent to
    # these small stationary moments, and the window's own Monte Carlo
    # fluctuation is about the tolerance, so the seed is pinned like the
    # other statistical fixtures.
    burn = 2_000
    checks = []
    for label, gamma in (("linear", 1.0), ("sqrt", 0.5)):
        cfg = power_model(gamma)
        plan = rs.SamplingPlan(n=200_000 + burn, h=0.01)
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=606))
        window = path.x[burn:-1]
        grid = rs.invariant_density(cfg, 2.0)
        for gname, g in (("x", lambda v: v), ("x^2", lambda v: v * v)):
            space = rs.stationary_average(cfg, 2.0, g, grid=grid)
            time_avg = float(np.mean(g(window)))
            rel = abs(time_avg - space) / abs(space)
            checks.append((
                f"{label} drift, time-avg {gname} within 2%",
                rel <= 0.02,
                f"rel={rel:.4f}",
            ))
    _criterion(5, "time averages match quadrature at nh=2000", checks)


def test_criterion_6_oracle_equivalences():
    cfg = power_model(0.5)
    plan = rs.SamplingPlan(n=200, h=0.01)
    worst_opt = 0.0
    for seed in range(100):
        path = rs.simulate_path(cfg, 2.0, plan, rs.SimOptions(seed=seed))
        closed = rs.estimate_power_closed_form(path, 0.5).theta_hat
        opt = rs.nlse_optimize(path, cfg.drift, cfg.theta_domain)
        worst_opt = max(worst_opt, abs(opt.theta_hat - closed))

    # brute-force contrast minimization over a 1e-4 grid on the domain,
    # evaluating the contrast definition directly at every grid point
    lo, hi = cfg.theta_domain
    grid = np.arange(lo, hi, 1e-4)
    plan_small = rs.SamplingPlan(n=50, h=0.01)
    worst_grid = 0.0
    for seed in range(10):
        path = rs.simulate_path(cfg, 2.0, plan_small, rs.SimOptions(seed=1000 + seed))
        closed = rs.estimate_power_closed_form(path, 0.5).theta_hat
        dx = np.diff(path.x)
        dl = np.diff(path.l)
        dr = np.diff(path.r)
        drift_vals = -grid[:, None] * path.x[:-1][None, :] ** 0.5
        residuals = dx[None, :] - drift_vals * path.h - dl[None, :] + dr[None, :]
        psi = np.sum(residuals**2, axis=1)
        worst_grid = max(worst_grid, abs(grid[int(np.argmin(psi))] - closed))

    _criterion(6, "closed form vs optimizer and grid argmin", [
        ("|optimizer - closed| <= 1e-8 on 100 paths", worst_opt <= 1e-8,
         f"worst={worst_opt:.2e}"),
        ("|grid argmin - closed| <= 1e-3 on 10 paths", worst_grid <= 1e-3,
         f"worst={worst_grid:.2e}"),
    ])


def test_criterion_7_reflection_distribution():
    # zero drift, one-sided barrier at 0, sigma=1, x0=0: the state at T=1
    # is the modulus of a standard normal
    drift = rs.DriftSpec.custom(
        f=lambda x, th: 0.0 * x,
        df_dtheta=lambda x, th: 1.0 + 0.0 * x,
        d2f_dtheta2=lambda x, th: 0.0 * x,
        lipschitz_bound=1.0,
    )
    cfg = rs.ModelConfig(drift=drift, sigma=1.0,
                         barriers=rs.BarrierConfig.one_sided_lower(0.0),
                         theta_domain=(-1.0, 1.0), x0=0.0)
    plan = rs.SamplingPlan(n=5, h=0.2)
    endpoints = np.empty(5000)
    invariants_ok = True
    for i in range(5000):
        path = rs.simulate_path(cfg, 0.0, plan,
                                rs.SimOptions(substeps=2, seed=rng_mod.derive_seed(321, i)))
        endpoints[i] = path.x[-1]
        try:
            path.validate()
        except rs.DataError:
            invariants_ok = False
        if path.l[0] != 0.0 or np.any(np.diff(path.l) < 0.0):
            invariants_ok = False
    ks = scistats.kstest(endpoints, scistats.halfnorm.cdf)
    _criterion(7, "reflected endpoint matches |N(0,1)|", [
        ("KS passes at 1% over 5000 paths", ks.pvalue > 0.01,
         f"stat={ks.statistic:.4f}, p={ks.pvalue:.3f}"),
        ("barrier/regulator invariants hold on all paths", invariants_ok, "checked"),
    ])


def test_criterion_8_mse_identity(table1_runs, table2_run, table3_runs):
    run_two, run_one, _ = table1_runs
    run1, run2, _ = table3_runs
    summaries = (
        run_two.summaries(2.0) + run_one.summaries(2.0) + table2_run.summaries(2.0)
        + run1.summaries(1.0) + run2.summaries(1.0)
    )
    worst = max(
        abs(s.mse - (s.bias**2 + s.std_dev**2)) / max(1.0, s.mse) for s in summaries
    )
    reconstructed = 0.0010**2 + 0.0340**2
    _criterion(8, "mse identity and reported-row reconstruction", [
        ("mse = bias^2 + std^2 within 1e-12 on all summaries", worst <= 1e-12,
         f"worst={worst:.2e}"),
        ("bias 0.0010, std 0.0340 reconstructs mse 0.0012",
         round(reconstructed, 4) == 0.0012, f"{reconstructed:.6f}"),
    ])
