"""End-to-end acceptance checks for the optimizer and harness.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line with the measured value and its pinned tolerance (shown in
the test summary via -rP, or directly with -s). The benchmark-scale checks
(7 and 8) pin the full protocol: problem, step budget, seed count and sweep
grid, with the optimizer's default safeguard.
"""

import json
import time

import numpy as np

from diagocp import cli
from diagocp.baselines import BaselineConfig
from diagocp.diag_ocp import (OptimizerConfig, clip_diag, init_state, step_closed_form,
                              update_moments)
from diagocp.harness import (RunConfig, SweepSpec, ablate_mu, compare,
                             verify_closed_form_equivalence,
                             verify_probe_unbiasedness, verify_rate_trend)
from diagocp.hessian_probe import hutchinson_diag
from diagocp.problems import BatchSeed, Channel, MlpRegression, Quadratic

BENCH_WD = 0.008
BENCH_SEED = 42
BENCH_STEPS = 150
BENCH_SEEDS = 5


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_equivalence():
    rep = verify_closed_form_equivalence(seed=0)
    # the check owns its criterion; these pin it
    ok = (rep["pass"] and rep["trials"] == 200 and rep["tolerance"] == 1e-9
          and rep["elapsed_s"] < 5.0)
    report(1, ok,
           f"closed-form vs recursion max deviation {rep['max_abs_deviation']:.3e} "
           f"<= 1e-9 over {rep['trials']} trials "
           f"({rep['excluded_safeguarded']} safeguarded excluded, "
           f"{rep['elapsed_s']:.2f}s < 5s)")


def test_criterion_02_hand_oracle_trajectory():
    # 1-D quadratic with curvature 2, alpha 0.1, no EMA, no decay
    prob = Quadratic(np.array([2.0]))
    cfg = OptimizerConfig(alpha=0.1, beta1=0.0, beta2=0.0, weight_decay=0.0,
                          probe_distribution="rademacher")
    x = np.array([1.0])
    state = init_state(1, cfg)
    seen = []
    for k in range(2):
        g = prob.eval_grad(x)
        h = clip_diag(hutchinson_diag(lambda v: prob.hvp(x, v), 1, cfg.probe,
                                      BatchSeed(0, k, Channel.PROBE)), cfg)
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
        seen.append(x[0])
    err = max(abs(seen[0] - 0.8), abs(seen[1] - 0.512))
    report(2, err <= 1e-12,
           f"hand trajectory x1={seen[0]:.15f}, x2={seen[1]:.15f}, "
           f"max |error| {err:.2e} <= 1e-12")


def test_criterion_03_first_step_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 24))
        cfg = OptimizerConfig(alpha=float(rng.uniform(0.001, 0.5)),
                              beta1=float(rng.uniform(0.0, 0.99)),
                              beta2=float(rng.uniform(0.0, 0.999)),
                              weight_decay=0.0)
        g = rng.standard_normal(dim)
        h = rng.uniform(0.0011, 1.99, dim) / cfg.alpha  # safeguard inactive
        x0 = rng.standard_normal(dim)
        state = init_state(dim, cfg)
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        x1, _ = step_closed_form(state, x0, m_hat, d_hat, cfg)
        worst = max(worst, float(np.max(np.abs(x1 - x0 + cfg.alpha * g))))
    report(3, worst <= 1e-14,
           f"first step equals -alpha*g: worst coordinate error {worst:.2e} "
           f"<= 1e-14 over 20 random configs")


def test_criterion_04_corrected_curvature_bounds():
    prob = Quadratic(np.linspace(0.5, 8.0, 10), noise_std_grad=0.1)
    cfg = OptimizerConfig(alpha=0.05, mu=1e-4, g_d=1e4, weight_decay=0.0,
                          probe_distribution="rademacher")
    x = prob.default_init()
    state = init_state(prob.dim, cfg)
    violations = 0
    for k in range(500):
        g = prob.eval_grad(x, BatchSeed(1, k, Channel.GRADIENT))
        h = clip_diag(hutchinson_diag(lambda v: prob.hvp(x, v), prob.dim, cfg.probe,
                                      BatchSeed(1, k, Channel.PROBE)), cfg)
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        violations += int(np.any(d_hat < cfg.mu) or np.any(d_hat > cfg.g_d))
        x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
    report(4, violations == 0,
           f"corrected curvature stayed in [1e-4, 1e4] for all 500 steps "
           f"({violations} violations)")


def test_criterion_05_probe_unbiasedness():
    rep = verify_probe_unbiasedness(seed=0)
    # the check owns its criterion; these pin it
    ok = (rep["pass"] and rep["n_probes"] == 100_000 and rep["dim"] == 8
          and rep["tolerance"] == 0.05 and rep["elapsed_s"] < 10.0)
    report(5, ok,
           f"Hutchinson max relative error {rep['max_relative_error']:.4f} <= 0.05 "
           f"at 1e5 probes; diagonal single-probe error "
           f"{rep['diagonal_exact_error']:g} == 0 ({rep['elapsed_s']:.2f}s < 10s)")


def test_criterion_06_rate_trend():
    rep = verify_rate_trend()  # frozen: noisy 20-D quadratic, 20 seeds
    ok = rep["pass"] and rep["elapsed_s"] < 60.0
    report(6, ok,
           f"min avg grad-norm^2 ratio T=400/T=100 is "
           f"{rep['ratio_last_to_first']:.4f} <= 0.6 "
           f"(log-log slope {rep['loglog_slope']:.2f}, {rep['elapsed_s']:.1f}s < 60s)")


def test_criterion_07_benchmark_ordering():
    t0 = time.perf_counter()
    problem = MlpRegression()
    common = dict(problem=problem, max_steps=BENCH_STEPS,
                  base_seed=BENCH_SEED, n_seeds=BENCH_SEEDS)
    entries = [
        RunConfig(optimizer="diag_ocp",
                  opt_cfg=OptimizerConfig(alpha=0.1, weight_decay=BENCH_WD),
                  **common),
        RunConfig(optimizer="sgd",
                  opt_cfg=BaselineConfig(kind="sgd", lr=0.1,
                                         weight_decay=BENCH_WD), **common),
        RunConfig(optimizer="adam",
                  opt_cfg=BaselineConfig(kind="adam", lr=0.1,
                                         weight_decay=BENCH_WD), **common),
    ]
    result = compare(entries, SweepSpec())
    mins = {k: [r.min_val for r in result.records[k]] for k in result.records}
    wins_sgd = sum(o <= s for o, s in zip(mins["diag_ocp"], mins["sgd"]))
    wins_adam = sum(o <= a for o, a in zip(mins["diag_ocp"], mins["adam"]))
    med = {k: float(np.median(v)) for k, v in mins.items()}
    elapsed = time.perf_counter() - t0
    ok = (med["diag_ocp"] <= med["sgd"] and med["diag_ocp"] <= med["adam"]
          and wins_sgd >= 4 and wins_adam >= 3 and elapsed < 300.0)
    report(7, ok,
           f"tuned medians min-val ocp {med['diag_ocp']:.4f} vs sgd {med['sgd']:.4f} "
           f"vs adam {med['adam']:.4f}; per-seed wins {wins_sgd}/5 vs sgd (>=4), "
           f"{wins_adam}/5 vs adam (>=3); lrs "
           + ", ".join(f"{k}={v:g}" for k, v in sorted(result.selected.items()))
           + f" ({elapsed:.0f}s < 300s)")


def test_criterion_08_clip_floor_robustness():
    base = RunConfig(
        problem=MlpRegression(), optimizer="diag_ocp",
        opt_cfg=OptimizerConfig(alpha=0.01, weight_decay=BENCH_WD),
        max_steps=BENCH_STEPS, base_seed=BENCH_SEED, n_seeds=BENCH_SEEDS)
    ablation = ablate_mu([1e-3, 1e-4, 1e-5], base)
    finals, n_div = {}, 0
    for v in ablation.values:
        runs = ablation.runs[v]
        n_div += sum(r.diverged for r in runs)
        finals[v] = float(np.median([r.final_val for r in runs]))
    spread = max(finals.values()) / min(finals.values())
    ok = spread <= 2.0 and n_div == 0
    report(8, ok,
           "final val medians " +
           ", ".join(f"mu={v:g}: {finals[v]:.5f}" for v in ablation.values) +
           f"; spread {spread:.4f}x <= 2x, {n_div} divergences across "
           f"{len(ablation.values) * BENCH_SEEDS} runs")


def test_criterion_09_weight_decay_decoupling():
    cfg = OptimizerConfig(alpha=0.05, weight_decay=0.02)
    x0 = np.array([1.0, -2.0, 0.5])
    x = x0.copy()
    state = init_state(3, cfg)
    h = np.full(3, cfg.mu)
    worst = 0.0
    for t in range(1, 101):
        state, m_hat, d_hat = update_moments(state, np.zeros(3), h, cfg)
        x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
        expected = x0 * (1.0 - cfg.alpha * cfg.weight_decay) ** t
        worst = max(worst, float(np.max(np.abs(x - expected) / np.abs(expected))))
    report(9, worst <= 1e-12,
           f"zero-gradient run tracks x0*(1-alpha*lambda)^t for 100 steps, "
           f"max relative error {worst:.2e} <= 1e-12")


def test_criterion_10_reproducible_comparison(tmp_path, capsys):
    doc = {
        "problem": {"kind": "noisy_least_squares", "design_seed": 3,
                    "dim": 6, "n_samples": 40, "noise_std_grad": 0.05},
        "optimizers": [{"kind": "sgd"}, {"kind": "adam"}],
        "sweep": {"coarse_grid": [1e-1, 1e-2]},
        "max_steps": 30,
        "n_seeds": 2,
        "base_seed": 5,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        code = cli.main(["compare", "--config", str(config), "--out", str(out)])
        assert code == 0
    capsys.readouterr()  # drop the CLI chatter; the report line below remains
    a = (outs[0] / "summary.csv").read_bytes()
    b = (outs[1] / "summary.csv").read_bytes()
    report(10, a == b,
           f"two identical compare invocations wrote byte-identical "
           f"summary.csv ({len(a)} bytes)")
