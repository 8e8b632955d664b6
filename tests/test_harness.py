import csv
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, raises

from diagocp import baselines, cli, diag_ocp, harness
from diagocp.baselines import BaselineConfig, baseline_step
from diagocp.diag_ocp import (OptimizerConfig, clip_diag, init_state, step_closed_form,
                              update_moments)
from diagocp.harness import (HEATMAP_HEADER, RECORD_COLUMNS, STEP_HEADER,
                             SUMMARY_HEADER, CompareResult, RunConfig, RunRecord,
                             SweepSpec, _aggregate, _init_rng, _replicate_base,
                             _step_text, ablate_mu, compare,
                             emit_ablation, emit_heatmap, emit_results,
                             emit_sweep, lr_sweep, run_experiment, summary_rows,
                             verify_closed_form_equivalence,
                             verify_probe_unbiasedness, verify_rate_trend)
from diagocp.hessian_probe import hutchinson_diag, probe_draw
from diagocp.problems import (BatchSeed, Channel, Draw, MlpRegression,
                              NoisyLeastSquares, ProblemOracle, Quadratic,
                              Rosenbrock2D, StackSeed, stream_states)

OCP = OptimizerConfig(alpha=0.05, weight_decay=0.0)


def quad_run(max_steps=20, n_seeds=1, **kwargs):
    kwargs.setdefault("problem", Quadratic(np.array([1.0, 2.0, 4.0])))
    kwargs.setdefault("optimizer", "diag_ocp")
    kwargs.setdefault("opt_cfg", OCP)
    kwargs.setdefault("base_seed", 0)
    return RunConfig(max_steps=max_steps, n_seeds=n_seeds, **kwargs)


def noisy_run(**kwargs):
    prob = NoisyLeastSquares(design_seed=3, n_samples=40, dim=6,
                             noise_std_grad=0.05)
    kwargs.setdefault("opt_cfg", BaselineConfig(kind="sgd", lr=0.05))
    return quad_run(problem=prob, optimizer="sgd", **kwargs)


# --- run configuration -------------------------------------------------------

def test_run_config_validation():
    # optimizer is the run's label: any nonempty string, whatever the kind
    for bad in ("", None, 3, ["diag_ocp"]):
        with raises(ValueError, match="optimizer must be a nonempty label"):
            quad_run(optimizer=bad)
    assert quad_run(optimizer="diag_ocp_const").optimizer == "diag_ocp_const"
    sgd = quad_run(optimizer="sgd_a", opt_cfg=BaselineConfig(kind="sgd", lr=0.1))
    assert sgd.optimizer == "sgd_a"
    with raises(ValueError):
        quad_run(max_steps=0)
    # replicates start from their seeded default_init; there is no x0
    with raises(TypeError, match="x0"):
        quad_run(x0=[1.0, 2.0, 3.0])
    # a step index past 2**32 - 1 has no stream; only constructed, never run
    with raises(ValueError, match="max_steps"):
        quad_run(max_steps=2**32 + 1)
    assert quad_run(max_steps=2**32).max_steps == 2**32


@pytest.mark.parametrize("key", ["max_steps", "base_seed", "n_seeds", "record_every"])
def test_run_config_counts_and_seed_are_integers(key):
    # a fractional value used to fail mid-run with a TypeError, and
    # n_seeds True ran one replicate
    for bad in (2.5, True, "3"):
        with raises(ValueError, match=key):
            quad_run(**{key: bad})
    value = getattr(quad_run(**{key: 3.0}), key)
    assert value == 3 and type(value) is int


# --- optimizer interface --------------------------------------------------------

# kind -> (config, lr, lr field, probe settings, mu), the values the
# harness used before the configs owned them; only diag_ocp clips, so only
# it has a mu
INTERFACE = {
    "diag_ocp": (OptimizerConfig(alpha=0.03, mu=1e-3, g_d=1e3, n_probes=3,
                                 probe_distribution="rademacher"),
                 0.03, "alpha", (3, "rademacher"), 1e-3),
    "sgd": (BaselineConfig(kind="sgd", lr=0.2, weight_decay=0.01), 0.2, "lr", None, None),
    "adam": (BaselineConfig(kind="adam", lr=0.01), 0.01, "lr", None, None),
    "adahessian": (BaselineConfig(kind="adahessian", lr=0.1), 0.1, "lr",
                   (1, "rademacher"), None),
}


def assert_same_draw(draw, want):
    """Two Draws describe one draw: a Draw compares its fn by identity, so
    compare shape, dtype and the values each draws from one stream."""
    assert (draw.shape, draw.dtype) == (want.shape, want.dtype)
    np.testing.assert_array_equal(draw.fn(np.random.default_rng(7)),
                                  want.fn(np.random.default_rng(7)))


@pytest.mark.parametrize("kind", sorted(INTERFACE))
def test_config_interface_per_kind(kind):
    cfg, lr, field_name, probe, mu = INTERFACE[kind]
    assert cfg.kind == kind
    assert cfg.lr_field == field_name
    assert cfg.lr == lr == getattr(cfg, field_name)
    if probe is None:
        assert cfg.probe(5) is None
    else:
        assert_same_draw(cfg.probe(5), probe_draw(*probe, 5))
    moved = cfg.with_lr(0.5)
    assert moved == replace(cfg, **{field_name: 0.5})
    assert type(moved) is type(cfg) and moved.lr == 0.5 and cfg.lr == lr
    (rec,) = run_experiment(quad_run(max_steps=2, optimizer=kind, opt_cfg=cfg))
    assert rec.mu == mu
    assert rec.run_id == f"{kind}-lr{lr:g}" + ("" if mu is None else f"-mu{mu:g}") + "-s0"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: OptimizerConfig(weight_decay=NAN),
    lambda: OptimizerConfig(alpha=INF, weight_decay=0.0),
    lambda: OptimizerConfig(mu=NAN),
    lambda: OptimizerConfig(g_d=INF),
    lambda: OptimizerConfig(beta2=-INF),
    lambda: OptimizerConfig(safeguard_rho_max=NAN),
    lambda: BaselineConfig(kind="sgd", lr=INF),
    lambda: BaselineConfig(kind="adam", lr=0.1, weight_decay=NAN),
], ids=["ocp-wd-nan", "ocp-alpha-inf", "ocp-mu-nan", "ocp-g_d-inf",
        "ocp-beta2-neginf", "ocp-rho_max-nan", "sgd-lr-inf", "adam-wd-nan"])
def test_configs_reject_non_finite_hyperparameters(make):
    with raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize("settings, match", [
    (dict(probe_distribution="bogus"), "probe distribution"),
    (dict(n_probes=2.5), "n_probes"), (dict(n_probes=True), "n_probes"),
    (dict(n_probes=0), "n_probes"),
])
def test_optimizer_config_rejects_bad_probe_settings(settings, match):
    with raises(ValueError, match=match):
        OptimizerConfig(**settings)


def test_optimizer_config_builds_its_probe_once_with_an_int_count():
    cfg = OptimizerConfig(n_probes=3.0, probe_distribution="rademacher")
    assert type(cfg.n_probes) is int and cfg == OptimizerConfig(
        n_probes=3, probe_distribution="rademacher")
    assert_same_draw(cfg.probe(7), probe_draw(3, "rademacher", 7))
    assert_same_draw(cfg.with_lr(0.01).probe(7), cfg.probe(7))


LAYER_FUNCTIONS = ("hutchinson_diag", "clip_diag", "update_moments",
                   "step_closed_form", "baseline_step")


@pytest.mark.parametrize("kind, per_step", [
    ("diag_ocp", dict(hutchinson_diag=1, clip_diag=1, update_moments=1,
                      step_closed_form=1, baseline_step=0)),
    ("adahessian", dict(hutchinson_diag=1, clip_diag=0, update_moments=0,
                        step_closed_form=0, baseline_step=1)),
    ("sgd", dict(hutchinson_diag=0, clip_diag=0, update_moments=0,
                 step_closed_form=0, baseline_step=1)),
])
def test_stepper_calls_the_harness_layer_functions(monkeypatch, kind, per_step):
    # The benchmark traces these five functions in the harness namespace;
    # the stepper must call them there, once per step for the whole stack.
    counts = dict.fromkeys(LAYER_FUNCTIONS, 0)
    for name in LAYER_FUNCTIONS:
        def counting(*args, _fn=getattr(harness, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counting)
    cfg = INTERFACE[kind][0]
    recs = run_experiment(quad_run(max_steps=7, n_seeds=3, optimizer=kind, opt_cfg=cfg))
    assert not any(r.diverged for r in recs)
    assert counts == {name: 7 * n for name, n in per_step.items()}


CHECK_HELPERS = ((diag_ocp, "_check_moment_inputs"), (diag_ocp, "_check_step_inputs"),
                 (baselines, "_check_inputs"))


@pytest.mark.parametrize("kind, per_step", [
    ("diag_ocp", dict(_check_moment_inputs=1, _check_step_inputs=1, _check_inputs=0)),
    ("adahessian", dict(_check_moment_inputs=0, _check_step_inputs=0, _check_inputs=1)),
    ("adam", dict(_check_moment_inputs=0, _check_step_inputs=0, _check_inputs=1)),
])
def test_each_stepper_check_runs_once_per_step(monkeypatch, kind, per_step):
    # the stepper calls the public functions, which keep every check, and
    # no check runs twice in one step of the stack
    counts = dict.fromkeys(per_step, 0)
    for module, name in CHECK_HELPERS:
        def counting(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    cfg = INTERFACE[kind][0]
    recs = run_experiment(quad_run(max_steps=7, n_seeds=3, optimizer=kind, opt_cfg=cfg))
    assert not any(r.diverged for r in recs)
    assert counts == {name: 7 * n for name, n in per_step.items()}


@pytest.mark.parametrize("kind", sorted(INTERFACE))
def test_the_draw_that_fills_the_probe_table_is_the_one_each_estimate_gets(kind,
                                                                           monkeypatch):
    # a run builds its probe Draw once: every step hands hutchinson_diag
    # the object that filled the run's probe table, so each block the step
    # reads is checked against the Draw that made it
    filled, handed = [], []
    fill, estimate = Draw.table, harness.hutchinson_diag

    def filling(draw, bases, steps, channel, words):
        if channel == Channel.PROBE:
            filled.append(draw)
        return fill(draw, bases, steps, channel, words)

    def estimating(hvp_fn, draw, seed):
        handed.append(draw)
        return estimate(hvp_fn, draw, seed)

    monkeypatch.setattr(Draw, "table", filling)
    monkeypatch.setattr(harness, "hutchinson_diag", estimating)
    cfg, _, _, probe, _ = INTERFACE[kind]
    run_experiment(quad_run(max_steps=4, n_seeds=2, optimizer=kind, opt_cfg=cfg))
    if probe is None:
        assert filled == handed == []
        return
    (draw,) = filled
    assert len(handed) == 4 and all(d is draw for d in handed)
    assert_same_draw(draw, probe_draw(*probe, 3))


def test_adahessian_steps_on_the_raw_hutchinson_estimate(monkeypatch):
    # only diag_ocp clips: adahessian used to get the estimate clamped
    # into [1e-4, 1e4], which no key of its config set
    raw, received = [], []

    def estimating(*args, _fn=harness.hutchinson_diag):
        raw.append(_fn(*args))
        return raw[-1]

    def stepping(*args, _fn=harness.baseline_step, **kwargs):
        received.append(kwargs["h_diag"])
        return _fn(*args, **kwargs)

    monkeypatch.setattr(harness, "hutchinson_diag", estimating)
    monkeypatch.setattr(harness, "baseline_step", stepping)
    cfg = RunConfig(problem=RandomStartRosenbrock(), optimizer="adahessian",
                    opt_cfg=BaselineConfig(kind="adahessian", lr=0.01), max_steps=10,
                    base_seed=1, n_seeds=4)
    assert not any(r.diverged for r in run_experiment(cfg))
    assert len(received) == len(raw) == 10
    for h, r in zip(received, raw):
        assert h.dtype == r.dtype and h.tobytes() == r.tobytes()
    assert any((r < 0).any() for r in raw) and any((r > 1e4).any() for r in raw)


# --- execution ----------------------------------------------------------------

def test_run_records_step_zero_and_final():
    recs = run_experiment(quad_run(max_steps=23, record_every=7))
    (rec,) = recs
    for name, dtype in RECORD_COLUMNS.items():
        column = getattr(rec, name)
        assert isinstance(column, np.ndarray) and column.dtype == dtype
        assert column.shape == (5,)
    assert rec.step_norm[0] == 0.0
    # step 0 has no rho: NaN in the record, an empty field in steps.csv
    assert np.isnan(rec.rho[0]) and np.isfinite(rec.rho[1:]).all()
    assert record_rows(rec)[0][5] == ""
    # cadence rows plus the off-cadence final step
    assert rec.steps.tolist() == [0, 7, 14, 21, 23]
    assert rec.final_train == rec.train_loss[-1]
    assert not rec.diverged


def test_run_experiment_is_deterministic():
    a = run_experiment(noisy_run(max_steps=30, n_seeds=3))
    b = run_experiment(noisy_run(max_steps=30, n_seeds=3))
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.train_loss, rb.train_loss)
        np.testing.assert_array_equal(ra.grad_norm_sq, rb.grad_norm_sq)


def test_seeds_differ_but_share_the_dataset():
    recs = run_experiment(noisy_run(max_steps=10, n_seeds=2))
    # same fixed design and start, per-seed gradient noise after that
    assert recs[0].train_loss[0] == recs[1].train_loss[0]
    assert recs[0].train_loss[-1] != recs[1].train_loss[-1]


def test_divergence_is_marked():
    cfg = quad_run(max_steps=200, optimizer="sgd",
                   opt_cfg=BaselineConfig(kind="sgd", lr=1e3))
    (rec,) = run_experiment(cfg)
    assert rec.diverged
    assert rec.final_val == float("inf")
    assert rec.steps[-1] <= 200


def test_a_stack_whose_every_row_leaves_on_a_non_finite_iterate_stops():
    # the first step overflows every row's iterate, so the last rows leave
    # the stack there and the run stops after one step
    cfg = RunConfig(problem=Quadratic(np.array([1.0, 2.0])), optimizer="sgd",
                    opt_cfg=BaselineConfig(kind="sgd", lr=1e308), max_steps=5,
                    base_seed=0, n_seeds=3)
    recs = run_experiment(cfg)
    assert len(recs) == 3
    for rec in recs:
        assert rec.diverged
        assert rec.steps.tolist() == [0, 1]
        assert rec.train_loss.tolist() == rec.val_loss.tolist() == [1.5, INF]
        assert rec.step_norm.tolist() == [0.0, INF]


def test_diag_ocp_run_reports_rho():
    (rec,) = run_experiment(quad_run(max_steps=5))
    assert np.isfinite(rec.rho[1:]).all()
    assert (np.abs(rec.rho[1:]) <= OCP.safeguard_rho_max).all()
    assert all(row[5] != "" for row in record_rows(rec)[1:])


def count_streams(monkeypatch):
    """Record the channel of every BatchSeed stream derived from now on."""
    channels = []
    derive = BatchSeed.rng

    def counting(seed):
        channels.append(seed.channel)
        return derive(seed)

    monkeypatch.setattr(BatchSeed, "rng", counting)
    return channels


def count_seeds(monkeypatch):
    """Record the channel of every StackSeed the harness builds from now on."""
    channels = []
    build = harness._seeds

    def counting(window, k, channel, rows):
        seed = build(window, k, channel, rows)
        if seed is not None:
            channels.append(channel)
        return seed

    monkeypatch.setattr(harness, "_seeds", counting)
    return channels


def mlp_run(optimizer, opt_cfg, steps=6, **problem_kwargs):
    prob = MlpRegression(layer_sizes=(4, 8, 2), n_samples=64, **problem_kwargs)
    return RunConfig(problem=prob, optimizer=optimizer, opt_cfg=opt_cfg,
                     max_steps=steps, base_seed=0)


MLP_OCP = OptimizerConfig(alpha=0.01, n_probes=4, probe_distribution="rademacher")


def test_full_batch_diag_ocp_derives_only_the_probe_stream(monkeypatch):
    channels = count_streams(monkeypatch)
    (rec,) = run_experiment(mlp_run("diag_ocp", MLP_OCP))
    assert not rec.diverged
    assert channels == [Channel.PROBE] * 6


def test_full_batch_sgd_derives_no_stream(monkeypatch):
    channels = count_streams(monkeypatch)
    (rec,) = run_experiment(mlp_run("sgd", BaselineConfig(kind="sgd", lr=0.01)))
    assert not rec.diverged
    assert channels == []


def test_full_batch_loss_derives_no_stream_under_gradient_noise(monkeypatch):
    prob = NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, noise_std_grad=0.05)
    x = np.linspace(-1.0, 1.0, prob.dim)
    channels = count_streams(monkeypatch)
    assert prob.eval_loss(x, BatchSeed(1, 0, Channel.GRADIENT)) == prob.eval_loss(x)
    assert channels == []


def test_minibatch_probe_block_derives_one_hessian_stream_per_step(monkeypatch):
    channels = count_streams(monkeypatch)
    (rec,) = run_experiment(mlp_run("diag_ocp", MLP_OCP, batch_size=32))
    assert not rec.diverged
    assert channels.count(Channel.HESSIAN_NOISE) == 6
    assert channels.count(Channel.PROBE) == 6
    # the step-0 gradient is step 1's; after the last step only losses run
    assert channels.count(Channel.GRADIENT) == 6


# --- stacked execution ----------------------------------------------------------

def reference_run(cfg, rep):
    """Replicate `rep` run alone on 1-d vectors through the public oracle and
    optimizer functions: the per-replicate loop that the stacked harness
    reproduces bit for bit. Returns (record rows, divergence path or None):
    "iterate" when a step leaves a non-finite iterate, "loss" when a
    recorded loss is non-finite."""
    prob, opt, ocfg = cfg.problem, cfg.optimizer, cfg.opt_cfg
    base = _replicate_base(cfg.base_seed, rep)
    x = prob.default_init(_init_rng(base))
    state = init_state(prob.dim)
    if opt == "diag_ocp":
        probe = probe_draw(ocfg.n_probes, ocfg.probe_distribution, prob.dim)
    else:
        probe = probe_draw(1, "rademacher", prob.dim) if opt == "adahessian" else None
    inf = float("inf")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = prob.eval_grad(x, BatchSeed(base, 0, Channel.GRADIENT))
        rows = [(0, prob.train_loss(x), prob.val_loss(x), float(g @ g), 0.0, None, 0)]
        for k in range(1, cfg.max_steps + 1):
            seed = partial(BatchSeed, base, k - 1)
            g = prob.eval_grad(x, seed(Channel.GRADIENT))
            h = None
            if probe is not None:
                h = hutchinson_diag(
                    lambda V: prob.hvp(x, V, seed(Channel.HESSIAN_NOISE)),
                    probe, seed(Channel.PROBE))
            if opt == "diag_ocp":
                state, m_hat, d_hat = update_moments(state, g, clip_diag(h, ocfg), ocfg)
                x_next, diag = step_closed_form(state, x, m_hat, d_hat, ocfg)
                rho, n_clamped = diag.rho, diag.n_clamped
            else:
                x_next, state = baseline_step(state, x, g, ocfg, h_diag=h)
                rho, n_clamped = None, 0
            tail = (float(g @ g), float(np.linalg.norm(x_next - x)), rho, n_clamped)
            x = x_next
            if not np.all(np.isfinite(x)):
                rows.append((k, inf, inf) + tail)
                return rows, "iterate"
            if k % cfg.record_every == 0 or k == cfg.max_steps:
                train, val = prob.train_loss(x), prob.val_loss(x)
                rows.append((k, train, val) + tail)
                if not (np.isfinite(train) and np.isfinite(val)):
                    return rows, "loss"
    return rows, None


def record_rows(rec):
    """rec's steps.csv rows from the step column on, as the fields that
    `_step_text` writes: the row layout of `reference_run`, as text."""
    text = "".join(_step_text([rec]))
    return [row[5:] for row in csv.reader(io.StringIO(text, newline=""))][1:]


def steps_csv(path, rows):
    """The bytes of a steps.csv that a plain csv.writer writes for the
    tuple rows below its header, None as an empty field: the reference for
    the harness's per-record writer."""
    path.mkdir(parents=True)
    target = path / "steps.csv"
    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([STEP_HEADER, *rows])
    return target.read_bytes()


def assert_matches_reference(path, cfg, recs):
    """The steps.csv of cfg's stacked records equals, byte for byte, the one
    written from each replicate's reference run; returns the reference
    divergence paths."""
    assert [r.seed for r in recs] == list(range(cfg.n_seeds))
    rows, paths = [], []
    for rep, rec in enumerate(recs):
        ref, path_taken = reference_run(cfg, rep)
        rows += [(rec.run_id, rec.optimizer, rec.lr, rec.mu, rec.seed) + row
                 for row in ref]
        assert rec.diverged == (path_taken is not None)
        assert rec.final_val == ref[-1][2]
        paths.append(path_taken)
    assert (emit_results(recs, path / "stacked")[0].read_bytes()
            == steps_csv(path / "reference", rows))
    return paths


class CentralRosenbrock(Rosenbrock2D):
    """Rosenbrock with the base oracle's central-difference HVP in place of
    its analytic one, so the difference path runs through the harness."""

    _hvps = ProblemOracle._hvps


class CentralLeastSquares(NoisyLeastSquares):
    """Least squares with the base oracle's central-difference HVP."""

    _hvps = ProblemOracle._hvps


class RandomStartRosenbrock(Rosenbrock2D):
    """Rosenbrock from a seeded start in [-3, 3]^2, so replicates start apart."""

    def default_init(self, rng=None):
        return rng.uniform(-3.0, 3.0, 2)


MLP_SMALL = dict(layer_sizes=(4, 8, 2), n_samples=64)
STACK_CASES = {
    "quadratic-noise-diag_ocp": (
        lambda: Quadratic(np.array([1.0, 2.0, 4.0]), noise_std_grad=0.1), "diag_ocp",
        OptimizerConfig(alpha=0.05, weight_decay=0.01, n_probes=2,
                        probe_distribution="rademacher")),
    "rosenbrock-cd-adahessian": (
        lambda: CentralRosenbrock(noise_std_grad=0.01),
        "adahessian", BaselineConfig(kind="adahessian", lr=0.05)),
    "least_squares-minibatch-sgd": (
        lambda: NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8),
        "sgd", BaselineConfig(kind="sgd", lr=0.05, weight_decay=0.01)),
    "least_squares-noise-sgd": (
        lambda: NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, noise_std_grad=0.05),
        "sgd", BaselineConfig(kind="sgd", lr=0.05, weight_decay=0.01)),
    "least_squares-minibatch-diag_ocp": (
        lambda: CentralLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8),
        "diag_ocp", OptimizerConfig(alpha=0.05, n_probes=3)),
    "least_squares-noise-diag_ocp": (
        lambda: CentralLeastSquares(design_seed=3, n_samples=40, dim=6,
                                    noise_std_grad=0.05),
        "diag_ocp", OptimizerConfig(alpha=0.05, n_probes=3)),
    "mlp-full-diag_ocp": (
        lambda: MlpRegression(**MLP_SMALL), "diag_ocp",
        OptimizerConfig(alpha=0.01)),
    "mlp-full-adam": (
        lambda: MlpRegression(**MLP_SMALL), "adam",
        BaselineConfig(kind="adam", lr=0.01, weight_decay=0.008)),
    "mlp-minibatch-diag_ocp": (
        lambda: MlpRegression(batch_size=32, **MLP_SMALL), "diag_ocp", MLP_OCP),
    "mlp-minibatch-adam": (
        lambda: MlpRegression(batch_size=32, **MLP_SMALL), "adam",
        BaselineConfig(kind="adam", lr=0.01)),
    "mlp-noise-diag_ocp": (
        lambda: MlpRegression(noise_std_grad=0.05, **MLP_SMALL), "diag_ocp", MLP_OCP),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_run_equals_per_replicate_reference(case, tmp_path):
    make, optimizer, opt_cfg = STACK_CASES[case]
    cfg = RunConfig(problem=make(), optimizer=optimizer, opt_cfg=opt_cfg,
                    max_steps=12, base_seed=5, n_seeds=3, record_every=5)
    assert assert_matches_reference(tmp_path, cfg, run_experiment(cfg)) == [None] * 3


# From scattered starts some replicates diverge, at different steps, and the
# rest stay finite; each case's lr heads a sweep grid. diag_ocp's diverging
# rows overflow their gradient, so the non-finite m_hat carries into the
# iterate, and one records an overflowed loss first. adahessian's step,
# lr * m_hat / sqrt(v_hat) on the raw estimate, leaves the float range only
# at a huge lr: at 1.2e26 (its rows split the same way from 1.16e26 to
# 1.28e26) one row's iterate does at step 5 and three losses overflow.
DIVERGING = {
    "diag_ocp-iterate": (OptimizerConfig(alpha=0.5, weight_decay=0.0),
                         {"iterate", "loss"}, (0.5, 0.05, 0.005)),
    "adahessian-iterate": (BaselineConfig(kind="adahessian", lr=1.2e26),
                           {"iterate", "loss"}, (1.2e26, 1e-2, 1e-3)),
}


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_stacked_run_drops_diverging_replicates_exactly(case, tmp_path):
    opt_cfg, expected, _ = DIVERGING[case]
    cfg = RunConfig(problem=RandomStartRosenbrock(), optimizer=case.split("-")[0],
                    opt_cfg=opt_cfg, max_steps=40, base_seed=1, n_seeds=8,
                    record_every=10)
    paths = assert_matches_reference(tmp_path, cfg, run_experiment(cfg))
    assert set(paths) == expected | {None}
    ends = {rec.steps[-1] for rec in run_experiment(cfg) if rec.diverged}
    assert len(ends) > 1


class NanCurvatureQuadratic(Quadratic):
    """A quadratic from seeded starts in [-2, 2]^dim whose curvature reads
    NaN where x_0 > 1, so a step from there has a NaN rho and leaves a NaN
    iterate."""

    def default_init(self, rng=None):
        return rng.uniform(-2.0, 2.0, self.dim)

    def _hvps(self, x, V, seed):
        return np.where(x[..., None, :1] > 1.0, np.nan, super()._hvps(x, V, seed))


def test_nan_rho_of_a_real_step_is_written_as_nan(tmp_path):
    cfg = RunConfig(problem=NanCurvatureQuadratic(np.array([1.0, 2.0, 4.0])),
                    optimizer="diag_ocp", opt_cfg=OCP, max_steps=6, base_seed=2,
                    n_seeds=6, record_every=3)
    paths = assert_matches_reference(tmp_path, cfg, run_experiment(cfg))
    assert set(paths) == {"iterate", None}
    with open(tmp_path / "stacked" / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    step1 = [r for r in rows if r["step"] == "1"]
    # a diverged row's step-1 rho is nan, a live row's a number, and step 0
    # writes an empty field
    assert {r["rho"] for r in step1 if r["train_loss"] == "inf"} == {"nan"}
    assert all(float(r["rho"]) < 1.0 for r in step1 if r["train_loss"] != "inf")
    assert {r["rho"] for r in rows if r["step"] == "0"} == {""}


def broken_hvps(self, x, V, seed):
    """An oracle bug: every product comes back one coordinate short."""
    return (self.h * V)[..., :-1]


def test_broken_oracle_raises_instead_of_diverging(monkeypatch):
    monkeypatch.setattr(Quadratic, "_hvps", broken_hvps)
    with raises(ValueError, match="hvp hook returned shape"):
        run_experiment(quad_run(max_steps=5, n_seeds=3))


@pytest.mark.parametrize("cfg", [
    RunConfig(problem=MlpRegression(batch_size=32, **MLP_SMALL), optimizer="diag_ocp",
              opt_cfg=MLP_OCP, max_steps=8, base_seed=9),
    RunConfig(problem=RandomStartRosenbrock(), optimizer="diag_ocp",
              opt_cfg=DIVERGING["diag_ocp-iterate"][0], max_steps=40, base_seed=1),
], ids=["mlp-minibatch", "diverging"])
def test_replicate_records_do_not_depend_on_the_stack_size(cfg):
    two = run_experiment(replace(cfg, n_seeds=2))
    five = run_experiment(replace(cfg, n_seeds=5))
    for a, b in zip(two, five):
        assert a.run_id == b.run_id
        np.testing.assert_equal(record_rows(a), record_rows(b))
        assert a.diverged == b.diverged


@pytest.mark.parametrize("batch_size", [None, 32])
def test_sparse_recording_records_the_same_rows(batch_size):
    # a sparse cadence skips the train loss between records, and at full
    # batch it takes the gradient without the shared forward
    cfg = RunConfig(problem=MlpRegression(batch_size=batch_size, **MLP_SMALL),
                    optimizer="diag_ocp", opt_cfg=MLP_OCP, max_steps=10,
                    base_seed=4, n_seeds=3, record_every=1)
    dense = run_experiment(cfg)
    sparse = run_experiment(replace(cfg, record_every=3))
    for a, b in zip(dense, sparse):
        assert b.steps.tolist() == [0, 3, 6, 9, 10]
        rows = {row[0]: row for row in record_rows(a)}
        np.testing.assert_equal(record_rows(b), [rows[str(k)] for k in b.steps.tolist()])


def test_verify_rate_trend_defaults_are_frozen():
    # the default rate check's minima, frozen to the last bit
    report = verify_rate_trend()
    assert report["min_avg_grad_norm_sq"] == [
        0.002512391390736192, 9.161979726136259e-06, 9.161979726136259e-06]


# --- aggregation --------------------------------------------------------------

def fake_record(min_val, min_val_step, diverged=False, final_val=None):
    rec = RunRecord(run_id="r", optimizer="sgd", lr=0.1, mu=None, seed=0,
                    **{name: np.zeros(0, dtype) for name, dtype in RECORD_COLUMNS.items()})
    rec.min_val = min_val
    rec.min_val_step = min_val_step
    rec.final_val = final_val if final_val is not None else min_val
    rec.final_train = rec.final_val
    rec.diverged = diverged
    return rec


def test_aggregate_median_over_non_diverged():
    recs = [fake_record(1.0, 10), fake_record(3.0, 30),
            fake_record(2.0, 20), fake_record(9.0, 90, diverged=True)]
    agg = _aggregate(recs)
    assert agg["min_val"] == 2.0
    assert agg["min_val_step"] == 20  # step of the lower-median element
    assert agg["diverged"] == 1


def test_aggregate_even_count_uses_lower_median_step():
    recs = [fake_record(1.0, 10), fake_record(2.0, 20),
            fake_record(3.0, 30), fake_record(4.0, 40)]
    agg = _aggregate(recs)
    assert agg["min_val"] == approx(2.5)
    assert agg["min_val_step"] == 20


def test_aggregate_all_diverged():
    agg = _aggregate([fake_record(1.0, 10, diverged=True)])
    assert agg["min_val"] == float("inf")
    assert agg["min_val_step"] == -1
    assert agg["diverged"] == 1


# --- sweep ---------------------------------------------------------------------

def test_sweep_spec_validation():
    with raises(ValueError):
        SweepSpec(coarse_grid=())
    with raises(ValueError):
        SweepSpec(coarse_grid=(1e-3, 1e-2))  # ascending
    with raises(ValueError):
        SweepSpec(coarse_grid=(1e-2, -1e-3))
    for bad in (float("nan"), float("inf")):
        with raises(ValueError, match="finite"):
            SweepSpec(coarse_grid=(bad,))
        with raises(ValueError, match="finite"):
            SweepSpec(coarse_grid=(1e-1, bad))
    # the refine set and the selection metric are fixed, not settings
    assert [f.name for f in fields(SweepSpec)] == ["coarse_grid"]
    for removed in ("refine_factors", "metric"):
        with raises(TypeError, match=removed):
            SweepSpec(**{removed: (1.0,)})


def test_lr_sweep_selects_and_refines():
    spec = SweepSpec(coarse_grid=(1e-1, 1e-2, 1e-3))
    base = quad_run(max_steps=60)
    result = lr_sweep(spec, base)
    coarse = {r["lr"]: r["metric"] for r in result.rows if r["stage"] == "coarse"}
    # winner of the refinement can never lose to the coarse stage: the
    # refinement candidates include the coarse winner itself
    sel = result.selected_lr
    lrs = [r["lr"] for r in result.rows]
    assert len(lrs) == len(set(lrs))  # each lr listed once across both stages
    selected_metric = next(r["metric"] for r in result.rows if r["lr"] == sel)
    assert selected_metric <= min(coarse.values()) + 1e-15
    assert sel in result.records
    assert len(result.rows) == len(result.records)


def test_lr_sweep_single_point_grid():
    result = lr_sweep(SweepSpec(coarse_grid=(0.05,)), quad_run(max_steps=30))
    # the refine stage adds the winner's x/2 and x/10, and reruns nothing
    assert list(result.records) == [0.05, 0.025, 0.005]
    assert [r["stage"] for r in result.rows] == ["coarse", "refine", "refine"]
    assert result.selected_lr in result.records


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-8.0, max_value=2.0))
def test_lr_sweep_one_lr_grid_runs_exactly_three_lrs(log_lr):
    # x * 10 / 10 missed x for about 12% of lrs, and the rerun winner then
    # wrote a second copy of its rows
    lr = 10.0 ** log_lr
    base = quad_run(max_steps=2, optimizer="sgd", opt_cfg=BaselineConfig(kind="sgd", lr=1.0))
    result = lr_sweep(SweepSpec(coarse_grid=(lr,)), base)
    assert len(result.records) == len(result.rows) == 3
    assert lr in result.records


def test_lr_sweep_refine_set_contains_the_coarse_winner_itself(tmp_path, capsys):
    # 0.007 * 10 / 10 is 0.007000000000000001: the refine stage reran the
    # winner as a fifth lr, selected it, and wrote its run_ids twice
    doc = {**RUN_DOC, "optimizer": {"kind": "sgd", "lr": 0.1},
           "sweep": {"coarse_grid": [0.007, 0.0001]}}
    out = tmp_path / "r"
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    assert "selected lr 0.007 for sgd (min_val over 4 grid points)" in capsys.readouterr().out
    swept = [float(row[0]) for row in read_csv(out / "sweep.csv")[1:]]
    assert sorted(swept, reverse=True) == [0.007, 0.0035, 0.0007, 0.0001]
    summary_lrs = [row[1] for row in read_csv(out / "summary.csv")[1:]]
    assert len(summary_lrs) == len(set(summary_lrs)) == 4
    keys = [(row[0], row[5]) for row in read_csv(out / "steps.csv")[1:]]
    assert len(keys) == len(set(keys))


def test_lrs_that_print_alike_get_distinct_run_ids(tmp_path, capsys):
    # 0.7 / 10 is 0.06999999999999999, which :g prints as the coarse 0.07,
    # so both lrs wrote their rows under sgd-lr0.07-s*
    doc = {**RUN_DOC, "problem": {"kind": "quadratic", "h": [0.5, 1.0]},
           "optimizer": {"kind": "sgd", "lr": 0.1}, "sweep": {"coarse_grid": [0.7, 0.07]}}
    out = tmp_path / "r"
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    rows = read_csv(out / "steps.csv")[1:]
    assert len(rows) == 88
    assert len({(row[0], row[5]) for row in rows}) == 88
    assert {row[0] for row in rows} >= {"sgd-lr0.07-s0", "sgd-lr0.06999999999999999-s0"}


@pytest.mark.parametrize("lr, label", [(0.05, "0.05"), (1e-05, "1e-05"), (0.35, "0.35"),
                                       (0.1 / 3, "0.03333333333333333")])
def test_run_ids_print_the_lr_as_g_when_it_reads_back(lr, label):
    assert harness._label(lr) == label


def test_lr_sweep_all_diverged():
    base = quad_run(max_steps=30, optimizer="sgd",
                    opt_cfg=BaselineConfig(kind="sgd", lr=1.0))
    spec = SweepSpec(coarse_grid=(1e8, 1e7))
    with raises(ValueError, match="coarse grid"):
        lr_sweep(spec, base)


def test_lr_sweep_does_not_select_on_survivors():
    # at 1.2e26, 5 of 8 replicates diverge and the median of the other 3
    # beats every lr where all 8 survive; the sweep used to select it
    opt_cfg, _, grid = DIVERGING["adahessian-iterate"]
    base = RunConfig(problem=RandomStartRosenbrock(), optimizer="adahessian",
                     opt_cfg=opt_cfg, max_steps=40, base_seed=1, n_seeds=8,
                     record_every=10)
    result = lr_sweep(SweepSpec(coarse_grid=grid), base)
    rows = {row["lr"]: row for row in result.rows}
    assert rows[1.2e26]["diverged"] == 5
    assert rows[1.2e26]["metric"] < min(row["metric"] for row in rows.values()
                                        if not row["diverged"])
    # fewest diverged replicates first, then the survivors' median min_val
    assert result.selected_lr == 0.01
    assert [row["lr"] for row in result.rows if row["stage"] == "refine"] == [0.005]
    assert rows[0.01]["diverged"] == rows[0.005]["diverged"] == 0
    assert rows[0.01]["metric"] < rows[0.005]["metric"]


# --- stacked sweep stages ----------------------------------------------------------

def record_fields(rec):
    """Every RunRecord field but wall_ms, which is the whole stack's time."""
    return [getattr(rec, f.name) for f in fields(RunRecord) if f.name != "wall_ms"]


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_equal(record_fields(a), record_fields(b))


def alone_at(cfg, lr):
    """cfg's records at lr from its own run_experiment."""
    return run_experiment(replace(cfg, opt_cfg=cfg.opt_cfg.with_lr(lr)))


SWEEP_PROBLEMS = {
    "quadratic-noise": lambda: Quadratic(np.array([1.0, 2.0, 4.0]), noise_std_grad=0.1),
    "mlp-full": lambda: MlpRegression(**MLP_SMALL),
    "mlp-minibatch": lambda: MlpRegression(batch_size=32, **MLP_SMALL),
}
SWEEP_OPTIMIZERS = {
    "diag_ocp": MLP_OCP,   # 4 Rademacher probes
    **{kind: BaselineConfig(kind=kind, lr=0.1, weight_decay=0.008)
       for kind in ("sgd", "adam", "adahessian")},
}


@pytest.mark.parametrize("optimizer", sorted(SWEEP_OPTIMIZERS))
@pytest.mark.parametrize("problem", sorted(SWEEP_PROBLEMS))
def test_lr_sweep_records_equal_each_lr_run_alone(problem, optimizer):
    base = RunConfig(problem=SWEEP_PROBLEMS[problem](), optimizer=optimizer,
                     opt_cfg=SWEEP_OPTIMIZERS[optimizer], max_steps=8, base_seed=3,
                     n_seeds=2, record_every=3)
    # adahessian diverges on the MLP at the larger lrs
    result = lr_sweep(SweepSpec(coarse_grid=(1e-1, 1e-2, 1e-3, 1e-4)), base)
    assert len(result.records) > 4   # the refine stage ran new lrs
    for lr, recs in result.records.items():
        assert_same_records(recs, alone_at(base, lr))


def test_lr_sweep_makes_one_stepper_run_per_stage(monkeypatch):
    stages, windows = [], []
    run_stack = harness._run_stack

    def counting(cfg, lrs, window):
        stages.append(list(lrs))
        windows.append(window)
        return run_stack(cfg, lrs, window)

    monkeypatch.setattr(harness, "_run_stack", counting)
    spec = SweepSpec(coarse_grid=(1e-1, 1e-2, 1e-3))
    result = lr_sweep(spec, quad_run(max_steps=30, n_seeds=2))
    assert len(stages) == 2
    # both stages step the same replicates, so they read one set of streams
    assert windows[0] is windows[1]
    assert stages[0] == list(spec.coarse_grid)
    # the winner 0.1 refines to {0.1, 0.05, 0.01}; only 0.05 is new
    assert stages[1] == [0.05]
    assert list(result.records) == stages[0] + stages[1]
    # every row of a stage reports the stage's wall time
    assert len({r.wall_ms for lr in stages[0] for r in result.records[lr]}) == 1


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_lr_sweep_stage_with_diverging_rows_matches_the_reference(case, monkeypatch,
                                                                  tmp_path):
    # the largest lr diverges on some seeds at different steps, so rows
    # leave a mixed-lr stack while the rest of it keeps stepping
    opt_cfg, expected, grid = DIVERGING[case]
    base = RunConfig(problem=RandomStartRosenbrock(), optimizer=case.split("-")[0],
                     opt_cfg=opt_cfg, max_steps=40, base_seed=1, n_seeds=8,
                     record_every=10)
    ks = []

    def counting(*args, _advance=harness._advance):
        ks.append(args[-2])
        return _advance(*args)

    monkeypatch.setattr(harness, "_advance", counting)
    result = lr_sweep(SweepSpec(coarse_grid=grid), base)
    # one stacked call per step and stage: no row is ever re-stepped alone
    assert ks == list(range(1, 41)) * 2
    for lr, recs in result.records.items():
        cfg = replace(base, opt_cfg=opt_cfg.with_lr(lr))
        paths = assert_matches_reference(tmp_path / f"lr{lr:g}", cfg, recs)
        if lr == grid[0]:
            assert set(paths) == expected | {None}
            assert len({r.steps[-1] for r in recs if r.diverged}) > 1
    assert not all(r.diverged for recs in result.records.values() for r in recs)


def tabled(window):
    """The channels the window draws on, each of which has its table."""
    assert set(window.tables) == set(window.draws)
    return set(window.tables)


@pytest.mark.parametrize("case", ["least_squares-noise-diag_ocp",
                                  "least_squares-noise-sgd", "mlp-noise-diag_ocp"])
def test_lr_sweep_with_gradient_noise_matches_the_reference(case, tmp_path):
    # a noisy oracle tables its gradient noise as a minibatch oracle tables
    # its minibatches: both stages read one noise table and one probe
    # table, and every lr must still draw exactly what the reference's lone
    # per-step seeds draw
    make, optimizer, opt_cfg = STACK_CASES[case]
    base = RunConfig(problem=make(), optimizer=optimizer, opt_cfg=opt_cfg,
                     max_steps=12, base_seed=5, n_seeds=3, record_every=5)
    probed = {Channel.PROBE} if optimizer == "diag_ocp" else set()
    assert tabled(harness._streams(base)) == {Channel.GRADIENT} | probed
    spec = SweepSpec(coarse_grid=(1e-1, 1e-2, 1e-3))
    result = lr_sweep(spec, base)
    assert len(result.records) > len(spec.coarse_grid)   # the refine stage ran new lrs
    for lr, recs in result.records.items():
        cfg = replace(base, opt_cfg=opt_cfg.with_lr(lr))
        assert_matches_reference(tmp_path / f"lr{lr:g}", cfg, recs)


# Noise-free minibatch sweeps whose largest lr diverges on every replicate,
# at different steps, while the other lrs run to the end. Least squares
# leaves the float range within 12 steps only at a huge lr; adahessian's
# replicates leave it at different steps only from 2.75e19 to 3.3e19.
TABLED_DIVERGING = {
    "mlp-minibatch-diag_ocp": (
        lambda: MlpRegression(batch_size=16, **MLP_SMALL), "diag_ocp",
        OptimizerConfig(alpha=0.01, n_probes=2), (10.0, 1e-2, 1e-3)),
    "least_squares-minibatch-adahessian": (
        lambda: CentralLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8),
        "adahessian", BaselineConfig(kind="adahessian", lr=0.05), (3e19, 1e-2, 1e-3)),
}


@pytest.mark.parametrize("case", sorted(TABLED_DIVERGING))
def test_tabled_lr_sweep_with_diverging_rows_matches_the_reference(case, tmp_path):
    # both stages gather their minibatches from one table while the rows of
    # the largest lr leave the stack mid-stage; every lr must still draw
    # exactly what the reference's lone per-step seeds draw
    make, optimizer, opt_cfg, grid = TABLED_DIVERGING[case]
    base = RunConfig(problem=make(), optimizer=optimizer, opt_cfg=opt_cfg,
                     max_steps=12, base_seed=5, n_seeds=3, record_every=5)
    assert tabled(harness._streams(base)) >= {Channel.GRADIENT, Channel.HESSIAN_NOISE}
    result = lr_sweep(SweepSpec(coarse_grid=grid), base)
    assert len(result.records) > len(grid)   # the refine stage ran new lrs
    for lr, recs in result.records.items():
        cfg = replace(base, opt_cfg=opt_cfg.with_lr(lr))
        paths = assert_matches_reference(tmp_path / f"lr{lr:g}", cfg, recs)
        assert (None not in paths) == (lr == grid[0])
    left = [r.steps[-1] for r in result.records[grid[0]]]
    assert max(left) < base.max_steps and len(set(left)) > 1


@pytest.mark.parametrize("cfg", [
    RunConfig(problem=MlpRegression(batch_size=32, **MLP_SMALL), optimizer="diag_ocp",
              opt_cfg=MLP_OCP, max_steps=8, base_seed=9, n_seeds=2),
    RunConfig(problem=RandomStartRosenbrock(), optimizer="diag_ocp",
              opt_cfg=DIVERGING["diag_ocp-iterate"][0], max_steps=40, base_seed=1,
              n_seeds=4),
], ids=["mlp-minibatch", "diverging"])
def test_lr_records_do_not_depend_on_the_other_lrs_of_the_stage(cfg):
    lrs = [0.5, 0.05, 0.01, 0.005]
    window = harness._streams(cfg)
    full = dict(zip(lrs, harness._run_stack(cfg, lrs, window)))
    for subset in ([0.05], [0.005, 0.5], [0.01, 0.05, 0.5]):
        for lr, recs in zip(subset, harness._run_stack(cfg, subset, window)):
            assert [r.run_id for r in recs] == [r.run_id for r in full[lr]]
            assert_same_records(recs, full[lr])


@pytest.mark.parametrize("distribution", ["rademacher", "standard_normal"])
@pytest.mark.parametrize("command", ["run", "sweep", "ablate-mu"])
def test_a_run_over_the_probe_table_bound_writes_the_same_bytes(tmp_path, monkeypatch,
                                                                command, distribution):
    # tables over BUDGET bytes are filled a window of steps at a time, and
    # each stage fills its own windows: every window must hold the draws
    # that the one-window run's tables hold
    doc = {**RUN_DOC, "problem": {"kind": "mlp_regression", "layer_sizes": [4, 8, 2],
                                  "n_samples": 64, "batch_size": 16},
           "optimizer": {"kind": "diag_ocp", "alpha": 0.01, "n_probes": 3,
                         "probe_distribution": distribution},
           "sweep": {"coarse_grid": [0.1, 0.01]}, "mu_values": [1e-3], "n_seeds": 3}
    config = write_config(tmp_path, doc)
    cfg = cli._build_run(doc, None)
    steps, window = doc["max_steps"], harness._streams(cfg)
    assert window.width >= steps
    per_step = sum(t[:, 0].nbytes for t in window.tables.values())
    per_step += doc["n_seeds"] * harness._WORD_BYTES
    outs = {steps: tmp_path / "whole"}
    assert cli.main([command, "--config", config, "--out", str(outs[steps])]) == 0
    for width in (1, 3):
        monkeypatch.setattr(harness, "BUDGET", (width + 1) * per_step - 1)
        assert harness._streams(cfg).width == width
        channels = count_streams(monkeypatch)
        outs[width] = tmp_path / f"width{width}"
        assert cli.main([command, "--config", config, "--out", str(outs[width])]) == 0
        # each stage draws every channel once per replicate and step
        n_stages = 1 if command == "run" else 2
        assert sorted(channels) == sorted(list(Channel) * n_stages * doc["n_seeds"] * steps)
        files = sorted(p.name for p in outs[steps].iterdir())
        assert files == sorted(p.name for p in outs[width].iterdir())
        for name in files:
            assert (outs[steps] / name).read_bytes() == (outs[width] / name).read_bytes()


@pytest.mark.parametrize("problem, opt_cfg", [
    (dict(batch_size=16), BaselineConfig(kind="sgd", lr=0.01)),
    (dict(noise_std_grad=0.1), BaselineConfig(kind="sgd", lr=0.01)),
    ({}, MLP_OCP),
], ids=["minibatch", "noise", "probe"])
def test_no_stream_is_derived_while_stepping(problem, opt_cfg, monkeypatch):
    events = []
    derive, advance = BatchSeed.rng, harness._advance
    monkeypatch.setattr(BatchSeed, "rng", lambda seed: events.append(seed.channel)
                        or derive(seed))
    monkeypatch.setattr(harness, "_advance",
                        lambda *a: events.append("step") or advance(*a))
    cfg = RunConfig(problem=MlpRegression(**MLP_SMALL, **problem), optimizer=opt_cfg.kind,
                    opt_cfg=opt_cfg, max_steps=6, base_seed=2, n_seeds=3)
    run_experiment(cfg)
    # each case draws on one channel, every replicate at every step, into
    # its table before the first step
    first_step = events.index("step")
    assert len(events[:first_step]) == 3 * 6 and len(set(events[:first_step])) == 1
    assert set(events[first_step:]) == {"step"}


def test_streams_of_a_long_run_hold_at_most_the_budget():
    # 5 seeds x 200,000 steps: the seed words alone would take 96 MB
    cfg = RunConfig(problem=MlpRegression(noise_std_grad=0.1), optimizer="diag_ocp",
                    opt_cfg=OptimizerConfig(n_probes=4), max_steps=200_000, base_seed=0,
                    n_seeds=5)
    tracemalloc.start()
    try:
        window = harness._streams(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(t.nbytes for t in window.tables.values())
    assert held + 5 * harness._WORD_BYTES * window.width <= harness.BUDGET
    assert window.width == harness.BUDGET // (5 * (harness._WORD_BYTES + 178 * 8 * 5))
    # the window's tables and words, and the transients of one fill
    assert peak <= harness.BUDGET + (1 << 20)


# --- shared stream derivations ----------------------------------------------------

def repeated_seeds(draw, channel, steps=(4,)):
    """A stack whose rows 0, 1, 0, 2, 1 repeat three replicate bases out of
    order, reading step 4 from a table of `draw` over steps as the harness
    fills it, and each row's lone BatchSeed."""
    bases, rows = (11, 12, 13), [0, 1, 0, 2, 1]
    table = draw.table(bases, steps, channel, stream_states(bases, steps))
    return (StackSeed(table[rows, list(steps).index(4)]),
            [BatchSeed(bases[r], 4, channel) for r in rows])


SHARED_SEED_PROBLEMS = {
    "least_squares-minibatch": lambda: CentralLeastSquares(
        design_seed=3, n_samples=40, dim=6, batch_size=8),
    "least_squares-noise": lambda: CentralLeastSquares(
        design_seed=3, n_samples=40, dim=6, noise_std_grad=0.05),
    "mlp-minibatch": lambda: MlpRegression(batch_size=32, **MLP_SMALL),
    "mlp-noise": lambda: MlpRegression(noise_std_grad=0.1, **MLP_SMALL),
}


@pytest.mark.parametrize("method", ["eval_grad", "grad_and_train_loss", "eval_loss", "hvp"])
@pytest.mark.parametrize("case", sorted(SHARED_SEED_PROBLEMS))
def test_stack_rows_sharing_a_seed_share_one_derivation(case, method, monkeypatch):
    prob = SHARED_SEED_PROBLEMS[case]()
    rng = np.random.default_rng(41)
    X = np.stack([prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
                  for _ in range(5)])
    args = (X,) if method != "hvp" else (X, rng.standard_normal((5, 2, prob.dim)))
    channels = count_streams(monkeypatch)
    stack, seeds = repeated_seeds(prob.stream_draw(), Channel.GRADIENT)
    # the table derives each replicate's stream once, for all of its rows,
    # and the stacked call derives none
    assert channels == [Channel.GRADIENT] * 3
    channels.clear()
    call = getattr(prob, method)
    stacked = call(*args, stack)
    assert channels == []
    alone = [call(*(a[i] for a in args), seed) for i, seed in enumerate(seeds)]
    for i, want in enumerate(alone):
        if method == "grad_and_train_loss":
            np.testing.assert_array_equal(stacked[0][i], want[0])
            assert stacked[1][i] == want[1]
        else:
            np.testing.assert_array_equal(stacked[i], want)


@pytest.mark.parametrize("distribution", ["rademacher", "standard_normal"])
def test_hutchinson_rows_sharing_a_seed_share_one_probe_block(distribution, monkeypatch):
    probe = probe_draw(3, distribution, 6)
    a = np.random.default_rng(5).standard_normal((6, 6))
    sym = a + a.T
    channels = count_streams(monkeypatch)
    stack, seeds = repeated_seeds(probe, Channel.PROBE)
    assert channels == [Channel.PROBE] * 3
    blocks = []

    def hvp(V):
        blocks.append(V)
        return V @ sym

    est = hutchinson_diag(hvp, probe, stack)
    assert channels == [Channel.PROBE] * 3
    alone = [hutchinson_diag(hvp, probe, seed) for seed in seeds]
    for i, want in enumerate(alone):
        np.testing.assert_array_equal(blocks[0][i], blocks[1 + i])
        np.testing.assert_array_equal(est[i], want)


def test_lr_sweep_derives_each_channel_once_per_replicate_and_step(monkeypatch):
    stages = []
    run_stack = harness._run_stack

    def counting(cfg, lrs, window):
        stages.append(list(lrs))
        return run_stack(cfg, lrs, window)

    monkeypatch.setattr(harness, "_run_stack", counting)
    channels = count_streams(monkeypatch)
    steps, n_seeds = 6, 3
    base = RunConfig(problem=MlpRegression(batch_size=32, **MLP_SMALL), optimizer="diag_ocp",
                     opt_cfg=MLP_OCP, max_steps=steps, base_seed=2, n_seeds=n_seeds)
    result = lr_sweep(SweepSpec(coarse_grid=(1e-1, 1e-2, 1e-3, 1e-4)), base)
    assert len(stages) == 2 and len(stages[0]) == 4 and stages[1]
    assert not any(r.diverged for recs in result.records.values() for r in recs)
    # each stage steps every replicate at several lrs, yet the sweep derives
    # each channel once per replicate and step (step k's gradient is step
    # k+1's): the minibatches and the probe blocks are drawn ahead once for
    # both stages
    assert channels.count(Channel.GRADIENT) == n_seeds * steps
    assert channels.count(Channel.HESSIAN_NOISE) == n_seeds * steps
    assert channels.count(Channel.PROBE) == n_seeds * steps


def test_full_batch_compare_derives_only_probe_streams(monkeypatch):
    stages = []
    run_stack = harness._run_stack

    def counting(cfg, lrs, window):
        stages.append(cfg.optimizer)
        return run_stack(cfg, lrs, window)

    monkeypatch.setattr(harness, "_run_stack", counting)
    channels, seeds = count_streams(monkeypatch), count_seeds(monkeypatch)
    steps, n_seeds = 5, 3
    entries = [RunConfig(problem=MlpRegression(**MLP_SMALL), optimizer=opt_cfg.kind,
                         opt_cfg=opt_cfg, max_steps=steps, base_seed=4, n_seeds=n_seeds)
               for opt_cfg in (MLP_OCP, BaselineConfig(kind="sgd", lr=0.01),
                               BaselineConfig(kind="adam", lr=0.01))]
    result = compare(entries, SweepSpec(coarse_grid=(1e-2, 1e-3)))
    assert not any(r.diverged for sw in result.sweeps.values()
                   for recs in sw.records.values() for r in recs)
    # gradients and HVPs of a full-batch, noise-free problem draw nothing;
    # diag_ocp's sweep derives one probe stream per replicate and step, into
    # the probe table that both of its stages read
    n_probe_stages = stages.count("diag_ocp")
    assert n_probe_stages == 2 and len(stages) == 6
    assert channels == [Channel.PROBE] * (n_seeds * steps)
    # nor is a GRADIENT or HESSIAN_NOISE seed built that no draw reads: one
    # PROBE seed per diag_ocp stage and step, which gathers from the table
    assert seeds == [Channel.PROBE] * (n_probe_stages * steps)


def test_replicates_that_left_the_stack_derive_no_streams(monkeypatch):
    events = []
    derive, estimate = BatchSeed.rng, harness.hutchinson_diag

    def counting(seed):
        events.append((seed.base_seed, seed.step_index))
        return derive(seed)

    def stepping(*args):
        events.append("step")
        return estimate(*args)

    monkeypatch.setattr(BatchSeed, "rng", counting)
    monkeypatch.setattr(harness, "hutchinson_diag", stepping)
    cfg = RunConfig(problem=RandomStartRosenbrock(), optimizer="diag_ocp",
                    opt_cfg=DIVERGING["diag_ocp-iterate"][0], max_steps=40, base_seed=1,
                    n_seeds=8, record_every=10)
    recs = run_experiment(cfg)
    assert sum(r.diverged for r in recs) > 1
    # every replicate's probe block at every step is drawn once, into the
    # probe table, before step 1; no step derives a stream, whichever
    # replicates have left the stack
    first_step = events.index("step")
    want = sorted((_replicate_base(cfg.base_seed, rep), k)
                  for rep in range(cfg.n_seeds) for k in range(cfg.max_steps))
    assert sorted(events[:first_step]) == want
    assert set(events[first_step:]) == {"step"}


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("optimizer", sorted(SWEEP_OPTIMIZERS))
def test_batch_table_rows_equal_each_lone_seeds_draw(optimizer, noise):
    # each stream draws one thing, and it is tabled: a minibatch oracle's
    # minibatch, or a full-batch noisy oracle's noise
    prob = CentralLeastSquares(design_seed=3, n_samples=40, dim=6,
                               batch_size=None if noise else 8, noise_std_grad=noise)
    cfg = RunConfig(problem=prob, optimizer=optimizer, opt_cfg=SWEEP_OPTIMIZERS[optimizer],
                    max_steps=5, base_seed=2, n_seeds=3)
    window = harness._streams(cfg)
    # a probed optimizer's blocks are tabled (see the probe table tests);
    # only its minibatch HVP reads HESSIAN_NOISE, and no HVP reads
    # gradient noise
    probed = optimizer in ("adahessian", "diag_ocp")
    drawn = {Channel.GRADIENT} | ({Channel.HESSIAN_NOISE} if probed and not noise else set())
    assert tabled(window) == drawn | ({Channel.PROBE} if probed else set())
    for channel in drawn:
        table = window.tables[channel]
        assert (table.shape, table.dtype) == (((3, 5, 6), np.float64) if noise
                                              else ((3, 5, 8), np.uint8))
        for k in range(cfg.max_steps):
            seed = harness._seeds(window, k, channel, np.arange(3))
            A, _ = prob._data(seed)
            X = np.zeros((3, 6))
            G, clean = prob.eval_grad(X, seed), prob.eval_grad(X)
            for i, base in enumerate(window.bases):
                rng = BatchSeed(base, k, channel).rng()
                if noise:
                    # the training split's gradient plus the lone stream's normals
                    assert A is prob._train_data[0]
                    z = rng.standard_normal(6)
                    np.testing.assert_array_equal(table[i, k], z)
                    np.testing.assert_array_equal(G[i], clean[i] + noise * z)
                    continue
                want = rng.choice(prob._train_idx, 8, replace=False)
                np.testing.assert_array_equal(table[i, k], want)
                np.testing.assert_array_equal(A[i], prob.A[want])


@pytest.mark.parametrize("problem, tables", [
    (lambda: MlpRegression(**MLP_SMALL), {Channel.PROBE}),
    (lambda: Quadratic(np.array([1.0, 2.0, 4.0]), noise_std_grad=0.1),
     {Channel.PROBE, Channel.GRADIENT}),
    (lambda: MlpRegression(noise_std_grad=0.1, **MLP_SMALL),
     {Channel.PROBE, Channel.GRADIENT}),
], ids=["full_batch", "noise", "mlp-noise"])
def test_streams_seed_only_the_channels_the_oracle_draws_on(problem, tables):
    # a full-batch oracle draws only with gradient noise, on GRADIENT: its
    # HVP, the MLP's central differences included, reads no noise and no
    # seed, so it has no HESSIAN_NOISE table. The probe blocks are tabled.
    cfg = RunConfig(problem=problem(), optimizer="diag_ocp", opt_cfg=MLP_OCP,
                    max_steps=4, base_seed=2, n_seeds=2)
    assert tabled(harness._streams(cfg)) == tables


@pytest.mark.parametrize("method", ["eval_grad", "grad_and_train_loss", "eval_loss", "hvp"])
@pytest.mark.parametrize("case", ["least_squares-minibatch", "mlp-minibatch", "mlp-noise"])
def test_tabled_stack_seed_draws_what_each_lone_seed_draws(case, method, monkeypatch):
    # a window's table starts at its first step, so step 4 of a window over
    # steps 2..6 is its entry 2
    prob = SHARED_SEED_PROBLEMS[case]()
    rng = np.random.default_rng(41)
    X = np.stack([prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
                  for _ in range(5)])
    args = (X,) if method != "hvp" else (X, rng.standard_normal((5, 2, prob.dim)))
    stack, seeds = repeated_seeds(prob.stream_draw(), Channel.GRADIENT, range(2, 7))
    call = getattr(prob, method)
    channels = count_streams(monkeypatch)
    stacked = call(*args, stack)
    assert channels == []
    alone = [call(*(a[i] for a in args), seed) for i, seed in enumerate(seeds)]
    for i, want in enumerate(alone):
        if method == "grad_and_train_loss":
            np.testing.assert_array_equal(stacked[0][i], want[0])
            assert stacked[1][i] == want[1]
        else:
            np.testing.assert_array_equal(stacked[i], want)


def count_tables(monkeypatch):
    """Record the (n_bases, n_steps) of every stream table the harness
    builds from now on."""
    tables = []
    build = harness.stream_states

    def counting(bases, steps):
        tables.append((len(bases), len(steps)))
        return build(bases, steps)

    monkeypatch.setattr(harness, "stream_states", counting)
    return tables


def test_lr_sweep_builds_one_stream_table_per_sweep(monkeypatch):
    stages = []
    run_stack = harness._run_stack

    def counting(cfg, lrs, window):
        stages.append(list(lrs))
        return run_stack(cfg, lrs, window)

    monkeypatch.setattr(harness, "_run_stack", counting)
    tables = count_tables(monkeypatch)
    steps, n_seeds = 6, 3
    base = RunConfig(problem=MlpRegression(batch_size=32, **MLP_SMALL), optimizer="diag_ocp",
                     opt_cfg=MLP_OCP, max_steps=steps, base_seed=2, n_seeds=n_seeds)
    lr_sweep(SweepSpec(coarse_grid=(1e-1, 1e-2, 1e-3, 1e-4)), base)
    # one table over the replicates, shared by both stages whatever their lrs
    assert len(stages) == 2
    assert tables == [(n_seeds, steps)]


def test_verify_rate_trend_builds_one_stream_table(monkeypatch):
    tables = count_tables(monkeypatch)
    verify_rate_trend(T_list=(5, 10), n_seeds=4)
    assert tables == [(4, 10)]


def test_verify_rate_trend_builds_no_hessian_noise_seed(monkeypatch):
    # its noisy quadratic's HVP is exact and reads no seed, so only the
    # gradient and the probe are seeded: one StackSeed of each per step
    seeds = count_seeds(monkeypatch)
    verify_rate_trend(T_list=(5, 10), n_seeds=4)
    assert sorted(seeds) == [Channel.GRADIENT] * 10 + [Channel.PROBE] * 10


# --- clip-floor ablation ---------------------------------------------------------

def test_ablate_mu_requires_diag_ocp():
    with raises(ValueError):
        ablate_mu([1e-4], quad_run(optimizer="sgd",
                                   opt_cfg=BaselineConfig(kind="sgd", lr=0.1)))
    with raises(ValueError):
        ablate_mu([], quad_run())
    with raises(ValueError):
        ablate_mu([0.0], quad_run())


@pytest.mark.parametrize("values", [[1e-3, 1e5], [1e-3, float("nan")]],
                         ids=["floor-above-g_d", "nan-floor"])
def test_ablate_mu_rejects_a_bad_floor_before_any_run(monkeypatch, values):
    # a floor above g_d (1e4) used to fail after the floors before it had run
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    with raises(ValueError, match="mu"):
        ablate_mu(values, quad_run())


@pytest.mark.parametrize("values", [[1e-3, 1e-3], [1e-3, 1e-12]],
                         ids=["repeated-floor", "floor-equal-to-control"])
def test_ablate_mu_rejects_a_repeated_floor_before_any_run(monkeypatch, values):
    # a repeated floor used to run again and write its (run_id, step) rows twice
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    with raises(ValueError, match="distinct"):
        ablate_mu(values, quad_run())


def test_ablate_mu_draws_one_set_of_streams_for_all_floors(monkeypatch):
    tables = count_tables(monkeypatch)
    channels = count_streams(monkeypatch)
    base = RunConfig(problem=MlpRegression(batch_size=32, **MLP_SMALL), optimizer="diag_ocp",
                     opt_cfg=MLP_OCP, max_steps=6, base_seed=2, n_seeds=3)
    ablation = ablate_mu([1e-3, 1e-5], base)
    # the floors differ only in mu: one stream table, and each minibatch and
    # probe block drawn once for all three run sets
    assert tables == [(3, 6)]
    assert sorted(channels) == sorted(list(Channel) * 3 * 6)
    monkeypatch.undo()
    for mu, recs in ablation.items():
        mu = harness.CONTROL_CLIP_LO if mu == "control" else mu
        assert_same_records(recs, run_experiment(replace(base, opt_cfg=replace(MLP_OCP, mu=mu))))


def test_ablate_mu_runs_values_and_control():
    ablation = ablate_mu([1e-3, 1e-5], quad_run(max_steps=10))
    # each floor in the order given, then the control; the records carry mu
    assert list(ablation) == [1e-3, 1e-5, "control"]
    assert all(r.mu == 1e-3 for r in ablation[1e-3])
    assert all(r.mu == harness.CONTROL_CLIP_LO == 1e-12 for r in ablation["control"])
    with raises(TypeError, match="control_clip_lo"):
        ablate_mu([1e-3], quad_run(), control_clip_lo=1e-10)


# --- verification ops -------------------------------------------------------------

def test_verify_closed_form_equivalence():
    report = verify_closed_form_equivalence(seed=1)
    assert report["pass"]
    assert report["max_abs_deviation"] <= report["tolerance"]
    # the floor at -rho_max never touches a flat trial, so none is excluded
    assert report["excluded_safeguarded"] == 0


def test_verify_rate_trend_small(monkeypatch):
    # noise-free: the running min keeps decreasing, so the ratio is tiny
    monkeypatch.setattr(harness, "default_rate_problem",
                        lambda: Quadratic(np.linspace(0.9, 1.1, 8)))
    report = verify_rate_trend(T_list=(20, 40), n_seeds=2)
    assert report["pass"]
    assert report["ratio_last_to_first"] < 0.6
    assert report["loglog_slope"] < 0.0
    assert len(report["min_avg_grad_norm_sq"]) == 2
    assert report["r"][0] == approx(20 * report["min_avg_grad_norm_sq"][0])
    assert report["diverged_step"] is None


def test_verify_rate_trend_validation():
    with raises(ValueError):
        verify_rate_trend(T_list=(100,))
    with raises(ValueError):
        verify_rate_trend(T_list=(200, 100))
    with raises(ValueError):
        verify_rate_trend(T_list=(100, 100, 200))
    with raises(ValueError):
        verify_rate_trend(n_seeds=0)
    with raises(ValueError, match="T_list must be an integer"):
        verify_rate_trend(T_list=(10.7, 20, 40), n_seeds=1)


def test_verify_probe_unbiasedness_small():
    report = verify_probe_unbiasedness(seed=1)
    assert report["pass"]
    assert report["max_relative_error"] <= report["tolerance"]
    assert report["diagonal_exact_error"] == 0.0


# verify subcommand -> (check, its parameters, the report entries that its
# defaults and its own pass criterion fix)
VERIFY_CHECKS = {
    "lemma1": (verify_closed_form_equivalence, ["seed"],
               {"trials": 200, "tolerance": 1e-9}),
    "rate": (verify_rate_trend, ["T_list", "n_seeds", "base_seed"],
             {"T_list": [100, 200, 400], "n_seeds": 20, "ratio_threshold": 0.6}),
    "hutchinson": (verify_probe_unbiasedness, ["seed"],
                   {"n_probes": 100_000, "dim": 8, "tolerance": 0.05}),
}
# the arguments that set a check's pass criterion or its size, removed so
# that no caller or config can loosen a release criterion
REMOVED_CHECK_KNOBS = {"tol", "trials", "ratio_threshold", "n_probes", "dim"}


@pytest.mark.parametrize("check", sorted(VERIFY_CHECKS))
def test_verify_checks_own_their_pass_criterion(check):
    func, params, _ = VERIFY_CHECKS[check]
    assert list(inspect.signature(func).parameters) == params


@pytest.mark.parametrize("check, knob, value", [
    *(("lemma1", "tol", v) for v in (float("nan"), 0.0, float("inf"))),
    ("lemma1", "trials", 2.5), ("lemma1", "seed", 1.5),
    *(("rate", "ratio_threshold", v) for v in (float("nan"), 0.0, float("inf"))),
    ("rate", "n_seeds", 2.5), ("rate", "n_seeds", True), ("rate", "base_seed", 1.5),
    *(("hutchinson", "tol", v) for v in (float("nan"), 0.0, float("inf"))),
    ("hutchinson", "n_probes", 2.5), ("hutchinson", "dim", 2.5), ("hutchinson", "seed", 1.5),
])
def test_verify_checks_reject_bad_knobs(check, knob, value):
    # a NaN tolerance used to make a silent FAIL, and a fractional count or
    # seed a TypeError, or a run. A tolerance, threshold or size is no
    # argument now, so no value of it reaches a check
    error = TypeError if knob in REMOVED_CHECK_KNOBS else ValueError
    with raises(error, match=knob):
        VERIFY_CHECKS[check][0](**{knob: value})


# --- comparison --------------------------------------------------------------------

def test_compare_requires_distinct_keys():
    a = quad_run(optimizer="sgd", opt_cfg=BaselineConfig(kind="sgd", lr=0.1))
    with raises(ValueError):
        compare([a, a], SweepSpec())
    with raises(ValueError):
        compare([], SweepSpec())


def test_compare_reports_each_entry_at_its_selected_lr():
    entries = [
        quad_run(max_steps=40, optimizer="sgd",
                 opt_cfg=BaselineConfig(kind="sgd", lr=0.1)),
        quad_run(max_steps=40, optimizer="adam",
                 opt_cfg=BaselineConfig(kind="adam", lr=0.1)),
    ]
    result = compare(entries, SweepSpec(coarse_grid=(1e-1, 1e-2)))
    assert isinstance(result, CompareResult)
    assert set(result.selected) == {"sgd", "adam"}
    for key, recs in result.records.items():
        assert recs[0].lr == result.selected[key]


def test_compare_runs_two_diag_ocp_arms_under_their_own_labels(tmp_path):
    # Hutchinson and its curvature-free control (mu = g_d clips every
    # estimate to one constant) side by side: the label, not the kind,
    # keys an arm
    arms = {"diag_ocp": MLP_OCP, "diag_ocp_const": replace(MLP_OCP, mu=1e-4, g_d=1e-4)}
    entries = [RunConfig(problem=MlpRegression(**MLP_SMALL), optimizer=label, opt_cfg=cfg,
                         max_steps=6, base_seed=3, n_seeds=2) for label, cfg in arms.items()]
    spec = SweepSpec(coarse_grid=(1e-1, 1e-2))
    result = compare(entries, spec)
    assert set(result.sweeps) == set(arms)
    for entry in entries:
        alone = lr_sweep(spec, entry)
        got = result.sweeps[entry.optimizer]
        assert got.selected_lr == alone.selected_lr and got.records.keys() == alone.records.keys()
        for lr, recs in alone.records.items():
            assert_same_records(got.records[lr], recs)
            assert all(r.run_id.startswith(f"{entry.optimizer}-lr") for r in recs)
    # the arms differ in their curvature only, and it shows
    hutchinson, constant = (result.records[label][0].val_loss for label in arms)
    assert not np.array_equal(hutchinson, constant)
    # both arms are diag_ocp, so both write rho after step 0, whatever the label
    steps = read_csv(emit_results([r for recs in result.records.values() for r in recs],
                                  tmp_path)[0])
    rows = [dict(zip(steps[0], row)) for row in steps[1:]]
    assert {row["optimizer"] for row in rows} == set(arms)
    assert all((row["rho"] == "") == (row["step"] == "0") for row in rows)


# --- emission -----------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_emit_results_csv(tmp_path):
    recs = run_experiment(quad_run(max_steps=5))
    paths = emit_results(recs, tmp_path)
    steps, summary = read_csv(paths[0]), read_csv(paths[1])
    assert tuple(steps[0]) == STEP_HEADER
    assert tuple(summary[0]) == SUMMARY_HEADER
    assert len(steps) == 1 + 6  # header + steps 0..5
    assert len(summary) == 2
    row = dict(zip(steps[0], steps[1]))
    assert row["step"] == "0"
    assert row["rho"] == ""  # None -> empty cell


def test_emit_results_errors(tmp_path):
    with raises(ValueError):
        emit_results([], tmp_path)


def test_summary_rows_ordering():
    recs = []
    for opt, lr in (("sgd", 0.1), ("adam", 0.1), ("sgd", 0.01)):
        rec = fake_record(1.0, 1)
        rec.optimizer, rec.lr = opt, lr
        recs.append(rec)
    rows = summary_rows(recs)
    assert [(r[0], r[1]) for r in rows] == [("adam", 0.1), ("sgd", 0.1), ("sgd", 0.01)]


def test_emit_sweep_and_heatmap(tmp_path):
    result = lr_sweep(SweepSpec(coarse_grid=(1e-1, 1e-2)), quad_run(max_steps=20))
    sweep_path = emit_sweep(result, tmp_path)
    rows = read_csv(sweep_path)
    assert rows[0][:3] == ["lr", "stage", "metric"]
    assert len(rows) == 1 + len(result.rows)
    heat_path = emit_heatmap({"diag_ocp": result}, tmp_path)
    heat = read_csv(heat_path)
    assert tuple(heat[0]) == HEATMAP_HEADER
    lrs = [float(r[1]) for r in heat[1:]]
    assert lrs == sorted(lrs, reverse=True)
    with raises(ValueError):
        emit_heatmap({}, tmp_path)


def test_emit_ablation(tmp_path):
    ablation = ablate_mu([1e-3], quad_run(max_steps=5))
    steps_path, ablation_path = emit_ablation(ablation, tmp_path)
    rows = read_csv(ablation_path)
    assert rows[0][0] == "label"
    assert [r[0] for r in rows[1:]] == ["0.001", "control"]
    assert read_csv(steps_path)[0] == list(STEP_HEADER)


def csv_module_rows(records):
    """steps.csv's rows as tuples for a plain csv.writer: rho None at step
    0 and for a record without a clip floor, every other field as the
    record holds it."""
    for rec in records:
        cols = [getattr(rec, name).tolist() for name in RECORD_COLUMNS]
        cols[5] = [None] * len(rec.rho) if rec.mu is None else [None] + cols[5][1:]
        yield from ((rec.run_id, rec.optimizer, rec.lr, rec.mu, rec.seed) + row
                    for row in zip(*cols))


def test_steps_csv_bytes_equal_the_csv_modules(tmp_path):
    # a baseline whose label needs quoting and holds a non-ASCII character,
    # at an lr that _label writes by repr; a diag_ocp run with a NaN rho at
    # a real step; and a diverged baseline row with inf losses
    label, lr = 'sgd, "\u03b1"', 0.06999999999999999
    quoted = run_experiment(quad_run(max_steps=4, optimizer=label,
                                     opt_cfg=BaselineConfig(kind="sgd", lr=lr)))
    nan_rho = run_experiment(quad_run(max_steps=4, n_seeds=2))
    nan_rho[1].rho[2] = np.nan
    diverged = run_experiment(quad_run(max_steps=200, optimizer="sgd",
                                       opt_cfg=BaselineConfig(kind="sgd", lr=1e3)))
    assert diverged[0].diverged and nan_rho[0].mu is not None and quoted[0].mu is None
    records = quoted + nan_rho + diverged
    data = emit_results(records, tmp_path / "emitted")[0].read_bytes()
    assert data == steps_csv(tmp_path / "csv", csv_module_rows(records))
    head = '"sgd, ""\u03b1""-lr0.06999999999999999-s0","sgd, ""\u03b1""",0.06999999999999999,,0,'
    assert head.encode("utf-8") in data
    assert b",nan," in data and b",inf,inf," in data and data.endswith(b"\r\n")


# run in a fresh interpreter; the label is escaped so the argument is ASCII
EMIT_NON_ASCII_LABEL = """
import sys
import numpy as np
from diagocp.baselines import BaselineConfig
from diagocp.harness import RunConfig, emit_results, run_experiment
from diagocp.problems import Quadratic
cfg = RunConfig(problem=Quadratic(np.array([1.0, 2.0])), optimizer="sgd-\\u03b1",
                opt_cfg=BaselineConfig(kind="sgd", lr=0.1), max_steps=3, base_seed=0)
emit_results(run_experiment(cfg), sys.argv[1])
"""


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259), and so are the emitted tables: neither may
    # follow an ASCII locale's encoding
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps({**RUN_DOC, "_note": "\u03b1"}, ensure_ascii=False)
                       .encode("utf-8"))
    run = subprocess.run([sys.executable, "-m", "diagocp.cli", "run", "--config", str(config),
                          "--out", str(tmp_path / "run")], env=env, capture_output=True)
    assert run.returncode == 2
    assert json.loads(run.stderr)["message"] == "unknown config keys: '_note'"
    emit = subprocess.run([sys.executable, "-c", EMIT_NON_ASCII_LABEL, str(tmp_path / "emit")],
                          env=env, capture_output=True)
    assert emit.returncode == 0, emit.stderr
    steps = (tmp_path / "emit" / "steps.csv").read_bytes()
    assert ",sgd-\u03b1,".encode("utf-8") in steps and len(steps.splitlines()) == 1 + 4
    assert (tmp_path / "emit" / "summary.csv").read_bytes().count("sgd-\u03b1".encode("utf-8")) == 1


# --- CLI ------------------------------------------------------------------------------

RUN_DOC = {
    "problem": {"kind": "quadratic", "h": [1.0, 2.0, 4.0]},
    "optimizer": {"kind": "diag_ocp", "alpha": 0.05, "weight_decay": 0.0},
    "max_steps": 10,
    "base_seed": 0,
    "n_seeds": 2,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_DOC)
    out = tmp_path / "results"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "steps.csv").exists() and (out / "summary.csv").exists()
    assert "2 runs, 0 diverged" in capsys.readouterr().out


def test_cli_run_format_option_is_exit_2(tmp_path, capsys):
    # run writes CSV only; its JSON tables spelled a diverged loss Infinity
    cfg = write_config(tmp_path, RUN_DOC)
    out = tmp_path / "results"
    with raises(SystemExit) as exc:
        cli.main(["run", "--config", cfg, "--out", str(out), "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seed_override_changes_runs(tmp_path, capsys):
    doc = {**RUN_DOC,
           "problem": {"kind": "noisy_least_squares", "design_seed": 3,
                       "dim": 6, "n_samples": 40, "noise_std_grad": 0.05},
           "optimizer": {"kind": "sgd", "lr": 0.05},
           "n_seeds": 1}
    cfg = write_config(tmp_path, doc)
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    for out, seed in ((out_a, "0"), (out_b, "7"), (out_c, "0")):
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--seed", seed]) == 0
    capsys.readouterr()
    base = (out_a / "steps.csv").read_bytes()
    assert base != (out_b / "steps.csv").read_bytes()
    assert base == (out_c / "steps.csv").read_bytes()


def test_cli_sweep(tmp_path, capsys):
    doc = {**RUN_DOC, "sweep": {"coarse_grid": [1e-1, 1e-2]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "results"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for name in ("steps.csv", "summary.csv", "sweep.csv", "heatmap.csv"):
        assert (out / name).exists()
    assert "selected lr" in capsys.readouterr().out


def test_cli_sweep_entry_may_omit_its_lr(tmp_path, capsys):
    # the sweep overwrites the learning rate, so, as in compare, the entry
    # may leave it out; a baseline without one used to exit 2
    doc = {"problem": {"kind": "quadratic", "h": [1.0, 2.0]}, "max_steps": 5}
    written = {}
    for name, opt in (("omitted", {"kind": "sgd"}), ("explicit", {"kind": "sgd", "lr": 0.3})):
        cfg = write_config(tmp_path, {**doc, "optimizer": opt}, f"{name}.json")
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    capsys.readouterr()
    assert sorted(written["omitted"]) == ["heatmap.csv", "steps.csv", "summary.csv", "sweep.csv"]
    assert written["omitted"] == written["explicit"]


def test_cli_ablate_mu(tmp_path, capsys):
    doc = {**RUN_DOC, "mu_values": [1e-3, 1e-4]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "results"
    assert cli.main(["ablate-mu", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "ablation.csv").exists()


def test_cli_ablate_mu_repeated_value_is_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    cfg = write_config(tmp_path, {**RUN_DOC, "mu_values": [1e-3, 1e-4, 1e-3]})
    out = tmp_path / "r"
    assert cli.main(["ablate-mu", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "distinct" in err["message"]
    assert not out.exists()


def test_cli_ablate_mu_missing_values(tmp_path, capsys):
    cfg = write_config(tmp_path, RUN_DOC)
    assert cli.main(["ablate-mu", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "mu_values" in err["message"]


def test_cli_compare(tmp_path, capsys):
    doc = {
        "problem": {"kind": "quadratic", "h": [1.0, 2.0, 4.0]},
        "optimizers": [{"kind": "sgd"}, {"kind": "adam"}],
        "sweep": {"coarse_grid": [1e-1, 1e-2]},
        "max_steps": 20,
        "n_seeds": 1,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "results"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "heatmap.csv").exists()
    assert "selected lrs" in capsys.readouterr().out


def test_cli_verify_pass_writes_report(tmp_path, capsys):
    out = tmp_path / "results"
    assert cli.main(["verify", "lemma1", "--out", str(out)]) == 0
    report = json.loads((out / "verify_lemma1.json").read_text())
    assert report["pass"] is True
    assert capsys.readouterr().out.count("PASS") == 1


@pytest.mark.parametrize("check", sorted(VERIFY_CHECKS))
def test_cli_verify_without_a_config_runs_the_library_defaults(tmp_path, capsys, check):
    # the defaults live in the library, not in the CLI
    assert cli.main(["verify", check, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / f"verify_{check}.json").read_text())
    func, params, fixed = VERIFY_CHECKS[check]
    for key, value in fixed.items():
        assert report[key] == value
        if key in params:
            assert json.loads(json.dumps(inspect.signature(func).parameters[key].default)) == value


def strict_json(text):
    """Parse JSON that spells no NaN or Infinity, as a strict parser needs."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def diverging_rate_check(monkeypatch):
    """Point the rate check at Diag-OCP pinned at D_hat = 1e-4 with alpha
    0.9 on a noisy Rosenbrock: every step is ~9e3 * m_hat, so it diverges."""
    monkeypatch.setattr(harness, "RATE_TREND_CONFIG", OptimizerConfig(
        alpha=0.9, mu=1e-4, g_d=1e-4, weight_decay=0.0))
    monkeypatch.setattr(harness, "default_rate_problem",
                        lambda: Rosenbrock2D(noise_std_grad=0.01))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_verify_rate_on_a_diverging_config_fails_with_strict_json(tmp_path, capsys,
                                                                     monkeypatch):
    # its step loop had no errstate: an overflow warning, then a ValueError
    # on the non-finite stack, and exit 2
    diverging_rate_check(monkeypatch)
    cfg = write_config(tmp_path, {"T_list": [50, 100], "n_seeds": 2})
    assert cli.main(["verify", "rate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "FAIL rate trend: diverged at step" in capsys.readouterr().out
    report = strict_json((tmp_path / "verify_rate.json").read_text())
    assert report["pass"] is False and report["diverged_step"] >= 1
    assert report["ratio_last_to_first"] is None and report["loglog_slope"] is None


def test_verify_rate_trend_stops_at_the_first_diverged_step(monkeypatch):
    steps = []

    def counting(*args, _advance=harness._advance):
        steps.append(args[-1])
        return _advance(*args)

    monkeypatch.setattr(harness, "_advance", counting)
    diverging_rate_check(monkeypatch)
    report = verify_rate_trend(T_list=(2, 4, 100), n_seeds=2)
    k = report["diverged_step"]
    assert 4 < k < 100 and not report["pass"]
    assert steps == list(range(1, k + 1))
    # a horizon the run completed keeps its statistic; the others are None
    assert [m is not None for m in report["min_avg_grad_norm_sq"]] == [
        T < k for T in (2, 4, 100)]
    assert report["r"][0] == 2 * report["min_avg_grad_norm_sq"][0]


def test_cli_verify_fail_exit_code(tmp_path, capsys, monkeypatch):
    # at alpha 1e-6 the gradient norm barely moves between T=20 and T=21,
    # so the ratio stays above the check's 0.6 and nothing diverges
    monkeypatch.setattr(harness, "RATE_TREND_CONFIG", OptimizerConfig(alpha=1e-6))
    monkeypatch.setattr(harness, "default_rate_problem", lambda: Quadratic([1.0, 2.0]))
    cfg = write_config(tmp_path, {"T_list": [20, 21], "n_seeds": 1})
    assert cli.main(["verify", "rate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL rate trend: min-grad-norm^2 ratio 1.000" in out and "threshold 0.6" in out


def test_cli_broken_oracle_is_exit_2_not_diverged(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Quadratic, "_hvps", broken_hvps)
    cfg = write_config(tmp_path, RUN_DOC)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ValueError"
    assert "diverged" not in captured.out


def test_cli_bad_config_is_exit_2(tmp_path, capsys):
    doc = {**RUN_DOC, "problem": {"kind": "banana"}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "banana" in err["message"]


@pytest.mark.parametrize("command, doc, message", [
    ("run", ["not", "an", "object"], "config must be a JSON object"),
    ("run", {**RUN_DOC, "problem": {"h": [1.0]}}, "problem config needs a 'kind' key"),
    ("run", {**RUN_DOC, "problem": {"kind": ["quadratic"]}},
     "unknown problem kind ['quadratic']"),
    ("run", {**RUN_DOC, "optimizer": {"lr": 0.1}}, "optimizer config needs a 'kind' key"),
    ("run", {**RUN_DOC, "optimizer": {"kind": "lbfgs"}}, "unknown optimizer kind 'lbfgs'"),
    ("run", {**RUN_DOC, "optimizer": {"kind": ["sgd"]}}, "unknown optimizer kind ['sgd']"),
    ("sweep", {**RUN_DOC, "sweep": [0.1, 0.01]}, "'sweep' must be a JSON object"),
    ("compare", {**RUN_DOC, "sweep": {"coarse_grid": [0.1]}},
     "compare config needs an 'optimizers' list"),
    ("compare", {**RUN_DOC, "optimizers": {"kind": "sgd"}},
     "compare config needs an 'optimizers' list"),
    ("compare", {**RUN_DOC, "optimizers": ["sgd"]}, "optimizers[0] must be a JSON object"),
    ("compare", {**RUN_DOC, "optimizers": [{"kind": "sgd"}, 5]},
     "optimizers[1] must be a JSON object"),
    ("ablate-mu", {**RUN_DOC, "mu_values": 0.001}, "mu_values must be a list, got 0.001"),
    ("sweep", {**RUN_DOC, "sweep": {"coarse_grid": 0.1}}, "coarse_grid must be a list, got 0.1"),
    ("verify rate", {"T_list": 100}, "T_list must be a list, got 100"),
    ("run", {**RUN_DOC, "problem": {"kind": "mlp_regression", "layer_sizes": 8}},
     "layer_sizes must be a list, got 8"),
    ("run", {**RUN_DOC, "problem": {"kind": "quadratic", "h": 2.0}}, "h must be a list, got 2.0"),
], ids=["document", "problem-kind", "problem-kind-list", "optimizer-kind",
        "optimizer-unknown", "optimizer-kind-list", "sweep", "compare-missing",
        "compare-object", "compare-entry-string", "compare-entry-number", "mu_values-scalar",
        "coarse_grid-scalar", "T_list-scalar", "layer_sizes-scalar",
        "h-scalar"])
def test_cli_config_structure_error_is_exit_2(tmp_path, capsys, monkeypatch, command, doc,
                                              message):
    # a malformed document is one JSON error line that names what is wrong
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    monkeypatch.setattr(harness, "_streams", lambda *a: pytest.fail("a stack ran"))
    assert cli.main(command.split() + ["--config", write_config(tmp_path, doc),
                                       "--out", str(tmp_path / "r")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "r").exists()


def test_cli_removed_hvp_mode_key_is_exit_2(tmp_path, capsys):
    # every kind has one HVP, so the key that chose between two is unknown
    doc = {**RUN_DOC, "problem": {**RUN_DOC["problem"], "hvp_mode": "exact"}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TypeError" and "hvp_mode" in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind, key, value", [
    ("mlp_regression", "teacher_seed", 0), ("mlp_regression", "label_noise_std", 0.05),
    ("mlp_regression", "val_fraction", 0.2), ("noisy_least_squares", "val_fraction", 0.2),
])
def test_cli_fixed_data_key_is_exit_2(tmp_path, capsys, kind, key, value):
    # the sample-based kinds' data are constants, so even the old default
    # is an unknown keyword
    doc = {**RUN_DOC, "problem": {"kind": kind, "n_samples": 10, key: value}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TypeError" and key in err["message"]
    assert not (tmp_path / "r").exists()


def test_cli_non_finite_hyperparameter_is_exit_2(tmp_path, capsys):
    # json reads NaN and Infinity; such a config used to run as all-diverged
    doc = {**RUN_DOC, "optimizer": {"kind": "diag_ocp", "alpha": 0.05,
                                    "weight_decay": float("nan")}}
    cfg = write_config(tmp_path, doc)
    assert "NaN" in (tmp_path / "config.json").read_text()
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "weight_decay" in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("check, knob, value", [
    ("lemma1", "tol", float("nan")), ("lemma1", "tol", 0.0),
    ("hutchinson", "tol", float("inf")), ("rate", "ratio_threshold", float("nan")),
    ("rate", "ratio_threshold", -0.5),
])
def test_cli_bad_check_knob_is_exit_2(tmp_path, capsys, check, knob, value):
    # a NaN tolerance made the comparison false: a FAIL with exit 1. A
    # check's pass criterion is no config key now, whatever its value
    doc = {knob: value, **({"T_list": [20, 40], "n_seeds": 1} if check == "rate" else {})}
    assert cli.main(["verify", check, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == f"unknown config keys: {knob!r}"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key", ["max_steps", "n_seeds", "record_every"])
def test_cli_fractional_count_is_exit_2(tmp_path, capsys, key):
    # int() used to truncate: max_steps 3.9 ran 3 steps and exited 0
    cfg = write_config(tmp_path, {**RUN_DOC, key: 3.9})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert key in json.loads(capsys.readouterr().err)["message"]
    cfg = write_config(tmp_path, {**RUN_DOC, key: 3.0})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("key, value", [("n_samples", 40.9), ("batch_size", 8.7)])
def test_cli_fractional_problem_count_is_exit_2(tmp_path, capsys, key, value):
    # the constructor used to truncate: 40.9 samples ran on 40 and exited 0
    problem = {"kind": "noisy_least_squares", "n_samples": 40, "batch_size": 8, key: value}
    cfg = write_config(tmp_path, {**RUN_DOC, "problem": problem})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert key in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key, value", [("n_samples", "12"), ("dim", True),
                                        ("batch_size", "8")])
def test_cli_non_numeric_problem_count_is_exit_2(tmp_path, capsys, key, value):
    # int() used to accept them: n_samples "12" built a 12-sample problem
    problem = {"kind": "noisy_least_squares", "n_samples": 40, "dim": 3, key: value}
    cfg = write_config(tmp_path, {**RUN_DOC, "problem": problem})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert key in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind, key", [("noisy_least_squares", "noise_std")])
def test_cli_non_finite_data_noise_is_exit_2(tmp_path, capsys, kind, key):
    # it used to print "2 runs, 2 diverged" and exit 0
    problem = {"kind": kind, "n_samples": 10, key: float("nan")}
    doc = {**RUN_DOC, "problem": problem,
           "optimizer": {"kind": "sgd", "lr": 0.01}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and key in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind", ["noisy_least_squares", "mlp_regression"])
def test_cli_minibatch_with_gradient_noise_is_exit_2(tmp_path, capsys, monkeypatch, kind):
    # a minibatch is a sample-based kind's gradient noise; the two together
    # are refused at construction, before any run
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    problem = {"kind": kind, "n_samples": 10, "batch_size": 4, "noise_std_grad": 0.05}
    doc = {**RUN_DOC, "problem": problem, "optimizer": {"kind": "sgd", "lr": 0.01}}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "batch_size" in err["message"]
    assert not (tmp_path / "r").exists()


def test_cli_fractional_rate_horizon_is_exit_2(tmp_path, capsys):
    # it used to print "PASS ... over T=[10, 20, 40]"
    cfg = write_config(tmp_path, {"T_list": [10.7, 20, 40], "n_seeds": 2})
    assert cli.main(["verify", "rate", "--config", cfg]) == 2
    assert "T_list" in json.loads(capsys.readouterr().err)["message"]


def test_cli_non_finite_refine_factor_is_exit_2_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the coarse stage used to run in full before lr NaN failed; the refine
    # set is fixed now, so any refine_factors is an unknown sweep key
    monkeypatch.setattr(cli, "lr_sweep", lambda *a: pytest.fail("sweep ran"))
    doc = {**RUN_DOC, "sweep": {"refine_factors": [float("nan")]}}
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TypeError" and "refine_factors" in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, doc", [
    ("run", {**RUN_DOC, "x0": [1.0, 2.0, 3.0]}),
    ("ablate-mu", {**RUN_DOC, "mu_values": [1e-3], "control_clip_lo": 1e-10}),
    ("verify", {"trials": 20}), ("verify", {"n_probes": 100}), ("verify", {"dim": 4}),
], ids=["x0", "control_clip_lo", "trials", "n_probes", "dim"])
def test_cli_removed_top_level_key_is_exit_2(tmp_path, capsys, monkeypatch, command, doc):
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    argv = [command] + (["hutchinson"] if command == "verify" else [])
    assert cli.main(argv + ["--config", write_config(tmp_path, doc),
                            "--out", str(tmp_path / "r")]) == 2
    (removed,) = set(doc) - set(RUN_DOC) - {"mu_values"}
    assert json.loads(capsys.readouterr().err)["message"] == (
        f"unknown config keys: {removed!r}")
    assert not (tmp_path / "r").exists()


def test_cli_removed_sweep_metric_is_exit_2(tmp_path, capsys, monkeypatch):
    # the sweep object goes whole to SweepSpec, so an unknown key is not
    # dropped; the sweep always selects by min_val
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    doc = {**RUN_DOC, "sweep": {"coarse_grid": [0.1, 0.01], "metric": "min_val"}}
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TypeError" and "metric" in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "ablate-mu", "compare"])
def test_cli_misspelled_keys_are_exit_2(tmp_path, capsys, monkeypatch, command):
    # max_step and n_seed used to be dropped: 1 replicate of 100 steps, exit 0
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    doc = {**COMPARE_DOC, **RUN_DOC, "mu_values": [1e-3], "max_step": 5, "n_seed": 3}
    assert cli.main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "unknown config keys: 'max_step', 'n_seed'"}
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "ablate-mu", "compare"])
def test_cli_verify_keys_are_exit_2_elsewhere(tmp_path, capsys, monkeypatch, command):
    # only verify reads seed and T_list; run used to accept both, ignore
    # them and run base seed 0
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    doc = {**COMPARE_DOC, **RUN_DOC, "mu_values": [1e-3], "seed": 5, "T_list": [2, 4]}
    assert cli.main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "unknown config keys: 'T_list', 'seed'"}
    assert not (tmp_path / "r").exists()


COMPARE_DOC = {
    "problem": {"kind": "quadratic", "h": [1.0, 2.0, 4.0]},
    "optimizers": [{"kind": "sgd"}, {"kind": "adam"}, {"kind": "diag_ocp"}],
    "sweep": {"coarse_grid": [1e-1, 1e-2]},
    "max_steps": 5,
    "n_seeds": 1,
}


@pytest.mark.parametrize("command, doc, key", [
    ("run", {**RUN_DOC, "optimizer": {**RUN_DOC["optimizer"], "alpha": True}}, "alpha"),
    ("run", {**RUN_DOC, "optimizer": {"kind": "sgd", "lr": True}}, "lr"),
    ("run", {**RUN_DOC, "optimizer": {**RUN_DOC["optimizer"], "weight_decay": False}},
     "weight_decay"),
    ("sweep", {**RUN_DOC, "sweep": {"coarse_grid": [True, 0.1]}}, "coarse_grid"),
    ("run", {**RUN_DOC, "problem": {"kind": "noisy_least_squares", "noise_std": True}},
     "noise_std"),
    ("run", {**RUN_DOC, "problem": {**RUN_DOC["problem"], "noise_std_grad": "0.1"}},
     "noise_std_grad"),
    ("sweep", {**RUN_DOC, "sweep": {"coarse_grid": ["0.1", 0.01]}}, "coarse_grid"),
    ("ablate-mu", {**RUN_DOC, "mu_values": [1e-3, True]}, "mu_values"),
    ("run", {**RUN_DOC, "problem": {"kind": "quadratic", "h": [True, 2]}}, "h"),
], ids=["alpha", "lr", "weight_decay", "coarse_grid", "noise_std", "noise_std_grad-string",
        "coarse_grid-string", "mu_values", "h"])
def test_cli_non_numeric_real_value_is_exit_2(tmp_path, capsys, monkeypatch, command, doc,
                                              key):
    # json's true and false used to pass as 1.0 and 0.0, and a string as
    # the number it spells: "alpha": true ran at alpha 1. Counts and seeds
    # already refused both
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    assert cli.main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{key} must be a real number, got ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("probe", [{"probe_distribution": "bogus"}, {"n_probes": 2.5},
                                   {"n_probes": True}])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_bad_probe_setting_is_exit_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                        command, probe):
    # a compare used to run both baseline sweeps first, and a fractional or
    # boolean count failed mid-run with a TypeError
    monkeypatch.setattr(harness, "_run_stack", lambda *a: pytest.fail("a stack ran"))
    if command == "run":
        doc = {**RUN_DOC, "optimizer": {**RUN_DOC["optimizer"], **probe}}
    else:
        doc = {**COMPARE_DOC, "optimizers": COMPARE_DOC["optimizers"][:2]
               + [{"kind": "diag_ocp", **probe}]}
    assert cli.main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "probe" in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_integral_float_probe_count_runs(tmp_path, capsys, command):
    # 3.0 reads as 3, as for every other count
    if command == "run":
        doc = {**RUN_DOC, "optimizer": {**RUN_DOC["optimizer"], "n_probes": 3.0}}
    else:
        doc = {**COMPARE_DOC, "optimizers": COMPARE_DOC["optimizers"][:2]
               + [{"kind": "diag_ocp", "n_probes": 3.0}]}
    assert cli.main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert (tmp_path / "r" / "steps.csv").exists()


# keys that another subcommand reads, each set as a config for it would set it
OTHER_COMMAND_KEYS = {"problem": RUN_DOC["problem"], "optimizer": RUN_DOC["optimizer"],
                      "max_steps": 5, "mu_values": [1e-3], "optimizers": [{"kind": "sgd"}],
                      "record_every": 3, "sweep": {"coarse_grid": [0.1]},
                      "T_list": [2, 4], "n_seeds": 2}
VERIFY_REFUSED = {"problem": ["problem"], "optimizer": ["optimizer"],
                  "both": ["optimizer", "problem"],
                  "run-keys": ["max_steps", "mu_values", "optimizers", "record_every", "sweep"],
                  "rate-keys": ["T_list", "n_seeds"]}


@pytest.mark.parametrize("check,keys", [
    pytest.param(check, keys, id=f"{name}-{check}")
    for name, keys in VERIFY_REFUSED.items() for check in sorted(VERIFY_CHECKS)
    if not (name == "rate-keys" and check == "rate")])
def test_cli_verify_refuses_a_problem_or_optimizer_key(tmp_path, capsys, monkeypatch, check,
                                                      keys):
    # each check reads only its seed, and the rate check its two sizes: a
    # key another subcommand reads is refused, not silently ignored, and
    # the rate check used to run a config's own problem and optimizer
    # against a threshold frozen on its defaults
    for name in ("verify_closed_form_equivalence", "verify_rate_trend",
                 "verify_probe_unbiasedness"):
        monkeypatch.setattr(cli, name, lambda **kw: pytest.fail("a check ran"))
    doc = {"seed": 3, **{k: OTHER_COMMAND_KEYS[k] for k in keys}}
    if check == "rate":
        doc.update(T_list=[20, 40], n_seeds=1)
    assert cli.main(["verify", check, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"unknown config keys: {', '.join(map(repr, keys))}"}
    assert not (tmp_path / "r").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
