from dataclasses import fields

import numpy as np
from pytest import approx, mark, raises

from diagocp.baselines import (BASELINE_KINDS, BETA2, EPS, BaselineConfig, BaselineState,
                               baseline_step, init_baseline_state)
from diagocp.harness import RunConfig, SweepSpec, lr_sweep
from diagocp.hessian_probe import hutchinson_diag, probe_draw
from diagocp.problems import BatchSeed, Channel, MlpRegression, Quadratic

H = np.array([1.0, 2.0, 4.0])
XSTAR = np.array([0.5, -1.0, 2.0])


def quad_grad(x):
    return H * (x - XSTAR)


def quad_loss(x):
    return 0.5 * float(H @ (x - XSTAR) ** 2)


def test_config_validation():
    with raises(ValueError):
        BaselineConfig(kind="rmsprop", lr=0.1)
    with raises(ValueError):
        BaselineConfig(kind="sgd", lr=0.0)
    with raises(ValueError):
        BaselineConfig(kind="sgd", lr=0.1, weight_decay=-1.0)


@mark.parametrize("removed", ["beta1", "beta2", "eps", "momentum"])
def test_config_holds_only_kind_lr_and_weight_decay(removed):
    # Adam's and AdaHessian's published constants are not settings, and sgd
    # has no momentum
    assert [f.name for f in fields(BaselineConfig)] == ["kind", "lr", "weight_decay"]
    with raises(TypeError, match=removed):
        BaselineConfig(kind="adam", lr=0.1, **{removed: 0.5})


def test_init_state():
    state = init_baseline_state(4)
    assert state.t == 0
    np.testing.assert_array_equal(state.m, np.zeros(4))
    np.testing.assert_array_equal(state.v, np.zeros(4))
    with raises(ValueError):
        init_baseline_state(0)


def test_dimension_mismatch_rejected():
    cfg = BaselineConfig(kind="sgd", lr=0.1)
    with raises(ValueError):
        baseline_step(init_baseline_state(2), np.zeros(3), np.zeros(3), cfg)


def test_sgd_plain_step():
    cfg = BaselineConfig(kind="sgd", lr=0.1)
    x = np.array([1.0, 1.0])
    x1, state = baseline_step(init_baseline_state(2), x, np.array([2.0, 4.0]), cfg)
    np.testing.assert_allclose(x - x1, [0.2, 0.4], atol=1e-15)
    assert state.t == 1
    # no momentum: the second step is -lr * g again, and the buffers stay zero
    x2, state = baseline_step(state, x1, np.array([2.0, 4.0]), cfg)
    np.testing.assert_allclose(x1 - x2, [0.2, 0.4], atol=1e-15)
    assert state.t == 2
    np.testing.assert_array_equal(state.m, 0.0)
    np.testing.assert_array_equal(state.v, 0.0)


def test_weight_decay_is_decoupled():
    cfg = BaselineConfig(kind="sgd", lr=0.1, weight_decay=0.5)
    x1, _ = baseline_step(init_baseline_state(1), np.array([1.0]),
                          np.array([3.0]), cfg)
    # decay multiplies x first, the gradient term is undecayed
    assert x1[0] == approx(1.0 * (1 - 0.05) - 0.3, abs=1e-15)


def test_adam_first_step_is_signed_lr():
    # m_hat = g and sqrt(v_hat) = |g|, so the step is lr * g / (|g| + eps),
    # lr * sign(g) up to eps / |g|
    cfg = BaselineConfig(kind="adam", lr=0.01)
    g = np.array([0.3, -7.0, 0.002])
    x1, _ = baseline_step(init_baseline_state(3), np.zeros(3), g, cfg)
    np.testing.assert_allclose(x1, -cfg.lr * g / (np.abs(g) + EPS), rtol=1e-12)
    np.testing.assert_allclose(x1, -cfg.lr * np.sign(g), rtol=1e-5)


def test_adahessian_exact_diagonal_first_step():
    # quadratic with h=[4]: a single Rademacher probe recovers the diagonal
    # exactly, so v_hat_H = 16 and the step is lr*g/4 up to eps
    prob = Quadratic(np.array([4.0]))
    x = np.array([1.0])
    g = prob.eval_grad(x)
    h_est = hutchinson_diag(lambda v: prob.hvp(x, v), probe_draw(1, "rademacher", 1),
                            BatchSeed(0, 0, Channel.PROBE))
    np.testing.assert_array_equal(h_est, [4.0])
    cfg = BaselineConfig(kind="adahessian", lr=0.1)
    x1, state = baseline_step(init_baseline_state(1), x, g, cfg, h_diag=h_est)
    assert state.v[0] / (1 - BETA2) == approx(16.0)  # v_hat_H at t'=1
    np.testing.assert_allclose(x - x1, cfg.lr * g / 4.0, rtol=1e-7)


def test_adahessian_requires_diagonal():
    cfg = BaselineConfig(kind="adahessian", lr=0.1)
    with raises(ValueError):
        baseline_step(init_baseline_state(2), np.zeros(2), np.ones(2), cfg)
    with raises(ValueError):
        baseline_step(init_baseline_state(2), np.zeros(2), np.ones(2), cfg,
                      h_diag=np.ones(3))


@mark.parametrize("kind", BASELINE_KINDS)
def test_zero_gradient_zero_decay_is_identity(kind):
    cfg = BaselineConfig(kind=kind, lr=0.1, weight_decay=0.0)
    x = np.array([1.5, -2.5])
    kwargs = {"h_diag": np.ones(2)} if kind == "adahessian" else {}
    x1, _ = baseline_step(init_baseline_state(2), x, np.zeros(2), cfg, **kwargs)
    np.testing.assert_array_equal(x1, x)


def test_radam_is_not_a_baseline():
    # no criterion, workload or demo ran RAdam, so the kind was removed
    assert BASELINE_KINDS == ("sgd", "adam", "adahessian")
    with raises(ValueError, match="unknown baseline kind 'radam'"):
        BaselineConfig(kind="radam", lr=0.1)


@mark.parametrize("kind,lr", [("sgd", 0.1), ("adam", 0.1), ("adahessian", 0.5)])
def test_each_baseline_decreases_quadratic_loss(kind, lr):
    cfg = BaselineConfig(kind=kind, lr=lr)
    x = np.array([1.0, 1.0, 1.0])
    loss0 = quad_loss(x)
    state = init_baseline_state(3)
    for _ in range(200):
        kwargs = {"h_diag": H} if kind == "adahessian" else {}
        x, state = baseline_step(state, x, quad_grad(x), cfg, **kwargs)
    assert quad_loss(x) < loss0


def test_state_is_not_mutated_in_place():
    cfg = BaselineConfig(kind="adam", lr=0.1)
    state = init_baseline_state(2)
    m0 = state.m.copy()
    baseline_step(state, np.ones(2), np.ones(2), cfg)
    np.testing.assert_array_equal(state.m, m0)
    assert state.t == 0


@mark.parametrize("kind", BASELINE_KINDS)
def test_stacked_step_equals_each_row_alone(kind):
    cfg = BaselineConfig(kind=kind, lr=0.1, weight_decay=0.01)
    rng = np.random.default_rng(3)
    X, G = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    Hd = rng.uniform(0.1, 2.0, (3, 4))
    state = BaselineState(t=4, m=rng.standard_normal((3, 4)),
                          v=rng.uniform(0.1, 1.0, (3, 4)))
    x_next, nxt = baseline_step(state, X, G, cfg, h_diag=Hd)
    for r in range(3):
        alone = BaselineState(t=4, m=state.m[r], v=state.v[r])
        x_r, s_r = baseline_step(alone, X[r], G[r], cfg, h_diag=Hd[r])
        np.testing.assert_array_equal(x_next[r], x_r)
        np.testing.assert_array_equal(nxt.m[r], s_r.m)
        np.testing.assert_array_equal(nxt.v[r], s_r.v)


@mark.parametrize("kind", BASELINE_KINDS)
@mark.parametrize("t", [0, 2, 10])
def test_lr_column_step_equals_each_row_at_its_scalar_lr(kind, t):
    lrs = np.array([0.5, 0.1, 3e-3, 1e-4])
    cfg = BaselineConfig(kind=kind, lr=0.1, weight_decay=0.01)
    rng = np.random.default_rng(5)
    X, G = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
    Hd = rng.uniform(0.1, 2.0, (4, 6))
    state = BaselineState(t=t, m=rng.standard_normal((4, 6)),
                          v=rng.uniform(0.1, 1.0, (4, 6)))
    x_next, nxt = baseline_step(state, X, G, cfg, h_diag=Hd, lr=lrs[:, None])
    for r, lr in enumerate(lrs.tolist()):
        alone = BaselineState(t=t, m=state.m[r], v=state.v[r])
        x_r, s_r = baseline_step(alone, X[r], G[r], cfg.with_lr(lr), h_diag=Hd[r])
        np.testing.assert_array_equal(x_next[r], x_r)
        np.testing.assert_array_equal(nxt.m[r], s_r.m)
        np.testing.assert_array_equal(nxt.v[r], s_r.v)
    # lr=None is the config's own lr
    x_cfg, _ = baseline_step(state, X, G, cfg, h_diag=Hd)
    np.testing.assert_array_equal(x_next[1], x_cfg[1])


def test_adahessian_trains_on_the_criterion_7_protocol():
    # on the clipped estimate its sweep picked lr 1e-05 and read a median
    # min_val of 3.14, against an initial validation loss of 6.34
    base = RunConfig(problem=MlpRegression(), optimizer="adahessian",
                     opt_cfg=BaselineConfig(kind="adahessian", lr=0.1, weight_decay=0.008),
                     max_steps=150, base_seed=42, n_seeds=5)
    result = lr_sweep(SweepSpec(), base)
    median = float(np.median([r.min_val for r in result.records[result.selected_lr]]))
    assert result.selected_lr >= 0.01 and median < 0.5


@mark.parametrize("kind", BASELINE_KINDS)
def test_buffered_step_equals_the_public_step_bit_for_bit(kind):
    # the stepper hands baseline_step one buffer dict for the whole run and
    # feeds each step's buffers to the next; each step must equal a fresh
    # call's through an lr column, a NaN row and a stack that shrinks as
    # rows leave, and no call may write into an argument
    cfg = BaselineConfig(kind=kind, lr=0.1, weight_decay=0.01)
    rng = np.random.default_rng(14)
    lr = np.array([0.5, 0.1, 3e-3, 1e-4])[:, None]
    X = XB = rng.standard_normal((4, 6))
    state = buffered = BaselineState(0, np.zeros(X.shape), np.zeros(X.shape))
    work = {}
    for k in range(1, 8):
        G, Hd = rng.standard_normal(X.shape), rng.standard_normal(X.shape)
        if k == 3:
            G[1] = np.nan
        args = (X, XB, G, Hd, state.m, state.v, buffered.m, buffered.v)
        before = [a.copy() for a in args]
        X, state = baseline_step(state, X, G, cfg, h_diag=Hd, lr=lr)
        XB, buffered = baseline_step(buffered, XB, G, cfg, h_diag=Hd, lr=lr, out=work)
        for a, b in zip(args, before):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(XB, X)
        np.testing.assert_array_equal(buffered.m, state.m)
        np.testing.assert_array_equal(buffered.v, state.v)
        if k == 4:                          # rows leave; the buffers stay as they are
            X, XB, lr = X[1:], XB[1:], lr[1:]
            state, buffered = (BaselineState(s.t, s.m[1:], s.v[1:]) for s in (state, buffered))
    assert np.isnan(X[0]).all() and np.isfinite(X[1:]).all()
