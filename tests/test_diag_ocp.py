from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import approx, raises

from diagocp.diag_ocp import (OptimizerConfig, OptimizerState, StepDiagnostics, clip_diag,
                              init_state, stability_margin, step_closed_form,
                              step_recursive_reference, update_moments)


def run_steps(cfg, x0, grads, hessians):
    """Drive the optimizer through explicit (g, H) sequences; returns the xs."""
    state = init_state(x0.size, cfg)
    x = x0.copy()
    xs = [x.copy()]
    for g, h in zip(grads, hessians):
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
        xs.append(x.copy())
    return xs


# --- config and state ------------------------------------------------------

def test_config_validation():
    with raises(ValueError):
        OptimizerConfig(alpha=0.0)
    with raises(ValueError):
        OptimizerConfig(beta1=1.0)
    with raises(ValueError):
        OptimizerConfig(beta2=-0.1)
    with raises(ValueError):
        OptimizerConfig(mu=0.0)
    with raises(ValueError):
        OptimizerConfig(mu=10.0, g_d=1.0)
    with raises(ValueError):
        OptimizerConfig(safeguard_rho_max=1.0)
    with raises(ValueError):
        OptimizerConfig(weight_decay=-0.1)
    with raises(ValueError):
        OptimizerConfig(alpha=200.0, weight_decay=0.008)  # alpha*lambda >= 1


def test_init_state_zeroed():
    cfg = OptimizerConfig()
    state = init_state(3, cfg)
    assert state.t == 0
    np.testing.assert_array_equal(state.m, np.zeros(3))
    np.testing.assert_array_equal(state.D, np.zeros(3))


# --- moment updates --------------------------------------------------------

def test_update_moments_requires_clipped_h():
    cfg = OptimizerConfig(mu=1e-4, g_d=1e4)
    state = init_state(2, cfg)
    g = np.zeros(2)
    with raises(ValueError):
        update_moments(state, g, np.array([1.0, 1e-5]), cfg)  # below mu
    with raises(ValueError):
        update_moments(state, g, np.array([1.0, 2e4]), cfg)   # above g_d


def test_update_moments_hand_values():
    cfg = OptimizerConfig(beta1=0.9, beta2=0.999)
    state = init_state(1, cfg)
    g1, h1 = np.array([2.0]), np.array([4.0])
    state, m_hat, d_hat = update_moments(state, g1, h1, cfg)
    # t'=1: m = 0.1*g, m_hat = m/(1-0.9) = g; same cancellation for D
    assert state.t == 1
    assert m_hat[0] == approx(2.0)
    assert d_hat[0] == approx(4.0)
    g2, h2 = np.array([1.0]), np.array([2.0])
    state, m_hat, d_hat = update_moments(state, g2, h2, cfg)
    m2 = 0.9 * 0.2 + 0.1 * 1.0
    assert m_hat[0] == approx(m2 / (1 - 0.9 ** 2))
    d2 = 0.999 * 0.004 + 0.001 * 2.0
    assert d_hat[0] == approx(d2 / (1 - 0.999 ** 2))


def test_bias_correction_is_exact_for_constant_inputs():
    cfg = OptimizerConfig(beta1=0.9, beta2=0.95)
    state = init_state(2, cfg)
    g = np.array([0.5, -1.5])
    h = np.array([2.0, 3.0])
    for _ in range(40):
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        np.testing.assert_allclose(m_hat, g, rtol=1e-12)
        np.testing.assert_allclose(d_hat, h, rtol=1e-12)


def test_corrected_d_stays_in_clip_range_over_500_steps():
    cfg = OptimizerConfig(mu=1e-4, g_d=1e4)
    state = init_state(8, cfg)
    rng = np.random.default_rng(17)
    for _ in range(500):
        g = rng.standard_normal(8)
        # log-uniform over the full admissible clip range
        h = np.exp(rng.uniform(np.log(cfg.mu), np.log(cfg.g_d), 8))
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        assert np.all(d_hat >= cfg.mu)
        assert np.all(d_hat <= cfg.g_d)
        # raw EMA obeys the partial-sum version of the same bound
        scale = 1 - cfg.beta2 ** state.t
        assert np.all(state.D >= cfg.mu * scale - 1e-15)
        assert np.all(state.D <= cfg.g_d * scale + 1e-9)


@pytest.mark.parametrize("endpoint", ["mu", "g_d"])
def test_corrected_d_at_a_clip_endpoint_carries_no_rounding_dust(endpoint):
    # the bias-corrected EMA of a constant endpoint lands past it by float
    # rounding at some steps (below mu, above g_d); the final clamp removes it
    cfg = OptimizerConfig(mu=1e-4, g_d=1e4)
    value = getattr(cfg, endpoint)
    state = init_state(1, cfg)
    for _ in range(2000):
        state, _, d_hat = update_moments(state, np.zeros(1), np.full(1, value), cfg)
        assert cfg.mu <= d_hat[0] <= cfg.g_d


# --- closed-form step ------------------------------------------------------

def test_hand_trajectory_on_scalar_quadratic():
    # f(x) = x^2, h = 2, x0 = 1, alpha = 0.1, no EMA, no decay
    cfg = OptimizerConfig(alpha=0.1, beta1=0.0, beta2=0.0, weight_decay=0.0)
    x = np.array([1.0])
    state = init_state(1, cfg)
    state, m_hat, d_hat = update_moments(state, np.array([2.0 * x[0]]),
                                         np.array([2.0]), cfg)
    x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
    assert x[0] == approx(0.8, abs=1e-12)
    state, m_hat, d_hat = update_moments(state, np.array([2.0 * x[0]]),
                                         np.array([2.0]), cfg)
    x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
    assert x[0] == approx(0.512, abs=1e-12)


def test_first_step_is_plain_gradient_step():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim = int(rng.integers(1, 16))
        cfg = OptimizerConfig(alpha=float(rng.uniform(0.001, 0.5)),
                              beta1=float(rng.uniform(0.0, 0.99)),
                              beta2=float(rng.uniform(0.0, 0.999)),
                              weight_decay=0.0)
        g = rng.standard_normal(dim)
        # keep s = 1 - alpha*h inside the safeguard band so no clamp fires
        h = rng.uniform(0.0011, 1.99, dim) / cfg.alpha
        x0 = rng.standard_normal(dim)
        state = init_state(dim, cfg)
        state, m_hat, d_hat = update_moments(state, g, h, cfg)
        x1, _ = step_closed_form(state, x0, m_hat, d_hat, cfg)
        # c = (1 - s)/d = alpha at t'=1, independent of d and the betas
        np.testing.assert_allclose(x1 - x0, -cfg.alpha * g, atol=1e-14)


def test_closed_form_equals_recursion():
    rng = np.random.default_rng(29)
    cfg = OptimizerConfig(alpha=0.2, mu=1e-6, g_d=1e6, weight_decay=0.0)
    for t in (1, 2, 7, 33):
        d_hat = rng.uniform(0.05, 1.9, 6) / cfg.alpha
        m_hat = rng.standard_normal(6)
        x = rng.standard_normal(6)
        state = OptimizerState(t=t, m=m_hat.copy(), D=d_hat.copy())
        x_c, diag = step_closed_form(state, x, m_hat, d_hat, cfg)
        assert diag.n_clamped == 0
        x_r = step_recursive_reference(state, x, m_hat, d_hat, cfg)
        np.testing.assert_allclose(x_c, x_r, atol=1e-9)


def test_weight_decay_decoupling():
    # zero gradient, curvature pinned at the floor: pure multiplicative decay
    cfg = OptimizerConfig(alpha=0.05, weight_decay=0.1)
    x = np.array([2.0, -3.0])
    x0 = x.copy()
    state = init_state(2, cfg)
    h = np.full(2, cfg.mu)
    for t in range(1, 101):
        state, m_hat, d_hat = update_moments(state, np.zeros(2), h, cfg)
        x, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
        expected = x0 * (1 - cfg.alpha * cfg.weight_decay) ** t
        np.testing.assert_allclose(x, expected, rtol=1e-12)


def test_weight_decay_applied_to_x_before_step():
    cfg = OptimizerConfig(alpha=0.1, beta1=0.0, beta2=0.0, weight_decay=0.5)
    x = np.array([1.0])
    state = init_state(1, cfg)
    state, m_hat, d_hat = update_moments(state, np.array([3.0]), np.array([2.0]), cfg)
    x1, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
    # x*(1 - 0.05) - 0.1*3: phi uses the undecayed moments
    assert x1[0] == approx(0.95 - 0.3, abs=1e-15)


def test_step_errors():
    cfg = OptimizerConfig()
    state = init_state(2, cfg)
    with raises(ValueError):  # t'=0, no moments yet
        step_closed_form(state, np.zeros(2), np.zeros(2), np.ones(2), cfg)
    state, m_hat, d_hat = update_moments(state, np.ones(2), np.ones(2), cfg)
    with raises(ValueError):  # shape mismatch
        step_closed_form(state, np.zeros(3), m_hat, d_hat, cfg)
    # a non-finite input is blow-up, not an error: it propagates to x_next
    x_next, _ = step_closed_form(state, np.array([np.nan, 0.0]), m_hat, d_hat, cfg)
    assert np.isnan(x_next[0]) and np.isfinite(x_next[1])
    x_next, _ = step_closed_form(state, np.zeros(2), np.array([np.inf, 1.0]),
                                 np.array([1.0, np.nan]), cfg)
    assert not np.isfinite(x_next).any()


# --- safeguard and diagnostics ----------------------------------------------

def test_safeguard_engages_on_divergent_base():
    cfg = OptimizerConfig(alpha=1.0, mu=1e-4, g_d=1e4, weight_decay=0.0)
    state = OptimizerState(t=3, m=np.array([1.0]), D=np.array([3.0]))
    # s = 1 - 1*3 = -2, outside [-rho_max, rho_max]
    assert stability_margin(np.array([3.0]), cfg) == approx(2.0)
    x, diag = step_closed_form(state, np.zeros(1), np.array([1.0]),
                               np.array([3.0]), cfg)
    assert diag.n_clamped == 1
    assert diag.rho == approx(cfg.safeguard_rho_max)


def test_rho_is_post_safeguard_bounded():
    # the floor at -rho_max only lifts bases; a flat one (s near 1) passes
    rng = np.random.default_rng(31)
    cfg = OptimizerConfig(alpha=0.5, mu=1e-4, g_d=1e4, weight_decay=0.0)
    for _ in range(50):
        d_hat = np.exp(rng.uniform(np.log(cfg.mu), np.log(cfg.g_d), 5))
        state = OptimizerState(t=int(rng.integers(1, 50)),
                               m=rng.standard_normal(5), D=d_hat.copy())
        _, diag = step_closed_form(state, np.zeros(5), state.m, d_hat, cfg)
        assert diag.rho < 1.0


def test_stability_margin_spec_values():
    cfg = OptimizerConfig(alpha=0.1)
    assert stability_margin(np.array([2.0, 4.0]), cfg) == approx(0.8)
    # exact Newton scaling: alpha*d = 1 everywhere
    assert stability_margin(np.array([10.0, 10.0]), cfg) == approx(0.0)


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.001, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_step_norm_bound(t, alpha):
    # |phi_i| <= 2|m_hat_i|/mu: 1 - s^t is in (0, 2) once s is safeguarded
    rng = np.random.default_rng(t)
    cfg = OptimizerConfig(alpha=alpha, mu=1e-4, g_d=1e4, weight_decay=0.0)
    d_hat = np.exp(rng.uniform(np.log(cfg.mu), np.log(cfg.g_d), 8))
    m_hat = rng.standard_normal(8)
    state = OptimizerState(t=t, m=m_hat.copy(), D=d_hat.copy())
    x = np.zeros(8)
    x1, _ = step_closed_form(state, x, m_hat, d_hat, cfg)
    phi = x - x1
    assert np.all(np.abs(phi) <= 2.0 * np.abs(m_hat) / cfg.mu + 1e-12)


def decades(lo, hi):
    """Magnitudes log-uniform over [10^lo, 10^hi], endpoints included."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


def curvatures(seed, mu, g_d, dim=8):
    """D_hat log-uniform in [mu, g_d], with both clip bounds present."""
    rng = np.random.default_rng(seed)
    d_hat = np.clip(np.exp(rng.uniform(np.log(mu), np.log(g_d), dim)), mu, g_d)
    d_hat[:2] = mu, g_d
    return rng, d_hat


@given(st.integers(0, 2**32 - 1), st.integers(1, 10_000), decades(-12, 6),
       decades(-12, 2), decades(0, 14))
@settings(max_examples=200, deadline=None)
def test_finite_inputs_give_a_finite_step(seed, t, alpha, mu, spread):
    cfg = OptimizerConfig(alpha=alpha, mu=mu, g_d=mu * spread, weight_decay=0.0)
    rng, d_hat = curvatures(seed, cfg.mu, cfg.g_d)
    m_hat = rng.standard_normal(8) * 10.0 ** rng.uniform(-6, 6, 8)
    state = OptimizerState(t=t, m=m_hat.copy(), D=d_hat.copy())
    x_next, diag = step_closed_form(state, rng.standard_normal(8), m_hat, d_hat, cfg)
    assert np.all(np.isfinite(x_next)) and diag.rho <= 1.0


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), decades(-12, 6),
       decades(-12, 2), decades(0, 14))
@settings(max_examples=100, deadline=None)
def test_zero_gradient_without_decay_leaves_x_unchanged(seed, steps, alpha, mu, spread):
    cfg = OptimizerConfig(alpha=alpha, mu=mu, g_d=mu * spread, weight_decay=0.0)
    rng, _ = curvatures(seed, cfg.mu, cfg.g_d)
    x0 = rng.standard_normal(8)
    xs = run_steps(cfg, x0, [np.zeros(8)] * steps,
                   [curvatures(seed + k, cfg.mu, cfg.g_d)[1] for k in range(steps)])
    for x in xs:
        np.testing.assert_array_equal(x, x0)


@given(st.integers(1, 10_000), decades(-12, 6), decades(-16, 0))
@settings(max_examples=300, deadline=None)
def test_coefficient_never_exceeds_alpha_t_on_a_contracting_base(t, alpha, ad):
    # on 0 <= s < 1 every term s^j of alpha * sum_{j<t} s^j is at most 1;
    # the slack covers the rounding of alpha * D_hat and the division
    d_hat = np.array([ad / alpha])
    s = 1.0 - alpha * d_hat[0]
    assume(0.0 <= s < 1.0)
    cfg = OptimizerConfig(alpha=alpha, mu=min(1e-4, d_hat[0]), weight_decay=0.0)
    state = OptimizerState(t=t, m=np.ones(1), D=d_hat.copy())
    x_next, diag = step_closed_form(state, np.zeros(1), np.ones(1), d_hat, cfg)
    assert diag.n_clamped == 0
    assert 0.0 < -x_next[0] <= alpha * t * (1.0 + 1e-14)


def test_coefficient_approaches_inverse_curvature():
    # deterministic scalar quadratic: c(t) = phi/m_hat must rise to 1/d
    cfg = OptimizerConfig(alpha=0.1, weight_decay=0.0)
    d = 2.0
    m_hat = np.array([1.0])
    d_hat = np.array([d])
    cs = []
    for t in range(1, 51):
        state = OptimizerState(t=t, m=m_hat.copy(), D=d_hat.copy())
        x1, _ = step_closed_form(state, np.zeros(1), m_hat, d_hat, cfg)
        cs.append(-x1[0])
    cs = np.array(cs)
    assert np.all(np.diff(cs) > 0)            # monotone in t
    assert np.all(cs < 1.0 / d)               # from below
    assert cs[-1] == approx(1.0 / d, rel=0.01)  # within 1% by t = 50


# --- stacks of replicates ----------------------------------------------------

def test_stacked_moments_and_step_equal_each_row_alone():
    cfg = OptimizerConfig(alpha=0.5, mu=1e-3, g_d=10.0, weight_decay=0.01,
                          safeguard_rho_max=0.9)
    rng = np.random.default_rng(8)
    dim, rows = 5, 3
    X, G = rng.standard_normal((rows, dim)), rng.standard_normal((rows, dim))
    H = rng.uniform(1e-3, 10.0, (rows, dim))
    stacked = OptimizerState(t=2, m=rng.standard_normal((rows, dim)),
                             D=rng.uniform(1e-3, 10.0, (rows, dim)))
    state, m_hat, d_hat = update_moments(stacked, G, H, cfg)
    x_next, diag = step_closed_form(state, X, m_hat, d_hat, cfg)
    assert state.dim == dim
    for r in range(rows):
        alone = OptimizerState(t=2, m=stacked.m[r], D=stacked.D[r])
        s_r, m_r, d_r = update_moments(alone, G[r], H[r], cfg)
        x_r, diag_r = step_closed_form(s_r, X[r], m_r, d_r, cfg)
        np.testing.assert_array_equal(state.m[r], s_r.m)
        np.testing.assert_array_equal(state.D[r], s_r.D)
        np.testing.assert_array_equal(x_next[r], x_r)
        assert diag.rho[r] == diag_r.rho
        assert diag.row_clamped[r] == diag_r.n_clamped == diag_r.row_clamped
    assert diag.n_clamped == sum(diag.row_clamped) > 0


def test_stacked_step_diagnostics_equal_lone_rows():
    # an axis=-1 norm of a stack rounds differently from a lone row's norm
    cfg = OptimizerConfig(alpha=0.05, weight_decay=0.01)
    rng = np.random.default_rng(9)
    for dim in (5, 178, 1000):
        rows = 40
        X = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        m_hat = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        d_hat = rng.uniform(1e-4, 1e4, (rows, dim))
        state = OptimizerState(t=3, m=m_hat, D=d_hat)
        _, diag = step_closed_form(state, X, m_hat, d_hat, cfg)
        for r in range(rows):
            alone = OptimizerState(t=3, m=m_hat[r], D=d_hat[r])
            _, diag_r = step_closed_form(alone, X[r], m_hat[r], d_hat[r], cfg)
            assert type(diag_r.step_norm) is float
            assert diag.step_norm[r] == diag_r.step_norm
            assert diag.corrected_m_norm[r] == diag_r.corrected_m_norm
            assert diag.rho[r] == diag_r.rho
            assert diag.row_clamped[r] == diag_r.row_clamped


def test_lr_column_step_equals_each_row_at_its_scalar_alpha():
    # the largest alpha clamps some bases, the smallest leaves s near 1
    cfg = OptimizerConfig(alpha=0.05, mu=1e-3, g_d=10.0, weight_decay=0.01)
    alphas = np.array([0.5, 0.05, 5e-3, 1e-5])
    rng = np.random.default_rng(10)
    rows, dim = len(alphas), 7
    X = rng.standard_normal((rows, dim))
    m_hat = rng.standard_normal((rows, dim))
    d_hat = rng.uniform(1e-3, 10.0, (rows, dim))
    state = OptimizerState(t=6, m=m_hat, D=d_hat)
    x_next, diag = step_closed_form(state, X, m_hat, d_hat, cfg, lr=alphas[:, None])
    for r, alpha in enumerate(alphas.tolist()):
        alone = OptimizerState(t=6, m=m_hat[r], D=d_hat[r])
        x_r, diag_r = step_closed_form(alone, X[r], m_hat[r], d_hat[r],
                                       cfg.with_lr(alpha))
        np.testing.assert_array_equal(x_next[r], x_r)
        assert diag.rho[r] == diag_r.rho
        assert diag.step_norm[r] == diag_r.step_norm
        assert diag.corrected_m_norm[r] == diag_r.corrected_m_norm
        assert diag.row_clamped[r] == diag_r.row_clamped
    assert diag.row_clamped[0] > 0 and diag.row_clamped[-1] == 0
    # lr=None is the config's own alpha
    x_cfg, _ = step_closed_form(state, X, m_hat, d_hat, cfg)
    np.testing.assert_array_equal(x_next[1], x_cfg[1])


# --- the stepper's buffers -----------------------------------------------------

def test_buffered_calls_equal_the_public_functions_bit_for_bit():
    # the stepper hands clip_diag, update_moments and step_closed_form one
    # buffer dict for the whole run and feeds each step's buffers to the
    # next; every result must equal that of fresh calls, through clamped
    # bases, bases <= 0, a NaN row, an (R, 1) lr column and a stack that
    # shrinks, as a stack does when rows leave
    cfg = OptimizerConfig(alpha=0.05, mu=1e-3, g_d=50.0, weight_decay=0.01,
                          safeguard_rho_max=0.9)
    rng = np.random.default_rng(12)
    lr = np.array([0.5, 0.1, 0.03, 0.02, 0.01, 1e-4])[:, None]
    X = XB = rng.standard_normal((len(lr), 9))
    state = buffered = OptimizerState(0, np.zeros(X.shape), np.zeros(X.shape))
    work, seen = {}, set()
    with np.errstate(invalid="ignore"):
        for k in range(1, 10):
            G, raw = rng.standard_normal(X.shape), rng.uniform(-5.0, 80.0, X.shape)
            if k == 4:
                raw[2] = np.nan             # a blown-up point's estimate
            H = clip_diag(raw, cfg)
            np.testing.assert_array_equal(clip_diag(raw, cfg, out=work), H)
            state, m_hat, d_hat = update_moments(state, G, H, cfg)
            buffered, mb, db = update_moments(buffered, G, clip_diag(raw, cfg, out=work),
                                              cfg, out=work)
            for a, b in ((state.m, buffered.m), (state.D, buffered.D), (m_hat, mb),
                         (d_hat, db)):
                np.testing.assert_array_equal(b, a)
            X, diag = step_closed_form(state, X, m_hat, d_hat, cfg, lr=lr)
            XB, diag_b = step_closed_form(buffered, XB, mb, db, cfg, lr=lr, out=work)
            np.testing.assert_array_equal(XB, X)
            for f in fields(StepDiagnostics):
                np.testing.assert_array_equal(getattr(diag_b, f.name), getattr(diag, f.name))
            seen |= {"clamped"} if diag.n_clamped else set()
            seen |= {"s <= 0"} if np.any(lr * d_hat >= 1.0) else set()
            seen |= {"nan"} if np.isnan(X).any() else set()
            if k in (3, 6):                 # rows leave; the buffers stay as they are
                X, XB, lr = X[1:], XB[1:], lr[1:]
                state, buffered = (OptimizerState(s.t, s.m[1:], s.D[1:])
                                   for s in (state, buffered))
    assert seen == {"clamped", "s <= 0", "nan"} and X.shape == (4, 9)


def test_public_functions_write_into_no_argument():
    # with and without buffers, the state, g, the raw estimate and x are
    # read, never written, and a step's state and x_next survive the next
    # step, whose state and x are theirs
    cfg = OptimizerConfig(alpha=0.5, mu=1e-3, g_d=10.0, safeguard_rho_max=0.5)
    rng = np.random.default_rng(13)
    state = OptimizerState(2, rng.standard_normal((3, 4)), rng.uniform(1e-3, 10.0, (3, 4)))
    G, raw, X = rng.standard_normal((3, 4)), rng.uniform(-1.0, 20.0, (3, 4)), np.ones((3, 4))
    args = (state.m, state.D, G, raw, X)
    before = [a.copy() for a in args]
    for out in (None, {}):
        H = clip_diag(raw, cfg, out=out)
        new, m_hat, d_hat = update_moments(state, G, H, cfg, out=out)
        x_next, _ = step_closed_form(new, X, m_hat, d_hat, cfg, out=out)
        assert not any(np.shares_memory(r, a) for r in (H, new.m, new.D, m_hat, d_hat, x_next)
                       for a in args)
        held = [new.m.copy(), new.D.copy(), x_next.copy()]
        later, m_hat, d_hat = update_moments(new, G, H, cfg, out=out)
        step_closed_form(later, x_next, m_hat, d_hat, cfg, out=out)
        for a, b in zip(args + (new.m, new.D, x_next), before + held):
            np.testing.assert_array_equal(a, b)
    assert state.t == 2
