"""Diag-OCP: a diagonally preconditioned optimizer with a geometric-series
closed-form step.

Per step, with 1-based step count t' and elementwise arithmetic throughout:

    m_t = beta1 m_{t-1} + (1 - beta1) g_t          first-moment EMA
    D_t = beta2 D_{t-1} + (1 - beta2) H_t          Hessian-diagonal EMA
    m_hat = m_t / (1 - beta1^t')                   bias correction
    D_hat = D_t / (1 - beta2^t')
    s = 1 - alpha D_hat                            per-coordinate base
    phi = (1 - s^t') / D_hat * m_hat               closed-form update
    x_t+1 = x_t (1 - alpha lambda) - phi           decoupled weight decay

The closed form sums the inner recursion phi_l = alpha m_hat + s phi_{l-1},
phi_0 = alpha m_hat, run t'-1 times; `step_recursive_reference` keeps that
literal loop as a test oracle. H_t must already be clipped into [mu, G_d]
by `clip_diag`, which bounds D_hat into the same interval, so s < 1. Bases
below -rho_max are lifted to it before exponentiation (a divergent geometric
series has no meaningful partial-sum limit), and the clamp is surfaced in
StepDiagnostics. Where 0 < s < 1 the coefficient is
-expm1(t' log1p(-alpha D_hat)) / D_hat, exact in flat directions where
1 - s^t' would cancel. Blow-up is not an error: it propagates as inf/NaN
through the elementwise update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .hessian_probe import probe_draw
from .problems import Draw, _buffer, _per_row, _row_norms, as_real


def check_finite(cfg):
    """Reject a float field that holds a bool, NaN or an infinity, each of
    which a JSON config can spell: true would run as 1.0."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float" and not math.isfinite(as_real(value, f.name)):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Diag-OCP hyperparameters. Like BaselineConfig it exposes `kind`, `lr`
    (the field named by `lr_field`), `with_lr` and `probe(dim)`, the Draw
    of its Hutchinson probe block; `clip_diag` clamps the estimate into
    [mu, g_d]."""

    kind = "diag_ocp"
    lr_field = "alpha"

    alpha: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    mu: float = 1e-4
    g_d: float = 1e4
    weight_decay: float = 0.008
    n_probes: int = 1
    probe_distribution: str = "standard_normal"
    safeguard_rho_max: float = 0.999

    def __post_init__(self):
        check_finite(self)
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must be in [0, 1)")
        if not 0.0 < self.mu <= self.g_d:
            raise ValueError("need 0 < mu <= g_d")
        if self.weight_decay < 0.0 or self.alpha * self.weight_decay >= 1.0:
            raise ValueError("need weight_decay >= 0 and alpha*weight_decay < 1")
        if not 0.0 < self.safeguard_rho_max < 1.0:
            raise ValueError("safeguard_rho_max must be in (0, 1)")
        # bad probe settings fail here rather than mid-run
        object.__setattr__(self, "n_probes", self.probe(1).shape[0])

    @property
    def lr(self) -> float:
        return getattr(self, self.lr_field)

    def with_lr(self, lr: float) -> "OptimizerConfig":
        return replace(self, **{self.lr_field: lr})

    def probe(self, dim: int) -> Draw:
        return probe_draw(self.n_probes, self.probe_distribution, dim)


@dataclass
class OptimizerState:
    """The state of every optimizer kind: t completed steps plus the raw
    (uncorrected) EMA moments, one row per replicate when they are (R, dim)
    stacks. m is the gradient EMA and D the diagonal second-moment EMA the
    step divides by: the clipped Hessian diagonal's D_t for diag_ocp, the
    squared gradients' v_t for adam, the squared raw curvature's for
    adahessian; sgd leaves both as they are."""

    t: int
    m: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class StepDiagnostics:
    """What one step did. For an (R, dim) stack, the per-row fields hold one
    value per row, while n_clamped covers the stack."""

    rho: float | np.ndarray     # max_i |s_i| after the -rho_max floor
    n_clamped: int              # clamped bases, summed over a stack
    step_norm: float | np.ndarray
    row_clamped: int | np.ndarray   # clamped bases per row


def init_state(shape) -> OptimizerState:
    """The state before the first step: zero moments of `shape`, a dim or
    an (R, dim) stack shape."""
    m = np.zeros(shape)
    if m.ndim not in (1, 2) or m.shape[-1] < 1:
        raise ValueError(f"shape must be a dim >= 1 or (R, dim), got {shape!r}")
    return OptimizerState(t=0, m=m, D=np.zeros(shape))


def clip_diag(h, cfg: OptimizerConfig, out=None) -> np.ndarray:
    """Clamp each entry of a raw curvature estimate into [mu, g_d], the
    precondition of `update_moments`. A NaN entry, the estimate at a
    blown-up point, passes through, so the step it feeds comes out
    non-finite and the stepper drops that row. `out` is a buffer dict as
    `update_moments` takes; h itself is never written. np.maximum then
    np.minimum into one buffer give np.clip's bits, NaN included, without
    its dispatch cost."""
    h = np.asarray(h, dtype=np.float64)
    H = np.maximum(h, cfg.mu, out=_buffer(out, "H", h.shape))
    return np.minimum(H, cfg.g_d, out=H)


def _ema(prev, beta, new, out, role, square=False):
    """beta prev + (1 - beta) new, or + (1 - beta) new new when square,
    into out's buffer for role, rounded as that expression rounds."""
    scratch = np.multiply(1.0 - beta, new, out=_buffer(out, "scratch", new.shape))
    if square:
        scratch *= new
    result = np.multiply(beta, prev, out=_buffer(out, role, new.shape))
    return np.add(result, scratch, out=result)


def update_moments(state: OptimizerState, g, H, cfg: OptimizerConfig, out=None):
    """Advance both EMAs one step and return (state', m_hat, D_hat).

    H must already be clipped into [mu, g_d]; rejecting unclipped input here
    enforces the clamp-before-EMA ordering. g, H and the moments may be
    (R, dim) stacks; every row advances elementwise. The bias-corrected
    D_hat is a convex combination of clipped entries, so it lies in
    [mu, g_d]; the final clip only removes float rounding dust at the
    interval endpoints.

    `out`, a dict that a stepper keeps from step to step, holds the
    buffers every result is written into (see `problems._buffer`), so a
    step allocates none; each call overwrites the last one's m_hat and
    D_hat. The moments alternate between two buffers by the parity of t,
    so the state passed in is never written. Without `out` every result
    is a fresh array.
    """
    g, H = _check_moment_inputs(state, g, H, cfg)
    t = state.t + 1
    m = _ema(state.m, cfg.beta1, g, out, ("m", t % 2))
    d = _ema(state.D, cfg.beta2, H, out, ("D", t % 2))
    m_hat = np.divide(m, 1.0 - cfg.beta1 ** t, out=_buffer(out, "m_hat", g.shape))
    d_hat = np.divide(d, 1.0 - cfg.beta2 ** t, out=_buffer(out, "d_hat", g.shape))
    np.minimum(np.maximum(d_hat, cfg.mu, out=d_hat), cfg.g_d, out=d_hat)   # as clip_diag
    return OptimizerState(t=t, m=m, D=d), m_hat, d_hat


def step_closed_form(state: OptimizerState, x, m_hat, D_hat, cfg: OptimizerConfig,
                     lr=None, out=None):
    """Production update: x (1 - alpha lambda) - (1 - s^t')/D_hat * m_hat.

    `state` is the post-update_moments state, so state.t is the 1-based step
    count t'. Every operand may be a vector or an (R, dim) stack of rows
    sharing t'. `lr`, when given, replaces cfg.alpha: an (R, 1) column gives
    each row of a stack its own alpha. Returns (x_next, StepDiagnostics);
    step_norm is ||x_next - x|| (per row), and each row's diagnostics equal
    the ones it gets stepped alone with its alpha as a scalar. Shapes are
    checked; values are not, so a non-finite input gives a non-finite x_next.
    `out` is a buffer dict as `update_moments` takes; x_next alternates
    between two buffers by the parity of t', so x is never written.
    """
    x, m_hat, D_hat = _check_step_inputs(state, x, m_hat, D_hat)
    alpha, t = (cfg.alpha if lr is None else lr), state.t
    ad = np.multiply(alpha, D_hat, out=_buffer(out, "ad", x.shape))
    s = np.subtract(1.0, ad, out=_buffer(out, "s", x.shape))
    # a base is clamped where max(s, -rho_max) != s: below -rho_max, or
    # NaN; only a step that has one lifts s to the floor
    mask = np.greater_equal(s, -cfg.safeguard_rho_max, out=_buffer(out, "mask", x.shape, bool))
    n_clamped = mask.size - np.count_nonzero(mask)
    row_clamped = x.shape[-1] - mask.sum(axis=-1) if n_clamped else np.zeros(x.shape[:-1], int)
    if n_clamped:
        np.maximum(s, -cfg.safeguard_rho_max, out=s)
    # 1 - s^t' cancels as s nears 1, so the coefficient is -expm1(t'
    # log1p(-ad)). log1p must not see a base s <= 0 (or NaN): it reads 0
    # there, and on the steps that have such bases they take the plain power
    outer = np.logical_not(np.greater(s, 0.0, out=mask), out=mask)
    coef = np.negative(ad, out=ad)
    np.copyto(coef, 0.0, where=outer)
    np.negative(np.expm1(np.multiply(t, np.log1p(coef, out=coef), out=coef), out=coef), out=coef)
    if outer.any():
        coef[outer] = 1.0 - s[outer] ** t
    phi = np.multiply(np.divide(coef, D_hat, out=coef), m_hat, out=coef)
    x_next = _buffer(out, ("x", t % 2), x.shape)
    np.subtract(np.multiply(x, 1.0 - alpha * cfg.weight_decay, out=x_next), phi, out=x_next)
    return x_next, StepDiagnostics(
        rho=_per_row(np.maximum.reduce(np.abs(s, out=s), axis=-1)),
        n_clamped=n_clamped,
        step_norm=_per_row(_row_norms(np.subtract(x_next, x, out=phi))),
        row_clamped=_per_row(row_clamped, int),
    )


def step_recursive_reference(state: OptimizerState, x, m_hat, D_hat,
                             cfg: OptimizerConfig) -> np.ndarray:
    """Literal inner loop, kept as a test oracle (cost grows with t').

    Runs phi_l = alpha m_hat + (1 - alpha D_hat) phi_{l-1} for t'-1
    applications from phi_0 = alpha m_hat, with no base safeguard, then
    applies the same weight decay and subtraction as the closed form.
    Matches step_closed_form whenever no base is below -rho_max.
    """
    x, m_hat, D_hat = _check_step_inputs(state, x, m_hat, D_hat)
    b = cfg.alpha * m_hat
    a = 1.0 - cfg.alpha * D_hat
    phi = b.copy()
    for _ in range(state.t - 1):
        phi = b + a * phi
    return x * (1.0 - cfg.alpha * cfg.weight_decay) - phi


def stability_margin(D_hat, cfg: OptimizerConfig) -> float:
    """max_i |1 - alpha D_hat[i]| before any safeguarding."""
    D_hat = np.asarray(D_hat, dtype=np.float64)
    if D_hat.size == 0:
        raise ValueError("D_hat must be nonempty")
    return float(np.max(np.abs(1.0 - cfg.alpha * D_hat)))


def _check_moment_inputs(state, g, H, cfg):
    g, H = np.asarray(g, dtype=np.float64), np.asarray(H, dtype=np.float64)
    if g.shape != state.m.shape or H.shape != state.m.shape:
        raise ValueError("g/H dimension mismatch with optimizer state")
    if (H < cfg.mu).any() or (H > cfg.g_d).any():
        raise ValueError("H must be clipped into [mu, g_d] before the EMA update")
    return g, H


def _check_step_inputs(state, x, m_hat, D_hat):
    if state.t < 1:
        raise ValueError("no moments yet: update_moments must run before stepping")
    x, m_hat, D_hat = (np.asarray(a, dtype=np.float64) for a in (x, m_hat, D_hat))
    if not (x.shape == m_hat.shape == D_hat.shape == state.m.shape):
        raise ValueError("x/m_hat/D_hat dimension mismatch with optimizer state")
    return x, m_hat, D_hat
