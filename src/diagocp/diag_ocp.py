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

from .hessian_probe import ProbeConfig
from .problems import _per_row, _row_norms


def check_finite(cfg):
    """Reject NaN or infinite float fields, which JSON configs can spell."""
    for f in fields(cfg):
        if isinstance(value := getattr(cfg, f.name), float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Diag-OCP hyperparameters. Like BaselineConfig it exposes `kind`, `lr`
    (the field named by `lr_field`), `with_lr` and `probe`, its Hutchinson
    settings; `clip_diag` clamps the estimate into [mu, g_d]."""

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
        # built once, so bad probe settings fail here rather than mid-run
        probe = ProbeConfig(n_probes=self.n_probes, distribution=self.probe_distribution)
        object.__setattr__(self, "n_probes", probe.n_probes)
        object.__setattr__(self, "_probe", probe)

    @property
    def lr(self) -> float:
        return getattr(self, self.lr_field)

    def with_lr(self, lr: float) -> "OptimizerConfig":
        return replace(self, **{self.lr_field: lr})

    @property
    def probe(self) -> ProbeConfig:
        return self._probe


@dataclass
class OptimizerState:
    """t completed steps plus the raw (uncorrected) EMA moments, one row
    per replicate when the moments are (R, dim) stacks."""

    t: int
    m: np.ndarray
    D: np.ndarray

    @property
    def dim(self) -> int:
        return self.m.shape[-1]


@dataclass(frozen=True)
class StepDiagnostics:
    """What one step did. For an (R, dim) stack, the per-row fields hold one
    value per row, while safeguard_triggered and n_clamped cover the stack."""

    rho: float | np.ndarray     # max_i |s_i| after the -rho_max floor
    safeguard_triggered: bool
    n_clamped: int              # clamped bases, summed over a stack
    step_norm: float | np.ndarray
    corrected_m_norm: float | np.ndarray
    row_clamped: int | np.ndarray   # clamped bases per row


def init_state(dim: int, cfg: OptimizerConfig) -> OptimizerState:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return OptimizerState(t=0, m=np.zeros(dim), D=np.zeros(dim))


def clip_diag(h, cfg: OptimizerConfig) -> np.ndarray:
    """Clamp each entry of a raw curvature estimate into [mu, g_d], the
    precondition of `update_moments`. A NaN entry, the estimate at a
    blown-up point, passes through, so the step it feeds comes out
    non-finite and the stepper drops that row."""
    return np.clip(np.asarray(h, dtype=np.float64), cfg.mu, cfg.g_d)


def update_moments(state: OptimizerState, g, H, cfg: OptimizerConfig):
    """Advance both EMAs one step and return (state', m_hat, D_hat).

    H must already be clipped into [mu, g_d]; rejecting unclipped input here
    enforces the clamp-before-EMA ordering. g, H and the moments may be
    (R, dim) stacks; every row advances elementwise. The bias-corrected
    D_hat is a convex combination of clipped entries, so it lies in
    [mu, g_d]; the final clip only removes float rounding dust at the
    interval endpoints.
    """
    g = np.asarray(g, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if g.shape != state.m.shape or H.shape != state.m.shape:
        raise ValueError("g/H dimension mismatch with optimizer state")
    if np.any(H < cfg.mu) or np.any(H > cfg.g_d):
        raise ValueError("H must be clipped into [mu, g_d] before the EMA update")
    t_next = state.t + 1
    m_next = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    d_next = cfg.beta2 * state.D + (1.0 - cfg.beta2) * H
    m_hat = m_next / (1.0 - cfg.beta1 ** t_next)
    d_hat = d_next / (1.0 - cfg.beta2 ** t_next)
    np.minimum(np.maximum(d_hat, cfg.mu, out=d_hat), cfg.g_d, out=d_hat)
    return OptimizerState(t=t_next, m=m_next, D=d_next), m_hat, d_hat


def step_closed_form(state: OptimizerState, x, m_hat, D_hat, cfg: OptimizerConfig,
                     lr=None):
    """Production update: x (1 - alpha lambda) - (1 - s^t')/D_hat * m_hat.

    `state` is the post-update_moments state, so state.t is the 1-based step
    count t'. Every operand may be a vector or an (R, dim) stack of rows
    sharing t'. `lr`, when given, replaces cfg.alpha: an (R, 1) column gives
    each row of a stack its own alpha. Returns (x_next, StepDiagnostics);
    step_norm is ||x_next - x|| (per row), and each row's diagnostics equal
    the ones it gets stepped alone with its alpha as a scalar. Shapes are
    checked; values are not, so a non-finite input gives a non-finite x_next.
    """
    x, m_hat, D_hat = _check_step_inputs(state, x, m_hat, D_hat)
    alpha = cfg.alpha if lr is None else lr
    ad = alpha * D_hat
    s = 1.0 - ad
    s_safe = np.maximum(s, -cfg.safeguard_rho_max)
    row_clamped = np.count_nonzero(s_safe != s, axis=-1)
    n_clamped = int(np.sum(row_clamped))
    # 1 - s^t' cancels as s nears 1; log1p must not see s <= 0
    inner = s > 0.0
    coef = -np.expm1(state.t * np.log1p(-ad, out=np.zeros_like(ad), where=inner))
    coef[~inner] = 1.0 - s_safe[~inner] ** state.t
    phi = coef / D_hat * m_hat
    x_next = x * (1.0 - alpha * cfg.weight_decay) - phi
    diagnostics = StepDiagnostics(
        rho=_per_row(np.max(np.abs(s_safe), axis=-1)),
        safeguard_triggered=n_clamped > 0,
        n_clamped=n_clamped,
        step_norm=_per_row(_row_norms(x_next - x)),
        corrected_m_norm=_per_row(_row_norms(m_hat)),
        row_clamped=_per_row(row_clamped, int),
    )
    return x_next, diagnostics


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


def _check_step_inputs(state, x, m_hat, D_hat):
    if state.t < 1:
        raise ValueError("no moments yet: update_moments must run before stepping")
    x = np.asarray(x, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    D_hat = np.asarray(D_hat, dtype=np.float64)
    if not (x.shape == m_hat.shape == D_hat.shape == state.m.shape):
        raise ValueError("x/m_hat/D_hat dimension mismatch with optimizer state")
    return x, m_hat, D_hat
