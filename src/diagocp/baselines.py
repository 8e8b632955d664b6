"""Reference optimizers for head-to-head comparison: SGD (optional heavy-ball
momentum), Adam, and a diagonal AdaHessian.

All three use 1-based bias correction where applicable and the same decoupled
multiplicative weight decay as the main optimizer, x <- x (1 - lr * wd),
applied before the gradient-based step, so comparisons differ only in the
preconditioner. AdaHessianDiag scales by sqrt of the EMA of squared raw
Hessian-diagonal estimates, unclipped as published (Yao et al., AAAI 2021):
x <- x - lr * m_hat / (sqrt(v_hat_H) + eps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diag_ocp import check_finite
from .hessian_probe import ProbeConfig

BASELINE_KINDS = ("sgd", "adam", "adahessian")


@dataclass(frozen=True)
class BaselineConfig:
    """Hyperparameters of one baseline; `kind` picks it. Exposes the same
    `kind`, `lr`, `with_lr` and `probe` as OptimizerConfig."""

    lr_field = "lr"

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    momentum: float = 0.0   # sgd only

    def __post_init__(self):
        check_finite(self)
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1, beta2 must be in [0, 1)")
        if not self.eps > 0.0:
            raise ValueError("eps must be > 0")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")

    def with_lr(self, lr: float) -> "BaselineConfig":
        return replace(self, **{self.lr_field: lr})

    @property
    def probe(self) -> ProbeConfig | None:
        """One Rademacher probe for adahessian (the published choice), else None."""
        return ProbeConfig(distribution="rademacher") if self.kind == "adahessian" else None


@dataclass
class BaselineState:
    """t completed steps; m doubles as the SGD momentum buffer; v is the
    second-moment EMA (squared gradients, or squared Hessian diagonal for
    adahessian; unused by sgd)."""

    t: int
    m: np.ndarray
    v: np.ndarray


def init_baseline_state(dim: int) -> BaselineState:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return BaselineState(t=0, m=np.zeros(dim), v=np.zeros(dim))


def baseline_step(state: BaselineState, x, g, cfg: BaselineConfig,
                  h_diag=None, lr=None):
    """One update of cfg.kind; returns (x_next, state').

    x, g, h_diag and the state's buffers may be (R, dim) stacks of
    replicates sharing t; the update is elementwise, row by row. `lr`, when
    given, replaces cfg.lr: an (R, 1) column gives each row its own, and
    each row equals its step with that lr as a scalar bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if x.shape != state.m.shape or g.shape != state.m.shape:
        raise ValueError("x/g dimension mismatch with optimizer state")
    lr = cfg.lr if lr is None else lr
    t = state.t + 1
    decayed = x * (1.0 - lr * cfg.weight_decay)

    if cfg.kind == "sgd":
        buf = cfg.momentum * state.m + g
        return decayed - lr * buf, BaselineState(t, buf, state.v)

    if cfg.kind == "adahessian":
        if h_diag is None:
            raise ValueError("adahessian requires a Hessian diagonal estimate")
        h_diag = np.asarray(h_diag, dtype=np.float64)
        if h_diag.shape != state.m.shape:
            raise ValueError("h_diag dimension mismatch with optimizer state")
        m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * h_diag * h_diag
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        return decayed - lr * m_hat / (np.sqrt(v_hat) + cfg.eps), BaselineState(t, m, v)

    # adam
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    return decayed - lr * m_hat / (np.sqrt(v_hat) + cfg.eps), BaselineState(t, m, v)
