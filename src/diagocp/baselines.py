"""Reference optimizers for head-to-head comparison: plain SGD, Adam, and a
diagonal AdaHessian.

All three use the same decoupled multiplicative weight decay as the main
optimizer, x <- x (1 - lr * wd), applied before the gradient-based step, so
comparisons differ only in the preconditioner; SGD then steps -lr * g.
Adam (Kingma & Ba, ICLR 2015) and AdaHessian (Yao et al., AAAI 2021) keep
their published hyperparameters, the constants BETA1, BETA2 and EPS, with
1-based bias correction. AdaHessianDiag scales by sqrt of the EMA of squared
raw Hessian-diagonal estimates, unclipped as published:
x <- x - lr * m_hat / (sqrt(v_hat_H) + eps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diag_ocp import check_finite
from .hessian_probe import probe_draw
from .problems import Draw

BASELINE_KINDS = ("sgd", "adam", "adahessian")
# Adam's and AdaHessian's published moment factors and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class BaselineConfig:
    """Hyperparameters of one baseline; `kind` picks it. Exposes the same
    `kind`, `lr`, `with_lr` and `probe(dim)` as OptimizerConfig."""

    lr_field = "lr"

    kind: str
    lr: float
    weight_decay: float = 0.0

    def __post_init__(self):
        check_finite(self)
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")

    def with_lr(self, lr: float) -> "BaselineConfig":
        return replace(self, **{self.lr_field: lr})

    def probe(self, dim: int) -> Draw | None:
        """One Rademacher probe for adahessian (the published choice), else None."""
        return probe_draw(1, "rademacher", dim) if self.kind == "adahessian" else None


@dataclass
class BaselineState:
    """t completed steps; m is the gradient EMA and v the second-moment EMA
    (squared gradients, or squared Hessian diagonal for adahessian); sgd
    leaves both unused."""

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
        return decayed - lr * g, BaselineState(t, state.m, state.v)

    if cfg.kind == "adahessian":
        if h_diag is None:
            raise ValueError("adahessian requires a Hessian diagonal estimate")
        h_diag = np.asarray(h_diag, dtype=np.float64)
        if h_diag.shape != state.m.shape:
            raise ValueError("h_diag dimension mismatch with optimizer state")
        m = BETA1 * state.m + (1.0 - BETA1) * g
        v = BETA2 * state.v + (1.0 - BETA2) * h_diag * h_diag
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        return decayed - lr * m_hat / (np.sqrt(v_hat) + EPS), BaselineState(t, m, v)

    # adam
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return decayed - lr * m_hat / (np.sqrt(v_hat) + EPS), BaselineState(t, m, v)
