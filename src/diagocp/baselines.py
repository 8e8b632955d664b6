"""Reference optimizers for head-to-head comparison: plain SGD, Adam, and a
diagonal AdaHessian.

All three use the same decoupled multiplicative weight decay as the main
optimizer, x <- x (1 - lr * wd), applied before the gradient-based step, so
comparisons differ only in the preconditioner; SGD then steps -lr * g.
Adam (Kingma & Ba, ICLR 2015) and AdaHessian (Yao et al., AAAI 2021) keep
their published hyperparameters, the constants BETA1, BETA2 and EPS, with
1-based bias correction. AdaHessianDiag scales by sqrt of the EMA of squared
raw Hessian-diagonal estimates, unclipped as published:
x <- x - lr * m_hat / (sqrt(v_hat_H) + eps). All three step diag_ocp's
OptimizerState, whose D holds the second-moment EMA written v here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diag_ocp import OptimizerState, _ema, check_finite
from .hessian_probe import probe_draw
from .problems import Draw, _buffer

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


def baseline_step(state: OptimizerState, x, g, cfg: BaselineConfig,
                  h_diag=None, lr=None, out=None):
    """One update of cfg.kind; returns (x_next, state').

    The state is diag_ocp's OptimizerState, made by `init_state`: m is
    the gradient EMA and D the second-moment EMA, of squared gradients for
    adam and of squared raw curvature for adahessian; sgd carries both
    unchanged. x, g, h_diag and the state's buffers may be (R, dim) stacks
    of replicates sharing t; the update is elementwise, row by row. `lr`,
    when given, replaces cfg.lr: an (R, 1) column gives each row its own,
    and each row equals its step with that lr as a scalar bit for bit.
    `out` is a buffer dict as `diag_ocp.update_moments` takes: x_next and
    the moments alternate between two buffers each by the parity of t, so
    no argument is written.
    """
    x, g, h_diag = _check_inputs(state, x, g, h_diag, cfg)
    lr = cfg.lr if lr is None else lr
    t = state.t + 1
    x_next = np.multiply(x, 1.0 - lr * cfg.weight_decay, out=_buffer(out, ("x", t % 2), x.shape))
    if cfg.kind == "sgd":
        step = np.multiply(lr, g, out=_buffer(out, "step", x.shape))
        state = OptimizerState(t, state.m, state.D)
    else:
        # adahessian's second moment squares the raw curvature, adam's the gradient
        m = _ema(state.m, BETA1, g, out, ("m", t % 2))
        v = _ema(state.D, BETA2, h_diag if cfg.kind == "adahessian" else g, out, ("D", t % 2),
                 square=True)
        step = np.divide(m, 1.0 - BETA1 ** t, out=_buffer(out, "step", x.shape))
        np.multiply(lr, step, out=step)
        denom = np.divide(v, 1.0 - BETA2 ** t, out=_buffer(out, "denom", x.shape))
        np.divide(step, np.add(np.sqrt(denom, out=denom), EPS, out=denom), out=step)
        state = OptimizerState(t, m, v)
    return np.subtract(x_next, step, out=x_next), state


def _check_inputs(state, x, g, h_diag, cfg):
    x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    if x.shape != state.m.shape or g.shape != state.m.shape:
        raise ValueError("x/g dimension mismatch with optimizer state")
    if cfg.kind == "adahessian":
        if h_diag is None:
            raise ValueError("adahessian requires a Hessian diagonal estimate")
        h_diag = np.asarray(h_diag, dtype=np.float64)
        if h_diag.shape != state.m.shape:
            raise ValueError("h_diag dimension mismatch with optimizer state")
    return x, g, h_diag
