"""Hutchinson diagonal-Hessian estimation.

The estimator is H = (1/N) sum_m v_m * hvp(v_m), elementwise, with probe
vectors v satisfying E[v v^T] = I. Rademacher probes make the estimate exact
for diagonal Hessians (v_i^2 = 1); standard-normal probes are the default.
The N probes of one estimate are drawn up front as an (N, dim) block, in one
call to the stream, and handed to the HVP oracle in a single call, so an
oracle can evaluate them together (one minibatch draw, one stacked
gradient pass) instead of one by one. A stack of R estimates takes a StackSeed and
hands over one (R, N, dim) array of blocks; each replicate the stack reads
derives its stream and draws its block once, for every row of it.
The estimate is raw: entries may be negative or zero wherever the local
curvature or the probe noise makes them so. Each optimizer decides what to
do with that; Diag-OCP clips it (`diag_ocp.clip_diag`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import as_integer

_DISTRIBUTIONS = ("rademacher", "standard_normal")


@dataclass(frozen=True)
class ProbeConfig:
    n_probes: int = 1
    distribution: str = "standard_normal"

    def __post_init__(self):
        object.__setattr__(self, "n_probes", as_integer(self.n_probes, "n_probes"))
        if self.n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown probe distribution {self.distribution!r}")


def _draw(distribution: str, shape, rng: np.random.Generator) -> np.ndarray:
    """Probe entries of the given shape; an (N, dim) block draws the same
    numbers as N successive (dim,) draws from the same stream."""
    if distribution == "rademacher":
        return (rng.integers(0, 2, size=shape) * 2 - 1).astype(np.float64)
    return rng.standard_normal(shape)


def hutchinson_diag(hvp_fn, dim: int, cfg: ProbeConfig, seed) -> np.ndarray:
    """Raw diagonal estimate: average of v * hvp(v) over probes.

    All n_probes draws come from the one stream addressed by `seed`, so the
    whole estimate is a deterministic function of (seed, cfg). hvp_fn takes
    the (n_probes, dim) block of probe rows and must return the
    (n_probes, dim) block of their Hessian-vector products. For a StackSeed
    of R rows each row gets the block of its replicate's stream, hvp_fn
    gets the (R, n_probes, dim) stack of blocks, and the result is (R, dim).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gens, rows = seed.generators()
    V = np.stack([_draw(cfg.distribution, (cfg.n_probes, dim), rng) for rng in gens])[rows]
    HV = np.asarray(hvp_fn(V), dtype=np.float64)
    if HV.shape != V.shape:
        raise ValueError(f"hvp_fn returned shape {HV.shape}, expected {V.shape}")
    acc = np.zeros(V.shape[:-2] + (dim,))
    for m in range(cfg.n_probes):
        acc += V[..., m, :] * HV[..., m, :]
    return acc / cfg.n_probes

