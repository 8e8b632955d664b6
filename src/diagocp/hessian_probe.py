"""Hutchinson diagonal-Hessian estimation.

The estimator is H = (1/N) sum_m v_m * hvp(v_m), elementwise, with probe
vectors v satisfying E[v v^T] = I. Rademacher probes make the estimate exact
for diagonal Hessians (v_i^2 = 1); standard-normal probes are the default.
The N probes of one estimate are drawn up front as an (N, dim) block, in one
call to the stream, and handed to the HVP oracle in a single call, so an
oracle can evaluate them together (one minibatch draw, one stacked
gradient pass) instead of one by one. A stack of R estimates takes a StackSeed and
hands over one (R, N, dim) array of blocks. A run draws every replicate's
blocks at every step ahead into one `probe_table`, and each step's StackSeed
gathers its rows' blocks from it; without a table, each replicate the stack
reads derives its stream and draws its block once, for every row of it.
The estimate is raw: entries may be negative or zero wherever the local
curvature or the probe noise makes them so. Each optimizer decides what to
do with that; Diag-OCP clips it (`diag_ocp.clip_diag`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import BatchSeed, Channel, as_integer

# Each distribution's entries as a probe table stores them, exactly.
_TABLE_DTYPES = {"rademacher": np.int8, "standard_normal": np.float64}
# A probe table over this size is not built, and its run draws each step's
# blocks as it goes: 4 normal probes at dim 21k over 1,000 steps and 5 seeds
# would take 3.4 GB.
_PROBE_TABLE_MAX_BYTES = 64 << 20


@dataclass(frozen=True)
class ProbeConfig:
    n_probes: int = 1
    distribution: str = "standard_normal"

    def __post_init__(self):
        object.__setattr__(self, "n_probes", as_integer(self.n_probes, "n_probes"))
        if self.n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        if self.distribution not in _TABLE_DTYPES:
            raise ValueError(f"unknown probe distribution {self.distribution!r}")


def _draw(distribution: str, shape, rng: np.random.Generator) -> np.ndarray:
    """Probe entries of the given shape, Rademacher ones as integers; an
    (N, dim) block draws the same numbers as N successive (dim,) draws from
    the same stream."""
    if distribution == "rademacher":
        return rng.integers(0, 2, size=shape) * 2 - 1
    return rng.standard_normal(shape)


def probe_table(cfg: ProbeConfig, dim: int, bases, words) -> np.ndarray | None:
    """The probe blocks of every base's PROBE streams at steps 0..n_steps-1,
    drawn ahead into one (len(bases), n_steps, n_probes, dim) array: int8
    for Rademacher entries, float64 for standard normals. None when that
    array would exceed _PROBE_TABLE_MAX_BYTES.

    words is the (len(bases), n_steps, len(Channel), 4) stream_states table
    of the bases. Entry (i, k) is the block that BatchSeed(bases[i], k,
    PROBE).rng() draws, derived through that seed, so a table holds exactly
    the probes a lone seed draws.
    """
    shape = words.shape[:2] + (cfg.n_probes, dim)
    dtype = np.dtype(_TABLE_DTYPES[cfg.distribution])
    if math.prod(shape) * dtype.itemsize > _PROBE_TABLE_MAX_BYTES:
        return None
    table = np.empty(shape, dtype)
    for i, k in np.ndindex(shape[:2]):
        table[i, k] = _draw(cfg.distribution, shape[2:], BatchSeed(
            bases[i], k, Channel.PROBE, words[i, k, Channel.PROBE]).rng())
    return table


def hutchinson_diag(hvp_fn, dim: int, cfg: ProbeConfig, seed) -> np.ndarray:
    """Raw diagonal estimate: average of v * hvp(v) over probes.

    All n_probes draws come from the one stream addressed by `seed`, so the
    whole estimate is a deterministic function of (seed, cfg). hvp_fn takes
    the (n_probes, dim) block of probe rows and must return the
    (n_probes, dim) block of their Hessian-vector products. For a StackSeed
    of R rows each row gets the block of its replicate's stream, hvp_fn
    gets the (R, n_probes, dim) stack of blocks, and the result is (R, dim).
    A StackSeed with a `probe_table` hands over its rows' blocks from the
    table and derives no stream.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    V = seed.drawn
    if V is None:
        gens, rows = seed.generators()
        V = np.stack([_draw(cfg.distribution, (cfg.n_probes, dim), rng) for rng in gens])[rows]
    elif V.shape[-2:] != (cfg.n_probes, dim):
        raise ValueError(f"probe table blocks are {V.shape[-2:]}, expected {(cfg.n_probes, dim)}")
    V = np.asarray(V, dtype=np.float64)
    HV = np.asarray(hvp_fn(V), dtype=np.float64)
    if HV.shape != V.shape:
        raise ValueError(f"hvp_fn returned shape {HV.shape}, expected {V.shape}")
    return (V * HV).sum(axis=-2) / cfg.n_probes

