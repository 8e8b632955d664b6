"""Hutchinson diagonal-Hessian estimation.

The estimator is H = (1/N) sum_m v_m * hvp(v_m), elementwise, with probe
vectors v satisfying E[v v^T] = I. Rademacher probes make the estimate exact
for diagonal Hessians (v_i^2 = 1); standard-normal probes are the default.
A probe block is its Draw (`probe_draw`): the N probes of one estimate are
drawn up front as an (N, dim) block, in one call to the stream, and handed
to the HVP oracle in a single call, so an oracle can evaluate them together
(one minibatch draw, one stacked gradient pass) instead of one by one. A
stack of R estimates takes a StackSeed, which holds one (R, N, dim) array
of blocks, gathered from the table that the harness fills with the same
Draw, and hands it over in one call.
The estimate is raw: entries may be negative or zero wherever the local
curvature or the probe noise makes them so. Each optimizer decides what to
do with that; Diag-OCP clips it (`diag_ocp.clip_diag`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .problems import Draw, as_integer

# Each distribution's entries as a probe table stores them, exactly.
_TABLE_DTYPES = {"rademacher": np.int8, "standard_normal": np.float64}


def _draw(distribution: str, shape, rng: np.random.Generator) -> np.ndarray:
    """Probe entries of the given shape, Rademacher ones as integers; an
    (N, dim) block draws the same numbers as N successive (dim,) draws from
    the same stream."""
    if distribution == "rademacher":
        return rng.integers(0, 2, size=shape) * 2 - 1
    return rng.standard_normal(shape)


def probe_draw(n_probes, distribution: str, dim: int) -> Draw:
    """The Draw of one (n_probes, dim) probe block, stored as int8 for
    Rademacher entries and float64 for standard normals. n_probes must be
    an integer >= 1 (an integral float reads as one), the distribution
    "rademacher" or "standard_normal", and dim >= 1."""
    n_probes = as_integer(n_probes, "n_probes")
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    if distribution not in _TABLE_DTYPES:
        raise ValueError(f"unknown probe distribution {distribution!r}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    shape = (n_probes, dim)
    return Draw(partial(_draw, distribution, shape), shape, _TABLE_DTYPES[distribution])


def hutchinson_diag(hvp_fn, draw: Draw, seed) -> np.ndarray:
    """Raw diagonal estimate: average of v * hvp(v) over the probes of the
    block that `draw` (a `probe_draw`) describes.

    All the block's probes come from the one stream addressed by `seed`, so
    the whole estimate is a deterministic function of (seed, draw). hvp_fn
    takes the (n_probes, dim) block of probe rows and must return the
    (n_probes, dim) block of their Hessian-vector products. A StackSeed of
    R rows holds one block per row, which must have the draw's shape;
    hvp_fn gets the (R, n_probes, dim) stack of blocks, and the result is
    (R, dim).
    """
    V = np.asarray(seed.draws(draw.fn), dtype=np.float64)
    if V.shape[-2:] != draw.shape:
        raise ValueError(f"probe blocks are {V.shape[-2:]}, expected {draw.shape}")
    HV = np.asarray(hvp_fn(V), dtype=np.float64)
    if HV.shape != V.shape:
        raise ValueError(f"hvp_fn returned shape {HV.shape}, expected {V.shape}")
    return (V * HV).sum(axis=-2) / draw.shape[0]
