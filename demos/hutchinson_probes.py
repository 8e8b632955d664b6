"""How fast the randomized diagonal estimate tightens with more probes.

Hutchinson's estimator only ever touches the matrix through products H v,
which is what makes it usable when the Hessian is available as an operator
but never as an array. Rademacher probes are exact in one shot on a diagonal
matrix; on a dense symmetric matrix the error decays like 1/sqrt(n_probes)
through the off-diagonal cross terms.
"""

import numpy as np

from diagocp.diag_ocp import OptimizerConfig, clip_diag
from diagocp.hessian_probe import hutchinson_diag, probe_draw
from diagocp.problems import BatchSeed, Channel

rng = np.random.default_rng(11)
dim = 12
a = rng.uniform(-0.4, 0.4, (dim, dim))
a = (a + a.T) / 2.0
a[np.diag_indices(dim)] = rng.uniform(1.0, 3.0, dim)

print(f"dense symmetric {dim}x{dim}, diagonal in [1, 3]")
print(f"{'probes':>8}  {'max rel error':>14}")
for n in (1, 10, 100, 1_000, 10_000, 100_000):
    probe = probe_draw(n, "rademacher", dim)
    est = hutchinson_diag(lambda V: V @ a, probe, BatchSeed(0, 0, Channel.PROBE))
    err = np.max(np.abs(est - np.diag(a)) / np.diag(a))
    print(f"{n:>8}  {err:>14.5f}")

print()
d = np.array([3.0, -5.0, 0.25])
est = hutchinson_diag(lambda v: d * v, probe_draw(1, "rademacher", 3),
                      BatchSeed(0, 0, Channel.PROBE))
print(f"diagonal matrix, single probe: estimate {est} vs truth {d} (exact)")

cfg = OptimizerConfig(mu=1e-4, g_d=1e4)
clipped = clip_diag(est, cfg)
print(f"after Diag-OCP's clip into [mu, g_d] = [{cfg.mu:g}, {cfg.g_d:g}]:  {clipped}")
print("the negative entry is floored: clipping is what keeps the")
print("preconditioner positive definite on nonconvex problems")
