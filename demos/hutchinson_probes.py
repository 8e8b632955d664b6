"""How fast the randomized diagonal estimate tightens with more probes.

Hutchinson's estimator only ever touches the matrix through products H v,
which is what makes it usable when the Hessian is available as an operator
but never as an array. Rademacher probes are exact in one shot on a diagonal
matrix; on a dense symmetric matrix the error decays like 1/sqrt(n_probes)
through the off-diagonal cross terms.
"""

import numpy as np

from diagocp.hessian_probe import ProbeConfig, clip_diag, hutchinson_diag
from diagocp.problems import BatchSeed, Channel

rng = np.random.default_rng(11)
dim = 12
a = rng.uniform(-0.4, 0.4, (dim, dim))
a = (a + a.T) / 2.0
a[np.diag_indices(dim)] = rng.uniform(1.0, 3.0, dim)

print(f"dense symmetric {dim}x{dim}, diagonal in [1, 3]")
print(f"{'probes':>8}  {'max rel error':>14}")
for n in (1, 10, 100, 1_000, 10_000, 100_000):
    cfg = ProbeConfig(n_probes=n, distribution="rademacher")
    est = hutchinson_diag(lambda V: V @ a, dim, cfg, BatchSeed(0, 0, Channel.PROBE))
    err = np.max(np.abs(est - np.diag(a)) / np.diag(a))
    print(f"{n:>8}  {err:>14.5f}")

print()
d = np.array([3.0, -5.0, 0.25])
est = hutchinson_diag(lambda v: d * v, 3,
                      ProbeConfig(n_probes=1, distribution="rademacher"),
                      BatchSeed(0, 0, Channel.PROBE))
print(f"diagonal matrix, single probe: estimate {est} vs truth {d} (exact)")

clipped = clip_diag(est, ProbeConfig(clip_lo=1e-4, clip_hi=1e4))
print(f"after clipping into [1e-4, 1e4]:  {clipped}")
print("the negative entry is floored: clipping is what keeps the")
print("preconditioner positive definite on nonconvex problems")
