"""The staged learning-rate sweep on a noisy least-squares problem.

Stage one walks a descending coarse grid; stage two refines the winner's
decade with {x, x/2, x/10}. The selection metric is the median over seeds of
the minimum validation loss, diverged replicates excluded. Everything the
sweep ran is cached in the result, so the CSVs cover both stages.
"""

import tempfile

from diagocp.baselines import BaselineConfig
from diagocp.harness import (RunConfig, SweepSpec, emit_results, emit_sweep,
                             lr_sweep)
from diagocp.problems import NoisyLeastSquares

problem = NoisyLeastSquares(design_seed=3, n_samples=64, dim=10,
                            noise_std=0.1, noise_std_grad=0.05)
base = RunConfig(problem=problem, optimizer="sgd",
                 opt_cfg=BaselineConfig(kind="sgd", lr=0.1),
                 max_steps=100, base_seed=0, n_seeds=5)
spec = SweepSpec()  # coarse 1e-1 .. 1e-4, refine {x, x/2, x/10}

result = lr_sweep(spec, base)

print(f"{'lr':>8}  {'stage':>6}  {'median min val':>15}  {'diverged':>8}")
for row in result.rows:
    print(f"{row['lr']:>8g}  {row['stage']:>6}  {row['metric']:>15.6f}  "
          f"{row['diverged']:>8}")
print(f"\nselected lr: {result.selected_lr:g}")

flat = [rec for lr in sorted(result.records, reverse=True)
        for rec in result.records[lr]]
with tempfile.TemporaryDirectory(prefix="sweep_demo_") as out:
    paths = emit_results(flat, out)
    paths.append(emit_sweep(result, out))
    print("wrote " + ", ".join(str(p) for p in paths))
