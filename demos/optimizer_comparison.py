"""Head-to-head on the MLP regression benchmark, every optimizer tuned first.

Each entry gets the same staged sweep before the comparison is read off, so
no optimizer is judged at another's learning rate. The per-seed pairing is
fair too: replicate i of every optimizer starts from the same seeded
initialization. The budget matches the acceptance protocol (150 steps,
5 seeds), with diagonal AdaHessian added as a fourth entry. AdaHessian
squares the raw Hutchinson estimate, as published; only Diag-OCP clips it.
"""

import numpy as np

from diagocp.baselines import BaselineConfig
from diagocp.diag_ocp import OptimizerConfig
from diagocp.harness import RunConfig, SweepSpec, compare
from diagocp.problems import MlpRegression

WD = 0.008
problem = MlpRegression()
common = dict(problem=problem, max_steps=150, base_seed=42, n_seeds=5)

entries = [
    RunConfig(optimizer="diag_ocp",
              opt_cfg=OptimizerConfig(alpha=0.1, weight_decay=WD),
              **common),
    RunConfig(optimizer="sgd",
              opt_cfg=BaselineConfig(kind="sgd", lr=0.1, weight_decay=WD),
              **common),
    RunConfig(optimizer="adam",
              opt_cfg=BaselineConfig(kind="adam", lr=0.1, weight_decay=WD),
              **common),
    RunConfig(optimizer="adahessian",
              opt_cfg=BaselineConfig(kind="adahessian", lr=0.1,
                                     weight_decay=WD), **common),
]

result = compare(entries, SweepSpec())

print(f"{'optimizer':>10}  {'lr':>6}  {'median min val':>15}  {'per-seed min val'}")
for key in sorted(result.records):
    vals = [r.min_val for r in result.records[key]]
    pretty = ", ".join(f"{v:.4f}" for v in vals)
    print(f"{key:>10}  {result.selected[key]:>6g}  "
          f"{float(np.median(vals)):>15.4f}  [{pretty}]")

ocp = [r.min_val for r in result.records["diag_ocp"]]
for rival in ("sgd", "adam", "adahessian"):
    other = [r.min_val for r in result.records[rival]]
    wins = sum(o <= b for o, b in zip(ocp, other))
    print(f"diag_ocp beats {rival} on {wins}/{len(ocp)} paired seeds")
