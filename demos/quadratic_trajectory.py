"""Walk the optimizer through two quadratics step by step.

The 1-D run is small enough to check against hand arithmetic: with curvature
2, alpha 0.1, and both EMAs off, the first two iterates land on 0.8 and
0.512. The 3-D run turns the EMAs back on and prints the loss together with
the stability margin rho = max |1 - alpha * d| that the closed-form step is
built around.
"""

import numpy as np

from diagocp.diag_ocp import (OptimizerConfig, init_state, stability_margin,
                              step_closed_form, update_moments)
from diagocp.problems import Quadratic

print("1-D quadratic, curvature 2, exact Hessian, no EMA smoothing")
prob = Quadratic(np.array([2.0]))
cfg = OptimizerConfig(alpha=0.1, beta1=0.0, beta2=0.0, weight_decay=0.0)
x = np.array([1.0])
state = init_state(1)
for k in range(1, 6):
    g = prob.eval_grad(x)
    h = np.array([2.0])
    state, m_hat, d_hat = update_moments(state, g, h, cfg)
    x, diag = step_closed_form(state, x, m_hat, d_hat, cfg)
    print(f"  step {k}: x = {x[0]:+.6f}   loss = {prob.train_loss(x):.6f}")

print()
print("3-D quadratic, spectrum [1, 2, 4], EMAs on")
prob = Quadratic(np.array([1.0, 2.0, 4.0]))
cfg = OptimizerConfig(alpha=0.1, weight_decay=0.0)
x = prob.default_init()
state = init_state(3)
print(f"  margin at the true curvature: "
      f"{stability_margin(np.array([1.0, 2.0, 4.0]), cfg):.2f} (< 1 is stable)")
for k in range(1, 41):
    g = prob.eval_grad(x)
    h = prob.hvp(x, np.ones(3))  # diagonal problem: H v recovers the diagonal
    state, m_hat, d_hat = update_moments(state, g, h, cfg)
    x, diag = step_closed_form(state, x, m_hat, d_hat, cfg)
    if k % 8 == 0 or k == 1:
        print(f"  step {k:2d}: loss = {prob.train_loss(x):.3e}   "
              f"rho = {diag.rho:.3f}   clamped = {diag.n_clamped}")
print(f"  final x = {np.array2string(x, precision=4)}")
