"""Diagonal-curvature optimizer with Hutchinson probes, EMA moments, and a
closed-form multi-horizon step, plus first/second-order baselines, synthetic
problems, and a seeded benchmark harness."""

from .baselines import BASELINE_KINDS, BaselineConfig, baseline_step
from .diag_ocp import (OptimizerConfig, OptimizerState, StepDiagnostics,
                       clip_diag, init_state, stability_margin, step_closed_form,
                       step_recursive_reference, update_moments)
from .harness import (CompareResult, RunConfig, RunRecord, SweepResult,
                      SweepSpec, ablate_mu, compare,
                      emit_ablation, emit_heatmap, emit_results, emit_sweep,
                      lr_sweep, run_experiment,
                      verify_closed_form_equivalence,
                      verify_probe_unbiasedness, verify_rate_trend)
from .hessian_probe import hutchinson_diag, probe_draw
from .problems import (BatchSeed, Channel, MlpRegression, NoisyLeastSquares, ProblemOracle,
                       Quadratic, Rosenbrock2D, StackSeed, make_problem)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS", "BaselineConfig", "baseline_step",
    "OptimizerConfig", "OptimizerState", "StepDiagnostics", "clip_diag",
    "init_state", "stability_margin", "step_closed_form", "step_recursive_reference",
    "update_moments",
    "CompareResult", "RunConfig", "RunRecord", "SweepResult",
    "SweepSpec", "ablate_mu", "compare", "emit_ablation", "emit_heatmap",
    "emit_results", "emit_sweep", "lr_sweep", "run_experiment",
    "verify_closed_form_equivalence", "verify_probe_unbiasedness",
    "verify_rate_trend",
    "hutchinson_diag", "probe_draw",
    "BatchSeed", "Channel", "MlpRegression", "NoisyLeastSquares",
    "ProblemOracle", "Quadratic", "Rosenbrock2D", "StackSeed", "make_problem",
]
