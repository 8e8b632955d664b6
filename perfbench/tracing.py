"""In-memory span tracing of diagocp's public functions, installed from the
benchmark side.

`traced()` swaps wrappers into the module namespaces and classes the harness
and CLI call through, and restores the originals on exit, so an untraced pass
runs the library exactly as shipped. Each wrapper records one span
``[name, start, end, parent]``; `layer_metrics` turns the span list of one
pass into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from diagocp import cli, harness, problems


class Tracer:
    """Span store for one traced pass, plus counters that need call values."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced_call

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "start", "end", "parent"],
               "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _observe_clip(counts, args, result):
    before = np.asarray(args[0], dtype=np.float64)
    counts["clip_coords"] += before.size
    counts["clip_lo"] += int(np.count_nonzero(result > before))
    counts["clip_hi"] += int(np.count_nonzero(result < before))


def _observe_step(counts, args, result):
    counts["step_coords"] += args[0].m.size
    counts["step_clamped"] += result[1].n_clamped


def _observe_emit(counts, args, result):
    paths = result if isinstance(result, list) else [result]
    counts["emit_bytes"] += sum(os.path.getsize(p) for p in paths)


# (owner objects sharing one wrapper, attribute, span name, observer)
_TARGETS = (
    ((problems.ProblemOracle,), "eval_grad", "problems.grad", None),
    ((problems.ProblemOracle,), "hvp", "problems.hvp", None),
    ((problems.ProblemOracle,), "eval_loss", "problems.loss", None),
    ((problems.ProblemOracle,), "train_loss", "problems.loss", None),
    ((problems.ProblemOracle,), "val_loss", "problems.loss", None),
    ((problems.BatchSeed,), "rng", "problems.seed", None),
    ((harness,), "hutchinson_diag", "hessian_probe.hutchinson", None),
    ((harness,), "clip_diag", "hessian_probe.clip", _observe_clip),
    ((harness,), "update_moments", "diag_ocp.moments", None),
    ((harness,), "step_closed_form", "diag_ocp.step", _observe_step),
    ((harness,), "baseline_step", "baselines.step", None),
    ((harness, cli), "run_experiment", "harness.run_experiment", None),
    ((harness, cli), "lr_sweep", "harness.lr_sweep", None),
    ((harness, cli), "compare", "harness.compare", None),
    ((harness, cli), "verify_rate_trend", "harness.verify_rate_trend", None),
    ((cli,), "emit_results", "harness.emit", _observe_emit),
    ((cli,), "emit_sweep", "harness.emit", _observe_emit),
    ((cli,), "emit_heatmap", "harness.emit", _observe_emit),
    ((cli,), "main", "cli.main", None),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install `tracer`'s wrappers for the duration of the block."""
    saved = []
    try:
        for owners, attr, name, observe in _TARGETS:
            original = getattr(owners[0], attr)
            wrapper = tracer.wrap(name, original, observe)
            for owner in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced pass whose root call took `wall_s`."""
    spans = tracer.spans
    own = self_times(spans)
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    hvp_grads = top_grads = top_grad_s = hut_probes = 0
    for (name, start, end, parent), s in zip(spans, own):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += s
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "problems.grad":
            if parent_name == "problems.hvp":
                hvp_grads += 1
            else:
                top_grads += 1
                top_grad_s += end - start
        elif name == "problems.hvp" and parent_name == "hessian_probe.hutchinson":
            hut_probes += 1

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    harness_self = sum(v for k, v in self_s.items()
                       if k.startswith("harness.") and k != "harness.emit")
    return {
        "problems.grad.calls": top_grads,
        "problems.grad.s": top_grad_s,
        "problems.hvp.calls": calls["problems.hvp"],
        "problems.hvp.s": incl["problems.hvp"],
        "problems.hvp.grad_calls": ratio(hvp_grads, calls["problems.hvp"]),
        "problems.hvp_over_grad": ratio(
            ratio(incl["problems.hvp"], calls["problems.hvp"]),
            ratio(top_grad_s, top_grads)),
        "problems.loss.calls": calls["problems.loss"],
        "problems.loss.s": incl["problems.loss"],
        "problems.seed.calls": calls["problems.seed"],
        "problems.seed.s": incl["problems.seed"],
        "hessian_probe.hutchinson.s": self_s["hessian_probe.hutchinson"],
        "hessian_probe.probes_per_call": ratio(
            hut_probes, calls["hessian_probe.hutchinson"]),
        "hessian_probe.clip.s": incl["hessian_probe.clip"],
        "hessian_probe.clip_lo_frac": ratio(c["clip_lo"], c["clip_coords"]),
        "hessian_probe.clip_hi_frac": ratio(c["clip_hi"], c["clip_coords"]),
        "diag_ocp.moments.s": incl["diag_ocp.moments"],
        "diag_ocp.step.s": incl["diag_ocp.step"],
        "diag_ocp.safeguard_frac": ratio(c["step_clamped"], c["step_coords"]),
        "baselines.step.calls": calls["baselines.step"],
        "baselines.step.s": incl["baselines.step"],
        "harness.self_s": harness_self,
        "harness.replicate_steps": calls["diag_ocp.moments"] + calls["baselines.step"],
        "harness.emit.s": incl["harness.emit"],
        "harness.emit.bytes": c["emit_bytes"],
        "cli.self_s": self_s["cli.main"],
        "trace.accounted_frac": ratio(sum(own), wall_s),
    }
