"""The benchmark's workloads: how each is set up, called, read back and checked.

Every workload calls diagocp's public API once per pass, single-process with
replicates run serially (the library default). `prepare` is the set-up (it
builds problems and configs and writes the CLI config), `call` is the timed
public call, and `read` turns the call's return value and emitted files into
an `Outcome` outside the timed region.

Two kinds of checks run on an outcome. `reference_checks` (with each
workload's own `workload_checks`) compare a pass at the workload's fixed
reference seed against the values in reference.json. `run_checks` hold at any
seed, so they also guard the passes made at the seed the benchmark was given.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diagocp import cli, harness
from diagocp.diag_ocp import OptimizerConfig
from diagocp.harness import RunConfig, default_rate_problem
from diagocp.problems import MlpRegression, make_problem

# The acceptance suite's protocol settings. With the default safeguard
# ceiling (0.999) every MLP run of diag_ocp here blows up within ~7 steps,
# the flat-direction step inflation the roadmap lists as a known defect, so
# the MLP workloads use the same ceiling as the criterion-7/8 tests.
WEIGHT_DECAY = 0.008
RHO_MAX = 1.0 - 1e-9

# Full-size and tiny (smoke-test) parameters of each workload.
SIZES = {
    "compare_mlp178": {"full": {"max_steps": 150, "n_seeds": 5},
                       "tiny": {"max_steps": 8, "n_seeds": 5}},
    "mlp21k_fullbatch": {"full": {"layer_sizes": (32, 128, 128, 4),
                                  "n_samples": 4096, "max_steps": 20,
                                  "n_seeds": 2},
                         "tiny": {"layer_sizes": (8, 16, 2), "n_samples": 256,
                                  "max_steps": 5, "n_seeds": 2}},
    "rate_quadratic20": {"full": {"T_list": (100, 200, 400), "n_seeds": 20},
                         "tiny": {"T_list": (10, 20, 40), "n_seeds": 4}},
    "sweep_mlp178_minibatch": {"full": {"max_steps": 150, "n_seeds": 3},
                               "tiny": {"max_steps": 8, "n_seeds": 3}},
}


@dataclass
class Outcome:
    """What one pass produced, read back from its return value and files."""

    ok: bool                 # the call returned normally (CLI exit code 0)
    quality: float           # the workload's own result; lower is better
    replicates: int          # replicate runs the pass made
    failed_replicates: int   # replicates that raised or diverged in the result
    detail: dict = field(default_factory=dict)


def failed_outcome(reason: str) -> Outcome:
    return Outcome(ok=False, quality=math.inf, replicates=1,
                   failed_replicates=1, detail={"error": reason})


def timed_pass(workload, job):
    """One public call of `workload`: (wall s, process CPU s, Outcome)."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        returned = workload.call(job)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        returned = None
    t1, c1 = time.perf_counter(), time.process_time()
    if returned is None:
        return t1 - t0, c1 - c0, failed_outcome("call raised")
    try:
        return t1 - t0, c1 - c0, workload.read(job, returned)
    except (OSError, KeyError, ValueError):
        traceback.print_exc(file=sys.stderr)
        return t1 - t0, c1 - c0, failed_outcome("outputs unreadable")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class _CliWorkload:
    """Shared plumbing of the workloads driven through `cli.main`."""

    name = command = ""

    def config(self, size: dict) -> dict:
        raise NotImplementedError

    def prepare(self, seed: int, out_dir: Path, size: dict) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = self.config(size)
        make_problem(**doc["problem"])    # build the problem once to validate it
        config_path = out_dir / "config.json"
        config_path.write_text(json.dumps(doc, indent=1) + "\n")
        return {"argv": [self.command, "--config", str(config_path),
                         "--out", str(out_dir / "results"), "--seed", str(seed)],
                "out": out_dir / "results", "n_seeds": doc["n_seeds"]}

    def call(self, job: dict):
        return _run_cli(job["argv"])


class CompareMlp178(_CliWorkload):
    name, command = "compare_mlp178", "compare"

    def config(self, size):
        opts = [{"kind": "diag_ocp", "weight_decay": WEIGHT_DECAY,
                 "safeguard_rho_max": RHO_MAX},
                {"kind": "sgd", "weight_decay": WEIGHT_DECAY},
                {"kind": "adam", "weight_decay": WEIGHT_DECAY}]
        return {"problem": {"kind": "mlp_regression"}, "optimizers": opts,
                "max_steps": size["max_steps"], "n_seeds": size["n_seeds"],
                "record_every": 1}

    def read(self, job, returned) -> Outcome:
        code, _ = returned
        if code != 0:
            return failed_outcome(f"cli exit code {code}")
        out = job["out"]
        summary = {r["optimizer"]: r for r in _read_csv(out / "summary.csv")}
        grid_points = len(_read_csv(out / "heatmap.csv"))
        per_seed: dict = {}
        for row in _read_csv(out / "steps.csv"):
            key = (row["optimizer"], int(row["seed"]))
            per_seed[key] = min(per_seed.get(key, math.inf), float(row["val_loss"]))
        mins = {opt: [per_seed[(opt, s)] for s in range(job["n_seeds"])]
                for opt in summary}
        return Outcome(
            ok=True, quality=float(summary["diag_ocp"]["min_val"]),
            replicates=grid_points * job["n_seeds"],
            failed_replicates=sum(int(r["diverged"]) for r in summary.values()),
            detail={"selected": {k: float(r["lr"]) for k, r in summary.items()},
                    "per_seed_min_val": mins})

    def workload_checks(self, o: Outcome, ref: dict) -> dict:
        mins = o.detail.get("per_seed_min_val", {})
        ordering = False
        if set(mins) >= {"diag_ocp", "sgd", "adam"}:
            n = len(mins["diag_ocp"])
            med = {k: statistics.median(v) for k, v in mins.items()}
            wins_sgd = sum(a <= b for a, b in zip(mins["diag_ocp"], mins["sgd"]))
            wins_adam = sum(a <= b for a, b in zip(mins["diag_ocp"], mins["adam"]))
            # criterion 7: >= 4/5 per-seed wins over sgd, >= 3/5 over adam
            ordering = (med["diag_ocp"] <= med["sgd"]
                        and med["diag_ocp"] <= med["adam"]
                        and wins_sgd >= math.ceil(0.8 * n)
                        and wins_adam >= math.ceil(0.6 * n))
        # the ordering is recorded per size: it holds for the full protocol,
        # not after the few steps of the smoke-test size
        return {"ref.selected_lrs": o.detail.get("selected") == ref["selected"],
                "ref.criterion7_ordering": ordering == ref["criterion7_ordering"]}


class SweepMlp178Minibatch(_CliWorkload):
    name, command = "sweep_mlp178_minibatch", "sweep"
    _SELECTED = re.compile(r"^selected lr (\S+) for ", re.M)

    def config(self, size):
        return {"problem": {"kind": "mlp_regression", "batch_size": 32},
                "optimizer": {"kind": "diag_ocp", "alpha": 0.01,
                              "weight_decay": WEIGHT_DECAY,
                              "safeguard_rho_max": RHO_MAX, "n_probes": 4,
                              "probe_distribution": "rademacher"},
                "max_steps": size["max_steps"], "n_seeds": size["n_seeds"],
                "record_every": 1}

    def read(self, job, returned) -> Outcome:
        code, stdout = returned
        match = self._SELECTED.search(stdout)
        if code != 0 or match is None:
            return failed_outcome(f"cli exit code {code}")
        selected = float(match.group(1))
        rows = _read_csv(job["out"] / "sweep.csv")
        chosen = min(rows, key=lambda r: abs(float(r["lr"]) - selected))
        return Outcome(
            ok=True, quality=float(chosen["min_val"]),
            replicates=len(rows) * job["n_seeds"],
            failed_replicates=int(chosen["diverged"]),
            detail={"selected_lr": float(chosen["lr"]),
                    "diverged": sum(int(r["diverged"]) for r in rows)})

    def workload_checks(self, o: Outcome, ref: dict) -> dict:
        return {"ref.selected_lr": o.detail.get("selected_lr") == ref["selected_lr"],
                "ref.no_divergence": o.detail.get("diverged") == 0}


class Mlp21kFullbatch:
    name = "mlp21k_fullbatch"

    def prepare(self, seed: int, out_dir: Path, size: dict) -> RunConfig:
        problem = MlpRegression(layer_sizes=size["layer_sizes"],
                                n_samples=size["n_samples"])
        return RunConfig(problem=problem, optimizer="diag_ocp",
                         opt_cfg=OptimizerConfig(alpha=0.01,
                                                 weight_decay=WEIGHT_DECAY,
                                                 safeguard_rho_max=RHO_MAX),
                         max_steps=size["max_steps"], base_seed=seed,
                         n_seeds=size["n_seeds"])

    def call(self, job: RunConfig):
        return harness.run_experiment(job)

    def read(self, job, records) -> Outcome:
        finals = [r.final_val for r in records]
        return Outcome(ok=True, quality=float(np.median(finals)),
                       replicates=len(records),
                       failed_replicates=sum(r.diverged for r in records),
                       detail={"final_val": finals})

    def workload_checks(self, o: Outcome, ref: dict) -> dict:
        finals = o.detail.get("final_val", [math.inf])
        return {"ref.final_val_finite": all(map(math.isfinite, finals)),
                "ref.final_val": len(finals) == len(ref["final_val"]) and all(
                    math.isclose(a, b, rel_tol=ref["rtol"])
                    for a, b in zip(finals, ref["final_val"]))}


class RateQuadratic20:
    name = "rate_quadratic20"

    def prepare(self, seed: int, out_dir: Path, size: dict) -> dict:
        default_rate_problem()      # the frozen problem verify_rate_trend builds
        return {"base_seed": seed, "T_list": size["T_list"],
                "n_seeds": size["n_seeds"]}

    def call(self, job: dict):
        return harness.verify_rate_trend(**job)

    def read(self, job, report) -> Outcome:
        return Outcome(ok=True, quality=float(report["ratio_last_to_first"]),
                       replicates=report["n_seeds"], failed_replicates=0,
                       detail={"pass": report["pass"]})

    def workload_checks(self, o: Outcome, ref: dict) -> dict:
        return {}     # the rate check itself is one of the run checks


def run_checks(o: Outcome) -> dict:
    """Checks that hold at any seed: the call succeeded and its reported
    result is finite and did not diverge. Rate-trend passes must also pass
    their own check."""
    checks = {"ok": o.ok and math.isfinite(o.quality) and o.failed_replicates == 0}
    if "pass" in o.detail:
        checks["rate_check_passes"] = o.detail["pass"] is True
    return checks


def reference_checks(workload, o: Outcome, ref: dict) -> dict:
    """Every check of a pass at the workload's reference seed."""
    checks = {f"ref.{k}": v for k, v in run_checks(o).items()}
    checks["ref.quality"] = math.isclose(o.quality, ref["quality"],
                                         rel_tol=ref["rtol"])
    checks.update(workload.workload_checks(o, ref))
    return checks


WORKLOADS = {w.name: w for w in (CompareMlp178(), Mlp21kFullbatch(),
                                 RateQuadratic20(), SweepMlp178Minibatch())}
