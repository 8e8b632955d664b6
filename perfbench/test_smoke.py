"""Smoke test of the benchmark itself, with every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Each tiny run must print every metric BENCHMARK.json names, with its unit:
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1. Its
output checks must run and pass against the tiny references. The checks must
also reject a wrong result, and the benchmark must refuse to run without the
library sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

# every runnable workload, including any kept out of BENCHMARK.json
WORKLOADS = sorted(workloads.WORKLOADS)


def _run(cwd, workload, trace, tiny=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    checks = json.loads(lines[-2])["detail"]["checks"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {"ref.ok", "ref.quality", "run.ok", "run.deterministic"} <= set(checks)
    assert all(checks.values())


def test_reference_checks_reject_a_wrong_result():
    wl = workloads.WORKLOADS["sweep_mlp178_minibatch"]
    ref = {"rtol": 1e-3, "quality": 0.09, "selected_lr": 0.01}
    good = workloads.Outcome(ok=True, quality=0.09, replicates=15,
                             failed_replicates=0,
                             detail={"selected_lr": 0.01, "diverged": 0})
    assert all(workloads.reference_checks(wl, good, ref).values())
    for bad in (workloads.Outcome(ok=True, quality=0.0901, replicates=15,
                                  failed_replicates=0, detail=good.detail),
                workloads.Outcome(ok=True, quality=0.09, replicates=15,
                                  failed_replicates=0,
                                  detail={"selected_lr": 0.05, "diverged": 1}),
                workloads.failed_outcome("cli exit code 2")):
        assert not all(workloads.reference_checks(wl, bad, ref).values())


def test_refuses_to_run_without_the_library_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, WORKLOADS[0], 0, tiny=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
