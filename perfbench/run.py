"""diagocp benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run
  1. times the set-up (importing diagocp and building the workload's problems
     and configs) in several fresh interpreters and keeps the median;
  2. makes one warm-up pass at the workload's reference seed, whose outputs
     are checked against reference.json and whose result is the `quality`
     metric, so quality is the same figure on every run;
  3. makes passes at `--seed` for `--seconds` seconds (at least two, so the
     same-seed passes can be checked for identical results). With --trace 0
     it reports the end-to-end metrics over those passes; with
     --trace 1 it alternates untraced and traced passes and reports the
     per-layer metrics of the traced ones, and the tracing overhead.

Before the first measured pass and after every untraced one, the benchmark
runs a fixed calibration kernel, a small numpy MLP gradient written here and
independent of diagocp. The time metrics `wall_rel` and `cpu_rel` are the
mean time of an untraced pass over the mean time of the calibration runs
interleaved with them. On a shared host whose speed drifts by tens of
percent within minutes, that ratio still moves in proportion to diagocp's
own cost. The raw seconds are printed on the detail line.

BLAS runs single-threaded for every workload (set below, before numpy is
imported), which keeps CPU time equal to wall time on a shared machine.

The last line of standard output is the result object; the manifest and the
per-check detail come on the lines before it. The exit code is 0 when every
output check passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
CALIBRATION_BLOCKS = 7
CALIBRATION_STEPS = 1000      # per block: about 0.04 s on a 2-vCPU Xeon
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to a smoke-test size")
    return p.parse_args(argv)


def _setup_times(name, seed, size_key):
    """Seconds of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed),
             size_key, str(OUT / name / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _calibration(np):
    """(wall s, CPU s) of a fixed kernel shaped like the MLP workloads'
    gradient calls: a full-batch (8, 16, 2) ReLU network on 205 samples.
    It runs in blocks and scales up the median block, so that a stall of
    the host during one block does not count."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((205, 8)), rng.standard_normal((205, 2))
    w1 = 0.3 * rng.standard_normal((8, 16))
    w2 = 0.3 * rng.standard_normal((16, 2))
    walls, cpus = [], []
    for _ in range(CALIBRATION_BLOCKS):
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(CALIBRATION_STEPS):
            h = np.maximum(x @ w1, 0.0)
            r = h @ w2 - y
            g2 = h.T @ r
            g1 = x.T @ ((r @ w2.T) * (h > 0.0))
            float(np.sum(r * r)) + float(g1.sum()) + float(g2.sum())
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return (CALIBRATION_BLOCKS * statistics.median(walls),
            CALIBRATION_BLOCKS * statistics.median(cpus))


def _blas_info(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": BLAS_THREADS, "threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _manifest(np, reference):
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                      if ln.startswith("model name")), None)
    except OSError:
        model = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "diagocp").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_info(np), "git_commit": _git_commit(),
            "src_diagocp_lines": src_lines,
            "held_out_seed": reference["held_out_seed"]}


def _metric(value, unit):
    # a failed pass has no finite result; keep the output strict JSON
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "diagocp" / "__init__.py").is_file():
        print(f"diagocp sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    size_key = "tiny" if args.tiny else "full"
    size = workloads.SIZES[wl.name][size_key]
    reference = json.loads((HERE / "reference.json").read_text())
    ref = {"rtol": reference["rtol"], **reference[size_key][wl.name]}
    out = OUT / wl.name

    setups = _setup_times(wl.name, args.seed, size_key)

    # warm-up pass at the reference seed: checked, and the source of `quality`
    ref_job = wl.prepare(ref["seed"], out / "reference", size)
    _, _, ref_outcome = workloads.timed_pass(wl, ref_job)
    checks = workloads.reference_checks(wl, ref_outcome, ref)

    job = wl.prepare(args.seed, out / "run", size)
    walls, cpus, outcomes, traced_walls, layers = [], [], [], [], []
    tracer = None
    start = time.perf_counter()
    cals = [_calibration(np)]
    while True:
        wall, cpu, outcome = workloads.timed_pass(wl, job)
        cals.append(_calibration(np))
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                wall, _, outcome = workloads.timed_pass(wl, job)
            traced_walls.append(wall)
            layers.append(tracing.layer_metrics(tracer, wall))
            outcomes.append(outcome)
        if len(outcomes) >= 2 and time.perf_counter() - start >= args.seconds:
            break

    for name in workloads.run_checks(outcomes[0]):
        checks[f"run.{name}"] = all(workloads.run_checks(o)[name] for o in outcomes)
    checks["run.deterministic"] = len({o.quality for o in outcomes}) == 1

    if args.trace:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / "trace.json")
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_rel": (statistics.fmean(walls)
                               / statistics.fmean(c[0] for c in cals)),
                  "cpu_rel": (statistics.fmean(cpus)
                              / statistics.fmean(c[1] for c in cals)),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "quality": ref_outcome.quality}
    # BENCHMARK.json names every reported metric and its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    all_outcomes = [ref_outcome] + outcomes
    attempted = sum(o.replicates for o in all_outcomes) + len(checks)
    failed = (sum(o.failed_replicates for o in all_outcomes)
              + sum(not ok for ok in checks.values()))
    correct = all(checks.values())
    detail = {"workload": wl.name, "seed": args.seed, "size": size_key,
              "checks": checks, "setup_s": setups, "wall_s": walls,
              "cpu_s": cpus, "traced_wall_s": traced_walls,
              "calibration_s": [c[0] for c in cals],
              "reference_pass": {"seed": ref["seed"],
                                 "quality": ref_outcome.quality,
                                 **ref_outcome.detail},
              "run_quality": outcomes[0].quality}
    print(json.dumps({"manifest": _manifest(np, reference)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
