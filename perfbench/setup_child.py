"""Time one set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_child.py WORKLOAD SEED full|tiny OUT_DIR

Set-up is importing diagocp (and numpy with it) and building the workload's
problems, configs and CLI config. Prints the seconds it took.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

name, seed, size_key, out_dir = sys.argv[1:5]
workloads.WORKLOADS[name].prepare(int(seed), Path(out_dir),
                                  workloads.SIZES[name][size_key])
print(time.perf_counter() - t0)
