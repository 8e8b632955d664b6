"""The benchmark's tracer wraps named functions on the harness path; each
must still be called there, or its per-layer figures read zero."""

import importlib.util
import json
from pathlib import Path

from diagocp import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as it stands, so the test follows its _TARGETS."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MLP = {"kind": "mlp_regression", "layer_sizes": [4, 8, 2], "n_samples": 64}
DOCS = {
    "run": {"problem": {"kind": "quadratic", "h": [1.0, 2.0]},
            "optimizer": {"kind": "diag_ocp", "alpha": 0.05},
            "max_steps": 3, "n_seeds": 2},
    "sweep": {"problem": {**MLP, "batch_size": 16},
              "optimizer": {"kind": "diag_ocp", "n_probes": 2,
                            "probe_distribution": "rademacher"},
              "sweep": {"coarse_grid": [0.01, 0.001]}, "max_steps": 3, "n_seeds": 2},
    "compare": {"problem": MLP,
                "optimizers": [{"kind": "diag_ocp"}, {"kind": "sgd"}, {"kind": "adam"},
                               {"kind": "adahessian"}],
                "sweep": {"coarse_grid": [0.01, 0.001]}, "max_steps": 3, "n_seeds": 2},
    "verify": {"T_list": [2, 4], "n_seeds": 2},
}


def test_every_tracer_target_is_called_on_the_harness_path(tmp_path, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for command, doc in DOCS.items():
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps(doc))
            argv = [command] + (["rate"] if command == "verify" else [])
            # the rate check may fail on so short a horizon (exit 1), but runs
            assert cli.main(argv + ["--config", str(config),
                                    "--out", str(tmp_path / command)]) in (0, 1)
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert {name for _, _, name, _ in tracing._TARGETS} <= recorded
