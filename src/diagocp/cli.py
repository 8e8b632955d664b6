"""Command-line front end.

Subcommands: run, sweep, ablate-mu, compare, verify {lemma1,rate,hutchinson}.
Every subcommand takes --config FILE (JSON), --out DIR, and --seed N
(overrides the config's base_seed). The replicates of a config, and in a
sweep every learning rate of a stage, run together as one stacked array, in
one process. Exit codes: 0 success / check passed,
1 verification check failed, 2 configuration or runtime error (a JSON error
line goes to stderr).

Config documents are flat JSON objects:

  run / sweep / ablate-mu:
    {"problem": {"kind": "quadratic", ...},
     "optimizer": {"kind": "diag_ocp", "alpha": 0.05, ...},
     "max_steps": 200, "base_seed": 7, "n_seeds": 3, "record_every": 1}
  sweep adds      {"sweep": {"coarse_grid": [...]}}
  ablate-mu adds  {"mu_values": [...]}
  compare swaps "optimizer" for "optimizers": [{...}, ...] and takes "sweep";
  each entry's records are labelled with its kind. A swept optimizer, the
  sweep's or a compare entry, may omit lr/alpha: the sweep sets it.
  verify reads only "seed" (else "base_seed"); rate also reads "T_list"
  and "n_seeds". Each check owns its pass criterion and runs its own
  problem and optimizer, and every check runs on defaults when --config is
  omitted.

Problem, optimizer and sweep sub-objects accept every keyword of the
matching constructor; "kind" selects the first two. Run, sweep, ablate-mu
and compare share one set of top-level keys, so one document can serve all
four; a key outside it, such as verify's "seed" or "T_list", is an error,
exit 2. So is any key given to verify that its check does not read, and a
sub-object key that its constructor does not take. A key a document omits
takes the library's default, apart from max_steps (100) and base_seed
(0). The library checks every value: counts and seeds must be integral
numbers (3.0 is 3; 3.9, "3" and true are errors), real values must be
numbers ("0.1" and true are errors), lists must be lists (a lone 0.1 is an
error) and noise scales finite and >= 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .baselines import BASELINE_KINDS, BaselineConfig
from .diag_ocp import OptimizerConfig
from .harness import (CONTROL_CLIP_LO, RunConfig, SweepSpec, ablate_mu, compare,
                      emit_ablation, emit_heatmap, emit_results, emit_sweep,
                      lr_sweep, run_experiment,
                      verify_closed_form_equivalence,
                      verify_probe_unbiasedness, verify_rate_trend)
from .problems import make_problem


# every top-level key that run, sweep, ablate-mu or compare reads; verify
# passes its check's own keys
_CONFIG_KEYS = frozenset({"problem", "optimizer", "optimizers", "max_steps", "base_seed",
                          "n_seeds", "record_every", "sweep", "mu_values"})


def _load_config(path: str, keys=_CONFIG_KEYS) -> dict:
    # JSON is UTF-8 (RFC 8259), whatever the locale's encoding
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
    return doc


def _given(doc, *keys):
    """The entries of `keys` that a document sets, so that the call they go
    to supplies its own defaults for the rest."""
    return {k: doc[k] for k in keys if k in doc}


def _build_problem(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("problem config needs a 'kind' key")
    return make_problem(**doc)


_OPTIMIZERS = {OptimizerConfig.kind: OptimizerConfig,
               **dict.fromkeys(BASELINE_KINDS, BaselineConfig)}


def _optimizer_class(doc):
    """The config class that an optimizer document's "kind" selects."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("optimizer config needs a 'kind' key")
    try:
        return _OPTIMIZERS[doc["kind"]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown optimizer kind {doc['kind']!r}") from None


def _build_optimizer(doc):
    cls = _optimizer_class(doc)
    # a baseline's kind is a constructor field, diag_ocp's a class constant
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in doc.items() if k != "kind" or k in names})


def _swept(opt_doc, spec: SweepSpec):
    """opt_doc with spec's first coarse lr when it sets none: the sweep
    overwrites the learning rate, so a swept entry may omit it."""
    return {_optimizer_class(opt_doc).lr_field: spec.coarse_grid[0], **opt_doc}


def _build_run(doc: dict, seed_override: int | None, problem=None) -> RunConfig:
    """RunConfig of a document; `problem`, when given, replaces building
    the document's own, so compare entries share one problem."""
    if problem is None:
        problem = _build_problem(doc.get("problem"))
    opt_cfg = _build_optimizer(doc.get("optimizer"))
    base_seed = (seed_override if seed_override is not None
                 else doc.get("base_seed", 0))
    return RunConfig(problem=problem, optimizer=opt_cfg.kind, opt_cfg=opt_cfg,
                     max_steps=doc.get("max_steps", 100), base_seed=base_seed,
                     **_given(doc, "n_seeds", "record_every"))


def _build_sweep_spec(doc: dict) -> SweepSpec:
    sw = doc.get("sweep", {})
    if not isinstance(sw, dict):
        raise ValueError("'sweep' must be a JSON object")
    return SweepSpec(**sw)


def _cmd_run(args) -> int:
    cfg = _build_run(_load_config(args.config), args.seed)
    records = run_experiment(cfg)
    paths = emit_results(records, args.out)
    n_div = sum(r.diverged for r in records)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(f"{len(records)} runs, {n_div} diverged, final val loss "
          f"{records[0].final_val:.6g} (seed 0)")
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_config(args.config)
    spec = _build_sweep_spec(doc)
    base = _build_run({**doc, "optimizer": _swept(doc.get("optimizer"), spec)}, args.seed)
    result = lr_sweep(spec, base)
    flat = [rec for lr in sorted(result.records, reverse=True)
            for rec in result.records[lr]]
    paths = emit_results(flat, args.out)
    paths.append(emit_sweep(result, args.out))
    paths.append(emit_heatmap({base.optimizer: result}, args.out))
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(f"selected lr {result.selected_lr:g} for {base.optimizer} "
          f"(min_val over {len(result.records)} grid points)")
    return 0


def _cmd_ablate_mu(args) -> int:
    doc = _load_config(args.config)
    ablation = ablate_mu(doc.get("mu_values"), _build_run(doc, args.seed))
    paths = emit_ablation(ablation, args.out)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(f"{len(ablation) - 1} clip floors plus control "
          f"(clip_lo {CONTROL_CLIP_LO:g})")
    return 0


def _cmd_compare(args) -> int:
    doc = _load_config(args.config)
    if "optimizers" not in doc or not isinstance(doc["optimizers"], list):
        raise ValueError("compare config needs an 'optimizers' list")
    problem = _build_problem(doc.get("problem"))
    spec = _build_sweep_spec(doc)
    entries = []
    for i, opt_doc in enumerate(doc["optimizers"]):
        if not isinstance(opt_doc, dict):
            raise ValueError(f"optimizers[{i}] must be a JSON object")
        entries.append(_build_run({**doc, "optimizer": _swept(opt_doc, spec)}, args.seed,
                                  problem))
    result = compare(entries, spec)
    flat = [rec for key in sorted(result.records) for rec in result.records[key]]
    paths = emit_results(flat, args.out)
    paths.append(emit_heatmap(result.sweeps, args.out))
    print(f"wrote {', '.join(str(p) for p in paths)}")
    chosen = ", ".join(f"{k}={v:g}" for k, v in sorted(result.selected.items()))
    print(f"selected lrs: {chosen}")
    return 0


def _cmd_verify(args) -> int:
    # a check reads only its seed, and the rate check its two sizes; any
    # other key is refused, so no config is silently run on a check's defaults
    keys = {"seed", "base_seed"} | ({"T_list", "n_seeds"} if args.check == "rate" else set())
    doc = {} if args.config is None else _load_config(args.config, keys)
    seed = (args.seed if args.seed is not None
            else doc.get("seed", doc.get("base_seed", 0)))
    if args.check == "lemma1":
        report = verify_closed_form_equivalence(seed=seed)
        headline = (f"closed-form equivalence: max deviation "
                    f"{report['max_abs_deviation']:.3e} (tol {report['tolerance']:g}, "
                    f"{report['trials']} trials, "
                    f"{report['excluded_safeguarded']} safeguarded excluded)")
    elif args.check == "rate":
        report = verify_rate_trend(base_seed=seed, **_given(doc, "T_list", "n_seeds"))
        if report["diverged_step"] is not None:
            headline = f"rate trend: diverged at step {report['diverged_step']}"
        else:
            headline = (f"rate trend: min-grad-norm^2 ratio "
                        f"{report['ratio_last_to_first']:.3f} over T={report['T_list']} "
                        f"(threshold {report['ratio_threshold']:g}, "
                        f"log-log slope {report['loglog_slope']:.2f})")
    else:
        report = verify_probe_unbiasedness(seed=seed)
        headline = (f"probe unbiasedness: max relative error "
                    f"{report['max_relative_error']:.4f} (tol {report['tolerance']:g}), "
                    f"diagonal exact error {report['diagonal_exact_error']:g}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        target = out / f"verify_{args.check}.json"
        target.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {target}")
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status} {headline}")
    return 0 if report["pass"] else 1


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "ablate-mu": _cmd_ablate_mu,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diagocp",
        description="Benchmark harness for the diagonal-curvature optimizer "
                    "and its baselines.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="JSON config file")
        sp.add_argument("--out", default=None if not config_required else "results",
                        help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's base seed")

    common(sub.add_parser("run", help="execute one experiment config"))
    common(sub.add_parser("sweep", help="staged learning-rate sweep"))
    common(sub.add_parser("ablate-mu", help="curvature clip-floor ablation"))
    common(sub.add_parser("compare", help="sweep-tuned optimizer comparison"))
    sp = sub.add_parser("verify", help="run a verification check")
    sp.add_argument("check", choices=("lemma1", "rate", "hutchinson"))
    common(sp, config_required=False)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
