"""Source size of a tree's diagocp package, printed as Markdown.

    python .github/source_size.py ROOT [BASE]

Lines are wc -l's count; code lines leave out blank lines, comment-only
lines and docstrings, which ast locates. Settable values are the
independently settable values: the init fields of each config class, and
the parameters of ablate_mu, of the verify checks and of each problem
kind's constructor. With ROOT alone it prints the totals plus one row per
module and per item, so a change can be traced; with a BASE tree too, the
totals of both trees and their difference. Each tree's package is imported
from its src/ in a process of its own.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path


def code_lines(text):
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if n not in docstrings and line.strip() and not line.lstrip().startswith("#"))


def settable_values(root):
    """(item, settable values) rows of the package under root/src; imports it."""
    sys.path.insert(0, str(Path(root) / "src"))
    import dataclasses
    import inspect

    from diagocp import baselines, diag_ocp, harness, problems

    kinds = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)

    def n_params(call):
        return sum(p.kind in kinds for p in inspect.signature(call).parameters.values())

    configs = (diag_ocp.OptimizerConfig, baselines.BaselineConfig, harness.RunConfig,
               harness.SweepSpec)
    checks = (harness.ablate_mu, harness.verify_closed_form_equivalence,
              harness.verify_probe_unbiasedness, harness.verify_rate_trend)
    rows = [(cls.__name__, sum(f.init for f in dataclasses.fields(cls))) for cls in configs]
    rows += [(f"{fn.__name__}()", n_params(fn)) for fn in checks]
    rows += [(f"problem {kind!r}", n_params(cls))
             for kind, cls in sorted(problems._PROBLEM_KINDS.items())]
    return rows


def measure(root):
    """The modules' (name, lines, code lines), the settable-value rows, and
    the three totals."""
    modules = [(p.name, p.read_text()) for p in sorted(Path(root, "src/diagocp").glob("*.py"))]
    modules = [(name, text.count("\n"), code_lines(text)) for name, text in modules]
    child = subprocess.run([sys.executable, __file__, "--settable", str(root)],
                           capture_output=True, text=True, check=True)
    settable = json.loads(child.stdout)
    totals = {"lines": sum(m[1] for m in modules), "code lines": sum(m[2] for m in modules),
              "settable values": sum(n for _, n in settable)}
    return modules, settable, totals


def report(root):
    modules, settable, totals = measure(root)
    print(f"src/diagocp: {totals['lines']} lines, {totals['code lines']} code lines")
    print()
    print("| module | lines | code lines |")
    print("| --- | --- | --- |")
    for name, lines, code in modules:
        print(f"| {name} | {lines} | {code} |")
    print()
    print(f"settable values: {totals['settable values']}")
    print()
    print("| item | settable values |")
    print("| --- | --- |")
    for name, n in settable:
        print(f"| {name} | {n} |")


def compare(head_root, base_root):
    head, base = measure(head_root)[2], measure(base_root)[2]
    print("source size against the merge base")
    print()
    print("| measure | head | base | delta |")
    print("| --- | --- | --- | --- |")
    for name in head:
        print(f"| {name} | {head[name]} | {base[name]} | {head[name] - base[name]:+d} |")


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        print("usage: python .github/source_size.py ROOT [BASE]", file=sys.stderr)
        sys.exit(2)
    # a tree without the package would count 0 lines, and its settable
    # values would come from whatever diagocp the path imports
    for root in sys.argv[1:]:
        if root != "--settable" and not Path(root, "src/diagocp").is_dir():
            print(f"no package at {Path(root, 'src/diagocp')}", file=sys.stderr)
            sys.exit(2)
    if sys.argv[1] == "--settable":
        print(json.dumps(settable_values(sys.argv[2])))
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        report(sys.argv[1])
