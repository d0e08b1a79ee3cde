"""Mutation audit: does a test file fail when one operator or constant of a
module is wrong?

Each mutant changes one site of the module's syntax tree:

* ``+`` <-> ``-`` and ``*`` <-> ``/``, in expressions and augmented
  assignments;
* ``<`` <-> ``<=`` and ``>`` <-> ``>=``;
* a numeric constant moved: an int by 1, a float by 1e-6 relative (0.0 to
  1e-300).

A fixed-seed sample of the sites is run one mutant at a time, each in its own
copy of ``src/`` and ``tests/``, by ``pytest -x`` on the test file.  A mutant
is killed when the tests fail or run past the time limit, and survives when
they pass.  Survivors are the audit's output: each is either equivalent (no
value a test could check changes, such as a tie at a branch boundary) or a
gap in the tests.

Run from the root of a checkout (stdlib only, one pytest process at a time):

    python3 tools/mutate.py                # the sample of fit.py's sites
    python3 tools/mutate.py --list         # every site, numbered
    python3 tools/mutate.py --sites 12 40  # chosen sites only
    python3 tools/mutate.py --module src/rumorbd/rates.py --tests tests/test_rates.py

The last line of output is a JSON summary.  Before the mutants, the module
as the mutator writes it (``ast.unparse``, comments dropped) must pass.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
SAMPLE = 24
LIMIT = 600.0  # seconds per mutant
_BIN = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_CMP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _sites(tree: ast.Module) -> list[tuple[ast.AST, int]]:
    """Every mutable site as (node, which): ``which`` is the index of the
    operator of a comparison, and 0 otherwise; in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BIN:
            found.append((node, 0))
        elif isinstance(node, ast.Compare):
            found += [(node, k) for k, op in enumerate(node.ops) if type(op) in _CMP]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, 0))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def _mutate(node: ast.AST, which: int) -> None:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _BIN[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[which] = _CMP[type(node.ops[which])]()
    elif isinstance(node.value, int):
        node.value += 1
    else:
        node.value = node.value * (1.0 + 1e-6) if node.value else 1e-300


def mutant(source: str, index: int) -> tuple[str, str]:
    """The module with site ``index`` mutated, and a one-line description."""
    tree = ast.parse(source)
    node, which = _sites(tree)[index]
    line = node.lineno
    before = ast.get_source_segment(source, node) or ast.unparse(node)
    _mutate(node, which)
    text = f"line {line}: {' '.join(before.split())} -> {' '.join(ast.unparse(node).split())}"
    return ast.unparse(tree), text


def _run(work: Path, module: Path, text: str, tests: str) -> tuple[str, float]:
    """Run ``tests`` in ``work`` with ``module`` replaced by ``text``."""
    (work / module).write_text(text)
    # no bytecode cache: a mutant of the same size written within the same
    # second as the last one would otherwise run the last one's cached code
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               tests], cwd=work, env=env, capture_output=True, timeout=LIMIT)
        outcome = "survived" if proc.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "killed (time limit)"
    return outcome, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", default="src/rumorbd/fit.py")
    parser.add_argument("--tests", default="tests/test_fit.py")
    parser.add_argument("--sites", type=int, nargs="*", help="run these sites, not the sample")
    parser.add_argument("--list", action="store_true", help="print every site and exit")
    args = parser.parse_args(argv)

    module = Path(args.module)
    source = (ROOT / module).read_text()
    count = len(_sites(ast.parse(source)))
    if args.list:
        for i in range(count):
            print(i, mutant(source, i)[1])
        return 0
    chosen = args.sites or sorted(random.Random(SEED).sample(range(count), min(SAMPLE, count)))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        shutil.copy(ROOT / "pyproject.toml", work)
        baseline, seconds = _run(work, module, ast.unparse(ast.parse(source)), args.tests)
        print(f"baseline: {baseline} in {seconds:.1f} s, {count} sites, running {len(chosen)}",
              flush=True)
        if baseline != "survived":
            return 2
        survivors = []
        for i in chosen:
            text, what = mutant(source, i)
            outcome, seconds = _run(work, module, text, args.tests)
            print(f"#{i} {what}: {outcome} ({seconds:.1f} s)", flush=True)
            if outcome == "survived":
                survivors.append(i)
    print(json.dumps({"module": str(module), "tests": args.tests, "seed": SEED,
                      "sites": count, "run": chosen, "survived": survivors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
