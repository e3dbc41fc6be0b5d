#!/usr/bin/env python3
"""Single-point mutation analysis of program files, with the standard
library's `ast` only.

Each mutant changes one place of one file:
- a flipped comparison (`==`/`!=`, `<`/`<=`, `>`/`>=`, `in`/`not in`,
  `is`/`is not`);
- `and` and `or` swapped;
- a `not` dropped;
- a boolean constant flipped;
- a `raise` or a `continue` replaced by `pass`.

The mutated node's source span is replaced by the mutated node, padded
with blank lines to the span's height, so the rest of the file keeps its
text and line numbers; comments inside a multi-line span are lost.  Every mutant is written
in turn into one copy of the tree, outside the checkout.  It runs first
against the given test subset with `-x`, and a mutant that survives it then
runs against the whole tier-1 suite.  A run that passes its tests leaves a
survivor; one that fails, errs or passes its timeout kills the mutant.  The
table of survivors is printed at the end.

    python scripts/mutate.py --list src/rtcproof/kernel.py
    python scripts/mutate.py src/rtcproof/tracecheck.py \\
        --tests tests/test_tracecheck.py --timeout 300

`--list` prints the mutants and checks that each one compiles, and runs
no tests; it exits 1 if a mutant does not compile.  Before any mutant, the
unmutated copy must pass the subset, or the script stops with exit 2.
"""

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
TIER1 = ("--continue-on-collection-errors",)
MEMORY_LIMIT = 2048 << 20  # address space of each test run, in bytes

FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
          ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is",
          ast.IsNot: "is not", ast.And: "and", ast.Or: "or"}


def _inside_fstrings(tree: ast.AST) -> set[int]:
    """The ids of nodes inside f-strings, whose positions are unreliable
    before Python 3.12."""
    return {id(n) for j in ast.walk(tree) if isinstance(j, ast.JoinedStr)
            for n in ast.walk(j)}


def mutants(source: str) -> list[tuple[ast.AST, str, str]]:
    """(node, description, replacement text) for each mutant of source, in
    source order."""
    tree = ast.parse(source)
    skip = _inside_fstrings(tree)
    out = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if op.__class__ in FLIPS:
                    new = FLIPS[op.__class__]()
                    ops = node.ops[:i] + [new] + node.ops[i + 1:]
                    text = ast.unparse(ast.Compare(node.left, ops, node.comparators))
                    out.append((node, f"{SYMBOL[op.__class__]} -> {SYMBOL[new.__class__]}",
                                f"({text})"))
        elif isinstance(node, ast.BoolOp):
            new = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            out.append((node, f"{SYMBOL[node.op.__class__]} -> {SYMBOL[new.__class__]}",
                        f"({ast.unparse(ast.BoolOp(new, node.values))})"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, "not dropped", f"({ast.unparse(node.operand)})"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            out.append((node, f"{node.value} -> {not node.value}", str(not node.value)))
        elif isinstance(node, (ast.Raise, ast.Continue)):
            out.append((node, f"{node.__class__.__name__.lower()} -> pass", "pass"))
    out.sort(key=lambda m: (m[0].lineno, m[0].col_offset, m[1]))
    return out


def apply(source: str, node: ast.AST, text: str) -> str:
    """source with node's span replaced by text, followed by a blank line for
    each line break of the span; ast offsets count bytes."""
    lines = source.encode().splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset]
    tail = lines[last][node.end_col_offset:]
    lines[first:last + 1] = [head + text.encode() + tail] + [b"\n"] * (last - first)
    return b"".join(lines).decode()


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(work: str, args: list[str], timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for pytest on args in the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", help="program files, relative to the repository root")
    ap.add_argument("--list", action="store_true",
                    help="print the mutants, check that each compiles, and run no tests")
    ap.add_argument("--tests", nargs="+", default=["tests"],
                    help="the test subset run first, with -x (default: tests)")
    ap.add_argument("--timeout", type=float, default=600, help="seconds per run (default 600)")
    ap.add_argument("--workdir", help="where to make the copy (default: a temporary directory)")
    args = ap.parse_args()

    plan, broken = [], 0
    for rel in args.files:
        with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
            source = fh.read()
        for node, what, text in mutants(source):
            mutated = apply(source, node, text)
            try:
                compile(mutated, rel, "exec")
            except SyntaxError:
                print(f"{rel}:{node.lineno}:{node.col_offset}: {what}: does not compile")
                broken += 1
                continue
            plan.append((rel, source, node, what, mutated))
            if args.list:
                print(f"{rel}:{node.lineno}:{node.col_offset}: {what}")
    if args.list:
        print(f"{len(plan)} mutants, {broken} that do not compile")
        return 1 if broken else 0

    work = tempfile.mkdtemp(prefix="mutate-", dir=args.workdir)
    shutil.copytree(ROOT, work, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns(".git", "__pycache__", ".venv", ".pytest_cache"))
    try:
        if run_tests(work, args.tests, args.timeout) != "pass":
            print("the unmutated copy fails the test subset", file=sys.stderr)
            return 2
        survivors = []
        for k, (rel, source, node, what, mutated) in enumerate(plan, 1):
            path = os.path.join(work, rel)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mutated)
            subset = run_tests(work, args.tests, args.timeout)
            tier1 = run_tests(work, list(TIER1), args.timeout) \
                if subset == "pass" else "-"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            print(f"[{k}/{len(plan)}] {rel}:{node.lineno}: {what}: subset {subset},"
                  f" tier-1 {tier1}", flush=True)
            if tier1 == "pass":
                survivors.append((rel, node.lineno, what))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{len(survivors)} of {len(plan)} mutants survive tier-1")
    for rel, line, what in survivors:
        print(f"  {rel}:{line}  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
