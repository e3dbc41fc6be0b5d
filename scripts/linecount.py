#!/usr/bin/env python3
"""Run the tier-1 tests under a line tracer and list every executable line
of src/rtcproof/ that no test ran.

A line is executable when a code object compiled from the file names it in
`co_lines`.  Tests that start the program in a subprocess are not traced,
so a line that only they run counts as unrun.  Exits 0 when the unrun lines
are exactly those of ALLOWED, each kept for the reason given there, and 1
otherwise, or when a test fails.

    PYTHONPATH=src python scripts/linecount.py
"""

import os
import sys
import types

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "rtcproof")

ALLOWED = {
    "cli.py:261": "the `__main__` call, which only the subprocess tests run",
}


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines named by code and by every code object nested in it."""
    lines: set[int] = set()
    todo = [code]
    while todo:
        c = todo.pop()
        lines.update(ln for _, _, ln in c.co_lines() if ln)
        todo.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def main() -> int:
    names = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
    hits: dict[str, set[int]] = {n: set() for n in names}
    by_filename: dict[str, set[int] | None] = {}   # co_filename -> hits, or None
    pending: dict[int, tuple[types.CodeType, set[int]]] = {}   # id(code) -> unrun lines

    def trace(frame, event, arg):
        code = frame.f_code
        seen = by_filename.get(code.co_filename, False)
        if seen is False:
            path = os.path.realpath(code.co_filename)
            seen = by_filename[code.co_filename] = (
                hits[os.path.basename(path)] if os.path.dirname(path) == PACKAGE else None)
        if seen is None:
            return None
        entry = pending.get(id(code))
        if entry is None:
            # the code object is kept, so that its id is not reused
            entry = pending[id(code)] = (code, {ln for _, _, ln in code.co_lines() if ln})
        left = entry[1]
        if not left:
            return None

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            left.discard(frame.f_lineno)
            # a code object whose every line has run is no longer traced
            return local if left else None
        return local(frame, event, arg)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    os.chdir(ROOT)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    unrun, total = {}, 0
    for n in names:
        path = os.path.join(PACKAGE, n)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = executable_lines(compile(source, path, "exec"))
        total += len(lines)
        text = source.splitlines()
        for ln in sorted(lines - hits[n]):
            unrun[f"{n}:{ln}"] = text[ln - 1].strip()
    print(f"\n{total - len(unrun)} of {total} executable lines of src/rtcproof/ ran")
    for where, text in unrun.items():
        note = f"  (allowed: {ALLOWED[where]})" if where in ALLOWED else ""
        print(f"unrun {where}: {text}{note}")
    for where in sorted(ALLOWED.keys() - unrun.keys()):
        print(f"allowed but ran: {where}")
    if status != 0:
        print(f"tests failed (pytest exit status {int(status)})")
    return 0 if status == 0 and unrun.keys() == ALLOWED.keys() else 1


if __name__ == "__main__":
    sys.exit(main())
