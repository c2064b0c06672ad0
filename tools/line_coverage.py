"""The lines of src/equisum that no test executes.

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process (with PYTEST_ARGS, default ``-q``) under a
``sys.settrace`` and ``threading.settrace`` hook that records every line
executed in ``src/equisum``, then lists, per module, the executable lines
that never ran, with their source text.  A line is executable when some
instruction of the module's code, or of a function, class body or
comprehension nested in it, maps to it (``co_lines()``).  Code run in a
subprocess is not seen.  The report goes to stdout; the exit code is
pytest's.  Tracing makes the suite several times slower.
"""
from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equisum"


def executable_lines(path: Path) -> set:
    """Line numbers that some instruction of the module at path maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_lines(fn) -> tuple:
    """(fn(), {resolved file name: line numbers executed in PACKAGE}),
    calling fn with the line hook installed in this thread and in threads
    it starts.  Any earlier hook is put back afterwards."""
    hits = defaultdict(set)
    inside = {}  # co_filename -> its resolved path when in PACKAGE, else None

    def local(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # line events only inside the package: everything else runs untraced
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = str(path) if path.parent == PACKAGE else None
        return local if inside[name] else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = fn()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, hits


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)  # pytest finds its configuration and tests from here
    code, hits = trace_lines(lambda: int(pytest.main(args or ["-q"])))
    total = missed_total = 0
    print("\nlines of src/equisum that no test executed:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed_total += len(missed)
        if missed:
            text = path.read_text().splitlines()
            print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)}")
            for line in missed:
                print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{missed_total} of {total} executable lines not executed")
    return code


if __name__ == "__main__":
    sys.exit(main())
