"""List the statements of `src/fas_optim` that a pytest run never executes.

Usage:  python tools/uncovered.py [PYTEST_ARGS...]

Runs pytest in this process with the Tier-1 arguments
(``-q --continue-on-collection-errors``, then any extra arguments, with
paths relative to the repository root) under a line tracer limited to
the files of `src/fas_optim`, then prints each statement that never ran
as ``path:line: source``.  A compound statement (``if``, ``for``,
``def``, ...) counts as run when any line of its header ran, because
Python reports a multi-line condition on its inner lines.  Docstrings
and other bare string statements are skipped.  Exits with pytest's
status.

Only this process and the threads it starts are traced: set
``FAS_OPTIM_THREADS=1`` so that sweeps run their tasks in-process
rather than in worker processes.  Tracing makes the run a few times
slower than plain Tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fas_optim"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def trace_lines(run):
    """Call `run()` under a tracer; return its result and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set())
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, seen


def _header_lines(node: ast.stmt) -> range:
    """Lines whose execution shows that `node` ran."""
    if isinstance(node, ast.Try):  # "try:" itself runs no code
        return _header_lines(node.body[0])
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list):  # compound: the header ends where the body starts
        return range(start, max(node.lineno, body[0].lineno - 1) + 1)
    return range(start, node.end_lineno + 1)


def never_run(path: Path, ran: set[int]) -> list[ast.stmt]:
    """Statements of the file at `path` none of whose header lines are in `ran`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missed = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        bare = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if bare and isinstance(node.value.value, str):
            continue  # a docstring or other bare string runs no code
        if not ran.intersection(_header_lines(node)):
            missed.append(node)
    return sorted(missed, key=lambda n: n.lineno)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    status, seen = trace_lines(lambda: pytest.main(TIER1_ARGS + argv))
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for node in never_run(path, seen.get(str(path), set())):
            rel = path.relative_to(ROOT)
            print(f"{rel}:{node.lineno}: {source[node.lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
