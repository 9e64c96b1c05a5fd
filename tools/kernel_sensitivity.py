"""Report which md5 pins move when numpy and OpenBLAS run another CPU's kernels.

Usage:  python tools/kernel_sensitivity.py

The md5 pins in `tests/` and `tools/check_references.py` hold for the
kernels they were recorded on (`tools/kernel_fingerprint.py`).  This tool
reruns the md5-pinned tests and the reference sweeps in child processes
under each of two settings, set only in the environment of the children
it starts:

    OPENBLAS_CORETYPE=Haswell                  (an AVX2 machine's BLAS kernels)
    NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR    (no AVX-512 loops)

For each setting it prints the kernel fingerprint a child reports, then
one line per pin: ``held`` or ``moved``.  It only reports: it exits 0
whatever moves, and 1 when a child cannot be started.  It changes no
setting of the machine.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"

SETTINGS = (
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL,AVX512_SPR"),
)


def pinned_test_ids() -> tuple[str, ...]:
    """Node ids of the tests that assert an md5 of float output.

    Every such test takes the `pin_note` fixture for its failure message,
    so they are the `test_*` functions of `tests/` with that parameter.
    """
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("test_")
                and "pin_note" in [a.arg for a in node.args.args]
            ):
                found.append(f"tests/{path.name}::{node.name}")
    return tuple(found)


PINNED_TESTS = pinned_test_ids()


def run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def pinned_tests(env: dict) -> list[tuple[str, str]]:
    """(held | moved | no result, node id) per pinned test, from one pytest run."""
    pytest = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"]
    done = run(pytest + list(PINNED_TESTS), env)
    lines = re.finditer(r"^(PASSED|FAILED) (\S+)", done.stdout, re.M)
    status = {m[2]: "held" if m[1] == "PASSED" else "moved" for m in lines}
    missing = f"no result (pytest exit {done.returncode})"
    return [(status.get(test, missing), test) for test in PINNED_TESTS]


def reference_sweeps(env: dict) -> list[tuple[str, str]]:
    """(held | moved, summary or svg and its sweep) per md5 of check_references.py."""
    done = run([sys.executable, str(TOOLS / "check_references.py")], env)
    lines = re.finditer(r"^(ok|MISMATCH) +(\w+) +\w+  pinned \w+  (.+)$", done.stdout, re.M)
    found = [("held" if m[1] == "ok" else "moved", f"{m[2]} {m[3]}") for m in lines]
    return found or [(f"no result (exit {done.returncode})", "tools/check_references.py")]


def main() -> int:
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # each child sees its one setting, not the other one inherited from here
    base = {k: v for k, v in os.environ.items() if k not in dict(SETTINGS)}
    for key, value in SETTINGS:
        env = {**base, "PYTHONPATH": path, key: value}
        try:
            kernels = run([sys.executable, str(TOOLS / "kernel_fingerprint.py")], env)
            pins = pinned_tests(env) + reference_sweeps(env)
        except OSError as exc:
            print(f"cannot start a child process: {exc}", file=sys.stderr)
            return 1
        print(f"{key}={value}")
        print(f"  {kernels.stdout.strip()}")
        for state, pin in pins:
            print(f"  {state:6} {pin}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
