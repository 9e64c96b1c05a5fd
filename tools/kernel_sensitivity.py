"""Report which md5 pins move when numpy and OpenBLAS run another CPU's kernels.

Usage:  python tools/kernel_sensitivity.py

The md5 pins in `tests/` and `tools/check_references.py` hold for the
kernels they were recorded on (`tools/kernel_fingerprint.py`).  This tool
reruns the md5-pinned tests and the reference sweeps in child processes
under each of three settings, set only in the environment of the children
it starts:

    OPENBLAS_CORETYPE=Haswell                  (an AVX2 machine's BLAS kernels)
    NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR    (no AVX-512 loops)
    both together                              (an AVX2 machine's kernels throughout)

For each setting it prints the kernel fingerprint a child reports, then
one line per pin: ``held`` or ``moved``.  A moved reference summary also
names its largest relative change of a `mean_min_rate`, against the same
sweep run with this machine's own kernels.  It only reports: it exits 0
whatever moves, and 1 when a child cannot be started.  It changes no
setting of the machine.
"""

from __future__ import annotations

import ast
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"

HASWELL_BLAS = {"OPENBLAS_CORETYPE": "Haswell"}
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}
SETTINGS = (HASWELL_BLAS, NO_AVX512, {**HASWELL_BLAS, **NO_AVX512})


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


def reference_sweeps(env: dict, out: Path, host: Path) -> list[tuple[str, str]]:
    """(held | moved, summary or svg and its sweep) per md5 of check_references.py.

    The sweeps' files are kept in `out`; a moved summary is compared with
    the one of the same sweep in `host`.
    """
    done = run([sys.executable, str(TOOLS / "check_references.py"), str(out)], env)
    lines = re.finditer(r"^(ok|MISMATCH) +(\w+) +\w+  pinned \w+  (.+)$", done.stdout, re.M)
    found = []
    for i, m in enumerate(lines):  # a summary line, then an svg line, per sweep
        pin = f"{m[2]} {m[3]}"
        if m[1] == "ok":
            found.append(("held", pin))
        elif m[2] == "summary":
            sweep = str(i // 2)
            found.append(("moved", f"{pin}: {largest_mean_change(out / sweep, host / sweep)}"))
        else:
            found.append(("moved", pin))
    return found or [(f"no result (exit {done.returncode})", "tools/check_references.py")]


def largest_mean_change(sweep: Path, host: Path) -> str:
    """The largest relative change of a summary mean from `host`'s, and where it is."""
    def means(path: Path) -> dict:
        with open(path / "summary.csv", newline="", encoding="utf-8") as fh:
            return {
                f"{row['algorithm']} at {row['axis']} = {row['axis_value']}":
                float(row["mean_min_rate"])
                for row in csv.DictReader(fh)
            }

    got, want = means(sweep), means(host)
    change, where = max((abs(got[k] - want[k]) / abs(want[k]), k) for k in want)
    return f"largest mean change {change:.1e} relative ({where})"


def main() -> int:
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # each child sees its own setting only, none inherited from here
    base = {k: v for k, v in os.environ.items() if k not in {**HASWELL_BLAS, **NO_AVX512}}
    base["PYTHONPATH"] = path
    with tempfile.TemporaryDirectory() as tmp:
        host = Path(tmp) / "host"
        try:
            run([sys.executable, str(TOOLS / "check_references.py"), str(host)], base)
            for n, setting in enumerate(SETTINGS):
                env = {**base, **setting}
                kernels = run([sys.executable, str(TOOLS / "kernel_fingerprint.py")], env)
                pins = pinned_tests(env) + reference_sweeps(env, Path(tmp) / str(n), host)
                print(" ".join(f"{key}={value}" for key, value in setting.items()))
                print(f"  {kernels.stdout.strip()}")
                for state, pin in pins:
                    print(f"  {state:6} {pin}")
        except OSError as exc:
            print(f"cannot start a child process: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
