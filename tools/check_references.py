"""Rerun the reference sweeps and compare their output md5s with the pinned ones.

Usage:  python tools/check_references.py [KEEP_DIR]

Each sweep runs `scenarios/table1_k5.ini` with 2 repeats through
`harness.run_experiment` of this checkout's `src/`, the same as

    fas-optim run --scenario scenarios/table1_k5.ini --sweep AXIS=V1,V2,...
                  --repeats 2 --algos ALGOS --seed SEED --out DIR

in a temporary directory, and hashes the summary.csv and the SVG figure
it writes.  A change meant to keep results bit-identical must leave
every md5 as pinned.  Prints the kernel fingerprint
(`tools/kernel_fingerprint.py`), then one line per md5, and exits 1 on any
mismatch.  Runs `FAS_OPTIM_THREADS` workers, 2 when it is unset;
summary.csv does not depend on the worker count.  With KEEP_DIR, the
files of the i-th sweep printed are kept in KEEP_DIR/i (from 0) instead.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fas_optim import harness  # noqa: E402
from kernel_fingerprint import pin_note  # noqa: E402  (this script's own directory)

SCENARIO = ROOT / "scenarios" / "table1_k5.ini"
REPEATS = 2

# (axis, values, algorithms, master seed, (summary.csv md5, SVG md5))
REFERENCES = (
    ("m_antennas", (4, 5, 6, 7, 8, 9), "ga,grad,fpa", 7,
     ("d706d3085e19a9364ca270df8c479b87", "62588d8c8e4730c76693435704f62a9f")),
    ("k_users", (3, 5, 7, 9), "ga,fpa", 3,
     ("54f77d29092b662d904be816cbb3be6e", "15d3e15d088752e127ec833a81a31de7")),
    ("k_users", (3, 5, 7, 9), "grad,fpa", 3,
     ("5ff3fb45c487b38dd99eb01c9576c080", "17f7bd29c7e570a17b0a6b0f6d27a790")),
    ("region_over_lambda", (2.5, 4, 6), "grad,fpa", 5,
     ("e91756ca76bc5e527f01d770dc7ec233", "c07d6d3b509cfb89db281bbd7e0ea59b")),
)


def output_md5s(axis: str, values: tuple, algos: str, seed: int, out: Path) -> tuple:
    """md5s of the summary.csv and the SVG figure the sweep writes into `out`."""
    sweep = harness.SweepSpec(
        axis=axis,
        values=tuple(float(v) for v in values),  # as the CLI parses them
        repeats=REPEATS,
        algorithms=tuple(algos.split(",")),
    )
    harness.run_experiment(SCENARIO, sweep, out, seed=seed)
    files = (out / "summary.csv", out / f"sweep_{axis}.svg")
    return tuple(hashlib.md5(f.read_bytes()).hexdigest() for f in files)


def main(argv: list[str]) -> int:
    os.environ.setdefault("FAS_OPTIM_THREADS", "2")
    print(pin_note())
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(argv[0]) if argv else Path(tmp)
        for i, (axis, values, algos, seed, pinned) in enumerate(REFERENCES):
            got = output_md5s(axis, values, algos, seed, out / str(i))
            sweep = f"{axis}={','.join(map(str, values))} {algos} seed {seed}"
            for name, md5, want in zip(("summary", "svg"), got, pinned):
                ok = md5 == want
                mismatches += not ok
                print(f"{'ok' if ok else 'MISMATCH':8} {name:7} {md5}  pinned {want}  {sweep}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
