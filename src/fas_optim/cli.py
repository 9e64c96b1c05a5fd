"""Command line interface.

Subcommands: `run` executes a sweep and writes CSV/SVG artifacts,
`validate` compares the closed-form rate terms against simulation, and
`lemmas` spot-checks the Gaussian moment identities.  Exit codes:
0 success, 1 a validation check failed, 2 usage or configuration error,
3 any other error (an internal fault or a resource limit).
"""

from __future__ import annotations

import argparse
import sys

from . import harness, rate
from .scenario import ScenarioError


def _parse_sweep(args) -> harness.SweepSpec:
    raw = "none=0" if args.sweep == "none" else args.sweep
    if "=" not in raw:
        raise ScenarioError(
            f"bad sweep {raw!r}: expected axis=v1,v2,... or 'none'"
        )
    axis, _, tail = raw.partition("=")
    try:
        values = tuple(float(v) for v in tail.split(",") if v)
    except ValueError:
        raise ScenarioError(f"bad sweep values in {raw!r}") from None
    algos = tuple(a for a in args.algos.split(",") if a)
    return harness.SweepSpec(axis, values, args.repeats, algos)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fas-optim",
        description="Fluid-antenna position optimization and rate validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a parameter sweep")
    run.add_argument("--scenario", required=True, help="scenario INI file")
    run.add_argument(
        "--sweep",
        default="none",
        help="axis=v1,v2,... over k_users, m_antennas, rician_db, "
        "region_over_lambda, or 'none'",
    )
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument(
        "--algos", default="ga,grad,fpa", help="comma-separated subset of ga,grad,fpa"
    )
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--mc-trials",
        type=int,
        default=0,
        help="Monte Carlo trials per task for the mc_min_rate column; 0 skips it",
    )
    run.add_argument("--out", required=True, help="output directory")

    val = sub.add_parser("validate", help="closed form vs simulation")
    val.add_argument("--scenario", required=True)
    val.add_argument("--trials", type=int, default=100_000)

    lem = sub.add_parser("lemmas", help="Gaussian moment identity checks")
    lem.add_argument("--m", type=int, required=True)
    lem.add_argument("--trials", type=int, default=1_000_000)
    return parser


def _cmd_run(args) -> int:
    sweep = _parse_sweep(args)
    rows = harness.run_experiment(
        args.scenario, sweep, args.out, seed=args.seed, mc_trials=args.mc_trials
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    report = harness.validate_closed_form(args.scenario, args.trials)
    print(harness.format_validation(report), end="")
    return 0 if report.ok else 1


def _cmd_lemmas(args) -> int:
    report = rate.lemma_checks(args.m, args.trials)
    print(
        f"quartic norm: {report.quartic_mean:.4f} vs {report.quartic_expected:.4f} "
        f"(se {report.quartic_se:.2e})"
    )
    print(f"bilinear:     |{report.bilinear_abs:.3e}| vs 4 se = {4 * report.bilinear_se:.3e}")
    print(
        f"quad form:    diag max {report.quad_diag_sigmas:.2f} se, "
        f"offdiag max {report.quad_offdiag_sigmas:.2f} se"
    )
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "lemmas": _cmd_lemmas}
    try:
        return handlers[args.command](args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # e.g. MemoryError: reported, never a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
