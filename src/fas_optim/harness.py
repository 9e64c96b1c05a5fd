"""Experiment front-end: sweeps, baselines, validation, result export.

A sweep varies one scenario axis (user count, array size, Rician factor
in dB, or region size in wavelengths), redraws user geometries per
repeat, runs the requested algorithms on every point, and writes
`results.csv` (one row per run), `summary.csv` (mean and SE per point),
and one SVG plot per sweep into the output directory.

Seed discipline: user geometries depend on (master seed, repeat) only,
so the points of one repeat see the same users, paired across points;
on `k_users` they share only the leading distances, as `random_users`
draws every distance before any angle.  Optimizer streams are split off
as (master seed, axis index, repeat, algorithm index).  `wall_ms` is the
one column exempt from byte-reproducibility; `summary.csv` is
byte-identical for identical invocations.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import opt_ga, opt_grad, rate, svgplot
from .scenario import (
    Scenario,
    ScenarioError,
    db_to_linear,
    grid_layout as fpa_layout,
    load_scenario,
    redraw_users,
    worker_count,
)

AXES = ("k_users", "m_antennas", "rician_db", "region_over_lambda", "none")
ALGORITHMS = ("ga", "grad", "fpa")


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis with its values, repeats and algorithms, checked when built."""

    axis: str
    values: tuple
    repeats: int = 1
    algorithms: tuple = ALGORITHMS

    def __post_init__(self) -> None:
        axis, values = self.axis, self.values
        if axis not in AXES:
            raise ScenarioError(f"unknown sweep axis {axis!r}, want one of {AXES}")
        if len(values) == 0:
            raise ScenarioError("sweep values must be non-empty")
        if axis == "none" and len(values) != 1:
            raise ScenarioError(f"the none sweep takes exactly one value, got {values}")
        if not all(math.isfinite(v) for v in values):
            raise ScenarioError(f"{axis} sweep values must be finite, got {values}")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ScenarioError(f"sweep values must be sorted and distinct, got {values}")
        integer_axis = axis in ("k_users", "m_antennas")
        if integer_axis and not all(float(v).is_integer() and v >= 1 for v in values):
            raise ScenarioError(
                f"{axis} sweep values must be positive integers, got {values}"
            )
        if self.repeats < 1:
            raise ScenarioError(f"repeats must be >= 1, got {self.repeats}")
        if len(self.algorithms) == 0:
            raise ScenarioError("at least one algorithm required")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ScenarioError(f"unknown algorithm {algo!r}, want one of {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ScenarioError(f"algorithms must be distinct, got {self.algorithms}")


@dataclass(frozen=True)
class ResultRow:
    axis: str
    axis_value: float
    repeat: int
    algorithm: str
    scenario_seed: int
    min_rate: float
    iterations: int
    wall_ms: float
    mc_min_rate: float | None


RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRow))


def seed_for(master: int, *key: int) -> int:
    """Documented seed split: child seed from the master and an index key."""
    return int(np.random.SeedSequence(master, spawn_key=key).generate_state(1)[0])


def scenario_point(scn: Scenario, axis: str, value, user_seed: int) -> Scenario:
    """Scenario at one sweep point with users redrawn from `user_seed`.

    Listed users (no `user_model`) are kept; `k_users` and `rician_db`
    change what is drawn, so they need one.  A `ScenarioError` raised
    while building the point is prefixed with the axis and the value, as
    it may name a field derived from them.
    """
    count = None
    try:
        if scn.user_model is None and axis in ("k_users", "rician_db"):
            raise ScenarioError("changing the user recipe needs a generated-users scenario")
        if axis == "k_users":
            count = int(value)
        elif axis == "m_antennas":
            scn = dataclasses.replace(scn, m_antennas=int(value))
        elif axis == "rician_db":
            try:
                rician = db_to_linear(value)
            except OverflowError:
                raise ScenarioError(f"rician_db sweep value {value} is out of range") from None
            model = dataclasses.replace(scn.user_model, rician=rician)
            scn = dataclasses.replace(scn, user_model=model)
        elif axis == "region_over_lambda":
            scn = dataclasses.replace(scn, region_size=value * scn.wavelength)
        elif axis != "none":
            raise ScenarioError(f"unknown sweep axis {axis!r}")
        return scn if scn.user_model is None else redraw_users(scn, user_seed, count=count)
    except ScenarioError as exc:
        raise ScenarioError(f"{axis} = {value}: {exc}") from None


def _run_task(scn: Scenario, algorithm: str, opt_seed: int, mc_trials: int, mc_seed: int):
    """Run one algorithm at one sweep point.

    Returns (min_rate, iterations, wall_ms, mc_min_rate), the measured
    fields of its `ResultRow`; `mc_min_rate` is None when `mc_trials` is 0.
    """
    start = time.perf_counter()
    if algorithm == "fpa":
        layout = fpa_layout(scn)
        iterations = 0
    elif algorithm == "ga":
        layout, history = opt_ga.run_ga(scn, seed=opt_seed)
        iterations = len(history) - 1
    else:  # "grad"
        layout, histories = opt_grad.run_multistart(scn, seed=opt_seed)
        iterations = sum(len(h) - 1 for h in histories)
    value_rate = rate.min_rate(layout, scn)
    wall_ms = (time.perf_counter() - start) * 1e3
    mc_min = None
    if mc_trials:
        est = rate.mc_uatf_sinr(layout, scn, mc_trials, seed=mc_seed)
        sinr = est.sinr(scn.tx_power, scn.noise_power)
        mc_min = float(rate.achievable_rate(scn.prelog, sinr).min())
    return value_rate, iterations, wall_ms, mc_min


def _simulate_on_one_thread() -> None:
    """Pool initializer: the tasks already run in parallel, so none spawns threads."""
    os.environ["FAS_OPTIM_THREADS"] = "1"


def run_experiment(
    scenario,
    sweep: SweepSpec,
    out_dir,
    seed: int | None = None,
    mc_trials: int = 0,
) -> list[ResultRow]:
    """Run the sweep, write results.csv, summary.csv, and the plot.

    `scenario` is a `Scenario` or a path to one.  Returns the rows in (axis
    value, repeat, algorithm) order, with the algorithms in `ALGORITHMS`
    order whatever their order in `sweep`; summary.csv and the plot keep the
    order of `sweep`.  Identical inputs give identical rows apart from
    `wall_ms`.  With `mc_trials` > 0 every task also simulates its layout
    (`rate.mc_uatf_sinr`) for the `mc_min_rate` column.  `out_dir` is made
    after every task has finished; one that is or lies in a file fails first.
    """
    scn = scenario if isinstance(scenario, Scenario) else load_scenario(scenario)
    master = scn.hyper.seed if seed is None else seed
    if master < 0:
        raise ScenarioError(f"seed must be >= 0, got {master}")
    if mc_trials < 0 or mc_trials == 1:
        raise ScenarioError(
            f"Monte Carlo trials (mc_trials, --mc-trials) must be 0 or >= 2, got {mc_trials}"
        )
    out = Path(out_dir)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ScenarioError(f"out_dir (--out) {out}: {nearest} is not a directory")
    plan, tasks = [], []  # the row's identifying fields, and its task
    for ai, value in enumerate(sweep.values):
        for repeat in range(sweep.repeats):
            scn_seed = seed_for(master, repeat)
            point = scenario_point(scn, sweep.axis, value, scn_seed)
            for algo_idx, algo in enumerate(ALGORITHMS):
                if algo in sweep.algorithms:
                    plan.append((sweep.axis, float(value), repeat, algo, scn_seed))
                    tasks.append((point, algo, seed_for(master, ai, repeat, algo_idx),
                                  mc_trials, seed_for(master, ai, repeat, algo_idx, 1)))
    workers, measured = worker_count(), []
    try:  # results arrive in plan order, so the first failure is plan[len(measured)]
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(workers, initializer=_simulate_on_one_thread) as pool:
                for values in pool.map(_run_task, *zip(*tasks)):
                    measured.append(values)
        else:
            for task in tasks:
                measured.append(_run_task(*task))
    except ScenarioError as exc:
        axis, value, _, algo, _ = plan[len(measured)]
        raise ScenarioError(f"{axis} = {value}, {algo}: {exc}") from None
    out.mkdir(parents=True, exist_ok=True)  # made only once every task has finished

    rows = [ResultRow(*key, *values) for key, values in zip(plan, measured)]
    write_results(out / "results.csv", rows)
    summary = summarize(rows, sweep)
    write_summary(out / "summary.csv", summary)
    render_sweep_plot(out / f"sweep_{sweep.axis}.svg", sweep, summary)
    return rows


def write_results(path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for r in rows:
            # csv writes a float as its repr and None as an empty cell
            cells = [getattr(r, field) for field in RESULT_FIELDS]
            cells[RESULT_FIELDS.index("wall_ms")] = f"{r.wall_ms:.3f}"
            writer.writerow(cells)


def summarize(rows: list[ResultRow], sweep: SweepSpec) -> list[dict]:
    """Mean and standard error of min_rate per (axis value, algorithm)."""
    summary = []
    for value in sweep.values:
        for algo in sweep.algorithms:
            got = [
                r.min_rate
                for r in rows
                if r.algorithm == algo and r.axis_value == float(value)
            ]
            mean = statistics.fmean(got)
            se = statistics.stdev(got) / len(got) ** 0.5 if len(got) > 1 else 0.0
            summary.append(
                {
                    "axis": sweep.axis,
                    "axis_value": float(value),
                    "algorithm": algo,
                    "n": len(got),
                    "mean_min_rate": mean,
                    "se_min_rate": se,
                }
            )
    return summary


def write_summary(path, summary: list[dict]) -> None:
    fields = ("axis", "axis_value", "algorithm", "n", "mean_min_rate", "se_min_rate")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in summary:
            writer.writerow([row[field] for field in fields])  # floats as repr


def render_sweep_plot(path, sweep: SweepSpec, summary: list[dict]) -> None:
    series = []
    for algo in sweep.algorithms:
        pts = [s for s in summary if s["algorithm"] == algo]
        series.append(
            svgplot.Series(
                name=algo,
                x=tuple(s["axis_value"] for s in pts),
                y=tuple(s["mean_min_rate"] for s in pts),
                err=tuple(s["se_min_rate"] for s in pts),
            )
        )
    svgplot.line_plot(
        path,
        series,
        title=f"min user rate vs {sweep.axis}",
        x_label=sweep.axis,
        y_label="min user rate (bit/s/Hz)",
    )


@dataclass(frozen=True)
class TermCheck:
    user: int
    term: str
    closed: float
    mc: float
    se: float
    rel_err: float
    sigmas: float


@dataclass(frozen=True)
class ValidationReport:
    rows: list[TermCheck]
    sinr_closed: np.ndarray
    sinr_mc: np.ndarray
    sinr_rel_err: np.ndarray
    trials: int
    ok: bool


def _ratio(num, den):
    """num / den for den >= 0, reading 0/0 as 0 and x/0 as inf."""
    return num / den if den > 0.0 else (0.0 if num == 0.0 else math.inf)


def validate_closed_form(
    scenario, trials: int, seed: int | None = None, layout: np.ndarray | None = None
) -> ValidationReport:
    """Compare every closed-form SINR term against the simulation oracle.

    Runs on the FPA grid (`fpa_layout`) unless `layout` is given.  A term
    passes when it lies within 4 standard errors of its Monte Carlo
    estimate; `ok` requires every term of every user to pass.
    """
    scn = scenario if isinstance(scenario, Scenario) else load_scenario(scenario)
    if trials < 10_000:
        raise ScenarioError(f"validation needs at least 10000 trials, got {trials}")
    if layout is None:
        layout = fpa_layout(scn)
    est = rate.mc_uatf_sinr(layout, scn, trials, seed=seed)
    closed = rate.terms_at(rate.closed_form_context(scn), layout)
    rows = []
    for term in (f.name for f in dataclasses.fields(rate.Terms)):
        for k in range(scn.k_users):
            cf, sim, se = (getattr(t, term)[k] for t in (closed, est, est.se))
            diff = abs(cf - sim)
            rel, sig = _ratio(diff, abs(cf)), _ratio(diff, se)
            rows.append(TermCheck(k, term, float(cf), float(sim), float(se), rel, sig))
    sinr_closed = closed.sinr(scn.tx_power, scn.noise_power)
    sinr_mc = est.sinr(scn.tx_power, scn.noise_power)
    rel_err = np.abs(sinr_closed - sinr_mc) / sinr_closed
    ok = all(r.sigmas <= 4.0 for r in rows)
    return ValidationReport(
        rows=rows,
        sinr_closed=sinr_closed,
        sinr_mc=sinr_mc,
        sinr_rel_err=rel_err,
        trials=trials,
        ok=ok,
    )


def format_validation(report: ValidationReport) -> str:
    buf = io.StringIO()
    buf.write(
        f"{'user':>4} {'term':>8} {'closed':>13} {'simulated':>13} "
        f"{'rel_err':>9} {'sigmas':>7}\n"
    )
    for r in report.rows:
        buf.write(
            f"{r.user:>4} {r.term:>8} {r.closed:>13.6e} {r.mc:>13.6e} "
            f"{r.rel_err:>9.2e} {r.sigmas:>7.2f}\n"
        )
    for k, (cf, sim, rel) in enumerate(
        zip(report.sinr_closed, report.sinr_mc, report.sinr_rel_err)
    ):
        buf.write(
            f"{k:>4} {'sinr':>8} {cf:>13.6e} {sim:>13.6e} {rel:>9.2e} {'-':>7}\n"
        )
    verdict = "PASS" if report.ok else "FAIL"
    buf.write(f"{report.trials} trials: {verdict} (every term within 4 SE)\n")
    return buf.getvalue()
