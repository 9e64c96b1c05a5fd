"""fas-optim benchmark: three batch workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-antennas --seed 1 --seconds 30 --trace 0

Workloads (NOTES.md says why each one exists):

    sweep-antennas  harness.run_experiment on table1_k5, m_antennas=4..9,
                    ga,grad,fpa, 8 repeats, FAS_OPTIM_THREADS=2
    ga-users        harness.run_experiment on table1_k5, k_users=3,5,7,9,
                    ga,fpa, 8 repeats, FAS_OPTIM_THREADS=1
    validate-mc     harness.validate_closed_form on table1_k5 at the
                    half-wavelength grid, 300k Monte Carlo trials

The client is a closed loop: one batch job at a time, the next starting
when the previous one ends, for --seconds (at least two jobs).  All inputs
come from --seed.  With --trace 0 the
jobs run untraced and the end-to-end metrics are printed; with --trace 1
the same jobs run in one process under the span tracer (tracer.py) next to
untraced one-process runs, and the per-layer metrics are printed.  Either
way every output is checked, and the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A fuller report
(environment, seeds, every check) is written under benchmarks/out/.

--smoke shrinks every size so that a run takes seconds; test_smoke.py uses it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "table1_k5.ini"
OUT = BENCH / "out"

MIN_JOBS = 2
SETUP_RUNS = 9   # fresh-interpreter set-ups per run, at least
SETUP_BURST = 3  # taken together, spread over the run (host speed drifts)
MICRO_REPEATS = 25
SIGMA_LIMIT = 4.0  # a closed-form term further than this many SEs from MC fails


@dataclass(frozen=True)
class Sweep:
    axis: str
    values: tuple
    algorithms: tuple
    repeats: int
    threads: int  # FAS_OPTIM_THREADS of the timed jobs


@dataclass(frozen=True)
class Validate:
    trials: int
    threads: int = 1


WORKLOADS = {
    "sweep-antennas": Sweep("m_antennas", (4, 5, 6, 7, 8, 9), ("ga", "grad", "fpa"), 8, 2),
    "ga-users": Sweep("k_users", (3, 5, 7, 9), ("ga", "fpa"), 8, 1),
    "validate-mc": Validate(trials=300_000),
}
SMOKE_WORKLOADS = {
    "sweep-antennas": Sweep("m_antennas", (4, 5), ("ga", "grad", "fpa"), 1, 2),
    "ga-users": Sweep("k_users", (3, 5), ("ga", "fpa"), 1, 1),
    "validate-mc": Validate(trials=10_000),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mean_min_rate": "bit/s/Hz",
    "peak_rss_mb": "MB",
}

# Layers whose share of traced wall time is reported, and those whose
# call counts are reported too.  Shares rather than seconds: a layer that
# a workload never calls reads exactly 0 on every run.
SELF_PCT = (
    "rate.closed_form_context", "rate.rates_for", "rate.sinr_for", "rate.min_rate",
    "opt_grad.run_multistart", "opt_grad.run_gradient", "opt_grad.objective_gradient",
    "opt_grad.line_search", "opt_grad.random_feasible_layout",
    "opt_ga.run_ga", "opt_ga.evolve", "opt_ga.init_population",
    "opt_ga.violation_counts", "opt_ga.violation_set",
    "rate.mc_uatf_sinr", "channel.sample_channel",
    "estimation.observe_pilots", "estimation.lmmse_estimate",
    "scenario.load_scenario", "scenario.redraw_users", "svgplot.line_plot",
)
CALLS = (
    "rate.closed_form_context", "rate.rates_for", "rate.sinr_for", "rate.min_rate",
    "opt_grad.run_multistart", "opt_grad.run_gradient", "opt_grad.objective_gradient",
    "opt_grad.line_search", "opt_ga.run_ga", "opt_ga.evolve",
    "opt_ga.violation_counts", "opt_ga.violation_set",
    "rate.mc_uatf_sinr", "channel.sample_channel", "scenario.redraw_users",
)
WRITE_LAYERS = ("harness.write_results", "harness.write_summary", "harness.render_sweep_plot")
MICRO_CASES = (
    "rate.rates_for.b1_us", "rate.rates_for.b64_us", "rate.rates_for.b1024_us",
    "opt_grad.objective_gradient.us", "opt_grad.line_search.us",
    "opt_ga.violation_counts.b100_us", "opt_ga.evolve.us",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in SELF_PCT:
        if layer in CALLS:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_pct"] = "%"
    units.update({
        "rate.rates_for.layouts": "count",
        "opt_ga.violation_counts.layouts": "count",
        "opt_grad.iterations": "count",
        "rate.mc.trials": "count",
        "channel.sample_channel.bytes_computed": "bytes",
        "harness.tasks": "count",
        "harness.pool_efficiency": "ratio",
        "harness.write_pct": "%",
        "trace.wall_s": "s",
        "trace.overhead_pct": "%",
    })
    for case in MICRO_CASES:
        units[f"{case}.min"] = "us"
        units[f"{case}.p50"] = "us"
    return units


def import_package():
    """Import fas_optim from this checkout's src/, or exit non-zero."""
    if not (SRC / "fas_optim" / "__init__.py").is_file() or not SCENARIO.is_file():
        sys.exit(
            "error: no src/fas_optim or scenarios/table1_k5.ini next to the "
            "benchmark; run it from a full checkout"
        )
    sys.path.insert(0, str(SRC))
    import fas_optim
    from fas_optim import harness

    if Path(fas_optim.__file__).resolve().parent != (SRC / "fas_optim").resolve():
        sys.exit(f"error: imported fas_optim from {fas_optim.__file__}, not {SRC}")
    return harness


# ---------------------------------------------------------------- helpers


class Checks:
    """Named pass/fail output checks; `correct` is true when all pass."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(item["ok"] for item in self.items)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    if n < 20:
        return None
    return min(99, int(100 - 1000 / n))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(runs: int) -> list[float]:
    """Fresh interpreters: time from before `import fas_optim` to the scenario loaded."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fas_optim import harness, scenario\n"
        "scenario.load_scenario(sys.argv[2])\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(SCENARIO)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()))
    return times


class SetupSampler:
    """Set-up samples taken in bursts between jobs, spread over the run.

    A shared machine's speed can drift over seconds, so samples spread
    over the run give a steadier median than the same number taken back
    to back.
    """

    def __init__(self, seconds: int, burst: int, enabled: bool):
        self.samples: list[float] = []
        self.every = seconds / 4.0
        self.burst = burst
        self.enabled = enabled
        self.last = -math.inf
        self.tick()

    def tick(self) -> None:
        now = time.perf_counter()
        if self.enabled and now - self.last >= self.every:
            self.samples += measure_setup(self.burst)
            self.last = time.perf_counter()

    def finish(self, at_least: int) -> None:
        if len(self.samples) < at_least:
            self.samples += measure_setup(at_least - len(self.samples))


def environment(threads: int) -> dict:
    env = {
        "git_sha": None,
        "git_dirty": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "fas_optim_threads": threads,
        "loadavg_start": None,
    }
    try:
        if (ROOT / ".git").exists():
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            )
            if sha.returncode == 0:
                env["git_sha"] = sha.stdout.strip()
                env["git_dirty"] = bool(status.stdout.strip())
    except OSError:  # no git on this machine
        pass
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        env["loadavg_start"] = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        pass
    return env


# ---------------------------------------------------------------- sweeps


@dataclass
class SweepJob:
    wall_s: float
    rows: list[dict]  # results.csv, one dict per task
    summary: bytes    # summary.csv as written
    threads: int
    error: str | None = None

    def key(self) -> tuple:
        """Everything results.csv pins down except the wall_ms timing column."""
        return tuple(
            (r["axis_value"], r["repeat"], r["algorithm"], r["min_rate"], r["iterations"])
            for r in self.rows
        )

    def iterations(self, algorithm: str) -> int:
        return sum(int(r["iterations"]) for r in self.rows if r["algorithm"] == algorithm)


def read_sweep(out_dir: Path, wall_s: float, threads: int) -> SweepJob:
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = (out_dir / "summary.csv").read_bytes()
    return SweepJob(wall_s, rows, summary, threads)


def run_sweep_job(harness, wl: Sweep, seed: int, out_dir: Path, threads: int,
                  repeats: int | None = None) -> SweepJob:
    os.environ["FAS_OPTIM_THREADS"] = str(threads)
    spec = harness.SweepSpec(wl.axis, wl.values, repeats or wl.repeats, wl.algorithms)
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        harness.run_experiment(str(SCENARIO), spec, out_dir, seed=seed)
    except Exception as exc:  # counted as failed tasks, reported with the job
        return SweepJob(time.perf_counter() - start, [], b"", threads, error=repr(exc))
    return read_sweep(out_dir, time.perf_counter() - start, threads)


def cli_sweep_job(wl: Sweep, seed: int, out_dir: Path, threads: int, repeats: int) -> SweepJob:
    """The same sweep through `fas-optim run`, in a fresh interpreter."""
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ, FAS_OPTIM_THREADS=str(threads), PYTHONPATH=str(SRC))
    sweep = f"{wl.axis}=" + ",".join(str(v) for v in wl.values)
    cmd = [
        sys.executable, "-m", "fas_optim.cli", "run", "--scenario", str(SCENARIO),
        "--sweep", sweep, "--repeats", str(repeats), "--algos", ",".join(wl.algorithms),
        "--seed", str(seed), "--out", str(out_dir),
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        error = f"exit {done.returncode}: {done.stderr[-500:]}"
        return SweepJob(wall, [], b"", threads, error=error)
    return read_sweep(out_dir, wall, threads)


def task_count(wl: Sweep, repeats: int | None = None) -> int:
    return len(wl.values) * (repeats or wl.repeats) * len(wl.algorithms)


def task_failures(job: SweepJob) -> int:
    """Tasks with a non-finite min rate, or an optimizer row below the grid."""
    fpa = {
        (r["axis_value"], r["repeat"]): float(r["min_rate"])
        for r in job.rows if r["algorithm"] == "fpa"
    }
    failed = 0
    for r in job.rows:
        value = float(r["min_rate"])
        point = (r["axis_value"], r["repeat"])
        below = r["algorithm"] != "fpa" and point in fpa and value < fpa[point]
        failed += (not math.isfinite(value)) or below
    return failed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def sweep(self, job: SweepJob, expected_tasks: int) -> None:
        self.attempted += expected_tasks
        if job.error is not None or len(job.rows) != expected_tasks:
            self.failed += expected_tasks
        else:
            self.failed += task_failures(job)

    def validation(self, v: "Validation", terms: int) -> None:
        self.attempted += terms
        if v.error is not None or len(v.sigmas) != terms:
            self.failed += terms
        else:
            self.failed += sum(not (s <= SIGMA_LIMIT) for s in v.sigmas)


def check_sweep_jobs(checks: Checks, label: str, jobs: list[SweepJob], expected: int,
                     same_inputs: bool) -> None:
    ok = [j for j in jobs if j.error is None]
    checks.add(f"{label}: every job completed", len(ok) == len(jobs),
               "; ".join(j.error for j in jobs if j.error))
    checks.add(f"{label}: every job wrote {expected} result rows",
               all(len(j.rows) == expected for j in ok))
    if ok and same_inputs:
        checks.add(f"{label}: summary.csv byte-identical across jobs",
                   len({j.summary for j in ok}) == 1)
        checks.add(f"{label}: results.csv identical across jobs apart from wall_ms",
                   len({j.key() for j in ok}) == 1)


def sweep_e2e(jobs: list[SweepJob], wl: Sweep) -> dict[str, tuple[float, str]]:
    """Workload-specific end-to-end figures, printed but not gated."""
    out = {}
    for algo in ("grad", "ga"):
        if algo not in wl.algorithms:
            continue
        walls = [float(r["wall_ms"]) for j in jobs for r in j.rows if r["algorithm"] == algo]
        out[f"{algo}_task_ms_p50"] = (statistics.median(walls), f"ms (n={len(walls)})")
        q = tail_percentile(len(walls))
        if q is not None:
            out[f"{algo}_task_ms_p{q}"] = (percentile(walls, q), f"ms (n={len(walls)})")
        rates = [float(r["min_rate"]) for j in jobs[:MIN_JOBS] for r in j.rows
                 if r["algorithm"] == algo]
        out[f"{algo}_mean_min_rate"] = (statistics.fmean(rates), "bit/s/Hz")
        work = sum(j.iterations(algo) for j in jobs)
        unit = "iterations" if algo == "grad" else "generations"
        out[f"{algo}_{unit}_per_task_s"] = (work / (sum(walls) / 1e3), f"{unit}/s")
    return out


def run_sweep_workload(harness, name, wl: Sweep, args, checks, tally, report, setup):
    out_dir = OUT / f"{name}-s{args.seed}-jobs"
    expected = task_count(wl)
    # Job k sweeps from its own master seed, so a run averages over
    # MIN_JOBS x repeats user draws or more; trace mode repeats job 0.
    masters = [harness.seed_for(args.seed, k) for k in range(64)]
    report["inputs"] = {
        "scenario": "scenarios/table1_k5.ini",
        "sweep": f"{wl.axis}={','.join(map(str, wl.values))}",
        "algorithms": list(wl.algorithms),
        "repeats": wl.repeats,
        "tasks_per_job": expected,
        "job_master_seeds": masters[:MIN_JOBS],
    }
    if args.trace:
        report["inputs"]["job_master_seeds"] = masters[:1]
        return trace_sweep(harness, name, wl, args, checks, tally, report, out_dir, masters[0])

    jobs: list[SweepJob] = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or (
        time.perf_counter() - start + statistics.median(j.wall_s for j in jobs)
        <= args.seconds and len(jobs) < len(masters)
    ):
        job = run_sweep_job(harness, wl, masters[len(jobs)], out_dir / f"job{len(jobs)}",
                            wl.threads)
        tally.sweep(job, expected)
        jobs.append(job)
        setup.tick()
        if job.error is not None:
            break
    rss = peak_rss_mb()
    report["inputs"]["job_master_seeds"] = masters[:len(jobs)]
    check_sweep_jobs(checks, "timed jobs", jobs, expected, same_inputs=False)

    # Identity checks on the first repeat of job 0: repeat 0 draws the same
    # users and optimizer streams whatever the repeat count, so these rows
    # must equal job 0's repeat-0 rows.  One run goes through the CLI with the
    # timed worker count, one through the API with the other worker count.
    other = 1 if wl.threads > 1 else 2
    small = task_count(wl, 1)
    cli = cli_sweep_job(wl, masters[0], out_dir / "cli", wl.threads, 1)
    api = run_sweep_job(harness, wl, masters[0], out_dir / "api", other, repeats=1)
    for job in (cli, api):
        tally.sweep(job, small)
    checks.add("fas-optim run (CLI) completed", cli.error is None, cli.error or "")
    checks.add(f"API run with {other} worker(s) completed", api.error is None, api.error or "")
    if cli.error is None and api.error is None:
        checks.add(
            f"summary.csv: fas-optim run with {wl.threads} worker(s) == API with {other}",
            cli.summary == api.summary,
        )
        checks.add("results.csv: CLI == API apart from wall_ms", cli.key() == api.key())
        if jobs[0].error is None:
            repeat0 = tuple(k for k in jobs[0].key() if k[1] == "0")
            checks.add(f"repeat-0 rows: timed job 0 ({wl.threads} worker(s)) == API ({other})",
                       repeat0 == api.key())

    report["job_walls_s"] = [j.wall_s for j in jobs]
    shutil.rmtree(out_dir, ignore_errors=True)
    if any(j.error is not None for j in jobs):
        return {}
    rates = [float(r["min_rate"]) for j in jobs[:MIN_JOBS] for r in j.rows
             if r["algorithm"] != "fpa"]
    report["extra"] = sweep_e2e(jobs, wl)
    report["counters"] = {
        "opt_grad.iterations": [j.iterations("grad") for j in jobs],
        "opt_ga.evolve.calls": [j.iterations("ga") for j in jobs],
    }
    return {
        "wall_s": statistics.median(j.wall_s for j in jobs),
        "mean_min_rate": statistics.fmean(rates),
        "peak_rss_mb": rss,
    }


def trace_sweep(harness, name, wl, args, checks, tally, report, out_dir, master):
    from tracer import Tracer

    expected = task_count(wl)
    tracer = Tracer()
    plain: list[SweepJob] = []
    traced: list[SweepJob] = []
    per_job_counts: list[dict] = []

    pool = run_sweep_job(harness, wl, master, out_dir / "pool", wl.threads)
    tally.sweep(pool, expected)
    if wl.threads == 1:
        plain.append(pool)
    start = time.perf_counter()
    while len(traced) < MIN_JOBS or (
        time.perf_counter() - start
        + statistics.median(j.wall_s for j in plain) + statistics.median(j.wall_s for j in traced)
        <= args.seconds
    ):
        if len(plain) <= len(traced):
            job = run_sweep_job(harness, wl, master, out_dir / f"plain{len(plain)}", 1)
            tally.sweep(job, expected)
            plain.append(job)
        before = tracer.counts()
        tracer.job = len(traced)
        with tracer:
            job = run_sweep_job(harness, wl, master, out_dir / f"traced{len(traced)}", 1)
        tally.sweep(job, expected)
        traced.append(job)
        after = tracer.counts()
        per_job_counts.append({k: after[k] - before.get(k, 0) for k in after})
        if job.error is not None or plain[-1].error is not None:
            break

    check_sweep_jobs(checks, "untraced and traced jobs", [pool] + plain + traced, expected,
                     same_inputs=True)
    checks.add("exact counters repeat across traced jobs",
               all(c == per_job_counts[0] for c in per_job_counts))
    counts = per_job_counts[0]
    ok_traced = [j for j in traced if j.error is None]
    if ok_traced:
        checks.add("opt_ga.evolve calls == GA generations in results.csv",
                   counts["opt_ga.evolve.calls"] == ok_traced[0].iterations("ga"))
        checks.add("one traced job writes one summary.csv",
                   counts["harness.write_summary.calls"] == 1)
    n_opt = sum(1 for r in (pool.rows or []) if r["algorithm"] != "fpa")
    checked = (counts.get("opt_ga.run_ga.checked", 0)
               + counts.get("opt_grad.run_multistart.checked", 0))
    infeasible = sum(
        st.counters.get("infeasible", 0) for st in tracer.stats.values()
    )
    checks.add("every returned layout was checked for spacing and box", checked == n_opt)
    tally.failed += infeasible

    metrics = layer_metrics(tracer, [j.wall_s for j in traced], [j.wall_s for j in plain],
                            counts, report)
    metrics["opt_grad.iterations"] = ok_traced[0].iterations("grad") if ok_traced else 0
    metrics["harness.tasks"] = expected
    busy = sum(float(r["wall_ms"]) for r in pool.rows) / 1e3
    metrics["harness.pool_efficiency"] = busy / (pool.threads * pool.wall_s)
    tracer.write_spans(OUT / f"spans-{name}-s{args.seed}.csv.gz")
    shutil.rmtree(out_dir, ignore_errors=True)
    return metrics


# ---------------------------------------------------------------- validate-mc


@dataclass
class Validation:
    wall_s: float
    key: tuple           # every closed-form and simulated value, for repeat checks
    sigmas: list[float]
    mc_min_rate: float   # min user rate from the simulated expectations
    trials: int
    error: str | None = None


def run_validation(harness, scn, mc_seed: int, trials: int) -> Validation:
    start = time.perf_counter()
    try:
        rep = harness.validate_closed_form(scn, trials, seed=mc_seed)
    except Exception as exc:  # counted as failed terms
        return Validation(time.perf_counter() - start, (), [], math.nan, trials, repr(exc))
    wall = time.perf_counter() - start
    key = tuple((r.user, r.term, r.closed, r.mc, r.se) for r in rep.rows)
    key += tuple(float(v) for v in rep.sinr_mc)
    mc_min_rate = float((scn.prelog * np.log2(1.0 + rep.sinr_mc)).min())
    return Validation(wall, key, [r.sigmas for r in rep.rows], mc_min_rate, rep.trials)


def check_validations(checks: Checks, label: str, runs: list[Validation], wl: Validate, terms: int):
    checks.add(f"{label}: every validation completed", all(v.error is None for v in runs),
               "; ".join(v.error for v in runs if v.error))
    ok = [v for v in runs if v.error is None]
    checks.add(f"{label}: {terms} finite term checks per validation",
               all(len(v.sigmas) == terms and all(math.isfinite(x) for k in v.key[:terms]
                                                  for x in k[2:]) for v in ok))
    checks.add(f"{label}: each ran {wl.trials} trials", all(v.trials == wl.trials for v in ok))
    checks.add(f"{label}: repeated validations give identical results",
               len({v.key for v in ok}) <= 1)


def run_validate_workload(harness, name, wl: Validate, args, checks, tally, report, setup):
    from fas_optim import scenario

    # The scenario's own users, as `fas-optim validate` uses them: the seed
    # drives the simulation only.  Simulation cost does not depend on the
    # user geometry, and one seed per run keeps the 4-SE test to 20 checks.
    scn = scenario.load_scenario(SCENARIO)
    terms = 4 * scn.k_users
    report["inputs"] = {
        "scenario": "scenarios/table1_k5.ini",
        "layout": "half-wavelength grid (fpa)",
        "trials_per_validation": wl.trials,
        "mc_seed": args.seed,
    }
    if args.trace:
        return trace_validate(harness, name, wl, args, checks, tally, report, scn, terms)

    runs: list[Validation] = []
    start = time.perf_counter()
    while len(runs) < MIN_JOBS or (
        time.perf_counter() - start + statistics.median(v.wall_s for v in runs) <= args.seconds
    ):
        v = run_validation(harness, scn, args.seed, wl.trials)
        tally.validation(v, terms)
        runs.append(v)
        setup.tick()
    rss = peak_rss_mb()
    check_validations(checks, "validations", runs, wl, terms)
    report["job_walls_s"] = [v.wall_s for v in runs]
    report["counters"] = {"rate.mc.trials": wl.trials * len(runs)}
    if any(v.error is not None for v in runs):
        return {}
    walls = [v.wall_s for v in runs]
    report["extra"] = {
        "mc_trials_per_s": (statistics.median(wl.trials / w for w in walls),
                            f"trials/s (n={len(walls)})"),
    }
    return {
        "wall_s": statistics.median(walls),
        "mean_min_rate": runs[0].mc_min_rate,
        "peak_rss_mb": rss,
    }


def trace_validate(harness, name, wl, args, checks, tally, report, scn, terms):
    from tracer import Tracer

    tracer = Tracer()
    plain: list[Validation] = []
    traced: list[Validation] = []
    per_job_counts: list[dict] = []
    start = time.perf_counter()
    while len(traced) < MIN_JOBS or (
        time.perf_counter() - start
        + statistics.median(v.wall_s for v in plain) + statistics.median(v.wall_s for v in traced)
        <= args.seconds
    ):
        if len(plain) <= len(traced):
            plain.append(run_validation(harness, scn, args.seed, wl.trials))
        before = tracer.counts()
        tracer.job = len(traced)
        with tracer:
            traced.append(run_validation(harness, scn, args.seed, wl.trials))
        after = tracer.counts()
        per_job_counts.append({k: after[k] - before.get(k, 0) for k in after})
    for v in plain + traced:
        tally.validation(v, terms)
    check_validations(checks, "untraced and traced validations", plain + traced, wl, terms)
    checks.add("exact counters repeat across traced validations",
               all(c == per_job_counts[0] for c in per_job_counts))
    counts = per_job_counts[0]
    checks.add("rate.mc.trials == trials per validation",
               counts["rate.mc_uatf_sinr.trials"] == wl.trials)

    metrics = layer_metrics(tracer, [v.wall_s for v in traced], [v.wall_s for v in plain],
                            counts, report)
    metrics["opt_grad.iterations"] = 0
    metrics["harness.tasks"] = 1
    # no pool: the share of traced job time spent inside the harness call
    inside = tracer.stats["harness.validate_closed_form"].total_ns
    metrics["harness.pool_efficiency"] = inside / (sum(v.wall_s for v in traced) * 1e9)
    tracer.write_spans(OUT / f"spans-{name}-s{args.seed}.csv.gz")
    return metrics


# ---------------------------------------------------------------- per-layer


def layer_metrics(tracer, traced: list[float], plain: list[float], counts: dict,
                  report: dict) -> dict[str, float]:
    """Per-job call counts and self-time shares from the traced jobs.

    Self seconds per job of every layer that ran go to the report as well.
    """
    traced_ns = sum(traced) * 1e9
    report["extra"] = {
        f"{label}.self_s": (stat.self_ns / 1e9 / len(traced), "s per job")
        for label, stat in tracer.stats.items() if stat.calls
    }
    metrics = {}
    for layer in SELF_PCT:
        if layer in CALLS:
            metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.self_pct"] = 100.0 * tracer.stats[layer].self_ns / traced_ns
    metrics["rate.rates_for.layouts"] = counts.get("rate.rates_for.layouts", 0)
    metrics["opt_ga.violation_counts.layouts"] = counts.get("opt_ga.violation_counts.layouts", 0)
    metrics["rate.mc.trials"] = counts.get("rate.mc_uatf_sinr.trials", 0)
    metrics["channel.sample_channel.bytes_computed"] = counts.get(
        "channel.sample_channel.bytes_computed", 0)
    write_ns = sum(tracer.stats[layer].total_ns for layer in WRITE_LAYERS)
    metrics["harness.write_pct"] = 100.0 * write_ns / traced_ns
    traced_wall = statistics.median(traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(plain) - 1.0)
    return metrics


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    harness = import_package()
    OUT.mkdir(exist_ok=True)
    wl = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(wl.threads),
    }
    checks = Checks()
    tally = Tally()

    setup = SetupSampler(args.seconds, 1 if args.smoke else SETUP_BURST, enabled=not args.trace)
    runner = run_sweep_workload if isinstance(wl, Sweep) else run_validate_workload
    metrics = runner(harness, args.workload, wl, args, checks, tally, report, setup)

    if args.trace:
        import micro

        samples = micro.run_cases(SCENARIO, 3 if args.smoke else MICRO_REPEATS)
        metrics.update(micro.summarize(samples))
        units = per_layer_units()
    else:
        setup.finish(2 if args.smoke else SETUP_RUNS)
        metrics["setup_s"] = statistics.median(setup.samples)
        report["setup_runs_s"] = setup.samples
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    checks.add("every metric measured", not missing, ", ".join(missing))

    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    env = report["environment"]
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs {json.dumps(report['inputs'])}")
    for key in units:
        if key in metrics:
            print(f"  {key:<44} {metrics[key]:>14.6g} {units[key]}")
    for key, (value, unit) in report.get("extra", {}).items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_ops':<44} {failed_share:>14.6g} share ({tally.failed}/{tally.attempted})")
    for item in checks.items:
        status = "ok  " if item["ok"] else "FAIL"
        print(f"  [{status}] {item['check']}" + (f": {item['detail']}" if item["detail"] else ""))

    report.update(
        metrics=metrics, units=units, checks=checks.items,
        attempted=tally.attempted, failed=tally.failed, failed_ops=failed_share,
        correct=checks.correct,
    )
    name = f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")

    result = {
        "correct": checks.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items() if key in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
