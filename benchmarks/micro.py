"""Layer micro-cases on fixed inputs: closed-form rates, gradient, line search,
spacing check and one GA generation.

Every case runs on the reference scenario as shipped (K=5 users from the
file's own user seed, M=9 antennas, ga_pop 100), never on the workload
seed, so the figures compare across runs and workloads.  Each repeat
times a block of calls long enough to sit well above timer resolution;
the minimum and the median of the per-call times are reported in µs.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

BLOCK_NS = 2_000_000  # target length of one timed block of calls


def _per_call_us(fn, repeats: int) -> list[float]:
    fn()  # warm caches and lazy set-up before timing
    n = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(n):
            fn()
        if time.perf_counter_ns() - start >= BLOCK_NS or n >= 1 << 16:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter_ns() - start) / n / 1e3)
    return samples


def run_cases(scenario_path, repeats: int) -> dict[str, list[float]]:
    from fas_optim import harness, opt_ga, opt_grad, rate, scenario

    scn = scenario.load_scenario(scenario_path)
    ctx = rate.closed_form_context(scn)
    rng = np.random.default_rng(0)
    half = scn.region_size / 2.0
    m = scn.m_antennas
    grid = harness.fpa_layout(scn)
    batch64 = rng.uniform(-half, half, (64, 2, m))
    batch1024 = rng.uniform(-half, half, (1024, 2, m))
    batch100 = rng.uniform(-half, half, (100, 2, m))
    point = opt_grad.default_init(scn)
    grad = opt_grad.objective_gradient(point, scn)
    g_value = opt_grad.smoothed_objective(point, scn)
    population = opt_ga.init_population(scn, np.random.default_rng(0))

    def one_generation():
        # a fresh stream per call, so every call evolves the same population
        opt_ga.evolve(dataclasses.replace(population, rng=np.random.default_rng(1)), scn)

    cases = {
        "rate.rates_for.b1_us": lambda: rate.rates_for(ctx, grid),
        "rate.rates_for.b64_us": lambda: rate.rates_for(ctx, batch64),
        "rate.rates_for.b1024_us": lambda: rate.rates_for(ctx, batch1024),
        "opt_grad.objective_gradient.us": lambda: opt_grad.objective_gradient(point, scn),
        "opt_grad.line_search.us": lambda: opt_grad._line_search(point, grad, scn, g_value),
        "opt_ga.violation_counts.b100_us": lambda: opt_ga.violation_counts(batch100, scn.d_min),
        "opt_ga.evolve.us": one_generation,
    }
    return {name: _per_call_us(fn, repeats) for name, fn in cases.items()}


def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
    out = {}
    for name, values in samples.items():
        out[f"{name}.min"] = min(values)
        out[f"{name}.p50"] = statistics.median(values)
    return out
