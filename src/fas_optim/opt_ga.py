"""Genetic search for antenna positions under a spacing penalty.

Individuals are full layouts.  Fitness is the smallest per-user rate
minus a penalty per pair of antennas closer than `d_min`.  The penalty
exceeds the interference-free rate bound (`rate.ClosedFormContext`) by
1, so every layout with a violating pair ranks below every feasible
layout, whatever the scenario.  Selection is 3-way tournament,
crossover swaps whole antennas between parents, and mutation jitters
coordinates with wavelength/10 noise.  One elite survives unchanged per
generation, so the best fitness never decreases and the population's
best individual is the best layout seen.  The population carries its
layouts' LoS responses; a child copies each antenna's from its parent,
and only antennas that mutation moved go through the exponential again,
so every fitness has the bits of a fresh `channel.steering` evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import channel, rate
from .scenario import Scenario, ScenarioError, grid_layout

TOURNAMENT = 3
CROSSOVER_P = 0.9   # probability a child mixes both parents
MUTATION_P = 0.1    # per-coordinate jitter probability
SEED_DIVISOR = 10   # fraction of the population started at the regular grid
CONVERGE_WINDOW = 20
CONVERGE_TOL = 1e-3


@functools.lru_cache(maxsize=16)
def _upper(m: int) -> np.ndarray:
    """Mask of the antenna pairs i < j, (M, M); shared, so never written to."""
    return np.triu(np.ones((m, m), dtype=bool), k=1)


def _violation_mask(layouts: np.ndarray, d_min: float) -> np.ndarray:
    """Upper-triangle mask of antenna pairs strictly closer than `d_min`.

    Distances are compared squared, so a grid at pitch exactly `d_min`
    yields no violations.  Shape (..., M, M).
    """
    layouts = np.asarray(layouts, dtype=float)
    x, y = layouts[..., 0, :], layouts[..., 1, :]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return (dx * dx + dy * dy < d_min * d_min) & _upper(layouts.shape[-1])


def project(layout: np.ndarray, region_size: float) -> np.ndarray:
    """Clamp every coordinate into the movement box, entry by entry."""
    half = region_size / 2.0
    return np.clip(np.asarray(layout, dtype=float), -half, half)


def violation_set(layout: np.ndarray, d_min: float) -> list[tuple[int, int]]:
    """Antenna index pairs (i < j) of one layout closer than `d_min`."""
    rows, cols = np.nonzero(_violation_mask(layout, d_min))
    return [(int(i), int(j)) for i, j in zip(rows, cols)]


def violation_counts(layouts: np.ndarray, d_min: float) -> np.ndarray:
    """Number of violating pairs for a batch of layouts, shape (...,)."""
    return np.sum(_violation_mask(layouts, d_min), axis=(-2, -1))


def _score(layouts: np.ndarray, steer: np.ndarray, ctx, d_min: float) -> np.ndarray:
    """Penalized fitness of layouts, from LoS responses `steer` and evaluator `ctx`.

    The penalty per violating pair lies 1 above any achievable rate, so
    fewer violations always rank higher, and a change in the count
    moves the best fitness by more than `CONVERGE_TOL`.
    """
    counts = violation_counts(layouts, d_min)
    min_rates = rate._rates_at(ctx, steer).min(axis=-1)
    return min_rates - (ctx.rate_bound + 1.0) * counts


@dataclass
class GaState:
    """Population arrays and the RNG stream.

    The elite survives every generation at index 0, so `fits.max()` is
    the best fitness seen so far and its first holder the best layout.
    """

    layouts: np.ndarray   # (N, 2, M)
    steer: np.ndarray     # (N, K, M) LoS responses of `layouts`
    fits: np.ndarray      # (N,) penalized fitness
    rng: np.random.Generator
    history: list[float]  # best fitness, one entry per generation


def init_population(scn: Scenario, rng: np.random.Generator) -> GaState:
    """Uniform random layouts plus a few copies of the regular grid."""
    n = scn.hyper.ga_pop
    m = scn.m_antennas
    half = scn.region_size / 2.0
    layouts = rng.uniform(-half, half, (n, 2, m))
    try:
        seed_layout = grid_layout(scn)
        for i in range(max(1, n // SEED_DIVISOR)):
            layouts[i] = seed_layout
    except ScenarioError:
        pass  # grid does not fit; start from random layouts only
    ctx = rate.closed_form_context(scn)
    steer = channel.steering(ctx.dirs, layouts, scn.wavelength)
    fits = _score(layouts, steer, ctx, scn.d_min)
    return GaState(layouts, steer, fits, rng, history=[float(fits.max())])


def evolve(state: GaState, scn: Scenario) -> GaState:
    """Advance the population by one generation."""
    rng = state.rng
    pop, steer, fits = state.layouts, state.steer, state.fits
    n = len(fits)
    m = scn.m_antennas

    elite = int(np.argmax(fits))
    nc = n - 1
    contenders = rng.integers(0, n, (2, nc, TOURNAMENT))
    winners = np.take_along_axis(
        contenders, np.argmax(fits[contenders], axis=-1)[..., None], axis=-1
    )[..., 0]

    gate = rng.random(nc) < CROSSOVER_P
    keep_a = rng.random((nc, 1, m)) < 0.5  # swap whole antennas, not coordinates
    from_a = keep_a | ~gate[:, None, None]
    crossed = np.where(from_a, pop[winners[0]], pop[winners[1]])
    child_steer = np.where(from_a, steer[winners[0]], steer[winners[1]])

    jitter_mask = rng.random((nc, 2, m)) < MUTATION_P
    jitter = rng.normal(0.0, scn.wavelength / 10.0, (nc, 2, m))
    children = project(crossed + jitter_mask * jitter, scn.region_size)
    moved = children != crossed  # not the jitter mask: clipping can undo a jitter
    rows, cols = np.nonzero(moved[:, 0] | moved[:, 1])
    ctx = rate.closed_form_context(scn)
    fresh = channel.steering(ctx.dirs, children[rows, :, cols].T, scn.wavelength)
    child_steer[rows, :, cols] = fresh.T

    child_fits = _score(children, child_steer, ctx, scn.d_min)
    fits = np.concatenate([fits[elite : elite + 1], child_fits])
    return GaState(
        layouts=np.concatenate([pop[elite : elite + 1], children]),
        steer=np.concatenate([steer[elite : elite + 1], child_steer]),
        fits=fits,
        rng=rng,
        history=state.history + [float(fits.max())],
    )


def run_ga(scn: Scenario, seed=None) -> tuple[np.ndarray, list[float]]:
    """Evolve until the best fitness stalls, returning a feasible layout.

    Stops when the best fitness improved by less than `CONVERGE_TOL`
    over the last `CONVERGE_WINDOW` generations, or at
    `hyper.ga_max_iter`.  Returns the best layout seen, which is
    spacing-feasible whenever any layout seen was, and the best-fitness
    trace (one entry per generation, starting at the initial population).
    Raises `ScenarioError` if no feasible layout was found.
    """
    rng = np.random.default_rng(scn.hyper.seed if seed is None else seed)
    state = init_population(scn, rng)
    for _ in range(scn.hyper.ga_max_iter):
        state = evolve(state, scn)
        hist = state.history
        if (
            len(hist) > CONVERGE_WINDOW
            and hist[-1] - hist[-1 - CONVERGE_WINDOW] < CONVERGE_TOL
        ):
            break
    best = state.layouts[int(np.argmax(state.fits))]
    if violation_counts(best, scn.d_min):
        raise ScenarioError(
            f"genetic search found no layout meeting the spacing limit d_min = "
            f"{scn.d_min} in a region of side {scn.region_size}"
        )
    return best.copy(), state.history
