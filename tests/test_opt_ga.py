"""Genetic position search: penalty fitness, operators, convergence."""

import numpy as np
import pytest

from fas_optim import opt_ga, rate
from fas_optim.scenario import upa_layout


def test_violation_set_grid_at_pitch_is_clean():
    layout = upa_layout(9, 0.05, 0.6)
    assert opt_ga.violation_set(layout, 0.05) == []


def test_violation_set_collocated_counts_all_pairs():
    layout = np.zeros((2, 9))
    pairs = opt_ga.violation_set(layout, 0.05)
    assert len(pairs) == 36
    assert (0, 1) in pairs and (7, 8) in pairs


def test_violation_set_single_close_pair():
    layout = upa_layout(4, 0.2, 0.6)
    layout = layout.copy()
    layout[:, 1] = layout[:, 0] + [0.0499, 0.0]
    assert opt_ga.violation_set(layout, 0.05) == [(0, 1)]


def test_violation_counts_matches_pairs():
    rng = np.random.default_rng(0)
    layouts = rng.uniform(-0.3, 0.3, (40, 2, 6))
    counts = opt_ga.violation_counts(layouts, 0.08)
    for b in range(40):
        assert counts[b] == len(opt_ga.violation_set(layouts[b], 0.08))


def test_fitness_is_min_rate_when_feasible(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    assert opt_ga._score(layout, table1_k3)[0] == pytest.approx(
        rate.min_rate(layout, table1_k3), rel=1e-12
    )


def test_fitness_penalty_per_pair(table1_k3):
    layout = upa_layout(9, 0.05, 0.6).copy()
    layout[:, 1] = layout[:, 0] + [0.01, 0.0]  # one violating pair
    clean = rate.min_rate(layout, table1_k3)
    assert opt_ga._score(layout, table1_k3)[0] == pytest.approx(
        clean - table1_k3.hyper.omega, rel=1e-9
    )


def test_penalty_dominates_any_feasible_rate(table1_k3):
    # omega = 10 exceeds the best achievable min rate here, so a single
    # violation ranks below every feasible layout
    rng = np.random.default_rng(1)
    feasible_fit = opt_ga._score(upa_layout(9, 0.05, 0.6), table1_k3)[0]
    for _ in range(20):
        layout = rng.uniform(-0.3, 0.3, (2, 9))
        bad = layout.copy()
        bad[:, 1] = bad[:, 0]
        assert opt_ga._score(bad, table1_k3)[0] < 0.0 < feasible_fit


def test_init_population_seeds_grid(table1_k3):
    rng = np.random.default_rng(2)
    state = opt_ga.init_population(table1_k3, rng)
    assert len(state.layouts) == len(state.fits) == table1_k3.hyper.ga_pop
    n_seeded = max(1, table1_k3.hyper.ga_pop // opt_ga.SEED_DIVISOR)
    grid = upa_layout(9, 0.05, 0.6)
    for i in range(n_seeded):
        np.testing.assert_array_equal(state.layouts[i], grid)
        assert opt_ga.violation_counts(state.layouts[i], table1_k3.d_min) == 0
        assert state.fits[i] > 0.0
    half = table1_k3.region_size / 2.0
    assert np.all(np.abs(state.layouts) <= half + 1e-12)
    assert state.best_layout is not None
    assert state.history == [state.fits.max()]


def test_init_population_deterministic(table1_k3):
    a = opt_ga.init_population(table1_k3, np.random.default_rng(3))
    b = opt_ga.init_population(table1_k3, np.random.default_rng(3))
    np.testing.assert_array_equal(a.layouts, b.layouts)
    np.testing.assert_array_equal(a.fits, b.fits)


def test_evolve_keeps_best_monotone(table1_k3):
    state = opt_ga.init_population(table1_k3, np.random.default_rng(4))
    half = table1_k3.region_size / 2.0
    for _ in range(10):
        prev_best = state.fits.max()
        state = opt_ga.evolve(state, table1_k3)
        assert len(state.layouts) == len(state.fits) == table1_k3.hyper.ga_pop
        assert state.fits.max() >= prev_best
        assert np.all(np.abs(state.layouts) <= half + 1e-12)
    assert len(state.history) == 11
    assert state.history == sorted(state.history)


def test_run_ga_feasible_and_beats_grid(table1_k5):
    layout, history = opt_ga.run_ga(table1_k5, seed=0)
    assert opt_ga.violation_set(layout, table1_k5.d_min) == []
    assert np.all(np.abs(layout) <= table1_k5.region_size / 2.0 + 1e-12)
    grid_rate = rate.min_rate(upa_layout(9, 0.05, 0.6), table1_k5)
    assert rate.min_rate(layout, table1_k5) >= grid_rate
    assert len(history) - 1 <= table1_k5.hyper.ga_max_iter


def test_run_ga_converges_quickly(table1_k5):
    _, history = opt_ga.run_ga(table1_k5, seed=0)
    assert len(history) - 1 <= 200


def test_run_ga_deterministic(table1_k3):
    a, hist_a = opt_ga.run_ga(table1_k3, seed=5)
    b, hist_b = opt_ga.run_ga(table1_k3, seed=5)
    np.testing.assert_array_equal(a, b)
    assert hist_a == hist_b
