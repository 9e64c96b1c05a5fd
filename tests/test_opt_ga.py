"""Genetic position search: penalty fitness, operators, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fas_optim import channel, opt_ga, rate
from fas_optim.scenario import (
    HyperParams,
    UserModel,
    db_to_linear,
    dbm_to_watt,
    grid_layout,
    random_users,
    redraw_users,
    upa_layout,
    violation_counts,
    violation_set,
)
from conftest import make_scenario


def fitness(layouts, scn):
    """`_score` of layouts whose LoS responses are computed afresh."""
    ctx = rate.closed_form_context(scn)
    steer = channel.steering(ctx.dirs, layouts, scn.wavelength)
    return opt_ga._score(layouts, steer, ctx, scn.d_min)


def test_violation_set_grid_at_pitch_is_clean():
    layout = upa_layout(9, 0.05, 0.6)
    assert violation_set(layout, 0.05) == []


def test_violation_set_collocated_counts_all_pairs():
    layout = np.zeros((2, 9))
    pairs = violation_set(layout, 0.05)
    assert len(pairs) == 36
    assert (0, 1) in pairs and (7, 8) in pairs


def test_violation_set_single_close_pair():
    layout = upa_layout(4, 0.2, 0.6)
    layout = layout.copy()
    layout[:, 1] = layout[:, 0] + [0.0499, 0.0]
    assert violation_set(layout, 0.05) == [(0, 1)]


def test_violation_counts_matches_pairs():
    rng = np.random.default_rng(0)
    layouts = rng.uniform(-0.3, 0.3, (40, 2, 6))
    counts = violation_counts(layouts, 0.08)
    for b in range(40):
        assert counts[b] == len(violation_set(layouts[b], 0.08))


def test_fitness_is_min_rate_when_feasible(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    assert fitness(layout, table1_k3) == pytest.approx(
        rate.min_rate(layout, table1_k3), rel=1e-12
    )


def test_fitness_penalty_per_pair(table1_k3):
    layout = upa_layout(9, 0.05, 0.6).copy()
    layout[:, 1] = layout[:, 0] + [0.01, 0.0]  # one violating pair
    clean = rate.min_rate(layout, table1_k3)
    penalty = rate.closed_form_context(table1_k3).ceilings.max() + 1.0
    assert fitness(layout, table1_k3) == pytest.approx(
        clean - penalty, rel=1e-9
    )


def test_penalty_dominates_any_feasible_rate(table1_k3):
    # the penalty exceeds the best achievable min rate, so a single
    # violation ranks below every feasible layout
    rng = np.random.default_rng(1)
    feasible_fit = fitness(upa_layout(9, 0.05, 0.6), table1_k3)
    for _ in range(20):
        layout = rng.uniform(-0.3, 0.3, (2, 9))
        bad = layout.copy()
        bad[:, 1] = bad[:, 0]
        assert fitness(bad, table1_k3) < 0.0 < feasible_fit


@st.composite
def ga_scenarios(draw):
    """A small scenario (K 1-4, M 2-6); strong-LoS draws bound the rate above 10 bit/s/Hz."""
    strong = draw(st.booleans())
    k, m = draw(st.integers(2, 3) if strong else st.integers(1, 4)), draw(st.integers(2, 6))
    rician_db = draw(st.floats(33.0, 40.0) if strong else st.floats(0.0, 20.0))
    tx_power = 10.0 ** draw(st.floats(1.0, 3.0) if strong else st.floats(-3.0, 0.0))
    model = UserModel(rician=db_to_linear(rician_db))
    scn = make_scenario(
        random_users(model, k, 0),
        m=m,
        region_size=draw(st.floats(0.15, 0.6)),
        tx_power=tx_power,
        noise_power=dbm_to_watt(-104.0),
        hyper=HyperParams(ga_pop=20, ga_max_iter=40),
        user_model=model,
    )
    return redraw_users(scn, draw(st.integers(0, 2**16))), draw(st.integers(0, 2**16))


def _phase_layouts(scn):
    """Extreme layouts for the first two users, in direction space.

    Antennas `d_min` apart along the normal to the users' direction
    difference all see one phase, so the pair interferes fully (feasible,
    low rate).  Stepping antenna m by m/M of a cycle along the difference
    nulls their cross term, with antennas 0 and 1 side by side (one
    violating pair once the difference exceeds 2/M, high rate).
    """
    dirs = channel.user_directions(scn.users)
    delta = dirs[1] - dirs[0]
    norm = np.linalg.norm(delta)
    if norm < 1e-6:
        return np.empty((0, 2, scn.m_antennas))
    normal = np.array([-delta[1], delta[0]]) / norm
    m = np.arange(scn.m_antennas)
    aligned = np.outer(normal, m * scn.d_min)
    nulled = np.outer(delta / norm**2, scn.wavelength * m / scn.m_antennas)
    nulled += np.outer(normal, np.maximum(m - 1, 0) * scn.d_min)
    return np.stack([aligned, nulled])


@settings(max_examples=100, deadline=None, database=None)
@given(ga_scenarios())
def test_every_violation_ranks_below_every_feasible_layout(problem):
    scn, seed = problem
    half = scn.region_size / 2.0
    layouts = np.random.default_rng(seed).uniform(-half, half, (256, 2, scn.m_antennas))
    layouts = np.concatenate([grid_layout(scn)[None], layouts])
    if scn.k_users > 1:
        layouts = np.concatenate([layouts, _phase_layouts(scn)])
    counts = opt_ga.violation_counts(layouts, scn.d_min)
    fits = fitness(layouts, scn)
    if counts.all() or not counts.any():
        return
    assert fits[counts > 0].max() < fits[counts == 0].min()


@settings(max_examples=50, deadline=None, database=None)
@given(ga_scenarios())
def test_run_ga_returns_final_best_feasible_layout(problem):
    scn, seed = problem
    layout, history = opt_ga.run_ga(scn, seed=seed)
    # the returned layout holds the final population's best fitness
    assert fitness(layout, scn) == pytest.approx(history[-1], rel=1e-12)
    assert opt_ga.violation_set(layout, scn.d_min) == []
    grid_rate = rate.min_rate(grid_layout(scn), scn)
    assert rate.min_rate(layout, scn) >= grid_rate * (1.0 - 1e-12)
    ceiling = rate.closed_form_context(scn).ceilings.min()
    assert rate.min_rate(layout, scn) <= ceiling * (1.0 + 1e-12)


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
    best = state.layouts[np.argmax(state.fits)]
    assert opt_ga.violation_counts(best, table1_k3.d_min) == 0
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


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 9), st.integers(1, 9), st.floats(0.15, 0.6), st.integers(0, 2**16))
def test_population_responses_and_fitness_match_a_fresh_evaluation(k, m, region, seed):
    # children inherit their parents' LoS responses and recompute only moved
    # antennas; the carried arrays must be the fresh ones, bit for bit
    model = UserModel()
    scn = make_scenario(
        random_users(model, k, seed),
        m=m,
        region_size=region,
        noise_power=dbm_to_watt(-104.0),
        hyper=HyperParams(ga_pop=20),
        user_model=model,
    )
    dirs = rate.closed_form_context(scn).dirs
    state = opt_ga.init_population(scn, np.random.default_rng(seed))
    for generation in range(7):
        if generation:
            state = opt_ga.evolve(state, scn)
        fresh = channel.steering(dirs, state.layouts, scn.wavelength)
        assert np.array_equal(state.steer, fresh)
        assert np.array_equal(state.fits, fitness(state.layouts, scn))


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
