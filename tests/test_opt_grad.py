"""Smoothed max-min ascent: soft-min, gradients, line search, momentum."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fas_optim import channel, opt_ga, opt_grad, rate, scenario
from fas_optim.harness import seed_for
from fas_optim.opt_grad import ZETA_MIN_FACTOR
from fas_optim.scenario import (
    HyperParams,
    ScenarioError,
    grid_layout,
    redraw_users,
    upa_layout,
)
from conftest import make_scenario, min_spacing, users_at


# ----------------------------------------------------------------- soft-min


def test_soft_min_equal_rates():
    rates = np.full(5, 1.7)
    value, weights = opt_grad._soft_min(rates, 100.0)
    assert value == pytest.approx(1.7 - math.log(5) / 100.0, rel=1e-12)
    np.testing.assert_array_equal(weights, np.full(5, 0.2))


def test_soft_min_brackets_minimum(table1_k3):
    rng = np.random.default_rng(0)
    ctx = rate.closed_form_context(table1_k3)
    for _ in range(50):
        layout = rng.uniform(-0.3, 0.3, (2, 9))
        rates = rate.rates_for(ctx, layout)
        g = opt_grad.smoothed_objective(layout, table1_k3)
        assert g <= rates.min() + 1e-12
        assert g >= rates.min() - math.log(3) / 100.0 - 1e-12


def test_soft_min_sharpens_with_mu(table1_k3):
    layout = np.random.default_rng(1).uniform(-0.3, 0.3, (2, 9))
    ctx = rate.closed_form_context(table1_k3)
    true_min = rate.rates_for(ctx, layout).min()
    sharp = dataclasses.replace(
        table1_k3, hyper=dataclasses.replace(table1_k3.hyper, mu=1e4)
    )
    tight = opt_grad.smoothed_objective(layout, sharp)
    assert true_min - tight <= math.log(3) / 1e4


def test_soft_min_single_user_is_exact():
    scn = make_scenario(users_at([(0.7, 1.2)]))
    layout = upa_layout(4, 0.06, 0.6)
    ctx = rate.closed_form_context(scn)
    assert opt_grad.smoothed_objective(layout, scn) == pytest.approx(
        float(rate.rates_for(ctx, layout)[0]), rel=1e-12
    )


# ---------------------------------------------------------------- gradients


def _dsinr(layout, scn):
    """Every user's SINR gradient, shape (K, 2, M)."""
    return rate.sinr_gradients(rate.closed_form_context(scn), layout)[1]


def test_sinr_gradient_single_user_is_zero():
    scn = make_scenario(users_at([(0.7, 1.2)]))
    layout = np.random.default_rng(2).uniform(-0.3, 0.3, (2, 4))
    np.testing.assert_array_equal(_dsinr(layout, scn)[0], 0.0)


def test_gradient_vanishes_for_aligned_users():
    # users sharing an arrival direction: |f_ki|^2 pinned at M^2, no slope
    scn = make_scenario(users_at([(0.8, 1.1), (0.8, 1.1)], [50.0, 70.0]))
    layout = np.random.default_rng(3).uniform(-0.3, 0.3, (2, 4))
    np.testing.assert_allclose(
        opt_grad.objective_gradient(layout, scn), 0.0, atol=1e-18
    )


def test_sharp_gradient_follows_worst_user():
    scn = make_scenario(
        users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 0.6)]), m=5, hyper=HyperParams(mu=1e4)
    )
    layout = np.random.default_rng(5).uniform(-0.25, 0.25, (2, 5))
    ctx = rate.closed_form_context(scn)
    rates = rate.rates_for(ctx, layout)
    worst = int(np.argmin(rates))
    sinr = rate.sinr_for(ctx, layout)[worst]
    direction = (
        ctx.prelog
        / ((1.0 + sinr) * math.log(2.0))
        * _dsinr(layout, scn)[worst]
    )
    grad = opt_grad.objective_gradient(layout, scn)
    cos = np.sum(grad * direction) / (
        np.linalg.norm(grad) * np.linalg.norm(direction)
    )
    assert cos > 0.999


# ------------------------------------------------------- projection / steps


def test_project_examples():
    inside = np.array([[0.1, -0.2], [0.0, 0.29]])
    np.testing.assert_array_equal(scenario.project(inside, 0.6), inside)
    outside = np.array([[0.4, -0.7], [0.31, 0.0]])
    np.testing.assert_allclose(
        scenario.project(outside, 0.6), [[0.3, -0.3], [0.3, 0.0]]
    )


def test_next_momentum_sequence():
    l = 0.5
    assert opt_grad.next_momentum(l) == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0)
    seq = [l]
    for _ in range(10):
        seq.append(opt_grad.next_momentum(seq[-1]))
    for prev, cur in zip(seq, seq[1:]):
        assert cur == pytest.approx((1.0 + math.sqrt(4.0 * prev**2 + 1.0)) / 2.0)
        assert cur > prev
    assert seq[10] > 5.0  # grows about one half per update


def _step(point, grad, scn):
    """Step length the line search accepts from `point` along `grad`."""
    g_value = opt_grad.smoothed_objective(point, scn)
    return opt_grad._line_search(point, grad, scn, g_value)[0]


def _reference_search(point, grad, scn):
    # transparent reimplementation of the candidate schedule for checking
    hyp = scn.hyper
    n = math.ceil(math.log(ZETA_MIN_FACTOR) / math.log(hyp.kappa)) + 1
    zetas = scn.wavelength * hyp.kappa ** np.arange(n)
    trials = opt_grad.project(
        point[None] + zetas[:, None, None] * grad[None], scn.region_size
    )
    g0 = opt_grad.smoothed_objective(point, scn)
    g_trials = np.array([opt_grad.smoothed_objective(t, scn) for t in trials])
    grew = g_trials >= g0 + hyp.varpi * zetas * float(np.sum(grad**2))
    feas = np.array(
        [len(opt_ga.violation_set(t, scn.d_min)) == 0 for t in trials]
    )
    return zetas, grew, feas


def test_line_search_value_is_objective_of_accepted_layout():
    # run_gradient takes the accepted point's value from the batch, so the
    # batched soft-min must equal the single-layout one bit for bit
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        angles = [tuple(rng.uniform(0.2, 2.9, 2)) for _ in range(k)]
        distances = list(rng.uniform(50.0, 70.0, k))
        scn = make_scenario(users_at(angles, distances), m=int(rng.integers(3, 7)))
        point = opt_grad.random_feasible_layout(scn, rng)
        grad = opt_grad.objective_gradient(point, scn)
        g_point = opt_grad.smoothed_objective(point, scn)
        _, layout, g_value = opt_grad._line_search(point, grad, scn, g_point)
        assert g_value == opt_grad.smoothed_objective(layout, scn)


def test_line_search_batch_matches_reference_past_prefix(table1_k3, monkeypatch):
    # at kappa 0.9 random starts accept a step past the first scored prefix;
    # a zero gradient passes at once and the boundary grid pushed inward
    # never passes, all in one batch
    hyper = dataclasses.replace(table1_k3.hyper, kappa=0.9)
    scn = dataclasses.replace(table1_k3, hyper=hyper)
    rng = np.random.default_rng(0)
    points = [opt_grad.random_feasible_layout(scn, rng) for _ in range(3)]
    grads = [opt_grad.objective_gradient(p, scn) for p in points]
    points.append(opt_grad.default_init(scn))
    grads.append(np.zeros((2, 9)))
    points.append(upa_layout(9, scn.d_min, scn.region_size))
    grads.append(-points[-1])
    g_values = opt_grad.smoothed_objective(np.stack(points), scn)
    checked = []  # layouts the spacing check saw
    real_counts = opt_grad.violation_counts

    def spy(layouts, d_min):
        checked.extend(np.asarray(layouts).reshape(-1, 2, 9))
        return real_counts(layouts, d_min)

    monkeypatch.setattr(opt_grad, "violation_counts", spy)
    steps, layouts, values = opt_grad._line_search(
        np.stack(points), np.stack(grads), scn, g_values
    )

    firsts, grown = [], []
    for i, (point, grad) in enumerate(zip(points, grads)):
        zetas, grew, feas = _reference_search(point, grad, scn)
        trials = opt_grad.project(
            point[None] + zetas[:, None, None] * grad[None], scn.region_size
        )
        grown.extend(trials[grew])
        passing = np.flatnonzero(grew & feas)
        if passing.size == 0:
            firsts.append(None)
            assert np.isnan(steps[i]) and np.isnan(values[i])
            continue
        idx = int(passing[0])
        firsts.append(idx)
        accepted = opt_grad.project(point + zetas[idx] * grad, scn.region_size)
        assert steps[i] == zetas[idx]
        np.testing.assert_array_equal(layouts[i], accepted)
        assert values[i] == opt_grad.smoothed_objective(accepted, scn)
        assert opt_grad._line_search(point, grad, scn, g_values[i])[0] == steps[i]
    assert min(firsts[:3]) >= opt_grad.LINE_SEARCH_PREFIX
    assert firsts[3:] == [0, None]
    # the spacing check saw only candidates that passed the increase test
    assert checked
    assert all(any(np.array_equal(c, g) for g in grown) for c in checked)


def test_backtrack_zero_gradient_returns_full_step(table1_k3):
    point = opt_grad.default_init(table1_k3)
    step = _step(point, np.zeros((2, 9)), table1_k3)
    assert step == table1_k3.wavelength


def test_backtrack_accepts_full_step_for_gentle_ascent(table1_k3):
    point = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(12))
    grad = opt_grad.objective_gradient(point, table1_k3)
    gentle = grad * (1e-6 / (table1_k3.wavelength * np.linalg.norm(grad)))
    step = _step(point, gentle, table1_k3)
    assert step == table1_k3.wavelength


def test_backtrack_shrinks_for_sufficient_increase(table1_k3):
    # frozen draw where large steps fail the increase test while staying feasible
    point = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(0))
    grad = opt_grad.objective_gradient(point, table1_k3)
    zetas, grew, feas = _reference_search(point, grad, table1_k3)
    idx = int(np.flatnonzero(grew & feas)[0])
    assert idx > 0 and feas[idx - 1] and not grew[idx - 1]
    step = _step(point, grad, table1_k3)
    assert step == pytest.approx(zetas[idx], rel=1e-12)
    assert step < table1_k3.wavelength


def test_backtrack_shrinks_for_spacing(table1_k3):
    # frozen draw where the largest improving step would break the spacing
    # limit, so the search must shrink past it
    point = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(12))
    grad = opt_grad.objective_gradient(point, table1_k3)
    zetas, grew, feas = _reference_search(point, grad, table1_k3)
    idx = int(np.flatnonzero(grew & feas)[0])
    assert idx > 0 and not feas[idx - 1]
    step = _step(point, grad, table1_k3)
    assert step == pytest.approx(zetas[idx], rel=1e-12)


def test_backtrack_reasonable_on_reference_grid(table1_k5):
    point = opt_grad.default_init(table1_k5)
    grad = opt_grad.objective_gradient(point, table1_k5)
    step = _step(point, grad, table1_k5)
    assert step >= table1_k5.wavelength * table1_k5.hyper.kappa**60


def test_backtrack_exhausts_on_boundary_grid(table1_k3):
    # start at the exact spacing limit and push everything inward: every
    # candidate violates, down to the smallest step
    point = upa_layout(9, table1_k3.d_min, table1_k3.region_size)
    grad = -point.copy()
    g_value = opt_grad.smoothed_objective(point, table1_k3)
    step, layout, value = opt_grad._line_search(point, grad, table1_k3, g_value)
    assert np.isnan(step) and np.isnan(value)
    assert layout.shape == (1, *point.shape) and np.isnan(layout).all()


def test_line_search_memory_stays_bounded_for_fine_kappa(table1_k5):
    # at KAPPA_MAX a search tries 1834 steps; six K = M = 9 layouts that
    # exhaust every one of them, scored all at once, need over 40 MiB
    hyper = dataclasses.replace(table1_k5.hyper, kappa=scenario.KAPPA_MAX)
    scn = redraw_users(dataclasses.replace(table1_k5, hyper=hyper), 5, count=9)
    assert opt_grad.line_search_steps(scn.hyper.kappa) > opt_grad.LINE_SEARCH_PREFIX
    point = np.stack([upa_layout(9, scn.d_min, scn.region_size)] * 6)  # at the limit
    g_value = opt_grad.smoothed_objective(point, scn)
    tracemalloc.start()
    try:
        # pushed together, so every candidate violates the spacing limit
        step, layout, value = opt_grad._line_search(point, -point, scn, g_value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert np.isnan(step).all() and np.isnan(value).all() and np.isnan(layout).all()


# ------------------------------------------------------------- full ascents


def test_default_init_has_spacing_slack(table1_k3):
    grid = opt_grad.default_init(table1_k3)
    assert min_spacing(grid) == pytest.approx(0.06, rel=1e-12)


def test_default_init_falls_back_to_exact_pitch(table1_k3):
    tight = dataclasses.replace(table1_k3, d_min=0.28)
    grid = opt_grad.default_init(tight)
    assert min_spacing(grid) == pytest.approx(0.28, rel=1e-12)


def test_run_gradient_rejects_bad_init(table1_k3):
    with pytest.raises(ScenarioError, match=r"initial layout violates .*\(0, 1\)"):
        opt_grad.run_gradient(table1_k3, init=np.zeros((2, 9)))


def test_run_gradient_single_user_stops_immediately():
    scn = make_scenario(users_at([(0.7, 1.2)]))
    init = upa_layout(4, 0.06, 0.6)
    layout, history = opt_grad.run_gradient(scn, init=init)
    assert len(history) - 1 <= 2
    np.testing.assert_allclose(layout, init, atol=1e-12)


def test_run_gradient_improves_and_stays_feasible(table1_k3):
    init = opt_grad.default_init(table1_k3)
    g_init = opt_grad.smoothed_objective(init, table1_k3)
    layout, history = opt_grad.run_gradient(table1_k3)
    assert opt_ga.violation_set(layout, table1_k3.d_min) == []
    assert np.all(np.abs(layout) <= table1_k3.region_size / 2.0 + 1e-12)
    g_fin = opt_grad.smoothed_objective(layout, table1_k3)
    assert g_fin >= g_init
    assert g_fin >= max(history) - 1e-9  # best feasible point is returned
    assert history[0] == pytest.approx(g_init)


def test_run_gradient_plain_variant(table1_k5):
    init = opt_grad.default_init(table1_k5)
    g_init = opt_grad.smoothed_objective(init, table1_k5)
    layout, history = opt_grad.run_gradient(table1_k5, accelerated=False)
    assert opt_ga.violation_set(layout, table1_k5.d_min) == []
    assert opt_grad.smoothed_objective(layout, table1_k5) >= g_init
    assert len(history) - 1 <= table1_k5.hyper.grad_max_iter


def test_run_gradient_evaluates_each_iterate_once(table1_k5, monkeypatch):
    # per iteration: one or two line-search batches and one pass for the
    # next iterate's value and gradient together
    calls = 0
    rates_for = rate.rates_for

    def counting(ctx, layouts):
        nonlocal calls
        calls += 1
        return rates_for(ctx, layouts)

    monkeypatch.setattr(rate, "rates_for", counting)
    _, history = opt_grad.run_gradient(table1_k5)
    iterations = len(history) - 1
    assert iterations > 10
    assert calls <= 3 * iterations + 2


def test_value_and_gradient_is_one_steering_pass(table1_k5, monkeypatch):
    # one LoS pass gives the value, the bits of the soft-min of `rates_for`,
    # and the gradient
    rng = np.random.default_rng(4)
    layouts = np.stack([opt_grad.random_feasible_layout(table1_k5, rng) for _ in range(3)])
    calls = 0
    steering = channel.steering

    def counting(*args):
        nonlocal calls
        calls += 1
        return steering(*args)

    monkeypatch.setattr(channel, "steering", counting)
    value, _ = opt_grad._value_and_gradient(layouts, table1_k5)
    assert calls == 1
    np.testing.assert_array_equal(value, opt_grad.smoothed_objective(layouts, table1_k5))


@pytest.mark.parametrize("accelerated", [True, False])
def test_ascent_scores_each_iterate_in_one_pass(table1_k5, monkeypatch, accelerated):
    # outside the line search: one LoS pass at the start and one per
    # iteration, which gives both the new iterate's value and its gradient
    outside, in_search = 0, False
    steering, line_search = channel.steering, opt_grad._line_search

    def counting(*args):
        nonlocal outside
        outside += not in_search
        return steering(*args)

    def searching(*args):
        nonlocal in_search
        in_search = True
        try:
            return line_search(*args)
        finally:
            in_search = False

    monkeypatch.setattr(channel, "steering", counting)
    monkeypatch.setattr(opt_grad, "_line_search", searching)
    # the ascent alone: picking the result afterwards scores two more layouts
    init = opt_grad.default_init(table1_k5)[None]
    _, _, histories = opt_grad._ascend(table1_k5, init, accelerated)
    iterations = len(histories[0]) - 1
    assert iterations > 10
    assert outside == iterations + 1


def test_run_gradient_falls_back_to_fpa(table1_k3):
    # the single grid start ends on a min rate of 2.791, below the grid's 2.897
    scn = redraw_users(table1_k3, seed_for(1, 35))
    grid = grid_layout(scn)
    layout, _ = opt_grad.run_gradient(scn)
    assert rate.min_rate(layout, scn) >= rate.min_rate(grid, scn)
    np.testing.assert_array_equal(layout, grid)


def test_run_gradient_deterministic(table1_k3):
    a, hist_a = opt_grad.run_gradient(table1_k3)
    b, hist_b = opt_grad.run_gradient(table1_k3)
    np.testing.assert_array_equal(a, b)
    assert hist_a == hist_b


# ------------------------------------------------------------- multistart


def test_random_feasible_layout_properties(table1_k3):
    rng = np.random.default_rng(7)
    for _ in range(10):
        layout = opt_grad.random_feasible_layout(table1_k3, rng)
        assert layout.shape == (2, 9)
        assert np.all(np.abs(layout) <= 0.3)
        assert min_spacing(layout) >= opt_grad.INIT_SLACK * table1_k3.d_min - 1e-12


def test_random_feasible_layout_deterministic(table1_k3):
    a = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(8))
    b = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)


def test_random_feasible_layout_crowded_box(table1_k3):
    crowded = dataclasses.replace(table1_k3, m_antennas=60, region_size=0.12)
    with pytest.raises(ScenarioError, match="could not sample a layout"):
        opt_grad.random_feasible_layout(crowded, np.random.default_rng(9))


def _prefix_checked_layout(scn, rng):
    """Reference `random_feasible_layout`: each draw checked with every placed pair."""
    half = scn.region_size / 2.0
    for slack in (opt_grad.INIT_SLACK, 1.0):
        placed = np.empty((2, scn.m_antennas))
        count = 0
        for _ in range(opt_grad.SAMPLE_ATTEMPTS * scn.m_antennas):
            if count == scn.m_antennas:
                break
            placed[:, count] = rng.uniform(-half, half, size=2)
            if scenario.violation_counts(placed[:, : count + 1], slack * scn.d_min) == 0:
                count += 1
        if count == scn.m_antennas:
            return placed
    return None


@pytest.mark.parametrize("region", [0.6, 0.12])
def test_random_feasible_layout_matches_prefix_check(table1_k5, region):
    # checking a draw against the placed antennas only draws, accepts and
    # fails alike, and leaves the stream where it was; in the 0.12 m box
    # every start fails
    scn = dataclasses.replace(table1_k5, region_size=region)
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _prefix_checked_layout(scn, ref_rng)
        try:
            got = opt_grad.random_feasible_layout(scn, rng)
        except ScenarioError:
            got = None
        assert (got is None) == (want is None)
        assert want is None or got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()


def test_run_multistart_guards_and_traces(table1_k3):
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        opt_grad.run_multistart(table1_k3, seed=0, restarts=0)
    layout, histories = opt_grad.run_multistart(table1_k3, seed=0, restarts=3)
    assert len(histories) == 3
    assert opt_ga.violation_set(layout, table1_k3.d_min) == []
    single, _ = opt_grad.run_gradient(table1_k3)
    g_best = opt_grad.smoothed_objective(layout, table1_k3)
    assert g_best >= opt_grad.smoothed_objective(single, table1_k3) - 1e-12
    # the starts leave the batch at different iterations, each on its own path
    assert len({len(h) for h in histories}) == 3
    rng = np.random.default_rng(0)
    inits = [opt_grad.random_feasible_layout(table1_k3, rng) for _ in range(2)]
    assert histories[1:] == [opt_grad.run_gradient(table1_k3, i)[1] for i in inits]


def test_run_multistart_rejects_non_finite_objective(table1_k3, monkeypatch):
    # NaN LoS responses reach both the ascent's own pass and the line search
    real = channel.steering
    monkeypatch.setattr(channel, "steering", lambda *args: np.nan * real(*args))
    with pytest.raises(ScenarioError, match="no gradient start reached a finite"):
        opt_grad.run_multistart(table1_k3, seed=0, restarts=3)


@st.composite
def small_problems(draw):
    """A random small scenario and a seed for the random starts."""
    k = draw(st.integers(2, 4))
    angle = st.floats(0.2, 2.9)
    angles = [(draw(angle), draw(angle)) for _ in range(k)]
    distances = [draw(st.floats(50.0, 70.0)) for _ in range(k)]
    scn = make_scenario(users_at(angles, distances), m=draw(st.integers(3, 6)))
    return scn, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=12, deadline=None, database=None)
@given(small_problems(), st.booleans())
def test_batched_starts_match_single_runs(problem, accelerated):
    # advancing starts side by side must not change any start's trajectory
    scn, seed = problem
    rng = np.random.default_rng(seed)
    inits = [opt_grad.default_init(scn)]
    inits += [opt_grad.random_feasible_layout(scn, rng) for _ in range(3)]
    layouts, best_g, histories = opt_grad._ascend(scn, np.stack(inits), accelerated)
    grid = grid_layout(scn)
    for init, layout, value, history in zip(inits, layouts, best_g, histories):
        alone, alone_g, alone_histories = opt_grad._ascend(scn, init[None], accelerated)
        np.testing.assert_array_equal(layout, alone[0])
        assert history == alone_histories[0]
        assert value == alone_g[0] == opt_grad.smoothed_objective(alone[0], scn)
        # run_gradient returns that start's layout, or the grid above it
        picked, picked_history = opt_grad.run_gradient(scn, init, accelerated)
        assert picked_history == history
        below = rate.min_rate(alone[0], scn) < rate.min_rate(grid, scn)
        np.testing.assert_array_equal(picked, grid if below else alone[0])
    # run_multistart returns the first of the starts and the grid with the
    # highest min rate
    best, multi_histories = opt_grad.run_multistart(scn, seed, 4, accelerated)
    assert multi_histories == histories
    cands = [*layouts, grid]
    top = int(np.argmax([rate.min_rate(c, scn) for c in cands]))
    np.testing.assert_array_equal(best, cands[top])


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(1, 3),
    st.integers(2, 4),
    st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_run_multistart_feasible_and_never_below_fpa(k, m, mu, seed, data):
    # a small mu makes the soft-min favour the mean rate, so the best soft-min
    # start can have a lower min rate than the fixed grid
    angle, distance = st.floats(0.2, 2.9), st.floats(50.0, 70.0)
    angles = [(data.draw(angle), data.draw(angle)) for _ in range(k)]
    distances = [data.draw(distance) for _ in range(k)]
    scn = make_scenario(users_at(angles, distances), m=m, hyper=HyperParams(mu=mu))
    layout, _ = opt_grad.run_multistart(scn, seed, restarts=2)
    assert np.all(np.abs(layout) <= scn.region_size / 2.0)
    assert opt_ga.violation_set(layout, scn.d_min) == []
    assert rate.min_rate(layout, scn) >= rate.min_rate(grid_layout(scn), scn)
    ceiling = rate.closed_form_context(scn).ceilings.min()
    assert rate.min_rate(layout, scn) <= ceiling * (1.0 + 1e-12)


ANGLE = st.floats(0.2, 2.9)
ANGLE_PAIRS = st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=3)


@settings(max_examples=15, deadline=None, database=None)
@given(st.integers(2, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), ANGLE_PAIRS)
@example(9, 0.0, 0, [(0.5, 1.0), (1.5, 2.0)])  # only the grid fits
def test_run_multistart_on_crowded_boxes(m, fill, seed, angles):
    # from the smallest box that fits the grid up to two wavelengths, a
    # random start that cannot be drawn is skipped and the grid still runs
    scn = make_scenario(users_at(angles), m=m)
    smallest = math.isqrt(m - 1) * scn.d_min  # the grid's span at pitch d_min
    scn = dataclasses.replace(scn, region_size=smallest + fill * (0.2 - smallest))
    layout, _ = opt_grad.run_multistart(scn, seed, restarts=3)
    assert np.all(np.abs(layout) <= scn.region_size / 2.0)
    assert opt_ga.violation_set(layout, scn.d_min) == []
    assert rate.min_rate(layout, scn) >= rate.min_rate(grid_layout(scn), scn)


def test_run_multistart_falls_back_to_fpa():
    # at mu = 0.3 the start with the best soft-min ends on a min rate of 0.599,
    # below the grid's 0.716, and the grid start on 0.718: the returned
    # layout is the best of every start's and the grid's
    angles = [(0.3, 0.6), (0.4, 1.4), (1.2, 2.5)]
    scn = make_scenario(
        users_at(angles, [57.0, 51.0, 65.0]), m=2, hyper=HyperParams(mu=0.3)
    )
    layout, _ = opt_grad.run_multistart(scn, seed=2, restarts=2)
    rng = np.random.default_rng(2)
    inits = [opt_grad.default_init(scn), opt_grad.random_feasible_layout(scn, rng)]
    ends, _, _ = opt_grad._ascend(scn, np.stack(inits), True)
    grid = rate.min_rate(grid_layout(scn), scn)
    best = max([grid] + [rate.min_rate(end, scn) for end in ends])
    assert rate.min_rate(layout, scn) == best > grid


def test_run_multistart_single_restart_is_default_run(table1_k3):
    layout, histories = opt_grad.run_multistart(table1_k3, seed=1, restarts=1)
    single, hist = opt_grad.run_gradient(table1_k3)
    np.testing.assert_array_equal(layout, single)
    assert histories == [hist]


def test_run_multistart_deterministic(table1_k3):
    a, hist_a = opt_grad.run_multistart(table1_k3, seed=2, restarts=3)
    b, hist_b = opt_grad.run_multistart(table1_k3, seed=2, restarts=3)
    np.testing.assert_array_equal(a, b)
    assert hist_a == hist_b


def test_run_multistart_seeds_from_hyper_by_default(table1_k3):
    # without a seed the random starts come from hyper.seed, as run_ga's do
    a, hist_a = opt_grad.run_multistart(table1_k3, restarts=3)
    b, hist_b = opt_grad.run_multistart(table1_k3, seed=table1_k3.hyper.seed, restarts=3)
    np.testing.assert_array_equal(a, b)
    assert hist_a == hist_b
