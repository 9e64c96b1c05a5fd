"""Smoothed max-min ascent: soft-min, gradients, line search, momentum."""

import dataclasses
import math

import numpy as np
import pytest

from fas_optim import opt_ga, opt_grad, rate
from fas_optim.scenario import (
    Scenario,
    ScenarioError,
    derive_user,
    upa_layout,
    validate_scenario,
)

Q = 1e-10


def small_scenario(angles, m=4, distances=None, mu=100.0):
    distances = distances or [55.0] * len(angles)
    k = len(angles)
    users = tuple(
        derive_user(d, e, a, noise_over_taup=Q)
        for (e, a), d in zip(angles, distances)
    )
    scn = Scenario(
        m_antennas=m,
        k_users=k,
        wavelength=0.1,
        region_size=0.6,
        d_min=0.05,
        tx_power=1.0,
        noise_power=Q * k,
        coherence_len=196,
        pilot_len=k,
        users=users,
    )
    scn = dataclasses.replace(scn, hyper=dataclasses.replace(scn.hyper, mu=mu))
    return validate_scenario(scn)


def fd_gradient(fun, layout, h=1e-6):
    grad = np.zeros_like(layout)
    for d in range(layout.shape[0]):
        for m in range(layout.shape[1]):
            up = layout.copy()
            up[d, m] += h
            dn = layout.copy()
            dn[d, m] -= h
            grad[d, m] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


# ----------------------------------------------------------------- soft-min


def test_soft_min_equal_rates():
    rates = np.full(5, 1.7)
    assert opt_grad._soft_min(rates, 100.0) == pytest.approx(
        1.7 - math.log(5) / 100.0, rel=1e-12
    )


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
    tight = opt_grad.smoothed_objective(layout, table1_k3, mu=1e4)
    assert true_min - tight <= math.log(3) / 1e4


def test_soft_min_single_user_is_exact():
    scn = small_scenario([(0.7, 1.2)])
    layout = upa_layout(4, 0.06, 0.6)
    ctx = rate.closed_form_context(scn)
    assert opt_grad.smoothed_objective(layout, scn) == pytest.approx(
        float(rate.rates_for(ctx, layout)[0]), rel=1e-12
    )


# ---------------------------------------------------------------- gradients


def _dsinr(layout, scn):
    """Every user's SINR gradient, shape (K, 2, M)."""
    return opt_grad._sinr_gradients(rate.closed_form_context(scn), layout)


def test_sinr_gradient_single_user_is_zero():
    scn = small_scenario([(0.7, 1.2)])
    layout = np.random.default_rng(2).uniform(-0.3, 0.3, (2, 4))
    np.testing.assert_array_equal(_dsinr(layout, scn)[0], 0.0)


def test_gradient_vanishes_for_aligned_users():
    # users sharing an arrival direction: |f_ki|^2 pinned at M^2, no slope
    scn = small_scenario([(0.8, 1.1), (0.8, 1.1)], distances=[50.0, 70.0])
    layout = np.random.default_rng(3).uniform(-0.3, 0.3, (2, 4))
    np.testing.assert_allclose(
        opt_grad.objective_gradient(layout, scn), 0.0, atol=1e-18
    )


def test_sinr_gradient_matches_finite_differences():
    scn = small_scenario([(0.4, 0.9), (1.3, 2.2), (2.0, 0.6)], m=5)
    ctx = rate.closed_form_context(scn)
    layout = np.random.default_rng(4).uniform(-0.25, 0.25, (2, 5))
    for k in range(3):
        analytic = _dsinr(layout, scn)[k]

        def sinr_k(lay, k=k):
            return float(rate.sinr_for(ctx, lay)[k])

        fd = fd_gradient(sinr_k, layout)
        err = np.linalg.norm(fd - analytic) / np.linalg.norm(fd)
        assert err < 1e-5


def test_objective_gradient_matches_finite_differences(table1_k3):
    layout = opt_grad.default_init(table1_k3)
    analytic = opt_grad.objective_gradient(layout, table1_k3)
    fd = fd_gradient(lambda lay: opt_grad.smoothed_objective(lay, table1_k3), layout)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(fd) < 1e-5


def test_sharp_gradient_follows_worst_user():
    scn = small_scenario([(0.4, 0.9), (1.3, 2.2), (2.0, 0.6)], m=5)
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
    grad = opt_grad.objective_gradient(layout, scn, mu=1e4)
    cos = np.sum(grad * direction) / (
        np.linalg.norm(grad) * np.linalg.norm(direction)
    )
    assert cos > 0.999


# ------------------------------------------------------- projection / steps


def test_project_examples():
    inside = np.array([[0.1, -0.2], [0.0, 0.29]])
    np.testing.assert_array_equal(opt_grad.project(inside, 0.6), inside)
    outside = np.array([[0.4, -0.7], [0.31, 0.0]])
    np.testing.assert_allclose(
        opt_grad.project(outside, 0.6), [[0.3, -0.3], [0.3, 0.0]]
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
    n = math.ceil(math.log(opt_grad.ZETA_MIN_FACTOR) / math.log(hyp.kappa)) + 1
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
    with pytest.raises(opt_grad.LineSearchExhausted, match="no step in"):
        _step(point, grad, table1_k3)


# ------------------------------------------------------------- full ascents


def test_default_init_has_spacing_slack(table1_k3):
    grid = opt_grad.default_init(table1_k3)
    dist = np.sqrt(
        np.sum((grid[:, :, None] - grid[:, None, :]) ** 2, axis=0)
    )
    dist[np.arange(9), np.arange(9)] = np.inf
    assert dist.min() == pytest.approx(0.06, rel=1e-12)


def test_default_init_falls_back_to_exact_pitch(table1_k3):
    tight = dataclasses.replace(table1_k3, d_min=0.28)
    grid = opt_grad.default_init(tight)
    dist = np.sqrt(np.sum((grid[:, :, None] - grid[:, None, :]) ** 2, axis=0))
    dist[np.arange(9), np.arange(9)] = np.inf
    assert dist.min() == pytest.approx(0.28, rel=1e-12)


def test_run_gradient_rejects_bad_init(table1_k3):
    with pytest.raises(ScenarioError, match=r"initial layout violates .*\(0, 1\)"):
        opt_grad.run_gradient(table1_k3, init=np.zeros((2, 9)))


def test_run_gradient_single_user_stops_immediately():
    scn = small_scenario([(0.7, 1.2)])
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
        dist = np.sqrt(np.sum((layout[:, :, None] - layout[:, None, :]) ** 2, axis=0))
        dist[np.arange(9), np.arange(9)] = np.inf
        assert dist.min() >= opt_grad.INIT_SLACK * table1_k3.d_min - 1e-12


def test_random_feasible_layout_deterministic(table1_k3):
    a = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(8))
    b = opt_grad.random_feasible_layout(table1_k3, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)


def test_random_feasible_layout_crowded_box(table1_k3):
    crowded = dataclasses.replace(table1_k3, m_antennas=60, region_size=0.12)
    with pytest.raises(ScenarioError, match="could not sample a layout"):
        opt_grad.random_feasible_layout(crowded, np.random.default_rng(9))


def test_run_multistart_guards_and_traces(table1_k3):
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        opt_grad.run_multistart(table1_k3, seed=0, restarts=0)
    layout, histories = opt_grad.run_multistart(table1_k3, seed=0, restarts=3)
    assert len(histories) == 3
    assert opt_ga.violation_set(layout, table1_k3.d_min) == []
    single, _ = opt_grad.run_gradient(table1_k3)
    g_best = opt_grad.smoothed_objective(layout, table1_k3)
    assert g_best >= opt_grad.smoothed_objective(single, table1_k3) - 1e-12


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
