"""Closed-form rate terms, the Monte Carlo oracle, and moment checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fas_optim import channel, rate
from fas_optim.scenario import Scenario, derive_user, upa_layout, validate_scenario

Q = 1e-10


def users_at(angles, distances=None, rician=6.0):
    distances = distances or [55.0] * len(angles)
    return tuple(
        derive_user(d, e, a, rician=rician)
        for (e, a), d in zip(angles, distances)
    )


def small_scenario(users, m=4, noise_power=None, pilot_len=None):
    k = len(users)
    noise = Q * k * 1.0 if noise_power is None else noise_power
    return validate_scenario(
        Scenario(
            m_antennas=m,
            k_users=k,
            wavelength=0.1,
            region_size=0.6,
            d_min=0.05,
            tx_power=1.0,
            noise_power=noise,
            coherence_len=196,
            pilot_len=k if pilot_len is None else pilot_len,
            users=users,
        )
    )


# ---------------------------------------------------------------- statistics


def test_running_stats_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1000, 3))
    s = rate.RunningStats()
    s.update(data[:400]).update(data[400:401]).update(data[401:])
    np.testing.assert_allclose(s.mean, data.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(s.variance, data.var(axis=0, ddof=1), rtol=1e-10)
    np.testing.assert_allclose(
        s.sem(), np.sqrt(data.var(axis=0, ddof=1) / 1000), rtol=1e-10
    )


def test_running_stats_merge_equals_single_pass():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(500,)) + 1j * rng.normal(size=(500,))
    whole = rate.RunningStats().update(data)
    left = rate.RunningStats().update(data[:123])
    right = rate.RunningStats().update(data[123:])
    left.merge(right)
    assert left.count == whole.count == 500
    np.testing.assert_allclose(left.mean, whole.mean, rtol=1e-12)
    np.testing.assert_allclose(left.variance, whole.variance, rtol=1e-10)
    # complex variance uses |.|^2 deviations
    np.testing.assert_allclose(
        whole.variance, np.var(data, ddof=1), rtol=1e-10
    )


def test_running_stats_degenerate():
    s = rate.RunningStats()
    s.update(np.zeros((1, 2)))
    assert s.count == 1
    assert np.isnan(s.variance).all()
    s.merge(rate.RunningStats())
    assert s.count == 1


# ------------------------------------------------------------- closed form


def pair_interference(ctx, layout):
    """Per-pair interference I_ki, shape (K, K), from the context terms."""
    return ctx.i_const + ctx.i_coupling * np.abs(rate.los_cross(ctx, layout)) ** 2


def test_f_sq_diagonal_and_symmetry():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.1, 0.3)])
    ctx = rate.closed_form_context(small_scenario(users, m=5))
    layout = np.random.default_rng(2).uniform(-0.3, 0.3, (2, 5))
    fsq = np.abs(rate.los_cross(ctx, layout)) ** 2
    np.testing.assert_allclose(np.diag(fsq), 25.0, rtol=1e-12)
    np.testing.assert_allclose(fsq, fsq.T, rtol=1e-12)


def test_f_sq_aligned_users_hit_m_squared():
    users = users_at([(0.8, 1.1), (0.8, 1.1)], distances=[50.0, 70.0])
    ctx = rate.closed_form_context(small_scenario(users, m=6))
    layout = np.random.default_rng(3).uniform(-0.3, 0.3, (2, 6))
    np.testing.assert_allclose(
        np.abs(rate.los_cross(ctx, layout)) ** 2, np.full((2, 2), 36.0), rtol=1e-12
    )


def test_f_sq_destructive_pair():
    # quarter-wavelength offset between opposite arrivals cancels exactly
    users = users_at([(math.pi / 2, 0.0), (math.pi / 2, math.pi)])
    ctx = rate.closed_form_context(small_scenario(users, m=2))
    layout = np.array([[0.0, 0.025], [0.0, 0.0]])
    fsq = np.abs(rate.los_cross(ctx, layout)) ** 2
    assert fsq[0, 1] == pytest.approx(0.0, abs=1e-20)
    assert fsq[1, 0] == pytest.approx(0.0, abs=1e-20)


def test_context_terms_are_layout_free():
    # the layout enters the SINR only through the interference sum
    users = users_at([(0.4, 0.9), (1.3, 2.2)])
    scn = small_scenario(users)
    ctx = rate.closed_form_context(scn)
    p, s2 = scn.tx_power, scn.noise_power
    zeros = np.zeros((2, 4))
    layout = np.random.default_rng(4).uniform(-0.3, 0.3, (2, 4))
    for lay in (zeros, layout):
        fsq = np.abs(rate.los_cross(ctx, lay)) ** 2
        want = p * ctx.e_signal / (
            p * ctx.e_leak + p * rate._interference_sum(ctx, fsq) + s2 * ctx.e_noise
        )
        np.testing.assert_array_equal(rate.sinr_for(ctx, lay), want)
    assert not np.allclose(
        np.abs(rate.los_cross(ctx, zeros)), np.abs(rate.los_cross(ctx, layout))
    )


def test_signal_is_noise_squared():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 1.5)])
    scn = small_scenario(users, m=7)
    ctx = rate.closed_form_context(scn)
    np.testing.assert_allclose(ctx.e_signal, ctx.e_noise**2, rtol=1e-12)
    for k, u in enumerate(users):
        want = 7 * u.nlos_power * (u.rician + scn.est_gains[k])
        assert ctx.e_noise[k] == pytest.approx(want, rel=1e-12, abs=0)


def test_rayleigh_limit_of_terms():
    # eps = 0 collapses leak and interference to their diffuse-only forms
    users = users_at([(0.4, 0.9), (1.3, 2.2)], rician=0.0)
    scn = small_scenario(users, m=5)
    q = scn.noise_over_taup
    ctx = rate.closed_form_context(scn)
    interference = pair_interference(ctx, np.zeros((2, 5)))
    for k, u in enumerate(users):
        a, c = scn.est_gains[k], u.nlos_power
        assert ctx.e_leak[k] == pytest.approx(a**2 * c * (5 * c + q), rel=1e-9, abs=0)
        for i, v in enumerate(users):
            if i == k:
                continue
            want = a**2 * v.nlos_power * (5 * c + q)
            assert interference[k, i] == pytest.approx(want, rel=1e-9, abs=0)


def test_interference_diagonal_is_zero():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 1.5)])
    ctx = rate.closed_form_context(small_scenario(users))
    np.testing.assert_array_equal(np.diag(pair_interference(ctx, np.zeros((2, 4)))), 0.0)


def test_sinr_decreases_with_extra_interference():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 1.5)])
    ctx = rate.closed_form_context(small_scenario(users))
    layout = np.random.default_rng(5).uniform(-0.3, 0.3, (2, 4))
    base = rate.sinr_for(ctx, layout)
    # scaling both pair weights scales the (0, 1) interference term by 1.5
    i_const, i_coupling = ctx.i_const.copy(), ctx.i_coupling.copy()
    i_const[0, 1] *= 1.5
    i_coupling[0, 1] *= 1.5
    bumped = dataclasses.replace(ctx, i_const=i_const, i_coupling=i_coupling)
    other = rate.sinr_for(bumped, layout)
    assert other[0] < base[0]
    np.testing.assert_allclose(other[1:], base[1:], rtol=1e-12)


def test_vanishing_power_kills_sinr():
    users = users_at([(0.4, 0.9), (1.3, 2.2)])
    quiet = dataclasses.replace(small_scenario(users), tx_power=1e-30)
    ctx = rate.closed_form_context(quiet)
    assert np.all(rate.sinr_for(ctx, np.zeros((2, 4))) < 1e-12)
    assert np.all(rate.rates_for(ctx, np.zeros((2, 4))) < 1e-12)


def test_full_frame_pilots_zero_rate():
    users = users_at([(0.4, 0.9), (1.3, 2.2)])
    scn = small_scenario(users)
    # bypass validation: tau = tau_c means no data symbols at all
    all_pilots = dataclasses.replace(scn, pilot_len=196)
    ctx = rate.closed_form_context(all_pilots)
    assert np.all(rate.sinr_for(ctx, np.zeros((2, 4))) > 0.0)
    np.testing.assert_array_equal(rate.rates_for(ctx, np.zeros((2, 4))), 0.0)
    assert rate.min_rate(np.zeros((2, 4)), all_pilots) == 0.0


def test_single_user_has_no_interference():
    users = users_at([(0.4, 0.9)])
    scn = small_scenario(users, m=6)
    ctx = rate.closed_form_context(scn)
    layout = np.random.default_rng(6).uniform(-0.3, 0.3, (2, 6))
    interference = pair_interference(ctx, layout)
    assert interference.shape == (1, 1)
    assert interference[0, 0] == 0.0
    p, s2 = scn.tx_power, scn.noise_power
    want = p * ctx.e_signal[0] / (p * ctx.e_leak[0] + s2 * ctx.e_noise[0])
    sinr = rate.sinr_for(ctx, layout)
    assert sinr[0] == pytest.approx(want, rel=1e-12)
    # SINR constant in the layout when no other user interferes
    other = rate.sinr_for(ctx, np.zeros((2, 6)))
    assert other[0] == pytest.approx(sinr[0], rel=1e-12)


def test_sinr_for_batches_match_loop(table1_k3):
    ctx = rate.closed_form_context(table1_k3)
    layouts = np.random.default_rng(7).uniform(-0.3, 0.3, (5, 2, 9))
    batch = rate.sinr_for(ctx, layouts)
    assert batch.shape == (5, 3)
    for b in range(5):
        np.testing.assert_allclose(
            batch[b], rate.sinr_for(ctx, layouts[b]), rtol=1e-12
        )
    rb = rate.rates_for(ctx, layouts)
    np.testing.assert_allclose(
        rb, table1_k3.prelog * np.log2(1.0 + batch), rtol=1e-12
    )


@st.composite
def random_problems(draw):
    """A small scenario (K 2-5, M 2-9) with distinct arrivals, and a layout."""
    k, m = draw(st.integers(2, 5)), draw(st.integers(2, 9))
    angle = st.floats(0.2, 2.9)
    angles = [(draw(angle), draw(angle)) for _ in range(k)]
    users = users_at(angles, [draw(st.floats(50.0, 70.0)) for _ in range(k)])
    # users sharing an arrival see position-free cross terms: no slope to check
    dirs = channel.user_directions(users)
    gaps = np.linalg.norm(dirs[:, None] - dirs[None, :], axis=-1)
    assume(gaps[np.triu_indices(k, 1)].min() > 0.05)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return small_scenario(users, m=m), rng.uniform(-0.3, 0.3, (2, m)), rng


@settings(max_examples=100, deadline=None, database=None)
@given(random_problems())
def test_sinr_gradients_match_finite_differences(problem):
    scn, layout, _ = problem
    ctx = rate.closed_form_context(scn)
    h, size = 1e-6, layout.size
    steps = h * np.eye(size).reshape(size, *layout.shape)
    # central differences of every user's SINR, all positions in two batches
    up, down = rate.sinr_for(ctx, layout + steps), rate.sinr_for(ctx, layout - steps)
    fd = ((up - down) / (2 * h)).T.reshape(scn.k_users, *layout.shape)
    analytic = rate.sinr_gradients(ctx, layout)
    err = np.linalg.norm(fd - analytic, axis=(1, 2)) / np.linalg.norm(fd, axis=(1, 2))
    assert np.all(err < 1e-5)


@settings(max_examples=100, deadline=None, database=None)
@given(random_problems())
def test_sinr_invariant_to_translation_and_permutation(problem):
    # the layout enters only through |hbar_k^H hbar_i|^2, which a common
    # phase per user pair and a reordering of the antennas leave unchanged
    scn, layout, rng = problem
    ctx = rate.closed_form_context(scn)
    base = rate.sinr_for(ctx, layout)
    shifted = layout + rng.uniform(-0.3, 0.3, (2, 1))
    np.testing.assert_allclose(rate.sinr_for(ctx, shifted), base, rtol=1e-9)
    permuted = layout[:, rng.permutation(scn.m_antennas)]
    np.testing.assert_allclose(rate.sinr_for(ctx, permuted), base, rtol=1e-9)


def test_min_rate_matches_report(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    rates = rate.rates_for(rate.closed_form_context(table1_k3), layout)
    assert rate.min_rate(layout, table1_k3) == pytest.approx(rates.min(), rel=1e-12)


# ------------------------------------------------------------- Monte Carlo


def test_mc_rejects_tiny_budget(table1_k3):
    with pytest.raises(ValueError, match="trials must be >= 2"):
        rate.mc_uatf_sinr(upa_layout(9, 0.05, 0.6), table1_k3, 1)


def test_mc_deterministic_given_seed(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    a = rate.mc_uatf_sinr(layout, table1_k3, 3000, seed=11)
    b = rate.mc_uatf_sinr(layout, table1_k3, 3000, seed=11)
    np.testing.assert_array_equal(a.desired, b.desired)
    np.testing.assert_array_equal(a.leak, b.leak)
    np.testing.assert_array_equal(a.interf, b.interf)
    np.testing.assert_array_equal(a.noise, b.noise)
    c = rate.mc_uatf_sinr(layout, table1_k3, 3000, seed=12)
    assert not np.array_equal(a.desired, c.desired)


def test_mc_strong_los_limit():
    # huge Rician factor and tiny noise make every trial almost deterministic,
    # so a short run must reproduce the closed form tightly
    noise = 1e-18
    users = tuple(
        derive_user(d, e, a, rician=1e6)
        for d, e, a in [(55.0, 0.5, 0.6), (60.0, 2.0, 1.0)]
    )
    scn = small_scenario(users, m=4, noise_power=noise)
    layout = np.random.default_rng(8).uniform(-0.3, 0.3, (2, 4))
    ctx = rate.closed_form_context(scn)
    est = rate.mc_uatf_sinr(layout, scn, 4000, seed=9)
    fsq = np.abs(rate.los_cross(ctx, layout)) ** 2
    np.testing.assert_allclose(est.desired, ctx.e_signal, rtol=1e-3)
    np.testing.assert_allclose(est.noise, ctx.e_noise, rtol=1e-3)
    np.testing.assert_allclose(
        est.interf, rate._interference_sum(ctx, fsq), rtol=1e-3
    )
    assert np.all(np.abs(est.leak - ctx.e_leak) <= 1e-3 * ctx.e_signal)
    np.testing.assert_allclose(
        rate.mc_sinr(est, scn), rate.sinr_for(ctx, layout), rtol=3e-3
    )


def test_mc_agrees_with_closed_form(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    ctx = rate.closed_form_context(table1_k3)
    est = rate.mc_uatf_sinr(layout, table1_k3, 20_000, seed=7)
    fsq = np.abs(rate.los_cross(ctx, layout)) ** 2
    assert np.all(np.abs(est.desired - ctx.e_signal) <= 4.0 * est.se["desired"])
    assert np.all(np.abs(est.leak - ctx.e_leak) <= 4.0 * est.se["leak"])
    assert np.all(
        np.abs(est.interf - rate._interference_sum(ctx, fsq))
        <= 4.0 * est.se["interf"]
    )
    assert np.all(np.abs(est.noise - ctx.e_noise) <= 4.0 * est.se["noise"])
    np.testing.assert_allclose(
        rate.mc_sinr(est, table1_k3), rate.sinr_for(ctx, layout), rtol=0.02
    )
    np.testing.assert_allclose(
        rate.mc_rates(est, table1_k3), rate.rates_for(ctx, layout), rtol=0.02
    )


def test_mc_error_shrinks_like_root_n(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    small = rate.mc_uatf_sinr(layout, table1_k3, 1_000, seed=5)
    big = rate.mc_uatf_sinr(layout, table1_k3, 100_000, seed=6)
    for key in ("desired", "leak", "interf", "noise"):
        ratio = np.mean(small.se[key] / big.se[key])
        assert 7.0 <= ratio <= 14.0, (key, ratio)


# ------------------------------------------------------------ moment checks


def test_lemma_checks_expected_quartic():
    rep = rate.lemma_checks(3, 200_000, seed=1)
    assert rep.quartic_expected == 12.0
    assert rep.quartic_mean == pytest.approx(12.0, rel=0.01)
    assert rep.ok
    rep1 = rate.lemma_checks(1, 200_000, seed=2)
    assert rep1.quartic_expected == 2.0
    assert rep1.quad_offdiag_sigmas == 0.0
    assert rep1.ok


def test_lemma_checks_off_diagonal_noise():
    rep = rate.lemma_checks(4, 100_000, seed=4)
    assert rep.quad_offdiag_sigmas <= 4.0
    assert rep.bilinear_abs <= 4.0 * rep.bilinear_se
    assert rep.quad_diag_rel_err <= 0.01


def test_lemma_checks_diagonal_judged_in_standard_errors():
    # at this seed tr(A) is near zero, so a relative diagonal error is
    # meaningless; the diagonal must be judged in standard errors
    rep = rate.lemma_checks(9, 100_000, seed=0)
    assert rep.quad_diag_sigmas <= 4.0
    assert rep.ok


def test_lemma_checks_guards():
    with pytest.raises(ValueError, match="m must be >= 1"):
        rate.lemma_checks(0, 100)
    with pytest.raises(ValueError, match="trials must be >= 2"):
        rate.lemma_checks(2, 1)
