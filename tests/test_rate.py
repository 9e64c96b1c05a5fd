"""Closed-form rate terms, the Monte Carlo oracle, and moment checks."""

import copy
import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fas_optim import channel, rate
from fas_optim.scenario import UserModel, derive_user, grid_layout, upa_layout
from conftest import Q, fd_gradient, make_scenario, small_scenarios, users_at


# ---------------------------------------------------------------- statistics


def _numpy_stats(data):
    return data.mean(axis=0), data.std(axis=0, ddof=1) / np.sqrt(len(data))


def test_fold_matches_numpy():
    rng = np.random.default_rng(0)
    real = rng.normal(size=(1000, 3))
    cplx = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
    cuts = [(0, 400), (400, 401), (401, 1000)]
    folded = rate._fold((real[lo:hi], cplx[lo:hi]) for lo, hi in cuts)
    for (mean, se), data in zip(folded, (real, cplx)):
        want_mean, want_se = _numpy_stats(data)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-12)
        np.testing.assert_allclose(se, want_se, rtol=1e-10)


def test_fold_pieces_equal_single_pass():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(500,)) + 1j * rng.normal(size=(500,))
    ((whole_mean, whole_se),) = rate._fold([(data,)])
    ((mean, se),) = rate._fold([(data[:123],), (data[123:],)])
    np.testing.assert_allclose(mean, whole_mean, rtol=1e-12)
    np.testing.assert_allclose(se, whole_se, rtol=1e-10)


# ------------------------------------------------------------- closed form


def los_gram(ctx, layout):
    """Gram matrix hbar_k^H hbar_i of the context's users' LoS responses, (K, K)."""
    steer = channel.steering(ctx.dirs, layout, ctx.wavelength)
    return steer.conj() @ steer.T


def pair_interference(ctx, layout):
    """Per-pair interference I_ki, shape (K, K), from the context terms."""
    return ctx.i_const + ctx.i_coupling * np.abs(los_gram(ctx, layout)) ** 2


def test_f_sq_diagonal_and_symmetry():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.1, 0.3)])
    ctx = rate.closed_form_context(make_scenario(users, m=5))
    layout = np.random.default_rng(2).uniform(-0.3, 0.3, (2, 5))
    fsq = np.abs(los_gram(ctx, layout)) ** 2
    np.testing.assert_allclose(np.diag(fsq), 25.0, rtol=1e-12)
    np.testing.assert_allclose(fsq, fsq.T, rtol=1e-12)


def test_f_sq_aligned_users_hit_m_squared():
    users = users_at([(0.8, 1.1), (0.8, 1.1)], distances=[50.0, 70.0])
    ctx = rate.closed_form_context(make_scenario(users, m=6))
    layout = np.random.default_rng(3).uniform(-0.3, 0.3, (2, 6))
    np.testing.assert_allclose(
        np.abs(los_gram(ctx, layout)) ** 2, np.full((2, 2), 36.0), rtol=1e-12
    )


def test_f_sq_destructive_pair():
    # quarter-wavelength offset between opposite arrivals cancels exactly
    users = users_at([(math.pi / 2, 0.0), (math.pi / 2, math.pi)])
    ctx = rate.closed_form_context(make_scenario(users, m=2))
    layout = np.array([[0.0, 0.025], [0.0, 0.0]])
    fsq = np.abs(los_gram(ctx, layout)) ** 2
    assert fsq[0, 1] == pytest.approx(0.0, abs=1e-20)
    assert fsq[1, 0] == pytest.approx(0.0, abs=1e-20)


def test_context_terms_are_layout_free():
    # the layout enters the SINR only through the interference sum
    users = users_at([(0.4, 0.9), (1.3, 2.2)])
    scn = make_scenario(users)
    ctx = rate.closed_form_context(scn)
    p, s2 = scn.tx_power, scn.noise_power
    zeros = np.zeros((2, 4))
    layout = np.random.default_rng(4).uniform(-0.3, 0.3, (2, 4))
    for lay in (zeros, layout):
        interf = pair_interference(ctx, lay).sum(axis=-1)
        want = p * ctx.e_signal / (p * ctx.e_leak + p * interf + s2 * ctx.e_noise)
        np.testing.assert_array_equal(rate.sinr_for(ctx, lay), want)
        terms = rate.terms_at(ctx, lay)
        np.testing.assert_array_equal(terms.interf, interf)
        np.testing.assert_array_equal(terms.sinr(p, s2), want)
    assert not np.allclose(
        np.abs(los_gram(ctx, zeros)), np.abs(los_gram(ctx, layout))
    )


def test_signal_is_noise_squared():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 1.5)])
    scn = make_scenario(users, m=7)
    ctx = rate.closed_form_context(scn)
    np.testing.assert_allclose(ctx.e_signal, ctx.e_noise**2, rtol=1e-12)
    for k, u in enumerate(users):
        want = 7 * u.nlos_power * (u.rician + scn.est_gains[k])
        assert ctx.e_noise[k] == pytest.approx(want, rel=1e-12, abs=0)


def test_rayleigh_limit_of_terms():
    # eps = 0 collapses leak and interference to their diffuse-only forms
    users = users_at([(0.4, 0.9), (1.3, 2.2)], rician=0.0)
    scn = make_scenario(users, m=5)
    q = scn.noise_over_taup
    ctx = rate.closed_form_context(scn)
    interference = pair_interference(ctx, np.zeros((2, 5)))
    for k, u in enumerate(users):
        a, c = scn.est_gains[k], u.nlos_power
        assert ctx.e_leak[k] == pytest.approx(5 * a**2 * c * (c + q), rel=1e-9, abs=0)
        for i, v in enumerate(users):
            if i == k:
                continue
            want = 5 * a**2 * v.nlos_power * (c + q)
            assert interference[k, i] == pytest.approx(want, rel=1e-9, abs=0)


@settings(max_examples=200, deadline=None, database=None)
@given(
    k=st.integers(1, 6),
    m=st.integers(1, 9),
    ricians=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=6, max_size=6
    ),
    distances=st.lists(st.floats(20.0, 200.0), min_size=6, max_size=6),
    noise_scale=st.floats(-4.0, 4.0),
)
def test_layout_free_terms_match_expanded_form(k, m, ricians, distances, noise_scale):
    # the expectations as derived term by term, before any simplification;
    # every pilot-noise term carries M, as var{a n^H e} = M q a^2 c does
    angles = [(0.3 + 0.4 * i, 0.2 + 0.5 * i) for i in range(k)]
    users = tuple(
        derive_user(d, e, az, UserModel(rician=r))
        for (e, az), d, r in zip(angles, distances, ricians)
    )
    scn = make_scenario(users, m=m, noise_power=Q * k * 10.0**noise_scale)
    ctx = rate.closed_form_context(scn)
    c, eps, a, q = scn.nlos_powers, scn.ricians, scn.est_gains, scn.noise_over_taup
    leak = (
        m**2 * c**2 * eps**2
        + m * c**2 * eps
        + m * a**2 * c**2 * eps
        + a**2 * c**2 * m * (m + 1)
        + q * m * a**2 * c * eps
        + q * m * a**2 * c
        + 2 * m**2 * c**2 * a * eps
        - m**2 * c**2 * (eps + a) ** 2
    )
    ck, ci = c[:, None], c[None, :]
    ek, ei = eps[:, None], eps[None, :]
    ak = a[:, None]
    i_const = (
        m * ck * ci * ek
        + m * ak**2 * ck * ci * ei
        + m * ak**2 * ck * ci
        + q * m * ak**2 * ci * ei
        + q * m * ak**2 * ci
    ) * (1.0 - np.eye(k))
    # the expanded leak cancels (M c eps)^2 against itself, so compare it
    # at the scale of its largest term rather than of the small remainder
    scale = m**2 * c**2 * (eps + a) ** 2
    np.testing.assert_array_less(np.abs(ctx.e_leak - leak), 1e-12 * (leak + scale))
    np.testing.assert_allclose(ctx.i_const, i_const, rtol=1e-12, atol=0)


def test_interference_diagonal_is_zero():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 1.5)])
    ctx = rate.closed_form_context(make_scenario(users))
    np.testing.assert_array_equal(np.diag(pair_interference(ctx, np.zeros((2, 4)))), 0.0)


def test_sinr_decreases_with_extra_interference():
    users = users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 1.5)])
    ctx = rate.closed_form_context(make_scenario(users))
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


@settings(max_examples=200, deadline=None, database=None)
@given(
    angles=st.lists(st.tuples(*[st.floats(0.2, 2.9)] * 2), min_size=1, max_size=6),
    m=st.integers(1, 9),
    rician=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
    distances=st.lists(st.floats(20.0, 200.0), min_size=6, max_size=6),
    noise_scale=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_layout_lifts_a_user_above_its_ceiling(
    angles, m, rician, distances, noise_scale, seed
):
    # each I_ki is D_ki plus a nonnegative coupling term, so the rate under
    # sum_{i != k} D_ki alone caps user k at every layout; 1e-12 allows for
    # log2's rounding on other CPUs
    k = len(angles)
    users = users_at(angles, distances[:k], rician)
    scn = make_scenario(users, m=m, noise_power=Q * k * 10.0**noise_scale)
    ctx = rate.closed_form_context(scn)
    layouts = np.random.default_rng(seed).uniform(-0.3, 0.3, (64, 2, m))
    assert np.all(rate.rates_for(ctx, layouts) <= ctx.ceilings * (1.0 + 1e-12))


def test_vanishing_power_kills_sinr():
    users = users_at([(0.4, 0.9), (1.3, 2.2)])
    quiet = dataclasses.replace(make_scenario(users), tx_power=1e-30)
    ctx = rate.closed_form_context(quiet)
    assert np.all(rate.sinr_for(ctx, np.zeros((2, 4))) < 1e-12)
    assert np.all(rate.rates_for(ctx, np.zeros((2, 4))) < 1e-12)


def test_full_frame_pilots_zero_rate():
    users = users_at([(0.4, 0.9), (1.3, 2.2)])
    scn = make_scenario(users)
    # tau = tau_c means no data symbols at all.  A Scenario rejects that when
    # built, so this one is a copy with the field set past the check.
    all_pilots = copy.copy(scn)
    object.__setattr__(all_pilots, "pilot_len", 196)
    ctx = rate.closed_form_context(all_pilots)
    assert np.all(rate.sinr_for(ctx, np.zeros((2, 4))) > 0.0)
    np.testing.assert_array_equal(rate.rates_for(ctx, np.zeros((2, 4))), 0.0)
    assert rate.min_rate(np.zeros((2, 4)), all_pilots) == 0.0


def test_single_user_has_no_interference():
    users = users_at([(0.4, 0.9)])
    scn = make_scenario(users, m=6)
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
    scn, seed = draw(small_scenarios(k_users=(2, 5), m_antennas=(2, 9), roomy=True))
    # users sharing an arrival see position-free cross terms: no slope to check
    dirs = channel.user_directions(scn.users)
    gaps = np.linalg.norm(dirs[:, None] - dirs[None, :], axis=-1)
    assume(gaps[np.triu_indices(scn.k_users, 1)].min() > 0.05)
    rng = np.random.default_rng(seed)
    return scn, rng.uniform(-0.3, 0.3, (2, scn.m_antennas)), rng


@settings(max_examples=100, deadline=None, database=None)
@given(random_problems())
@example((
    make_scenario(users_at([(0.4, 0.9), (1.3, 2.2), (2.0, 0.6)]), m=5),
    np.random.default_rng(4).uniform(-0.25, 0.25, (2, 5)),
    None,
))
def test_sinr_gradients_match_finite_differences(problem):
    scn, layout, _ = problem
    ctx = rate.closed_form_context(scn)
    fd = fd_gradient(lambda layouts: rate.sinr_for(ctx, layouts), layout)
    analytic = rate.sinr_gradients(ctx, layout)[1]
    err = np.linalg.norm(fd - analytic, axis=(1, 2)) / np.linalg.norm(fd, axis=(1, 2))
    assert np.all(err < 1e-5)


def test_sinr_gradients_sinr_is_sinr_for(table1_k5):
    # the SINR beside the derivative is `sinr_for`'s, bit for bit
    ctx = rate.closed_form_context(table1_k5)
    layouts = np.random.default_rng(3).uniform(-0.3, 0.3, (4, 2, 9))
    np.testing.assert_array_equal(
        rate.sinr_gradients(ctx, layouts)[0], rate.sinr_for(ctx, layouts)
    )


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
    users = users_at([(0.5, 0.6), (2.0, 1.0)], [55.0, 60.0], rician=1e6)
    scn = make_scenario(users, m=4, noise_power=noise)
    layout = np.random.default_rng(8).uniform(-0.3, 0.3, (2, 4))
    ctx = rate.closed_form_context(scn)
    est = rate.mc_uatf_sinr(layout, scn, 4000, seed=9)
    np.testing.assert_allclose(est.desired, ctx.e_signal, rtol=1e-3)
    np.testing.assert_allclose(est.noise, ctx.e_noise, rtol=1e-3)
    np.testing.assert_allclose(
        est.interf, pair_interference(ctx, layout).sum(axis=-1), rtol=1e-3
    )
    assert np.all(np.abs(est.leak - ctx.e_leak) <= 1e-3 * ctx.e_signal)
    np.testing.assert_allclose(
        est.sinr(scn.tx_power, scn.noise_power), rate.sinr_for(ctx, layout), rtol=3e-3
    )


def test_mc_agrees_with_closed_form(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    ctx = rate.closed_form_context(table1_k3)
    est = rate.mc_uatf_sinr(layout, table1_k3, 20_000, seed=7)
    interf = pair_interference(ctx, layout).sum(axis=-1)
    assert np.all(np.abs(est.desired - ctx.e_signal) <= 4.0 * est.se.desired)
    assert np.all(np.abs(est.leak - ctx.e_leak) <= 4.0 * est.se.leak)
    assert np.all(np.abs(est.interf - interf) <= 4.0 * est.se.interf)
    assert np.all(np.abs(est.noise - ctx.e_noise) <= 4.0 * est.se.noise)
    sinr = est.sinr(table1_k3.tx_power, table1_k3.noise_power)
    np.testing.assert_allclose(sinr, rate.sinr_for(ctx, layout), rtol=0.02)
    np.testing.assert_allclose(
        table1_k3.prelog * np.log2(1.0 + sinr), rate.rates_for(ctx, layout), rtol=0.02
    )


def test_mc_error_shrinks_like_root_n(table1_k3):
    layout = upa_layout(9, 0.05, 0.6)
    small = rate.mc_uatf_sinr(layout, table1_k3, 1_000, seed=5)
    big = rate.mc_uatf_sinr(layout, table1_k3, 100_000, seed=6)
    for key in ("desired", "leak", "interf", "noise"):
        ratio = np.mean(getattr(small.se, key) / getattr(big.se, key))
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
    assert rep.quad_diag_sigmas <= 4.0


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


# ------------------------------------------------------- batches on threads

SHORT_LAST_BATCH = 3 * rate.MC_BATCH + 17


def _mc_bits(est):
    """Every value of an oracle estimate, as bytes."""
    fields = [f.name for f in dataclasses.fields(rate.Terms)]
    return [getattr(t, f).tobytes() for t in (est, est.se) for f in fields]


def test_simulation_bits_do_not_depend_on_thread_count(table1_k3, monkeypatch):
    layout = upa_layout(9, 0.05, 0.6)
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("FAS_OPTIM_THREADS", threads)
            est = rate.mc_uatf_sinr(layout, table1_k3, SHORT_LAST_BATCH, seed=4)
            lemma = rate.lemma_checks(3, SHORT_LAST_BATCH, seed=4)
            runs.append((_mc_bits(est), repr(dataclasses.astuple(lemma))))
    finally:
        sys.setswitchinterval(switch)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulation_bits_do_not_depend_on_block_size(table1_k3, monkeypatch, threads):
    # blocks of one trial, of 7 (every batch ends on a short block) and of a
    # whole batch give the default block's bits, over a short last batch;
    # five pilots for three users give the noise its own shape
    monkeypatch.setenv("FAS_OPTIM_THREADS", threads)
    scn = dataclasses.replace(table1_k3, pilot_len=5)
    layout = upa_layout(9, 0.05, 0.6)

    def bits(block, trials):
        monkeypatch.setattr(rate, "MC_BLOCK", block)
        return _mc_bits(rate.mc_uatf_sinr(layout, scn, trials, seed=6))

    few, many, default = 300, rate.MC_BATCH + 300, rate.MC_BLOCK
    assert bits(1, few) == bits(default, few)
    want = bits(default, many)
    assert bits(7, many) == want
    assert bits(rate.MC_BATCH, many) == want


def test_batch_holds_little_beyond_its_channel(table1_k5, monkeypatch):
    # the stream order forces a batch to hold its channel and the real parts
    # of its pilot noise, 1.5 channels here, and the rest lives in blocks;
    # estimating the whole batch at once peaks at 3.5 channels
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    layout = grid_layout(table1_k5)
    rate.mc_uatf_sinr(layout, table1_k5, 16, seed=1)  # warm every cache first
    tracemalloc.start()
    try:
        rate.mc_uatf_sinr(layout, table1_k5, rate.MC_BATCH, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    channel_bytes = rate.MC_BATCH * table1_k5.m_antennas * table1_k5.k_users * 16
    assert peak <= 2.5 * channel_bytes


MULTI_BLOCK = 2 * rate.MC_BATCH + 123
NINE_USERS = [(0.3 + 0.25 * i, 0.2 + 0.33 * i) for i in range(9)]


def test_simulation_bits_pinned_at_nine_users(pin_note):
    # K = pilot_len = M = 9 over three batches, the last one short.  Pinned
    # from per-matrix despreading products and an antenna-major cross term:
    # the row-blocked products and the users-major contraction keep every bit
    scn = make_scenario(users_at(NINE_USERS), m=9)
    est = rate.mc_uatf_sinr(upa_layout(9, 0.05, 0.6), scn, MULTI_BLOCK, seed=5)
    digest = hashlib.md5(b"".join(_mc_bits(est))).hexdigest()
    assert digest == "2f2c6f96335116dae1aeb733ea53dbe9", pin_note


def test_lemma_bits_pinned_at_nine_antennas(pin_note):
    # pinned from one whole-batch zgemv per bilinear factor and per-matrix
    # products with A, before both went through `estimation.matmul_rows`
    rep = rate.lemma_checks(9, MULTI_BLOCK, seed=5)
    digest = hashlib.md5(repr(dataclasses.astuple(rep)).encode()).hexdigest()
    assert digest == "7d4e0a73a101cbcd828115b06ad14684", pin_note


def test_one_batch_starts_no_thread(table1_k3, monkeypatch):
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setenv("FAS_OPTIM_THREADS", "2")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    layout = upa_layout(9, 0.05, 0.6)
    rate.mc_uatf_sinr(layout, table1_k3, rate.MC_BATCH, seed=1)
    rate.lemma_checks(2, rate.MC_BATCH, seed=1)
    with pytest.raises(AssertionError, match="a thread was started"):
        rate.mc_uatf_sinr(layout, table1_k3, rate.MC_BATCH + 1, seed=1)


def test_batch_streams_are_spawned_as_batches_start(monkeypatch):
    # 1e9 trials are 122071 batches; spawning every stream up front took
    # seconds and 121 MB before the first batch ran
    class Counted:
        def __init__(self, rng):
            self.rng, self.spawned = rng, 0

        def spawn(self, n):
            self.spawned += n
            return self.rng.spawn(n)

    def simulate(stream, size):
        raise RuntimeError("first batch failed")

    monkeypatch.setenv("FAS_OPTIM_THREADS", "2")
    rng = Counted(np.random.default_rng(1))
    with pytest.raises(RuntimeError, match="first batch failed"):
        list(rate._batch_results(rng, 10**9, simulate))
    assert rng.spawned <= 2 + 1  # the workers' batches and one queued


def test_batch_error_reaches_caller(table1_k3, monkeypatch):
    boom = RuntimeError("batch 2 failed")
    started = []
    real = channel.sample_channel

    def sample(los, scn, stream, trials):
        batch = stream.bit_generator.seed_seq.spawn_key[-1]
        started.append(batch)
        if batch == 2:
            raise boom
        return real(los, scn, stream, trials=trials)

    monkeypatch.setenv("FAS_OPTIM_THREADS", "2")
    monkeypatch.setattr(channel, "sample_channel", sample)
    caught = []

    def run():
        try:
            rate.mc_uatf_sinr(upa_layout(9, 0.05, 0.6), table1_k3, 8 * rate.MC_BATCH)
        except RuntimeError as exc:
            caught.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=run)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(caught) == 1 and caught[0] is boom
    # two workers keep at most three batches submitted, so batch 2 raises
    # before batch 5 is submitted; the pool's threads are gone
    assert 2 in started and max(started) < 5
    assert threading.active_count() == before
