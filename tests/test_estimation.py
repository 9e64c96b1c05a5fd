"""Pilot design and LMMSE channel estimation."""

import math

import numpy as np
import pytest

from fas_optim.channel import complex_normal, los_matrix, sample_channel
from fas_optim.estimation import lmmse_estimate, make_pilots, observe_pilots
from fas_optim.scenario import Scenario, ScenarioError, derive_user


def gains_at(users, q):
    """The scenario's LMMSE gains for `users` at pilot noise variance `q`."""
    k = len(users)
    return Scenario(
        m_antennas=1, k_users=k, wavelength=0.1, region_size=0.6, d_min=0.05,
        tx_power=1.0, noise_power=q * k, coherence_len=196, pilot_len=k,
        users=users,
    ).est_gains


def test_make_pilots_orthonormal_square():
    s = make_pilots(3, 3)
    assert s.shape == (3, 3)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(3), atol=1e-12)


def test_make_pilots_orthonormal_tall():
    s = make_pilots(4, 2)
    assert s.shape == (4, 2)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(s), 1.0 / 2.0, atol=1e-12)


def test_make_pilots_rejects_short():
    with pytest.raises(ScenarioError, match=r"pilot_len < k_users \(1 < 2\)"):
        make_pilots(1, 2)


def test_observe_pilots_noiseless_is_exact():
    rng = np.random.default_rng(0)
    h = complex_normal(rng, (6, 3))
    pilots = make_pilots(4, 3)
    obs = observe_pilots(h, pilots, tx_power=2.0, noise_power=0.0, rng=rng)
    np.testing.assert_allclose(obs, h, atol=1e-12)


def test_observe_pilots_noise_level():
    # despreading leaves white noise of variance sigma^2 / (tau p) per entry
    rng = np.random.default_rng(1)
    n, tau, p, sigma2 = 400_000, 3, 2.0, 0.5
    h = np.zeros((n, 1, 2), dtype=complex)
    obs = observe_pilots(h, make_pilots(tau, 2), p, sigma2, rng)
    q = sigma2 / (tau * p)
    for k in range(2):
        var = np.mean(np.abs(obs[:, 0, k]) ** 2)
        assert var == pytest.approx(q, rel=0.02, abs=0)
    cross = np.mean(obs[:, 0, 0] * obs[:, 0, 1].conj())
    assert abs(cross) <= 4.0 * q / math.sqrt(n)


def test_lmmse_gain_half_when_powers_match():
    # c = q makes the estimator average the observation and the mean
    q = 3e-13
    eps = 6.0
    user = derive_user(1.0, 0.7, 1.3, rician=eps, path_loss_ref=q * (eps + 1.0))
    gains = gains_at((user,), q)
    assert user.nlos_power == pytest.approx(q, rel=1e-12, abs=0)
    assert gains[0] == pytest.approx(0.5, rel=1e-12, abs=0)
    rng = np.random.default_rng(2)
    obs = complex_normal(rng, (4, 1))
    los = complex_normal(rng, (4, 1))
    est = lmmse_estimate(obs, (user,), gains, los)
    los_amp = math.sqrt(user.nlos_power * user.rician)
    np.testing.assert_allclose(est, 0.5 * obs + 0.5 * los_amp * los, rtol=1e-12)


def test_lmmse_tracks_observation_at_high_snr():
    user = derive_user(50.0, 0.7, 1.3)
    rng = np.random.default_rng(3)
    obs = complex_normal(rng, (5, 1))
    los = complex_normal(rng, (5, 1))
    est = lmmse_estimate(obs, (user,), gains_at((user,), 1e-18), los)
    np.testing.assert_allclose(est, obs, rtol=1e-6, atol=1e-8)


def test_estimate_mean_is_scaled_los():
    # over the pilot chain, E{hhat} = sqrt(c eps) hbar
    q = 1e-9
    users = tuple(
        derive_user(d, e, a) for d, e, a in [(55.0, 0.5, 0.6), (60.0, 2.0, 1.0)]
    )
    rng = np.random.default_rng(4)
    layout = np.random.default_rng(5).uniform(-0.3, 0.3, (2, 3))
    wavelength = 0.1
    n = 100_000
    tau, p = 2, 1.0
    sigma2 = q * tau * p
    h = sample_channel(layout, users, wavelength, rng, trials=n)
    obs = observe_pilots(h, make_pilots(tau, 2), p, sigma2, rng)
    los = los_matrix(layout, users, wavelength)
    gains = gains_at(users, q)
    est = lmmse_estimate(obs, users, gains, los)
    for k, u in enumerate(users):
        mean = est[:, :, k].mean(axis=0)
        expected = math.sqrt(u.nlos_power * u.rician) * los[:, k]
        se = math.sqrt(gains[k] * u.nlos_power / n)
        assert np.abs(mean - expected).max() <= 4.0 * se


def test_estimate_variance_is_gain_scaled():
    # var(hhat entry) = a^2 (c + q) = a c
    q = 1e-9
    user = derive_user(55.0, 0.5, 0.6)
    rng = np.random.default_rng(6)
    layout = np.zeros((2, 1))
    n = 200_000
    tau, p = 1, 1.0
    sigma2 = q * tau * p
    h = sample_channel(layout, (user,), 0.1, rng, trials=n)
    obs = observe_pilots(h, make_pilots(tau, 1), p, sigma2, rng)
    los = los_matrix(layout, (user,), 0.1)
    gains = gains_at((user,), q)
    est = lmmse_estimate(obs, (user,), gains, los)
    dev = est[:, 0, 0] - est[:, 0, 0].mean()
    var = np.mean(np.abs(dev) ** 2)
    assert var == pytest.approx(gains[0] * user.nlos_power, rel=0.02, abs=0)
