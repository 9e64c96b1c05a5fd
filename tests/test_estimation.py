"""Pilot design and LMMSE channel estimation."""

import math

import numpy as np
import pytest

from fas_optim import estimation
from fas_optim.channel import complex_normal, los_matrix, sample_channel
from fas_optim.estimation import lmmse_estimate, make_pilots, matmul_rows, observe_pilots
from fas_optim.scenario import UserModel, derive_user
from conftest import make_scenario, users_at


def test_make_pilots_orthonormal_square():
    s = make_pilots(3, 3)
    assert s.shape == (3, 3)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(3), atol=1e-12)


def test_make_pilots_orthonormal_tall():
    s = make_pilots(4, 2)
    assert s.shape == (4, 2)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(s), 1.0 / 2.0, atol=1e-12)


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


@pytest.mark.parametrize("budgets", [(32768, 2048), (40, 7), (1, 1)])
@pytest.mark.parametrize("m", [1, 2, 9])
def test_matmul_rows_is_matmul_bit_for_bit(budgets, m, monkeypatch):
    calls = []
    real = np.matmul

    def recording(part, b, **kw):
        calls.append(len(part))
        return real(part, b, **kw)

    monkeypatch.setattr(estimation, "GEMM_CALL_MACS", budgets[0])
    monkeypatch.setattr(estimation, "GEMV_CALL_MACS", budgets[1])
    monkeypatch.setattr(np, "matmul", recording)
    rng = np.random.default_rng(m)
    stack = complex_normal(rng, (77, m, 5))
    for b in (complex_normal(rng, (5, 3)), complex_normal(rng, (5, 1)), complex_normal(rng, 5)):
        budget = budgets[0] if b.size > 5 else budgets[1]
        for a in (stack, stack[0]):
            calls.clear()
            assert matmul_rows(a, b).tobytes() == (a @ b).tobytes()
            if a.ndim == 3 and m == 1:
                # one-row matrices keep numpy's per-matrix vector path
                assert calls == []
                continue
            rows = a.size // 5
            assert sum(calls) == rows
            # blocks of 2 rows or more, as a one-row block takes the vector path
            assert min(calls) >= min(2, rows)
            assert max(calls) <= max(3, budget // b.size)


def test_lmmse_gain_half_when_powers_match():
    # c = q makes the estimator average the observation and the mean
    q = 3e-13
    eps = 6.0
    user = derive_user(1.0, 0.7, 1.3, UserModel(rician=eps, path_loss_ref=q * (eps + 1.0)))
    scn = make_scenario((user,), m=1, q=q)
    assert user.nlos_power == pytest.approx(q, rel=1e-12, abs=0)
    assert scn.est_gains[0] == pytest.approx(0.5, rel=1e-12, abs=0)
    rng = np.random.default_rng(2)
    obs = complex_normal(rng, (4, 1))
    los = complex_normal(rng, (4, 1))
    est = lmmse_estimate(obs, scn, los)
    los_amp = math.sqrt(user.nlos_power * user.rician)
    np.testing.assert_allclose(est, 0.5 * obs + 0.5 * los_amp * los, rtol=1e-12)


def test_lmmse_tracks_observation_at_high_snr():
    user = derive_user(50.0, 0.7, 1.3)
    rng = np.random.default_rng(3)
    obs = complex_normal(rng, (5, 1))
    los = complex_normal(rng, (5, 1))
    est = lmmse_estimate(obs, make_scenario((user,), m=1, q=1e-18), los)
    np.testing.assert_allclose(est, obs, rtol=1e-6, atol=1e-8)


def test_estimate_mean_is_scaled_los():
    # over the pilot chain, E{hhat} = sqrt(c eps) hbar
    q = 1e-9
    users = users_at([(0.5, 0.6), (2.0, 1.0)], [55.0, 60.0])
    rng = np.random.default_rng(4)
    layout = np.random.default_rng(5).uniform(-0.3, 0.3, (2, 3))
    wavelength = 0.1
    n = 100_000
    tau, p = 2, 1.0
    sigma2 = q * tau * p
    scn, los = make_scenario(users, m=1, q=q), los_matrix(layout, users, wavelength)
    h = sample_channel(los, scn, rng, trials=n)
    obs = observe_pilots(h, make_pilots(tau, 2), p, sigma2, rng)
    gains = scn.est_gains
    est = lmmse_estimate(obs, scn, los)
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
    scn, los = make_scenario((user,), m=1, q=q), los_matrix(layout, (user,), 0.1)
    h = sample_channel(los, scn, rng, trials=n)
    obs = observe_pilots(h, make_pilots(tau, 1), p, sigma2, rng)
    gains = scn.est_gains
    est = lmmse_estimate(obs, scn, los)
    dev = est[:, 0, 0] - est[:, 0, 0].mean()
    var = np.mean(np.abs(dev) ** 2)
    assert var == pytest.approx(gains[0] * user.nlos_power, rel=0.02, abs=0)


def test_estimation_leaves_its_arguments_alone():
    rng = np.random.default_rng(6)
    users = users_at([(0.5, 0.6), (2.0, 1.0)], [55.0, 60.0])
    h = complex_normal(rng, (5, 4, 2))
    los = complex_normal(rng, (4, 2))
    pilots = make_pilots(3, 2)
    args = [h, los, pilots]
    kept = [a.copy() for a in args]
    obs = observe_pilots(h, pilots, 1.0, 1e-3, rng)
    kept_obs = obs.copy()
    lmmse_estimate(obs, make_scenario(users, m=1, q=1e-3 / 3), los)
    for arg, before in zip(args + [obs], kept + [kept_obs]):
        assert arg.tobytes() == before.tobytes()
