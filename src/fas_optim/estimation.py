"""Pilot signalling and per-user LMMSE channel estimation.

Each user gets one column of an orthonormal pilot book (``pilots^H @
pilots = I``), so despreading the pilot block leaves a clean per-user
observation ``obs_k = h_k + n_k`` with noise variance
``noise_power / (pilot_len * tx_power)`` per entry.  The LMMSE estimate
shrinks the observation toward the known LoS mean:

    hhat_k = a_k * obs_k + (1 - a_k) * sqrt(nlos_power * rician) * hbar_k

with a_k the user's LMMSE gain c_k / (c_k + q), c_k = `nlos_power` and
q the pilot noise variance above; the caller passes the gains
(`Scenario.est_gains`).  All functions broadcast over leading axes of
the channel block, so Monte Carlo batches pass through in one call.
"""

from __future__ import annotations

import numpy as np

from .channel import complex_normal
from .scenario import ScenarioError


def make_pilots(pilot_len: int, k_users: int) -> np.ndarray:
    """Orthonormal pilot matrix of shape (pilot_len, k_users).

    Uses the first `k_users` columns of the unitary DFT matrix.  Requires
    pilot_len >= k_users, otherwise columns cannot be orthogonal.
    """
    if pilot_len < k_users:
        raise ScenarioError(
            f"pilot_len < k_users ({pilot_len} < {k_users}): "
            "orthogonal pilots need one column per user"
        )
    t = np.arange(pilot_len)[:, None]
    k = np.arange(k_users)[None, :]
    return np.exp(-2j * np.pi * t * k / pilot_len) / np.sqrt(pilot_len)


def observe_pilots(
    channels: np.ndarray,
    pilots: np.ndarray,
    tx_power: float,
    noise_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Transmit the pilot block and despread, returning per-user observations.

    `channels` has shape (..., M, K).  The receive block is
    ``sqrt(pilot_len * tx_power) * H @ pilots^H + N`` with white noise of
    variance `noise_power` per entry; despreading by `pilots` and the
    pilot energy gives ``H + noise`` of the same shape as `channels`.
    With `noise_power` zero the observation equals the channel exactly.
    """
    channels = np.asarray(channels)
    pilot_len = pilots.shape[0]
    energy = np.sqrt(pilot_len * tx_power)
    block = energy * (channels @ pilots.conj().T)
    if noise_power > 0:
        block = block + np.sqrt(noise_power) * complex_normal(rng, block.shape)
    return (block @ pilots) / energy


def lmmse_estimate(
    obs: np.ndarray, users, gains: np.ndarray, los: np.ndarray
) -> np.ndarray:
    """LMMSE channel estimate from despread observations.

    `obs` and `los` have shape (..., M, K); `los` holds the unit-modulus
    LoS responses.  Per user the estimate blends the observation with the
    LoS mean, weighting the observation by the user's entry of `gains`.
    """
    los_amp = np.sqrt(
        np.array([u.nlos_power for u in users]) * np.array([u.rician for u in users])
    )
    return gains * obs + (1.0 - gains) * los_amp * los
