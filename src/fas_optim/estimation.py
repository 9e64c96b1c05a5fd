"""Pilot signalling and per-user LMMSE channel estimation.

Each user gets one column of an orthonormal pilot book (``pilots^H @
pilots = I``), so despreading the pilot block leaves a clean per-user
observation ``obs_k = h_k + n_k`` with noise variance
``noise_power / (pilot_len * tx_power)`` per entry.  The LMMSE estimate
shrinks the observation toward the known LoS mean:

    hhat_k = a_k * obs_k + (1 - a_k) * sqrt(nlos_power * rician) * hbar_k

with a_k the user's LMMSE gain c_k / (c_k + q), c_k = `nlos_power` and
q the pilot noise variance above; the gains and LoS amplitudes come from
the scenario (`Scenario.est_gains`, `los_amps`).  All functions broadcast
over leading axes of the channel block, so Monte Carlo batches, or any
block of their trials, pass through.  They are pure: none draws random
numbers, so the caller passes the pilot noise to `observe_pilots` and
alone decides the order its stream is read in (`rate.mc_uatf_sinr`).
"""

from __future__ import annotations

import numpy as np


# Most multiply-adds (rows x inner x cols) per BLAS call in `matmul_rows`.
# OpenBLAS 0.3.31 spreads a zgemm over its threads from 65536 and a zgemv
# (one right-hand column) from 4096: on 2 cores (2600, 5) @ (5, 5) and
# (455, 9) @ (9,) ran on one core, (2700, 5) @ (5, 5) and (456, 9) @ (9,)
# on two.  Its threads then spin beside the oracle's own.  Half of each
# leaves a margin.
GEMM_CALL_MACS = 32768
GEMV_CALL_MACS = 2048


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a stack of matrices `a` (..., m, n) and one `b`, (n, p) or (n,).

    The rows of all of `a`'s matrices go through a few 2-D products, in even
    blocks of at least 3 rows under the budget of numpy's kernel for `b`,
    so OpenBLAS runs none on its threads.  Numpy sends every block to the
    kernel it sends each matrix, so the result equals ``a @ b`` bit for bit;
    a one-row product takes its vector path instead, so a stack of one-row
    matrices keeps the plain ``a @ b``.
    """
    if a.ndim > 2 and a.shape[-2] == 1:
        return a @ b
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty(rows.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    budget = GEMM_CALL_MACS if b.size > b.shape[0] else GEMV_CALL_MACS
    blocks = max(1, -(-len(rows) // max(3, budget // b.size)))
    for part, dest in zip(np.array_split(rows, blocks), np.array_split(out, blocks)):
        np.matmul(part, b, out=dest)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def make_pilots(pilot_len: int, k_users: int) -> np.ndarray:
    """Orthonormal pilot matrix of shape (pilot_len, k_users).

    Uses the first `k_users` columns of the unitary DFT matrix.  Requires
    pilot_len >= k_users for orthogonal columns, as every `Scenario` does.
    """
    t = np.arange(pilot_len)[:, None]
    k = np.arange(k_users)[None, :]
    return np.exp(-2j * np.pi * t * k / pilot_len) / np.sqrt(pilot_len)


def observe_pilots(
    channels: np.ndarray,
    pilots: np.ndarray,
    tx_power: float,
    noise_power: float,
    noise: np.ndarray,
) -> np.ndarray:
    """Transmit the pilot block and despread, returning per-user observations.

    `channels` has shape (..., M, K) and `noise` (..., M, pilot_len): unit
    circular complex Gaussian entries, such as `channel.complex_normal`
    draws.  The receive block is ``sqrt(pilot_len * tx_power) * H @
    pilots^H + sqrt(noise_power) * noise``; despreading by `pilots` and the
    pilot energy gives ``H + noise`` of the same shape as `channels`.  The
    function draws nothing and leaves its arguments alone.  Both products
    go through `matmul_rows`, so a block of Monte Carlo trials makes a few
    BLAS calls, none threaded by OpenBLAS, instead of one per trial.
    """
    channels = np.asarray(channels)
    energy = np.sqrt(pilots.shape[0] * tx_power)
    block = matmul_rows(channels, pilots.conj().T)
    block *= energy
    block += np.sqrt(noise_power) * noise
    obs = matmul_rows(block, pilots)
    obs /= energy
    return obs


def lmmse_estimate(obs: np.ndarray, scn, los: np.ndarray) -> np.ndarray:
    """LMMSE channel estimate from despread observations of `scn`'s users.

    `obs` and `los` have shape (..., M, K); `los` holds the unit-modulus
    LoS responses.  Per user the estimate blends the observation with the
    LoS mean, weighting the observation by the user's LMMSE gain.
    """
    gains = scn.est_gains
    est = gains * obs
    est += (1.0 - gains) * scn.los_amps * los
    return est
