"""Uplink rate lower bound with MRC over LMMSE estimates.

Closed form
-----------
With Rician statistics the per-user SINR of the use-and-then-forget
bound depends on antenna positions only through the squared LoS
cross-correlations ``|hbar_k^H hbar_i|^2``.  Writing c, eps for the
per-user `nlos_power` and `rician`, a for the LMMSE gain
(`Scenario.est_gains`, c / (c + q)) and M for the array size:

    desired_k = (M c_k (eps_k + a_k))^2
    noise_k   =  M c_k (eps_k + a_k)
    leak_k    =  M^2 c^2 eps^2 + M c^2 eps + M a^2 c^2 eps
               + a^2 c^2 M (M + 1) + q M a^2 c eps + q a^2 c
               + 2 M^2 c^2 a eps - M^2 c^2 (eps + a)^2
    I_ki      =  c_k c_i eps_k eps_i |hbar_k^H hbar_i|^2
               + M c_k c_i eps_k + M a_k^2 c_k c_i eps_i + M a_k^2 c_k c_i
               + q M a_k^2 c_i eps_i + q a_k^2 c_i

with q the per-entry pilot noise variance (noise_over_taup), and

    SINR_k = p desired_k / (p leak_k + p sum_{i != k} I_ki
                            + noise_power * noise_k)

The achievable rate is ``prelog * log2(1 + SINR_k)`` (`achievable_rate`).
Every I_ki is nonnegative, so dropping them bounds every layout's rate
from above; `ClosedFormContext.rate_bound` is that bound for the best user.
`terms_at` gives the four expectations at a batch of layouts as a
`Terms` record, whose `Terms.sinr` is the one place the ratio is
written.  `sinr_for` evaluates it; `sinr_gradients` gives it together
with its derivative w.r.t. the antenna positions from one pass over the
LoS responses, which come from `channel.steering`.

Monte Carlo
-----------
`mc_uatf_sinr` estimates the same four expectations by simulation,
running the full pilot and estimation chain per trial, and returns them
as the same record with standard errors.  It shares no algebra with the
closed form beyond the channel model, so the two act as independent
checks on each other.  Trials run in batches of `MC_BATCH`, each on its
own random stream and on up to `worker_count()` threads; the calling
thread folds their results into `RunningStats` in batch order, so every
estimate is bit-identical for any thread count.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, estimation
from .scenario import Scenario, ScenarioError, worker_count

MC_BATCH = 8192  # trials per simulation batch; part of the reproducibility key


def _batch_results(
    rng: np.random.Generator,
    trials: int,
    simulate: Callable[[np.random.Generator, int], tuple],
) -> Iterator[tuple]:
    """Yield ``simulate(stream, size)`` per batch of `MC_BATCH` trials, in batch order.

    Each batch draws only from its own stream spawned from `rng`, and the
    last may be short, so results depend only on `rng` and `trials`.
    Batches run on `worker_count()` threads, inline when there is one
    batch or one worker, with at most one batch more submitted than there
    are workers, so finished results cannot pile up.  A batch that raises
    cancels the batches not yet started and its exception reaches the caller.
    """
    n = -(-trials // MC_BATCH)
    sizes = [min(MC_BATCH, trials - i * MC_BATCH) for i in range(n)]
    batches = list(zip(rng.spawn(n), sizes))
    workers = min(worker_count(), n)
    if workers == 1:
        for stream, size in batches:
            yield simulate(stream, size)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        ahead: deque[Future] = deque()
        for stream, size in batches:
            ahead.append(pool.submit(simulate, stream, size))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


class RunningStats:
    """Streaming mean and variance over the leading axis, mergeable.

    Batches merge by Chan's update, whose rounding depends on the order of
    the merges, so the simulations fold their batches in batch order: a
    fixed partition of the trial budget then gives bit-identical results
    however many threads computed the batches.  Complex data is allowed;
    deviations are measured with |.|^2.
    """

    def __init__(self):
        self.count = 0
        self.mean = None
        self._m2 = None

    def update(self, batch: np.ndarray) -> "RunningStats":
        """Fold in a batch: its own count, mean and M2, then `merge`."""
        batch = np.asarray(batch)
        if batch.shape[0] == 0:
            return self
        part = RunningStats()
        part.count = batch.shape[0]
        part.mean = batch.mean(axis=0)
        part._m2 = np.sum(np.abs(batch - part.mean) ** 2, axis=0)
        return self.merge(part)

    def merge(self, other: "RunningStats") -> "RunningStats":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self._m2 = (
            self._m2
            + other._m2
            + np.abs(delta) ** 2 * (self.count * other.count / total)
        )
        self.count = total
        return self

    @property
    def variance(self) -> np.ndarray:
        if self.count < 2:
            return np.full_like(np.asarray(self._m2, dtype=float), np.nan)
        return self._m2 / (self.count - 1)

    def sem(self) -> np.ndarray:
        """Standard error of the running mean."""
        return np.sqrt(self.variance / self.count)


@dataclass(frozen=True)
class Terms:
    """The four expectations of every user's SINR, each shaped (..., K)."""

    desired: np.ndarray   # |E{hhat_k^H h_k}|^2
    leak: np.ndarray      # var{hhat_k^H h_k}
    interf: np.ndarray    # sum_{i != k} E{|hhat_k^H h_i|^2}
    noise: np.ndarray     # E{||hhat_k||^2}

    def denominator(self, tx_power: float, noise_power: float) -> np.ndarray:
        p = tx_power
        return p * self.leak + p * self.interf + noise_power * self.noise

    def sinr(self, tx_power: float, noise_power: float) -> np.ndarray:
        """The use-and-then-forget SINR: p desired over the denominator."""
        return tx_power * self.desired / self.denominator(tx_power, noise_power)


@dataclass(frozen=True)
class ClosedFormContext:
    """Layout-independent pieces of the SINR, precomputed per scenario."""

    wavelength: float
    tx_power: float
    noise_power: float
    prelog: float
    dirs: np.ndarray        # (K, 2) user direction pairs
    e_signal: np.ndarray    # (K,)
    e_noise: np.ndarray     # (K,)
    e_leak: np.ndarray      # (K,)
    i_const: np.ndarray     # (K, K) layout-free interference, zero diagonal
    i_coupling: np.ndarray  # (K, K) weight on |hbar_k^H hbar_i|^2, zero diagonal
    rate_bound: float       # interference-free rate of the best user; no layout reaches above


@functools.lru_cache(maxsize=8)
def closed_form_context(scn: Scenario) -> ClosedFormContext:
    """The closed-form evaluator of `scn`, built once and shared.

    Memoised per (hashable, frozen) scenario, so every caller asking for
    the same scenario gets the same object; its arrays are read-only.
    """
    m = scn.m_antennas
    c, eps, a, q = scn.nlos_powers, scn.ricians, scn.est_gains, scn.noise_over_taup

    e_noise = m * c * (eps + a)
    e_signal = e_noise**2
    e_leak = (
        m**2 * c**2 * eps**2
        + m * c**2 * eps
        + m * a**2 * c**2 * eps
        + a**2 * c**2 * m * (m + 1)
        + q * m * a**2 * c * eps
        + q * a**2 * c
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
        + q * ak**2 * ci
    )
    i_coupling = ck * ci * ek * ei
    off = 1.0 - np.eye(len(c))
    arrays = dict(
        dirs=channel.user_directions(scn.users),
        e_signal=e_signal,
        e_noise=e_noise,
        e_leak=e_leak,
        i_const=i_const * off,
        i_coupling=i_coupling * off,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    free_sinr = Terms(e_signal, e_leak, 0.0, e_noise).sinr(scn.tx_power, scn.noise_power)
    return ClosedFormContext(
        wavelength=scn.wavelength,
        tx_power=scn.tx_power,
        noise_power=scn.noise_power,
        prelog=scn.prelog,
        rate_bound=float(achievable_rate(scn.prelog, free_sinr.max())),
        **arrays,
    )


def _gram(steer: np.ndarray) -> np.ndarray:
    """Gram matrix of LoS responses `steer` (..., K, M), shape (..., K, K)."""
    return np.einsum("...km,...im->...ki", steer.conj(), steer)


def los_cross(ctx: ClosedFormContext, layouts: np.ndarray) -> np.ndarray:
    """Gram matrix of LoS responses, shape (..., K, K); diagonal equals M."""
    return _gram(channel.steering(ctx.dirs, layouts, ctx.wavelength))


def _terms(ctx: ClosedFormContext, fsq: np.ndarray) -> Terms:
    """Closed-form terms from `fsq` (..., K, K), the ``|hbar_k^H hbar_i|^2``."""
    interf = np.sum(ctx.i_const + ctx.i_coupling * fsq, axis=-1)
    return Terms(ctx.e_signal, ctx.e_leak, interf, ctx.e_noise)


def terms_at(ctx: ClosedFormContext, layouts: np.ndarray) -> Terms:
    """Closed-form terms of every user for a batch of layouts, (..., K)."""
    return _terms(ctx, np.abs(los_cross(ctx, layouts)) ** 2)


def sinr_for(ctx: ClosedFormContext, layouts: np.ndarray) -> np.ndarray:
    """Closed-form SINR of every user for a batch of layouts, (..., K)."""
    return terms_at(ctx, layouts).sinr(ctx.tx_power, ctx.noise_power)


def sinr_gradients(
    ctx: ClosedFormContext, layouts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every user's SINR (..., K) and its derivatives w.r.t. positions (..., K, 2, M).

    Both come from one `channel.steering` call; the SINR equals `sinr_for`
    bit for bit.  Positions enter only through the LoS cross terms, so the
    derivative routes through d|f_ki|^2 = 2 Re{(df_ki) conj(f_ki)} with
    df_ki/dt_u = j (2 pi / wavelength) (dir_i - dir_k) conj(e_k(t_u)) e_i(t_u).
    """
    wavenum = 2.0 * np.pi / ctx.wavelength
    steer = channel.steering(ctx.dirs, layouts, ctx.wavelength)
    sinr = _terms(ctx, np.abs(_gram(steer)) ** 2).sinr(ctx.tx_power, ctx.noise_power)
    # not _gram: its einsum differs in the last bits and changes trajectories
    gram = steer.conj() @ np.swapaxes(steer, -1, -2)  # (..., K, K) LoS cross terms
    denom = _terms(ctx, np.abs(gram) ** 2).denominator(ctx.tx_power, ctx.noise_power)

    diff_dir = ctx.dirs[None, :, :] - ctx.dirs[:, None, :]                # (K, K, 2)
    cross = steer.conj()[..., :, None, :] * steer[..., None, :, :]        # (..., K, K, M)
    dgram = 1j * wavenum * diff_dir[..., None] * cross[..., None, :]
    dfsq = 2.0 * np.real(dgram * gram.conj()[..., None, None])           # (..., K, K, 2, M)
    dinterf = np.sum(ctx.i_coupling[:, :, None, None] * dfsq, axis=-3)
    p = ctx.tx_power
    return sinr, -(p**2) * ctx.e_signal[:, None, None] * dinterf / (denom**2)[..., None, None]


def achievable_rate(prelog: float, sinr: np.ndarray) -> np.ndarray:
    """Rate in bit/s/Hz at `sinr`: prelog * log2(1 + SINR)."""
    return prelog * np.log2(1.0 + sinr)


def rates_from_steering(ctx: ClosedFormContext, steer: np.ndarray) -> np.ndarray:
    """Per-user rate lower bound from the LoS responses `steer` (..., K, M)."""
    sinr = _terms(ctx, np.abs(_gram(steer)) ** 2).sinr(ctx.tx_power, ctx.noise_power)
    return achievable_rate(ctx.prelog, sinr)


def rates_for(ctx: ClosedFormContext, layouts: np.ndarray) -> np.ndarray:
    """Per-user rate lower bound in bit/s/Hz for a batch of layouts."""
    return rates_from_steering(ctx, channel.steering(ctx.dirs, layouts, ctx.wavelength))


def min_rate(layout: np.ndarray, scn: Scenario) -> float:
    """Smallest per-user rate of the layout under the closed-form bound."""
    return float(rates_for(closed_form_context(scn), np.asarray(layout)).min())


@dataclass(frozen=True)
class McEstimate(Terms):
    """Simulated values of the four SINR expectations with standard errors."""

    trials: int
    se: Terms


def mc_uatf_sinr(
    layout: np.ndarray, scn: Scenario, trials: int, seed=None
) -> McEstimate:
    """Estimate the SINR expectations by simulating the estimation chain.

    Each trial draws a fresh channel and pilot noise, runs despreading
    and LMMSE estimation, and accumulates the combiner statistics.
    Trials are processed in fixed batches of `MC_BATCH`, on up to
    `worker_count()` threads; results are deterministic given `seed` (an
    int or a Generator) and do not depend on the thread count.

    The leak term is the variance of ``z_k = hhat_k^H h_k``; its standard
    error comes from the influence function of the variance statistic,
    centered with a first-batch pilot mean.
    """
    if trials < 2:
        raise ScenarioError(f"trials must be >= 2, got {trials}")
    rng = np.random.default_rng(scn.hyper.seed if seed is None else seed)

    hbar = channel.los_matrix(layout, scn.users, scn.wavelength)
    pilots = estimation.make_pilots(scn.pilot_len, scn.k_users)

    s_z = RunningStats()       # complex cross term z_k
    s_zsq = RunningStats()     # |z_k|^2
    s_w = RunningStats()       # influence values for the leak variance
    s_int = RunningStats()
    s_noise = RunningStats()
    pilot_mean = None

    def simulate(stream, b):
        h = channel.sample_channel(hbar, scn, stream, trials=b)
        obs = estimation.observe_pilots(
            h, pilots, scn.tx_power, scn.noise_power, stream
        )
        hhat = estimation.lmmse_estimate(obs, scn, hbar)
        del obs
        cross = np.einsum("bmk,bmi->bki", hhat.conj(), h)
        z = np.einsum("bkk->bk", cross).copy()  # a view would keep `cross` alive
        interf = (np.abs(cross) ** 2).sum(axis=-1) - np.abs(z) ** 2
        return z, interf, np.sum(np.abs(hhat) ** 2, axis=1)

    for z, interf, norms in _batch_results(rng, trials, simulate):
        if pilot_mean is None:
            pilot_mean = z.mean(axis=0)
        zsq = np.abs(z) ** 2
        s_z.update(z)
        s_zsq.update(zsq)
        s_w.update(zsq - 2.0 * np.real(pilot_mean.conj() * z))
        s_int.update(interf)
        s_noise.update(norms)

    mean_z = s_z.mean
    desired = np.abs(mean_z) ** 2
    leak = s_zsq.mean - desired
    se = Terms(
        desired=2.0 * np.abs(mean_z) * s_z.sem(),
        leak=s_w.sem(),
        interf=s_int.sem(),
        noise=s_noise.sem(),
    )
    return McEstimate(
        desired=desired,
        leak=leak,
        interf=s_int.mean,
        noise=s_noise.mean,
        trials=trials,
        se=se,
    )


@dataclass(frozen=True)
class LemmaReport:
    """Sampled checks of the Gaussian moment identities behind the bound."""

    m: int
    trials: int
    quartic_mean: float        # E ||htilde||^4
    quartic_expected: float    # M^2 + M
    quartic_se: float
    bilinear_abs: float        # |E{(u1^H htilde)(u2^H htilde)}|
    bilinear_se: float
    quad_diag_rel_err: float   # E{X A X^H} diagonal vs tr(A), relative to |tr(A)|
    quad_diag_sigmas: float    # diagonal deviation from tr(A) in SEs
    quad_offdiag_sigmas: float # off-diagonal deviation from 0 in SEs
    ok: bool


def lemma_checks(m: int, trials: int, seed=0) -> LemmaReport:
    """Verify the moment identities used by the closed form, by sampling.

    Checks, for htilde with i.i.d. unit-variance circular entries:
    E ||htilde||^4 = M^2 + M, E{(u1^H htilde)(u2^H htilde)} = 0 for fixed
    unit vectors, and E{X A X^H} = tr(A) I for a fixed square A.
    """
    if m < 1:
        raise ScenarioError(f"m must be >= 1, got {m}")
    if trials < 2:
        raise ScenarioError(f"trials must be >= 2, got {trials}")
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v)

    u1 = unit(channel.complex_normal(rng, m))
    u2 = unit(channel.complex_normal(rng, m))
    n_side = m + 2
    raw = channel.complex_normal(rng, (n_side, n_side))
    a_mat = (raw + raw.conj().T) / 2.0  # random Hermitian, real trace
    trace_a = float(np.trace(a_mat).real)

    s_quart = RunningStats()
    s_bilin = RunningStats()
    s_quad = RunningStats()

    def simulate(stream, b):
        ht = channel.complex_normal(stream, (b, m))
        quart = np.sum(np.abs(ht) ** 2, axis=1) ** 2
        bilin = (ht @ u1.conj()) * (ht @ u2.conj())
        x = channel.complex_normal(stream, (b, m, n_side))
        return quart, bilin, x @ a_mat @ x.conj().swapaxes(-1, -2)

    for quart, bilin, quad in _batch_results(rng, trials, simulate):
        s_quart.update(quart)
        s_bilin.update(bilin)
        s_quad.update(quad)

    expected = float(m**2 + m)
    quad_mean = s_quad.mean
    quad_se = s_quad.sem()
    diag = np.abs(np.diagonal(quad_mean) - trace_a)
    # reported only: tr(A) of a random Hermitian A can sit near zero
    diag_rel = float(diag.max() / np.abs(trace_a))
    diag_sig = float((diag / np.diagonal(quad_se)).max())
    off_mask = ~np.eye(m, dtype=bool)
    if m > 1:
        off_sig = float(
            (np.abs(quad_mean[off_mask]) / quad_se[off_mask]).max()
        )
    else:
        off_sig = 0.0
    quartic_mean = float(s_quart.mean)
    quartic_se = float(s_quart.sem())
    bilinear_abs = float(np.abs(s_bilin.mean))
    bilinear_se = float(s_bilin.sem())
    ok = (
        abs(quartic_mean - expected) <= 0.01 * expected
        and bilinear_abs <= 4.0 * bilinear_se
        and diag_sig <= 4.0
        and off_sig <= 4.0
    )
    return LemmaReport(
        m=m,
        trials=trials,
        quartic_mean=quartic_mean,
        quartic_expected=expected,
        quartic_se=quartic_se,
        bilinear_abs=bilinear_abs,
        bilinear_se=bilinear_se,
        quad_diag_rel_err=diag_rel,
        quad_diag_sigmas=diag_sig,
        quad_offdiag_sigmas=off_sig,
        ok=ok,
    )
