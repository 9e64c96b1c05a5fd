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
    D_ki      =  M c_k (c_i eps_k + a_k beta_i)
    I_ki      =  D_ki + c_k c_i eps_k eps_i |hbar_k^H hbar_i|^2    (i != k)

with beta = c (eps + 1) the path loss.  The diagonal D_kk is the leak
var{hhat_k^H h_k} and the off-diagonal D_ki the layout-free part of the
interference; the pilot noise q (noise_over_taup) enters them only
through a, by a (c + q) = c.  Then

    SINR_k = p desired_k / (p D_kk + p sum_{i != k} I_ki
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
thread folds their results with `_fold` in batch order, so every
estimate is bit-identical for any thread count.  Every BLAS call of a
batch, `lemma_checks` included, goes through `estimation.matmul_rows`,
which keeps it too small for OpenBLAS to spread over its own threads:
those would spin and contend with the batch threads.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Callable, Iterable, Iterator
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

    Each batch draws only from its own stream, spawned from `rng` as it is
    submitted; the last may be short.  Results depend only on `rng` and `trials`.
    Batches run on `worker_count()` threads, inline when there is one
    batch or one worker, with at most one batch more submitted than there
    are workers, so finished results cannot pile up.  A batch that raises
    cancels the batches not yet started and its exception reaches the caller.
    Fewer than 2 trials leave no standard error, so they raise `ScenarioError`.
    """
    if trials < 2:
        raise ScenarioError(f"trials must be >= 2, got {trials}")
    n = -(-trials // MC_BATCH)
    # spawned one by one as batches start: spawn(1) n times gives spawn(n)'s streams
    batches = ((rng.spawn(1)[0], min(MC_BATCH, trials - i * MC_BATCH)) for i in range(n))
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


def _fold(batches: Iterable[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean and standard error over the leading axis of every array of the batches.

    `batches` yields one tuple of arrays per batch, trials on the leading
    axis.  Each batch is folded in by Chan's update, whose rounding depends
    on the order of the folds, so batches fold in the order they come: a
    fixed partition of the trial budget then gives bit-identical results
    however many threads computed the batches.  Complex data is allowed;
    deviations are measured with |.|^2.
    """
    folded = None
    for batch in batches:
        moments = []
        for data in batch:
            mean = data.mean(axis=0)
            moments.append((len(data), mean, np.sum(np.abs(data - mean) ** 2, axis=0)))
        del batch, data  # free the batch before the next one is drawn
        if folded is not None:
            for i, ((n, mean, m2), (b, b_mean, b_m2)) in enumerate(zip(folded, moments)):
                delta = b_mean - mean
                moments[i] = (
                    n + b,
                    mean + delta * (b / (n + b)),
                    m2 + b_m2 + np.abs(delta) ** 2 * (n * b / (n + b)),
                )
        folded = moments
    return [(mean, np.sqrt(m2 / (n - 1) / n)) for n, mean, m2 in folded]


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
    c, eps, a = scn.nlos_powers, scn.ricians, scn.est_gains
    path_loss = c * (eps + 1.0)

    e_noise = m * c * (eps + a)
    e_signal = e_noise**2
    ck, ek = c[:, None], eps[:, None]
    # D_ki: the leak on the diagonal, layout-free interference off it
    d = m * ck * (c * ek + a[:, None] * path_loss)
    e_leak = np.diag(d).copy()
    off = 1.0 - np.eye(len(c))
    arrays = dict(
        dirs=channel.user_directions(scn.users),
        e_signal=e_signal,
        e_noise=e_noise,
        e_leak=e_leak,
        i_const=d * off,
        i_coupling=ck * c * ek * eps * off,
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


def _terms(ctx: ClosedFormContext, steer: np.ndarray) -> tuple[Terms, np.ndarray]:
    """Closed-form terms of LoS responses `steer` (..., K, M), and their Gram (..., K, K)."""
    gram = steer.conj() @ np.swapaxes(steer, -1, -2)
    interf = np.sum(ctx.i_const + ctx.i_coupling * np.abs(gram) ** 2, axis=-1)
    return Terms(ctx.e_signal, ctx.e_leak, interf, ctx.e_noise), gram


def terms_at(ctx: ClosedFormContext, layouts: np.ndarray) -> Terms:
    """Closed-form terms of every user for a batch of layouts, (..., K)."""
    return _terms(ctx, channel.steering(ctx.dirs, layouts, ctx.wavelength))[0]


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
    terms, gram = _terms(ctx, steer)                                      # gram (..., K, K)
    denom = terms.denominator(ctx.tx_power, ctx.noise_power)

    diff_dir = ctx.dirs[None, :, :] - ctx.dirs[:, None, :]                # (K, K, 2)
    cross = steer.conj()[..., :, None, :] * steer[..., None, :, :]        # (..., K, K, M)
    dgram = 1j * wavenum * diff_dir[..., None] * cross[..., None, :]
    dfsq = 2.0 * np.real(dgram * gram.conj()[..., None, None])           # (..., K, K, 2, M)
    dinterf = np.sum(ctx.i_coupling[:, :, None, None] * dfsq, axis=-3)
    p = ctx.tx_power
    dsinr = -(p**2) * ctx.e_signal[:, None, None] * dinterf / (denom**2)[..., None, None]
    return terms.sinr(p, ctx.noise_power), dsinr


def achievable_rate(prelog: float, sinr: np.ndarray) -> np.ndarray:
    """Rate in bit/s/Hz at `sinr`: prelog * log2(1 + SINR)."""
    return prelog * np.log2(1.0 + sinr)


def rates_from_steering(ctx: ClosedFormContext, steer: np.ndarray) -> np.ndarray:
    """Per-user rate lower bound from the LoS responses `steer` (..., K, M)."""
    sinr = _terms(ctx, steer)[0].sinr(ctx.tx_power, ctx.noise_power)
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
    rng = np.random.default_rng(scn.hyper.seed if seed is None else seed)

    hbar = channel.los_matrix(layout, scn.users, scn.wavelength)
    pilots = estimation.make_pilots(scn.pilot_len, scn.k_users)

    def simulate(stream, b):
        h = channel.sample_channel(hbar, scn, stream, trials=b)
        obs = estimation.observe_pilots(
            h, pilots, scn.tx_power, scn.noise_power, stream
        )
        hhat = estimation.lmmse_estimate(obs, scn, hbar)
        del obs
        norms = np.sum(np.abs(hhat) ** 2, axis=1)
        # users-major copies put each user's antennas side by side; each
        # source is freed once copied, so no more batch arrays live at once
        hhat_t = np.conjugate(hhat.swapaxes(1, 2), order="C")
        del hhat
        h_t = np.ascontiguousarray(h.swapaxes(1, 2))
        del h
        cross = np.einsum("bkm,bim->bki", hhat_t, h_t)
        del hhat_t, h_t
        z = np.einsum("bkk->bk", cross).copy()  # a view would keep `cross` alive
        interf = (np.abs(cross) ** 2).sum(axis=-1) - np.abs(z) ** 2
        return z, interf, norms

    def statistics():
        """Per batch: z_k, |z_k|^2, the leak's influence values, interference, norms."""
        pilot_mean = None
        for z, interf, norms in _batch_results(rng, trials, simulate):
            if pilot_mean is None:
                pilot_mean = z.mean(axis=0)
            zsq = np.abs(z) ** 2
            yield z, zsq, zsq - 2.0 * np.real(pilot_mean.conj() * z), interf, norms
            del z, zsq, interf, norms  # free the batch before the next one is drawn

    z, zsq, leak, interf, noise = _fold(statistics())  # each a (mean, standard error)
    desired = np.abs(z[0]) ** 2
    return McEstimate(
        desired=desired,
        leak=zsq[0] - desired,
        interf=interf[0],
        noise=noise[0],
        se=Terms(2.0 * np.abs(z[0]) * z[1], leak[1], interf[1], noise[1]),
    )


@dataclass(frozen=True)
class LemmaReport:
    """Sampled checks of the Gaussian moment identities behind the bound."""

    quartic_mean: float        # E ||htilde||^4
    quartic_expected: float    # M^2 + M
    quartic_se: float
    bilinear_abs: float        # |E{(u1^H htilde)(u2^H htilde)}|
    bilinear_se: float
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
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v)

    u1 = unit(channel.complex_normal(rng, m))
    u2 = unit(channel.complex_normal(rng, m))
    n_side = m + 2
    raw = channel.complex_normal(rng, (n_side, n_side))
    a_mat = (raw + raw.conj().T) / 2.0  # random Hermitian, real trace
    trace_a = float(np.trace(a_mat).real)

    def simulate(stream, b):
        ht = channel.complex_normal(stream, (b, m))
        quart = np.sum(np.abs(ht) ** 2, axis=1) ** 2
        bilin = estimation.matmul_rows(ht, u1.conj())
        bilin *= estimation.matmul_rows(ht, u2.conj())
        x = channel.complex_normal(stream, (b, m, n_side))
        return quart, bilin, estimation.matmul_rows(x, a_mat) @ x.conj().swapaxes(-1, -2)

    quart, bilin, (quad_mean, quad_se) = _fold(_batch_results(rng, trials, simulate))
    expected = float(m**2 + m)
    diag = np.abs(np.diagonal(quad_mean) - trace_a)
    diag_sig = float((diag / np.diagonal(quad_se)).max())
    off_mask = ~np.eye(m, dtype=bool)  # empty at m = 1, where off_sig is 0
    off_sig = float((np.abs(quad_mean[off_mask]) / quad_se[off_mask]).max(initial=0.0))
    quartic_mean, quartic_se = map(float, quart)
    bilinear_abs, bilinear_se = float(np.abs(bilin[0])), float(bilin[1])
    ok = (
        abs(quartic_mean - expected) <= 0.01 * expected
        and bilinear_abs <= 4.0 * bilinear_se
        and diag_sig <= 4.0
        and off_sig <= 4.0
    )
    return LemmaReport(
        quartic_mean=quartic_mean,
        quartic_expected=expected,
        quartic_se=quartic_se,
        bilinear_abs=bilinear_abs,
        bilinear_se=bilinear_se,
        quad_diag_sigmas=diag_sig,
        quad_offdiag_sigmas=off_sig,
        ok=ok,
    )
