"""Projected gradient ascent on a smoothed min-rate objective.

The hard minimum over user rates is smoothed by the soft-min

    g(t) = -(1/mu) * ln( sum_k exp(-mu * R_k(t)) )

which brackets the true minimum within [min R - ln(K)/mu, min R].  The
iteration takes gradient steps inside the movement box (projection is
an entrywise clamp), with a backtracking line search that accepts a
step only when the objective grows enough and the trial layout keeps
every antenna pair at least `d_min` apart.  A momentum sequence in the
style of accelerated first-order methods extrapolates between
consecutive accepted points; the plain variant keeps the momentum
weight at zero.  The best feasible point seen is returned, so a late
momentum overshoot cannot degrade the result.

The objective is multimodal in the antenna positions, so a single
trajectory can settle on a poor arrangement; `run_multistart` repeats
the ascent from random feasible layouts and keeps the best outcome.
"""

from __future__ import annotations

import math

import numpy as np

from . import rate
from .opt_ga import violation_counts, violation_set
from .scenario import Scenario, ScenarioError, upa_layout

ZETA_MIN_FACTOR = 1e-8  # line search gives up below this fraction of wavelength


class LineSearchExhausted(RuntimeError):
    """No step length satisfied both the increase and spacing conditions."""


def _soft_min(rates: np.ndarray, mu: float) -> np.ndarray:
    """Smoothed minimum over the last axis, computed shift-safely."""
    rmin = rates.min(axis=-1)
    spread = np.exp(-mu * (rates - rmin[..., None]))
    return rmin - np.log(spread.sum(axis=-1)) / mu


def smoothed_objective(layout: np.ndarray, scn: Scenario, mu: float | None = None) -> float:
    """Soft-min of the per-user rates; `mu` defaults to `hyper.mu`."""
    mu = scn.hyper.mu if mu is None else mu
    ctx = rate.closed_form_context(scn)
    return float(_soft_min(rate.rates_for(ctx, np.asarray(layout)), mu))


def _sinr_gradients(ctx: rate.ClosedFormContext, layout: np.ndarray) -> np.ndarray:
    """Derivatives of every user's SINR w.r.t. positions, shape (K, 2, M).

    Positions enter only through the LoS cross terms, so the derivative
    routes through d|f_ki|^2 = 2 Re{(df_ki) conj(f_ki)} with
    df_ki/dt_u = j (2 pi / wavelength) (dir_i - dir_k) conj(e_k(t_u)) e_i(t_u).
    """
    layout = np.asarray(layout, dtype=float)
    wavenum = 2.0 * np.pi / ctx.wavelength
    steer = np.exp(1j * wavenum * np.einsum("kd,dm->km", ctx.dirs, layout))
    gram = steer.conj() @ steer.T  # (K, K) LoS cross terms
    fsq = np.abs(gram) ** 2

    p = ctx.tx_power
    interf = np.sum(ctx.i_const + ctx.i_coupling * fsq, axis=-1)
    denom = p * ctx.e_leak + p * interf + ctx.noise_power * ctx.e_noise

    diff_dir = ctx.dirs[None, :, :] - ctx.dirs[:, None, :]          # (K, K, 2)
    cross = steer.conj()[:, None, :] * steer[None, :, :]            # (K, K, M)
    dgram = 1j * wavenum * diff_dir[..., None] * cross[:, :, None, :]
    dfsq = 2.0 * np.real(dgram * gram.conj()[:, :, None, None])     # (K, K, 2, M)
    dinterf = np.sum(ctx.i_coupling[:, :, None, None] * dfsq, axis=1)
    return -(p**2) * ctx.e_signal[:, None, None] * dinterf / (denom**2)[:, None, None]


def objective_gradient(
    layout: np.ndarray, scn: Scenario, mu: float | None = None
) -> np.ndarray:
    """Gradient of the smoothed objective w.r.t. positions, shape (2, M).

    Soft-min weights are exponentials of the (shifted) rates, so each
    user's SINR gradient enters with weight exp(-mu R_k) /
    ((1 + SINR_k) ln 2) times the pilot-overhead prelog, normalized by
    the weight sum.
    """
    mu = scn.hyper.mu if mu is None else mu
    ctx = rate.closed_form_context(scn)
    sinr = rate.sinr_for(ctx, np.asarray(layout))
    rates = ctx.prelog * np.log2(1.0 + sinr)
    weights = np.exp(-mu * (rates - rates.min()))
    weights = weights / weights.sum()
    dsinr = _sinr_gradients(ctx, layout)
    coeff = ctx.prelog * weights / ((1.0 + sinr) * math.log(2.0))
    return np.einsum("k,kdm->dm", coeff, dsinr)


def project(layout: np.ndarray, region_size: float) -> np.ndarray:
    """Clamp every coordinate into the movement box, entry by entry."""
    half = region_size / 2.0
    return np.clip(np.asarray(layout, dtype=float), -half, half)


def next_momentum(l_cur: float) -> float:
    """Momentum scalar update l -> (1 + sqrt(4 l^2 + 1)) / 2."""
    return (1.0 + math.sqrt(4.0 * l_cur**2 + 1.0)) / 2.0


def _line_search(
    point: np.ndarray, grad: np.ndarray, scn: Scenario, g_value: float
) -> tuple[float, np.ndarray, int]:
    """Largest geometric step passing the increase and spacing tests.

    Candidates are ``wavelength * kappa**n``, n = 0, 1, ...; a candidate
    is accepted when the projected trial point improves the objective
    `g_value` at `point` by at least ``varpi * zeta * ||grad||^2`` and has
    no spacing violations.  All candidates are checked in one vectorized
    batch, which picks the same step as the sequential shrink loop.
    Returns the step, the accepted trial layout and its candidate index;
    raises `LineSearchExhausted` once steps fall below
    ``1e-8 * wavelength``.
    """
    hyp = scn.hyper
    ctx = rate.closed_form_context(scn)
    grad_sq = float(np.sum(grad**2))
    n_steps = math.ceil(math.log(ZETA_MIN_FACTOR) / math.log(hyp.kappa)) + 1
    zetas = scn.wavelength * hyp.kappa ** np.arange(n_steps)
    trials = project(
        point[None, :, :] + zetas[:, None, None] * grad[None, :, :], scn.region_size
    )
    g_trials = _soft_min(rate.rates_for(ctx, trials), hyp.mu)
    grew = g_trials >= g_value + hyp.varpi * zetas * grad_sq
    feasible = violation_counts(trials, scn.d_min) == 0
    passing = np.flatnonzero(grew & feasible)
    if passing.size == 0:
        raise LineSearchExhausted(
            f"no step in [{zetas[-1]:.3e}, {zetas[0]:.3e}] improved the objective"
        )
    idx = int(passing[0])
    return float(zetas[idx]), trials[idx], idx


INIT_SLACK = 1.2  # grid pitch margin over d_min so the first steps stay feasible


def default_init(scn: Scenario) -> np.ndarray:
    """Regular grid start with spacing slack above `d_min`.

    A grid at pitch exactly `d_min` sits on the boundary of the spacing
    constraint, where no perturbed trial point can pass the line
    search.  The slack keeps the start interior; if the padded grid
    does not fit the region, the exact-pitch grid is used instead.
    """
    base = max(scn.wavelength / 2.0, scn.d_min)
    try:
        return upa_layout(scn.m_antennas, INIT_SLACK * base, scn.region_size)
    except ScenarioError:
        return upa_layout(scn.m_antennas, base, scn.region_size)


def run_gradient(
    scn: Scenario, init: np.ndarray | None = None, accelerated: bool = True
) -> tuple[np.ndarray, list[float]]:
    """Maximize the smoothed min rate from `init` (regular grid by default).

    Follows the accelerated scheme: accepted point v from the line
    search, momentum scalar update, extrapolated next iterate projected
    into the box.  Stops when the objective change between consecutive
    iterates falls below `hyper.grad_tol`, when the line search gives
    up, or at `hyper.grad_max_iter`.  Returns the best feasible layout
    seen (momentum overshoots never count) and the objective trace.
    """
    hyp = scn.hyper
    point = project(default_init(scn) if init is None else init, scn.region_size)
    pairs = violation_set(point, scn.d_min)
    if pairs:
        raise ScenarioError(
            f"initial layout violates the antenna spacing limit at pairs {pairs}"
        )

    g_cur = smoothed_objective(point, scn)
    history = [g_cur]
    best_g, best_layout = g_cur, point.copy()
    t_curr, v_prev, l_cur = point, point, 0.5
    for _ in range(hyp.grad_max_iter):
        grad = objective_gradient(t_curr, scn)
        try:
            _, v_cur, _ = _line_search(t_curr, grad, scn, g_cur)
        except LineSearchExhausted:
            break  # no usable ascent step left; treat as converged
        g_v = smoothed_objective(v_cur, scn)
        if g_v > best_g:  # line-search points are always feasible
            best_g, best_layout = g_v, v_cur.copy()

        l_next = next_momentum(l_cur)
        if accelerated:
            # extrapolate against the previously accepted point v^(i-1)
            momentum = (l_cur - 1.0) / l_next
            t_next = project(v_cur + momentum * (v_cur - v_prev), scn.region_size)
        else:
            l_next = 1.0  # momentum weight stays zero
            t_next = v_cur
        g_next = smoothed_objective(t_next, scn)
        if (
            t_next is not v_cur
            and g_next > best_g
            and violation_counts(t_next, scn.d_min) == 0
        ):
            best_g, best_layout = g_next, t_next.copy()

        t_curr, v_prev, l_cur = t_next, v_cur, l_next
        history.append(g_next)
        converged = abs(g_next - g_cur) < hyp.grad_tol
        g_cur = g_next
        if converged:
            break

    return best_layout, history


SAMPLE_ATTEMPTS = 200  # per-antenna budget when drawing random layouts


def random_feasible_layout(scn: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Place antennas uniformly in the box, one at a time, keeping spacing.

    Draws are rejected when closer than `INIT_SLACK * d_min` to an
    already placed antenna, so starts have the same interior margin as
    the default grid; when the box is too crowded for the padded
    spacing, the exact limit is used instead.  Raises ScenarioError when
    even that fails within the attempt budget.
    """
    half = scn.region_size / 2.0
    for slack in (INIT_SLACK, 1.0):
        limit = (slack * scn.d_min) ** 2
        placed = np.empty((2, scn.m_antennas))
        count = 0
        for _ in range(SAMPLE_ATTEMPTS * scn.m_antennas):
            if count == scn.m_antennas:
                break
            cand = rng.uniform(-half, half, size=2)
            diff = placed[:, :count] - cand[:, None]
            if count and float(np.min(np.sum(diff * diff, axis=0))) < limit:
                continue
            placed[:, count] = cand
            count += 1
        if count == scn.m_antennas:
            return placed
    raise ScenarioError("could not sample a layout meeting the spacing limit")


def run_multistart(
    scn: Scenario,
    seed: int | None = None,
    restarts: int = 6,
    accelerated: bool = True,
) -> tuple[np.ndarray, list[list[float]]]:
    """Best gradient run over the grid init plus random restarts.

    Runs `run_gradient` once from the default grid and `restarts - 1`
    times from random feasible layouts, returning the layout whose final
    objective is highest together with every objective trace.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    inits: list[np.ndarray | None] = [None]
    inits += [random_feasible_layout(scn, rng) for _ in range(restarts - 1)]

    best_layout = np.empty(0)
    best_g = -math.inf
    histories: list[list[float]] = []
    for init in inits:
        layout, hist = run_gradient(scn, init=init, accelerated=accelerated)
        histories.append(hist)
        g_fin = smoothed_objective(layout, scn)
        if g_fin > best_g:
            best_g, best_layout = g_fin, layout
    return best_layout, histories
