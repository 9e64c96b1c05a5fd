"""Projected gradient ascent on a smoothed min-rate objective.

The hard minimum over user rates is smoothed by the soft-min

    g(t) = -(1/mu) * ln( sum_k exp(-mu * R_k(t)) )

which brackets the true minimum within [min R - ln(K)/mu, min R].  The
iteration takes gradient steps inside the movement box (projection is
an entrywise clamp), with a backtracking line search that accepts a
step only when the objective grows enough and the trial layout keeps
every antenna pair at least `d_min` apart.  A momentum sequence in the
style of accelerated first-order methods extrapolates between
consecutive accepted points; the plain variant is the same loop with
momentum weight zero.  Each new iterate is scored by one LoS pass
(`rate.sinr_gradients`) that gives both its objective value and the
gradient the next line search starts from.  The best feasible point seen
is returned, so a late momentum overshoot cannot degrade the result.
The SINR and its position gradient come from `rate` and the box
projection and spacing check from `scenario`; this module adds only the
soft-min chain rule, the line search and the ascent loop.

The objective is multimodal in the antenna positions, so `run_multistart`
repeats the ascent from random feasible layouts and keeps the best.  All
starts advance as one ``(R, 2, M)`` batch: each keeps its own objective,
best layout, history and stop condition and leaves the batch when it
stops; the momentum scalar is shared since every live start is at the
same iteration.  `run_gradient` is the same loop with a single start.
"""

from __future__ import annotations

import math

import numpy as np

from . import rate
from .scenario import (
    Scenario,
    ScenarioError,
    grid_layout,
    project,
    too_close,
    violation_counts,
    violation_set,
)

LINE_SEARCH_PREFIX = 40  # candidates scored per chunk; the accepted one is rarely later
ZETA_MIN_FACTOR = 1e-8  # line search gives up below this fraction of wavelength


def line_search_steps(kappa: float) -> int:
    """Candidate steps ``wavelength * kappa**n`` down to `ZETA_MIN_FACTOR` of it."""
    return math.ceil(math.log(ZETA_MIN_FACTOR) / math.log(kappa)) + 1


def _soft_min(rates: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Soft-min over the last axis and its gradient w.r.t. the rates, shift-safely."""
    rmin = rates.min(axis=-1)
    spread = np.exp(-mu * (rates - rmin[..., None]))
    total = spread.sum(axis=-1)
    return rmin - np.log(total) / mu, spread / total[..., None]


def smoothed_objective(layout: np.ndarray, scn: Scenario) -> np.ndarray:
    """Soft-min of the per-user rates at sharpness `hyper.mu`, shape (...,)."""
    ctx = rate.closed_form_context(scn)
    return _soft_min(rate.rates_for(ctx, np.asarray(layout)), scn.hyper.mu)[0]


def _value_and_gradient(
    layout: np.ndarray, scn: Scenario
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed objective (...,) and its gradient (..., 2, M) from one SINR pass.

    Each user's SINR gradient enters with its soft-min weight (`_soft_min`)
    over (1 + SINR_k) ln 2, times the pilot-overhead prelog.
    """
    ctx = rate.closed_form_context(scn)
    sinr, dsinr = rate.sinr_gradients(ctx, layout)
    value, weights = _soft_min(rate.achievable_rate(ctx.prelog, sinr), scn.hyper.mu)
    coeff = ctx.prelog * weights / ((1.0 + sinr) * math.log(2.0))
    return value, np.einsum("...k,...kdm->...dm", coeff, dsinr)


def objective_gradient(layout: np.ndarray, scn: Scenario) -> np.ndarray:
    """Gradient of the smoothed objective w.r.t. positions, shape (..., 2, M)."""
    return _value_and_gradient(layout, scn)[1]


def next_momentum(l_cur: float) -> float:
    """Momentum scalar update l -> (1 + sqrt(4 l^2 + 1)) / 2."""
    return (1.0 + math.sqrt(4.0 * l_cur**2 + 1.0)) / 2.0


def _line_search(
    point: np.ndarray, grad: np.ndarray, scn: Scenario, g_value
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest geometric step passing the increase and spacing tests.

    Candidates are ``wavelength * kappa**n``, n = 0, 1, ...; a candidate
    is accepted when the projected trial point improves the objective
    `g_value` at `point` by at least ``varpi * zeta * ||grad||^2`` and has
    no spacing violations.  `point` and `grad` are a batch (R, 2, M) with
    one `g_value` per layout; a single (2, M) layout is a batch of one.
    Candidates are built and scored in chunks of `LINE_SEARCH_PREFIX`,
    each chunk only for the layouts with no passing step in the earlier
    ones, so memory stays bounded however many steps `kappa` makes; only
    candidates that pass the increase test are spacing-checked.  The
    first passing step is the one the sequential shrink loop takes.
    Returns the steps (R,), the accepted trial layouts (R, 2, M) and
    their objective values (R,); a layout with no passing step down to
    ``ZETA_MIN_FACTOR * wavelength`` gets NaN in all three, also when no
    layout has one.
    """
    hyp = scn.hyper
    points = np.asarray(point, dtype=float).reshape(-1, 2, scn.m_antennas)
    grads = np.asarray(grad, dtype=float).reshape(points.shape)
    g_values = np.asarray(g_value, dtype=float).reshape(-1)
    grad_sq = np.sum(grads.reshape(len(grads), -1) ** 2, axis=-1)
    n_steps = line_search_steps(hyp.kappa)
    zetas = scn.wavelength * hyp.kappa ** np.arange(n_steps)

    steps = np.full(len(points), np.nan)
    values = np.full(len(points), np.nan)
    layouts = np.full(points.shape, np.nan)
    pending = np.arange(len(points))
    for lo in range(0, n_steps, LINE_SEARCH_PREFIX):
        if pending.size == 0:
            break
        hi = lo + LINE_SEARCH_PREFIX
        cands = project(
            points[pending, None] + zetas[lo:hi, None, None] * grads[pending, None],
            scn.region_size,
        )
        g_trials = smoothed_objective(cands, scn)
        grew = g_trials >= g_values[pending, None] + (
            hyp.varpi * zetas[lo:hi] * grad_sq[pending, None]
        )
        passing = grew.copy()  # only steps that grew can pass, so check only those
        passing[grew] = violation_counts(cands[grew], scn.d_min) == 0
        hit = passing.any(axis=-1)
        first = passing.argmax(axis=-1)[hit]
        rows = pending[hit]
        steps[rows] = zetas[lo + first]
        layouts[rows] = cands[hit, first]
        values[rows] = g_trials[hit, first]
        pending = pending[~hit]
    return steps, layouts, values


# grid pitch margin over d_min: at pitch exactly d_min the start sits on the
# spacing boundary, where no perturbed trial point passes the line search
INIT_SLACK = 1.2


def default_init(scn: Scenario) -> np.ndarray:
    """Regular grid start, padded so it sits inside the spacing constraint."""
    return grid_layout(scn, INIT_SLACK)


def _keep_best(best_g, best_layout, rows, layouts, values) -> None:
    """Store `layouts` as the best of starts `rows` where `values` beat the best."""
    better = values > best_g[rows]
    best_g[rows[better]] = values[better]
    best_layout[rows[better]] = layouts[better]


def _ascend(
    scn: Scenario, inits: np.ndarray, accelerated: bool
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Run the ascent from every layout of `inits` (R, 2, M) side by side.

    A start leaves the batch when it converges or its line search is
    exhausted; the others go on.  Returns every start's best feasible
    layout (R, 2, M), its objective value (R,) and its objective trace.
    """
    hyp = scn.hyper
    t_curr = project(inits, scn.region_size)
    for point in t_curr:
        pairs = violation_set(point, scn.d_min)
        if pairs:
            raise ScenarioError(
                f"initial layout violates the antenna spacing limit at pairs {pairs}"
            )

    g_cur, grad = _value_and_gradient(t_curr, scn)
    histories = [[float(g)] for g in g_cur]
    best_g, best_layout = g_cur.copy(), t_curr.copy()
    v_prev = t_curr.copy()
    live = np.arange(len(t_curr))
    l_cur = 0.5  # shared: every live start is at the same iteration
    for _ in range(hyp.grad_max_iter):
        steps, v_cur, g_v = _line_search(t_curr[live], grad[live], scn, g_cur[live])
        found = ~np.isnan(steps)
        if not found.any():
            break  # no usable ascent step left for any start; treat as converged
        live, v_cur, g_v = live[found], v_cur[found], g_v[found]
        _keep_best(best_g, best_layout, live, v_cur, g_v)  # always feasible

        # extrapolate against the previously accepted point v^(i-1); with
        # weight zero (plain variant) the next iterate is v itself
        l_next = next_momentum(l_cur)
        momentum = (l_cur - 1.0) / l_next if accelerated else 0.0
        t_next = project(v_cur + momentum * (v_cur - v_prev[live]), scn.region_size)
        g_next, grad[live] = _value_and_gradient(t_next, scn)
        ok = violation_counts(t_next, scn.d_min) == 0
        _keep_best(best_g, best_layout, live[ok], t_next[ok], g_next[ok])
        l_cur = l_next

        t_curr[live], v_prev[live] = t_next, v_cur
        for row, g in zip(live, g_next):
            histories[row].append(float(g))
        converged = np.abs(g_next - g_cur[live]) < hyp.grad_tol
        g_cur[live] = g_next
        live = live[~converged]
        if live.size == 0:
            break

    return best_layout, best_g, histories


def _pick(scn: Scenario, layouts: np.ndarray, best_g: np.ndarray) -> np.ndarray:
    """The layout with the highest min rate among the starts' and the grid's.

    Every start with a finite objective is a candidate, ahead of the grid
    (`grid_layout`), and the first with the highest min rate wins: the
    soft-min can rank first a layout whose min rate is below another
    start's or the grid's.  Raises `ScenarioError` if no objective is finite.
    """
    finite = np.isfinite(best_g)
    if not finite.any():
        raise ScenarioError(
            f"no gradient start reached a finite objective: {best_g.tolist()}"
        )
    cands = np.concatenate([layouts[finite], grid_layout(scn)[None]])
    rates = rate.rates_for(rate.closed_form_context(scn), cands).min(axis=-1)
    return cands[int(np.argmax(rates))]


def run_gradient(
    scn: Scenario, init: np.ndarray | None = None, accelerated: bool = True
) -> tuple[np.ndarray, list[float]]:
    """Maximize the smoothed min rate from `init` (regular grid by default).

    Stops when the objective change between consecutive iterates falls
    below `hyper.grad_tol`, when the line search gives up, or at
    `hyper.grad_max_iter`.  Returns the `_pick` of the best feasible layout
    seen (momentum overshoots never count) and the objective trace.
    """
    start = default_init(scn) if init is None else np.asarray(init, dtype=float)
    layouts, best_g, histories = _ascend(scn, start[None], accelerated)
    return _pick(scn, layouts, best_g), histories[0]


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
        placed = np.empty((2, scn.m_antennas))
        count = 0
        for _ in range(SAMPLE_ATTEMPTS * scn.m_antennas):
            if count == scn.m_antennas:
                break
            point = rng.uniform(-half, half, size=2)
            # the placed antennas already keep the spacing, so only pairs
            # with the new draw can violate it
            if not too_close(placed[:, :count], point, slack * scn.d_min):
                placed[:, count] = point
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

    Advances the default grid and `restarts - 1` random feasible layouts
    as one batch, returning the `_pick` among their best layouts together
    with every objective trace.  The random layouts come from `seed`, or
    from `hyper.seed` when it is None; one that cannot be drawn in a
    crowded box is skipped, so there may be fewer traces than `restarts`.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(scn.hyper.seed if seed is None else seed)
    inits = [default_init(scn)]
    for _ in range(restarts - 1):
        try:
            inits.append(random_feasible_layout(scn, rng))
        except ScenarioError:
            pass  # a box too crowded for this draw; the grid start still runs
    layouts, best_g, histories = _ascend(scn, np.stack(inits), accelerated)
    return _pick(scn, layouts, best_g), histories
