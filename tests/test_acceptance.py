"""Headline acceptance checks, one verbose test line per claim.

Run with ``pytest -v tests/test_acceptance.py`` to get a scorecard: each
``test_criterion_NN_*`` line is one claim at its stated tolerance.  The
tests print their measured numbers, which pytest shows on failure.
"""

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fas_optim import channel, estimation, harness, opt_ga, opt_grad, rate
from fas_optim.scenario import UserModel, random_users, redraw_users, worker_count
from conftest import fd_gradient, make_scenario, min_spacing

MASTER = 7      # master seed for the trend sweeps
Z = 1.645       # one-sided threshold of every paired trend test, in SEs


def _verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------- fixtures


def _geometry_run(base_scn, s):
    """Both optimizers plus the baseline on user geometry `s`, seeded by `s`."""
    scn = redraw_users(base_scn, 100 + s)
    ga_layout, _ = opt_ga.run_ga(scn, seed=1000 + s)
    grad_layout, _ = opt_grad.run_multistart(scn, seed=2000 + s)
    return {
        "scn": scn,
        "base": rate.min_rate(harness.fpa_layout(scn), scn),
        "ga_layout": ga_layout,
        "grad_layout": grad_layout,
        "ga_rate": rate.min_rate(ga_layout, scn),
        "grad_rate": rate.min_rate(grad_layout, scn),
    }


@pytest.fixture(scope="module")
def geometry_runs(table1_k5):
    """Forty random user geometries, run on worker processes."""
    with ProcessPoolExecutor(worker_count()) as pool:
        return list(pool.map(_geometry_run, [table1_k5] * 40, range(40)))


def _table(base, out, axis, values, reps):
    """Gradient min rate per sweep value (rows) and repeat (columns).

    One `run_experiment` sweep at `MASTER` on the process pool: its rows
    come in (value, repeat) order, with the users paired by repeat.
    """
    sweep = harness.SweepSpec(axis, values, reps, ("grad",))
    rows = harness.run_experiment(base, sweep, out, seed=MASTER)
    return np.array([r.min_rate for r in rows]).reshape(len(values), reps)


def _paired(diffs):
    """Mean over the repeats (last axis) of paired differences, and its SE."""
    return diffs.mean(axis=-1), diffs.std(axis=-1, ddof=1) / math.sqrt(diffs.shape[-1])


def _steps(table):
    """Paired mean and SE of the change between adjacent sweep points."""
    return _paired(np.diff(table, axis=0))


def _fmt(mean, se):
    """Each mean with its SE in brackets, comma-separated."""
    return ",".join(f"{m:+.3f}({s:.3f})" for m, s in zip(np.atleast_1d(mean), np.atleast_1d(se)))


# --------------------------------------------------------------- criteria


def test_criterion_01_closed_form_matches_simulation(table1_k3):
    report = harness.validate_closed_form(table1_k3, 100_000)
    max_rel = max(r.rel_err for r in report.rows)
    max_sig = max(r.sigmas for r in report.rows)
    sinr_rel = float(report.sinr_rel_err.max())
    ok = max_rel <= 0.02 and max_sig <= 4.0 and sinr_rel <= 0.02
    _verdict(
        1,
        ok,
        f"term rel err <= {max_rel:.4f}, <= {max_sig:.2f} SE, "
        f"sinr rel err <= {sinr_rel:.4f} at 1e5 trials",
    )


# Trials per array size M: ||h||^4 has relative variance (4M + 6) / (M (M + 1)),
# so at these counts the quartic ratio's 1 % band spans at least 4.47 SE.
LEMMA_TRIALS = {1: 1_000_000, 3: 300_000, 9: 100_000}


def test_criterion_02_gaussian_moment_identities():
    details = []
    ok = True
    for m, trials in LEMMA_TRIALS.items():
        rep = rate.lemma_checks(m, trials, seed=m)
        ratio = rep.quartic_mean / rep.quartic_expected
        ok = (
            ok
            and 0.99 <= ratio <= 1.01
            and rep.quad_diag_sigmas <= 4.0
            and rep.quad_offdiag_sigmas <= 4.0
        )
        details.append(
            f"M={m}: ratio={ratio:.4f} diag={rep.quad_diag_sigmas:.2f}SE "
            f"off={rep.quad_offdiag_sigmas:.2f}SE"
        )
    _verdict(2, ok, "; ".join(details))


def test_criterion_03_estimator_orthogonality(table1_k3):
    scn = table1_k3
    layout = harness.fpa_layout(scn)
    hbar = channel.los_matrix(layout, scn.users, scn.wavelength)
    pilots = estimation.make_pilots(scn.pilot_len, scn.k_users)

    def simulate(stream, b):
        h = channel.sample_channel(hbar, scn, stream, trials=b)
        obs = estimation.observe_pilots(h, pilots, scn.tx_power, scn.noise_power, stream)
        hhat = estimation.lmmse_estimate(obs, scn, hbar)
        return (
            np.einsum("bmk,bmk->bk", hhat.conj(), h - hhat),
            np.sum(np.abs(hhat) ** 2, axis=1),
        )

    (orth, orth_se), (norm, _) = rate._fold(
        rate._batch_results(np.random.default_rng(42), 100_000, simulate)
    )
    sigmas = np.abs(orth) / orth_se
    want = scn.m_antennas * scn.nlos_powers * (scn.ricians + scn.est_gains)
    rel = np.abs(norm - want) / want
    ok = bool(np.all(sigmas < 4.0) and np.all(rel < 0.01))
    _verdict(
        3,
        ok,
        f"cross term <= {sigmas.max():.2f} SE of 0, norm rel err <= "
        f"{rel.max():.5f} over 1e5 draws",
    )


def test_criterion_04_gradient_matches_finite_differences():
    worst = 0.0
    count = 0
    for m in (2, 4, 9):
        for k in (2, 3, 5):
            for inst in range(12):
                seed = 1000 * m + 100 * k + inst
                rng = np.random.default_rng(seed)
                rician = float(rng.choice(np.array([0.5, 6.0, 40.0])))
                users = random_users(UserModel(rician=rician), k, seed)
                scn = make_scenario(users, m=m, noise_power=10.0 ** (-13.4))
                layout = rng.uniform(-0.3, 0.3, (2, m))
                analytic = opt_grad.objective_gradient(layout, scn)
                fd = fd_gradient(
                    lambda lays: opt_grad.smoothed_objective(lays, scn), layout
                )
                err = np.linalg.norm(fd - analytic) / np.linalg.norm(fd)
                worst = max(worst, err)
                count += 1
    ok = count >= 100 and worst < 1e-5
    _verdict(4, ok, f"max rel err {worst:.2e} over {count} instances")


def test_criterion_05_accelerated_convergence(table1_k5):
    _, hist = opt_grad.run_gradient(table1_k5)
    iters = len(hist) - 1
    final_delta = abs(hist[-1] - hist[-2])
    fast = iters <= 150 and final_delta < 1e-4

    acc_totals, plain_totals = [], []
    for s in range(10):
        _, ha = opt_grad.run_multistart(table1_k5, seed=s, accelerated=True)
        _, hp = opt_grad.run_multistart(table1_k5, seed=s, accelerated=False)
        acc_totals.append(sum(len(t) - 1 for t in ha))
        plain_totals.append(sum(len(t) - 1 for t in hp))
    ratio = np.mean(acc_totals) / np.mean(plain_totals)
    ok = fast and ratio <= 0.67
    _verdict(
        5,
        ok,
        f"{iters} iterations (|dg|={final_delta:.1e}); accelerated/plain "
        f"iteration ratio {ratio:.3f} over 10 seeds",
    )


def test_criterion_06_gain_over_fixed_grid(geometry_runs):
    ga_gain = np.mean([(r["ga_rate"] - r["base"]) / r["base"] for r in geometry_runs])
    gr_gain = np.mean(
        [(r["grad_rate"] - r["base"]) / r["base"] for r in geometry_runs]
    )
    ok = ga_gain > 0.30 and gr_gain > 0.30
    _verdict(
        6,
        ok,
        f"mean gain over the half-wavelength grid: genetic {100 * ga_gain:.0f}%, "
        f"gradient {100 * gr_gain:.0f}% across {len(geometry_runs)} geometries",
    )


def test_criterion_07_parameter_trends(table1_k5, tmp_path):
    # Each trend is judged on paired per-repeat differences between adjacent
    # sweep points, in SEs of their mean.  The draws come from the harness
    # seed split at MASTER; the repeats per sweep were sized from the
    # measured SEs, and the pass rates over master seeds 0-11 and the
    # mutants each clause catches are in CHANGES.md.
    k_mean, k_se = _steps(_table(table1_k5, tmp_path / "users", "k_users", (3, 5, 7), 16))
    k_ok = bool(np.all(k_mean < -Z * k_se))

    m_mean, m_se = _steps(
        _table(table1_k5, tmp_path / "antennas", "m_antennas", (4, 5, 6, 7, 8, 9), 4)
    )
    m_ok = bool(np.all(m_mean >= -Z * m_se))

    region = _table(
        table1_k5, tmp_path / "region", "region_over_lambda",
        (2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0), 20,
    )
    a_mean, a_se = _steps(region)
    inc = np.diff(region, axis=0)
    sat_mean, sat_se = _paired(inc[:3].mean(axis=0) - inc[-3:].mean(axis=0))
    a_ok = bool(np.all(a_mean >= -Z * a_se)) and sat_mean > Z * sat_se
    rise_mean, rise_se = _paired(region[-1] - region[0])
    rise_ok = rise_mean > Z * rise_se

    hi_mean, hi_se = _steps(
        _table(table1_k5, tmp_path / "strong", "rician_db", (5.0, 10.0, 15.0), 8)
    )
    hi_ok = bool(np.all(hi_mean > Z * hi_se))

    lo_means = _table(
        table1_k5, tmp_path / "weak", "rician_db", (-15.0, -10.0, -5.0), 4
    ).mean(axis=1)
    lo_spread = (max(lo_means) - min(lo_means)) / np.mean(lo_means)
    lo_ok = lo_spread <= 0.05

    ok = k_ok and m_ok and a_ok and rise_ok and hi_ok and lo_ok
    _verdict(
        7,
        ok,
        f"paired step mean(SE), z={Z}: vs users decreasing={k_ok} "
        f"[{_fmt(k_mean, k_se)}], vs antennas nondecreasing={m_ok} "
        f"[{_fmt(m_mean, m_se)}], vs region nondecreasing+saturating={a_ok} "
        f"[{_fmt(a_mean, a_se)}; early-late {_fmt(sat_mean, sat_se)}], "
        f"region total rise={rise_ok} [{_fmt(rise_mean, rise_se)}], "
        f"vs strong LoS increasing={hi_ok} [{_fmt(hi_mean, hi_se)}], "
        f"weak-LoS spread {100 * lo_spread:.1f}%<=5%={lo_ok}",
    )


def test_criterion_08_returned_layouts_feasible(geometry_runs):
    layouts = []
    for r in geometry_runs:
        layouts.append((r["ga_layout"], r["scn"]))
        layouts.append((r["grad_layout"], r["scn"]))
    for i in range(30):
        m = 2 + i % 3
        region = (0.2, 0.3, 0.45, 0.6)[i % 4]
        d_min = (0.03, 0.05, 0.07)[i % 3]
        users = random_users(UserModel(), 2, 500 + i)
        scn = make_scenario(
            users, m=m, region_size=region, d_min=d_min, noise_power=10.0 ** (-13.4)
        )
        ga_layout, _ = opt_ga.run_ga(scn, seed=600 + i)
        grad_layout, _ = opt_grad.run_multistart(scn, seed=700 + i, restarts=2)
        layouts.append((ga_layout, scn))
        layouts.append((grad_layout, scn))
    bad = 0
    for layout, scn in layouts:
        if min_spacing(layout) < scn.d_min - 1e-12:
            bad += 1
        elif not np.all(np.abs(layout) <= scn.region_size / 2.0 + 1e-12):
            bad += 1
    ok = len(layouts) >= 100 and bad == 0
    _verdict(8, ok, f"{bad} infeasible layouts out of {len(layouts)} optimizer runs")


def test_criterion_09_smoothing_bound_during_runs(table1_k5, monkeypatch):
    real = opt_grad._soft_min
    seen = {"evals": 0, "max_gap_excess": -math.inf}

    def spy(rates, mu):
        out = real(rates, mu)
        arr = np.asarray(rates)
        gap = arr.min(axis=-1) - out[0]
        bound = math.log(arr.shape[-1]) / mu
        seen["evals"] += int(np.asarray(gap).size)
        seen["max_gap_excess"] = max(
            seen["max_gap_excess"],
            float(np.max(gap - bound)),
            float(np.max(-gap)),
        )
        return out

    monkeypatch.setattr(opt_grad, "_soft_min", spy)
    opt_grad.run_multistart(table1_k5, seed=0, restarts=2)
    opt_grad.run_gradient(table1_k5, accelerated=False)
    ok = seen["evals"] > 1000 and seen["max_gap_excess"] <= 1e-9
    _verdict(
        9,
        ok,
        f"0 <= min-rate - softmin <= ln(K)/mu held on {seen['evals']} "
        f"evaluations (worst excess {seen['max_gap_excess']:.1e})",
    )


def test_criterion_10_optimizer_parity(geometry_runs):
    # The mean per-geometry gap is judged by its one-sided upper bound at Z
    # SEs.  Single gaps reach 54 %, so 40 geometries are needed to hold the
    # false-failure rate near 3 % (see CHANGES.md).
    gaps = np.array([
        abs(r["ga_rate"] - r["grad_rate"]) / min(r["ga_rate"], r["grad_rate"])
        for r in geometry_runs
    ])
    mean, se = _paired(gaps)
    ok = mean + Z * se < 0.10
    _verdict(
        10,
        ok,
        f"mean optimizer gap {100 * mean:.2f}% (SE {100 * se:.2f}%), "
        f"+{Z} SE = {100 * (mean + Z * se):.2f}% < 10% over {len(gaps)} geometries",
    )
