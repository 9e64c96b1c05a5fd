"""Headline acceptance checks, one verbose test line per claim.

Run with ``pytest -v tests/test_acceptance.py`` to get a scorecard: each
``test_criterion_NN_*`` line is one claim at its stated tolerance.  The
tests print their measured numbers, which pytest shows on failure.
"""

import dataclasses
import math

import numpy as np
import pytest

from fas_optim import channel, estimation, harness, opt_ga, opt_grad, rate
from fas_optim.scenario import (
    Scenario,
    UserModel,
    random_users,
    redraw_users,
    validate_scenario,
)

REPS = 6        # repeats per sweep point in the trend checks
MASTER = 7      # master seed for the trend sweeps


def _verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def geometry_runs(table1_k5):
    """Twenty random user geometries, both optimizers plus the baseline."""
    runs = []
    for s in range(20):
        scn = redraw_users(table1_k5, 100 + s)
        base = rate.min_rate(harness.fpa_layout(scn), scn)
        ga_layout, _ = opt_ga.run_ga(scn, seed=1000 + s)
        grad_layout, _ = opt_grad.run_multistart(scn, seed=2000 + s)
        runs.append(
            {
                "scn": scn,
                "base": base,
                "ga_layout": ga_layout,
                "grad_layout": grad_layout,
                "ga_rate": rate.min_rate(ga_layout, scn),
                "grad_rate": rate.min_rate(grad_layout, scn),
            }
        )
    return runs


def _sweep_means(base, axis, values, axis_idx):
    """Mean optimized min rate per sweep value, users paired by repeat."""
    means = []
    table = []
    for vi, value in enumerate(values):
        runs = []
        for rep in range(REPS):
            point = harness.scenario_point(
                base, axis, value, harness.seed_for(MASTER, rep)
            )
            layout, _ = opt_grad.run_multistart(
                point, seed=harness.seed_for(MASTER, axis_idx, vi, rep)
            )
            runs.append(rate.min_rate(layout, point))
        means.append(float(np.mean(runs)))
        table.append(runs)
    return means, np.array(table)


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


def test_criterion_02_gaussian_moment_identities():
    details = []
    ok = True
    for m in (1, 3, 9):
        rep = rate.lemma_checks(m, 1_000_000, seed=m)
        ratio = rep.quartic_mean / rep.quartic_expected
        ok = (
            ok
            and 0.99 <= ratio <= 1.01
            and rep.quad_diag_rel_err <= 0.01
            and rep.quad_offdiag_sigmas <= 4.0
        )
        details.append(
            f"M={m}: ratio={ratio:.4f} diag={rep.quad_diag_rel_err:.1e} "
            f"off={rep.quad_offdiag_sigmas:.2f}SE"
        )
    _verdict(2, ok, "; ".join(details))


def test_criterion_03_estimator_orthogonality(table1_k3):
    scn = table1_k3
    layout = harness.fpa_layout(scn)
    hbar = channel.los_matrix(layout, scn.users, scn.wavelength)
    pilots = estimation.make_pilots(scn.pilot_len, scn.k_users)
    rng = np.random.default_rng(42)
    s_orth = rate.RunningStats()
    s_norm = rate.RunningStats()
    left = 100_000
    for stream in rng.spawn(-(-left // rate.MC_BATCH)):
        b = min(rate.MC_BATCH, left)
        left -= b
        h = channel.sample_channel(layout, scn.users, scn.wavelength, stream, trials=b)
        obs = estimation.observe_pilots(h, pilots, scn.tx_power, scn.noise_power, stream)
        hhat = estimation.lmmse_estimate(obs, scn.users, scn.est_gains, hbar)
        s_orth.update(np.einsum("bmk,bmk->bk", hhat.conj(), h - hhat))
        s_norm.update(np.sum(np.abs(hhat) ** 2, axis=1))
    sigmas = np.abs(s_orth.mean) / s_orth.sem()
    c = np.array([u.nlos_power for u in scn.users])
    eps = np.array([u.rician for u in scn.users])
    want = scn.m_antennas * c * (eps + scn.est_gains)
    rel = np.abs(s_norm.mean - want) / want
    ok = bool(np.all(sigmas < 4.0) and np.all(rel < 0.01))
    _verdict(
        3,
        ok,
        f"cross term <= {sigmas.max():.2f} SE of 0, norm rel err <= "
        f"{rel.max():.5f} over 1e5 draws",
    )


def _random_instance(m, k, seed):
    rng = np.random.default_rng(seed)
    rician = float(rng.choice(np.array([0.5, 6.0, 40.0])))
    noise = 10.0 ** (-13.4)
    users = random_users(UserModel(seed, k, rician=rician))
    scn = validate_scenario(
        Scenario(
            m_antennas=m,
            k_users=k,
            wavelength=0.1,
            region_size=0.6,
            d_min=0.05,
            tx_power=1.0,
            noise_power=noise,
            coherence_len=196,
            pilot_len=k,
            users=users,
        )
    )
    return scn, rng.uniform(-0.3, 0.3, (2, m))


def test_criterion_04_gradient_matches_finite_differences():
    h = 1e-6
    worst = 0.0
    count = 0
    for m in (2, 4, 9):
        for k in (2, 3, 5):
            for inst in range(12):
                scn, layout = _random_instance(m, k, 1000 * m + 100 * k + inst)
                analytic = opt_grad.objective_gradient(layout, scn)
                fd = np.zeros_like(layout)
                for d in range(2):
                    for a in range(m):
                        up, dn = layout.copy(), layout.copy()
                        up[d, a] += h
                        dn[d, a] -= h
                        fd[d, a] = (
                            opt_grad.smoothed_objective(up, scn)
                            - opt_grad.smoothed_objective(dn, scn)
                        ) / (2.0 * h)
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


def test_criterion_07_parameter_trends(table1_k5):
    k_means, _ = _sweep_means(table1_k5, "k_users", (3, 5, 7), 0)
    k_ok = k_means[0] > k_means[1] > k_means[2]

    m_means, _ = _sweep_means(table1_k5, "m_antennas", (4, 5, 6, 7, 8, 9), 1)
    m_ok = bool(np.all(np.diff(m_means) >= 0.0))

    a_means, _ = _sweep_means(
        table1_k5, "region_over_lambda", (2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0), 2
    )
    a_inc = np.diff(a_means)
    a_ok = bool(np.all(a_inc >= 0.0)) and a_inc[:3].mean() > a_inc[-3:].mean()

    hi_means, _ = _sweep_means(table1_k5, "rician_db", (5.0, 10.0, 15.0), 3)
    hi_ok = hi_means[0] < hi_means[1] < hi_means[2]

    lo_means, _ = _sweep_means(table1_k5, "rician_db", (-15.0, -10.0, -5.0), 4)
    lo_spread = (max(lo_means) - min(lo_means)) / np.mean(lo_means)
    lo_ok = lo_spread <= 0.05

    ok = k_ok and m_ok and a_ok and hi_ok and lo_ok
    _verdict(
        7,
        ok,
        f"rate vs users decreasing={k_ok}, vs antennas nondecreasing={m_ok}, "
        f"vs region nondecreasing+saturating={a_ok}, vs strong LoS "
        f"increasing={hi_ok}, weak-LoS spread {100 * lo_spread:.1f}%<=5%={lo_ok}",
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
        noise = 10.0 ** (-13.4)
        users = random_users(UserModel(500 + i, 2))
        scn = validate_scenario(
            Scenario(
                m_antennas=m,
                k_users=2,
                wavelength=0.1,
                region_size=region,
                d_min=d_min,
                tx_power=1.0,
                noise_power=noise,
                coherence_len=196,
                pilot_len=2,
                users=users,
            )
        )
        ga_layout, _ = opt_ga.run_ga(scn, seed=600 + i)
        grad_layout, _ = opt_grad.run_multistart(scn, seed=700 + i, restarts=2)
        layouts.append((ga_layout, scn))
        layouts.append((grad_layout, scn))
    bad = 0
    for layout, scn in layouts:
        if opt_ga.violation_set(layout, scn.d_min):
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
        gap = arr.min(axis=-1) - out
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
    diffs = [
        abs(r["ga_rate"] - r["grad_rate"]) / min(r["ga_rate"], r["grad_rate"])
        for r in geometry_runs
    ]
    mean_diff = float(np.mean(diffs))
    ok = mean_diff < 0.10
    _verdict(
        10,
        ok,
        f"mean optimizer gap {100 * mean_diff:.1f}% over {len(diffs)} scenarios",
    )
