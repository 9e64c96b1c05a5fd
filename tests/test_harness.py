"""Sweep harness: seeding, sweep points, CSV/SVG artifacts, validation."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import itertools
import math
import statistics

import numpy as np
import pytest

from fas_optim import harness, rate, svgplot
from fas_optim.scenario import (
    ScenarioError,
    db_to_linear,
    redraw_users,
    upa_layout,
    worker_count,
)
from conftest import SCENARIO_DIR, feasible, write_ini


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------ seeding


def test_seed_for_deterministic():
    assert harness.seed_for(1, 0, 2) == harness.seed_for(1, 0, 2)
    assert harness.seed_for(1, 0, 2) != harness.seed_for(1, 0, 3)
    assert harness.seed_for(1, 0, 2) != harness.seed_for(2, 0, 2)
    assert harness.seed_for(1) != harness.seed_for(1, 0)


# ------------------------------------------------------------- sweep specs


def test_validate_sweep_accepts_good_spec():
    spec = harness.SweepSpec(axis="m_antennas", values=(4, 9), repeats=2)
    assert (spec.axis, spec.values, spec.repeats) == ("m_antennas", (4, 9), 2)
    assert dataclasses.replace(spec, algorithms=("fpa",)).algorithms == ("fpa",)


def test_validate_sweep_rejects_bad_specs():
    good = dict(axis="m_antennas", values=(4, 9), repeats=1)
    cases = [
        (dict(good, axis="bogus"), "unknown sweep axis"),
        (dict(good, values=()), "must be non-empty"),
        (dict(good, values=(9, 4)), "must be sorted"),
        (dict(good, values=(4, 4)), "must be sorted and distinct"),
        (dict(good, values=(4.5, 9)), "m_antennas sweep values must be positive"),
        (dict(good, axis="k_users", values=(2.7,)), "k_users sweep values must be"),
        (dict(good, axis="k_users", values=(0, 3)), "k_users sweep values must be"),
        (
            dict(good, axis="region_over_lambda", values=(2.5, math.nan)),
            "region_over_lambda sweep values must be finite",
        ),
        (
            dict(good, axis="rician_db", values=(0.0, math.inf)),
            "rician_db sweep values must be finite",
        ),
        (dict(good, repeats=0), "repeats must be >= 1"),
        (dict(good, algorithms=()), "at least one algorithm"),
        (dict(good, algorithms=("ga", "sa")), "unknown algorithm"),
        (
            dict(good, algorithms=("ga", "fpa", "ga")),
            r"algorithms must be distinct, got \('ga', 'fpa', 'ga'\)",
        ),
        (dict(good, axis="none", values=(1.0, 2.0)), "the none sweep takes exactly one value"),
    ]
    for kwargs, needle in cases:
        with pytest.raises(ScenarioError, match=needle):
            harness.SweepSpec(**kwargs)
        with pytest.raises(ScenarioError, match=needle):
            dataclasses.replace(harness.SweepSpec(**good), **kwargs)


# ------------------------------------------------------------ sweep points


def test_scenario_point_none_redraws(table1_k3):
    point = harness.scenario_point(table1_k3, "none", 0.0, 77)
    assert point.users == redraw_users(table1_k3, 77).users
    assert point.m_antennas == table1_k3.m_antennas


def test_scenario_point_none_keeps_explicit_users(tmp_path):
    from fas_optim.scenario import load_scenario

    path = tmp_path / "explicit.ini"
    path.write_text(
        "[system]\n"
        "m_antennas = 4\nwavelength_m = 0.1\nregion_size_m = 0.4\n"
        "tx_power_dbm = 30\nnoise_power_dbm = -104\ncoherence_len = 196\n"
        "[users]\nuser1 = 55 1.0 0.5\nuser2 = 60 2.0 2.5\n"
    )
    scn = load_scenario(path)
    assert harness.scenario_point(scn, "none", 0.0, 77) is scn
    # the axes that leave the user recipe alone keep the listed users
    antennas = harness.scenario_point(scn, "m_antennas", 5, 77)
    region = harness.scenario_point(scn, "region_over_lambda", 3.0, 77)
    assert (antennas.m_antennas, antennas.users) == (5, scn.users)
    assert (region.region_size, region.users) == (pytest.approx(0.3), scn.users)
    # the two that change it fail with one message naming the axis
    for axis, value in (("k_users", 3), ("rician_db", 5.0)):
        needle = f"^{axis} = {value}: changing the user recipe needs a generated-users scenario$"
        with pytest.raises(ScenarioError, match=needle):
            harness.scenario_point(scn, axis, value, 77)


def test_scenario_point_unknown_axis(table1_k3):
    with pytest.raises(ScenarioError, match=r"^bogus = 1\.0: unknown sweep axis 'bogus'$"):
        harness.scenario_point(table1_k3, "bogus", 1.0, 5)


def test_scenario_point_k_users(table1_k3):
    point = harness.scenario_point(table1_k3, "k_users", 7, 5)
    assert point.k_users == 7
    assert point.pilot_len == 7
    assert len(point.users) == 7
    # tau = K at every point, also where K equals the file's user count
    scn = dataclasses.replace(table1_k3, pilot_len=5)
    for k in (2, 3, 4):
        point = harness.scenario_point(scn, "k_users", k, 5)
        assert (point.k_users, point.pilot_len) == (k, k)


def test_scenario_point_m_antennas(table1_k3):
    point = harness.scenario_point(table1_k3, "m_antennas", 4, 5)
    assert point.m_antennas == 4
    assert point.k_users == table1_k3.k_users


def test_scenario_point_rician_db(table1_k3):
    point = harness.scenario_point(table1_k3, "rician_db", 10.0, 5)
    for u in point.users:
        assert u.rician == pytest.approx(db_to_linear(10.0))


def test_scenario_point_region(table1_k3):
    point = harness.scenario_point(table1_k3, "region_over_lambda", 4.0, 5)
    assert point.region_size == pytest.approx(0.4)


def test_scenario_point_pairs_users_across_values(table1_k3):
    # common random numbers: the same seed gives the same users at every
    # sweep value, so comparisons across points are paired
    a = harness.scenario_point(table1_k3, "region_over_lambda", 3.0, 5)
    b = harness.scenario_point(table1_k3, "region_over_lambda", 6.0, 5)
    assert a.users == b.users
    ma = harness.scenario_point(table1_k3, "m_antennas", 4, 5)
    mb = harness.scenario_point(table1_k3, "m_antennas", 9, 5)
    assert ma.users == mb.users


# ---------------------------------------------------------------- baseline


def test_fpa_layout_is_half_wavelength_grid(table1_k3):
    np.testing.assert_array_equal(
        harness.fpa_layout(table1_k3), upa_layout(9, 0.05, 0.6)
    )


def test_fpa_layout_rejects_small_region(table1_k3):
    tiny = dataclasses.replace(table1_k3, region_size=0.08)
    with pytest.raises(ScenarioError, match="UPA does not fit"):
        harness.fpa_layout(tiny)


def test_fpa_layout_meets_spacing_limit(table1_k3):
    # with d_min above half a wavelength the grid widens to pitch d_min
    wide = dataclasses.replace(table1_k3, d_min=0.06)
    layout = harness.fpa_layout(wide)
    assert feasible(layout, wide)
    np.testing.assert_array_equal(layout, upa_layout(9, 0.06, 0.6))


# ----------------------------------------------------------------- workers


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("FAS_OPTIM_THREADS", "")
    assert worker_count() >= 1
    monkeypatch.setenv("FAS_OPTIM_THREADS", "zero")
    with pytest.raises(ScenarioError, match="must be an integer"):
        worker_count()
    monkeypatch.setenv("FAS_OPTIM_THREADS", "0")
    with pytest.raises(ScenarioError, match="must be >= 1"):
        worker_count()


def test_pool_workers_simulate_on_one_thread(table1_k3, tmp_path, monkeypatch):
    # Forked workers inherit this patch: a worker that gave its two-batch
    # simulation a thread pool would fail its task.
    def refuse(*args, **kwargs):
        raise AssertionError("a pool worker started simulation threads")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setenv("FAS_OPTIM_THREADS", "2")
    sweep = harness.SweepSpec(axis="k_users", values=(2, 3), algorithms=("fpa",))
    rows = harness.run_experiment(table1_k3, sweep, tmp_path, mc_trials=rate.MC_BATCH + 1)
    assert all(r.mc_min_rate is not None for r in rows)


# -------------------------------------------------------------- experiments


def test_run_experiment_baseline_row(table1_k3, tmp_path, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(axis="none", values=(0.0,), algorithms=("fpa",))
    rows = harness.run_experiment(table1_k3, sweep, tmp_path / "out")
    assert len(rows) == 1
    assert rows[0].algorithm == "fpa"
    assert rows[0].iterations == 0
    point = harness.scenario_point(table1_k3, "none", 0.0, rows[0].scenario_seed)
    assert rows[0].min_rate == pytest.approx(
        rate.min_rate(harness.fpa_layout(point), point), rel=1e-12
    )
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "sweep_none.svg").exists()
    table = read_csv(tmp_path / "out" / "results.csv")
    assert table[0] == list(harness.RESULT_FIELDS)
    assert len(table) == 2
    assert table[1][3] == "fpa"
    assert float(table[1][5]) == rows[0].min_rate  # repr round-trips exactly
    assert table[1][8] == ""  # no simulation column without a budget


def test_run_experiment_row_order_ignores_algorithm_order(one_worker_ini, tmp_path):
    # results.csv rows come in (value, repeat, ga/grad/fpa) order whatever
    # the order of the algorithms; summary.csv follows the given order
    wall = harness.RESULT_FIELDS.index("wall_ms")
    results, summaries = set(), set()
    for algos in itertools.permutations(harness.ALGORITHMS):
        sweep = harness.SweepSpec("m_antennas", (4, 5), repeats=2, algorithms=algos)
        out = tmp_path / "-".join(algos)
        harness.run_experiment(one_worker_ini, sweep, out, seed=3)
        table = read_csv(out / "results.csv")[1:]
        assert [(r[1], r[2], r[3]) for r in table] == [
            (value, repeat, algo)
            for value in ("4.0", "5.0")
            for repeat in ("0", "1")
            for algo in harness.ALGORITHMS
        ]
        results.add(tuple(tuple(r[:wall] + r[wall + 1 :]) for r in table))
        summary = read_csv(out / "summary.csv")[1:]
        assert [r[2] for r in summary] == list(algos) * 2
        summaries.add(frozenset(map(tuple, summary)))
    assert len(results) == 1
    assert len(summaries) == 1


def test_run_experiment_accepts_path(one_worker_ini, tmp_path):
    sweep = harness.SweepSpec(axis="none", values=(0.0,), algorithms=("fpa",))
    rows = harness.run_experiment(one_worker_ini, sweep, tmp_path / "out")
    assert len(rows) == 1


def test_run_experiment_reproducible_minus_timing(table1_k3, tmp_path, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(
        axis="none", values=(0.0,), repeats=2, algorithms=("ga", "fpa")
    )
    harness.run_experiment(table1_k3, sweep, tmp_path / "a", seed=3)
    harness.run_experiment(table1_k3, sweep, tmp_path / "b", seed=3)
    wall = harness.RESULT_FIELDS.index("wall_ms")
    strip = lambda rows: [r[:wall] + r[wall + 1 :] for r in rows]
    assert strip(read_csv(tmp_path / "a" / "results.csv")) == strip(
        read_csv(tmp_path / "b" / "results.csv")
    )
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()


def test_run_experiment_golden_summary(tmp_path, monkeypatch, pin_note):
    # pins summary.csv byte for byte: any change to a solver's trajectory,
    # the baseline grid or the seeding shows up here
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(axis="m_antennas", values=(4, 9))
    harness.run_experiment(SCENARIO_DIR / "table1_k3.ini", sweep, tmp_path, seed=7)
    digest = hashlib.md5((tmp_path / "summary.csv").read_bytes()).hexdigest()
    assert digest == "10b576038bbb33ed9ac1368384647fa4", pin_note
    # and the figure drawn from it, byte for byte
    figure = hashlib.md5((tmp_path / "sweep_m_antennas.svg").read_bytes()).hexdigest()
    assert figure == "54e1cc1b9941f29483916651788e01f3", pin_note


def test_run_experiment_mc_column(table1_k3, tmp_path, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(axis="none", values=(0.0,), algorithms=("fpa",))
    rows = harness.run_experiment(
        table1_k3, sweep, tmp_path / "out", mc_trials=15_000
    )
    assert rows[0].mc_min_rate is not None
    assert rows[0].mc_min_rate == pytest.approx(rows[0].min_rate, rel=0.05)
    table = read_csv(tmp_path / "out" / "results.csv")
    assert float(table[1][8]) == rows[0].mc_min_rate


def test_run_experiment_bigger_array_wins(table1_k3, tmp_path, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(
        axis="m_antennas", values=(4, 9), algorithms=("fpa",), repeats=3
    )
    rows = harness.run_experiment(table1_k3, sweep, tmp_path / "out", seed=0)
    by_m = {m: [] for m in (4.0, 9.0)}
    for r in rows:
        by_m[r.axis_value].append(r.min_rate)
    assert statistics.fmean(by_m[9.0]) > statistics.fmean(by_m[4.0])


def test_run_experiment_optimized_rate_grows_with_array(
    table1_k3, tmp_path, monkeypatch
):
    # Same user draw at both M values (common random numbers), so the
    # comparison is per-seed, not just in the mean.
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(
        axis="m_antennas", values=(4, 9), algorithms=("grad",), repeats=1
    )
    rows = harness.run_experiment(table1_k3, sweep, tmp_path / "out", seed=0)
    rate = {r.axis_value: r.min_rate for r in rows}
    assert rate[9.0] > rate[4.0]


def test_run_experiment_rate_drops_with_user_count(
    table1_k3, tmp_path, monkeypatch
):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(
        axis="k_users", values=(3, 5, 7), algorithms=("ga", "fpa"), repeats=4
    )
    rows = harness.run_experiment(table1_k3, sweep, tmp_path / "out", seed=3)
    summary = harness.summarize(rows, sweep)
    for algo in ("ga", "fpa"):
        means = [
            row["mean_min_rate"] for row in summary if row["algorithm"] == algo
        ]
        assert len(means) == 3
        assert means[0] > means[1] > means[2]


def test_summarize_means_and_errors():
    sweep = harness.SweepSpec(axis="none", values=(0.0,), algorithms=("fpa",))
    rows = [
        harness.ResultRow("none", 0.0, r, "fpa", 1, v, 0, 0.0, None)
        for r, v in enumerate([1.0, 2.0, 4.0])
    ]
    summary = harness.summarize(rows, sweep)
    assert len(summary) == 1
    assert summary[0]["n"] == 3
    assert summary[0]["mean_min_rate"] == pytest.approx(7.0 / 3.0)
    assert summary[0]["se_min_rate"] == pytest.approx(
        statistics.stdev([1.0, 2.0, 4.0]) / 3**0.5
    )


# --------------------------------------------------------------- validation


def test_validate_closed_form_needs_trials(table1_k3):
    with pytest.raises(ScenarioError, match="at least 10000 trials"):
        harness.validate_closed_form(table1_k3, 500)


def test_validate_closed_form_passes(table1_k3):
    report = harness.validate_closed_form(table1_k3, 10_000, seed=0)
    assert report.ok
    assert len(report.rows) == 4 * table1_k3.k_users
    assert all(r.sigmas <= 4.0 for r in report.rows)
    assert np.all(report.sinr_rel_err < 0.05)
    text = harness.format_validation(report)
    assert "PASS" in text and "sinr" in text and "10000 trials" in text


def test_validate_closed_form_golden_report(pin_note):
    # pins every term row and both SINR vectors at full precision: any change
    # to the closed form, the oracle or the way the report reads them shows here
    rep = harness.validate_closed_form(SCENARIO_DIR / "table1_k3.ini", 20_000, seed=5)
    values = [(r.user, r.term, r.closed, r.mc, r.se) for r in rep.rows]
    values += rep.sinr_closed.tolist() + rep.sinr_mc.tolist()
    digest = hashlib.md5(repr(values).encode()).hexdigest()
    assert digest == "206dfbb60f62849a3658ab3545bf6b00", pin_note


def test_validate_closed_form_tracks_noise_scaling(tmp_path):
    # 100x noise changes every estimator gain; closed form and simulation
    # must move together and still agree
    from fas_optim.scenario import load_scenario

    loud = load_scenario(write_ini(tmp_path, noise_dbm=-84, name="loud.ini"))
    quiet = load_scenario(write_ini(tmp_path, noise_dbm=-104, name="quiet.ini"))
    assert loud.est_gains[0] < quiet.est_gains[0]
    report = harness.validate_closed_form(loud, 10_000, seed=1)
    assert report.ok


@pytest.mark.parametrize("case", ["ini_k3_-60dBm", "table1_k3_noise_x1e4"])
def test_validate_closed_form_passes_at_low_snr(tmp_path, case):
    # at low SNR the pilot noise q is large enough for a missing factor M on
    # its leak and interference terms to show (5.7 and 6.2 SE off)
    from fas_optim.scenario import load_scenario

    if case == "ini_k3_-60dBm":
        scn = load_scenario(write_ini(tmp_path, k_users=3, noise_dbm=-60))
    else:
        scn = load_scenario(SCENARIO_DIR / "table1_k3.ini")
        scn = dataclasses.replace(scn, noise_power=1e4 * scn.noise_power)
    report = harness.validate_closed_form(scn, 100_000, seed=0)
    assert report.ok, harness.format_validation(report)


def test_validate_closed_form_single_user(tmp_path):
    # one user has no interference: closed form, simulation and its SE are
    # all exactly 0, so the term's relative error and distance in SEs are 0
    from fas_optim.scenario import load_scenario

    scn = load_scenario(write_ini(tmp_path, k_users=1))
    report = harness.validate_closed_form(scn, 10_000, seed=0)
    (interf,) = [r for r in report.rows if r.term == "interf"]
    assert (interf.closed, interf.mc, interf.se) == (0.0, 0.0, 0.0)
    assert (interf.rel_err, interf.sigmas) == (0.0, 0.0)
    assert report.ok
    assert "PASS" in harness.format_validation(report)


def test_validate_closed_form_custom_layout(table1_k3):
    layout = np.random.default_rng(0).uniform(-0.25, 0.25, (2, 9))
    report = harness.validate_closed_form(table1_k3, 10_000, seed=2, layout=layout)
    assert report.ok


def test_format_validation_reports_failure(table1_k3):
    report = harness.validate_closed_form(table1_k3, 10_000, seed=0)
    broken = dataclasses.replace(report, ok=False)
    assert "FAIL" in harness.format_validation(broken)


# -------------------------------------------------------------------- plots


def test_line_plot_writes_deterministic_svg(tmp_path):
    series = [
        svgplot.Series("ga", (1.0, 2.0, 3.0), (0.5, 0.8, 0.9), (0.05, 0.04, 0.02)),
        svgplot.Series("fpa", (1.0, 2.0, 3.0), (0.4, 0.4, 0.4), (0.0, 0.0, 0.0)),
    ]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svgplot.line_plot(a, series, title="demo", x_label="x", y_label="y")
    svgplot.line_plot(b, series, title="demo", x_label="x", y_label="y")
    text = a.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert ">ga<" in text and ">fpa<" in text and ">demo<" in text
    assert a.read_bytes() == b.read_bytes()


def test_line_plot_degenerate_ranges(tmp_path):
    # single point and constant series must not divide by zero
    labels = dict(title="t", x_label="x", y_label="y")
    svgplot.line_plot(
        tmp_path / "one.svg", [svgplot.Series("s", (1.0,), (2.0,), (0.0,))], **labels
    )
    svgplot.line_plot(
        tmp_path / "flat.svg",
        [svgplot.Series("s", (1.0, 2.0), (3.0, 3.0), (0.0, 0.0))],
        **labels,
    )
    assert (tmp_path / "one.svg").read_text().count("<circle") == 1


def test_line_plot_widens_a_point_by_one_or_by_its_magnitude():
    one = [svgplot.Series("s", (1.0,), (2.0,), (0.0,))]
    assert svgplot._bounds(one) == pytest.approx((-0.1, 2.1, 0.84, 3.16), abs=1e-15)
    # from 2**53 up, 1e17 +- 1 rounds back to 1e17
    huge = [svgplot.Series("s", (1e17,), (-1e17,), (0.0,))]
    x_lo, x_hi, y_lo, y_hi = svgplot._bounds(huge)
    assert x_lo < 1e17 < x_hi and y_lo < -1e17 < y_hi


def test_line_plot_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="at least one series"):
        svgplot.line_plot(tmp_path / "x.svg", [], "t", "x", "y")
