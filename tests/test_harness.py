"""Sweep harness: seeding, sweep points, CSV/SVG artifacts, validation."""

import csv
import dataclasses
import hashlib
import math
import statistics

import numpy as np
import pytest

from fas_optim import harness, opt_ga, rate, svgplot
from fas_optim.scenario import ScenarioError, db_to_linear, redraw_users, upa_layout
from conftest import SCENARIO_DIR, write_ini


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
    assert harness.validate_sweep(spec) is spec


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
    ]
    for kwargs, needle in cases:
        with pytest.raises(ScenarioError, match=needle):
            harness.validate_sweep(harness.SweepSpec(**kwargs))


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
        "m_antennas = 4\nk_users = 2\nwavelength_m = 0.1\nregion_size_m = 0.4\n"
        "tx_power_dbm = 30\nnoise_power_dbm = -104\ncoherence_len = 196\n"
        "[users]\nuser1 = 55 1.0 0.5\nuser2 = 60 2.0 2.5\n"
    )
    scn = load_scenario(path)
    assert harness.scenario_point(scn, "none", 0.0, 77) is scn
    with pytest.raises(ScenarioError, match="generated-users scenario"):
        harness.scenario_point(scn, "rician_db", 5.0, 77)


def test_scenario_point_k_users(table1_k3):
    point = harness.scenario_point(table1_k3, "k_users", 7, 5)
    assert point.k_users == 7
    assert point.pilot_len == 7
    assert len(point.users) == 7


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
    assert opt_ga.violation_set(layout, wide.d_min) == []
    np.testing.assert_array_equal(layout, upa_layout(9, 0.06, 0.6))


def test_fpa_baseline_row(table1_k3):
    task = (table1_k3, "none", 0.0, 0, "fpa", table1_k3.hyper.seed, 0, 0, 0)
    row = harness._run_task(task)
    assert row.algorithm == "fpa"
    assert row.iterations == 0
    assert row.min_rate == pytest.approx(
        rate.min_rate(harness.fpa_layout(table1_k3), table1_k3), rel=1e-12
    )


# ----------------------------------------------------------------- workers


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "3")
    assert harness.worker_count() == 3
    monkeypatch.setenv("FAS_OPTIM_THREADS", "")
    assert harness.worker_count() >= 1
    monkeypatch.setenv("FAS_OPTIM_THREADS", "zero")
    with pytest.raises(ScenarioError, match="must be an integer"):
        harness.worker_count()
    monkeypatch.setenv("FAS_OPTIM_THREADS", "0")
    with pytest.raises(ScenarioError, match="must be >= 1"):
        harness.worker_count()


# -------------------------------------------------------------- experiments


def test_run_experiment_baseline_row(table1_k3, tmp_path, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(axis="none", values=(0.0,), algorithms=("fpa",))
    rows = harness.run_experiment(table1_k3, sweep, tmp_path / "out")
    assert len(rows) == 1
    assert rows[0].algorithm == "fpa"
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "sweep_none.svg").exists()
    table = read_csv(tmp_path / "out" / "results.csv")
    assert table[0] == list(harness.RESULT_FIELDS)
    assert len(table) == 2
    assert table[1][3] == "fpa"
    assert float(table[1][5]) == rows[0].min_rate  # repr round-trips exactly
    assert table[1][8] == ""  # no simulation column without a budget


def test_run_experiment_accepts_path(tmp_path, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    sweep = harness.SweepSpec(axis="none", values=(0.0,), algorithms=("fpa",))
    rows = harness.run_experiment(ini, sweep, tmp_path / "out")
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


def test_run_experiment_golden_summary(tmp_path, monkeypatch):
    # pins summary.csv byte for byte: any change to a solver's trajectory,
    # the baseline grid or the seeding shows up here
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    sweep = harness.SweepSpec(axis="m_antennas", values=(4, 9))
    harness.run_experiment(SCENARIO_DIR / "table1_k3.ini", sweep, tmp_path, seed=7)
    digest = hashlib.md5((tmp_path / "summary.csv").read_bytes()).hexdigest()
    assert digest == "017abf804170db80b8893978a1bb873e"


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
        harness.ResultRow("none", 0.0, r, "fpa", 1, v, 0, 0.0)
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


def test_validate_closed_form_tracks_noise_scaling(tmp_path):
    # 100x noise changes every estimator gain; closed form and simulation
    # must move together and still agree
    from fas_optim.scenario import load_scenario

    loud = load_scenario(write_ini(tmp_path, noise_dbm=-84, name="loud.ini"))
    quiet = load_scenario(write_ini(tmp_path, noise_dbm=-104, name="quiet.ini"))
    assert loud.est_gains[0] < quiet.est_gains[0]
    report = harness.validate_closed_form(loud, 10_000, seed=1)
    assert report.ok


@pytest.mark.xfail(
    raises=AssertionError,
    reason="the closed-form leak and layout-free interference terms lack a "
    "factor M on their last pilot-noise term: they read q a^2 c where the "
    "variance of a n^H e is M q a^2 c (ROADMAP open item)"
)
def test_validate_closed_form_passes_at_low_snr(tmp_path):
    # at -60 dBm the pilot noise q is large enough for the missing factor to
    # show (5.7 SE off on the leak term)
    from fas_optim.scenario import load_scenario

    scn = load_scenario(write_ini(tmp_path, k_users=3, noise_dbm=-60))
    report = harness.validate_closed_form(scn, 100_000, seed=0)
    assert report.ok, harness.format_validation(report)


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
        svgplot.Series("fpa", (1.0, 2.0, 3.0), (0.4, 0.4, 0.4)),
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
    svgplot.line_plot(
        tmp_path / "one.svg", [svgplot.Series("s", (1.0,), (2.0,))]
    )
    svgplot.line_plot(
        tmp_path / "flat.svg",
        [svgplot.Series("s", (1.0, 2.0), (3.0, 3.0), (0.0, 0.0))],
    )
    assert (tmp_path / "one.svg").read_text().count("<circle") == 1


def test_line_plot_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="at least one series"):
        svgplot.line_plot(tmp_path / "x.svg", [])
