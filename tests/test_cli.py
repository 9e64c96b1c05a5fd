"""Command line entry points and exit codes."""

import csv
import math
import warnings

import numpy as np
import pytest

from fas_optim import cli, harness, rate
from conftest import SCENARIO_DIR, explicit_users, write_ini


def test_run_baseline(one_worker_ini, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--algos", "fpa", "--out", str(out)]
    )
    assert code == 0
    assert f"wrote 1 rows to {out}" in capsys.readouterr().out
    assert (out / "results.csv").exists()
    assert (out / "sweep_none.svg").exists()


def test_run_sweep(one_worker_ini, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--sweep", "m_antennas=4,6",
         "--repeats", "2", "--algos", "fpa", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    assert (out / "sweep_m_antennas.svg").exists()


def test_run_missing_scenario(tmp_path, capsys):
    code = cli.main(
        ["run", "--scenario", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_listed_users_sweep_antennas(one_worker_ini, tmp_path, capsys):
    # an axis that leaves the user recipe alone keeps the listed users
    one_worker_ini.write_text(explicit_users(one_worker_ini.read_text(), 2))
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--sweep", "m_antennas=4,5",
         "--algos", "fpa", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert f"wrote 2 rows to {out}" in captured.out


def test_run_bad_sweeps(one_worker_ini, tmp_path, capsys):
    # the error names the swept axis, not the scenario field derived from it
    named = {
        # the scenario's own rule, prefixed with the point
        "region_over_lambda=-1": "region_over_lambda = -1.0: region_size must be positive",
        # the phase overflows only at the point; the message leads with its value
        "region_over_lambda=1e308": "error: region_over_lambda = 1e+308: LoS phase",
        "none=1,2": "the none sweep takes exactly one value, got (1.0, 2.0)",
    }
    for sweep in (
        "m_antennas", "m_antennas=a,b", "bogus=1,2", "m_antennas=9,4", "m_antennas=4,4",
        "k_users=0", "region_over_lambda=4,nan", "rician_db=inf", "region_over_lambda=-1",
        "region_over_lambda=1e308", "none=1,2",
    ):
        code = cli.main(
            ["run", "--scenario", str(one_worker_ini), "--sweep", sweep,
             "--out", str(tmp_path / "o")]
        )
        assert code == 2, sweep
        err = capsys.readouterr().err
        assert "error:" in err
        assert named.get(sweep, "") in err, sweep
        assert not (tmp_path / "o").exists(), sweep  # rejected before any output


def test_run_rejects_fractional_antenna_count(one_worker_ini, tmp_path, capsys):
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--sweep", "m_antennas=4.5",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "m_antennas sweep values must be positive integers" in err


def test_run_rejects_infinite_hyper(one_worker_ini, tmp_path, capsys):
    one_worker_ini.write_text(one_worker_ini.read_text().replace("mu = 100", "mu = inf"))
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--algos", "grad",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "mu must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, argv, needle",
    [
        ("seed = 12", "seed = -12", [], "user seed must be >= 0, got -12"),
        ("count = 2", "count = -1", [], "[users] count must be >= 1, got -1"),
        # no users is a bad count
        ("count = 2", "count = 0", [], "[users] count must be >= 1, got 0"),
        ("seed = 1\n", "seed = -1\n", [], "seed must be >= 0, got -1"),
        ("", "", ["--seed", "-1"], "seed must be >= 0, got -1"),
        (
            "tx_power_dbm = 30", "tx_power_dbm = 30%", [],
            "bad value for tx_power_dbm in [system]: '30%'",
        ),
        ("pilot_len = 2", "pilot_len = 0", [], "pilot_len < k_users (0 < 2)"),
        ("pilot_len = 2", "pilot_len = -3", [], "pilot_len < k_users (-3 < 2)"),
        (
            "tx_power_dbm = 30", "tx_power_dbm = inf", [],
            "tx_power must be finite, got inf",
        ),
        # four antennas 0.05 apart do not fit a 0.04 square; the later
        # --algos wins, so only the GA runs
        (
            "region_size_m = 0.6", "region_size_m = 0.04", ["--algos", "ga"],
            "spacing limit d_min = 0.05 in a region of side 0.04; the best one "
            "violates it at pairs [(",
        ),
        # "\udce9" is written as the lone byte 0xe9, which is not UTF-8
        ("[system]", "; caf\udce9\n[system]", [], "scenario.ini is not UTF-8"),
        # dB values whose linear value overflows a float
        (
            "tx_power_dbm = 30", "tx_power_dbm = 5000", [],
            "bad value for tx_power_dbm in [system]: '5000'",
        ),
        (
            "noise_power_dbm = -104", "noise_power_dbm = 5000", [],
            "bad value for noise_power_dbm in [system]: '5000'",
        ),
        # a Rician factor (linear) that overflows a float
        ("rician = 6", "rician = 1e400", [], "user 0: rician must be finite, got inf"),
        (
            "path_loss_ref_db = -40", "path_loss_ref_db = 4000", [],
            "bad value for path_loss_ref_db in [users]: '4000'",
        ),
        (
            "", "", ["--sweep", "rician_db=0,4000"],
            "rician_db sweep value 4000.0 is out of range",
        ),
        # finite powers whose LMMSE gain rounds to 1 (no pilot noise left)
        # or to 0 (the path loss underflows)
        (
            "tx_power_dbm = 30", "tx_power_dbm = 200", [],
            "LMMSE gain is 1.0: pilot noise variance 1.99e-31 (tx_power_dbm, "
            "noise_power_dbm, pilot_len) is negligible",
        ),
        (
            "path_loss_ref_db = -40", "path_loss_ref_db = -4000", [],
            "LMMSE gain is 0.0: diffuse variance 0 (path_loss_ref_db, "
            "path_loss_exp) is negligible",
        ),
        # finite, but its square in the closed form is not
        (
            "rician = 6", "rician = 1e300", [],
            "user 0: Rician factor 1e+300 (rician) overflows",
        ),
        # so close to 1 that the line search would crawl
        ("kappa = 0.8", "kappa = 0.9999", [], "kappa must lie in (0, 0.99], got 0.9999"),
        # files the loader cannot take apart
        ("m_antennas = 4\n", "", [], "missing key in [system]: m_antennas"),
        (
            "m_antennas = 4", "m_antennas = 4\nm_antennas = 5", [],
            "scenario parse error in",
        ),
        ("[system]", "orphan = 1\n[system]", [], "scenario parse error in"),
        (
            "[users]\nseed = 12\ncount = 2\nd_min_m = 50\nd_max_m = 70\nrician = 6\n"
            "path_loss_ref_db = -40\npath_loss_exp = 2.8\n", "", [],
            "scenario file needs [system] and [users] sections",
        ),
        # an explicit user's angle is checked where the scenario holds it
        (
            "seed = 12\ncount = 2\nd_min_m = 50\nd_max_m = 70\n",
            "user1 = 55 4.0 1\nuser2 = 60 1 1\n", [],
            "user 0: elevation must lie in [0, pi], got 4.0",
        ),
        # user lines beside recipe keys, which would be ignored
        (
            "count = 2\nd_min_m = 50\nd_max_m = 70\n",
            "count = 5\nd_min_m = 50\nuser1 = 55 1 1\nuser2 = 60 1 1\n", [],
            "[users] sets seed, count, d_min_m beside user lines: give one form",
        ),
        # removed keys: the users fix K, and the Rician factor has one key
        (
            "m_antennas = 4", "m_antennas = 4\nk_users = 2", [],
            "unknown key in [system]: k_users",
        ),
        ("rician = 6", "rician_db = 7.8", [], "unknown key in [users]: rician_db"),
        # 2*pi/wavelength is inf, or its product with the region side is
        (
            "wavelength_m = 0.1", "wavelength_m = 1e-320", [],
            "2*pi/wavelength * region_size is inf: wavelength 1e-320 and region_size 0.6",
        ),
        (
            "region_size_m = 0.6", "region_size_m = 1.7e308", [],
            "2*pi/wavelength * region_size is inf: wavelength 0.1 and region_size 1.7e+308",
        ),
        # a user distance range numpy cannot draw from
        (
            "d_max_m = 70", "d_max_m = inf", [],
            "bad distance range (50.0, inf): [users] d_min_m and d_max_m must be finite",
        ),
        (
            "d_min_m = 50", "d_min_m = nan", [],
            "bad distance range (nan, 70.0): [users] d_min_m and d_max_m must be finite",
        ),
        # a path loss that overflows, from drawn and from listed users
        (
            "path_loss_exp = 2.8", "path_loss_exp = -1000", [],
            "path loss overflows (path_loss_ref_db, path_loss_exp)",
        ),
        (
            "seed = 12\ncount = 2\nd_min_m = 50\nd_max_m = 70\nrician = 6\n"
            "path_loss_ref_db = -40\npath_loss_exp = 2.8",
            "user1 = 55 1 1\nuser2 = 60 1 1\nrician = 6\n"
            "path_loss_ref_db = -40\npath_loss_exp = -1000", [],
            "path loss overflows (path_loss_ref_db, path_loss_exp)",
        ),
        # ln(K)/mu, or mu times a rate gap, would overflow
        (
            "mu = 100", "mu = 1e-320", ["--algos", "grad"],
            "mu must lie in [1e-300, 1e300], got 1e-320",
        ),
        (
            "mu = 100", "mu = 1e308", ["--algos", "grad"],
            "mu must lie in [1e-300, 1e300], got 1e+308",
        ),
        # ln(2) 2^-52 / mu above grad_tol: the soft-min cannot see a step stop
        (
            "mu = 100", "mu = 1.5e-12", ["--algos", "grad"],
            "mu must be >= ln(K) * 2**-52 / grad_tol = 1.54e-12 (K = 2, grad_tol = 0.0001)",
        ),
    ],
    ids=[
        "users-seed", "users-count", "users-count-zero", "hyper-seed", "cli-seed",
        "percent", "pilot-zero", "pilot-negative", "power-inf", "ga-infeasible", "not-utf8",
        "tx-power-overflow", "noise-power-overflow", "rician-db-overflow",
        "path-loss-overflow", "rician-db-sweep-overflow", "est-gain-one",
        "est-gain-zero", "rician-db-squared-overflow", "kappa-crawl",
        "missing-key", "duplicate-key", "key-before-section", "no-users-section",
        "explicit-user-elevation", "users-both-forms", "removed-k-users", "removed-rician-db",
        "wavelength-phase-overflow",
        "region-phase-overflow", "users-d-max-inf", "users-d-min-nan",
        "path-loss-overflow-drawn", "path-loss-overflow-listed", "mu-tiny", "mu-huge",
        "mu-below-resolution",
    ],
)
def test_run_rejects_bad_input(
    one_worker_ini, tmp_path, capsys, old, new, argv, needle
):
    text = one_worker_ini.read_text().replace(old, new, 1)
    one_worker_ini.write_bytes(text.encode("utf-8", "surrogateescape"))
    with warnings.catch_warnings(record=True) as caught:  # a CLI run prints them
        warnings.simplefilter("always")
        code = cli.main(
            ["run", "--scenario", str(one_worker_ini), "--algos", "fpa", *argv,
             "--out", str(tmp_path / "o")]
        )
    assert code == 2
    assert needle in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


def test_run_rejects_vanishing_gain_variances(one_worker_ini, tmp_path, capsys):
    # the diffuse and the pilot noise variance both round to 0, so the
    # LMMSE gain c / (c + q) would be 0/0
    text = one_worker_ini.read_text()
    for old, new in [
        ("tx_power_dbm = 30", "tx_power_dbm = 3000"),
        ("noise_power_dbm = -104", "noise_power_dbm = -3200"),
        ("path_loss_ref_db = -40", "path_loss_ref_db = -4000"),
    ]:
        text = text.replace(old, new, 1)
    one_worker_ini.write_text(text)
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--algos", "fpa",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert (
        "user 0: LMMSE gain is 0/0: diffuse variance 0 (path_loss_ref_db, "
        "path_loss_exp) and pilot noise variance 0 (tx_power_dbm, "
        "noise_power_dbm, pilot_len) both vanish"
    ) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "1"])
def test_run_rejects_bad_mc_trials_up_front(one_worker_ini, tmp_path, capsys, value):
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--algos", "fpa", "--mc-trials", value,
         "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"(mc_trials, --mc-trials) must be 0 or >= 2, got {value}" in err
    assert not out.exists()  # rejected before any task ran


@pytest.mark.parametrize("below", ["", "sub"], ids=["out-is-file", "out-under-file"])
def test_run_rejects_out_in_a_file_up_front(
    one_worker_ini, tmp_path, capsys, monkeypatch, below
):
    # a file where --out or one of its parents should be a directory
    ran, run_task = [], harness._run_task

    def spy(*task):
        ran.append(task)
        return run_task(*task)

    monkeypatch.setattr(harness, "_run_task", spy)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--algos", "fpa",
         "--out", str(taken / below)]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: out_dir (--out) {taken / below}: {taken} is not a directory\n"
    )
    assert ran == []  # rejected before any task ran


def test_run_mc_trials_fills_column_at_any_worker_count(tmp_path, capsys, monkeypatch):
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("FAS_OPTIM_THREADS", workers)
        out = tmp_path / workers
        code = cli.main(
            ["run", "--scenario", str(ini), "--sweep", "m_antennas=4,6", "--repeats", "2",
             "--algos", "fpa", "--seed", "3", "--mc-trials", "10000", "--out", str(out)]
        )
        assert code == 0
        with open(out / "results.csv", newline="") as fh:
            mc = [row["mc_min_rate"] for row in csv.DictReader(fh)]
        assert len(mc) == 4 and all(math.isfinite(float(v)) for v in mc)
        outputs.append(((out / "summary.csv").read_bytes(), mc))
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_failing_task_names_its_point(tmp_path, capsys, monkeypatch, workers):
    # 25 antennas at pitch 0.05 do not fit a 0.15 square, 4 do; the point
    # builds, so its fpa task fails, after the m_antennas = 4 tasks ran
    monkeypatch.setenv("FAS_OPTIM_THREADS", workers)
    ini = write_ini(tmp_path, m_antennas=4, k_users=2, region_size=0.15)
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--scenario", str(ini), "--sweep", "m_antennas=4,25", "--repeats", "2",
         "--algos", "fpa", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: m_antennas = 25.0, fpa: UPA does not fit: layout does not fit "
        "region: 5x5 grid at pitch 0.05 exceeds side 0.15\n"
    )
    assert not out.exists()


def test_run_plots_one_huge_sweep_value(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--scenario", str(SCENARIO_DIR / "table1_k3.ini"), "--sweep",
         "region_over_lambda=1e17", "--algos", "fpa", "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    assert (out / "sweep_region_over_lambda.svg").read_text().count("<circle") == 1


def test_run_grad_on_crowded_boxes(tmp_path, capsys, monkeypatch):
    # at 1.2 wavelengths no random start of 9 antennas can be drawn, at 1.6
    # some cannot; the grid fits in both, so grad runs and never trails it
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--scenario", str(SCENARIO_DIR / "table1_k5.ini"), "--sweep",
         "region_over_lambda=1.2,1.6", "--algos", "grad,fpa", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rates = {(r["axis_value"], r["algorithm"]): float(r["min_rate"]) for r in rows}
    assert len(rows) == len(rates) == 4
    for value in ("1.2", "1.6"):
        assert rates[value, "grad"] >= rates[value, "fpa"]


def test_run_rejects_repeated_algorithms(one_worker_ini, tmp_path, capsys):
    # a repeated algorithm would list every point twice in summary.csv
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--sweep", "m_antennas=4,5",
         "--repeats", "2", "--algos", "fpa,fpa", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "algorithms must be distinct, got ('fpa', 'fpa')" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_bad_algorithm(one_worker_ini, tmp_path, capsys):
    code = cli.main(
        ["run", "--scenario", str(one_worker_ini), "--algos", "sa",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_validate_pass(capsys):
    code = cli.main(
        [
            "validate",
            "--scenario",
            str(SCENARIO_DIR / "table1_k3.ini"),
            "--trials",
            "10000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "desired" in out


def test_validate_too_few_trials(capsys):
    code = cli.main(
        [
            "validate",
            "--scenario",
            str(SCENARIO_DIR / "table1_k3.ini"),
            "--trials",
            "100",
        ]
    )
    assert code == 2
    assert "at least 10000 trials" in capsys.readouterr().err


def test_validate_failure_exit_code(capsys, monkeypatch):
    fake = harness.ValidationReport(
        rows=[],
        sinr_closed=np.array([1.0]),
        sinr_mc=np.array([2.0]),
        sinr_rel_err=np.array([1.0]),
        trials=10_000,
        ok=False,
    )
    monkeypatch.setattr(harness, "validate_closed_form", lambda s, t: fake)
    code = cli.main(["validate", "--scenario", "x.ini", "--trials", "10000"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_lemmas_pass(capsys):
    code = cli.main(["lemmas", "--m", "3", "--trials", "200000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "quartic" in out


def test_lemmas_failure_exit_code(capsys, monkeypatch):
    fake = rate.LemmaReport(
        quartic_mean=9.0,
        quartic_expected=6.0,
        quartic_se=0.1,
        bilinear_abs=0.0,
        bilinear_se=0.1,
        quad_diag_sigmas=0.0,
        quad_offdiag_sigmas=0.0,
        ok=False,
    )
    monkeypatch.setattr(rate, "lemma_checks", lambda m, t: fake)
    code = cli.main(["lemmas", "--m", "2", "--trials", "100"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--m", "0"], "m must be >= 1"),
        (["--m", "2", "--trials", "1"], "trials must be >= 2"),
    ],
)
def test_lemmas_bad_input_exit_code(capsys, argv, needle):
    code = cli.main(["lemmas", *argv])
    assert code == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, name, argv",
    [
        (harness, "run_experiment", ["run", "--scenario", "x.ini", "--out", "o"]),
        (rate, "lemma_checks", ["lemmas", "--m", "100000", "--trials", "2"]),
    ],
    ids=["run", "lemmas"],
)
def test_unexpected_error_exits_3(capsys, monkeypatch, target, name, argv):
    # exit 1 means only a failed validation check; anything unforeseen,
    # such as an array too large to allocate, is reported in one line
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(target, name, out_of_memory)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: internal error: MemoryError: Unable to allocate 74.5 GiB for an array\n"
    )
    assert captured.out == ""
