"""Command line entry points and exit codes."""

import numpy as np
import pytest

from fas_optim import cli, harness, rate
from conftest import SCENARIO_DIR, write_ini


def test_run_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--scenario", str(ini), "--algos", "fpa", "--out", str(out)]
    )
    assert code == 0
    assert f"wrote 1 rows to {out}" in capsys.readouterr().out
    assert (out / "results.csv").exists()
    assert (out / "sweep_none.svg").exists()


def test_run_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    out = tmp_path / "out"
    code = cli.main(
        [
            "run",
            "--scenario",
            str(ini),
            "--sweep",
            "m_antennas=4,6",
            "--repeats",
            "2",
            "--algos",
            "fpa",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
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


def test_run_bad_sweeps(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    for sweep in (
        "m_antennas", "m_antennas=a,b", "bogus=1,2", "m_antennas=9,4", "m_antennas=4,4",
        "k_users=0", "region_over_lambda=4,nan", "rician_db=inf",
    ):
        code = cli.main(
            ["run", "--scenario", str(ini), "--sweep", sweep, "--out", str(tmp_path / "o")]
        )
        assert code == 2, sweep
        assert "error:" in capsys.readouterr().err


def test_run_rejects_fractional_antenna_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    code = cli.main(
        ["run", "--scenario", str(ini), "--sweep", "m_antennas=4.5",
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "m_antennas sweep values must be positive integers" in err


def test_run_rejects_infinite_hyper(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    ini.write_text(ini.read_text().replace("mu = 100", "mu = inf"))
    code = cli.main(
        ["run", "--scenario", str(ini), "--algos", "grad", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "mu must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, argv, needle",
    [
        ("seed = 12", "seed = -12", [], "user seed must be >= 0, got -12"),
        ("count = 2", "count = -1", [], "user count must be >= 0, got -1"),
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
            "spacing limit d_min = 0.05 in a region of side 0.04",
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
        ("rician = 6", "rician_db = 4000", [], "bad value for rician_db in [users]: '4000'"),
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
    ],
    ids=[
        "users-seed", "users-count", "hyper-seed", "cli-seed", "percent",
        "pilot-zero", "pilot-negative", "power-inf", "ga-infeasible", "not-utf8",
        "tx-power-overflow", "noise-power-overflow", "rician-db-overflow",
        "path-loss-overflow", "rician-db-sweep-overflow", "est-gain-one",
        "est-gain-zero",
    ],
)
def test_run_rejects_bad_input(
    tmp_path, capsys, monkeypatch, old, new, argv, needle
):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    text = ini.read_text().replace(old, new, 1)
    ini.write_bytes(text.encode("utf-8", "surrogateescape"))
    code = cli.main(
        ["run", "--scenario", str(ini), "--algos", "fpa", *argv,
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert needle in capsys.readouterr().err


def test_run_bad_algorithm(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    ini = write_ini(tmp_path, m_antennas=4, k_users=2)
    code = cli.main(
        ["run", "--scenario", str(ini), "--algos", "sa", "--out", str(tmp_path / "o")]
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
        m=2,
        trials=100,
        quartic_mean=9.0,
        quartic_expected=6.0,
        quartic_se=0.1,
        bilinear_abs=0.0,
        bilinear_se=0.1,
        quad_diag_rel_err=0.0,
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
