"""Shared fixtures: reference scenarios and an INI writer for variants."""

from pathlib import Path

import pytest

from fas_optim.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

BASE_INI = """\
[system]
m_antennas = {m_antennas}
k_users = {k_users}
wavelength_m = 0.1
region_size_m = {region_size}
d_min_m = 0.05
tx_power_dbm = 30
noise_power_dbm = {noise_dbm}
coherence_len = 196
pilot_len = {pilot_len}

[users]
seed = {user_seed}
count = {k_users}
d_min_m = 50
d_max_m = 70
rician = {rician}
path_loss_ref_db = -40
path_loss_exp = 2.8

[hyper]
mu = 100
kappa = 0.8
varpi = 0.5
seed = 1
"""


def write_ini(
    directory,
    name="scenario.ini",
    m_antennas=9,
    k_users=3,
    region_size=0.6,
    noise_dbm=-104,
    pilot_len=None,
    user_seed=12,
    rician=6,
):
    path = Path(directory) / name
    path.write_text(
        BASE_INI.format(
            m_antennas=m_antennas,
            k_users=k_users,
            region_size=region_size,
            noise_dbm=noise_dbm,
            pilot_len=k_users if pilot_len is None else pilot_len,
            user_seed=user_seed,
            rician=rician,
        )
    )
    return path


@pytest.fixture(scope="session")
def table1_k3():
    return load_scenario(SCENARIO_DIR / "table1_k3.ini")


@pytest.fixture(scope="session")
def table1_k5():
    return load_scenario(SCENARIO_DIR / "table1_k5.ini")
