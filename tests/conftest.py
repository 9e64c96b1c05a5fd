"""Shared fixtures: reference scenarios, an INI writer for variants, a scenario
builder, finite differences and a spacing check."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fas_optim.scenario import Scenario, UserModel, derive_user, load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO / "scenarios"

BASE_INI = """\
[system]
m_antennas = {m_antennas}
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


def explicit_users(text, count):
    """An INI text of `write_ini` with its user recipe replaced by `count` user lines."""
    lines = "".join(f"user{i} = 55 1 1\n" for i in range(1, count + 1))
    recipe = r"seed = 12\ncount = \d+\nd_min_m = 50\nd_max_m = 70\n"
    text, found = re.subn(recipe, lines, text)
    assert found == 1
    return text


Q = 1e-10  # pilot noise variance per entry of the hand-built scenarios


def users_at(angles, distances=None, rician=6.0):
    """Users at (elevation, azimuth) `angles`, 55 m away unless `distances` are given."""
    distances = distances or [55.0] * len(angles)
    model = UserModel(rician=rician)
    return tuple(derive_user(d, e, a, model) for (e, a), d in zip(angles, distances))


def make_scenario(users, m=4, q=Q, **fields):
    """`users` in the geometry of scenarios/table1_k*.ini, any field overridden.

    Wavelength 0.1 m, a 0.6 m box, d_min 0.05 m, 1 W, T = 196 and tau = K,
    with noise_power q K: pilot noise variance `q` per entry.
    """
    k = len(users)
    geometry = dict(
        m_antennas=m, wavelength=0.1, region_size=0.6, d_min=0.05, tx_power=1.0,
        noise_power=q * k, coherence_len=196, pilot_len=k,
    )
    return Scenario(users=users, **{**geometry, **fields})


def fd_gradient(fun, layout, h=1e-6):
    """Central differences of `fun` at `layout` (2, M), shape fun's output + (2, M).

    `fun` takes a batch of layouts: every coordinate moves by +h and by -h
    in one call each.
    """
    steps = h * np.eye(layout.size).reshape(layout.size, *layout.shape)
    diff = (fun(layout + steps) - fun(layout - steps)) / (2 * h)
    return np.moveaxis(diff, 0, -1).reshape(*diff.shape[1:], *layout.shape)


def min_spacing(layout):
    """Smallest distance between two antennas of `layout` (2, M), pair by pair.

    It shares no code with `scenario.violation_set`, the check it audits.
    """
    points = np.asarray(layout, dtype=float).T
    return min(
        (math.dist(a, b) for a, b in itertools.combinations(points, 2)), default=math.inf
    )


@pytest.fixture
def pin_note(monkeypatch):
    """Failure message for an md5 pin: this host's kernels and the pins' (tools/)."""
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    import kernel_fingerprint

    return kernel_fingerprint.pin_note()


@pytest.fixture
def one_worker_ini(tmp_path, monkeypatch):
    """`write_ini` at 4 antennas and 2 users in `tmp_path`, run on one worker."""
    monkeypatch.setenv("FAS_OPTIM_THREADS", "1")
    return write_ini(tmp_path, m_antennas=4, k_users=2)


@pytest.fixture(scope="session")
def table1_k3():
    return load_scenario(SCENARIO_DIR / "table1_k3.ini")


@pytest.fixture(scope="session")
def table1_k5():
    return load_scenario(SCENARIO_DIR / "table1_k5.ini")
