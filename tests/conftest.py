"""Shared fixtures: reference scenarios, an INI writer for variants, a scenario
builder and a hypothesis strategy of small ones, finite differences, a
feasibility audit, and the property both solvers' outputs meet."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fas_optim import rate
from fas_optim.scenario import HyperParams, Scenario, UserModel, derive_user, load_scenario
from fas_optim.scenario import grid_layout

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


ANGLE = st.floats(0.2, 2.9)


@st.composite
def small_scenarios(draw, k_users=(1, 4), m_antennas=(2, 6), roomy=False):
    """A small `make_scenario` and a seed for its solver.

    Between `k_users` users 50-70 m away at random arrivals, `m_antennas`
    antennas, -104 dBm of noise, mu from 1e-2 to 1e2, a 20-layout,
    40-generation GA and at most 100 ascent iterations.  Half the draws are
    strong LoS (Rician 33-40 dB) at 10-1000 W, half Rician 0-20 dB at
    1 mW-1 W.  The box runs from the smallest that holds the grid at pitch
    d_min up to 0.6 m, or is 0.6 m when `roomy`, where random starts can
    always be drawn.
    """
    k, m = draw(st.integers(*k_users)), draw(st.integers(*m_antennas))
    angles = [(draw(ANGLE), draw(ANGLE)) for _ in range(k)]
    distances = [draw(st.floats(50.0, 70.0)) for _ in range(k)]
    strong = draw(st.booleans())
    rician_db = draw(st.floats(33.0, 40.0) if strong else st.floats(0.0, 20.0))
    tx_power = 10.0 ** draw(st.floats(1.0, 3.0) if strong else st.floats(-3.0, 0.0))
    smallest = math.isqrt(m - 1) * 0.05  # the grid's span at pitch d_min
    mu = 10.0 ** draw(st.floats(-2.0, 2.0))
    scn = make_scenario(
        users_at(angles, distances, 10.0 ** (rician_db / 10.0)),
        m=m,
        region_size=0.6 if roomy else draw(st.floats(smallest, 0.6)),
        tx_power=tx_power,
        noise_power=10.0 ** (-13.4),  # -104 dBm
        hyper=HyperParams(mu=mu, ga_pop=20, ga_max_iter=40, grad_max_iter=100),
    )
    return scn, draw(st.integers(0, 2**32 - 1))


def min_spacing(layout):
    """Smallest distance between two antennas of `layout` (2, M), pair by pair."""
    points = np.asarray(layout, dtype=float).T
    return min(
        (math.dist(a, b) for a, b in itertools.combinations(points, 2)), default=math.inf
    )


def feasible(layout, scn):
    """Whether `layout` (2, M) lies in `scn`'s box with no two antennas closer than d_min.

    Built on `min_spacing` and a box check, it shares no code with
    `scenario`'s feasible set, which the solvers use and which it audits.
    """
    inside = np.all(np.abs(layout) <= scn.region_size / 2.0)
    return bool(inside) and min_spacing(layout) >= scn.d_min - 1e-12


# nine antennas in a box the grid spans at pitch d_min: no other layout fits
ONLY_THE_GRID_FITS = make_scenario(users_at([(0.5, 1.0), (1.5, 2.0)]), m=9, region_size=0.1)


def solver_property(test):
    """Run `test(problem)` on 50 `small_scenarios()` draws and on `ONLY_THE_GRID_FITS`."""
    test = example((ONLY_THE_GRID_FITS, 0))(test)
    return settings(max_examples=50, deadline=None, database=None)(given(small_scenarios())(test))


def between_grid_and_ceiling(solve, problem):
    """`solve(scn, seed=seed)` on `problem`, once its layout passes the audit and its
    min rate lies between the grid's and the lowest per-user ceiling."""
    # a small mu makes the soft-min favour the mean rate, so the best soft-min
    # start can have a lower min rate than the fixed grid; in a crowded box a
    # random start that cannot be drawn is skipped
    scn, seed = problem
    layout, trace = solve(scn, seed=seed)
    assert feasible(layout, scn)
    value = rate.min_rate(layout, scn)
    assert value >= rate.min_rate(grid_layout(scn), scn)
    assert value <= rate.closed_form_context(scn).ceilings.min() * (1.0 + 1e-12)
    return layout, trace


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
