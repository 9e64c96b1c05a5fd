"""Scenario construction, validation, and INI loading."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fas_optim import harness, rate
from fas_optim.scenario import (
    HyperParams,
    ScenarioError,
    UserModel,
    db_to_linear,
    dbm_to_watt,
    derive_user,
    grid_layout,
    load_scenario,
    project,
    random_users,
    redraw_users,
    upa_layout,
    violation_counts,
    violation_set,
)
from conftest import SCENARIO_DIR, explicit_users, make_scenario, min_spacing, write_ini


def test_dbm_to_watt():
    assert dbm_to_watt(30.0) == 1.0
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, abs=0)
    assert dbm_to_watt(-104.0) == pytest.approx(10.0 ** (-13.4), abs=0)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-3.0) == pytest.approx(10.0 ** -0.3)


def test_derive_user_path_loss_model():
    u1 = derive_user(1.0, 0.5, 0.5)
    assert u1.path_loss == pytest.approx(1e-4, abs=0)
    u50 = derive_user(50.0, 0.5, 0.5)
    assert u50.path_loss == pytest.approx(1e-4 * 50.0 ** -2.8, abs=0)


def test_derive_user_power_split_and_gain(table1_k3):
    # nlos_power * (rician + 1) recovers the path loss; the scenario's gain
    # is the LMMSE ratio c / (c + q).  Both should hold to machine precision.
    users = tuple(
        derive_user(d, 1.0, 2.0, UserModel(rician=eps))
        for d, eps in [(50.0, 6.0), (70.0, 0.5), (55.0, 40.0)]
    )
    scn = dataclasses.replace(table1_k3, users=users)
    q = scn.noise_over_taup
    for u, gain in zip(users, scn.est_gains):
        assert u.nlos_power * (u.rician + 1.0) == pytest.approx(
            u.path_loss, rel=1e-14, abs=0
        )
        want = u.nlos_power / (u.nlos_power + q)
        assert gain == pytest.approx(want, rel=1e-14, abs=0)
        assert 0.0 < gain < 1.0


def test_derive_user_rejects_bad_inputs():
    with pytest.raises(ScenarioError, match="distance must be positive"):
        derive_user(0.0, 0.5, 0.5)


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("rician", -1.0, "user 1: rician must be nonnegative, got -1.0"),
        ("elevation", 4.0, r"user 1: elevation must lie in \[0, pi\], got 4.0"),
        ("azimuth", -0.1, r"user 1: azimuth must lie in \[0, pi\], got -0.1"),
    ],
)
def test_scenario_rejects_user_out_of_range(table1_k3, field, value, needle):
    # the ranges are checked where a user is held, so a user built by hand
    # or by derive_user is checked alike
    users = list(table1_k3.users)
    users[1] = dataclasses.replace(users[1], **{field: value})
    with pytest.raises(ScenarioError, match=needle):
        dataclasses.replace(table1_k3, users=tuple(users))


def test_random_users_ranges_and_determinism():
    users = random_users(UserModel((50.0, 70.0)), 40, 7)
    assert len(users) == 40
    ref = 1e-4
    for u in users:
        d = (u.path_loss / ref) ** (-1.0 / 2.8)
        assert 50.0 <= d <= 70.0
        assert 0.0 <= u.elevation <= math.pi
        assert 0.0 <= u.azimuth <= math.pi
        assert u.rician == 6.0
    again = random_users(UserModel((50.0, 70.0)), 40, 7)
    assert users == again
    other = random_users(UserModel((50.0, 70.0)), 40, 8)
    assert users != other


def test_random_users_bad_range():
    with pytest.raises(ScenarioError, match="bad distance range"):
        random_users(UserModel((0.0, 70.0)), 3, 0)


def test_load_table1_k3(table1_k3):
    scn = table1_k3
    assert scn.m_antennas == 9
    assert scn.k_users == 3
    with pytest.raises(TypeError, match="k_users"):  # the users' own count, not a field
        dataclasses.replace(scn, k_users=4, pilot_len=4)
    assert scn.wavelength == 0.1
    assert scn.region_size == 0.6
    assert scn.d_min == 0.05
    assert scn.tx_power == 1.0
    assert scn.noise_power == pytest.approx(10.0 ** (-13.4), abs=0)
    assert scn.coherence_len == 196
    assert scn.pilot_len == 3
    assert len(scn.users) == 3
    assert scn.hyper.mu == 100.0
    assert scn.hyper.kappa == 0.8
    assert scn.hyper.varpi == 0.5
    assert scn.hyper.seed == 1
    assert scn.user_model == UserModel()  # the file restates the reference model


def test_load_table1_k5(table1_k5):
    assert table1_k5.k_users == 5
    assert table1_k5.pilot_len == 5
    assert table1_k5.m_antennas == 9


def test_scenario_derived_properties(table1_k3):
    scn = table1_k3
    assert scn.noise_over_taup == pytest.approx(
        scn.noise_power / (scn.pilot_len * scn.tx_power), abs=0
    )
    assert scn.prelog == pytest.approx((196 - 3) / 196)


def test_replaced_power_matches_loaded_scenario(table1_k3, tmp_path):
    # replacing a field the LMMSE gains depend on leaves nothing stale: the
    # result is the scenario a file with that value loads, closed form included
    path = tmp_path / "loud.ini"
    path.write_text(
        (SCENARIO_DIR / "table1_k3.ini")
        .read_text()
        .replace("tx_power_dbm = 30", "tx_power_dbm = 50")
    )
    loaded = load_scenario(path)
    replaced = dataclasses.replace(table1_k3, tx_power=dbm_to_watt(50))
    assert replaced == loaded
    # built uncached, or equal scenarios would share one memoised context
    want = rate.closed_form_context.__wrapped__(loaded)
    got = rate.closed_form_context.__wrapped__(replaced)
    for f in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))


def test_loaded_users_follow_model(table1_k3):
    # the file recipe must give the same draw as calling random_users directly
    expected = random_users(UserModel((50.0, 70.0)), 3, 12)
    assert table1_k3.users == expected


def test_validate_rejects_short_pilots(table1_k3):
    with pytest.raises(ScenarioError, match=r"pilot_len < k_users \(2 < 3\)"):
        dataclasses.replace(table1_k3, pilot_len=2)


def test_validate_rejects_full_frame_pilots(table1_k3):
    with pytest.raises(ScenarioError, match="pilot_len must leave room for data"):
        dataclasses.replace(table1_k3, pilot_len=196)


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(1, 6), st.integers(0, 10), st.integers(0, 2**16))
def test_user_count_follows_replaced_users(table1_k3, k, spare_pilots, seed):
    users = random_users(UserModel(), k, seed)
    scn = dataclasses.replace(table1_k3, users=users, pilot_len=k + spare_pilots)
    assert scn.k_users == len(users) == k
    # a redraw, at a sweep point too, draws as many users and keeps tau
    for point in (redraw_users(scn, seed), harness.scenario_point(scn, "m_antennas", 4, seed)):
        assert (point.k_users, point.pilot_len) == (k, k + spare_pilots)
    ctx = rate.closed_form_context(scn)
    layout = grid_layout(scn)
    est = rate.mc_uatf_sinr(layout, scn, 16, seed=seed)
    for terms in (rate.terms_at(ctx, layout), est, est.se):
        for f in dataclasses.fields(rate.Terms):
            assert np.shape(getattr(terms, f.name)) == (k,), f.name
    assert rate.rates_for(ctx, layout).shape == (k,)


def test_validate_rejects_bad_numbers(table1_k3):
    cases = [
        ({"m_antennas": 0}, "m_antennas"),
        ({"users": ()}, "k_users must be >= 1, got 0"),
        ({"wavelength": 0.0}, "wavelength"),
        ({"region_size": -1.0}, "region_size"),
        ({"d_min": -0.1}, "d_min"),
        ({"tx_power": 0.0}, "tx_power"),
        ({"noise_power": 0.0}, "noise_power"),
        ({"hyper": HyperParams(mu=0.0)}, "mu"),
        ({"hyper": HyperParams(kappa=1.0)}, "kappa"),
        # a shrink factor so close to 1 the line search crawls
        (
            {"hyper": HyperParams(kappa=0.9999)},
            r"kappa must lie in \(0, 0.99\], got 0.9999",
        ),
        ({"hyper": HyperParams(varpi=0.0)}, "varpi"),
        ({"hyper": HyperParams(ga_pop=1)}, "ga_pop"),
        ({"hyper": HyperParams(ga_max_iter=-5)}, "ga_max_iter"),
        ({"hyper": HyperParams(grad_max_iter=0)}, "grad_max_iter"),
        ({"hyper": HyperParams(grad_tol=0.0)}, "grad_tol"),
        ({"hyper": HyperParams(seed=-1)}, "seed must be >= 0, got -1"),
        ({"hyper": HyperParams(mu=math.inf)}, "mu must be finite"),
        ({"hyper": HyperParams(grad_tol=math.nan)}, "grad_tol must be finite"),
        ({"region_size": math.nan}, "region_size must be finite"),
        ({"wavelength": math.inf}, "wavelength must be finite"),
        ({"tx_power": math.inf}, "tx_power must be finite"),
        (
            {"users": (dataclasses.replace(table1_k3.users[0], elevation=math.nan),)
             + table1_k3.users[1:]},
            "user 0: elevation must be finite",
        ),
    ]
    for changes, needle in cases:
        with pytest.raises(ScenarioError, match=needle):
            dataclasses.replace(table1_k3, **changes)


@pytest.mark.parametrize("grad_tol", [1e-4, 1e-9])
def test_mu_floor_is_the_soft_min_resolution(table1_k3, grad_tol):
    # below ln(K) 2^-52 / grad_tol the rounding of the soft-min's log-sum,
    # scaled by 1/mu, exceeds the stopping tolerance
    floor = math.log(3) * 2.0**-52 / grad_tol

    def build(mu, scn=table1_k3):
        return dataclasses.replace(scn, hyper=HyperParams(mu=mu, grad_tol=grad_tol))

    assert build(floor * (1 + 1e-9)).hyper.mu > floor
    with pytest.raises(
        ScenarioError,
        match=rf"mu must be >= ln\(K\) \* 2\*\*-52 / grad_tol = {floor:.3g} "
        rf"\(K = 3, grad_tol = {grad_tol:g}\), got {floor * (1 - 1e-9):g}",
    ):
        build(floor * (1 - 1e-9))
    # one user's soft-min is its rate exactly, at any mu in range
    one = dataclasses.replace(table1_k3, users=table1_k3.users[:1])
    assert build(1e-300, one).hyper.mu == 1e-300


def test_validate_accepts_kappa_at_bound(table1_k3):
    hyper = dataclasses.replace(table1_k3.hyper, kappa=0.99)
    assert dataclasses.replace(table1_k3, hyper=hyper).hyper.kappa == 0.99


def test_building_rejects_faults_that_once_ran(table1_k3):
    # each of these, built by hand, once reached the solvers and ran to a
    # result (a NaN min rate for the negative Rician factor); building the
    # scenario, directly or by replace, now names the field
    bare = dataclasses.replace(table1_k3, user_model=None)
    fields = {f.name: getattr(bare, f.name) for f in dataclasses.fields(bare)}
    negative = dataclasses.replace(bare.users[0], rician=-0.5)
    cases = [
        ({"noise_power": -1e-13}, "noise_power must be positive, got -1e-13"),
        ({"pilot_len": 1}, r"pilot_len < k_users \(1 < 3\)"),
        (
            {"hyper": dataclasses.replace(bare.hyper, kappa=1.5)},
            r"kappa must lie in \(0, 0.99\], got 1.5",
        ),
        (
            {"users": (negative,) + bare.users[1:]},
            "user 0: rician must be nonnegative, got -0.5",
        ),
    ]
    for changes, needle in cases:
        with pytest.raises(ScenarioError, match=needle):
            make_scenario(**{**fields, **changes})
        with pytest.raises(ScenarioError, match=needle):
            dataclasses.replace(bare, **changes)


def test_redraw_users_same_seed_is_identity(table1_k3):
    scn = redraw_users(table1_k3, 12)
    assert scn.users == table1_k3.users
    assert scn.pilot_len == table1_k3.pilot_len


def test_redraw_users_new_count_tracks_pilots(table1_k3):
    scn = redraw_users(table1_k3, 99, count=7)
    assert scn.k_users == 7
    assert scn.pilot_len == 7
    assert len(scn.users) == 7
    # a given count sets tau = K also when it equals the current user count
    same = redraw_users(dataclasses.replace(table1_k3, pilot_len=5), 99, count=3)
    assert (same.k_users, same.pilot_len) == (3, 3)


@pytest.mark.parametrize(
    "k_users, old, new, needle",
    [
        (3, "pilot_len = 3", "pilot_len = 0", r"pilot_len < k_users \(0 < 3\)"),
        (3, "pilot_len = 3", "pilot_len = -3", r"pilot_len < k_users \(-3 < 3\)"),
        (3, "tx_power_dbm = 30", "tx_power_dbm = inf", "tx_power must be finite"),
        (0, "pilot_len = 0\n", "", r"\[users\] count must be >= 1, got 0"),
    ],
    ids=["pilot-zero", "pilot-negative", "power-inf", "no-users"],
)
def test_load_checks_fields_before_deriving_users(
    tmp_path, k_users, old, new, needle
):
    # the bad field is named, not a fault in the LMMSE gains derived from
    # it through noise_over_taup = noise / (pilot_len * tx_power); a file
    # cannot list zero users, so the no-users case has no explicit form
    drawn = write_ini(tmp_path, k_users=k_users).read_text().replace(old, new, 1)
    for text in (drawn, explicit_users(drawn, k_users))[: 2 if k_users else 1]:
        path = tmp_path / "fault.ini"
        path.write_text(text)
        with pytest.raises(ScenarioError, match=needle):
            load_scenario(path)


def test_redraw_users_rejects_zero_count(table1_k3):
    with pytest.raises(ScenarioError, match=r"\[users\] count must be >= 1, got 0"):
        redraw_users(table1_k3, 5, count=0)


def test_redraw_users_needs_model(table1_k3):
    bare = dataclasses.replace(table1_k3, user_model=None)
    with pytest.raises(ScenarioError, match="no user model"):
        redraw_users(bare, 5)


def test_upa_layout_square_grid():
    grid = upa_layout(9, 0.05, 0.6)
    assert grid.shape == (2, 9)
    want_x = np.array([-0.05, 0.0, 0.05] * 3)
    want_y = np.repeat([-0.05, 0.0, 0.05], 3)
    np.testing.assert_allclose(grid[0], want_x, atol=1e-15)
    np.testing.assert_allclose(grid[1], want_y, atol=1e-15)


def test_upa_layout_single_antenna_at_origin():
    np.testing.assert_array_equal(upa_layout(1, 0.05, 0.6), np.zeros((2, 1)))


def test_upa_layout_partial_row_keeps_spacing():
    grid = upa_layout(7, 0.05, 0.6)
    assert grid.shape == (2, 7)
    # centered: mean of full columns is 0 and every pair is >= pitch apart
    assert min_spacing(grid) >= 0.05 - 1e-12
    assert np.max(np.abs(grid)) <= 0.3


def test_upa_layout_rejects_overflow():
    with pytest.raises(ScenarioError, match="layout does not fit region"):
        upa_layout(9, 0.7, 0.6)


def test_violation_set_grid_at_pitch_is_clean():
    layout = upa_layout(9, 0.05, 0.6)
    assert violation_set(layout, 0.05) == []


def test_violation_set_collocated_counts_all_pairs():
    layout = np.zeros((2, 9))
    pairs = violation_set(layout, 0.05)
    assert len(pairs) == 36
    assert (0, 1) in pairs and (7, 8) in pairs


def test_violation_set_single_close_pair():
    layout = upa_layout(4, 0.2, 0.6)
    layout = layout.copy()
    layout[:, 1] = layout[:, 0] + [0.0499, 0.0]
    assert violation_set(layout, 0.05) == [(0, 1)]


def test_violation_counts_matches_pairs():
    rng = np.random.default_rng(0)
    layouts = rng.uniform(-0.3, 0.3, (40, 2, 6))
    counts = violation_counts(layouts, 0.08)
    for b in range(40):
        assert counts[b] == len(violation_set(layouts[b], 0.08))


def test_project_examples():
    inside = np.array([[0.1, -0.2], [0.0, 0.29]])
    np.testing.assert_array_equal(project(inside, 0.6), inside)
    outside = np.array([[0.4, -0.7], [0.31, 0.0]])
    np.testing.assert_allclose(
        project(outside, 0.6), [[0.3, -0.3], [0.3, 0.0]]
    )


def test_load_rejects_unknown_section(tmp_path):
    path = write_ini(tmp_path)
    path.write_text(path.read_text() + "\n[extra]\nfoo = 1\n")
    with pytest.raises(ScenarioError, match=r"unknown section \[extra\]"):
        load_scenario(path)


def test_load_rejects_unknown_key(tmp_path):
    path = write_ini(tmp_path)
    path.write_text(path.read_text().replace("[users]", "[users]\nbogus = 1"))
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario(path)
    # the old, never-read Monte Carlo budget knob is not a hyper key
    path = write_ini(tmp_path)
    path.write_text(path.read_text().replace("[hyper]", "[hyper]\nmc_trials = 1000"))
    with pytest.raises(ScenarioError, match=r"unknown key in \[hyper\]: mc_trials"):
        load_scenario(path)


def test_load_every_hyper_key(tmp_path):
    path = write_ini(tmp_path)
    path.write_text(
        path.read_text().replace(
            "[hyper]",
            "[hyper]\nga_pop = 40\nga_max_iter = 7\ngrad_max_iter = 9\ngrad_tol = 1e-6",
        )
    )
    hyper = load_scenario(path).hyper
    assert hyper == HyperParams(
        mu=100.0, kappa=0.8, varpi=0.5, ga_pop=40, ga_max_iter=7,
        grad_max_iter=9, grad_tol=1e-6, seed=1,
    )
    assert type(hyper.ga_pop) is int and type(hyper.grad_tol) is float


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario file"):
        load_scenario(tmp_path / "absent.ini")


def test_load_defaults(tmp_path):
    # d_min falls back to half a wavelength, pilot_len to the user count
    text = write_ini(tmp_path).read_text()
    text = text.replace("d_min_m = 0.05\n", "").replace("pilot_len = 3\n", "")
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    scn = load_scenario(path)
    assert scn.d_min == pytest.approx(0.05)
    assert scn.pilot_len == 3


def test_load_explicit_users(tmp_path):
    path = tmp_path / "explicit.ini"
    path.write_text(
        "[system]\n"
        "m_antennas = 4\nwavelength_m = 0.1\nregion_size_m = 0.4\n"
        "tx_power_dbm = 30\nnoise_power_dbm = -104\ncoherence_len = 196\n"
        "[users]\n"
        "rician = 6\n"
        "user1 = 55 1.0 0.5\n"
        "user2 = 60 2.0 2.5\n"
    )
    scn = load_scenario(path)
    assert scn.user_model is None
    assert scn.users[0].elevation == 1.0
    assert scn.users[1].azimuth == 2.5
    assert scn.users[0].path_loss == pytest.approx(1e-4 * 55.0 ** -2.8, abs=0)


def test_load_ten_explicit_users(tmp_path):
    # user10 sorts before user2 as text; the lines are matched by number
    lines = "".join(f"user{i} = {50 + i} 1.0 0.{i % 10}\n" for i in range(1, 11))
    path = tmp_path / "ten.ini"
    path.write_text(
        "[system]\n"
        "m_antennas = 4\nwavelength_m = 0.1\nregion_size_m = 0.4\n"
        "tx_power_dbm = 30\nnoise_power_dbm = -104\ncoherence_len = 196\n"
        "[users]\n" + lines
    )
    scn = load_scenario(path)
    assert scn.k_users == scn.pilot_len == len(scn.users) == 10
    assert scn.users[1].path_loss == pytest.approx(1e-4 * 52.0 ** -2.8, abs=0)
    assert scn.users[9].path_loss == pytest.approx(1e-4 * 60.0 ** -2.8, abs=0)
    assert scn.users[9].azimuth == 0.0


def test_load_explicit_users_bad_lines(tmp_path):
    base = (
        "[system]\n"
        "m_antennas = 4\nwavelength_m = 0.1\nregion_size_m = 0.4\n"
        "tx_power_dbm = 30\nnoise_power_dbm = -104\ncoherence_len = 196\n"
        "[users]\n"
    )
    path = tmp_path / "bad.ini"
    path.write_text(base + "user1 = 55 1.0 0.5\nuser3 = 60 2.0 2.5\n")
    with pytest.raises(ScenarioError, match="entries must be user1"):
        load_scenario(path)
    path.write_text(base + "user1 = 55 1.0\nuser2 = 60 2.0 2.5\n")
    with pytest.raises(ScenarioError, match="needs 'distance elevation azimuth'"):
        load_scenario(path)
    path.write_text(base + "user1 = 55 one 0.5\nuser2 = 60 2.0 2.5\n")
    with pytest.raises(ScenarioError, match="bad number"):
        load_scenario(path)


def test_load_rejects_bad_value(tmp_path):
    path = write_ini(tmp_path)
    path.write_text(path.read_text().replace("m_antennas = 9", "m_antennas = nine"))
    with pytest.raises(ScenarioError, match="bad value for m_antennas"):
        load_scenario(path)


def test_load_skips_byte_order_mark(tmp_path, table1_k3):
    # Windows Notepad starts a UTF-8 file with a byte-order mark
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + (SCENARIO_DIR / "table1_k3.ini").read_bytes())
    assert load_scenario(path) == table1_k3


def test_load_inline_comments(tmp_path):
    path = write_ini(tmp_path)
    path.write_text(path.read_text().replace("seed = 12", "seed = 12  ; fixed draw"))
    assert load_scenario(path).users == random_users(UserModel(), 3, 12)
