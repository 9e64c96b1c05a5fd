"""Array response geometry and Rician channel sampling."""

import cmath
import math

import numpy as np
import pytest

from fas_optim.channel import (
    complex_normal,
    los_matrix,
    sample_channel,
    steering,
    user_directions,
)
from fas_optim.scenario import derive_user
from conftest import make_scenario, users_at


def sample(layout, users, rng, trials):
    """`sample_channel` of `users` at `layout`, wavelength 0.1."""
    scn = make_scenario(users, m=1, q=1e-9)
    return sample_channel(los_matrix(layout, users, 0.1), scn, rng, trials)


def los_column(layout, user, wavelength):
    """LoS response of one user, shape (M,)."""
    return los_matrix(layout, (user,), wavelength)[:, 0]


def test_user_direction_components():
    def direction(e, a):
        return user_directions((derive_user(50.0, e, a),))[0]

    np.testing.assert_allclose(direction(math.pi / 2, 0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(direction(0.0, 1.0), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        direction(math.pi / 4, math.pi / 3),
        [math.sin(math.pi / 4) * math.cos(math.pi / 3), math.cos(math.pi / 4)],
    )


def test_user_directions_stacks_rows():
    users = users_at([(0.1, 0.2), (1.0, 2.0), (2.5, 0.7)])
    dirs = user_directions(users)
    assert dirs.shape == (3, 2)
    for k, u in enumerate(users):
        want = [math.sin(u.elevation) * math.cos(u.azimuth), math.cos(u.elevation)]
        np.testing.assert_allclose(dirs[k], want)


def test_phase_offset_examples():
    # with wavelength 1 every offset here stays below half a turn, so the
    # phase angle over 2 pi recovers the path difference rho(t)
    layout = np.array([[0.0, 0.07, 0.0], [0.0, 0.0, 0.11]])

    def rho(e, a):
        user = derive_user(50.0, e, a)
        return np.angle(los_column(layout, user, 1.0)) / (2.0 * math.pi)

    # antenna at the origin has zero offset for any arrival direction
    r = rho(1.1, 2.3)
    assert r.shape == (3,)
    assert r[0] == pytest.approx(0.0, abs=1e-15)
    # horizontal arrival picks out the x coordinate
    np.testing.assert_allclose(rho(math.pi / 2, 0.0), [0.0, 0.07, 0.0], atol=1e-15)
    # vertical arrival picks out the y coordinate
    np.testing.assert_allclose(rho(0.0, 0.5), [0.0, 0.0, 0.11], atol=1e-15)


def test_los_vector_unit_modulus_and_norm():
    rng = np.random.default_rng(3)
    layout = rng.uniform(-0.3, 0.3, (2, 6))
    user = derive_user(60.0, 0.9, 1.7)
    v = los_column(layout, user, 0.1)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    assert np.vdot(v, v).real == pytest.approx(6.0, rel=1e-12)


def test_los_vector_collocated_array_is_ones():
    layout = np.zeros((2, 5))
    user = derive_user(60.0, 0.9, 1.7)
    np.testing.assert_allclose(los_column(layout, user, 0.1), np.ones(5), atol=1e-15)


def test_los_vector_half_wavelength_flip():
    # an antenna half a wavelength along the arrival direction is inverted
    wavelength = 0.1
    layout = np.array([[0.0, wavelength / 2.0], [0.0, 0.0]])
    user = derive_user(60.0, math.pi / 2, 0.0)
    v = los_column(layout, user, wavelength)
    np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)


def test_los_matrix_matches_vectors():
    rng = np.random.default_rng(5)
    layout = rng.uniform(-0.3, 0.3, (2, 4))
    users = users_at([(0.3, 0.4), (1.2, 2.0)])
    mat = los_matrix(layout, users, 0.1)
    assert mat.shape == (4, 2)
    for k, u in enumerate(users):
        for m in range(4):
            x, y = layout[:, m]
            rho = x * math.sin(u.elevation) * math.cos(u.azimuth)
            rho += y * math.cos(u.elevation)
            want = cmath.exp(2j * math.pi * rho / 0.1)
            assert mat[m, k] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("batch", [(), (7,), (6, 40)])
def test_steering_bits_match_einsum_phase(batch):
    # The former phase, an einsum over the coordinate axis, and the
    # per-antenna property the GA relies on: the responses of a subset of
    # antennas are the matching columns of the full array, bit for bit.
    rng = np.random.default_rng(len(batch))
    dirs = user_directions(users_at([(0.3, 0.4), (1.2, 2.0), (2.8, 1.0), (0.9, 3.1)]))
    layouts = rng.uniform(-0.3, 0.3, batch + (2, 9))
    rho = np.einsum("kd,...dm->...km", dirs, layouts)
    want = np.exp(1j * (2.0 * np.pi / 0.1) * rho)
    got = steering(dirs, layouts, 0.1)
    assert got.shape == want.shape == batch + (4, 9)
    assert got.tobytes() == want.tobytes()
    cols = [8, 0, 3]
    subset = steering(dirs, layouts[..., cols], 0.1)
    assert subset.tobytes() == np.ascontiguousarray(want[..., cols]).tobytes()


def test_los_cross_products_translation_invariant():
    # moving the whole array only rotates each steering vector's phase
    rng = np.random.default_rng(11)
    layout = rng.uniform(-0.3, 0.3, (2, 7))
    users = users_at([(0.3, 0.4), (1.2, 2.0), (2.8, 1.0)])
    mat = los_matrix(layout, users, 0.1)
    shifted = los_matrix(layout + np.array([[0.23], [-0.41]]), users, 0.1)
    gram = np.abs(mat.conj().T @ mat)
    gram_shifted = np.abs(shifted.conj().T @ shifted)
    np.testing.assert_allclose(gram_shifted, gram, atol=1e-9)


def test_los_cross_products_shared_direction():
    # users arriving from the same direction are fully aligned: |inner| = M
    users = users_at([(0.8, 1.1)] * 3, [50.0, 50.0, 70.0])
    rng = np.random.default_rng(2)
    layout = rng.uniform(-0.3, 0.3, (2, 9))
    mat = los_matrix(layout, users, 0.1)
    gram = np.abs(mat.conj().T @ mat)
    np.testing.assert_allclose(gram, np.full((3, 3), 9.0), rtol=1e-12)


def test_complex_normal_moments():
    rng = np.random.default_rng(17)
    z = complex_normal(rng, (200_000,))
    assert abs(z.mean()) < 4.0 / math.sqrt(200_000)
    assert z.real.var() == pytest.approx(0.5, rel=0.02)
    assert z.imag.var() == pytest.approx(0.5, rel=0.02)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)
    corr = np.mean(z.real * z.imag)
    assert abs(corr) < 4.0 * 0.5 / math.sqrt(200_000)


@pytest.mark.parametrize("shape", [(), 7, (3, 4), (8192, 9, 5)])
def test_complex_normal_bits_match_divided_sum(shape):
    # The former expression.  Scaling each half by 1/sqrt(2) gives the same
    # bits only because numpy divides a complex array by a real scalar as a
    # multiply by the scalar's reciprocal; a numpy that divided each part
    # by sqrt(2) instead would fail here.
    rng = np.random.default_rng(23)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    want = np.asarray((re + 1j * im) / np.sqrt(2.0))
    got = complex_normal(np.random.default_rng(23), shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_sample_channel_shapes():
    rng = np.random.default_rng(0)
    layout = np.zeros((2, 4))
    users = users_at([(0.3, 0.4), (1.2, 2.0)])
    one = sample(layout, users, rng, trials=1)
    assert one.shape == (1, 4, 2)
    many = sample(layout, users, rng, trials=10)
    assert many.shape == (10, 4, 2)


def test_sample_channel_strong_los_limit():
    # with a huge Rician factor the channel collapses onto the LoS component
    users = users_at([(0.5, 0.6), (1.5, 1.8)], rician=1e6)
    rng = np.random.default_rng(4)
    layout = np.random.default_rng(1).uniform(-0.3, 0.3, (2, 4))
    h = sample(layout, users, rng, trials=200)
    mat = los_matrix(layout, users, 0.1)
    for k, u in enumerate(users):
        c = u.nlos_power
        los_amp = math.sqrt(c * u.rician)
        dev = np.abs(h[:, :, k] - los_amp * mat[:, k])
        assert dev.max() <= 5.0 * math.sqrt(c)
        assert dev.max() <= 5e-3 * los_amp


def test_sample_channel_mean_is_los():
    users = users_at([(0.5, 0.6), (2.0, 1.0)])
    rng = np.random.default_rng(8)
    layout = np.random.default_rng(9).uniform(-0.3, 0.3, (2, 3))
    n = 100_000
    h = sample(layout, users, rng, trials=n)
    mat = los_matrix(layout, users, 0.1)
    for k, u in enumerate(users):
        mean = h[:, :, k].mean(axis=0)
        expected = math.sqrt(u.nlos_power * u.rician) * mat[:, k]
        assert np.abs(mean - expected).max() <= 4.0 * math.sqrt(u.nlos_power / n)


def test_sample_channel_entry_variance():
    users = users_at([(0.5, 0.6)])
    rng = np.random.default_rng(21)
    layout = np.zeros((2, 1))
    h = sample(layout, users, rng, trials=1_000_000)
    dev = h[:, 0, 0] - h[:, 0, 0].mean()
    var = np.mean(np.abs(dev) ** 2)
    assert var == pytest.approx(users[0].nlos_power, rel=0.02, abs=0)
