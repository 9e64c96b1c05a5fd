"""Planar-array Rician channel under the far-field assumption.

Antenna positions live in a square region in the x-y plane and are given
as a (2, M) array of coordinates.  For a user arriving from elevation
theta_e and azimuth theta_a, the path difference of the antenna at
position t = (x, y) relative to the origin is

    rho(t) = x sin(theta_e) cos(theta_a) + y cos(theta_e)

and the line-of-sight response has entries exp(j 2 pi rho / wavelength).
The channel sums a deterministic LoS part and i.i.d. circular Gaussian
scatter:

    h = sqrt(nlos_power * rician) * hbar + sqrt(nlos_power) * htilde.

Functions broadcast over leading axes of `layout`, so a batch of
candidate layouts of shape (..., 2, M) evaluates in one call.
"""

from __future__ import annotations

import numpy as np


def user_directions(users) -> np.ndarray:
    """Unit-free direction pairs (sin e cos a, cos e), shape (K, 2)."""
    elevation = np.array([u.elevation for u in users])
    azimuth = np.array([u.azimuth for u in users])
    return np.stack([np.sin(elevation) * np.cos(azimuth), np.cos(elevation)], axis=-1)


def steering(dirs: np.ndarray, layouts: np.ndarray, wavelength: float) -> np.ndarray:
    """LoS responses of the users with direction pairs `dirs` (K, 2), (..., K, M)."""
    rho = np.einsum("kd,...dm->...km", dirs, np.asarray(layouts, dtype=float))
    return np.exp(1j * (2.0 * np.pi / wavelength) * rho)


def los_matrix(layout: np.ndarray, users, wavelength: float) -> np.ndarray:
    """LoS responses of all users side by side, shape (..., M, K)."""
    return steering(user_directions(users), layout, wavelength).swapaxes(-1, -2)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussian, unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel(
    layout: np.ndarray,
    users,
    wavelength: float,
    rng: np.random.Generator,
    trials: int | None = None,
) -> np.ndarray:
    """Draw the composite channel matrix.

    Returns shape (M, K), or (trials, M, K) when `trials` is given.  The
    LoS part is fixed by the layout; only the scatter is random.
    """
    hbar = los_matrix(layout, users, wavelength)  # (M, K)
    scale = np.array([u.nlos_power for u in users])
    # per-entry LoS amplitude sqrt(nlos_power * rician), scatter std sqrt(nlos_power)
    los_amp = np.sqrt(scale * np.array([u.rician for u in users]))
    shape = hbar.shape if trials is None else (trials,) + hbar.shape
    htilde = complex_normal(rng, shape)
    return los_amp * hbar + np.sqrt(scale) * htilde
