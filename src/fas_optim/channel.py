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
    t = np.asarray(layouts, dtype=float)[..., None, :, :]  # (..., 1, 2, M)
    rho = dirs[:, 0, None] * t[..., 0, :] + dirs[:, 1, None] * t[..., 1, :]
    return np.exp(1j * (2.0 * np.pi / wavelength) * rho)


def los_matrix(layout: np.ndarray, users, wavelength: float) -> np.ndarray:
    """LoS responses of all users side by side, shape (..., M, K)."""
    return steering(user_directions(users), layout, wavelength).swapaxes(-1, -2)


def half_normal(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Standard normals of variance 1/2, scaled in place or into `out`.

    These are the real or the imaginary parts of a `complex_normal` draw.
    """
    draw = rng.standard_normal(shape)
    return np.multiply(draw, 1.0 / np.sqrt(2.0), out=draw if out is None else out)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussian, unit variance per entry.

    Every real part is drawn first, then every imaginary part, each by
    `half_normal` straight into its half of the result, so no complex
    temporary is made.  A caller that draws the parts itself in that
    order, in any chunks of the leading axis, reads the same values.
    """
    out = np.empty(shape, dtype=complex)
    half_normal(rng, shape, out=out.real)
    half_normal(rng, shape, out=out.imag)
    return out


def sample_channel(los: np.ndarray, scn, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Draw `trials` composite channel matrices of scenario `scn`'s users.

    `los` is the (M, K) `los_matrix` of the layout, so the LoS part is
    fixed; only the scatter is random.  Returns shape (trials, M, K).
    """
    h = complex_normal(rng, (trials,) + los.shape)
    h *= np.sqrt(scn.nlos_powers)
    h += scn.los_amps * los
    return h
