"""Scenario definitions: system geometry, user statistics, solver settings.

A scenario bundles everything the rate expressions and the position
optimizers need: array size, movement region, transmit/noise powers,
frame structure, and per-user large-scale statistics.  Users store only
geometry and path loss; diffuse powers and LMMSE gains are derived
(`UserStats.nlos_power`, `Scenario.est_gains`), so no field change can
leave them stale.  Scenarios are built programmatically or loaded from
INI files (see `load_scenario`).

Lengths are in meters, powers in watts, angles in radians.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ScenarioError(ValueError):
    """Raised when a scenario file or parameter set is inconsistent."""


def dbm_to_watt(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


def db_to_linear(db: float) -> float:
    """Linear ratio of `db` decibels; `OverflowError` above ~3083 dB."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class UserStats:
    """Large-scale state of one uplink user.

    `path_loss` is the total average channel gain per antenna, split into
    a line-of-sight part and a diffuse part by the Rician factor:
    per-entry LoS power is `nlos_power * rician` and diffuse power is
    `nlos_power`.  The LMMSE gain also depends on the pilot noise, so it
    lives on the scenario (`Scenario.est_gains`).
    """

    path_loss: float
    rician: float
    elevation: float
    azimuth: float

    @property
    def nlos_power(self) -> float:
        return self.path_loss / (self.rician + 1.0)


@dataclass(frozen=True)
class UserModel:
    """Recipe for drawing users, kept so sweeps can resample per repeat.

    Distances are uniform on `d_range` (meters) and both arrival angles
    uniform on [0, pi].  The defaults are the reference large-scale
    model: Rician factor 6, -40 dB path loss at 1 m, exponent 2.8.
    """

    seed: int
    count: int
    d_range: tuple[float, float] = (50.0, 70.0)
    rician: float = 6.0
    path_loss_ref: float = 1e-4
    path_loss_exp: float = 2.8


def derive_user(
    distance: float,
    elevation: float,
    azimuth: float,
    *,
    rician: float = UserModel.rician,
    path_loss_ref: float = UserModel.path_loss_ref,
    path_loss_exp: float = UserModel.path_loss_exp,
) -> UserStats:
    """Build a `UserStats` from geometry and the large-scale model.

    Path loss follows ``path_loss_ref * distance ** -path_loss_exp`` with
    the reference gain taken at 1 m.
    """
    if distance <= 0:
        raise ScenarioError(f"distance must be positive, got {distance}")
    if rician < 0:
        raise ScenarioError(f"rician must be nonnegative, got {rician}")
    if not 0.0 <= elevation <= math.pi:
        raise ScenarioError(f"elevation out of [0, pi]: {elevation}")
    if not 0.0 <= azimuth <= math.pi:
        raise ScenarioError(f"azimuth out of [0, pi]: {azimuth}")
    path_loss = path_loss_ref * distance ** (-path_loss_exp)
    return UserStats(path_loss, rician, elevation, azimuth)


def random_users(model: UserModel) -> tuple[UserStats, ...]:
    """Draw `model.count` users with uniform distances and arrival angles."""
    if model.seed < 0:
        raise ScenarioError(f"user seed must be >= 0, got {model.seed}")
    if model.count < 0:
        raise ScenarioError(f"user count must be >= 0, got {model.count}")
    lo, hi = model.d_range
    if not 0 < lo <= hi:
        raise ScenarioError(f"bad distance range {model.d_range}")
    rng = np.random.default_rng(model.seed)
    dist = rng.uniform(lo, hi, model.count)
    elev = rng.uniform(0.0, math.pi, model.count)
    azim = rng.uniform(0.0, math.pi, model.count)
    return tuple(
        derive_user(
            d,
            e,
            a,
            rician=model.rician,
            path_loss_ref=model.path_loss_ref,
            path_loss_exp=model.path_loss_exp,
        )
        for d, e, a in zip(dist, elev, azim)
    )


@dataclass(frozen=True)
class HyperParams:
    """Solver settings shared by the genetic and gradient optimizers."""

    mu: float = 100.0        # min-rate smoothing sharpness
    kappa: float = 0.8       # line-search shrink factor
    varpi: float = 0.5       # line-search sufficient-increase slope
    ga_pop: int = 100
    ga_max_iter: int = 500
    grad_max_iter: int = 1000
    grad_tol: float = 1e-4
    seed: int = 1


@dataclass(frozen=True)
class Scenario:
    """Full problem instance for rate evaluation and position design."""

    m_antennas: int
    k_users: int
    wavelength: float
    region_size: float
    d_min: float
    tx_power: float
    noise_power: float
    coherence_len: int
    pilot_len: int
    users: tuple[UserStats, ...]
    hyper: HyperParams = HyperParams()
    user_model: UserModel | None = None

    @property
    def noise_over_taup(self) -> float:
        return self.noise_power / (self.pilot_len * self.tx_power)

    @property
    def est_gains(self) -> np.ndarray:
        """Per-user LMMSE gain c / (c + noise_over_taup), c the `nlos_power`."""
        c = np.array([u.nlos_power for u in self.users])
        return c / (c + self.noise_over_taup)

    @property
    def prelog(self) -> float:
        return (self.coherence_len - self.pilot_len) / self.coherence_len


def _require_finite(obj, prefix: str = "") -> None:
    """Reject a NaN or infinite float field of a dataclass, naming it."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(f"{prefix}{f.name} must be finite, got {value}")


# (holder, field, test, requirement) per scalar field, checked in order;
# a field failing its test is reported as "{field} {requirement}, got {value}"
_FIELD_RULES = (
    ("scenario", "m_antennas", lambda v: v >= 1, "must be >= 1"),
    ("scenario", "k_users", lambda v: v >= 1, "must be >= 1"),
    ("scenario", "wavelength", lambda v: v > 0, "must be positive"),
    ("scenario", "region_size", lambda v: v > 0, "must be positive"),
    ("scenario", "d_min", lambda v: v >= 0, "must be nonnegative"),
    ("scenario", "tx_power", lambda v: v > 0, "must be positive"),
    ("scenario", "noise_power", lambda v: v > 0, "must be positive"),
    ("hyper", "mu", lambda v: v > 0, "must be positive"),
    ("hyper", "kappa", lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ("hyper", "varpi", lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ("hyper", "ga_pop", lambda v: v >= 2, "must be >= 2"),
    ("hyper", "ga_max_iter", lambda v: v >= 1, "must be >= 1"),
    ("hyper", "grad_max_iter", lambda v: v >= 1, "must be >= 1"),
    ("hyper", "grad_tol", lambda v: v > 0, "must be positive"),
    ("hyper", "seed", lambda v: v >= 0, "must be >= 0"),
)


def validate_scenario(scn: Scenario) -> Scenario:
    """Check scenario invariants, raising `ScenarioError` naming the field.

    Each field's own range (`_FIELD_RULES`) is checked before the pilot
    length's relations, and all before the users' LMMSE gains, which
    divide by them.  A gain of 0 or 1 means one of its two variances is
    negligible against the other; the message names the keys behind each.
    """
    _require_finite(scn)
    _require_finite(scn.hyper)
    holders = {"scenario": scn, "hyper": scn.hyper}
    for holder, name, test, requirement in _FIELD_RULES:
        value = getattr(holders[holder], name)
        if not test(value):
            raise ScenarioError(f"{name} {requirement}, got {value}")
    if scn.pilot_len < scn.k_users:
        raise ScenarioError(
            f"pilot_len < k_users ({scn.pilot_len} < {scn.k_users}): "
            "orthogonal pilots need one column per user"
        )
    if scn.pilot_len >= scn.coherence_len:
        raise ScenarioError(
            f"pilot_len must leave room for data: {scn.pilot_len} >= "
            f"coherence_len {scn.coherence_len}"
        )
    for k, u in enumerate(scn.users):
        _require_finite(u, f"user {k}: ")
    if len(scn.users) != scn.k_users:
        raise ScenarioError(
            f"k_users is {scn.k_users} but {len(scn.users)} users given"
        )
    for k, (u, gain) in enumerate(zip(scn.users, scn.est_gains)):
        if not 0 < gain < 1:
            c = f"diffuse variance {u.nlos_power:.3g} (path_loss_ref_db, path_loss_exp)"
            q = (
                f"pilot noise variance {scn.noise_over_taup:.3g} "
                "(tx_power_dbm, noise_power_dbm, pilot_len)"
            )
            small, big = (c, q) if not gain > 0 else (q, c)
            raise ScenarioError(
                f"user {k}: LMMSE gain is {gain}: {small} is negligible against {big}"
            )
    return scn


def redraw_users(scn: Scenario, seed: int, *, count: int | None = None) -> Scenario:
    """Resample users from the stored recipe, keeping everything else.

    `count` overrides the user number; pilot length tracks it so pilots
    stay orthogonal.  Requires the scenario to carry a `user_model`.
    """
    if scn.user_model is None:
        raise ScenarioError("scenario has no user model to redraw from")
    k = scn.user_model.count if count is None else count
    # keep tau = K when the user count is swept
    pilot_len = scn.pilot_len if count in (None, scn.k_users) else count
    model = dataclasses.replace(scn.user_model, seed=seed, count=k)
    return validate_scenario(
        dataclasses.replace(
            scn, k_users=k, pilot_len=pilot_len, users=random_users(model),
            user_model=model,
        )
    )


def upa_layout(m_antennas: int, pitch: float, region_size: float) -> np.ndarray:
    """Centered rectangular grid of `m_antennas` positions.

    Uses ceil(sqrt(M)) columns, filling rows from the bottom-left; a
    partial top row is allowed.  Returns a (2, M) array of coordinates.
    Raises `ScenarioError` if the grid does not fit in the square region
    of side `region_size` centered at the origin.

    >>> upa_layout(4, 0.05, 0.6).shape
    (2, 4)
    """
    if m_antennas < 1:
        raise ScenarioError(f"m_antennas must be >= 1, got {m_antennas}")
    if pitch <= 0:
        raise ScenarioError(f"pitch must be positive, got {pitch}")
    ncols = math.isqrt(m_antennas)
    if ncols * ncols < m_antennas:
        ncols += 1
    nrows = -(-m_antennas // ncols)
    half = region_size / 2.0
    if (ncols - 1) / 2.0 * pitch > half or (nrows - 1) / 2.0 * pitch > half:
        raise ScenarioError(
            f"layout does not fit region: {nrows}x{ncols} grid at pitch "
            f"{pitch} exceeds side {region_size}"
        )
    idx = np.arange(m_antennas)
    col = idx % ncols
    row = idx // ncols
    x = (col - (ncols - 1) / 2.0) * pitch
    y = (row - (nrows - 1) / 2.0) * pitch
    return np.stack([x, y])


def grid_layout(scn: Scenario, slack: float = 1.0) -> np.ndarray:
    """Regular grid at pitch max(wavelength/2, d_min), padded by `slack` if that fits.

    Raises `ScenarioError` when even the unpadded grid does not fit.
    """
    pitch = max(scn.wavelength / 2.0, scn.d_min)
    try:
        return upa_layout(scn.m_antennas, slack * pitch, scn.region_size)
    except ScenarioError:
        return upa_layout(scn.m_antennas, pitch, scn.region_size)


# INI keys of each section and their converters to linear units
_SYSTEM_KEYS = {
    "m_antennas": int,
    "k_users": int,
    "wavelength_m": float,
    "region_size_m": float,
    "d_min_m": float,
    "tx_power_dbm": lambda raw: dbm_to_watt(float(raw)),
    "noise_power_dbm": lambda raw: dbm_to_watt(float(raw)),
    "coherence_len": int,
    "pilot_len": int,
}
_USERS_KEYS = {
    "seed": int,
    "count": int,
    "d_min_m": float,
    "d_max_m": float,
    "rician": float,
    "rician_db": lambda raw: db_to_linear(float(raw)),
    "path_loss_ref_db": lambda raw: db_to_linear(float(raw)),
    "path_loss_exp": float,
}
_HYPER_KEYS = {f.name: type(f.default) for f in dataclasses.fields(HyperParams)}


class _Section(dict):
    """Converted values of one INI section; reading an absent key is an error."""

    def __init__(self, name: str, items, schema: dict):
        super().__init__()
        self.name = name
        for key, raw in items:
            if key not in schema:
                raise ScenarioError(f"unknown key in [{name}]: {key}")
            try:
                self[key] = schema[key](raw)
            except (ValueError, OverflowError):
                raise ScenarioError(
                    f"bad value for {key} in [{name}]: {raw!r}"
                ) from None

    def __missing__(self, key):
        raise ScenarioError(f"missing key in [{self.name}]: {key}")


def load_scenario(path) -> Scenario:
    """Parse a scenario INI file.

    Sections: ``[system]`` (array and frame parameters), ``[users]``
    (either a generation recipe via seed/count/d_min_m/d_max_m, or
    explicit ``user1 = distance elevation azimuth`` lines), and an
    optional ``[hyper]`` for solver settings.  Powers are given in dBm,
    lengths in meters; values are taken literally (no ``%``
    interpolation).  Malformed input raises `ScenarioError` naming the
    offending section and key.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not UTF-8: {exc}") from None
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error in {path}: {exc}") from None

    for section in parser.sections():
        if section not in ("system", "users", "hyper"):
            raise ScenarioError(f"unknown section [{section}]")
    if not parser.has_section("system") or not parser.has_section("users"):
        raise ScenarioError("scenario file needs [system] and [users] sections")

    sys_sec = _Section("system", parser.items("system"), _SYSTEM_KEYS)
    explicit = {k: v for k, v in parser.items("users") if k.startswith("user")}
    usr_sec = _Section(
        "users",
        [(k, v) for k, v in parser.items("users") if k not in explicit],
        _USERS_KEYS,
    )
    if "rician" in usr_sec and "rician_db" in usr_sec:
        raise ScenarioError("[users] sets both rician and rician_db")
    large = dict(
        rician=usr_sec.get("rician", usr_sec.get("rician_db", UserModel.rician)),
        path_loss_ref=usr_sec.get("path_loss_ref_db", UserModel.path_loss_ref),
        path_loss_exp=usr_sec.get("path_loss_exp", UserModel.path_loss_exp),
    )

    model = None
    if explicit:
        expected = [f"user{i + 1}" for i in range(len(explicit))]
        if set(explicit) != set(expected):
            raise ScenarioError(
                f"[users] entries must be user1..user{len(explicit)}, "
                f"got {sorted(explicit)}"
            )
        lines = []
        for key in expected:
            parts = explicit[key].split()
            if len(parts) != 3:
                raise ScenarioError(
                    f"[users] {key} needs 'distance elevation azimuth', "
                    f"got {explicit[key]!r}"
                )
            try:
                lines.append([float(p) for p in parts])
            except ValueError:
                raise ScenarioError(f"bad number in [users] {key}") from None
        users = tuple(derive_user(*line, **large) for line in lines)
    else:
        lo, hi = UserModel.d_range
        d_range = (usr_sec.get("d_min_m", lo), usr_sec.get("d_max_m", hi))
        model = UserModel(usr_sec["seed"], usr_sec["count"], d_range, **large)
        users = random_users(model)

    hyper_items = parser.items("hyper") if parser.has_section("hyper") else ()
    return validate_scenario(
        Scenario(
            m_antennas=sys_sec["m_antennas"],
            k_users=sys_sec["k_users"],
            wavelength=sys_sec["wavelength_m"],
            region_size=sys_sec["region_size_m"],
            d_min=sys_sec.get("d_min_m", sys_sec["wavelength_m"] / 2.0),
            tx_power=sys_sec["tx_power_dbm"],
            noise_power=sys_sec["noise_power_dbm"],
            coherence_len=sys_sec["coherence_len"],
            pilot_len=sys_sec.get("pilot_len", sys_sec["k_users"]),
            users=users,
            hyper=HyperParams(**_Section("hyper", hyper_items, _HYPER_KEYS)),
            user_model=model,
        )
    )
