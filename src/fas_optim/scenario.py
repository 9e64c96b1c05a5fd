"""Scenario definitions: system geometry, user statistics, solver settings.

A scenario bundles everything the rate expressions and the position
optimizers need: array size, movement region, transmit/noise powers,
frame structure, and per-user large-scale statistics.  Users store only
geometry and path loss; the user count `k_users` and the per-user arrays
(diffuse powers, Rician factors, LoS amplitudes, LMMSE gains) are derived
`Scenario` properties, so no field change can leave them stale.  A
`Scenario` is built in code (`dataclasses.replace` too) or loaded from an
INI file (`load_scenario`); either way it checks itself and raises
`ScenarioError` naming the first bad field.
`worker_count` reads the one parallelism setting, `FAS_OPTIM_THREADS`.

The feasible set both position optimizers search lives here too: the
square movement box of side `region_size` centered at the origin
(`project` clamps a layout into it) and the minimum spacing `d_min`
between any two antennas (`violation_counts` and `violation_set` check
it), beside the regular grid (`upa_layout`, `grid_layout`) that is the
fixed-position baseline and both solvers' grid start.

Lengths are in meters, powers in watts, angles in radians.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
import os
from dataclasses import dataclass

import numpy as np


class ScenarioError(ValueError):
    """Raised when a scenario file or parameter set is inconsistent."""


def worker_count() -> int:
    """Workers for parallel work: `FAS_OPTIM_THREADS`, or the CPU count when unset.

    It sizes the sweep's process pool and the Monte Carlo threads; no
    result depends on it.
    """
    raw = os.environ.get("FAS_OPTIM_THREADS", "")
    if not raw:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ScenarioError(f"FAS_OPTIM_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ScenarioError(f"FAS_OPTIM_THREADS must be >= 1, got {n}")
    return n


def dbm_to_watt(dbm: float) -> float:
    return db_to_linear(dbm - 30.0)


def db_to_linear(db: float) -> float:
    """Linear ratio of `db` decibels; `OverflowError` above ~3083 dB."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class UserStats:
    """Large-scale state of one uplink user.

    `path_loss` is the total average channel gain per antenna, split into
    a line-of-sight part and a diffuse part by the linear Rician factor
    (``[users] rician``): per-entry LoS power is `nlos_power * rician` and
    diffuse power is `nlos_power`.  The LMMSE gain also depends on the
    pilot noise, so it lives on the scenario (`Scenario.est_gains`).
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
    """Large-scale statistics of one user: the recipe every user is derived from.

    A distance is uniform on `d_range` (meters) when drawn, and both arrival
    angles uniform on [0, pi]; the Rician factor and the path loss model
    apply to drawn and listed users alike.  The defaults are the reference
    large-scale model: Rician factor 6, -40 dB path loss at 1 m, exponent 2.8.
    """

    d_range: tuple[float, float] = (50.0, 70.0)
    rician: float = 6.0
    path_loss_ref: float = 1e-4
    path_loss_exp: float = 2.8


def derive_user(
    distance: float, elevation: float, azimuth: float, model: UserModel = UserModel()
) -> UserStats:
    """Build a `UserStats` from geometry and the large-scale `model`.

    Path loss follows ``path_loss_ref * distance ** -path_loss_exp`` with
    the reference gain taken at 1 m; the Rician factor is the model's.
    """
    if distance <= 0:
        raise ScenarioError(f"distance must be positive, got {distance}")
    try:  # Python floats raise on overflow where numpy's power only warns
        path_loss = model.path_loss_ref * float(distance) ** -float(model.path_loss_exp)
    except OverflowError:
        raise ScenarioError("path loss overflows (path_loss_ref_db, path_loss_exp)") from None
    return UserStats(path_loss, model.rician, elevation, azimuth)


def random_users(model: UserModel, count: int, seed: int) -> tuple[UserStats, ...]:
    """Draw `count` users of `model` from `seed`: every distance before any angle."""
    if seed < 0:
        raise ScenarioError(f"user seed must be >= 0, got {seed}")
    if count < 1:
        raise ScenarioError(f"[users] count must be >= 1, got {count}")
    lo, hi = model.d_range
    if not (0 < lo <= hi and math.isfinite(hi)):
        raise ScenarioError(
            f"bad distance range {model.d_range}: [users] d_min_m and d_max_m "
            "must be finite with 0 < d_min_m <= d_max_m"
        )
    rng = np.random.default_rng(seed)
    dist = rng.uniform(lo, hi, count)
    elev = rng.uniform(0.0, math.pi, count)
    azim = rng.uniform(0.0, math.pi, count)
    return tuple(derive_user(d, e, a, model) for d, e, a in zip(dist, elev, azim))


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
    """Full problem instance for rate evaluation and position design.

    Every instance is valid: building one, `dataclasses.replace` included,
    raises `ScenarioError` naming the first field that breaks an invariant.
    Each field's own range (the rule tables; kappa's cap `KAPPA_MAX` bounds
    the line search's step count) is checked first, then that float64 resolves
    `grad_tol` in the soft-min at sharpness `mu`, then that the largest LoS
    phase, (2*pi/wavelength) * region_size in the order `channel.steering`
    takes it, is finite, then the pilot length's relations, and all before
    the users' LMMSE gains, which divide by them.  A gain of 0 or 1 means
    one of its two variances is negligible against the other, and 0/0 that
    both vanish; the message names the keys behind each.  A Rician factor
    whose square overflows is rejected too, as the closed form squares it.

    `user_model` is the recipe drawn users came from, kept so
    `redraw_users` can draw new ones; like its distance range, its Rician
    factor describes future draws only, as the rates read each user's own.
    It is None for listed users, which are never redrawn.
    """

    m_antennas: int
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

    def __post_init__(self) -> None:
        _check_fields(self, _SCENARIO_RULES)
        _check_fields(self.hyper, _HYPER_RULES)
        # the soft-min's log-sum, in [0, ln K], rounds to about ln(K) 2^-52,
        # an error that 1/mu scales past grad_tol below this floor
        mu_floor = math.log(self.k_users) * 2.0**-52 / self.hyper.grad_tol
        if self.hyper.mu < mu_floor:
            raise ScenarioError(
                f"mu must be >= ln(K) * 2**-52 / grad_tol = {mu_floor:.3g} "
                f"(K = {self.k_users}, grad_tol = {self.hyper.grad_tol:g}), got "
                f"{self.hyper.mu:g}: below it the soft-min cannot resolve grad_tol in float64"
            )
        phase = 2.0 * math.pi / self.wavelength * self.region_size
        if not math.isfinite(phase):
            raise ScenarioError(
                f"LoS phase 2*pi/wavelength * region_size is {phase}: wavelength "
                f"{self.wavelength:.3g} and region_size {self.region_size:.3g} "
                "overflow the steering exponent"
            )
        if self.pilot_len < self.k_users:
            raise ScenarioError(
                f"pilot_len < k_users ({self.pilot_len} < {self.k_users}): "
                "orthogonal pilots need one column per user"
            )
        if self.pilot_len >= self.coherence_len:
            raise ScenarioError(
                f"pilot_len must leave room for data: {self.pilot_len} >= "
                f"coherence_len {self.coherence_len}"
            )
        for k, u in enumerate(self.users):
            _check_fields(u, _USER_RULES, f"user {k}: ")
            if not math.isfinite(u.rician * u.rician):
                raise ScenarioError(
                    f"user {k}: Rician factor {u.rician:.3g} (rician) "
                    "overflows when the closed form squares it"
                )
            if u.nlos_power == 0 and self.noise_over_taup == 0:
                raise ScenarioError(
                    f"user {k}: LMMSE gain is 0/0: diffuse variance 0 "
                    "(path_loss_ref_db, path_loss_exp) and pilot noise variance 0 "
                    "(tx_power_dbm, noise_power_dbm, pilot_len) both vanish"
                )
        for k, (u, gain) in enumerate(zip(self.users, self.est_gains)):
            if not 0 < gain < 1:
                c = f"diffuse variance {u.nlos_power:.3g} (path_loss_ref_db, path_loss_exp)"
                q = (
                    f"pilot noise variance {self.noise_over_taup:.3g} "
                    "(tx_power_dbm, noise_power_dbm, pilot_len)"
                )
                small, big = (c, q) if not gain > 0 else (q, c)
                raise ScenarioError(
                    f"user {k}: LMMSE gain is {gain}: {small} is negligible against {big}"
                )

    @property
    def k_users(self) -> int:
        return len(self.users)

    @property
    def noise_over_taup(self) -> float:
        return self.noise_power / (self.pilot_len * self.tx_power)

    @property
    def nlos_powers(self) -> np.ndarray:
        return np.array([u.nlos_power for u in self.users])

    @property
    def ricians(self) -> np.ndarray:
        return np.array([u.rician for u in self.users])

    @property
    def los_amps(self) -> np.ndarray:
        """Per-user LoS amplitude per entry, sqrt(c * rician), shape (K,)."""
        return np.sqrt(self.nlos_powers * self.ricians)

    @property
    def est_gains(self) -> np.ndarray:
        """Per-user LMMSE gain c / (c + noise_over_taup), shape (K,)."""
        c = self.nlos_powers
        return c / (c + self.noise_over_taup)

    @property
    def prelog(self) -> float:
        return (self.coherence_len - self.pilot_len) / self.coherence_len


KAPPA_MAX = 0.99  # 1834 line-search steps; the count grows as 1 / (1 - kappa)


def _check_fields(obj, rules, prefix: str = "") -> None:
    """Reject a non-finite float field of the dataclass `obj`, then one failing its rule."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ScenarioError(f"{prefix}{f.name} must be finite, got {value}")
    for name, test, requirement in rules:
        value = getattr(obj, name)
        if not test(value):
            raise ScenarioError(f"{prefix}{name} {requirement}, got {value}")


_SCENARIO_RULES = (
    ("m_antennas", lambda v: v >= 1, "must be >= 1"),
    ("k_users", lambda v: v >= 1, "must be >= 1"),
    ("wavelength", lambda v: v > 0, "must be positive"),
    ("region_size", lambda v: v > 0, "must be positive"),
    ("d_min", lambda v: v >= 0, "must be nonnegative"),
    ("tx_power", lambda v: v > 0, "must be positive"),
    ("noise_power", lambda v: v > 0, "must be positive"),
)
_HYPER_RULES = (
    ("mu", lambda v: 1e-300 <= v <= 1e300, "must lie in [1e-300, 1e300]"),
    ("kappa", lambda v: 0 < v <= KAPPA_MAX, f"must lie in (0, {KAPPA_MAX}]"),
    ("varpi", lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ("ga_pop", lambda v: v >= 2, "must be >= 2"),
    ("ga_max_iter", lambda v: v >= 1, "must be >= 1"),
    ("grad_max_iter", lambda v: v >= 1, "must be >= 1"),
    ("grad_tol", lambda v: v > 0, "must be positive"),
    ("seed", lambda v: v >= 0, "must be >= 0"),
)
_USER_RULES = (
    ("rician", lambda v: v >= 0, "must be nonnegative"),
    ("elevation", lambda v: 0.0 <= v <= math.pi, "must lie in [0, pi]"),
    ("azimuth", lambda v: 0.0 <= v <= math.pi, "must lie in [0, pi]"),
)


def redraw_users(scn: Scenario, seed: int, *, count: int | None = None) -> Scenario:
    """Draw new users of the scenario's `user_model` from `seed`, keeping everything else.

    Without `count` it draws `k_users` users and keeps the pilot length; a
    given `count` sets both the user number and the pilot length, tau = K.
    Requires the scenario to carry a `user_model`.
    """
    if scn.user_model is None:
        raise ScenarioError("scenario has no user model to redraw from")
    k = scn.k_users if count is None else count
    pilot_len = scn.pilot_len if count is None else count
    users = random_users(scn.user_model, k, seed)
    return dataclasses.replace(scn, pilot_len=pilot_len, users=users)


def upa_layout(m_antennas: int, pitch: float, region_size: float) -> np.ndarray:
    """Centered rectangular grid of `m_antennas` positions.

    Uses ceil(sqrt(M)) columns, filling rows from the bottom-left; a
    partial top row is allowed.  Returns a (2, M) array of coordinates.
    Requires m_antennas >= 1 and pitch > 0, which every `Scenario` gives
    `grid_layout`.  Raises `ScenarioError` if the grid does not fit in the
    square region of side `region_size` centered at the origin.

    >>> upa_layout(4, 0.05, 0.6).shape
    (2, 4)
    """
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

    Raises `ScenarioError` ("UPA does not fit: ...") when even the unpadded
    grid does not fit.
    """
    pitch = max(scn.wavelength / 2.0, scn.d_min)
    for pad in (slack, 1.0):
        try:
            return upa_layout(scn.m_antennas, pad * pitch, scn.region_size)
        except ScenarioError as exc:
            reason = exc
    raise ScenarioError(f"UPA does not fit: {reason}") from None


@functools.lru_cache(maxsize=16)
def _upper(m: int) -> np.ndarray:
    """Mask of the antenna pairs i < j, (M, M); shared, so never written to."""
    return np.triu(np.ones((m, m), dtype=bool), k=1)


def _violation_mask(layouts: np.ndarray, d_min: float) -> np.ndarray:
    """Upper-triangle mask of antenna pairs strictly closer than `d_min`.

    Distances are compared squared, so a grid at pitch exactly `d_min`
    yields no violations.  Shape (..., M, M).
    """
    layouts = np.asarray(layouts, dtype=float)
    x, y = layouts[..., 0, :], layouts[..., 1, :]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return (dx * dx + dy * dy < d_min * d_min) & _upper(layouts.shape[-1])


def project(layout: np.ndarray, region_size: float) -> np.ndarray:
    """Clamp every coordinate into the movement box, entry by entry."""
    half = region_size / 2.0
    return np.clip(np.asarray(layout, dtype=float), -half, half)


def violation_set(layout: np.ndarray, d_min: float) -> list[tuple[int, int]]:
    """Antenna index pairs (i < j) of one layout closer than `d_min`."""
    rows, cols = np.nonzero(_violation_mask(layout, d_min))
    return [(int(i), int(j)) for i, j in zip(rows, cols)]


def violation_counts(layouts: np.ndarray, d_min: float) -> np.ndarray:
    """Number of violating pairs for a batch of layouts, shape (...,)."""
    return np.sum(_violation_mask(layouts, d_min), axis=(-2, -1))


# INI keys of each section and their converters to linear units
_SYSTEM_KEYS = {
    "m_antennas": int,
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
    explicit ``user1 = distance elevation azimuth`` lines, not both; both
    forms derive through one `UserModel`, with rician, path_loss_ref_db and
    path_loss_exp), and an optional ``[hyper]`` for solver settings.  K is
    ``[users] count`` or the number of user lines, and ``pilot_len``
    defaults to it.  Powers are given in dBm, lengths in meters; values
    are taken literally (no ``%`` interpolation).  Malformed input, an
    unknown key included, raises `ScenarioError` naming the offending
    section and key.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None
    )
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is skipped
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
    lo, hi = UserModel.d_range
    model = UserModel(
        (usr_sec.get("d_min_m", lo), usr_sec.get("d_max_m", hi)),
        usr_sec.get("rician", UserModel.rician),
        usr_sec.get("path_loss_ref_db", UserModel.path_loss_ref),
        usr_sec.get("path_loss_exp", UserModel.path_loss_exp),
    )

    if explicit:
        recipe = [k for k in usr_sec if k in ("seed", "count", "d_min_m", "d_max_m")]
        if recipe:
            raise ScenarioError(
                f"[users] sets {', '.join(recipe)} beside user lines: give one form"
            )
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
        users = tuple(derive_user(*line, model) for line in lines)
    else:
        seed = usr_sec["seed"]  # named first when both keys are missing
        users = random_users(model, usr_sec["count"], seed)

    hyper_items = parser.items("hyper") if parser.has_section("hyper") else ()
    return Scenario(
        m_antennas=sys_sec["m_antennas"],
        wavelength=sys_sec["wavelength_m"],
        region_size=sys_sec["region_size_m"],
        d_min=sys_sec.get("d_min_m", sys_sec["wavelength_m"] / 2.0),
        tx_power=sys_sec["tx_power_dbm"],
        noise_power=sys_sec["noise_power_dbm"],
        coherence_len=sys_sec["coherence_len"],
        pilot_len=sys_sec.get("pilot_len", len(users)),
        users=users,
        hyper=HyperParams(**_Section("hyper", hyper_items, _HYPER_KEYS)),
        user_model=None if explicit else model,
    )
