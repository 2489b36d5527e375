"""Scenario files: INI-style configuration, validation, resolved manifests.

A scenario file holds nested sections mirroring the simulation inputs; every
key is optional and defaults to the baseline parameter table.  Angles are
degrees, station-level lengths kilometres; optics keys carry their unit in
the name (nm, urad, m, dB).  Internally everything is converted to SI
radians/metres at the boundary.

``_TABLE`` is the one list of keys.  Loading a scenario and writing its
manifest are both loops over it, so a new key is one table row.  Every
``ScenarioConfig`` is validated when it is built, ``dataclasses.replace``
included.
"""

from __future__ import annotations

import configparser
import enum
import io
import math
from dataclasses import dataclass

from .constants import SECONDS_PER_DAY
from .geometry import ConstellationKind, ConstellationSpec, GroundStation, min_ring_size
from .keyrate import ChannelModel, SecurityEpsilons
from .linkbudget import OpticalParams, TurbulenceProfile


# The largest sample grid of one day, floor(t_total_s / time_step_s) + 1
# samples.  A day's peak memory grows by about 0.45 KB a sample in max mode
# and 0.53 KB in asymmetric mode, above a base of about 85 MB (measured one
# day at a time: 124 MB at the default 86,401 samples, 396 MB at 691,201 and
# 710 MB at 1,382,401), so a grid this large peaks at about 1.1 GB.
MAX_DAY_SAMPLES = 2_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: ConstellationSpec
    gs1: GroundStation
    gs2: GroundStation
    optics: OpticalParams
    turbulence: TurbulenceProfile
    channel: ChannelModel
    eps: SecurityEpsilons
    theta_max_deg: float
    t_total_s: float
    n_days: int
    seed: int
    time_step_s: float
    effective_mode: str
    isl_pointing_in_effective: bool
    pooling: str
    vary_phase: bool
    optimizer_starts: int
    optimizer_evals: int
    workers: int

    def __post_init__(self) -> None:
        c = self.constellation
        if c.num_sats % 2 != 0:
            raise ValueError(
                "two-ground-station scenarios need an even number of"
                " satellites for the antipodal attachment pairing"
            )
        n_min = min_ring_size(c.altitude_km, c.atm_shell_km)
        if c.num_sats < n_min:
            raise ValueError(
                f"num_sats={c.num_sats} below the minimum ring size {n_min}"
                f" for altitude {c.altitude_km} km"
            )
        if self.gs1.latitude_deg != self.gs2.latitude_deg:
            raise ValueError("ground stations must share a latitude")
        dlon = (self.gs2.longitude_deg - self.gs1.longitude_deg) % 360.0
        if not math.isclose(dlon, 180.0, abs_tol=1e-9):
            raise ValueError("ground stations must be 180 degrees apart in longitude")
        if self.effective_mode not in ("max", "asymmetric"):
            raise ValueError(f"unknown effective_mode: {self.effective_mode}")
        if self.pooling not in ("daily", "session"):
            raise ValueError(f"unknown pooling mode: {self.pooling}")
        if not 0.0 < self.theta_max_deg < 90.0:
            raise ValueError("theta_max_deg must lie in (0, 90)")
        if not (0.0 < self.t_total_s < math.inf and 0.0 < self.time_step_s < math.inf):
            raise ValueError("t_total_s and time_step_s must be positive and finite")
        if self.time_step_s > self.t_total_s:
            raise ValueError(
                f"time_step_s={self.time_step_s} exceeds the day window t_total_s={self.t_total_s}"
            )
        ratio = self.t_total_s / self.time_step_s
        if ratio >= MAX_DAY_SAMPLES:  # floor(ratio) + 1 > MAX_DAY_SAMPLES
            samples = math.floor(ratio) + 1 if math.isfinite(ratio) else ratio
            raise ValueError(
                f"t_total_s / time_step_s makes a sample grid of {samples} samples a day, above"
                f" the limit MAX_DAY_SAMPLES = {MAX_DAY_SAMPLES:,}"
            )
        if not (self.n_days >= 1 and self.optimizer_starts >= 1 and self.optimizer_evals >= 1):
            raise ValueError("n_days and optimiser budgets must be >= 1")
        if not self.workers >= 1:
            raise ValueError("workers must be >= 1")


def _bool(raw: str) -> bool:
    """configparser's boolean spellings (1/yes/true/on, 0/no/false/off), no others."""
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _choice(*options: str):
    """Parser for a string key that takes only ``options``."""
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw
    return parse


# (section, key) -> (parser, default in file units, target, field, unit scale).
# The target dataclass receives ``value * scale`` as its field; GroundStation
# is gs1.  Defaults stay in file units because 15.0 * 1e-6 != 15e-6.  The
# manifest lists the keys in this order.
_TABLE = {
    ("constellation", "kind"): (
        ConstellationKind, ConstellationKind.TYPE2_EQUATORIAL, ConstellationSpec, "kind", 1),
    ("constellation", "num_sats"): (int, 12, ConstellationSpec, "num_sats", 1),
    ("constellation", "altitude_km"): (float, 500.0, ConstellationSpec, "altitude_km", 1),
    ("constellation", "atm_shell_km"): (float, 100.0, ConstellationSpec, "atm_shell_km", 1),
    ("constellation", "phase0_deg"): (float, 0.0, ConstellationSpec, "phase0_deg", 1),
    ("constellation", "epoch_s"): (float, 0.0, ConstellationSpec, "epoch_s", 1),
    ("ground_stations", "latitude_deg"): (float, 0.0, GroundStation, "latitude_deg", 1),
    ("ground_stations", "gs1_longitude_deg"): (float, 0.0, GroundStation, "longitude_deg", 1),
    ("optics", "wavelength_nm"): (float, 850.0, OpticalParams, "wavelength_m", 1e-9),
    ("optics", "beam_divergence_urad"): (float, 15.0, OpticalParams, "beam_divergence_rad", 1e-6),
    ("optics", "gs_tx_diameter_m"): (float, 0.54, OpticalParams, "gs_tx_diameter_m", 1),
    ("optics", "sat_tx_diameter_m"): (float, 0.30, OpticalParams, "sat_tx_diameter_m", 1),
    ("optics", "sat_rx_diameter_m"): (float, 0.30, OpticalParams, "sat_rx_diameter_m", 1),
    ("optics", "gs_beam_waist_m"): (float, 0.27, OpticalParams, "gs_beam_waist_m", 1),
    ("optics", "pointing_jitter_urad"): (float, 1.0, OpticalParams, "pointing_jitter_rad", 1e-6),
    ("optics", "optics_efficiency"): (float, 0.5, OpticalParams, "optics_efficiency", 1),
    ("optics", "atm_loss_db_zenith"): (float, 1.55, OpticalParams, "atm_loss_db_zenith", 1),
    ("turbulence", "model"): (
        _choice("hufnagel_valley", "none"), "hufnagel_valley", TurbulenceProfile, "model", 1),
    ("turbulence", "wind_speed_mps"): (float, 21.0, TurbulenceProfile, "wind_speed_mps", 1),
    ("turbulence", "cn2_ground"): (float, 1.7e-14, TurbulenceProfile, "cn2_ground", 1),
    ("turbulence", "gs_altitude_m"): (float, 0.0, TurbulenceProfile, "gs_altitude_m", 1),
    ("turbulence", "h_top_m"): (float, 20000.0, TurbulenceProfile, "h_top_m", 1),
    ("turbulence", "wander_residual"): (float, 0.2, TurbulenceProfile, "wander_residual", 1),
    ("channel", "detector_efficiency"): (float, 0.5, ChannelModel, "detector_efficiency", 1),
    ("channel", "dark_count_prob"): (float, 1e-9, ChannelModel, "dark_count_prob", 1),
    ("channel", "optical_error"): (float, 0.05, ChannelModel, "optical_error", 1),
    ("channel", "rep_rate_ghz"): (float, 1.0, ChannelModel, "rep_rate_hz", 1e9),
    ("channel", "error_correction_factor"): (
        float, 1.11, ChannelModel, "error_correction_factor", 1),
    ("channel", "effective_mode"): (
        _choice("max", "asymmetric"), "max", ScenarioConfig, "effective_mode", 1),
    # The published inter-satellite loss curves that the effective-link rule
    # points at carry only the optics and geometric-capture terms, so the
    # pointing factor stays out of the effective link by default.
    ("channel", "isl_pointing_in_effective"): (
        _bool, False, ScenarioConfig, "isl_pointing_in_effective", 1),
    ("security", "eps_cor"): (float, 1e-10, SecurityEpsilons, "eps_cor", 1),
    ("security", "eps_pa"): (float, 1e-10, SecurityEpsilons, "eps_pa", 1),
    ("security", "eps_hat"): (float, 1e-10, SecurityEpsilons, "eps_hat", 1),
    ("security", "eps_bar"): (float, 1e-10, SecurityEpsilons, "eps_bar", 1),
    ("security", "eps_n1"): (float, 1e-10, SecurityEpsilons, "eps_n1", 1),
    ("campaign", "t_total_s"): (float, SECONDS_PER_DAY, ScenarioConfig, "t_total_s", 1),
    ("campaign", "n_days"): (int, 30, ScenarioConfig, "n_days", 1),
    ("campaign", "seed"): (int, 1, ScenarioConfig, "seed", 1),
    ("campaign", "time_step_s"): (float, 1.0, ScenarioConfig, "time_step_s", 1),
    ("campaign", "theta_max_deg"): (float, 70.0, ScenarioConfig, "theta_max_deg", 1),
    ("campaign", "pooling"): (_choice("daily", "session"), "daily", ScenarioConfig, "pooling", 1),
    ("campaign", "vary_phase"): (_bool, True, ScenarioConfig, "vary_phase", 1),
    ("campaign", "optimizer_starts"): (int, 3, ScenarioConfig, "optimizer_starts", 1),
    ("campaign", "optimizer_evals"): (int, 400, ScenarioConfig, "optimizer_evals", 1),
    ("campaign", "workers"): (int, 1, ScenarioConfig, "workers", 1),
}

# the nested dataclasses of a ScenarioConfig, each with the field that holds it
_PARTS = {
    ConstellationSpec: "constellation",
    GroundStation: "gs1",
    OpticalParams: "optics",
    TurbulenceProfile: "turbulence",
    ChannelModel: "channel",
    SecurityEpsilons: "eps",
}


def _convert(table: dict, sec: str, key: str, raw: str):
    """One value from its text by its row's parser; non-finite floats are rejected."""
    if (sec, key) not in table:
        raise ValueError(f"unknown scenario key {sec}.{key}")
    try:
        value = table[sec, key][0](raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {sec}.{key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{sec}.{key} must be finite, got {raw!r}")
    return value


def read_values(path: str | None, table: dict, overrides=()) -> dict:
    """(section, key) -> value for each key set in the INI file at ``path`` or
    by a ``section.key=value`` override, parsed by the first item of its
    ``table`` row.  Unknown keys and rejected values raise ValueError."""
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        sections = {sec for sec, _ in table}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh, source=path)
            for sec in parser.sections():
                if sec not in sections:
                    raise ValueError(f"unknown scenario section [{sec}]")
                for key, raw in parser.items(sec):
                    values[sec, key] = _convert(table, sec, key, raw)
        except configparser.Error as exc:
            raise ValueError(f"unreadable scenario file: {exc}") from exc
    for item in overrides:
        try:
            dotted, raw = item.split("=", 1)
            sec, key = dotted.strip().split(".", 1)
        except ValueError as exc:
            raise ValueError(f"override must look like section.key=value: {item!r}") from exc
        values[sec, key] = _convert(table, sec, key, raw.strip())
    return values


def load_scenario(path: str | None = None, overrides=()) -> ScenarioConfig:
    """Load a scenario file (or pure defaults when ``path`` is None)."""
    values = {k: row[1] for k, row in _TABLE.items()}
    values.update(read_values(path, _TABLE, overrides))
    kwargs = {target: {} for target in (*_PARTS, ScenarioConfig)}
    kwargs[GroundStation]["id"] = 1
    for k, (_, _, target, name, scale) in _TABLE.items():
        kwargs[target][name] = values[k] if scale == 1 else values[k] * scale
    parts = {attr: cls(**kwargs[cls]) for cls, attr in _PARTS.items()}
    gs1 = parts["gs1"]
    gs2 = GroundStation(2, gs1.latitude_deg, (gs1.longitude_deg + 180.0) % 360.0)
    return ScenarioConfig(**parts, gs2=gs2, **kwargs[ScenarioConfig])


def _preimage(value: float, scale: float) -> float:
    """Interface-unit value u with u * scale bit-identical to ``value``."""
    u = value / scale
    if u * scale == value:
        return u
    for cand in (math.nextafter(u, math.inf), math.nextafter(u, -math.inf)):
        if cand * scale == value:
            return cand
    return u


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, enum.Enum):
        return v.value
    return str(v)


def manifest(config: ScenarioConfig) -> str:
    """Scenario serialised back to INI text; reloading it reproduces the run."""
    out = io.StringIO()
    section = None
    for (sec, key), (_, _, target, name, scale) in _TABLE.items():
        if sec != section:
            out.write(f"\n[{sec}]\n" if section else f"[{sec}]\n")
            section = sec
        part = config if target is ScenarioConfig else getattr(config, _PARTS[target])
        value = getattr(part, name)
        out.write(f"{key} = {_fmt(value if scale == 1 else _preimage(value, scale))}\n")
    out.write("\n")
    return out.getvalue()
