"""Scenario files: INI-style configuration, validation, resolved manifests.

A scenario file holds nested sections mirroring the simulation inputs; every
key is optional and defaults to its dataclass field's default, the baseline.
Angles are degrees, station-level lengths kilometres; optics keys carry their
unit in the name (nm, urad, m, dB).  Values are stored as typed; SI values are
derived where they are read, not converted at the boundary.

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
from dataclasses import dataclass, field

from .constants import SECONDS_PER_DAY, ZENITH_CUTOFF_DEG
from .geometry import ConstellationKind, ConstellationSpec, GroundStation, min_ring_size
from .keyrate import OPTIMIZER_EVALS, OPTIMIZER_STARTS, ChannelModel, SecurityEpsilons
from .linkbudget import OpticalParams, TurbulenceProfile


# The largest sample grid of one day, floor(t_total_s / time_step_s) + 1
# samples.  A day's peak memory grows by about 0.45 KB a sample in max mode
# and 0.53 KB in asymmetric mode, above a base of about 85 MB (measured one
# day at a time: 124 MB at the default 86,401 samples, 396 MB at 691,201 and
# 710 MB at 1,382,401), so a grid this large peaks at about 1.1 GB.
MAX_DAY_SAMPLES = 2_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: ConstellationSpec = field(default_factory=ConstellationSpec)
    gs1: GroundStation = field(default_factory=GroundStation)
    optics: OpticalParams = field(default_factory=OpticalParams)
    turbulence: TurbulenceProfile = field(default_factory=TurbulenceProfile)
    channel: ChannelModel = field(default_factory=ChannelModel)
    eps: SecurityEpsilons = field(default_factory=SecurityEpsilons)
    theta_max_deg: float = ZENITH_CUTOFF_DEG
    t_total_s: float = SECONDS_PER_DAY
    n_days: int = 30
    seed: int = 1
    time_step_s: float = 1.0
    effective_mode: str = "max"
    # The published inter-satellite loss curves that the effective-link rule
    # points at carry only the optics and geometric-capture terms, so the
    # pointing factor stays out of the effective link by default.
    isl_pointing_in_effective: bool = False
    pooling: str = "daily"
    vary_phase: bool = True
    optimizer_starts: int = OPTIMIZER_STARTS
    optimizer_evals: int = OPTIMIZER_EVALS
    workers: int = 1

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

    @property
    def gs2(self) -> GroundStation:
        """The antipodal station: GS1's latitude, 180 degrees on in longitude."""
        return GroundStation(2, self.gs1.latitude_deg, (self.gs1.longitude_deg + 180.0) % 360.0)


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


# (section, key) -> (parser, target, field).  The target dataclass receives
# the parsed value as that field, and a key left unset takes the field's
# default; GroundStation is gs1.  The manifest lists the keys in this order.
_TABLE = {
    ("constellation", "kind"): (ConstellationKind, ConstellationSpec, "kind"),
    ("constellation", "num_sats"): (int, ConstellationSpec, "num_sats"),
    ("constellation", "altitude_km"): (float, ConstellationSpec, "altitude_km"),
    ("constellation", "atm_shell_km"): (float, ConstellationSpec, "atm_shell_km"),
    ("constellation", "phase0_deg"): (float, ConstellationSpec, "phase0_deg"),
    ("constellation", "epoch_s"): (float, ConstellationSpec, "epoch_s"),
    ("ground_stations", "latitude_deg"): (float, GroundStation, "latitude_deg"),
    ("ground_stations", "gs1_longitude_deg"): (float, GroundStation, "longitude_deg"),
    ("optics", "wavelength_nm"): (float, OpticalParams, "wavelength_nm"),
    ("optics", "beam_divergence_urad"): (float, OpticalParams, "beam_divergence_urad"),
    ("optics", "gs_tx_diameter_m"): (float, OpticalParams, "gs_tx_diameter_m"),
    ("optics", "sat_tx_diameter_m"): (float, OpticalParams, "sat_tx_diameter_m"),
    ("optics", "sat_rx_diameter_m"): (float, OpticalParams, "sat_rx_diameter_m"),
    ("optics", "gs_beam_waist_m"): (float, OpticalParams, "gs_beam_waist_m"),
    ("optics", "pointing_jitter_urad"): (float, OpticalParams, "pointing_jitter_urad"),
    ("optics", "optics_efficiency"): (float, OpticalParams, "optics_efficiency"),
    ("optics", "atm_loss_db_zenith"): (float, OpticalParams, "atm_loss_db_zenith"),
    ("turbulence", "model"): (_choice("hufnagel_valley", "none"), TurbulenceProfile, "model"),
    ("turbulence", "wind_speed_mps"): (float, TurbulenceProfile, "wind_speed_mps"),
    ("turbulence", "cn2_ground"): (float, TurbulenceProfile, "cn2_ground"),
    ("turbulence", "gs_altitude_m"): (float, TurbulenceProfile, "gs_altitude_m"),
    ("turbulence", "h_top_m"): (float, TurbulenceProfile, "h_top_m"),
    ("turbulence", "wander_residual"): (float, TurbulenceProfile, "wander_residual"),
    ("channel", "detector_efficiency"): (float, ChannelModel, "detector_efficiency"),
    ("channel", "dark_count_prob"): (float, ChannelModel, "dark_count_prob"),
    ("channel", "optical_error"): (float, ChannelModel, "optical_error"),
    ("channel", "rep_rate_ghz"): (float, ChannelModel, "rep_rate_ghz"),
    ("channel", "error_correction_factor"): (float, ChannelModel, "error_correction_factor"),
    ("channel", "effective_mode"): (_choice("max", "asymmetric"), ScenarioConfig, "effective_mode"),
    ("channel", "isl_pointing_in_effective"): (_bool, ScenarioConfig, "isl_pointing_in_effective"),
    ("security", "eps_cor"): (float, SecurityEpsilons, "eps_cor"),
    ("security", "eps_pa"): (float, SecurityEpsilons, "eps_pa"),
    ("security", "eps_hat"): (float, SecurityEpsilons, "eps_hat"),
    ("security", "eps_bar"): (float, SecurityEpsilons, "eps_bar"),
    ("security", "eps_n1"): (float, SecurityEpsilons, "eps_n1"),
    ("campaign", "t_total_s"): (float, ScenarioConfig, "t_total_s"),
    ("campaign", "n_days"): (int, ScenarioConfig, "n_days"),
    ("campaign", "seed"): (int, ScenarioConfig, "seed"),
    ("campaign", "time_step_s"): (float, ScenarioConfig, "time_step_s"),
    ("campaign", "theta_max_deg"): (float, ScenarioConfig, "theta_max_deg"),
    ("campaign", "pooling"): (_choice("daily", "session"), ScenarioConfig, "pooling"),
    ("campaign", "vary_phase"): (_bool, ScenarioConfig, "vary_phase"),
    ("campaign", "optimizer_starts"): (int, ScenarioConfig, "optimizer_starts"),
    ("campaign", "optimizer_evals"): (int, ScenarioConfig, "optimizer_evals"),
    ("campaign", "workers"): (int, ScenarioConfig, "workers"),
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
    """Load a scenario file (or pure defaults when ``path`` is None); a key
    set by neither takes its dataclass default."""
    kwargs = {target: {} for target in (*_PARTS, ScenarioConfig)}
    for k, value in read_values(path, _TABLE, overrides).items():
        _, target, name = _TABLE[k]
        kwargs[target][name] = value
    parts = {attr: _build(cls, kwargs[cls]) for cls, attr in _PARTS.items()}
    return _build(ScenarioConfig, kwargs[ScenarioConfig], **parts)


def _build(target, values: dict, **parts):
    """``target(**parts, **values)``.  An error that one of ``values`` raises
    on its own names that value's key, as the table spells it."""
    try:
        return target(**parts, **values)
    except ValueError as exc:
        for name, value in values.items():
            try:
                target(**{name: value})
            except ValueError as alone:
                if str(alone) == str(exc):
                    sec, key = next(k for k, row in _TABLE.items() if row[1:] == (target, name))
                    raise ValueError(f"bad value for {sec}.{key}: {value!r} ({exc})") from None
        raise


def format_value(v) -> str:
    """A value as the manifest and the CSV outputs write it."""
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
    for (sec, key), (_, target, name) in _TABLE.items():
        if sec != section:
            out.write(f"\n[{sec}]\n" if section else f"[{sec}]\n")
            section = sec
        part = config if target is ScenarioConfig else getattr(config, _PARTS[target])
        out.write(f"{key} = {format_value(getattr(part, name))}\n")
    out.write("\n")
    return out.getvalue()
