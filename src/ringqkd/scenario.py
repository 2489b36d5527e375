"""Scenario files: INI-style configuration, validation, resolved manifests.

A scenario file holds nested sections mirroring the simulation inputs; every
key is optional and defaults to the baseline parameter table.  Angles are
degrees, station-level lengths kilometres; optics keys carry their unit in
the name (nm, urad, m, dB).  Internally everything is converted to SI
radians/metres at the boundary.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .constants import SECONDS_PER_DAY
from .geometry import ConstellationKind, ConstellationSpec, GroundStation, min_ring_size
from .keyrate import ChannelModel, SecurityEpsilons
from .linkbudget import OpticalParams, TurbulenceProfile


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: ConstellationSpec
    gs1: GroundStation
    gs2: GroundStation
    optics: OpticalParams
    turbulence: TurbulenceProfile
    channel: ChannelModel
    eps: SecurityEpsilons
    theta_max_deg: float = 70.0
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
    optimizer_starts: int = 3
    optimizer_evals: int = 400
    workers: int = 1

    def validate(self) -> None:
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
        if self.t_total_s <= 0 or self.time_step_s <= 0:
            raise ValueError("t_total_s and time_step_s must be positive")
        if self.n_days < 1 or self.optimizer_starts < 1 or self.optimizer_evals < 1:
            raise ValueError("n_days and optimiser budgets must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


_KINDS = {"type1": ConstellationKind.TYPE1_POLAR, "type2": ConstellationKind.TYPE2_EQUATORIAL}

# section -> key -> (parser, default)
_SCHEMA = {
    "constellation": {
        "kind": (str, "type2"),
        "num_sats": (int, 12),
        "altitude_km": (float, 500.0),
        "atm_shell_km": (float, 100.0),
        "phase0_deg": (float, 0.0),
        "epoch_s": (float, 0.0),
    },
    "ground_stations": {
        "latitude_deg": (float, 0.0),
        "gs1_longitude_deg": (float, 0.0),
    },
    "optics": {
        "wavelength_nm": (float, 850.0),
        "beam_divergence_urad": (float, 15.0),
        "gs_tx_diameter_m": (float, 0.54),
        "sat_tx_diameter_m": (float, 0.30),
        "sat_rx_diameter_m": (float, 0.30),
        "gs_beam_waist_m": (float, 0.27),
        "pointing_jitter_urad": (float, 1.0),
        "optics_efficiency": (float, 0.5),
        "atm_loss_db_zenith": (float, 1.55),
    },
    "turbulence": {
        "model": (str, "hufnagel_valley"),
        "wind_speed_mps": (float, 21.0),
        "cn2_ground": (float, 1.7e-14),
        "gs_altitude_m": (float, 0.0),
        "h_top_m": (float, 20000.0),
        "wander_residual": (float, 0.2),
    },
    "channel": {
        "detector_efficiency": (float, 0.5),
        "dark_count_prob": (float, 1e-9),
        "optical_error": (float, 0.05),
        "rep_rate_ghz": (float, 1.0),
        "error_correction_factor": (float, 1.11),
        "effective_mode": (str, "max"),
        "isl_pointing_in_effective": (lambda s: str(s).lower() in ("1", "true", "yes"), False),
    },
    "security": {
        "eps_cor": (float, 1e-10),
        "eps_pa": (float, 1e-10),
        "eps_hat": (float, 1e-10),
        "eps_bar": (float, 1e-10),
        "eps_n1": (float, 1e-10),
    },
    "campaign": {
        "t_total_s": (float, SECONDS_PER_DAY),
        "n_days": (int, 30),
        "seed": (int, 1),
        "time_step_s": (float, 1.0),
        "theta_max_deg": (float, 70.0),
        "pooling": (str, "daily"),
        "vary_phase": (lambda s: str(s).lower() in ("1", "true", "yes"), True),
        "optimizer_starts": (int, 3),
        "optimizer_evals": (int, 400),
        "workers": (int, 1),
    },
}


def _convert(sec: str, key: str, raw: str):
    """One scenario value from its text; non-finite floats are rejected."""
    try:
        value = _SCHEMA[sec][key][0](raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {sec}.{key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{sec}.{key} must be finite, got {raw!r}")
    return value


def _resolve(parser: configparser.ConfigParser | None, overrides) -> dict:
    values = {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in _SCHEMA.items()}
    if parser is not None:
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ValueError(f"unknown scenario section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ValueError(f"unknown scenario key {sec}.{key}")
                values[sec][key] = _convert(sec, key, raw)
    for item in overrides or ():
        try:
            dotted, raw = item.split("=", 1)
            sec, key = dotted.strip().split(".", 1)
        except ValueError as exc:
            raise ValueError(f"override must look like section.key=value: {item!r}") from exc
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ValueError(f"unknown override target {sec}.{key}")
        values[sec][key] = _convert(sec, key, raw.strip())
    return values


def build_config(values: dict) -> ScenarioConfig:
    c = values["constellation"]
    if c["kind"] not in _KINDS:
        raise ValueError(f"unknown constellation kind: {c['kind']}")
    spec = ConstellationSpec(
        kind=_KINDS[c["kind"]],
        num_sats=c["num_sats"],
        altitude_km=c["altitude_km"],
        epoch_s=c["epoch_s"],
        atm_shell_km=c["atm_shell_km"],
        phase0_deg=c["phase0_deg"],
    )
    g = values["ground_stations"]
    gs1 = GroundStation(1, g["latitude_deg"], g["gs1_longitude_deg"])
    gs2 = GroundStation(2, g["latitude_deg"], (g["gs1_longitude_deg"] + 180.0) % 360.0)
    o = values["optics"]
    optics = OpticalParams(
        wavelength_m=o["wavelength_nm"] * 1e-9,
        beam_divergence_rad=o["beam_divergence_urad"] * 1e-6,
        gs_tx_diameter_m=o["gs_tx_diameter_m"],
        sat_tx_diameter_m=o["sat_tx_diameter_m"],
        sat_rx_diameter_m=o["sat_rx_diameter_m"],
        gs_beam_waist_m=o["gs_beam_waist_m"],
        pointing_jitter_rad=o["pointing_jitter_urad"] * 1e-6,
        optics_efficiency=o["optics_efficiency"],
        atm_loss_db_zenith=o["atm_loss_db_zenith"],
    )
    t = values["turbulence"]
    turbulence = TurbulenceProfile(
        model=t["model"],
        wind_speed_mps=t["wind_speed_mps"],
        cn2_ground=t["cn2_ground"],
        gs_altitude_m=t["gs_altitude_m"],
        h_top_m=t["h_top_m"],
        wander_residual=t["wander_residual"],
    )
    ch = values["channel"]
    channel = ChannelModel(
        efficiency=1.0,
        detector_efficiency=ch["detector_efficiency"],
        dark_count_prob=ch["dark_count_prob"],
        optical_error=ch["optical_error"],
        rep_rate_hz=ch["rep_rate_ghz"] * 1e9,
        error_correction_factor=ch["error_correction_factor"],
    )
    s = values["security"]
    eps = SecurityEpsilons(
        eps_cor=s["eps_cor"],
        eps_pa=s["eps_pa"],
        eps_hat=s["eps_hat"],
        eps_bar=s["eps_bar"],
        eps_n1=s["eps_n1"],
    )
    k = values["campaign"]
    config = ScenarioConfig(
        constellation=spec,
        gs1=gs1,
        gs2=gs2,
        optics=optics,
        turbulence=turbulence,
        channel=channel,
        eps=eps,
        theta_max_deg=k["theta_max_deg"],
        t_total_s=k["t_total_s"],
        n_days=k["n_days"],
        seed=k["seed"],
        time_step_s=k["time_step_s"],
        effective_mode=ch["effective_mode"],
        isl_pointing_in_effective=ch["isl_pointing_in_effective"],
        pooling=k["pooling"],
        vary_phase=k["vary_phase"],
        optimizer_starts=k["optimizer_starts"],
        optimizer_evals=k["optimizer_evals"],
        workers=k["workers"],
    )
    config.validate()
    return config


def load_scenario(path: str | None = None, overrides=()) -> ScenarioConfig:
    """Load a scenario file (or pure defaults when ``path`` is None)."""
    parser = None
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    return build_config(_resolve(parser, overrides))


def _preimage(value: float, scale: float) -> float:
    """Interface-unit value u with u * scale bit-identical to ``value``."""
    u = value / scale
    if u * scale == value:
        return u
    for cand in (math.nextafter(u, math.inf), math.nextafter(u, -math.inf)):
        if cand * scale == value:
            return cand
    return u


def resolved_values(config: ScenarioConfig) -> dict:
    """The scenario back in file units, every key explicit."""
    c = config.constellation
    kind = "type1" if c.kind is ConstellationKind.TYPE1_POLAR else "type2"
    return {
        "constellation": {
            "kind": kind,
            "num_sats": c.num_sats,
            "altitude_km": c.altitude_km,
            "atm_shell_km": c.atm_shell_km,
            "phase0_deg": c.phase0_deg,
            "epoch_s": c.epoch_s,
        },
        "ground_stations": {
            "latitude_deg": config.gs1.latitude_deg,
            "gs1_longitude_deg": config.gs1.longitude_deg,
        },
        "optics": {
            "wavelength_nm": _preimage(config.optics.wavelength_m, 1e-9),
            "beam_divergence_urad": _preimage(config.optics.beam_divergence_rad, 1e-6),
            "gs_tx_diameter_m": config.optics.gs_tx_diameter_m,
            "sat_tx_diameter_m": config.optics.sat_tx_diameter_m,
            "sat_rx_diameter_m": config.optics.sat_rx_diameter_m,
            "gs_beam_waist_m": config.optics.gs_beam_waist_m,
            "pointing_jitter_urad": _preimage(config.optics.pointing_jitter_rad, 1e-6),
            "optics_efficiency": config.optics.optics_efficiency,
            "atm_loss_db_zenith": config.optics.atm_loss_db_zenith,
        },
        "turbulence": {
            "model": config.turbulence.model,
            "wind_speed_mps": config.turbulence.wind_speed_mps,
            "cn2_ground": config.turbulence.cn2_ground,
            "gs_altitude_m": config.turbulence.gs_altitude_m,
            "h_top_m": config.turbulence.h_top_m,
            "wander_residual": config.turbulence.wander_residual,
        },
        "channel": {
            "detector_efficiency": config.channel.detector_efficiency,
            "dark_count_prob": config.channel.dark_count_prob,
            "optical_error": config.channel.optical_error,
            "rep_rate_ghz": _preimage(config.channel.rep_rate_hz, 1e9),
            "error_correction_factor": config.channel.error_correction_factor,
            "effective_mode": config.effective_mode,
            "isl_pointing_in_effective": config.isl_pointing_in_effective,
        },
        "security": {
            "eps_cor": config.eps.eps_cor,
            "eps_pa": config.eps.eps_pa,
            "eps_hat": config.eps.eps_hat,
            "eps_bar": config.eps.eps_bar,
            "eps_n1": config.eps.eps_n1,
        },
        "campaign": {
            "t_total_s": config.t_total_s,
            "n_days": config.n_days,
            "seed": config.seed,
            "time_step_s": config.time_step_s,
            "theta_max_deg": config.theta_max_deg,
            "pooling": config.pooling,
            "vary_phase": config.vary_phase,
            "optimizer_starts": config.optimizer_starts,
            "optimizer_evals": config.optimizer_evals,
            "workers": config.workers,
        },
    }


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def manifest(config: ScenarioConfig) -> str:
    """Scenario serialised back to INI text; reloading it reproduces the run."""
    out = io.StringIO()
    for sec, keys in resolved_values(config).items():
        out.write(f"[{sec}]\n")
        for key, val in keys.items():
            out.write(f"{key} = {_fmt(val)}\n")
        out.write("\n")
    return out.getvalue()
