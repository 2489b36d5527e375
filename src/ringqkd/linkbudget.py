"""Optical channel efficiencies for ground-satellite uplinks and ISLs.

Uplink model (ground -> satellite, turbulence-aware):

    eta_UL = eta_opt * eta_atm^sec(zen) * L_fs * G_t * G_r * <eta_turb>

with free-space loss L_fs = (lambda / 4 pi L)^2, transmitter gain
G_t = 8 / Theta_B^2 (Theta_B is the full far-field divergence angle) and
receiver gain G_r = 4 pi A_r / lambda^2.  The turbulence factor combines two
penalties relative to the diffraction-limited link:

  * long-term beam spread: the ground beam (waist w0) is broadened to
    w_LT^2 = w_diff(L)^2 + (2.1 lambda L / (2 pi r0))^2 and the penalty is
    the ratio of aperture coupling at w_LT versus w_diff;
  * turbulence-induced beam wander: residual angular jitter with variance
    sigma_bw^2 = wander_residual * 0.54 (lambda/2w0)^2 (2w0/r0)^(5/3),
    applied as exp(-(G_t + G_r) sigma_bw^2) in the same way platform jitter
    degrades an ISL.  The wander variance scales with sec(zen) through the
    Fried parameter.  ``wander_residual`` models ground-station tip-tilt
    precompensation; the default 0.2 reproduces the expected ~70 dB zenith
    to ~140 dB cutoff loss envelope for the baseline parameter set.

Both penalties vanish as Cn2 -> 0, leaving exactly the diffraction link.

ISL model (vacuum): eta_ISL = eta_opt * eta_geo(L) * eta_point with a
Gaussian beam whose far-field HALF-angle divergence is Theta_B / 2
(waist w0_sat = lambda / (pi Theta_B / 2)), geometric capture
eta_geo = 1 - exp(-2 (D_rx / 2 w(L))^2), and pointing loss
eta_point = exp(-G_t sigma_p^2) exp(-G_r sigma_p^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .constants import EARTH_RADIUS_KM


@dataclass(frozen=True)
class OpticalParams:
    """Terminal optics; defaults follow the baseline parameter table."""

    wavelength_m: float = 850e-9
    beam_divergence_rad: float = 15e-6  # full angle
    gs_tx_diameter_m: float = 0.54
    sat_tx_diameter_m: float = 0.30
    sat_rx_diameter_m: float = 0.30
    gs_beam_waist_m: float = 0.27
    pointing_jitter_rad: float = 1e-6
    optics_efficiency: float = 0.5
    atm_loss_db_zenith: float = 1.55

    def __post_init__(self):
        for name in (
            "wavelength_m",
            "beam_divergence_rad",
            "gs_tx_diameter_m",
            "sat_tx_diameter_m",
            "sat_rx_diameter_m",
            "gs_beam_waist_m",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pointing_jitter_rad < 0:
            raise ValueError("pointing_jitter_rad must be >= 0")
        if not 0.0 < self.optics_efficiency <= 1.0:
            raise ValueError("optics_efficiency must be in (0, 1]")
        if self.atm_loss_db_zenith < 0:
            raise ValueError("atm_loss_db_zenith must be >= 0")


@dataclass(frozen=True)
class TurbulenceProfile:
    """Hufnagel-Valley refractive-index structure profile (HV 5/7 defaults).

    ``model="none"`` switches the profile off entirely (Cn2 identically
    zero), which is how the turbulence-free factorisation checks run.
    """

    model: str = "hufnagel_valley"
    wind_speed_mps: float = 21.0
    cn2_ground: float = 1.7e-14
    gs_altitude_m: float = 0.0
    h_top_m: float = 20000.0
    # Fraction of the untracked beam-wander variance left after ground
    # station tip-tilt precompensation.
    wander_residual: float = 0.2

    def __post_init__(self):
        if self.model not in ("hufnagel_valley", "none"):
            raise ValueError(f"unknown turbulence model: {self.model}")
        if self.wind_speed_mps < 0 or self.cn2_ground < 0:
            raise ValueError("wind speed and cn2_ground must be >= 0")
        if self.h_top_m <= self.gs_altitude_m:
            raise ValueError("h_top_m must exceed gs_altitude_m")
        if not 0.0 <= self.wander_residual <= 1.0:
            raise ValueError("wander_residual must be in [0, 1]")


def to_db(efficiency):
    return -10.0 * np.log10(efficiency)


def slant_path_km(zenith_rad, altitude_km: float):
    """Exact spherical slant range from ground to orbit altitude [km]."""
    z = np.asarray(zenith_rad, dtype=float)
    r = EARTH_RADIUS_KM + altitude_km
    s = np.sqrt(r * r - (EARTH_RADIUS_KM * np.sin(z)) ** 2) - EARTH_RADIUS_KM * np.cos(z)
    return s


def free_space_loss(wavelength_m: float, path_m) -> float:
    """(lambda / 4 pi L)^2."""
    L = np.asarray(path_m, dtype=float)
    if wavelength_m <= 0 or np.any(L <= 0):
        raise ValueError("wavelength and path length must be positive")
    val = (wavelength_m / (4.0 * math.pi * L)) ** 2
    return float(val) if np.isscalar(path_m) else val


def antenna_gains(params: OpticalParams) -> tuple[float, float]:
    """(G_t, G_r): transmitter gain from divergence, receiver gain from aperture."""
    gt = 8.0 / params.beam_divergence_rad**2
    area = math.pi * (params.sat_rx_diameter_m / 2.0) ** 2
    gr = 4.0 * math.pi * area / params.wavelength_m**2
    return gt, gr


def cn2(h_m, profile: TurbulenceProfile):
    """Hufnagel-Valley Cn^2(h) [m^-2/3]; ``h_m`` is altitude above sea level."""
    h = np.asarray(h_m, dtype=float)
    if profile.model == "none":
        out = np.zeros_like(h)
        return float(out) if np.isscalar(h_m) else out
    v = profile.wind_speed_mps
    term1 = 0.00594 * (v / 27.0) ** 2 * (1e-5 * h) ** 10 * np.exp(-h / 1000.0)
    term2 = 2.7e-16 * np.exp(-h / 1500.0)
    term3 = profile.cn2_ground * np.exp(-h / 100.0)
    out = term1 + term2 + term3
    return float(out) if np.isscalar(h_m) else out


@lru_cache(maxsize=32)
def _cn2_path_integral(profile: TurbulenceProfile) -> float:
    """Vertical integral of Cn^2 from the station altitude to h_top [m^(1/3)]."""
    val, _ = quad(
        lambda h: cn2(h, profile),
        profile.gs_altitude_m,
        profile.h_top_m,
        epsrel=1e-6,
        limit=500,
    )
    return val


def fried_r0(
    profile: TurbulenceProfile,
    wavelength_m: float,
    zenith_rad: float,
    h_top_m: float | None = None,
) -> float:
    """Fried coherence length r0 [m]; ``inf`` when the profile has no turbulence."""
    if not 0.0 <= zenith_rad < math.pi / 2.0:
        raise ValueError("zenith angle must lie in [0, 90) degrees")
    if h_top_m is not None and h_top_m != profile.h_top_m:
        profile = TurbulenceProfile(
            model=profile.model,
            wind_speed_mps=profile.wind_speed_mps,
            cn2_ground=profile.cn2_ground,
            gs_altitude_m=profile.gs_altitude_m,
            h_top_m=h_top_m,
            wander_residual=profile.wander_residual,
        )
    integral = _cn2_path_integral(profile)
    if integral == 0.0:
        return math.inf
    k = 2.0 * math.pi / wavelength_m
    sec = 1.0 / math.cos(zenith_rad)
    return (0.423 * k * k * sec * integral) ** (-3.0 / 5.0)


def _diffraction_radius_m(params: OpticalParams, path_m):
    """Ground-beam radius after diffraction-only propagation over ``path_m``."""
    w0 = params.gs_beam_waist_m
    zr = math.pi * w0 * w0 / params.wavelength_m
    return w0 * np.sqrt(1.0 + (np.asarray(path_m, dtype=float) / zr) ** 2)


# Default orbit altitude for standalone uplink evaluations [km].
_UPLINK_ALTITUDE_KM = 500.0


def uplink_factors(
    zenith_rad,
    params: OpticalParams,
    profile: TurbulenceProfile,
    altitude_km: float = _UPLINK_ALTITUDE_KM,
    theta_max_deg: float = 70.0,
):
    """All multiplicative uplink factors as a dict of arrays (or floats)."""
    z = np.asarray(zenith_rad, dtype=float)
    if np.any(z < 0) or np.any(np.degrees(z) > theta_max_deg + 1e-9):
        raise ValueError("zenith angle outside the operating envelope")
    path_m = slant_path_km(z, altitude_km) * 1e3
    gt, gr = antenna_gains(params)
    sec = 1.0 / np.cos(z)
    eta_atm = 10.0 ** (-params.atm_loss_db_zenith / 10.0)
    r0_zenith = fried_r0(profile, params.wavelength_m, 0.0)
    if math.isinf(r0_zenith):
        spread = np.ones_like(z)
        wander = np.ones_like(z)
    else:
        r0 = r0_zenith * sec ** (-3.0 / 5.0)
        wdiff = _diffraction_radius_m(params, path_m)
        wturb = 2.1 * params.wavelength_m * path_m / (np.pi * r0) / 2.0
        a2 = 2.0 * (params.sat_rx_diameter_m / 2.0) ** 2
        spread = -np.expm1(-a2 / (wdiff**2 + wturb**2))
        spread = spread / -np.expm1(-a2 / wdiff**2)
        w0 = params.gs_beam_waist_m
        sigma_bw2 = (
            profile.wander_residual
            * 0.54
            * (params.wavelength_m / (2.0 * w0)) ** 2
            * (2.0 * w0 / r0) ** (5.0 / 3.0)
        )
        wander = np.exp(-(gt + gr) * sigma_bw2)
    return {
        "eta_opt": params.optics_efficiency,
        "eta_atm": eta_atm**sec,
        "free_space": free_space_loss(params.wavelength_m, path_m),
        "gain_product": gt * gr,
        "turb_spread": spread,
        "turb_wander": wander,
        "path_m": path_m,
    }


def uplink_efficiency(
    zenith_rad,
    params: OpticalParams,
    profile: TurbulenceProfile,
    altitude_km: float = _UPLINK_ALTITUDE_KM,
    theta_max_deg: float = 70.0,
):
    """Instantaneous ground->satellite channel efficiency at a zenith angle."""
    f = uplink_factors(zenith_rad, params, profile, altitude_km, theta_max_deg)
    eta = (
        f["eta_opt"]
        * f["eta_atm"]
        * f["free_space"]
        * f["gain_product"]
        * f["turb_spread"]
        * f["turb_wander"]
    )
    return float(eta) if np.isscalar(zenith_rad) else eta


def isl_efficiency(path_m, params: OpticalParams, include_pointing: bool = True):
    """Vacuum inter-satellite link efficiency over a separation ``path_m``."""
    L = np.asarray(path_m, dtype=float)
    if np.any(L < 0):
        raise ValueError("path length must be >= 0")
    # half-angle divergence convention: w0 chosen so the far-field half
    # angle equals Theta_B / 2
    w0 = params.wavelength_m / (math.pi * params.beam_divergence_rad / 2.0)
    zr = math.pi * w0 * w0 / params.wavelength_m
    w = w0 * np.sqrt(1.0 + (L / zr) ** 2)
    eta_geo = -np.expm1(-2.0 * (params.sat_rx_diameter_m / (2.0 * w)) ** 2)
    eta = params.optics_efficiency * eta_geo
    if include_pointing:
        gt, gr = antenna_gains(params)
        s2 = params.pointing_jitter_rad**2
        eta = eta * math.exp(-gt * s2) * math.exp(-gr * s2)
    return float(eta) if np.isscalar(path_m) else eta
