"""Ring-constellation geometry: propagation, line of sight, visibility sessions.

Two constellation layouts are supported.  Type-1 places one satellite in each
of N_s equally spaced polar planes, all sharing a common argument of latitude,
so the satellites form a ring that contracts near the poles and widens at the
equator.  Type-2 spreads N_s satellites uniformly around a single equatorial
orbit.  Orbits are circular two-body; ground stations rotate with the Earth at
the sidereal rate.

Each computation lives here once: ``zenith_from_positions`` turns satellite
and station positions into zenith angles, and ``extract_sessions`` turns a
sample grid and its zenith matrix into visibility sessions with their sample
ranges.  ``find_sessions`` and the simulator's day loop both call them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    ATM_SHELL_KM,
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    GM_EARTH_KM3_S2,
)


class ConstellationKind(enum.Enum):
    TYPE1_POLAR = "type1"
    TYPE2_EQUATORIAL = "type2"


@dataclass(frozen=True)
class ConstellationSpec:
    """Ring constellation definition.

    ``phase0_deg`` is the shared argument of latitude at the epoch for Type-1
    rings, or the phase of satellite 0 for Type-2 rings.  Satellite indices
    are cyclic (index N_s is index 0 again).
    """

    kind: ConstellationKind
    num_sats: int
    altitude_km: float
    epoch_s: float = 0.0
    atm_shell_km: float = ATM_SHELL_KM
    phase0_deg: float = 0.0

    def __post_init__(self):
        if not self.num_sats >= 3:
            raise ValueError(f"num_sats must be >= 3, got {self.num_sats}")
        if not 0 < self.altitude_km < math.inf:
            raise ValueError(f"altitude_km must be positive and finite, got {self.altitude_km}")
        if not self.atm_shell_km >= 0:
            raise ValueError("atm_shell_km must be >= 0")
        if not self.altitude_km > self.atm_shell_km:
            raise ValueError("orbit must lie above the atmospheric shell")
        if not (math.isfinite(self.epoch_s) and math.isfinite(self.phase0_deg)):
            raise ValueError("epoch_s and phase0_deg must be finite")

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(GM_EARTH_KM3_S2 / self.orbit_radius_km**3)


@dataclass(frozen=True)
class GroundStation:
    id: int
    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg < 360.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")


@dataclass(frozen=True)
class VisibilitySession:
    """Maximal interval with a fixed serving satellite inside the zenith mask."""

    gs_id: int
    t_start_s: float
    t_end_s: float
    serving_sat: int
    min_zenith_deg: float

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


def positions_eci_km(spec: ConstellationSpec, times_s) -> np.ndarray:
    """ECI positions of all satellites, shape (len(times), num_sats, 3)."""
    t = np.atleast_1d(np.asarray(times_s, dtype=float))
    if np.any(t < spec.epoch_s):
        raise ValueError("time precedes the constellation epoch")
    r = spec.orbit_radius_km
    n = spec.num_sats
    w = spec.mean_motion_rad_s
    base = np.radians(spec.phase0_deg) + w * (t - spec.epoch_s)  # (T,)
    idx = 2.0 * np.pi * np.arange(n) / n  # (N,)
    out = np.empty((t.size, n, 3))
    if spec.kind is ConstellationKind.TYPE1_POLAR:
        # Plane i has right ascension idx[i]; all satellites share u(t).
        u = base[:, None]
        cu, su = np.cos(u), np.sin(u)
        co, so = np.cos(idx)[None, :], np.sin(idx)[None, :]
        out[:, :, 0] = r * cu * co
        out[:, :, 1] = r * cu * so
        out[:, :, 2] = r * su + np.zeros_like(co)
    else:
        phase = base[:, None] + idx[None, :]
        out[:, :, 0] = r * np.cos(phase)
        out[:, :, 1] = r * np.sin(phase)
        out[:, :, 2] = 0.0
    return out


def gs_position_km(gs: GroundStation, times_s) -> np.ndarray:
    """ECI position of a ground station, shape (len(times), 3).

    The Greenwich meridian is aligned with the ECI x-axis at t = 0 and the
    station rotates at the sidereal rate.
    """
    t = np.atleast_1d(np.asarray(times_s, dtype=float))
    lat = math.radians(gs.latitude_deg)
    lon = np.radians(gs.longitude_deg) + EARTH_ROTATION_RAD_S * t
    out = np.empty((t.size, 3))
    out[:, 0] = EARTH_RADIUS_KM * math.cos(lat) * np.cos(lon)
    out[:, 1] = EARTH_RADIUS_KM * math.cos(lat) * np.sin(lon)
    out[:, 2] = EARTH_RADIUS_KM * math.sin(lat)
    return out


def clearance_segment_km(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Vectorised segment clearance for stacked position arrays (..., 3)."""
    d = rb - ra
    dd = np.sum(d * d, axis=-1)
    if np.any(dd == 0.0):
        raise ValueError("coincident satellite positions")
    tstar = -np.sum(ra * d, axis=-1) / dd
    tclip = np.clip(tstar, 0.0, 1.0)
    foot = ra + tclip[..., None] * d
    return np.linalg.norm(foot, axis=-1)


def min_ring_size(h_km: float, h_atm_km: float) -> int:
    """Smallest N_s whose adjacent-satellite chords clear the R_E + h_atm shell."""
    if h_km <= h_atm_km:
        raise ValueError("altitude must exceed the atmospheric shell")
    if h_atm_km < 0:
        raise ValueError("h_atm_km must be >= 0")
    ratio = (EARTH_RADIUS_KM + h_atm_km) / (EARTH_RADIUS_KM + h_km)
    n = max(3, math.ceil(math.pi / math.acos(ratio)))
    while (EARTH_RADIUS_KM + h_km) * math.cos(math.pi / n) <= EARTH_RADIUS_KM + h_atm_km:
        n += 1
    while n > 3 and (EARTH_RADIUS_KM + h_km) * math.cos(math.pi / (n - 1)) > EARTH_RADIUS_KM + h_atm_km:
        n -= 1
    return n


def zenith_from_positions(sat_km: np.ndarray, gs_km: np.ndarray) -> np.ndarray:
    """Zenith angles [deg] of satellites seen from a ground station, shape (T, N).

    ``sat_km`` holds satellite positions (T, N, 3) and ``gs_km`` the
    station's positions (T, 3) at the same instants; the station lies on
    the Earth's surface.
    """
    rg = gs_km[:, None, :]
    v = sat_km - rg
    nv = np.linalg.norm(v, axis=-1)
    if np.any(nv == 0.0):
        raise ValueError("satellite coincident with ground station")
    cosz = np.sum(v * rg, axis=-1) / (nv * EARTH_RADIUS_KM)
    return np.degrees(np.arccos(np.clip(cosz, -1.0, 1.0)))


def zenith_angles_deg(spec: ConstellationSpec, gs: GroundStation, times_s) -> np.ndarray:
    """Zenith angles for all satellites, shape (len(times), num_sats)."""
    return zenith_from_positions(positions_eci_km(spec, times_s), gs_position_km(gs, times_s))


def _serving_state(z, theta_max_deg):
    """(serving index or -1) per sample plus the zenith of the serving sat."""
    serving = np.argmin(z, axis=1)  # ties -> lowest index
    zmin = z[np.arange(z.shape[0]), serving]
    state = np.where(zmin <= theta_max_deg, serving, -1)
    return state, zmin


def _refine_boundary(spec, gs, t_lo, t_hi, state_lo, theta_max_deg, tol):
    """Bisect the instant where the serving state stops being ``state_lo``."""
    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        state, _ = _serving_state(zenith_angles_deg(spec, gs, np.array([mid])), theta_max_deg)
        if state[0] == state_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_min_zenith(spec, gs, sat, t_best, dt, t_lo, t_hi):
    """Golden-section polish of the serving satellite's minimum zenith angle."""
    a = max(t_lo, t_best - dt)
    b = min(t_hi, t_best + dt)

    def f(t):
        return zenith_angles_deg(spec, gs, np.array([t]))[0, sat]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(30):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd)


def extract_sessions(
    spec: ConstellationSpec, gs: GroundStation, times: np.ndarray, dt: float,
    zenith_deg: np.ndarray, theta_max_deg: float,
) -> tuple[list[VisibilitySession], list[tuple[int, int]]]:
    """Visibility sessions on a sample grid, with each session's sample range.

    ``zenith_deg`` holds the zenith angles of all satellites on ``times``,
    shape (len(times), num_sats).  A session is a maximal run of samples
    with the same minimum-zenith satellite inside the mask; its edges are
    bisected between samples to within dt/100, and its minimum zenith angle
    is polished within dt of its best sample.  Handover instants are shared
    between the outgoing and incoming session, so continuous coverage tiles
    the window without gaps.  Session k covers samples
    ``ranges[k][0]:ranges[k][1]``.
    """
    state, zmin = _serving_state(zenith_deg, theta_max_deg)
    tol = dt / 100.0
    sessions: list[VisibilitySession] = []
    ranges: list[tuple[int, int]] = []
    n = len(times)
    i = 0
    boundary_left = times[0]
    while i < n:
        s = int(state[i])
        j = i
        while j + 1 < n and state[j + 1] == s:
            j += 1
        if j + 1 < n:
            boundary_right = _refine_boundary(spec, gs, times[j], times[j + 1], s, theta_max_deg, tol)
        else:
            boundary_right = times[-1]
        if s >= 0:
            seg = zmin[i : j + 1]
            k_best = i + int(np.argmin(seg))
            min_z = _refine_min_zenith(spec, gs, s, times[k_best], dt, boundary_left, boundary_right)
            min_z = min(min_z, float(np.min(seg)))
            sessions.append(
                VisibilitySession(gs.id, float(boundary_left), float(boundary_right), s, float(min_z))
            )
            ranges.append((i, j + 1))
        boundary_left = boundary_right
        i = j + 1
    return sessions, ranges


def find_sessions(
    spec: ConstellationSpec,
    gs: GroundStation,
    t0: float,
    t1: float,
    dt: float = 1.0,
    theta_max_deg: float = 70.0,
) -> list[VisibilitySession]:
    """Visibility sessions over [t0, t1], sampled every ``dt`` (see ``extract_sessions``)."""
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(math.floor((t1 - t0) / dt))
    times = t0 + dt * np.arange(n + 1)
    if times[-1] < t1:
        times = np.append(times, t1)
    return extract_sessions(spec, gs, times, dt, zenith_angles_deg(spec, gs, times), theta_max_deg)[0]


def visibility_fraction(sessions, t_total_s: float) -> float:
    """Fraction of [0, T] covered by sessions; 0 for an empty sequence.

    Sessions that share handover instants are measured as one contiguous
    span, so uninterrupted coverage of the window gives exactly 1.0.
    """
    if t_total_s <= 0:
        raise ValueError("t_total_s must be positive")
    ordered = sorted(sessions, key=lambda s: s.t_start_s)
    total = 0.0
    chain_start = None
    chain_end = None
    for s in ordered:
        if chain_end is not None and s.t_start_s == chain_end:
            chain_end = s.t_end_s
        else:
            if chain_start is not None:
                total += chain_end - chain_start
            chain_start, chain_end = s.t_start_s, s.t_end_s
    if chain_start is not None:
        total += chain_end - chain_start
    return min(1.0, total / t_total_s)
