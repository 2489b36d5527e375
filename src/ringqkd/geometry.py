"""Ring-constellation geometry: propagation, line of sight, visibility sessions.

Two constellation layouts are supported.  Type-1 places one satellite in each
of N_s equally spaced polar planes, all sharing a common argument of latitude,
so the satellites form a ring that contracts near the poles and widens at the
equator.  Type-2 spreads N_s satellites uniformly around a single equatorial
orbit.  Orbits are circular two-body; ground stations rotate with the Earth at
the sidereal rate.

Each computation lives here once.  ``_components`` propagates any selection
of satellites into x, y and z arrays of shape (T, k), so a caller computes
only the columns it reads; ``positions_eci_km`` stacks them, and
``chord_lengths_km`` takes inter-satellite distances from them.
``_zenith`` turns satellite and station components into zenith angles
(``zenith_from_positions`` applies it to position arrays); its norm and
dot product add their three terms in the order numpy reduces a last axis
of 3, so components and stacked positions give the same bits.
``serving_state`` gives each instant's serving satellite and its zenith
angle, evaluating only the 4 satellites that can be nearest (all N where
they nearly tie), equal bit for bit to the argmin of the full zenith row,
and walks a grid ``CHUNK_SAMPLES`` instants at a time, so its working
arrays stay a few chunks long whatever the grid's length.  ``extract_sessions`` turns
a sample grid's serving state into visibility sessions with their sample
ranges, bisecting all of the grid's session edges in one array through
``serving_state``.  ``find_sessions`` and the simulator's day loop both
call them; only ``find_sessions`` polishes each session's minimum zenith
angle between samples, since no campaign output reads it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import (
    ATM_SHELL_KM,
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    GM_EARTH_KM3_S2,
    ORBIT_ALTITUDE_KM,
    ZENITH_CUTOFF_DEG,
)


class ConstellationKind(enum.Enum):
    TYPE1_POLAR = "type1"
    TYPE2_EQUATORIAL = "type2"


@dataclass(frozen=True)
class ConstellationSpec:
    """Ring constellation definition; the defaults are the scenario baseline.

    ``phase0_deg`` is the shared argument of latitude at the epoch for Type-1
    rings, or the phase of satellite 0 for Type-2 rings.  Satellite indices
    are cyclic (index N_s is index 0 again).
    """

    kind: ConstellationKind = ConstellationKind.TYPE2_EQUATORIAL
    num_sats: int = 12
    altitude_km: float = ORBIT_ALTITUDE_KM
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
    id: int = 1
    latitude_deg: float = 0.0
    longitude_deg: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg < 360.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")


@dataclass(frozen=True)
class VisibilitySession:
    """Maximal interval with a fixed serving satellite inside the zenith mask.

    From ``find_sessions``, ``min_zenith_deg`` is polished between samples.
    From ``extract_sessions`` it is the minimum over the session's samples:
    the simulator's day, its other caller, never reads it.
    """

    gs_id: int
    t_start_s: float
    t_end_s: float
    serving_sat: int
    min_zenith_deg: float

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


def _selection(spec: ConstellationSpec, sats, size: int) -> np.ndarray:
    """``sats`` (see ``positions_eci_km``) as indices in [0, N), (1, k) or (size, k)."""
    n = spec.num_sats
    pick = np.arange(n)[None, :] if sats is None else np.asarray(sats, dtype=np.intp) % n
    if pick.ndim == 1:
        pick = pick[None, :]
    if pick.ndim != 2 or pick.shape[0] not in (1, size):
        raise ValueError("sats must be (k,) indices or one row of indices per instant")
    return pick


def _components(spec: ConstellationSpec, t: np.ndarray, pick: np.ndarray) -> tuple:
    """ECI x, y and z [km] of the satellites ``pick`` selects, each (len(t), k).

    The one propagation: ``positions_eci_km`` stacks it.  Each element takes
    the same float operations whatever the selection, and ``cos`` and ``sin``
    run on fresh contiguous arrays, so a selection equals its slice of the
    full array bit for bit.
    """
    if np.any(t < spec.epoch_s):
        raise ValueError("time precedes the constellation epoch")
    r = spec.orbit_radius_km
    n = spec.num_sats
    base = np.radians(spec.phase0_deg) + spec.mean_motion_rad_s * (t - spec.epoch_s)  # (T,)
    idx = 2.0 * np.pi * np.arange(n) / n  # (N,)
    if spec.kind is ConstellationKind.TYPE1_POLAR:
        # Plane i has right ascension idx[i]; all satellites share u(t).
        u = base[:, None]
        cu, su = np.cos(u), np.sin(u)
        co, so = np.cos(idx)[pick], np.sin(idx)[pick]
        return r * cu * co, r * cu * so, r * su + np.zeros_like(co)
    phase = base[:, None] + idx[pick]
    return r * np.cos(phase), r * np.sin(phase), np.zeros(phase.shape)


def _norm(x, y, z):
    """Euclidean norm from components: the squares added in ``np.linalg.norm``'s
    order over a last axis of 3, so the two agree bit for bit."""
    return np.sqrt((x * x + y * y) + z * z)


def positions_eci_km(spec: ConstellationSpec, times_s, sats=None) -> np.ndarray:
    """ECI positions of satellites, shape (len(times), k, 3).

    ``sats`` selects them: None for all ``num_sats``, k cyclic indices for
    the same satellites at every instant, or a (len(times), k) array of
    indices per instant.  A selection takes the same float operations in
    the same order as the full array, so it equals its slice bit for bit.
    """
    t = np.atleast_1d(np.asarray(times_s, dtype=float))
    return np.stack(_components(spec, t, _selection(spec, sats, t.size)), axis=-1)


def chord_lengths_km(spec: ConstellationSpec, times_s, sats, offsets) -> list:
    """Distances [km] from satellite ``sats`` to satellite ``sats + d`` for each
    offset d, one array (len(times),) an offset.

    ``sats`` is one cyclic index, or one per instant.  Each distance equals
    ``np.linalg.norm`` of the difference of the two ``positions_eci_km`` rows
    bit for bit.
    """
    t = np.atleast_1d(np.asarray(times_s, dtype=float))
    pick = _selection(spec, np.add.outer(sats, (0, *offsets)), t.size)
    x, y, z = _components(spec, t, pick)
    return [
        _norm(x[:, 0] - x[:, j], y[:, 0] - y[:, j], z[:, 0] - z[:, j])
        for j in range(1, pick.shape[1])
    ]


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


def _zenith(sat, gs) -> np.ndarray:
    """Zenith angles [deg] from the satellites' x, y and z (T, k) and the
    station's (each broadcasting against them, as (T, 1)): the one zenith
    formula.  Norm and dot product add their three terms in the order numpy
    reduces a last axis of 3, so this equals the formula on (T, k, 3)
    position arrays bit for bit."""
    v = [s - g for s, g in zip(sat, gs)]
    nv = _norm(*v)
    if np.any(nv == 0.0):
        raise ValueError("satellite coincident with ground station")
    cosz = ((v[0] * gs[0] + v[1] * gs[1]) + v[2] * gs[2]) / (nv * EARTH_RADIUS_KM)
    return np.degrees(np.arccos(np.clip(cosz, -1.0, 1.0)))


def zenith_from_positions(sat_km: np.ndarray, gs_km: np.ndarray) -> np.ndarray:
    """Zenith angles [deg] of satellites seen from a ground station, shape (T, N).

    ``sat_km`` holds satellite positions (T, N, 3) and ``gs_km`` the
    station's positions (T, 3) at the same instants; the station lies on
    the Earth's surface.
    """
    return _zenith(np.moveaxis(sat_km, -1, 0), gs_km.T[:, :, None])


def zenith_angles_deg(spec: ConstellationSpec, gs: GroundStation, times_s, sats=None) -> np.ndarray:
    """Zenith angles of the satellites ``sats`` selects (see ``positions_eci_km``),
    shape (len(times), k); all ``num_sats`` by default."""
    return zenith_from_positions(
        positions_eci_km(spec, times_s, sats), gs_position_km(gs, times_s)
    )


# Below this |cos u cos(lat)| (Type-1) or cos(lat) (Type-2) the satellites'
# dot products with the station nearly tie, so the whole row is searched.
_TIE_COS = 1e-6

# Long sample grids are evaluated this many samples at a time, in serving_state
# and in the simulator's budgets: enough that numpy's per-call cost fades,
# few enough that a chunk's arrays stay in cache and a small part of a
# day's memory (whole-day (T, 4, 3) arrays made serving_state's traced peak
# 35 MB on a default day).
CHUNK_SAMPLES = 4096


def _phase(spec: ConstellationSpec, t: np.ndarray) -> np.ndarray:
    """Type-1: the satellites' shared argument of latitude u; Type-2: satellite 0's phase [rad]."""
    return math.radians(spec.phase0_deg) + spec.mean_motion_rad_s * (t - spec.epoch_s)


def _dot_scale(spec: ConstellationSpec, gs: GroundStation, base: np.ndarray) -> np.ndarray:
    """c of ``_candidates`` at each phase of ``base``: cos u cos(lat) (Type-1) or cos(lat)."""
    cos_lat = math.cos(math.radians(gs.latitude_deg))
    if spec.kind is ConstellationKind.TYPE1_POLAR:
        return np.cos(base) * cos_lat
    return np.full(base.size, cos_lat)


def _tied_rows(spec: ConstellationSpec, gs: GroundStation, t: np.ndarray) -> np.ndarray:
    """The instants (indices into ``t``) whose rows ``serving_state`` searches in full."""
    return np.flatnonzero(np.abs(_dot_scale(spec, gs, _phase(spec, t))) < _TIE_COS)


def _candidates(spec: ConstellationSpec, gs: GroundStation, t: np.ndarray) -> np.ndarray:
    """The 4 satellites that can serve each instant, (T, 4) indices sorted in
    each row; where they may tie (``_tied_rows``) the whole row is needed.

    The orbit radius is common, so the zenith angle falls as the dot product
    of station and satellite positions rises, and that is rR [c cos(a - l)
    + s] with l the station's ECI longitude and s the same for every
    satellite.  Type-2: a is satellite i's phase and c = cos(lat).  Type-1:
    a is plane i's right ascension, c = cos u cos(lat), and s = sin u
    sin(lat).  With x = (l - a_0 (+ pi where c < 0)) N / 2pi, satellites
    floor(x) - 1 .. floor(x) + 2 hold the best one, which lies within pi/N
    of l, and every other lies at least 4 pi/N away: its dot product falls
    short by at least rR |c| (cos(pi/N) - cos(4pi/N)).  For |c| >= _TIE_COS
    that is about 1 km^2 at N = 60 (it shrinks as 1/N^2), far above the
    rounding of the zenith formula, which is below 1e-6 km^2.  For N <= 4
    the 4 are all N (N = 3 repeats one, which argmin reads as the same).
    """
    n = spec.num_sats
    lon = math.radians(gs.longitude_deg) + EARTH_ROTATION_RAD_S * t
    base = _phase(spec, t)
    if spec.kind is ConstellationKind.TYPE1_POLAR:
        x = (lon + np.where(_dot_scale(spec, gs, base) < 0.0, np.pi, 0.0)) * (n / (2.0 * np.pi))
    else:
        x = (lon - base) * (n / (2.0 * np.pi))
    first = np.floor(x).astype(np.intp) - 1
    return np.sort((first[:, None] + np.arange(4)) % n, axis=1)


def serving_state(spec: ConstellationSpec, gs: GroundStation, times_s, theta_max_deg: float):
    """(serving index or -1, zenith angle of the nearest satellite) per instant.

    Equals the argmin of the full zenith row, ties going to the lowest
    index, bit for bit: only the candidates of ``_candidates`` are
    evaluated, each row's in index order, and the full row where they may
    tie.  The second array is the serving satellite's zenith angle wherever
    one serves.  The grid is taken ``CHUNK_SAMPLES`` instants at a time, in
    component arrays; every instant's values are its own, so they do not
    depend on the chunks.
    """
    t = np.atleast_1d(np.asarray(times_s, dtype=float))
    serving = np.empty(t.size, dtype=np.intp)
    zmin = np.empty(t.size)

    def zenith(tc, pick):
        return _zenith(_components(spec, tc, pick), gs_position_km(gs, tc).T[:, :, None])

    for c in range(0, t.size, CHUNK_SAMPLES):
        tc = t[c:c + CHUNK_SAMPLES]
        cols = _candidates(spec, gs, tc)
        z = zenith(tc, cols)
        best = np.argmin(z, axis=1)
        rows = np.arange(tc.size)
        serving[c:c + tc.size] = cols[rows, best]
        zmin[c:c + tc.size] = z[rows, best]
        full = _tied_rows(spec, gs, tc)
        if full.size:
            z = zenith(tc[full], np.arange(spec.num_sats)[None, :])
            best = np.argmin(z, axis=1)
            serving[c + full] = best
            zmin[c + full] = z[np.arange(full.size), best]
    return np.where(zmin <= theta_max_deg, serving, -1), zmin


def _refine_boundaries(spec, gs, t_lo, t_hi, state_lo, theta_max_deg, tol):
    """Bisect each instant in [t_lo[k], t_hi[k]] where the serving state stops
    being ``state_lo[k]``: one zenith evaluation a step halves every interval
    still wider than ``tol``, so each takes the steps its own width needs."""
    lo = np.array(t_lo, dtype=float)
    hi = np.array(t_hi, dtype=float)
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        state, _ = serving_state(spec, gs, mid, theta_max_deg)
        stay = state == state_lo[active]
        lo[active[stay]] = mid[stay]
        hi[active[~stay]] = mid[~stay]
        active = active[hi[active] - lo[active] > tol]
    return 0.5 * (lo + hi)


def _refine_min_zenith(spec, gs, sat, t_best, dt, t_lo, t_hi):
    """Golden-section polish of the serving satellite's minimum zenith angle."""
    a = max(t_lo, t_best - dt)
    b = min(t_hi, t_best + dt)

    def f(t):
        return zenith_angles_deg(spec, gs, np.array([t]), [sat])[0, 0]

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
    state: np.ndarray, zmin: np.ndarray, theta_max_deg: float,
) -> tuple[list[VisibilitySession], list[tuple[int, int]]]:
    """Visibility sessions on a sample grid, with each session's sample range.

    ``state`` and ``zmin`` are ``serving_state`` on ``times``.  A session is
    a maximal run of samples with the same serving satellite; its edges are
    bisected between samples to within dt/100, all of them together.
    Handover instants are shared between the outgoing and incoming session,
    so continuous coverage tiles the window without gaps.  Session k covers
    samples ``ranges[k][0]:ranges[k][1]``, and its ``min_zenith_deg`` is the
    grid minimum over them; ``find_sessions`` polishes it between samples.
    """
    ends = np.flatnonzero(state[1:] != state[:-1])  # last sample of each run but the final one
    edges = _refine_boundaries(
        spec, gs, times[ends], times[ends + 1], state[ends], theta_max_deg, dt / 100.0
    )
    cuts = [0, *(ends + 1).tolist(), len(times)]
    bounds = [times[0], *edges, times[-1]]
    sessions: list[VisibilitySession] = []
    ranges: list[tuple[int, int]] = []
    for i, j, left, right in zip(cuts, cuts[1:], bounds, bounds[1:]):
        s = int(state[i])
        if s >= 0:
            min_z = float(np.min(zmin[i:j]))
            sessions.append(VisibilitySession(gs.id, float(left), float(right), s, min_z))
            ranges.append((i, j))
    return sessions, ranges


def find_sessions(
    spec: ConstellationSpec,
    gs: GroundStation,
    t0: float,
    t1: float,
    dt: float = 1.0,
    theta_max_deg: float = ZENITH_CUTOFF_DEG,
) -> list[VisibilitySession]:
    """Visibility sessions over [t0, t1], sampled every ``dt`` (see ``extract_sessions``),
    each minimum zenith angle polished within dt of its best sample."""
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(math.floor((t1 - t0) / dt))
    times = t0 + dt * np.arange(n + 1)
    if times[-1] < t1:
        times = np.append(times, t1)
    state, zmin = serving_state(spec, gs, times, theta_max_deg)
    sessions, ranges = extract_sessions(spec, gs, times, dt, state, zmin, theta_max_deg)
    polished = []
    for s, (i, j) in zip(sessions, ranges):
        t_best = times[i + int(np.argmin(zmin[i:j]))]
        min_z = _refine_min_zenith(spec, gs, s.serving_sat, t_best, dt, s.t_start_s, s.t_end_s)
        polished.append(replace(s, min_zenith_deg=float(min(min_z, s.min_zenith_deg))))
    return polished


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
