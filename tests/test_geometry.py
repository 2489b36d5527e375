"""Geometry tests: propagation, clearance, ring sizing, sessions."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringqkd import geometry
from ringqkd.constants import EARTH_RADIUS_KM, EARTH_ROTATION_RAD_S
from ringqkd.geometry import (
    ConstellationKind,
    ConstellationSpec,
    GroundStation,
    VisibilitySession,
    _refine_boundaries,
    _tied_rows,
    chord_lengths_km,
    clearance_segment_km,
    extract_sessions,
    find_sessions,
    gs_position_km,
    min_ring_size,
    positions_eci_km,
    serving_state,
    visibility_fraction,
    zenith_angles_deg,
    zenith_from_positions,
)


def spec_type2(n=12, h=500.0, **kw):
    return ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, n, h, **kw)


def spec_type1(n=12, h=500.0, **kw):
    return ConstellationSpec(ConstellationKind.TYPE1_POLAR, n, h, **kw)


# ---------------------------------------------------------------- propagation


def test_type2_uniform_phases_at_epoch():
    sats = positions_eci_km(spec_type2(n=4), 0.0)[0]
    r = EARTH_RADIUS_KM + 500.0
    for s in sats:
        assert np.linalg.norm(s) == pytest.approx(r, rel=1e-12)
    # pairwise angle between adjacent satellites is 90 degrees
    for i in range(4):
        a = sats[i] / r
        b = sats[(i + 1) % 4] / r
        assert math.degrees(math.acos(np.clip(a @ b, -1, 1))) == pytest.approx(90.0, abs=1e-9)


def test_type1_common_latitude_and_spacing():
    sats = positions_eci_km(spec_type1(n=12), 0.0)[0]
    lats = [math.degrees(math.asin(s[2] / np.linalg.norm(s))) for s in sats]
    assert max(abs(l) for l in lats) < 1e-9
    lons = sorted(math.degrees(math.atan2(s[1], s[0])) % 360 for s in sats)
    gaps = np.diff(lons + [lons[0] + 360.0])
    assert np.allclose(gaps, 30.0, atol=1e-9)


def test_type1_common_latitude_over_time():
    spec = spec_type1(n=12)
    pos = positions_eci_km(spec, np.linspace(0.0, 6000.0, 41))
    lat = np.degrees(np.arcsin(pos[:, :, 2] / np.linalg.norm(pos, axis=2)))
    assert np.max(np.ptp(lat, axis=1)) < 1e-9


def test_adjacent_chord_matches_closed_form():
    # oracle: chord of a regular N-gon of radius R is 2 R sin(pi/N)
    n, h = 12, 500.0
    sats = positions_eci_km(spec_type2(n=n, h=h), 0.0)[0]
    chord = np.linalg.norm(sats[0] - sats[1])
    expected = 2.0 * (EARTH_RADIUS_KM + h) * math.sin(math.pi / n)
    assert chord == pytest.approx(expected, rel=1e-12)
    assert chord == pytest.approx(3556.7, abs=0.1)


def test_radius_conserved_under_propagation():
    for spec in (spec_type1(n=10), spec_type2(n=10, phase0_deg=17.0)):
        pos = positions_eci_km(spec, np.linspace(0.0, 20000.0, 57))
        radii = np.linalg.norm(pos, axis=2)
        assert np.max(np.abs(radii / spec.orbit_radius_km - 1.0)) < 1e-9


@pytest.mark.parametrize("make", [spec_type1, spec_type2])
def test_selected_positions_are_slices_of_the_full_array(make):
    # columns (cyclic, in any order, repeated) and per-instant indices give
    # the matching slice of the full array bit for bit, and so do zenith angles
    spec = make(n=13, phase0_deg=3.7, epoch_s=5.0)
    gs = GroundStation(1, 41.3, -72.9)
    times = 5.0 + np.linspace(0.0, 9000.0, 1001)
    full = positions_eci_km(spec, times)
    cols = positions_eci_km(spec, times, [12, 0, 5, 5, -1])
    assert cols.tobytes() == full[:, [12, 0, 5, 5, 12]].tobytes()
    idx = np.random.default_rng(0).integers(0, 13, size=(times.size, 4))
    per_instant = positions_eci_km(spec, times, idx)
    assert per_instant.tobytes() == np.take_along_axis(full, idx[:, :, None], axis=1).tobytes()
    z = zenith_angles_deg(spec, gs, times, idx)
    want = np.take_along_axis(zenith_angles_deg(spec, gs, times), idx, axis=1)
    assert z.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        positions_eci_km(spec, times, idx[:-1])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ConstellationKind)),
    n=st.integers(3, 60),
    phase0=st.floats(0.0, 360.0, exclude_max=True),
    epoch=st.floats(0.0, 1e5),
    dt=st.sampled_from([0.7, 1.0, 2.5, 5.0]),
    offsets=st.lists(st.integers(-70, 70), min_size=1, max_size=3),
    data=st.data(),
)
def test_chords_are_norms_of_position_differences(kind, n, phase0, epoch, dt, offsets, data):
    # the component chords equal np.linalg.norm of the difference of the two
    # satellites' positions_eci_km rows bit for bit, the form run_day took
    # them in before, for one satellite at every instant or one per instant
    spec = ConstellationSpec(kind, n, 500.0, epoch_s=epoch, phase0_deg=phase0)
    times = epoch + dt * np.arange(data.draw(st.integers(1, 300)))
    index = st.integers(-100, 100)
    sats = data.draw(index | st.lists(index, min_size=times.size, max_size=times.size))
    got = chord_lengths_km(spec, times, sats, offsets)
    col = np.reshape(sats, (-1, 1))
    pos = positions_eci_km(spec, times, col)[:, 0]
    want = [
        np.linalg.norm(pos - positions_eci_km(spec, times, col + d)[:, 0], axis=-1)
        for d in offsets
    ]
    assert [c.tobytes() for c in got] == [w.tobytes() for w in want]


def test_propagate_rejects_bad_specs():
    with pytest.raises(ValueError):
        ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, 2, 500.0)
    with pytest.raises(ValueError):
        ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, 12, -5.0)
    with pytest.raises(ValueError):
        ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, 12, 50.0, atm_shell_km=100.0)
    with pytest.raises(ValueError):
        positions_eci_km(spec_type2(epoch_s=100.0), [0.0])


# ------------------------------------------------------------------ clearance


def _clearance_oracle(ra, rb, samples=200001):
    # brute force: densely sample the segment and take the smallest radius
    t = np.linspace(0.0, 1.0, samples)[:, None]
    pts = ra[None, :] * (1 - t) + rb[None, :] * t
    return np.min(np.linalg.norm(pts, axis=1))


def test_clearance_antipodal_is_zero():
    r = EARTH_RADIUS_KM + 500.0
    a = np.array([r, 0.0, 0.0])
    assert clearance_segment_km(a, -a) == pytest.approx(0.0, abs=1e-9)


def test_clearance_radial_degenerate_segment():
    r = EARTH_RADIUS_KM + 500.0
    a = np.array([r, 0.0, 0.0])
    b = np.array([r + 1.0, 0.0, 0.0])
    assert clearance_segment_km(a, b) == pytest.approx(r)
    assert clearance_segment_km(b, a) == pytest.approx(r)


def test_clearance_matches_brute_force():
    rng = np.random.default_rng(7)
    r = EARTH_RADIUS_KM + 500.0
    u = rng.normal(size=(25, 3))
    v = rng.normal(size=(25, 3))
    a = r * u / np.linalg.norm(u, axis=1, keepdims=True)
    b = r * v / np.linalg.norm(v, axis=1, keepdims=True)
    got = clearance_segment_km(a, b)  # all 25 segments in one call
    assert got.shape == (25,)
    for k in range(25):
        assert got[k] == pytest.approx(_clearance_oracle(a[k], b[k]), abs=0.05)


def test_clearance_ring_formula():
    # perpendicular distance for a regular ring chord is R cos(pi/N)
    sats = positions_eci_km(spec_type2(n=12), 0.0)[0]
    got = clearance_segment_km(sats[0], sats[1])
    want = (EARTH_RADIUS_KM + 500.0) * math.cos(math.pi / 12)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > EARTH_RADIUS_KM + 100.0  # LOS holds for N_s = 12 at 500 km


def test_clearance_rejects_coincident():
    a = np.array([7000.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        clearance_segment_km(a, a.copy())


# -------------------------------------------------------------- min ring size


def test_min_ring_size_reference_values():
    assert min_ring_size(500.0, 100.0) == 10
    assert min_ring_size(500.0, 0.0) == 9
    assert min_ring_size(1e9, 100.0) == 3


def test_min_ring_size_brute_force_agreement():
    # oracle: scan N upward with the strict clearance inequality
    for h, hatm in [(500.0, 100.0), (500.0, 0.0), (800.0, 100.0), (2000.0, 60.0)]:
        got = min_ring_size(h, hatm)
        brute = 3
        while (EARTH_RADIUS_KM + h) * math.cos(math.pi / brute) <= EARTH_RADIUS_KM + hatm:
            brute += 1
        assert got == brute


def test_min_ring_size_full_period_clearance():
    # every adjacent pair clears the shell at every sampled time once
    # N_s >= min_ring_size, for both constellation types
    h, hatm = 500.0, 100.0
    n_min = min_ring_size(h, hatm)
    period = 2 * math.pi / spec_type2(n=n_min, h=h).mean_motion_rad_s
    times = np.linspace(0.0, period, 101)
    for make in (spec_type1, spec_type2):
        for n in (n_min, n_min + 5):
            pos = positions_eci_km(make(n=n, h=h, phase0_deg=3.7), times)
            clearance = clearance_segment_km(pos, np.roll(pos, -1, axis=1))
            assert clearance.shape == (len(times), n)
            assert np.all(clearance > EARTH_RADIUS_KM + hatm)


def test_min_ring_size_below_threshold_fails():
    # one satellite fewer must violate clearance at the widest ring state
    h, hatm = 500.0, 100.0
    n = min_ring_size(h, hatm) - 1
    sats = positions_eci_km(spec_type2(n=n, h=h), 0.0)[0]
    assert clearance_segment_km(sats[0], sats[1]) <= EARTH_RADIUS_KM + hatm


def test_min_ring_size_rejects_inverted_shell():
    with pytest.raises(ValueError):
        min_ring_size(80.0, 100.0)


# ---------------------------------------------------------------- zenith angle


def _zenith(sat_km, gs_km):
    """Zenith angle [deg] of one satellite position seen from one station position."""
    return float(zenith_from_positions(np.asarray(sat_km)[None, None, :], gs_km[None, :])[0, 0])


def test_zenith_overhead_and_horizon():
    gs = GroundStation(1, 0.0, 0.0)
    rg = gs_position_km(gs, [0.0])[0]
    overhead = rg * (1.0 + 500.0 / EARTH_RADIUS_KM)
    assert _zenith(overhead, rg) == pytest.approx(0.0, abs=1e-9)
    horiz = rg + np.array([0.0, 800.0, 0.0])
    assert _zenith(horiz, rg) == pytest.approx(90.0, abs=1e-9)


def test_zenith_offset_geometry():
    # oracle: triangle with central angle 10 deg, R_E = 6371, r_s = 6871;
    # cos(zen) = (r_s cos g - R_E) / sqrt(R_E^2 + r_s^2 - 2 R_E r_s cos g)
    gs = GroundStation(1, 0.0, 0.0)
    g = math.radians(10.0)
    rs = 6871.0
    sat = [rs * math.cos(g), rs * math.sin(g), 0.0]
    slant = math.sqrt(EARTH_RADIUS_KM**2 + rs**2 - 2 * EARTH_RADIUS_KM * rs * math.cos(g))
    want = math.degrees(math.acos((rs * math.cos(g) - EARTH_RADIUS_KM) / slant))
    assert _zenith(sat, gs_position_km(gs, [0.0])[0]) == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(71.656, abs=0.01)


def test_zenith_tracks_earth_rotation():
    gs = GroundStation(1, 0.0, 0.0)
    t = 3600.0
    rot = math.degrees(EARTH_ROTATION_RAD_S * t)
    rg = gs_position_km(gs, [t])[0]
    lon = math.degrees(math.atan2(rg[1], rg[0]))
    assert lon == pytest.approx(rot, abs=1e-9)
    assert _zenith(rg * 1.05, rg) == pytest.approx(0.0, abs=1e-9)
    # the same point is off zenith for the station as it stood at t = 0
    assert _zenith(rg * 1.05, gs_position_km(gs, [0.0])[0]) > 10.0


def test_zenith_rejects_coincident():
    gs = GroundStation(1, 0.0, 0.0)
    rg = gs_position_km(gs, [0.0])[0]
    with pytest.raises(ValueError):
        _zenith(rg.copy(), rg)


# -------------------------------------------------------------------- sessions


def test_sessions_tile_for_continuous_coverage():
    # Type-2 ring over an equatorial station: N_s = 24 keeps one satellite
    # inside the 70-degree mask at all times, so sessions tile the window.
    spec = spec_type2(n=24)
    gs = GroundStation(1, 0.0, 0.0)
    t1 = 3000.0
    sessions = find_sessions(spec, gs, 0.0, t1, dt=1.0)
    assert sessions, "expected continuous coverage"
    assert sessions[0].t_start_s == 0.0
    assert sessions[-1].t_end_s == t1
    for a, b in zip(sessions, sessions[1:]):
        assert a.t_end_s == b.t_start_s  # shared handover instant
        assert b.serving_sat != a.serving_sat
    assert visibility_fraction(sessions, t1) == pytest.approx(1.0, abs=1e-12)


def test_sessions_empty_off_coverage():
    spec = spec_type2(n=12)
    gs = GroundStation(1, 80.0, 0.0)
    assert find_sessions(spec, gs, 0.0, 4000.0, dt=5.0) == []


def test_session_gaps_below_continuity_threshold():
    # N_s = 12 equatorial ring covers ~62.5% of the time at the equator
    spec = spec_type2(n=12)
    gs = GroundStation(1, 0.0, 0.0)
    t1 = 40000.0
    sessions = find_sessions(spec, gs, 0.0, t1, dt=2.0)
    frac = visibility_fraction(sessions, t1)
    assert 0.55 < frac < 0.70


def test_session_boundary_maximality():
    # stepping dt outside a refined session edge violates the mask or
    # switches the serving satellite
    spec = spec_type2(n=12)
    gs = GroundStation(1, 0.0, 0.0)
    sessions = find_sessions(spec, gs, 0.0, 20000.0, dt=1.0)
    assert sessions
    s = sessions[0]
    z = zenith_angles_deg(spec, gs, np.array([s.t_end_s + 1.0]))
    serving = int(np.argmin(z[0]))
    assert serving != s.serving_sat or z[0, serving] > 70.0


def test_zenith_pass_duration_294s():
    # one zenith-crossing pass of a polar satellite over a 45N station:
    # satellite 0 starts 20 degrees of arc before the station's latitude and
    # the station longitude is offset so it sits under plane 0 at closest
    # approach despite Earth rotation
    spec = spec_type1(n=12, phase0_deg=25.0)
    lead = math.radians(20.0) / spec.mean_motion_rad_s
    gs = GroundStation(1, 45.0, -math.degrees(EARTH_ROTATION_RAD_S * lead))
    sessions = find_sessions(spec, gs, 0.0, 2.0 * lead + 200.0, dt=1.0)
    best = min(sessions, key=lambda s: s.min_zenith_deg)
    assert best.min_zenith_deg < 1.0
    assert best.duration_s == pytest.approx(294.0, abs=5.0)


def test_serving_tie_breaks_to_lowest_index():
    # a polar-station view of a Type-1 ring sees all satellites at the same
    # zenith angle; the lowest index must serve
    spec = spec_type1(n=12, phase0_deg=85.0)
    gs = GroundStation(1, 90.0, 0.0)
    sessions = find_sessions(spec, gs, 0.0, 600.0, dt=5.0)
    assert sessions
    assert sessions[0].serving_sat == 0


def test_visibility_fraction_edges():
    assert visibility_fraction([], 100.0) == 0.0
    from ringqkd.geometry import VisibilitySession

    s = VisibilitySession(1, 0.0, 100.0, 0, 0.0)
    assert visibility_fraction([s], 100.0) == 1.0
    with pytest.raises(ValueError):
        visibility_fraction([s], 0.0)


# ------------------------------------------- sessions against the reference


def _serving_state(z, theta_max_deg):
    """(serving index or -1, zenith of the nearest satellite) per sample from
    the full zenith matrix: the oracle for ``serving_state``."""
    serving = np.argmin(z, axis=1)  # ties -> lowest index
    zmin = z[np.arange(z.shape[0]), serving]
    state = np.where(zmin <= theta_max_deg, serving, -1)
    return state, zmin


def _scalar_bisection(spec, gs, t_lo, t_hi, state_lo, theta_max_deg, tol):
    """One edge at a time, one (1, N) zenith evaluation per halving: the
    bisection geometry ran before it stepped all edges in one array."""
    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        state, _ = _serving_state(zenith_angles_deg(spec, gs, np.array([mid])), theta_max_deg)
        if state[0] == state_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_polish(spec, gs, sat, t_best, dt, t_lo, t_hi):
    """Golden-section polish of one satellite's minimum zenith angle, as
    geometry ran it for every session before only find_sessions polished."""
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


def _reference_sessions(spec, gs, times, dt, theta_max_deg):
    """Sessions and sample ranges as the simulator's day loop extracted them
    before extraction moved into geometry: its inline zenith block and its
    copy of the session loop, with the scalar edge bisection and the
    minimum-zenith polish on every session, kept as a reference for
    ``extract_sessions`` and ``find_sessions``."""
    pos = positions_eci_km(spec, times)
    rg = gs_position_km(gs, times)
    v = pos - rg[:, None, :]
    nv = np.linalg.norm(v, axis=-1)
    z = np.degrees(
        np.arccos(np.clip(np.sum(v * rg[:, None, :], axis=-1) / (nv * EARTH_RADIUS_KM), -1.0, 1.0))
    )
    serving = np.argmin(z, axis=1)
    zmin = z[np.arange(z.shape[0]), serving]
    state = np.where(zmin <= theta_max_deg, serving, -1)
    tol = dt / 100.0
    sessions = []
    session_samples = []
    i = 0
    boundary_left = times[0]
    n = len(times)
    while i < n:
        s = int(state[i])
        j = i
        while j + 1 < n and state[j + 1] == s:
            j += 1
        if j + 1 < n:
            boundary_right = _scalar_bisection(spec, gs, times[j], times[j + 1], s, theta_max_deg, tol)
        else:
            boundary_right = times[-1]
        if s >= 0:
            k_best = i + int(np.argmin(zmin[i : j + 1]))
            min_z = _scalar_polish(spec, gs, s, times[k_best], dt, boundary_left, boundary_right)
            min_z = min(min_z, float(np.min(zmin[i : j + 1])))
            sessions.append(
                VisibilitySession(gs.id, float(boundary_left), float(boundary_right), s, float(min_z))
            )
            session_samples.append((i, j + 1))
        boundary_left = boundary_right
        i = j + 1
    return sessions, session_samples


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(ConstellationKind)),
    n=st.integers(4, 40),
    latitude=st.floats(-90.0, 90.0),
    longitude=st.floats(-180.0, 180.0, exclude_max=True),
    phase0=st.floats(0.0, 360.0, exclude_max=True),
    epoch=st.integers(0, 86400).map(lambda e: e + 0.1) | st.floats(0.01, 1e5),
    dt=st.sampled_from([0.7, 1.0, 2.5, 5.0]),
    window=st.floats(30.0, 11000.0),
)
def test_extract_sessions_matches_reference(kind, n, latitude, longitude, phase0, epoch, dt, window):
    spec = ConstellationSpec(kind, n, 500.0, epoch_s=epoch, phase0_deg=phase0)
    gs = GroundStation(1, latitude, longitude)
    t1 = epoch + window
    steps = int(math.floor((t1 - epoch) / dt))
    times = epoch + dt * np.arange(steps + 1)
    if times[-1] < t1:
        times = np.append(times, t1)
    want, want_ranges = _reference_sessions(spec, gs, times, dt, 70.0)
    z = zenith_angles_deg(spec, gs, times)
    state, zmin = serving_state(spec, gs, times, 70.0)
    got, got_ranges = extract_sessions(spec, gs, times, dt, state, zmin, 70.0)
    # extraction matches in everything but the polish, which it leaves out
    assert got_ranges == want_ranges
    assert [replace(s, min_zenith_deg=0.0) for s in got] == [
        replace(s, min_zenith_deg=0.0) for s in want
    ]
    for s, (i, j) in zip(got, got_ranges):
        assert s.min_zenith_deg == float(np.min(z[i:j, s.serving_sat]))
    assert find_sessions(spec, gs, epoch, t1, dt=dt) == want


_POLAR = ConstellationKind.TYPE1_POLAR
_EQUATORIAL = ConstellationKind.TYPE2_EQUATORIAL


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ConstellationKind)),
    n=st.integers(3, 60),
    latitude=st.floats(-90.0, 90.0),
    longitude=st.floats(-180.0, 180.0, exclude_max=True),
    phase0=st.floats(0.0, 360.0, exclude_max=True),
    epoch=st.floats(0.0, 1e5),
    dt=st.sampled_from([0.7, 1.0, 2.5, 5.0]),
)
@example(kind=_EQUATORIAL, n=60, latitude=0.0, longitude=0.0, phase0=0.0, epoch=0.0, dt=1.0)
@example(kind=_POLAR, n=60, latitude=0.0, longitude=12.5, phase0=3.0, epoch=7.0, dt=1.0)
# satellites 59 and 0 tie exactly at t = 0: the tie goes to 0
@example(kind=_POLAR, n=60, latitude=0.0, longitude=-3.0, phase0=357.0, epoch=0.0, dt=1.0)
@example(kind=_POLAR, n=24, latitude=89.9, longitude=0.0, phase0=80.0, epoch=0.0, dt=1.0)
@example(kind=_POLAR, n=24, latitude=-89.9, longitude=30.0, phase0=260.0, epoch=0.0, dt=0.7)
@example(kind=_POLAR, n=24, latitude=90.0, longitude=0.0, phase0=85.0, epoch=0.0, dt=5.0)
@example(kind=_POLAR, n=37, latitude=-90.0, longitude=0.0, phase0=265.0, epoch=3.0, dt=2.5)
@example(kind=_EQUATORIAL, n=12, latitude=90.0, longitude=0.0, phase0=0.0, epoch=0.0, dt=5.0)
@example(kind=_EQUATORIAL, n=3, latitude=-90.0, longitude=10.0, phase0=0.0, epoch=0.0, dt=5.0)
def test_serving_state_matches_full_matrix(kind, n, latitude, longitude, phase0, epoch, dt):
    # the candidate-column serving state, and the sessions built on it, are
    # bit-identical to the argmin of the full zenith matrix
    spec = ConstellationSpec(kind, n, 500.0, epoch_s=epoch, phase0_deg=phase0)
    gs = GroundStation(1, latitude, longitude)
    t1 = epoch + 3000.0
    times = epoch + dt * np.arange(int(math.floor(3000.0 / dt)) + 1)
    if times[-1] < t1:
        times = np.append(times, t1)
    state, zmin = serving_state(spec, gs, times, 70.0)
    want_state, want_zmin = _serving_state(zenith_angles_deg(spec, gs, times), 70.0)
    assert state.tobytes() == want_state.tobytes()
    served = want_state >= 0
    assert zmin[served].tobytes() == want_zmin[served].tobytes()
    want, want_ranges = _reference_sessions(spec, gs, times, dt, 70.0)
    got, got_ranges = extract_sessions(spec, gs, times, dt, state, zmin, 70.0)
    assert got_ranges == want_ranges
    assert [replace(s, min_zenith_deg=0.0) for s in got] == [
        replace(s, min_zenith_deg=0.0) for s in want
    ]
    assert find_sessions(spec, gs, epoch, t1, dt=dt) == want


def test_serving_state_searches_tied_rows_in_full():
    # at u = 90 deg every Type-1 satellite is over the pole, so the rows
    # there are searched in full; an 85N station sees them
    spec = spec_type1(n=24, phase0_deg=90.0)
    gs = GroundStation(1, 85.0, 0.0)
    times = np.arange(0.0, 600.0)
    assert _tied_rows(spec, gs, times).tolist() == [0]
    state, zmin = serving_state(spec, gs, times, 70.0)
    want_state, want_zmin = _serving_state(zenith_angles_deg(spec, gs, times), 70.0)
    assert state[0] >= 0
    assert state.tobytes() == want_state.tobytes()
    assert zmin.tobytes() == want_zmin.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ConstellationKind)),
    n=st.integers(3, 60),
    latitude=st.floats(-90.0, 90.0),
    longitude=st.floats(-180.0, 180.0, exclude_max=True),
    phase0=st.floats(0.0, 360.0, exclude_max=True),
    epoch=st.floats(0.0, 1e5),
    dt=st.sampled_from([0.7, 1.0, 2.5, 5.0]),
    cuts=st.lists(st.integers(0, 400), max_size=6),
    chunk=st.integers(1, 64),
)
# the tied rows of the test above, 11 of them on 1 ms steps, split across
# parts and chunks
@example(kind=_POLAR, n=24, latitude=85.0, longitude=0.0, phase0=90.0, epoch=0.0, dt=1e-3,
         cuts=[3, 5, 6, 9], chunk=2)
def test_serving_state_is_the_same_on_any_split_of_the_grid(
    kind, n, latitude, longitude, phase0, epoch, dt, cuts, chunk
):
    # every instant's serving state is its own: serving_state on a grid
    # equals the concatenation of serving_state on the parts of any split
    # of it, taken in chunks of any size, bit for bit
    spec = ConstellationSpec(kind, n, 500.0, epoch_s=epoch, phase0_deg=phase0)
    gs = GroundStation(1, latitude, longitude)
    times = epoch + dt * np.arange(401)
    state, zmin = serving_state(spec, gs, times, 70.0)
    bounds = [0, *sorted(cuts), times.size]
    with mock.patch.object(geometry, "CHUNK_SAMPLES", chunk):
        parts = [serving_state(spec, gs, times[a:b], 70.0) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate([p[0] for p in parts]).tobytes() == state.tobytes()
    assert np.concatenate([p[1] for p in parts]).tobytes() == zmin.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ConstellationKind)),
    n=st.integers(4, 40),
    latitude=st.floats(-90.0, 90.0),
    phase0=st.floats(0.0, 360.0, exclude_max=True),
    epoch=st.floats(0.0, 1e5),
    dt=st.sampled_from([0.7, 1.0, 2.5, 5.0]),
    window=st.floats(30.0, 6000.0),
    extra=st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            # a full step, a short final interval, or one already within tol
            st.just(1.0) | st.floats(0.011, 1.0) | st.floats(0.0, 0.01),
            st.integers(-1, 39),
        ),
        max_size=20,
    ),
)
def test_refine_boundaries_matches_scalar_bisection(
    kind, n, latitude, phase0, epoch, dt, window, extra
):
    # the grid's own handovers, the last one into the appended end sample,
    # plus random intervals with random starting states, all in one batch
    spec = ConstellationSpec(kind, n, 500.0, epoch_s=epoch, phase0_deg=phase0)
    gs = GroundStation(1, latitude, 0.0)
    times = epoch + dt * np.arange(int(math.floor(window / dt)) + 1)
    times = np.append(times, epoch + window) if times[-1] < epoch + window else times
    state, _ = _serving_state(zenith_angles_deg(spec, gs, times), 70.0)
    ends = np.flatnonzero(state[1:] != state[:-1])
    t_lo = np.concatenate((times[ends], [epoch + f * window for f, _, _ in extra]))
    t_hi = np.concatenate((times[ends + 1], t_lo[len(ends):] + [w * dt for _, w, _ in extra]))
    state_lo = np.concatenate((state[ends], [min(s, n - 1) for _, _, s in extra])).astype(int)
    tol = dt / 100.0
    got = _refine_boundaries(spec, gs, t_lo, t_hi, state_lo, 70.0, tol)
    want = [
        _scalar_bisection(spec, gs, lo, hi, s, 70.0, tol)
        for lo, hi, s in zip(t_lo, t_hi, state_lo)
    ]
    assert got.tobytes() == np.array(want, dtype=float).tobytes()
