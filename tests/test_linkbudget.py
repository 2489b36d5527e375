"""Link-budget tests: free space, gains, turbulence, uplink and ISL models."""

import math

import numpy as np
import pytest

from ringqkd.linkbudget import (
    OpticalParams,
    TurbulenceProfile,
    antenna_gains,
    cn2,
    free_space_loss,
    fried_r0,
    isl_efficiency,
    slant_path_km,
    to_db,
    uplink_efficiency,
    uplink_factors,
)

def no_turbulence():
    return TurbulenceProfile(model="none")


# ------------------------------------------------------------------ free space


def test_free_space_loss_reference():
    val = free_space_loss(850e-9, 500e3)
    assert val == pytest.approx(1.830e-26, rel=1e-3)
    assert to_db(val) == pytest.approx(257.4, abs=0.05)


def test_free_space_inverse_square():
    assert free_space_loss(850e-9, 2 * 500e3) == pytest.approx(
        free_space_loss(850e-9, 500e3) / 4.0, rel=1e-12
    )


def test_free_space_loss_long_chord():
    assert to_db(free_space_loss(850e-9, 3556.7e3)) == pytest.approx(274.4, abs=0.05)


def test_free_space_rejects_nonpositive():
    with pytest.raises(ValueError):
        free_space_loss(850e-9, 0.0)
    with pytest.raises(ValueError):
        free_space_loss(-1e-9, 1e3)


# ----------------------------------------------------------------------- gains


def test_antenna_gains_reference(optics):
    gt, gr = antenna_gains(optics)
    assert gt == pytest.approx(8.0 / (15e-6) ** 2, rel=1e-12)
    assert gt == pytest.approx(3.556e10, rel=1e-3)
    assert gr == pytest.approx(1.229e12, rel=1e-3)
    assert 10 * math.log10(gt) == pytest.approx(105.5, abs=0.05)
    assert 10 * math.log10(gr) == pytest.approx(120.9, abs=0.05)


def test_transmitter_gain_quadratic_law(optics):
    wide = OpticalParams(beam_divergence_urad=2 * optics.beam_divergence_urad)
    assert antenna_gains(wide)[0] == pytest.approx(antenna_gains(optics)[0] / 4.0, rel=1e-12)


# ------------------------------------------------------------------ turbulence


def test_cn2_hv57_ground_value(turbulence):
    assert cn2(0.0, turbulence) == pytest.approx(1.7e-14 + 2.7e-16, rel=1e-9)


def test_cn2_decays_aloft(turbulence):
    assert cn2(200e3, turbulence) < 1e-25
    h = np.linspace(20e3, 100e3, 200)
    vals = cn2(h, turbulence)
    assert np.all(np.diff(vals) < 0)


def test_fried_r0_zenith_regression(turbulence):
    # regression value from adaptive quadrature of the HV 5/7 profile at
    # 850 nm (cross-checked below against a brute trapezoid oracle)
    r0 = fried_r0(turbulence, 850e-9, 0.0)
    assert r0 == pytest.approx(0.09381, abs=2e-4)


def test_fried_r0_trapezoid_oracle(turbulence):
    h = np.linspace(0.0, 20000.0, 1_000_001)
    integral = np.trapezoid(cn2(h, turbulence), h)
    k = 2 * math.pi / 850e-9
    want = (0.423 * k * k * integral) ** (-0.6)
    assert fried_r0(turbulence, 850e-9, 0.0) == pytest.approx(want, rel=1e-4)


def test_fried_r0_secant_power_law(turbulence):
    # doubling the path integral through sec(zen) scales r0 by 2^(-3/5)
    z = math.acos(0.5)  # sec = 2
    assert fried_r0(turbulence, 850e-9, z) == pytest.approx(
        fried_r0(turbulence, 850e-9, 0.0) * 2 ** (-0.6), rel=1e-9
    )


def test_fried_r0_no_turbulence_is_infinite():
    assert math.isinf(fried_r0(no_turbulence(), 850e-9, 0.0))


def test_fried_r0_rejects_horizon():
    with pytest.raises(ValueError):
        fried_r0(TurbulenceProfile(), 850e-9, math.radians(90.0))


# ---------------------------------------------------------------------- uplink


def test_uplink_zenith_band(optics, turbulence):
    loss = to_db(uplink_efficiency(0.0, optics, turbulence))
    assert 65.0 <= loss <= 80.0


def test_uplink_cutoff_band(optics, turbulence):
    loss = to_db(uplink_efficiency(math.radians(70.0), optics, turbulence))
    assert 130.0 <= loss <= 150.0


def test_uplink_monotone_in_zenith(optics, turbulence):
    z = np.radians(np.linspace(0.0, 70.0, 71))
    loss = to_db(uplink_efficiency(z, optics, turbulence))
    assert np.all(np.diff(loss) > 0)


def test_uplink_reduces_to_friis_without_turbulence():
    optics = OpticalParams(optics_efficiency=1.0, atm_loss_db_zenith=0.0)
    eta = uplink_efficiency(0.0, optics, no_turbulence())
    gt, gr = antenna_gains(optics)
    want = free_space_loss(optics.wavelength_m, 500e3) * gt * gr
    assert eta == pytest.approx(want, rel=1e-12)


def test_uplink_factorization(optics, turbulence):
    # disabling factors one at a time removes exactly that factor
    f = uplink_factors(math.radians(30.0), optics, turbulence)
    eta_full = uplink_efficiency(math.radians(30.0), optics, turbulence)
    prod = (
        f["eta_opt"]
        * f["eta_atm"]
        * f["free_space"]
        * f["gain_product"]
        * f["turb_spread"]
        * f["turb_wander"]
    )
    assert eta_full == pytest.approx(prod, rel=1e-12)
    no_opt = OpticalParams(optics_efficiency=1.0)
    assert uplink_efficiency(math.radians(30.0), no_opt, turbulence) == pytest.approx(
        eta_full / f["eta_opt"], rel=1e-9
    )
    no_atm = OpticalParams(atm_loss_db_zenith=0.0)
    assert uplink_efficiency(math.radians(30.0), no_atm, turbulence) == pytest.approx(
        eta_full / f["eta_atm"], rel=1e-9
    )


def test_uplink_collects_at_most_the_whole_beam():
    # a 1 m aperture in a 1 urad, 1 nm beam 500 km away: the far-field gain
    # product reads 2, but the receiver cannot collect more than the beam
    optics = OpticalParams(wavelength_nm=1.0, beam_divergence_urad=1.0, sat_rx_diameter_m=1.0,
                           pointing_jitter_urad=0.0, optics_efficiency=0.5)
    f = uplink_factors(0.0, optics, no_turbulence())
    assert f["free_space"] * f["gain_product"] == pytest.approx(2.0, rel=1e-3)
    assert uplink_efficiency(0.0, optics, no_turbulence()) == 0.5 * f["eta_atm"]
    zeniths = np.radians([0.0, 30.0, 60.0])
    assert np.all(uplink_efficiency(zeniths, optics, no_turbulence()) <= 0.5)


def test_dead_link_is_infinite_loss():
    # an efficiency that underflows to 0 reads +inf dB, with no warning
    assert to_db(0.0) == math.inf
    assert list(to_db(np.array([1.0, 0.0]))) == [0.0, math.inf]


def test_uplink_rejects_beyond_cutoff(optics, turbulence):
    with pytest.raises(ValueError):
        uplink_efficiency(math.radians(75.0), optics, turbulence)


def test_slant_path_exact_sphere():
    # zenith: slant equals altitude; horizon-ish values from the chord formula
    assert slant_path_km(0.0, 500.0) == pytest.approx(500.0, rel=1e-12)
    z = math.radians(70.0)
    want = math.sqrt(6871.0**2 - (6371.0 * math.sin(z)) ** 2) - 6371.0 * math.cos(z)
    assert slant_path_km(z, 500.0) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(1192.8, abs=0.2)


# ------------------------------------------------------------------------- ISL


def test_isl_geometric_reference(optics):
    # half-angle far field: w(3556.7 km) ~ 26.68 m -> eta_geo ~ 6.32e-5
    eta_geo = isl_efficiency(3556.7e3, optics, include_pointing=False) / optics.optics_efficiency
    assert eta_geo == pytest.approx(6.3239e-5, rel=1e-3)
    assert to_db(eta_geo) == pytest.approx(42.0, abs=0.05)


def test_isl_45db_anchor(optics):
    # eta_opt * eta_geo at the N_s = 12 adjacent chord sits at 45.0 dB,
    # the budget referenced by the neighbour-range feasibility analysis
    chord_m = 2 * 6871.0e3 * math.sin(math.pi / 12)
    loss = to_db(isl_efficiency(chord_m, optics, include_pointing=False))
    assert loss == pytest.approx(45.0, abs=0.05)


def test_isl_pointing_reference(optics):
    # the pointing factor is what include_pointing adds, at any separation
    gt, gr = antenna_gains(optics)
    want = math.exp(-gt * 1e-12) * math.exp(-gr * 1e-12)
    L = np.array([500e3, 3556.7e3, 6000e3])
    ratio = isl_efficiency(L, optics) / isl_efficiency(L, optics, include_pointing=False)
    assert ratio == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.2823, abs=2e-3)
    assert to_db(want) == pytest.approx(5.5, abs=0.05)


def test_isl_no_jitter_no_pointing_loss():
    optics = OpticalParams(pointing_jitter_urad=0.0)
    L = np.array([500e3, 3556.7e3, 6000e3])
    assert np.array_equal(isl_efficiency(L, optics), isl_efficiency(L, optics, include_pointing=False))


def test_isl_loss_monotone_in_distance(optics):
    L = np.linspace(100e3, 6000e3, 60)
    loss = to_db(isl_efficiency(L, optics))
    assert np.all(np.diff(loss) > 0)


def test_shorter_chords_never_lose_more(optics):
    # increasing N_s shrinks the adjacent chord and the ISL loss with it
    losses = []
    for n in range(10, 40):
        chord = 2 * 6871e3 * math.sin(math.pi / n)
        losses.append(to_db(isl_efficiency(chord, optics)))
    assert np.all(np.diff(losses) < 0)


def test_isl_dominates_zenith_uplink(optics, turbulence):
    chord24 = 2 * 6871e3 * math.sin(math.pi / 24)
    isl = isl_efficiency(chord24, optics)
    ul = uplink_efficiency(0.0, optics, turbulence)
    assert isl > ul


# --------------------------------------------------------------- loss profiles


def _zenith_pass_setup():
    from ringqkd.constants import EARTH_ROTATION_RAD_S
    from ringqkd.geometry import ConstellationKind, ConstellationSpec, GroundStation, find_sessions

    spec = ConstellationSpec(ConstellationKind.TYPE1_POLAR, 12, 500.0, phase0_deg=25.0)
    lead = math.radians(20.0) / spec.mean_motion_rad_s
    gs = GroundStation(1, 45.0, -math.degrees(EARTH_ROTATION_RAD_S * lead))
    sessions = find_sessions(spec, gs, 0.0, 2 * lead + 200.0, dt=1.0)
    best = min(sessions, key=lambda s: s.min_zenith_deg)
    return spec, gs, best


def test_session_profile_shape_and_band(optics, turbulence):
    # uplink loss sampled every second along a zenith-crossing session
    from ringqkd.geometry import zenith_angles_deg

    spec, gs, session = _zenith_pass_setup()
    times = np.arange(session.t_start_s, session.t_end_s + 0.5, 1.0)
    zen = np.clip(zenith_angles_deg(spec, gs, times)[:, session.serving_sat], 0.0, 70.0)
    losses = to_db(uplink_efficiency(np.radians(zen), optics, turbulence, altitude_km=spec.altitude_km))
    assert len(losses) == pytest.approx(294, abs=6)
    assert np.all((losses >= 65.0) & (losses <= 150.0))
    # U-shape: strictly decreasing to the minimum, then increasing
    k = int(np.argmin(losses))
    assert np.all(np.diff(losses[: k + 1]) < 0)
    assert np.all(np.diff(losses[k:]) > 0)
