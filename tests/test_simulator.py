"""Simulator tests on shortened windows (full-day runs live in acceptance)."""

import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringqkd import simulator
from ringqkd.scenario import load_scenario, manifest
from ringqkd.simulator import (
    CampaignResult,
    _effective_bins,
    day_phase_deg,
    run_campaign,
    run_day,
    sweep,
)


def short_config(**over):
    overrides = [
        "campaign.t_total_s=7200",
        "campaign.n_days=2",
        "campaign.optimizer_evals=80",
    ] + [f"{k}={v}" for k, v in over.items()]
    return load_scenario(overrides=overrides)


# ---------------------------------------------------------------- scenario IO


def test_defaults_load_and_validate():
    cfg = load_scenario()
    assert cfg.constellation.num_sats == 12
    assert cfg.channel.rep_rate_hz == 1e9
    assert cfg.gs2.longitude_deg == 180.0


def test_scenario_rejects_unknowns(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[constellation]\nwarp_drive = 1\n")
    with pytest.raises(ValueError, match="warp_drive"):
        load_scenario(str(bad))
    bad.write_text("[flux]\nx = 1\n")
    with pytest.raises(ValueError, match="flux"):
        load_scenario(str(bad))


def test_scenario_rejects_odd_and_small_rings():
    with pytest.raises(ValueError, match="even"):
        load_scenario(overrides=["constellation.num_sats=13"])
    with pytest.raises(ValueError, match="minimum ring size"):
        load_scenario(overrides=["constellation.num_sats=8"])


def test_override_propagates():
    cfg = load_scenario(overrides=["optics.wavelength_nm=1550"])
    assert cfg.optics.wavelength_m == pytest.approx(1550e-9)
    with pytest.raises(ValueError):
        load_scenario(overrides=["optics.wavelength=1550"])


def test_manifest_roundtrip(tmp_path):
    cfg = load_scenario(overrides=["constellation.kind=type1", "campaign.seed=9"])
    text = manifest(cfg)
    path = tmp_path / "m.ini"
    path.write_text(text)
    again = load_scenario(str(path))
    assert again == cfg
    assert manifest(again) == text


def test_file_values_parse(tmp_path):
    f = tmp_path / "s.ini"
    f.write_text(
        "[constellation]\nkind = type2\nnum_sats = 20\n\n"
        "[ground_stations]\nlatitude_deg = 5.0\n\n"
        "[campaign]\nn_days = 3\nvary_phase = false\n"
    )
    cfg = load_scenario(str(f))
    assert cfg.constellation.num_sats == 20
    assert cfg.gs1.latitude_deg == 5.0
    assert cfg.n_days == 3 and cfg.vary_phase is False


# -------------------------------------------------------------------- run_day


def test_day_phase_sequence_deterministic():
    cfg = short_config()
    phases = [day_phase_deg(cfg, d) for d in range(5)]
    assert phases == [day_phase_deg(cfg, d) for d in range(5)]
    assert len(set(round(p, 6) for p in phases)) == 5
    frozen = replace(cfg, vary_phase=False)
    assert day_phase_deg(frozen, 3) == cfg.constellation.phase0_deg


def test_neighbouring_seeds_share_shifted_days():
    # intended: day d of seed s + 1 is day d + 1 of seed s (README model notes)
    cfg = short_config()
    assert [day_phase_deg(replace(cfg, seed=cfg.seed + 1), d) for d in range(4)] == [
        day_phase_deg(cfg, d + 1) for d in range(4)
    ]


class _GridSeen(Exception):
    pass


@settings(max_examples=80, deadline=None)
@given(
    epoch=st.floats(0.0, 1e6),
    t_total=st.floats(1.0, 86400.0),
    dt=st.floats(0.1, 10.0) | st.sampled_from([0.7, 1.0, 2.5, 5.0]),
)
@example(epoch=0.1, t_total=1800.0, dt=0.7)
@example(epoch=12.3, t_total=86400.0, dt=0.7)
def test_run_day_sample_grid(epoch, t_total, dt):
    # run_day samples epoch + dt * k for k = 0 .. floor(t_total / dt), then
    # the window's end if the last step falls short of it
    base = load_scenario()
    cfg = replace(
        base,
        constellation=replace(base.constellation, epoch_s=epoch),
        t_total_s=t_total,
        time_step_s=dt,
    )
    seen = []

    def capture(spec, gs, times, theta_max_deg):
        seen.append(times)
        raise _GridSeen

    with mock.patch.object(simulator, "serving_state", capture), pytest.raises(_GridSeen):
        run_day(cfg, 0)
    want = epoch + dt * np.arange(int(math.floor(t_total / dt)) + 1)
    if want[-1] < epoch + t_total:
        want = np.append(want, epoch + t_total)
    assert np.array_equal(seen[0], want)


def test_run_day_logs_each_station_day(caplog):
    # one DEBUG line per station-day: samples, samples searched in full,
    # sessions and the seconds the serving state took
    caplog.set_level(logging.DEBUG, logger="ringqkd.simulator")
    run_day(short_config(), 0)
    lines = [r.getMessage() for r in caplog.records if r.name == "ringqkd.simulator"]
    assert [line.split(":")[0] for line in lines] == ["day 0 station 1", "day 0 station 2"]
    assert all("7201 samples, 0 on full rows;" in line for line in lines)


def test_effective_link_max():
    # the better arm sets each sample's link; keys are losses in dB to 0.01
    cfg = short_config()
    bins = _effective_bins(cfg, np.array([1e-7, 3e-5, 2e-4]), np.array([1e-4, 3e-5, 1e-5]))
    assert bins == {40.0: 1.0, 45.23: 1.0, 36.99: 1.0}


def test_effective_link_asymmetric_mode():
    # both arms are kept, (uplink dB, ISL dB), and equal samples share a bin
    cfg = replace(short_config(), effective_mode="asymmetric")
    bins = _effective_bins(cfg, np.array([1e-7, 1e-7]), np.array([1e-4, 1e-4]))
    assert bins == {(70.0, 40.0): 2.0}


def test_run_day_symmetric_links():
    cfg = short_config()
    rep = run_day(cfg, 0)
    n = cfg.constellation.num_sats
    # GS2 mirrors GS1 shifted by half the ring
    for (gs, sat), b in rep.per_link_skl.items():
        if gs != 1:
            continue
        twin = rep.per_link_skl.get((2, (sat + n // 2) % n))
        assert twin is not None
        assert twin.skl_bits == pytest.approx(b.skl_bits, rel=1e-9)
    assert rep.rho_vis[1] == pytest.approx(rep.rho_vis[2], abs=1e-9)


def test_run_day_protocol_is_min_sum():
    cfg = short_config()
    rep = run_day(cfg, 0)
    n = cfg.constellation.num_sats
    total = 0.0
    for i in rep.serving_sats:
        k = (i + n // 2) % n
        links = [(1, (i - 1) % n), (1, (i + 1) % n), (2, (k - 1) % n), (2, (k + 1) % n)]
        total += min(rep.per_link_skl[l].skl_bits if l in rep.per_link_skl else 0.0 for l in links)
    assert rep.protocol_skl == pytest.approx(total, rel=1e-12)
    assert rep.per_sat_gs_skl == pytest.approx(total / len(rep.serving_sats), rel=1e-12)


def test_run_day_sessions_are_find_sessions():
    # with the epoch at 0 both sample the same grid; a 2.5 s step makes the
    # dt/100 bisection tolerance take one halving fewer than 1 s would
    from ringqkd.geometry import find_sessions, visibility_fraction

    cfg = short_config(**{"campaign.time_step_s": 2.5})
    rep = run_day(cfg, 0)
    spec = replace(cfg.constellation, phase0_deg=rep.phase0_deg)
    sessions = {
        gs.id: find_sessions(spec, gs, 0.0, cfg.t_total_s, dt=2.5, theta_max_deg=cfg.theta_max_deg)
        for gs in (cfg.gs1, cfg.gs2)
    }
    for gs_id, found in sessions.items():
        assert rep.rho_vis[gs_id] == visibility_fraction(found, cfg.t_total_s)
    assert rep.serving_sats == tuple(sorted({s.serving_sat for s in sessions[1]}))


def test_run_day_high_latitude_type2_is_empty():
    cfg = short_config(**{"ground_stations.latitude_deg": 10.0})
    rep = run_day(cfg, 0)
    assert rep.rho_vis[1] == 0.0
    assert rep.protocol_skl == 0.0
    assert rep.per_link_skl == {}


def test_isl_reference_dominates():
    cfg = short_config()
    rep = run_day(cfg, 0)
    best_gs = max(b.skl_bits for b in rep.per_link_skl.values())
    assert rep.isl_reference.skl_bits >= best_gs


def test_session_pooling_never_beats_daily():
    cfg = short_config()
    daily = run_day(cfg, 0)
    per_session = run_day(replace(cfg, pooling="session"), 0)
    assert per_session.block_size == pytest.approx(daily.block_size, rel=1e-9)
    # finite-key penalties are paid per block, so splitting cannot win
    assert per_session.protocol_skl <= daily.protocol_skl * (1 + 1e-9)


def test_asymmetric_mode_is_bottlenecked():
    cfg = short_config()
    asym = run_day(replace(cfg, effective_mode="asymmetric"), 0)
    sym = run_day(cfg, 0)
    assert asym.protocol_skl < sym.protocol_skl


# ------------------------------------------------------------------- campaign


def test_campaign_stats_and_determinism():
    cfg = short_config()
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    assert a.mean == b.mean and a.std == b.std
    assert len(a.days) == 2
    for key, val in a.mean.items():
        vals = [d.scalars()[key] for d in a.days]
        assert val == pytest.approx(float(np.mean(vals)))
        assert a.std[key] == pytest.approx(float(np.std(vals)))


def test_campaign_frozen_phase_zero_std():
    cfg = replace(short_config(), vary_phase=False)
    res = run_campaign(cfg)
    for key, sd in res.std.items():
        assert sd == pytest.approx(0.0, abs=1e-9)


def test_campaign_workers_match_serial():
    cfg = short_config()
    serial = run_campaign(cfg)
    parallel = run_campaign(replace(cfg, workers=2))
    assert serial.mean == parallel.mean
    assert serial.std == parallel.std


def test_sweep_axes():
    cfg = short_config()
    by_n = sweep(cfg, "num_sats", [12, 20])
    assert [v for v, _ in by_n] == [12, 20]
    assert all(isinstance(r, CampaignResult) for _, r in by_n)
    by_lat = sweep(cfg, "latitude", [0.0, 10.0])
    assert by_lat[1][1].mean["protocol_skl"] == 0.0
    with pytest.raises(ValueError):
        sweep(cfg, "altitude", [1])
    with pytest.raises(ValueError):
        sweep(cfg, "num_sats", [])


def test_sweep_latitude_cliff_type2():
    # equatorial ring: positive yield on the equator, reduced at 5 degrees,
    # zero at 10 degrees
    cfg = short_config(**{"constellation.num_sats": 20})
    res = sweep(cfg, "latitude", [0.0, 5.0, 10.0])
    p0, p5, p10 = (r.mean["protocol_skl"] for _, r in res)
    assert p0 > 0 and 0 < p5 < p0 and p10 == 0.0


def test_rho_vis_monotone_in_ring_size():
    # equatorial station, Type-2: coverage fraction never drops as the ring
    # grows, and saturates at exactly 1 from twenty satellites on
    from ringqkd.geometry import (
        ConstellationKind,
        ConstellationSpec,
        GroundStation,
        find_sessions,
        visibility_fraction,
    )

    gs = GroundStation(1, 0.0, 0.0)
    t1 = 20000.0
    fractions = []
    for n in (12, 14, 16, 18, 20, 24):
        spec = ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, n, 500.0)
        rho = visibility_fraction(find_sessions(spec, gs, 0.0, t1, dt=2.0), t1)
        fractions.append(rho)
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-2] == 1.0 and fractions[-1] == 1.0


def test_type1_yield_grows_with_latitude():
    # polar ring: higher-latitude stations see shorter inter-satellite
    # chords and more frequent passes, so the daily yield increases
    base = ["constellation.kind=type1", "campaign.optimizer_evals=100"]
    eq = run_day(load_scenario(overrides=base + ["ground_stations.latitude_deg=0"]), 0)
    mid = run_day(load_scenario(overrides=base + ["ground_stations.latitude_deg=45"]), 0)
    assert mid.protocol_skl > eq.protocol_skl


def test_campaign_consistent_with_single_link_evaluation():
    # the mean per-link daily yield agrees within a factor of three with a
    # standalone evaluation at the dominant effective loss and the mean
    # accumulated per-link duration (campaign-level consistency)
    from ringqkd.keyrate import accumulate_link, symmetric_arms
    from ringqkd.linkbudget import isl_efficiency

    cfg = load_scenario(overrides=["constellation.kind=type1", "campaign.optimizer_evals=200"])
    rep = run_day(cfg, 0)
    links = [b for b in rep.per_link_skl.values() if b.n_pulses > 0]
    mean_link_skl = float(np.mean([b.skl_bits for b in links]))
    mean_seconds = float(np.mean([b.n_pulses for b in links])) / cfg.channel.rep_rate_hz
    # sessions run near the equator crossing, so the effective link sits at
    # the full-size adjacent chord's ISL efficiency
    n = cfg.constellation.num_sats
    chord_m = 2.0 * cfg.constellation.orbit_radius_km * 1e3 * math.sin(math.pi / n)
    eff = isl_efficiency(chord_m, cfg.optics, include_pointing=cfg.isl_pointing_in_effective)
    block = [(symmetric_arms(eff), cfg.channel.rep_rate_hz * mean_seconds)]
    _, single = accumulate_link(block, cfg.channel, cfg.eps, max_evals=200)
    assert single.skl_bits > 0
    assert mean_link_skl / 3.0 <= single.skl_bits <= mean_link_skl * 3.0


def test_run_day_never_polishes_minimum_zenith(monkeypatch):
    # no campaign output reads a session's polished minimum zenith angle, so
    # a day must not pay for the polish
    from ringqkd import geometry

    def refuse(*args):
        raise AssertionError("run_day polished a minimum zenith angle")

    monkeypatch.setattr(geometry, "_refine_min_zenith", refuse)
    rep = run_day(short_config(**{"campaign.t_total_s": 1800}), 0)
    assert rep.rho_vis[1] > 0.0
