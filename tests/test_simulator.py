"""Simulator tests on shortened windows (full-day runs live in acceptance)."""

import logging
import math
import os
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringqkd import simulator
from ringqkd.geometry import CHUNK_SAMPLES, extract_sessions, positions_eci_km, serving_state
from ringqkd.linkbudget import isl_efficiency, to_db, uplink_efficiency
from ringqkd.scenario import load_scenario, manifest
from ringqkd.simulator import (
    CampaignResult,
    _effective_bins,
    day_phase_deg,
    run_campaign,
    run_day,
    sweep_configs,
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
    assume(dt <= t_total)  # a longer step is rejected by the scenario
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
    # sessions, their samples and the fixed-size chunks that budget and bin
    # them, one uplink call each, and the seconds the serving state took
    caplog.set_level(logging.DEBUG, logger="ringqkd.simulator")
    uplink_calls = []

    def count_uplink(zenith, *args, **kwargs):
        uplink_calls.append(zenith.size)
        return uplink_efficiency(zenith, *args, **kwargs)

    for group in (simulator._GROUP_SAMPLES, 700):
        caplog.clear()
        uplink_calls.clear()
        with mock.patch.object(simulator, "_GROUP_SAMPLES", group), \
                mock.patch.object(simulator, "uplink_efficiency", count_uplink):
            run_day(short_config(), 0)
        lines = [r.getMessage() for r in caplog.records if r.name == "ringqkd.simulator"]
        assert [line.split(":")[0] for line in lines] == ["day 0 station 1", "day 0 station 2"]
        assert all("7201 samples, 0 on full rows;" in line for line in lines)
        pattern = r"(\d+) sessions of (\d+) samples in (\d+) chunks;"
        counts = [tuple(map(int, re.search(pattern, line).groups())) for line in lines]
        # each chunk but a station's last holds group samples, whichever
        # sessions they fall in; two hours fit in two chunks of the default size
        want = []
        for sessions, samples, chunks in counts:
            assert 1 < sessions and chunks == -(-samples // group)
            want += [group] * (chunks - 1) + [samples - group * (chunks - 1)]
        assert uplink_calls == want
        if group == simulator._GROUP_SAMPLES:
            assert all(chunks <= 2 for *_, chunks in counts)


def test_effective_link_max():
    # the better arm sets each sample's link; keys are losses in dB to 0.01
    cfg = short_config()
    ul = np.array([1e-7, 3e-5, 2e-4])
    bins = _effective_bins(cfg, [0, 0, 0], ul, [np.array([1e-4, 3e-5, 1e-5])])
    assert {row[2]: row[3] for row in bins.tolist()} == {40.0: 1.0, 45.23: 1.0, 36.99: 1.0}


def test_effective_link_asymmetric_mode():
    # both arms are kept, (uplink dB, ISL dB), and equal samples share a bin
    cfg = replace(short_config(), effective_mode="asymmetric")
    bins = _effective_bins(cfg, [0, 0], np.array([1e-7, 1e-7]), [np.array([1e-4, 1e-4])])
    assert {(row[2], row[3]): row[4] for row in bins.tolist()} == {(70.0, 40.0): 2.0}


def test_effective_bins_by_session_and_side():
    # one row per (session, side, key), in that order, each session and side
    # on its own; the last column counts the bin's samples
    cfg = short_config(**{"campaign.time_step_s": 0.1})
    ul = np.full(4, 1e-7)
    isl = [np.array([1e-4, 1e-4, 1e-4, 1e-3]), np.array([1e-3, 1e-3, 1e-4, 1e-4])]
    bins = _effective_bins(cfg, [5, 5, 5, 7], ul, isl)
    assert bins.tolist() == [
        [5, 0, 40.0, 3],
        [5, 1, 30.0, 2],
        [5, 1, 40.0, 1],
        [7, 0, 30.0, 1],
        [7, 1, 40.0, 1],
    ]


def reference_effective_bins(config, ul_eff, isl_eff):
    """One session's samples on one side -> {bin key: samples}, one sample at a time."""
    out = {}
    if config.effective_mode == "max":
        eff = np.maximum(ul_eff, isl_eff)
        keys = np.round(to_db(eff), 2)
        for k in keys:
            out[float(k)] = out.get(float(k), 0) + 1
    else:
        ku = np.round(to_db(ul_eff), 2)
        ki = np.round(to_db(isl_eff), 2)
        for a, b in zip(ku, ki):
            key = (float(a), float(b))
            out[key] = out.get(key, 0) + 1
    return out


def reference_block(config, bins):
    """A {bin key: samples} dict -> the (arms, pulses) block, one bin at a time in key
    order, each bin's pulses its samples times dt times the repetition rate."""
    profile = []
    for key in sorted(bins):
        if config.effective_mode == "max":
            arm = math.sqrt(10.0 ** (-key / 10.0))
            arms = (arm, arm)
        else:
            arms = (10.0 ** (-key[0] / 10.0), 10.0 ** (-key[1] / 10.0))
        profile.append((arms, bins[key] * config.time_step_s * config.channel.rep_rate_hz))
    return np.array([arms for arms, _ in profile]), np.array([pulses for _, pulses in profile])


def block_bytes(block):
    """What tells two blocks apart: each array's dtype, shape and bytes."""
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in block)


def reference_blocks(config, day_index):
    """The blocks a day optimises, in order, binned one session and side at a time."""
    spec = replace(config.constellation, phase0_deg=day_phase_deg(config, day_index))
    n = spec.num_sats
    dt = config.time_step_s
    times = spec.epoch_s + dt * np.arange(int(math.floor(config.t_total_s / dt)) + 1)
    if times[-1] < spec.epoch_s + config.t_total_s:
        times = np.append(times, spec.epoch_s + config.t_total_s)
    link_session_bins = {}
    for gs in (config.gs1, config.gs2):
        state, zmin = serving_state(spec, gs, times, config.theta_max_deg)
        sessions, ranges = extract_sessions(spec, gs, times, dt, state, zmin, config.theta_max_deg)
        for session, (i0, i1) in zip(sessions, ranges):
            sat = session.serving_sat
            zen = np.radians(np.clip(zmin[i0:i1], 0.0, config.theta_max_deg))
            ul = uplink_efficiency(
                zen, config.optics, config.turbulence,
                altitude_km=spec.altitude_km, theta_max_deg=config.theta_max_deg,
            )
            pos = positions_eci_km(spec, times[i0:i1], [sat - 1, sat, sat + 1])
            for side in (-1, 1):
                chord_m = np.linalg.norm(pos[:, 1] - pos[:, 1 + side], axis=-1) * 1e3
                isl = isl_efficiency(
                    np.maximum(chord_m, 1.0), config.optics,
                    include_pointing=config.isl_pointing_in_effective,
                )
                bins = reference_effective_bins(config, ul, isl)
                link_session_bins.setdefault((gs.id, (sat + side) % n), []).append(bins)
    blocks = []
    for link in sorted(link_session_bins):
        session_bins = link_session_bins[link]
        if config.pooling == "daily":
            merged = {}
            for bins in session_bins:
                for key, samples in bins.items():
                    merged[key] = merged.get(key, 0) + samples
            session_bins = [merged]
        blocks += [block_bytes(reference_block(config, bins)) for bins in session_bins]
    # equal blocks are optimised once; the ISL reference block comes last
    blocks = list(dict.fromkeys(blocks))
    blocks.append(block_bytes(reference_isl_block(config, spec, times)))
    return blocks


def reference_isl_block(config, spec, times):
    """The ISL reference block from the widest chord of the whole day's
    positions of satellites 0 and 1 at once, as run_day took it before it
    went a chunk at a time."""
    pos = positions_eci_km(spec, times, [0, 1])
    chord_m = float(np.max(np.linalg.norm(pos[:, 0, :] - pos[:, 1, :], axis=-1))) * 1e3
    eff = isl_efficiency(
        max(chord_m, 1.0), config.optics, include_pointing=config.isl_pointing_in_effective
    )
    arm = math.sqrt(eff)
    arms = [[arm, arm]] if config.effective_mode == "max" else [[eff, eff]]
    return np.array(arms), np.array([config.t_total_s * config.channel.rep_rate_hz])


class _BlocksSeen(Exception):
    pass


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["type1", "type2"]),
    num_sats=st.sampled_from([12, 36]),
    dt=st.sampled_from([0.1, 0.7, 1.0 / 3.0, 2.5]),
    epoch=st.floats(0.0, 1e5),
    steps=st.floats(600.0, 40000.0),
    mode=st.sampled_from(["max", "asymmetric"]),
    pooling=st.sampled_from(["daily", "session"]),
    group=st.integers(16, 600),
)
@example(kind="type2", num_sats=12, dt=0.1, epoch=0.1, steps=36000.0, mode="asymmetric",
         pooling="daily", group=50)
@example(kind="type2", num_sats=36, dt=0.7, epoch=0.1, steps=40000.0, mode="max",
         pooling="daily", group=600)
@example(kind="type1", num_sats=12, dt=0.7, epoch=12.3, steps=5000.0, mode="max",
         pooling="session", group=17)
@example(kind="type1", num_sats=36, dt=2.5, epoch=0.0, steps=20000.0, mode="asymmetric",
         pooling="session", group=4096)
def test_run_day_bins_match_per_session_reference(
    kind, num_sats, dt, epoch, steps, mode, pooling, group
):
    # per-chunk budgets and sort-and-count, then one sort-and-add per station,
    # give every block exactly what a per-session sample tally gives, with
    # counts added over a link's sessions and each bin's samples times dt
    # taken once in key order: for steps whose multiples are not exact, daily
    # links of many sessions (Type-II ISL chords are all one bin), and chunks
    # that hold many sessions, split one, or hold only part of one
    latitude = 45.0 if kind == "type1" else 0.0
    cfg = load_scenario(overrides=[
        f"constellation.kind={kind}", f"constellation.num_sats={num_sats}",
        f"constellation.epoch_s={epoch}", f"ground_stations.latitude_deg={latitude}",
        f"campaign.t_total_s={steps * dt}", f"campaign.time_step_s={dt}",
        f"channel.effective_mode={mode}", f"campaign.pooling={pooling}",
    ])
    seen = []

    def capture(blocks, *args, **kwargs):
        seen.append([block_bytes(block) for block in blocks])
        raise _BlocksSeen

    with mock.patch.object(simulator, "_GROUP_SAMPLES", group), \
            mock.patch.object(simulator, "accumulate_links", capture), \
            pytest.raises(_BlocksSeen):
        run_day(cfg, 0)
    assert seen[0] == reference_blocks(cfg, 0)


def test_day_geometry_memory_is_a_few_chunks():
    # serving_state and the ISL reference block walk a default day's grid a
    # chunk at a time: the traced peak of each is its (T,) outputs and a
    # few chunks' arrays, not whole-day position arrays (35 MB and 9.7 MB
    # when they were; a chunk's (CHUNK_SAMPLES, 4) floats are 131 kB)
    config = load_scenario()
    spec = config.constellation
    times = spec.epoch_s + config.time_step_s * np.arange(86401)
    chunk = CHUNK_SAMPLES * 4 * 8
    for run, outputs in [
        (lambda: serving_state(spec, config.gs1, times, config.theta_max_deg), 3 * times.nbytes),
        (lambda: simulator._isl_reference(config, spec, times), 0),
    ]:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outputs + 16 * chunk


def test_off_grid_pulses_are_sample_counts_times_dt_times_rate():
    # on 0.7 s steps, k * 0.7 is not 0.7 added k times, yet every bin's
    # pulses are exactly its samples times dt times the repetition rate, and
    # a station's bins count both sides of each of its in-session samples
    cfg = short_config(**{"constellation.epoch_s": 0.1, "campaign.time_step_s": 0.7})
    dt, rate = cfg.time_step_s, cfg.channel.rep_rate_hz
    in_session, profiles = [], []
    station_profiles = simulator._station_profiles

    def sessions(*args):
        found = extract_sessions(*args)
        in_session.append(sum(i1 - i0 for i0, i1 in found[1]))
        return found

    def profile(*args):
        profiles.append(station_profiles(*args))
        return profiles[-1]

    def stop(*args, **kwargs):
        raise _BlocksSeen

    with mock.patch.object(simulator, "extract_sessions", sessions), \
            mock.patch.object(simulator, "_station_profiles", profile), \
            mock.patch.object(simulator, "accumulate_links", stop), \
            pytest.raises(_BlocksSeen):
        run_day(cfg, 0)
    tallied = False
    for samples, blocks in zip(in_session, profiles):
        pulses = np.concatenate([p for link in blocks.values() for _, p in link])
        counts = np.rint(pulses / (dt * rate)).astype(int)
        assert np.array_equal(pulses, counts * dt * rate)
        assert counts.sum() == 2 * samples
        tallied |= any(c * dt != np.cumsum(np.full(c, dt))[-1] for c in counts.tolist())
    assert len(in_session) == len(profiles) == 2 and tallied


def test_serial_campaign_optimises_a_repeated_day_once():
    # with the phase fixed, day 1 repeats day 0 block for block, and the
    # cache keyed by each block's bytes serves all of them
    cfg = short_config(**{"campaign.t_total_s": 1800, "campaign.vary_phase": "false"})
    sent = []
    optimise = simulator.accumulate_links

    def count(blocks, *args, **kwargs):
        blocks = list(blocks)
        sent.append(len(blocks))
        return optimise(blocks, *args, **kwargs)

    with mock.patch.object(simulator, "accumulate_links", count):
        days = run_campaign(cfg).days
    assert sent == [6, 0]
    assert replace(days[1], day_index=0) == days[0]


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


def test_isl_undercutting_a_ground_link_bounds_the_protocol_key(caplog):
    # without atmosphere or turbulence the 500 km uplink beats the 3,557 km
    # ISL chord of N = 12; every end-to-end bit also crosses the ISLs, so
    # each serving satellite's term is at most the ISL reference, and the
    # log says the bound binds
    cfg = load_scenario(overrides=[
        "turbulence.model=none", "optics.atm_loss_db_zenith=0",
        "campaign.t_total_s=600", "campaign.time_step_s=10",
    ])
    day = run_day(cfg, 0)
    isl = day.isl_reference.skl_bits
    assert day.serving_sats and 0 < isl < max(b.skl_bits for b in day.per_link_skl.values())
    assert day.protocol_skl == pytest.approx(len(day.serving_sats) * isl, rel=1e-12)
    (record,) = [r for r in caplog.records if "undercuts" in r.getMessage()]
    assert record.levelname == "WARNING"


def test_campaign_workers_match_serial():
    cfg = short_config()
    serial = run_campaign(cfg)
    parallel = run_campaign(replace(cfg, workers=2))
    assert serial.mean == parallel.mean
    assert serial.std == parallel.std


@pytest.mark.parametrize("workers,n_days,pools", [
    (64, 1, []), (64, 3, [3]), (2, 3, [2]), (64, 5, [4]),
])
def test_campaign_pool_has_at_most_one_worker_a_day(monkeypatch, workers, n_days, pools):
    # the pool forks all of its workers at the first submit, so a larger
    # pool than there are days, or than there are CPUs, only starts
    # processes that wait; the process here may use 4 CPUs
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 4)
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", InProcessPool)
    cfg = replace(short_config(), workers=workers, n_days=n_days, optimizer_evals=1)
    assert len(run_campaign(cfg).days) == n_days
    assert made == pools


def test_usable_cpus_are_at_most_the_host_cpus():
    assert 1 <= simulator._usable_cpus() <= (os.cpu_count() or 1)


def test_sweep_axes():
    cfg = short_config()
    by_n = sweep_configs(cfg, "num_sats", [12, 20])
    assert [c.constellation.num_sats for c in by_n] == [12, 20]
    assert all(isinstance(run_campaign(c), CampaignResult) for c in by_n)
    by_lat = sweep_configs(cfg, "latitude", [0.0, 10.0])
    assert [(c.gs1.latitude_deg, c.gs2.latitude_deg) for c in by_lat] == [(0.0, 0.0), (10.0, 10.0)]
    assert run_campaign(by_lat[1]).mean["protocol_skl"] == 0.0
    with pytest.raises(ValueError):
        sweep_configs(cfg, "altitude", [1])
    with pytest.raises(ValueError):
        sweep_configs(cfg, "num_sats", [])


def test_sweep_latitude_cliff_type2():
    # equatorial ring: positive yield on the equator, reduced at 5 degrees,
    # zero at 10 degrees
    cfg = short_config(**{"constellation.num_sats": 20})
    res = [run_campaign(c) for c in sweep_configs(cfg, "latitude", [0.0, 5.0, 10.0])]
    p0, p5, p10 = (r.mean["protocol_skl"] for r in res)
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


def _no_key_warnings(caplog):
    return [r.getMessage() for r in caplog.records if "no protocol key" in r.getMessage()]


def test_campaign_without_protocol_key_warns_once(caplog):
    # asymmetric mode on a Type-II N=12 hour: every ground link clicks, but
    # both senders use the same intensities and the phase-error bound
    # saturates (measured on this config: 20 links, 3.5e5 raw bits, 0 key)
    over = {
        "constellation.kind": "type2", "channel.effective_mode": "asymmetric",
        "campaign.t_total_s": 3600, "campaign.seed": 4, "campaign.optimizer_evals": 40,
    }
    cfg = short_config(**over)
    with caplog.at_level(logging.WARNING, logger="ringqkd.simulator"):
        result = run_campaign(cfg)
    assert result.mean["protocol_skl"] == 0.0 and result.mean["raw_bits"] > 0.0
    assert _no_key_warnings(caplog) == [
        "2 day(s) of raw key yield no protocol key: phase-error bound saturated"
        " (e1ph_upper = 0.5) on 40 of 40 ground links"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ringqkd.simulator"):
        result = run_campaign(replace(cfg, effective_mode="max"))
    assert result.mean["protocol_skl"] > 0.0
    assert _no_key_warnings(caplog) == []
