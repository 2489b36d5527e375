"""Daily key-yield campaigns over the satellite ring.

One simulated day: take each ground station's serving satellite, its
zenith angle and the visibility sessions on the day's sample grid from
geometry (``serving_state``, ``extract_sessions``), which evaluate only the
few satellites that can serve each sample; along each session, sample the
uplink and the serving satellite's two inter-satellite chords, propagating
only those three satellites; form the effective twin-field link per
sample, pool every sample of the same (ground station, partner satellite)
link into one finite-key block, optimise the protocol parameters per link,
and aggregate

    SKL_protocol = sum over serving satellites i of
                   min{ SKL(GS1, i +/- 1), SKL(GS2, k +/- 1) },   k = i + N/2,

the minimum reflecting that one end-to-end bit consumes a bit of each of
the four ground-side link keys.  Campaigns repeat the day with the initial
orbital phase stepped through a golden-ratio low-discrepancy sequence and
report per-day means and standard deviations.

Inter-satellite twin-field links run continuously at lower loss than any
ground link; a reference ISL block is evaluated each day and a
ConsistencyError is raised if it ever undercuts the ground links it feeds.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    _candidates,
    extract_sessions,
    positions_eci_km,
    serving_state,
    visibility_fraction,
)
# run_day places the stations through geometry.serving_state, extracts
# sessions through geometry.extract_sessions, which bisects their edges
# itself, and only geometry.find_sessions polishes; these four names stay in
# this namespace, unused, because the benchmark's per-layer trace
# (perfbench/tracing.py) hooks them here and its tests expect every hooked
# name to exist.
from .geometry import gs_position_km  # noqa: F401
from .geometry import _refine_boundaries as _refine_boundary  # noqa: F401
from .geometry import _refine_min_zenith  # noqa: F401
from .geometry import extract_sessions as _sessions_from_state  # noqa: F401
from .keyrate import SklBreakdown, accumulate_links, symmetric_arms
# run_day optimises all of a day's links in one accumulate_links call; the
# single-link accumulate_link stays in this namespace because the benchmark's
# per-layer trace (perfbench/tracing.py) hooks it here.
from .keyrate import accumulate_link  # noqa: F401
from .linkbudget import isl_efficiency, to_db, uplink_efficiency
from .scenario import ScenarioConfig

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0

log = logging.getLogger(__name__)


class ConsistencyError(RuntimeError):
    """An inter-satellite link produced less key than the ground links."""


@dataclass
class DailyReport:
    day_index: int
    phase0_deg: float
    per_link_skl: dict
    per_link_params: dict
    serving_sats: tuple
    rho_vis: dict
    protocol_skl: float
    per_sat_gs_skl: float  # average min-term per serving satellite
    mean_link_skl: float
    raw_bits: float
    block_size: float
    isl_reference: SklBreakdown

    def scalars(self) -> dict:
        return {
            "protocol_skl": self.protocol_skl,
            "per_sat_gs_skl": self.per_sat_gs_skl,
            "mean_link_skl": self.mean_link_skl,
            "raw_bits": self.raw_bits,
            "block_size": self.block_size,
            "rho_vis_gs1": self.rho_vis.get(1, 0.0),
            "rho_vis_gs2": self.rho_vis.get(2, 0.0),
        }


@dataclass
class CampaignResult:
    days: list
    mean: dict
    std: dict


def day_phase_deg(config: ScenarioConfig, day_index: int) -> float:
    """Initial orbital phase of one simulated day (low-discrepancy steps)."""
    if not config.vary_phase:
        return config.constellation.phase0_deg
    frac = math.modf((config.seed + day_index) * GOLDEN_FRACTION)[0]
    return (config.constellation.phase0_deg + 360.0 * frac) % 360.0


def _effective_bins(config, ul_eff, isl_eff):
    """Per-sample effective link -> {bin key: seconds}; key encodes the mode."""
    dt = config.time_step_s
    out = {}
    if config.effective_mode == "max":
        eff = np.maximum(ul_eff, isl_eff)
        keys = np.round(to_db(eff), 2)
        for k in keys:
            out[float(k)] = out.get(float(k), 0.0) + dt
    else:
        ku = np.round(to_db(ul_eff), 2)
        ki = np.round(to_db(isl_eff), 2)
        for a, b in zip(ku, ki):
            key = (float(a), float(b))
            out[key] = out.get(key, 0.0) + dt
    return out


def _bins_to_profile(config, bins: dict):
    """Bin dict -> deterministic accumulate_link profile [((eta_a, eta_b), pulses), ...]."""
    f_rep = config.channel.rep_rate_hz
    profile = []
    for key in sorted(bins):
        if config.effective_mode == "max":
            arms = symmetric_arms(10.0 ** (-key / 10.0))
        else:
            arms = (10.0 ** (-key[0] / 10.0), 10.0 ** (-key[1] / 10.0))
        profile.append((arms, bins[key] * f_rep))
    return profile


def run_day(config: ScenarioConfig, day_index: int, _cache: dict | None = None) -> DailyReport:
    """Simulate one 24-hour key-exchange cycle."""
    spec = replace(config.constellation, phase0_deg=day_phase_deg(config, day_index))
    n = spec.num_sats
    dt = config.time_step_s
    t_total = config.t_total_s
    steps = int(math.floor(t_total / dt))
    times = spec.epoch_s + dt * np.arange(steps + 1)
    if times[-1] < spec.epoch_s + t_total:
        times = np.append(times, spec.epoch_s + t_total)

    link_session_bins: dict = {}  # (gs_id, partner) -> [per-session bin dict]
    rho = {}
    serving_time: dict[int, float] = {}
    for gs in (config.gs1, config.gs2):
        t_zenith = time.perf_counter()
        state, zmin = serving_state(spec, gs, times, config.theta_max_deg)
        t_zenith = time.perf_counter() - t_zenith
        sessions, sample_ranges = extract_sessions(
            spec, gs, times, dt, state, zmin, config.theta_max_deg
        )
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "day %d station %d: %d samples, %d on full rows; %d sessions; zenith %.3f s",
                day_index, gs.id, times.size, _candidates(spec, gs, times)[1].size,
                len(sessions), t_zenith,
            )
        rho[gs.id] = visibility_fraction(sessions, t_total)
        for session, (i0, i1) in zip(sessions, sample_ranges):
            sat = session.serving_sat
            if gs.id == 1:
                serving_time[sat] = serving_time.get(sat, 0.0) + session.duration_s
            # zmin is the serving satellite's zenith angle inside a session
            zen = np.radians(np.clip(zmin[i0:i1], 0.0, config.theta_max_deg))
            ul = uplink_efficiency(
                zen, config.optics, config.turbulence,
                altitude_km=spec.altitude_km, theta_max_deg=config.theta_max_deg,
            )
            pos = positions_eci_km(spec, times[i0:i1], [sat - 1, sat, sat + 1])
            for side in (-1, 1):
                partner = (sat + side) % n
                chord_m = np.linalg.norm(pos[:, 1] - pos[:, 1 + side], axis=-1) * 1e3
                isl = isl_efficiency(
                    np.maximum(chord_m, 1.0), config.optics,
                    include_pointing=config.isl_pointing_in_effective,
                )
                bins = _effective_bins(config, np.atleast_1d(ul), np.atleast_1d(isl))
                link_session_bins.setdefault((gs.id, partner), []).append(bins)

    # Every link's profile(s) of the day, then one lockstep optimisation of
    # all profiles not yet cached, the ISL reference block included.  Each
    # link's bin dicts are dropped once its profiles are made, so that they
    # do not add to the optimiser's memory.
    link_profiles: dict = {}
    for link in sorted(link_session_bins):
        session_bins = link_session_bins.pop(link)
        if config.pooling == "daily":
            merged: dict = {}
            for bins in session_bins:
                for key, seconds in bins.items():
                    merged[key] = merged.get(key, 0.0) + seconds
            link_profiles[link] = [_bins_to_profile(config, merged)]
        else:  # per-session blocks, summed afterwards
            link_profiles[link] = [_bins_to_profile(config, bins) for bins in session_bins]
    isl_profile = _isl_reference(config, spec, times)
    isl_sig = ("isl-ref", tuple(isl_profile))
    wanted = {tuple(pr): pr for prs in link_profiles.values() for pr in prs}
    wanted[isl_sig] = isl_profile

    cache = _cache if _cache is not None else {}
    pending = {sig: pr for sig, pr in wanted.items() if sig not in cache}
    results = accumulate_links(
        pending.values(),
        config.channel,
        config.eps,
        n_starts=config.optimizer_starts,
        max_evals=config.optimizer_evals,
    )
    cache.update(zip(pending, results))

    per_link_skl: dict = {}
    per_link_params: dict = {}
    for link, profiles in link_profiles.items():
        parts = [cache[tuple(pr)] for pr in profiles]
        if config.pooling == "daily":
            params, breakdown = parts[0]
        else:
            params = max(parts, key=lambda pb: pb[1].n_pulses)[0]
            breakdown = SklBreakdown(
                n_pulses=sum(p[1].n_pulses for p in parts),
                n_raw=sum(p[1].n_raw for p in parts),
                qber_z=max(p[1].qber_z for p in parts),
                n1_lower=sum(p[1].n1_lower for p in parts),
                e1ph_upper=max(p[1].e1ph_upper for p in parts),
                lambda_ec=sum(p[1].lambda_ec for p in parts),
                skl_bits=sum(p[1].skl_bits for p in parts),
            )
        per_link_skl[link] = breakdown
        per_link_params[link] = params

    serving = tuple(sorted(serving_time))
    protocol = 0.0
    for i in serving:
        k = (i + n // 2) % n
        links = [
            (1, (i - 1) % n), (1, (i + 1) % n),
            (2, (k - 1) % n), (2, (k + 1) % n),
        ]
        vals = [per_link_skl[l].skl_bits if l in per_link_skl else 0.0 for l in links]
        protocol += min(vals)

    gs_links = [b for b in per_link_skl.values() if b.n_pulses > 0]
    mean_link = float(np.mean([b.skl_bits for b in gs_links])) if gs_links else 0.0
    per_sat = float(protocol / len(serving)) if serving else 0.0
    raw_bits = float(sum(b.n_raw for b in per_link_skl.values()))
    block = float(sum(b.n_pulses for b in per_link_skl.values()))

    isl_ref = cache[isl_sig][1]
    best_gs = max((b.skl_bits for b in per_link_skl.values()), default=0.0)
    if isl_ref.skl_bits < best_gs:
        raise ConsistencyError(
            f"inter-satellite reference link ({isl_ref.skl_bits:.3g} bits/day)"
            f" undercuts the strongest ground link ({best_gs:.3g} bits/day)"
        )

    return DailyReport(
        day_index=day_index,
        phase0_deg=spec.phase0_deg,
        per_link_skl=per_link_skl,
        per_link_params=per_link_params,
        serving_sats=serving,
        rho_vis=rho,
        protocol_skl=float(protocol),
        per_sat_gs_skl=per_sat,
        mean_link_skl=mean_link,
        raw_bits=raw_bits,
        block_size=block,
        isl_reference=isl_ref,
    )


def _isl_reference(config: ScenarioConfig, spec, times) -> list:
    """Profile of the daily block of one adjacent inter-satellite twin-field link.

    Uses the widest adjacent chord of the day (the worst instantaneous ISL
    loss), a full-day block, and the same effective-link rule with both
    arms on inter-satellite chords.
    """
    pos = positions_eci_km(spec, times, [0, 1])
    chord_m = float(np.max(np.linalg.norm(pos[:, 0, :] - pos[:, 1, :], axis=-1))) * 1e3
    eff = isl_efficiency(
        max(chord_m, 1.0), config.optics,
        include_pointing=config.isl_pointing_in_effective,
    )
    arms = symmetric_arms(eff) if config.effective_mode == "max" else (eff, eff)
    return [(arms, config.t_total_s * config.channel.rep_rate_hz)]


def run_campaign(config: ScenarioConfig) -> CampaignResult:
    """Simulate ``n_days`` independent days and aggregate their statistics."""
    cache: dict = {}
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            days = list(pool.map(_run_day_job, [(config, d) for d in range(config.n_days)]))
    else:
        days = [run_day(config, d, cache) for d in range(config.n_days)]
    keys = days[0].scalars()
    mean = {}
    std = {}
    for key in keys:
        vals = np.array([d.scalars()[key] for d in days])
        mean[key] = float(np.mean(vals))
        std[key] = float(np.std(vals))
    return CampaignResult(days=days, mean=mean, std=std)


def _run_day_job(args):
    config, day = args
    return run_day(config, day)


def sweep(config: ScenarioConfig, axis: str, values) -> list:
    """One campaign per value of ``num_sats`` or ``latitude``; every swept
    config is built, and so validated, before the first campaign runs."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = []
    for v in values:
        if axis == "num_sats":
            spec = replace(config.constellation, num_sats=int(v))
            configs.append(replace(config, constellation=spec))
        elif axis == "latitude":
            gs1 = replace(config.gs1, latitude_deg=float(v))
            gs2 = replace(config.gs2, latitude_deg=float(v))
            configs.append(replace(config, gs1=gs1, gs2=gs2))
        else:
            raise ValueError(f"unknown sweep axis: {axis}")
    return [(v, run_campaign(cfg)) for v, cfg in zip(values, configs)]
