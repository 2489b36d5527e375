"""Daily key-yield campaigns over the satellite ring.

One simulated day: take each ground station's serving satellite, its
zenith angle and the visibility sessions on the day's sample grid from
geometry (``serving_state``, ``extract_sessions``), which evaluate only the
few satellites that can serve each sample; take each station's in-session
samples in fixed chunks of a few thousand, and for all of a chunk's
samples at once budget the uplink and the serving satellite's two
inter-satellite chords, propagating only those three satellites per
sample; form the effective twin-field link per sample and count the
samples of each (session, partner, loss bin); pool the counts of the same
(ground station, partner satellite) link into one finite-key block, whose
pulses are each bin's sample count times dt times the repetition rate,
arrays of arm efficiencies (B, 2) and pulse counts (B,) from binning to
scoring, optimise the protocol parameters per link, and aggregate

    SKL_protocol = sum over serving satellites i of
                   min{ SKL(GS1, i +/- 1), SKL(GS2, k +/- 1) },   k = i + N/2,

the minimum reflecting that one end-to-end bit consumes a bit of each of
the four ground-side link keys.  Campaigns repeat the day with the initial
orbital phase stepped through a golden-ratio low-discrepancy sequence and
report per-day means and standard deviations; a serial campaign reuses
the optimisation of a block an earlier day had, keyed by its arrays' bytes.

Each end-to-end bit also crosses the all-day inter-satellite twin-field
links, so a reference ISL block, evaluated each day, bounds every term of
the sum; a day on which it undercuts a ground link logs a warning (a
lossless, turbulence-free uplink can beat the longer ISL chord).
"""

from __future__ import annotations

import logging
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    CHUNK_SAMPLES,
    _tied_rows,
    chord_lengths_km,
    extract_sessions,
    serving_state,
    visibility_fraction,
)
# run_day places the stations through geometry.serving_state, extracts
# sessions through geometry.extract_sessions, which bisects their edges
# itself, takes its chords from geometry.chord_lengths_km, and only
# geometry.find_sessions polishes; these five names stay in this namespace,
# unused, because the benchmark's per-layer trace (perfbench/tracing.py)
# hooks them here and its tests expect every hooked name to exist.
from .geometry import gs_position_km  # noqa: F401
from .geometry import positions_eci_km  # noqa: F401
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


@dataclass
class DailyReport:
    day_index: int
    phase0_deg: float
    per_link_skl: dict
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


# A station's in-session samples are budgeted and binned, and the ISL
# reference chord taken, in chunks of geometry's size, which may split a
# session (whole-station arrays raised the peak resident memory of a
# Type-II N=36 day from 121 to 133 MB).
_GROUP_SAMPLES = CHUNK_SAMPLES

# the serving satellite's two partners, as offsets along the ring
_SIDES = (-1, 1)


def _run_starts(*cols) -> np.ndarray:
    """Where each run of equal rows of the sorted columns ``cols`` starts."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


def _effective_bins(config, session, ul_eff, isl_eff) -> np.ndarray:
    """Per-sample effective links -> one row per bin: (session, side, key, samples).

    ``session`` labels each sample, ``ul_eff`` is its uplink efficiency and
    ``isl_eff`` holds one row of ISL efficiencies per side.  The key encodes
    the mode: the better arm's loss in dB to 0.01 (``max``), or two columns,
    (uplink dB, ISL dB).  Rows come in (session, side, key) order, and a
    bin's last column counts its samples.
    """
    isl_eff = np.atleast_2d(isl_eff)
    sides, m = isl_eff.shape
    cols = [np.tile(session, sides), np.repeat(np.arange(sides), m)]
    if config.effective_mode == "max":
        cols.append(np.round(to_db(np.maximum(ul_eff, isl_eff)), 2).ravel())
    else:
        cols.append(np.tile(np.round(to_db(ul_eff), 2), sides))
        cols.append(np.round(to_db(isl_eff), 2).ravel())
    rows = np.column_stack(cols)
    rows = rows[np.lexsort(rows.T[::-1])]
    first = _run_starts(*rows.T)
    return np.column_stack([rows[first], np.diff(np.append(first, len(rows)))])


def _station_profiles(config, gs_id: int, sats, bins) -> dict:
    """One station's bin rows, of any number of chunks -> {(gs_id, partner): [block, ...]}.

    ``sats`` is each session's serving satellite.  Rows of the same link and
    key add their samples; a link is a partner (daily pooling) or a
    (partner, session) pair (session pooling: a block a session, in the
    order of the day).  A block's keys are unique and ascending,
    lexicographic in (uplink, ISL) dB, and a bin's seconds are its samples
    times dt.  Each block is a slice of the station's ``_bins_to_profile`` arrays.
    """
    session = bins[:, 0].astype(np.intp)
    side = np.take(_SIDES, bins[:, 1].astype(np.intp))
    partner = (np.take(sats, session) + side) % config.constellation.num_sats
    link = (partner, session) if config.pooling == "session" else (partner,)
    keys = bins[:, 2:-1].T
    order = np.lexsort((*keys[::-1], *link[::-1]))
    link, keys = [c[order] for c in link], keys[:, order]
    first = _run_starts(*link, *keys)
    samples = np.add.reduceat(bins[order, -1], first)
    link, keys = [c[first] for c in link], keys[:, first]
    arms, pulses = _bins_to_profile(config, keys, samples * config.time_step_s)
    starts = _run_starts(*link)
    blocks: dict = {}
    for b0, b1 in zip(starts.tolist(), [*starts[1:].tolist(), len(samples)]):
        blocks.setdefault((gs_id, int(link[0][b0])), []).append((arms[b0:b1], pulses[b0:b1]))
    return blocks


def _bins_to_profile(config, keys: np.ndarray, seconds: np.ndarray) -> tuple:
    """Bin keys, (1 or 2, B) in dB, and seconds -> arms (B, 2) and pulse counts (B,).

    Each efficiency is Python's ``10.0 ** (-key / 10.0)``, one key at a
    time: numpy's power need not match libm.
    """
    eff = np.reshape([10.0 ** (-key / 10.0) for key in keys.ravel().tolist()], keys.shape)
    arms = symmetric_arms(eff[0]) if config.effective_mode == "max" else eff.T
    return arms, seconds * config.channel.rep_rate_hz


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

    # (gs_id, partner) -> the link's blocks: one daily block, or one per session
    link_blocks: dict = {}
    rho = {}
    serving_sats: set[int] = set()
    for gs in (config.gs1, config.gs2):
        t_zenith = time.perf_counter()
        state, zmin = serving_state(spec, gs, times, config.theta_max_deg)
        t_zenith = time.perf_counter() - t_zenith
        sessions, sample_ranges = extract_sessions(
            spec, gs, times, dt, state, zmin, config.theta_max_deg
        )
        sats = [session.serving_sat for session in sessions]
        # every in-session sample's index on the day's grid, and its session
        starts, stops = np.array(sample_ranges, dtype=np.intp).reshape(-1, 2).T
        lengths = stops - starts
        sample = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        session_of = np.repeat(np.arange(len(sessions)), lengths)
        chunks = range(0, sample.size, _GROUP_SAMPLES)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "day %d station %d: %d samples, %d on full rows; %d sessions of %d"
                " samples in %d chunks; zenith %.3f s",
                day_index, gs.id, times.size, _tied_rows(spec, gs, times).size,
                len(sessions), sample.size, len(chunks), t_zenith,
            )
        rho[gs.id] = visibility_fraction(sessions, t_total)
        if gs.id == 1:
            serving_sats.update(sats)
        bins = []
        for c in chunks:
            idx, session = sample[c:c + _GROUP_SAMPLES], session_of[c:c + _GROUP_SAMPLES]
            # zmin is the serving satellite's zenith angle inside a session
            zen = np.radians(np.clip(zmin[idx], 0.0, config.theta_max_deg))
            ul = uplink_efficiency(
                zen, config.optics, config.turbulence,
                altitude_km=spec.altitude_km, theta_max_deg=config.theta_max_deg,
            )
            chords = chord_lengths_km(spec, times[idx], np.take(sats, session), _SIDES)
            isl = [
                isl_efficiency(
                    np.maximum(chord * 1e3, 1.0), config.optics,
                    include_pointing=config.isl_pointing_in_effective,
                )
                for chord in chords
            ]
            bins.append(_effective_bins(config, session, ul, isl))
        if bins:
            link_blocks.update(_station_profiles(config, gs.id, sats, np.concatenate(bins)))
        # drop the rows before the next station's serving state and the
        # optimiser, which set the day's peak memory
        del bins

    # One lockstep optimisation of all blocks not yet cached, the ISL
    # reference block included; a block's cache key is its arrays' bytes.
    wanted = {
        (arms.tobytes(), pulses.tobytes()): (arms, pulses)
        for blocks in link_blocks.values() for arms, pulses in blocks
    }
    isl_block = _isl_reference(config, spec, times)
    isl_key = ("isl-ref", *(a.tobytes() for a in isl_block))
    wanted[isl_key] = isl_block

    cache = _cache if _cache is not None else {}
    pending = {key: block for key, block in wanted.items() if key not in cache}
    results = accumulate_links(
        pending.values(),
        config.channel,
        config.eps,
        n_starts=config.optimizer_starts,
        max_evals=config.optimizer_evals,
    )
    cache.update(zip(pending, (breakdown for _, breakdown in results)))

    # A link's blocks add up field-wise, with the worst error rates; a daily
    # link's one block comes out unchanged (0 + x == x for these counts).
    per_link_skl: dict = {}
    for link, blocks in link_blocks.items():
        parts = [cache[arms.tobytes(), pulses.tobytes()] for arms, pulses in blocks]
        per_link_skl[link] = SklBreakdown(
            n_pulses=sum(p.n_pulses for p in parts),
            n_raw=sum(p.n_raw for p in parts),
            qber_z=max(p.qber_z for p in parts),
            n1_lower=sum(p.n1_lower for p in parts),
            e1ph_upper=max(p.e1ph_upper for p in parts),
            lambda_ec=sum(p.lambda_ec for p in parts),
            skl_bits=sum(p.skl_bits for p in parts),
        )

    isl_ref = cache[isl_key]
    serving = tuple(sorted(serving_sats))
    protocol = 0.0
    for i in serving:
        k = (i + n // 2) % n
        links = [
            (1, (i - 1) % n), (1, (i + 1) % n),
            (2, (k - 1) % n), (2, (k + 1) % n),
        ]
        vals = [per_link_skl[l].skl_bits if l in per_link_skl else 0.0 for l in links]
        protocol += min(*vals, isl_ref.skl_bits)

    gs_links = [b for b in per_link_skl.values() if b.n_pulses > 0]
    mean_link = float(np.mean([b.skl_bits for b in gs_links])) if gs_links else 0.0
    per_sat = float(protocol / len(serving)) if serving else 0.0
    raw_bits = float(sum(b.n_raw for b in per_link_skl.values()))
    block = float(sum(b.n_pulses for b in per_link_skl.values()))

    best_gs = max((b.skl_bits for b in per_link_skl.values()), default=0.0)
    if isl_ref.skl_bits < best_gs:
        log.warning(
            "day %d: inter-satellite reference link (%.3g bits/day) undercuts the"
            " strongest ground link (%.3g bits/day) and bounds the protocol key",
            day_index, isl_ref.skl_bits, best_gs,
        )

    return DailyReport(
        day_index=day_index,
        phase0_deg=spec.phase0_deg,
        per_link_skl=per_link_skl,
        serving_sats=serving,
        rho_vis=rho,
        protocol_skl=float(protocol),
        per_sat_gs_skl=per_sat,
        mean_link_skl=mean_link,
        raw_bits=raw_bits,
        block_size=block,
        isl_reference=isl_ref,
    )


def _isl_reference(config: ScenarioConfig, spec, times) -> tuple:
    """Block of one bin, (arms (1, 2), pulses (1,)): the day of one adjacent ISL twin-field link.

    Uses the widest adjacent chord of the day (the worst instantaneous ISL
    loss; a max, so taken a chunk of the grid at a time), a full-day block,
    and the same effective-link rule with both arms on inter-satellite chords.
    """
    chord_m = max(
        float(np.max(chord_lengths_km(spec, times[c:c + _GROUP_SAMPLES], 0, (1,))[0]))
        for c in range(0, times.size, _GROUP_SAMPLES)
    ) * 1e3
    eff = isl_efficiency(
        max(chord_m, 1.0), config.optics,
        include_pointing=config.isl_pointing_in_effective,
    )
    arms = symmetric_arms([eff]) if config.effective_mode == "max" else np.full((1, 2), eff)
    return arms, np.full(1, config.t_total_s * config.channel.rep_rate_hz)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def run_campaign(config: ScenarioConfig) -> CampaignResult:
    """Simulate ``n_days`` independent days and aggregate their statistics.

    Days run in a pool of at most one worker a day and one a usable CPU
    (the pool forks all of its workers at the first submit), or serially
    when that is one worker.  The outputs do not depend on the pool's size.
    """
    cache: dict = {}
    workers = min(config.workers, config.n_days, _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            days = list(pool.map(_run_day_job, [(config, d) for d in range(config.n_days)]))
    else:
        days = [run_day(config, d, cache) for d in range(config.n_days)]
    if all(d.protocol_skl == 0.0 for d in days) and any(d.raw_bits > 0.0 for d in days):
        _warn_no_key(days)
    keys = days[0].scalars()
    mean = {}
    std = {}
    for key in keys:
        vals = np.array([d.scalars()[key] for d in days])
        mean[key] = float(np.mean(vals))
        std[key] = float(np.std(vals))
    return CampaignResult(days=days, mean=mean, std=std)


def _zero_term(b: SklBreakdown) -> str:
    """The ledger term that zeroes the key of a block that has clicks."""
    if b.e1ph_upper >= 0.5:
        return "phase-error bound saturated (e1ph_upper = 0.5)"
    if b.n1_lower <= 0.0:
        return "no untagged single-photon bits (n1_lower = 0)"
    return "error correction and finite-size terms exceed n1_lower (1 - h(e1ph_upper))"


def _warn_no_key(days: list) -> None:
    """One warning for a campaign whose raw key yields no protocol key, naming
    the ledger term that zeroed most of its clicking ground links."""
    links = [b for d in days for b in d.per_link_skl.values() if b.n_raw > 0.0]
    zeroed = Counter(_zero_term(b) for b in links if b.skl_bits == 0.0)
    if zeroed:
        term, count = zeroed.most_common(1)[0]
        cause = f"{term} on {count} of {len(links)} ground links"
    else:  # every clicking link has key: the ISL reference or a missing partner zeroes each term
        cause = "the inter-satellite reference or a missing partner link"
    log.warning("%d day(s) of raw key yield no protocol key: %s", len(days), cause)


def _run_day_job(args):
    config, day = args
    return run_day(config, day)


def sweep_configs(config: ScenarioConfig, axis: str, values) -> list:
    """One config per value of ``num_sats`` or ``latitude``, each built, and
    so validated, here."""
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = []
    for v in values:
        if axis == "num_sats":
            spec = replace(config.constellation, num_sats=int(v))
            configs.append(replace(config, constellation=spec))
        elif axis == "latitude":
            configs.append(replace(config, gs1=replace(config.gs1, latitude_deg=float(v))))
        else:
            raise ValueError(f"unknown sweep axis: {axis}")
    return configs
