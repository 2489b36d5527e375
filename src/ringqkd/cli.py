"""Command-line front end.

Subcommands: simulate, sweep, linkbudget, keyrate, security, validate.
Every run writes a manifest of the fully resolved scenario (defaults +
file + overrides) next to its outputs, and reruns with the same inputs
produce byte-identical files.  Exit codes: 0 success, 2 validation
failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .constants import EARTH_RADIUS_KM
from .geometry import min_ring_size
from .keyrate import ChannelModel, optimize_sns
from .linkbudget import (
    isl_efficiency,
    slant_path_km,
    to_db,
    uplink_efficiency,
)
from .relay import (
    CompromiseScenario,
    adversary_can_recover,
    build_paths,
    feasible_neighbor_range,
    min_compromise,
)
from .scenario import ScenarioConfig, load_scenario, manifest
from .simulator import run_campaign, sweep as run_sweep

_FLOAT_FMT = ".17g"

log = logging.getLogger(__name__)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, _FLOAT_FMT)
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_dir(args) -> Path:
    base = args.output_dir or os.environ.get("RINGQKD_OUTPUT_DIR", "ringqkd_out")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> ScenarioConfig:
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"campaign.seed={args.seed}")
    if getattr(args, "days", None) is not None:
        overrides.append(f"campaign.n_days={args.days}")
    if getattr(args, "workers", None) is not None:
        overrides.append(f"campaign.workers={args.workers}")
    return load_scenario(getattr(args, "scenario", None), overrides)


def _note_attachment_pair(n: int) -> None:
    """Security note for rings whose antipodal attachments are an odd distance apart."""
    if n % 4 == 2:
        log.warning(
            "num_sats=%d puts the antipodal attachment satellites %d apart on both"
            " segments; at the relay's default neighbour range r = 2 the attachment"
            " pair alone recovers the ring secret",
            n, n // 2,
        )


def _write_manifest(config: ScenarioConfig, outdir: Path) -> None:
    with open(outdir / "manifest.ini", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(manifest(config))


def _campaign_payload(result) -> dict:
    return {
        "n_days": len(result.days),
        "mean": result.mean,
        "std": result.std,
        "serving_sats_per_day": [list(d.serving_sats) for d in result.days],
        "isl_reference_skl": [d.isl_reference.skl_bits for d in result.days],
    }


def cmd_simulate(args) -> int:
    config = _load(args)
    _note_attachment_pair(config.constellation.num_sats)
    outdir = _output_dir(args)
    _write_manifest(config, outdir)
    result = run_campaign(config)
    rows = []
    for day in result.days:
        for metric, value in day.scalars().items():
            rows.append((day.day_index, metric, value))
    _write_csv(outdir / "report.csv", ["day", "metric", "value"], rows)
    link_rows = []
    for day in result.days:
        for (gs, sat), b in sorted(day.per_link_skl.items()):
            link_rows.append(
                (day.day_index, gs, sat, b.skl_bits, b.n_raw, b.n_pulses, b.qber_z, b.e1ph_upper)
            )
    _write_csv(
        outdir / "links.csv",
        ["day", "gs", "sat", "skl_bits", "n_raw", "n_pulses", "qber_z", "e1ph"],
        link_rows,
    )
    _write_json(outdir / "summary.json", _campaign_payload(result))
    print(
        f"simulated {len(result.days)} day(s): protocol"
        f" {result.mean['protocol_skl']:.6g} +/- {result.std['protocol_skl']:.3g} bits/day"
    )
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    outdir = _output_dir(args)
    _write_manifest(config, outdir)
    values = [float(v) for v in args.values.split(",") if v]
    axis = {"ns": "num_sats", "latitude": "latitude"}[args.axis]
    if axis == "num_sats":
        values = [int(v) for v in values]
    for n in values if axis == "num_sats" else [config.constellation.num_sats]:
        _note_attachment_pair(n)
    results = run_sweep(config, axis, values)
    curves = outdir / "curves"
    curves.mkdir(exist_ok=True)
    metrics = results[0][1].mean.keys()
    for metric in metrics:
        rows = [(v, res.mean[metric], res.std[metric]) for v, res in results]
        _write_csv(curves / f"{metric}.csv", [args.axis, "mean", "std"], rows)
    _write_json(
        outdir / "summary.json",
        {str(v): _campaign_payload(res) for v, res in results},
    )
    for v, res in results:
        print(f"{args.axis}={v}: protocol {res.mean['protocol_skl']:.6g} bits/day")
    return 0


def _zenith_pass_rows(config: ScenarioConfig, dt: float):
    """Synthetic zenith pass: polar satellite directly overhead at t = 0."""
    h = config.constellation.altitude_km
    w = config.constellation.mean_motion_rad_s
    theta_max = math.radians(config.theta_max_deg)
    # central angle at which the zenith angle reaches the cutoff
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + h)
    lo, hi = 0.0, math.pi / 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        zen = math.atan2(math.sin(mid), math.cos(mid) - ratio)
        if zen < theta_max:
            lo = mid
        else:
            hi = mid
    gamma_max = 0.5 * (lo + hi)
    t_half = gamma_max / w
    times = np.arange(-math.floor(t_half / dt) * dt, t_half + dt / 2, dt)
    rows = []
    for t in times:
        gamma = abs(t) * w
        zen = min(math.atan2(math.sin(gamma), math.cos(gamma) - ratio), theta_max)
        eta = uplink_efficiency(
            zen, config.optics, config.turbulence, altitude_km=h,
            theta_max_deg=config.theta_max_deg,
        )
        rows.append((t, math.degrees(zen), float(slant_path_km(zen, h)), float(to_db(eta))))
    return rows


def cmd_linkbudget(args) -> int:
    if not (args.uplink_pass or args.isl):
        raise ValueError("linkbudget needs --uplink-pass and/or --isl")
    config = _load(args)
    outdir = _output_dir(args)
    _write_manifest(config, outdir)
    if args.uplink_pass:
        rows = _zenith_pass_rows(config, args.dt)
        _write_csv(outdir / "uplink_pass.csv", ["time_s", "zenith_deg", "path_km", "loss_db"], rows)
        losses = [r[3] for r in rows]
        print(
            f"zenith pass: {len(rows)} samples, loss {min(losses):.2f}"
            f" to {max(losses):.2f} dB"
        )
    if args.isl:
        radius = EARTH_RADIUS_KM + config.constellation.altitude_km
        rows = []
        for n in range(args.isl_min_sats, args.isl_max_sats + 1):
            chord_km = 2.0 * radius * math.sin(math.pi / n)
            full = to_db(isl_efficiency(chord_km * 1e3, config.optics))
            bare = to_db(isl_efficiency(chord_km * 1e3, config.optics, include_pointing=False))
            rows.append((n, chord_km, float(full), float(bare)))
        _write_csv(
            outdir / "isl_loss.csv",
            ["num_sats", "chord_km", "loss_db", "loss_db_no_pointing"],
            rows,
        )
        print(f"isl losses for {len(rows)} ring sizes written")
    return 0


def cmd_keyrate(args) -> int:
    config = _load(args)
    outdir = _output_dir(args)
    _write_manifest(config, outdir)
    channel = replace(config.channel, efficiency=10.0 ** (-args.loss_db / 10.0))
    params, out = optimize_sns(
        channel,
        args.duration_s,
        config.eps,
        n_starts=config.optimizer_starts,
        max_evals=config.optimizer_evals,
    )
    header = [
        "loss_db", "duration_s", "skl_bits", "n1", "e1ph", "qber_z", "lambda_ec",
        "n_pulses", "mu_z", "mu1", "mu2", "p_send", "p_z", "p0", "p1", "delta",
    ]
    row = (
        args.loss_db, args.duration_s, out.skl_bits, out.n1_lower, out.e1ph_upper,
        out.qber_z, out.lambda_ec, out.n_pulses, params.mu_z, params.mu1,
        params.mu2, params.p_send, params.p_z, params.p0, params.p1, params.delta,
    )
    _write_csv(outdir / "keyrate.csv", header, [row])
    print(f"loss {args.loss_db} dB, {args.duration_s} s -> SKL {out.skl_bits:.6g} bits")
    return 0


def _security_args_from_file(args) -> None:
    """Fill attachment/compromise settings from a [security_scenario] file."""
    import configparser

    parser = configparser.ConfigParser()
    with open(args.file, "r", encoding="utf-8") as fh:
        parser.read_file(fh, source=args.file)
    if not parser.has_section("security_scenario"):
        raise ValueError("security scenario file needs a [security_scenario] section")
    sec = parser["security_scenario"]
    known = {"n_sats", "i", "k", "r", "n_rings", "compromised"}
    unknown = set(sec.keys()) - known
    if unknown:
        raise ValueError(f"unknown security scenario keys: {sorted(unknown)}")
    args.ns = sec.getint("n_sats", args.ns)
    args.i = sec.getint("i", args.i)
    args.k = sec.getint("k", args.k)
    args.r = sec.getint("r", args.r)
    args.rings = sec.getint("n_rings", args.rings)
    args.compromised = sec.get("compromised", args.compromised)


def cmd_security(args) -> int:
    outdir = _output_dir(args)
    if args.file:
        _security_args_from_file(args)
    if args.ns is None or args.i is None or args.k is None:
        raise ValueError("security needs --ns/--i/--k or a scenario --file")
    path = build_paths(args.ns, args.i, args.k, r=args.r, n_rings=args.rings)
    compromised = frozenset(int(s) for s in args.compromised.split(",") if s != "")
    ok, witness = adversary_can_recover(path, CompromiseScenario(compromised))
    payload = {
        "n_sats": args.ns,
        "attach_a": args.i,
        "attach_b": args.k,
        "neighbor_range": args.r,
        "n_rings": args.rings,
        "compromised": sorted(compromised),
        "recoverable": ok,
        "witness": [str(w) for w in witness],
    }
    if args.min_compromise:
        res = min_compromise(path, allow_attachments=not args.exclude_attachments)
        payload["min_compromise"] = res.size
        payload["min_compromise_exact"] = res.exact
        payload["min_lower"] = res.lower
        payload["min_upper"] = res.upper
        payload["min_example"] = list(res.example)
    if args.budget_db is not None:
        payload["feasible_neighbor_range"] = feasible_neighbor_range(args.ns, args.budget_db)
    _write_json(outdir / "verdict.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    config = _load(args)
    _note_attachment_pair(config.constellation.num_sats)
    outdir = _output_dir(args)
    _write_manifest(config, outdir)
    c = config.constellation
    n_min = min_ring_size(c.altitude_km, c.atm_shell_km)
    period = 2.0 * math.pi / c.mean_motion_rad_s
    if args.dump_positions:
        from .geometry import positions_eci_km

        times = np.arange(0.0, float(args.dump_positions) + 0.5, 1.0) + c.epoch_s
        pos = positions_eci_km(c, times)
        rows = [
            (float(t), sat, pos[it, sat, 0], pos[it, sat, 1], pos[it, sat, 2])
            for it, t in enumerate(times)
            for sat in range(c.num_sats)
        ]
        _write_csv(outdir / "positions.csv", ["time_s", "sat_index", "x_km", "y_km", "z_km"], rows)
    print(
        f"scenario OK: {c.num_sats} satellites at {c.altitude_km} km"
        f" (min ring size {n_min}), orbit period {period:.1f} s"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringqkd",
        description="Satellite-ring QKD network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("scenario", nargs="?", default=None, help="scenario INI file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a scenario value")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="run a multi-day campaign")
    common(p)
    p.add_argument("--days", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep constellation size or latitude")
    common(p)
    p.add_argument("--axis", choices=["ns", "latitude"], required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--days", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("linkbudget", help="emit loss profiles")
    common(p)
    p.add_argument("--uplink-pass", action="store_true", help="zenith pass uplink profile")
    p.add_argument("--isl", action="store_true", help="adjacent ISL loss versus ring size")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--isl-min-sats", type=int, default=10)
    p.add_argument("--isl-max-sats", type=int, default=40)
    p.set_defaults(func=cmd_linkbudget)

    p = sub.add_parser("keyrate", help="single-link finite-key evaluation")
    common(p)
    p.add_argument("--loss-db", type=float, required=True)
    p.add_argument("--duration-s", type=float, required=True)
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("security", help="XOR-forwarding recoverability oracle")
    p.add_argument("--file", default=None, help="security scenario file")
    p.add_argument("--ns", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--rings", type=int, default=1)
    p.add_argument("--compromised", default="", help="comma-separated satellite indices")
    p.add_argument("--min-compromise", action="store_true")
    p.add_argument("--exclude-attachments", action="store_true")
    p.add_argument("--budget-db", type=float, default=None)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_security)

    p = sub.add_parser("validate", help="check a scenario without simulating")
    common(p)
    p.add_argument("--dump-positions", type=int, default=0, metavar="SECONDS",
                   help="also write an ephemeris CSV covering this many seconds")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
