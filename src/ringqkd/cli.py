"""Command-line front end.

Subcommands: simulate, sweep, linkbudget, keyrate, security, validate.
Every run writes a manifest of the fully resolved scenario (defaults +
file + overrides) next to its outputs, and reruns with the same inputs
produce byte-identical files.  Exit codes: 0 success, 2 input rejected
before the command began its output (see ``_begin``), 3 any later failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .constants import EARTH_RADIUS_KM
from .geometry import min_ring_size, positions_eci_km
from .keyrate import accumulate_link, symmetric_arms
from .linkbudget import (
    isl_efficiency,
    slant_path_km,
    to_db,
    uplink_efficiency,
)
from .relay import (
    NEIGHBOR_RANGE,
    CompromiseScenario,
    adversary_can_recover,
    build_paths,
    feasible_neighbor_range,
    min_compromise,
)
from .scenario import (
    MAX_DAY_SAMPLES,
    ScenarioConfig,
    format_value,
    load_scenario,
    manifest,
    read_values,
)
from .simulator import run_campaign, sweep_configs

log = logging.getLogger(__name__)

_DUMP_ROWS = 1 << 16  # positions.csv rows that validate computes at a time


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _begin(args, config: ScenarioConfig | None = None) -> Path:
    """Mark the command's input accepted, make the output directory and
    write ``manifest.ini`` of ``config`` when given; returns the directory.

    Each command calls it once, after its last input check: an error raised
    before it is rejected input (exit 2), any error after it a runtime
    failure (exit 3).
    """
    args.accepted = True
    path = Path(args.output_dir or os.environ.get("RINGQKD_OUTPUT_DIR", "ringqkd_out"))
    path.mkdir(parents=True, exist_ok=True)
    if config is not None:
        with open(path / "manifest.ini", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest(config))
    return path


def _note_attachment_pair(n: int) -> None:
    """Security note for rings whose antipodal attachments are an odd distance apart."""
    if n % 4 == 2:
        log.warning(
            "num_sats=%d puts the antipodal attachment satellites %d apart on both"
            " segments; at the relay's default neighbour range r = %d the attachment"
            " pair alone recovers the ring secret",
            n, n // 2, NEIGHBOR_RANGE,
        )


def _campaign_payload(result) -> dict:
    return {
        "n_days": len(result.days),
        "mean": result.mean,
        "std": result.std,
        "serving_sats_per_day": [list(d.serving_sats) for d in result.days],
        "isl_reference_skl": [d.isl_reference.skl_bits for d in result.days],
    }


def cmd_simulate(args) -> int:
    config = load_scenario(args.scenario, args.set or ())
    _note_attachment_pair(config.constellation.num_sats)
    outdir = _begin(args, config)
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
    config = load_scenario(args.scenario, args.set or ())
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise ValueError(f"--values takes comma-separated numbers, got {args.values!r}") from None
    axis = {"ns": "num_sats", "latitude": "latitude"}[args.axis]
    if axis == "num_sats":
        if not all(v.is_integer() for v in values):
            raise ValueError(f"--axis ns takes integer values, got {args.values!r}")
        values = [int(v) for v in values]
    if len(set(values)) < len(values):  # summary.json keeps one entry a value
        raise ValueError(f"--values repeats a value, got {args.values!r}")
    configs = sweep_configs(config, axis, values)
    outdir = _begin(args, config)
    for n in values if axis == "num_sats" else [config.constellation.num_sats]:
        _note_attachment_pair(n)
    results = [(v, run_campaign(cfg)) for v, cfg in zip(values, configs)]
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


def _half_pass_s(config: ScenarioConfig) -> float:
    """Time [s] from overhead to the zenith cutoff on the synthetic pass."""
    theta_max = math.radians(config.theta_max_deg)
    # central angle at which the zenith angle reaches the cutoff: the zenith
    # angle is the central angle plus the nadir angle asin(ratio * sin(zenith))
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + config.constellation.altitude_km)
    gamma_max = theta_max - math.asin(ratio * math.sin(theta_max))
    return gamma_max / config.constellation.mean_motion_rad_s


def _zenith_pass_rows(config: ScenarioConfig, dt: float):
    """Synthetic zenith pass: polar satellite directly overhead at t = 0."""
    h = config.constellation.altitude_km
    w = config.constellation.mean_motion_rad_s
    theta_max = math.radians(config.theta_max_deg)
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + h)
    t_half = _half_pass_s(config)
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
    if not 0.0 < args.dt < math.inf:
        raise ValueError(f"--dt must be finite and > 0, got {args.dt}")
    if not 3 <= args.isl_min_sats <= args.isl_max_sats:
        raise ValueError(f"--isl-min-sats/--isl-max-sats need 3 <= min <= max, got"
                         f" {args.isl_min_sats}/{args.isl_max_sats}")
    sizes = args.isl_max_sats - args.isl_min_sats + 1
    if args.isl and sizes > MAX_DAY_SAMPLES:
        raise ValueError(f"--isl-min-sats/--isl-max-sats make {sizes} ring sizes, above"
                         f" the limit MAX_DAY_SAMPLES = {MAX_DAY_SAMPLES:,}")
    config = load_scenario(args.scenario, args.set or ())
    half = _half_pass_s(config) / args.dt
    samples = 2 * math.floor(half) + 1 if math.isfinite(half) else half
    if args.uplink_pass and samples > MAX_DAY_SAMPLES:
        raise ValueError(f"--dt {args.dt} makes a zenith pass of {samples} samples, above"
                         f" the limit MAX_DAY_SAMPLES = {MAX_DAY_SAMPLES:,}")
    outdir = _begin(args, config)
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
    if not 0.0 <= args.loss_db < math.inf:
        raise ValueError(f"--loss-db must be finite and >= 0, got {args.loss_db}")
    if not 0.0 < args.duration_s < math.inf:
        raise ValueError(f"--duration-s must be finite and > 0, got {args.duration_s}")
    config = load_scenario(args.scenario, args.set or ())
    pulses = config.channel.rep_rate_hz * args.duration_s
    if not math.isfinite(pulses):
        raise ValueError(f"--duration-s {args.duration_s} overflows the pulse count")
    outdir = _begin(args, config)
    arms = symmetric_arms(10.0 ** (-args.loss_db / 10.0))
    params, out = accumulate_link(
        [(arms, pulses)], config.channel, config.eps,
        n_starts=config.optimizer_starts, max_evals=config.optimizer_evals,
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


# [security_scenario] file keys: (section, key) -> (parser, the option it
# sets); an option that neither the file nor its flag sets stays None
_SECURITY_FILE = {
    ("security_scenario", "n_sats"): (int, "ns"),
    ("security_scenario", "i"): (int, "i"),
    ("security_scenario", "k"): (int, "k"),
    ("security_scenario", "r"): (int, "r"),
    ("security_scenario", "n_rings"): (int, "rings"),
    ("security_scenario", "compromised"): (str, "compromised"),
}


def _security_args(args) -> None:
    """Fill attachment/compromise settings from the [security_scenario] file,
    if any; a value that the file and its flag both set is rejected."""
    values = read_values(args.file, _SECURITY_FILE) if args.file is not None else {}
    for key, (_, option) in _SECURITY_FILE.items():
        if getattr(args, option) is None:
            setattr(args, option, values.get(key))
        elif key in values:
            raise ValueError(f"--{option} and {'.'.join(key)} both set one value; give only one")


def _minimum_cells(res) -> tuple[str, str]:
    """CSV cells of a ``min_compromise`` result: the minimum, or its bracket
    ``lower..upper`` when the search budget ran out, and the example set."""
    if res.exact:
        size = "" if res.size is None else str(res.size)
    else:
        size = f"{res.lower}..{'' if res.upper is None else res.upper}"
    return size, " ".join(str(sat) for sat in res.example)


def _security_sweep(args) -> int:
    """Minimum compromise versus ring size at the feasible neighbour range."""
    try:
        sizes = [int(v) for v in args.sweep_ns.split(",")]
    except ValueError:
        raise ValueError(f"--sweep-ns takes integer ring sizes, got {args.sweep_ns!r}") from None
    if args.budget_db is None:
        raise ValueError("--sweep-ns needs --budget-db")
    # every N and the budget are checked before any search runs or file is written
    ranges = [(n, feasible_neighbor_range(n, args.budget_db)) for n in sizes]
    curves = _begin(args) / "curves"
    rows = []
    for n, r in ranges:
        if r < 2:  # no twin-field key beyond the adjacent pair: nothing to forward
            rows.append((n, r, "", "", "", ""))
            print(f"N={n} r={r}: no forwarding")
            continue
        path = build_paths(n, 0, n // 2, r=r)
        with_att = _minimum_cells(min_compromise(path, allow_attachments=True))
        without = _minimum_cells(min_compromise(path, allow_attachments=False))
        rows.append((n, r, *with_att, *without))
        print(f"N={n} r={r}: minimum {with_att[0]} with attachments, {without[0]} without")
    curves.mkdir(exist_ok=True)
    _write_csv(curves / "security.csv", [
        "n_sats", "r_feasible", "min_with_attachments", "example_with_attachments",
        "min_without_attachments", "example_without_attachments",
    ], rows)
    return 0


def cmd_security(args) -> int:
    if args.sweep_ns is not None:
        return _security_sweep(args)
    _security_args(args)
    if args.ns is None or args.i is None or args.k is None:
        raise ValueError("security needs --ns/--i/--k or a scenario --file")
    given = {"r": args.r, "n_rings": args.rings}  # build_paths' defaults fill the rest
    path = build_paths(args.ns, args.i, args.k, **{k: v for k, v in given.items() if v is not None})
    try:
        compromised = frozenset(int(s) for s in (args.compromised or "").split(",") if s != "")
    except ValueError:
        raise ValueError(f"--compromised takes integer indices, got {args.compromised!r}") from None
    ok, witness = adversary_can_recover(path, CompromiseScenario(compromised))
    payload = {
        "n_sats": args.ns,
        "attach_a": args.i,
        "attach_b": args.k,
        "neighbor_range": path.neighbor_range,
        "n_rings": path.n_rings,
        "compromised": sorted(compromised),
        "recoverable": ok,
        "witness": [str(w) for w in witness],
    }
    if args.budget_db is not None:
        payload["feasible_neighbor_range"] = feasible_neighbor_range(args.ns, args.budget_db)
    outdir = _begin(args)
    if args.min_compromise:
        res = min_compromise(path, allow_attachments=not args.exclude_attachments)
        payload["min_compromise"] = res.size
        payload["min_compromise_exact"] = res.exact
        payload["min_lower"] = res.lower
        payload["min_upper"] = res.upper
        payload["min_example"] = list(res.example)
    _write_json(outdir / "verdict.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _position_rows(c, seconds: int):
    """positions.csv rows at whole seconds 0..``seconds`` after the epoch,
    propagated a chunk of at most ``_DUMP_ROWS`` rows at a time."""
    step = max(1, _DUMP_ROWS // c.num_sats)
    for lo in range(0, seconds + 1, step):
        times = np.arange(lo, min(lo + step, seconds + 1), dtype=float) + c.epoch_s
        pos = positions_eci_km(c, times)
        for it, t in enumerate(times.tolist()):
            for sat in range(c.num_sats):
                yield (t, sat, pos[it, sat, 0], pos[it, sat, 1], pos[it, sat, 2])


def cmd_validate(args) -> int:
    if args.dump_positions < 0:
        raise ValueError(f"--dump-positions must be >= 0, got {args.dump_positions}")
    config = load_scenario(args.scenario, args.set or ())
    _note_attachment_pair(config.constellation.num_sats)
    outdir = _begin(args, config)
    c = config.constellation
    n_min = min_ring_size(c.altitude_km, c.atm_shell_km)
    period = 2.0 * math.pi / c.mean_motion_rad_s
    if args.dump_positions:
        header = ["time_s", "sat_index", "x_km", "y_km", "z_km"]
        _write_csv(outdir / "positions.csv", header, _position_rows(c, args.dump_positions))
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

    def common(p):
        p.add_argument("scenario", nargs="?", default=None, help="scenario INI file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a scenario value")
        p.add_argument("--output-dir", default=None)

    p = sub.add_parser("simulate", help="run a multi-day campaign")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep constellation size or latitude")
    common(p)
    p.add_argument("--axis", choices=["ns", "latitude"], required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
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
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rings", type=int, default=None)
    p.add_argument("--compromised", default=None, help="comma-separated satellite indices")
    p.add_argument("--min-compromise", action="store_true")
    p.add_argument("--exclude-attachments", action="store_true")
    p.add_argument("--budget-db", type=float, default=None)
    p.add_argument("--sweep-ns", default=None, metavar="N,N,...",
                   help="minimum compromise for each ring size N, attachments 0 and N//2,"
                        " at the neighbour range --budget-db allows; writes"
                        " curves/security.csv and ignores the single-ring options")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_security)

    p = sub.add_parser("validate", help="check a scenario without simulating")
    common(p)
    p.add_argument("--dump-positions", type=int, default=0, metavar="SECONDS",
                   help="also write an ephemeris CSV covering this many seconds")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.accepted = False  # set by _begin
    try:
        return args.func(args)
    except Exception as exc:
        if args.accepted or not isinstance(exc, (ValueError, FileNotFoundError)):
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
