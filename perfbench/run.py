"""ringqkd benchmark: end-to-end metrics, or per-layer metrics of a traced run.

    python3 perfbench/run.py --workload type1-n24 --seed 3 --seconds 34 --trace 0

Run it from the repository root.  It runs serially as a closed loop with one
client: each operation starts when the previous one has returned.  Set-up
is timed in fresh interpreters, three times; the last of them then runs
passes of the workload's timed body until ``--seconds`` is used up (at least
one pass, or two with ``--trace 1``).  ``worker.py`` checks every output
and also scales the times to a reference host speed, which a probe measures
while they run.  The metrics and the environment are printed by name with
their units, and the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS
from worker import HERE, PINNED_ENV, ROOT, WORKLOADS

SETUPS = 3  # fresh processes timing set-up; the last one also measures
TIME_LIMIT_S = 170.0


def _units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the program's source files, to name the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_worker(args, role: str, workdir: Path, index: int, deadline: float) -> dict:
    result = workdir / f"result{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
        "--workdir", str(workdir / f"proc{index}"), "--result", str(result),
    ]
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _print_metric(name: str, value, unit: str) -> None:
    print(f"{name} = {value:.6g} {unit}" if isinstance(value, float) else f"{name} = {value} {unit}")


def _per_layer(procs: list[dict], passes: list[dict]) -> tuple[dict, list[str]]:
    """Counts of the first traced pass, median times; counts that differ between passes listed."""
    layers = [p["layers"] for p in passes]
    out = {}
    for name in layers[0]:
        if name in EXACT_COUNTS:
            out[name] = layers[0][name]
        else:
            out[name] = statistics.median(p[name] for p in layers)
    mismatched = [n for n in EXACT_COUNTS if n in out and any(p[n] != out[n] for p in layers)]
    loads = [p["load_s"] for p in procs if p.get("load_s") is not None]
    if loads:
        out["scenario.load_s"] = statistics.median(loads)
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    return out, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ringqkd" / "__init__.py").is_file():
        print(f"no ringqkd sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = _units()
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        procs = [_run_worker(args, "setup", workdir, i, deadline) for i in range(SETUPS - 1)]
        procs.append(_run_worker(args, "measure", workdir, SETUPS - 1, deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    measured = procs[-1]
    passes = measured["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0

    env = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        **measured["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{k: v for k, v in PINNED_ENV.items() if k.endswith("THREADS")},
        "campaign.workers": 1,
    }
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es),"
          f" {attempted} operation(s), {failed} failed")
    print("pass wall_s: " + ", ".join(f"{p['wall_s']:.4g}" for p in passes))
    if not args.trace:
        print("pass scaled_wall_s: " + ", ".join(f"{p['scaled_wall_s']:.4g}" for p in passes))
    _print_metric("error_rate", failed / attempted, "1")
    mincomp = [p["mincomp_s"] for p in passes if "mincomp_s" in p]
    if mincomp:
        _print_metric("mincomp_s", statistics.median(mincomp), "s")
    latencies = [x for p in passes for x in p.get("query_s", ())]
    if latencies:
        deciles = statistics.quantiles(latencies, n=10)
        _print_metric("query_us_p50", statistics.median(latencies) * 1e6, "us")
        _print_metric("query_us_p90", deciles[8] * 1e6, "us")

    if args.trace:
        values, mismatched = _per_layer(procs, passes)
        units = per_layer_units
        if mismatched:
            correct = False
            print(f"counts differ between traced passes: {', '.join(mismatched)}")
    else:
        _print_metric("setup_wall_s", statistics.median(p["setup_s"] for p in procs), "s")
        _print_metric("wall_s", statistics.median(p["wall_s"] for p in passes), "s")
        _print_metric("probe_us", statistics.median(p["probe_s"] for p in passes) * 1e6, "us")
        values = {
            "setup_s": statistics.median(p["scaled_setup_s"] for p in procs),
            "scaled_wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = end_to_end_units
    absent = [name for name in units if name not in values]
    if absent:
        print(f"absent (hooked names missing: {', '.join(measured.get('absent', []))}): {', '.join(absent)}")
    metrics = {}
    for name, unit in units.items():
        if name in values:
            _print_metric(name, values[name], unit)
            metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
