"""Tests of the benchmark itself, on small smoke workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from tracing import EXACT_COUNTS, Tracer
from worker import ROOT, variant_of

SMOKE = ("smoke-campaign", "smoke-oracle")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_benchmark(dest):
    """The benchmark's own files under ``dest``, without the program."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", SMOKE)
def test_every_metric_prints_with_its_unit(workload, trace):
    result, lines = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    if trace:
        passes = next(line for line in lines if line.startswith(f"workload {workload}, "))
        assert int(passes.split(", ")[2].split()[0]) >= 2, passes
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert any(line.startswith("environment ") for line in lines)
    assert "error_rate = 0 1" in lines


@pytest.mark.parametrize("workload", SMOKE)
def test_tampered_reference_gives_errors(workload, tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    references = tmp_path / "perfbench" / "references.json"
    refs = json.loads(references.read_text())
    variant = str(variant_of(3))
    if workload == "smoke-campaign":
        digests = refs["campaign"][workload][variant]
        digests["links.csv"] = "0" * 64
    else:
        bitmap = bytearray.fromhex(refs["query"][workload][variant])
        bitmap[0] ^= 0xFF
        refs["query"][workload][variant] = bitmap.hex()
    references.write_text(json.dumps(refs))
    result, lines = result_of(run_bench(workload, 0, cwd=tmp_path))
    assert not result["correct"]
    assert result["failed"] > 0
    error_rate = next(line for line in lines if line.startswith("error_rate = "))
    assert float(error_rate.split()[2]) > 0


def test_counts_repeat_between_traced_runs():
    first, _ = result_of(run_bench("smoke-campaign", 1))
    second, _ = result_of(run_bench("smoke-campaign", 1))
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["keyrate.evals"]["value"] > 0


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import ringqkd.simulator

    monkeypatch.delattr(ringqkd.simulator, "_effective_bins")
    tracer = Tracer()
    tracer.install()
    try:
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert tracer.missing == ["simulator._effective_bins"]
    assert "simulator.bins" not in metrics
    assert "keyrate.evals" in metrics


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("type1-n24", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
