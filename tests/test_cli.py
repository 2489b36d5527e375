"""CLI tests: subcommands, exit codes, reproducible outputs."""

import functools
import json
from pathlib import Path

import pytest

from ringqkd import cli, relay
from ringqkd.cli import main
from ringqkd.scenario import _SCHEMA


def run_cli(*argv):
    return main(list(argv))


def fast_args(tmp_path, *extra):
    return [
        "--output-dir", str(tmp_path),
        "--set", "campaign.t_total_s=7200",
        "--set", "campaign.n_days=1",
        "--set", "campaign.optimizer_evals=60",
        *extra,
    ]


def test_validate_defaults(tmp_path, capsys):
    rc = run_cli("validate", "--output-dir", str(tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenario OK" in out
    assert (tmp_path / "manifest.ini").exists()


def test_validate_rejects_bad_override(tmp_path, capsys):
    rc = run_cli(
        "validate", "--output-dir", str(tmp_path),
        "--set", "constellation.num_sats=7",
    )
    assert rc == 2
    assert "validation error" in capsys.readouterr().err


def test_validate_rejects_unknown_key(tmp_path):
    assert run_cli(
        "validate", "--output-dir", str(tmp_path), "--set", "constellation.bogus=1"
    ) == 2


FLOAT_KEYS = [
    f"{sec}.{key}" for sec, keys in _SCHEMA.items() for key, (conv, _) in keys.items() if conv is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_validate_rejects_non_finite_floats(value, tmp_path, capsys):
    # every float key, from --set and from a scenario file alike
    assert len(FLOAT_KEYS) > 30
    for dotted in FLOAT_KEYS:
        rc = run_cli("validate", "--output-dir", str(tmp_path), "--set", f"{dotted}={value}")
        assert rc == 2, dotted
        assert dotted in capsys.readouterr().err
    sec, key = FLOAT_KEYS[0].split(".")
    scenario = tmp_path / "s.ini"
    scenario.write_text(f"[{sec}]\n{key} = {value}\n")
    assert run_cli("validate", str(scenario), "--output-dir", str(tmp_path)) == 2
    assert FLOAT_KEYS[0] in capsys.readouterr().err
    assert not (tmp_path / "manifest.ini").exists()


def attachment_warnings(caplog):
    return [
        r for r in caplog.records
        if r.levelname == "WARNING" and "attachment pair" in r.getMessage()
    ]


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_attachment_pair_warning_at_n10(command, tmp_path, caplog):
    # N = 10: both attachment separations are 5 (odd), the r = 2 break
    assert run_cli(command, *fast_args(tmp_path), "--set", "constellation.num_sats=10") == 0
    warnings = attachment_warnings(caplog)
    assert len(warnings) == 1
    assert "num_sats=10" in warnings[0].getMessage()
    for name in ("manifest.ini", "report.csv", "links.csv", "summary.json"):
        if (tmp_path / name).exists():
            assert "attachment" not in (tmp_path / name).read_text()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_no_attachment_pair_warning_at_n12(command, tmp_path, caplog):
    assert run_cli(command, *fast_args(tmp_path), "--set", "constellation.num_sats=12") == 0
    assert attachment_warnings(caplog) == []


@pytest.mark.parametrize("values, warned", [("10,12", ["num_sats=10"]), ("12,16", [])])
def test_sweep_attachment_pair_warning(values, warned, tmp_path, caplog):
    # every swept N = 2 (mod 4) gets the note, once
    assert run_cli("sweep", *fast_args(tmp_path), "--axis", "ns", "--values", values) == 0
    warnings = attachment_warnings(caplog)
    assert len(warnings) == len(warned)
    for record, text in zip(warnings, warned):
        assert text in record.getMessage()


def test_simulate_outputs_and_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = run_cli("simulate", *fast_args(out))
        assert rc == 0
    for name in ("manifest.ini", "report.csv", "links.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["n_days"] == 1
    assert summary["mean"]["protocol_skl"] > 0


def test_simulate_reproducible_from_manifest(tmp_path):
    out1 = tmp_path / "a"
    rc = run_cli("simulate", *fast_args(out1))
    assert rc == 0
    out2 = tmp_path / "b"
    rc = run_cli("simulate", str(out1 / "manifest.ini"), "--output-dir", str(out2))
    assert rc == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "manifest.ini").read_bytes() == (out2 / "manifest.ini").read_bytes()


def test_sweep_curves(tmp_path):
    rc = run_cli(
        "sweep", *fast_args(tmp_path), "--axis", "ns", "--values", "12,20",
    )
    assert rc == 0
    curve = (tmp_path / "curves" / "protocol_skl.csv").read_text().splitlines()
    assert curve[0] == "ns,mean,std"
    assert len(curve) == 3
    assert (tmp_path / "curves" / "rho_vis_gs1.csv").exists()


def test_linkbudget_pass_profile(tmp_path):
    rc = run_cli("linkbudget", *fast_args(tmp_path), "--uplink-pass")
    assert rc == 0
    lines = (tmp_path / "uplink_pass.csv").read_text().splitlines()
    assert lines[0] == "time_s,zenith_deg,path_km,loss_db"
    assert len(lines) - 1 == pytest.approx(295, abs=6)
    losses = [float(l.split(",")[3]) for l in lines[1:]]
    assert 65.0 <= min(losses) <= 80.0
    assert 130.0 <= max(losses) <= 150.0


def test_linkbudget_isl_table(tmp_path):
    rc = run_cli("linkbudget", *fast_args(tmp_path), "--isl")
    assert rc == 0
    lines = (tmp_path / "isl_loss.csv").read_text().splitlines()
    assert lines[0] == "num_sats,chord_km,loss_db,loss_db_no_pointing"
    first = lines[1].split(",")
    assert int(first[0]) == 10
    # monotone decreasing loss with ring size
    losses = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_linkbudget_needs_a_profile(tmp_path, capsys):
    # neither --uplink-pass nor --isl: a validation error before any file is written
    out = tmp_path / "out"
    assert run_cli("linkbudget", *fast_args(out)) == 2
    assert "--uplink-pass" in capsys.readouterr().err
    assert not out.exists()


def test_keyrate_dead_channel_row(tmp_path):
    rc = run_cli(
        "keyrate", *fast_args(tmp_path), "--loss-db", "144", "--duration-s", "10",
    )
    assert rc == 0
    lines = (tmp_path / "keyrate.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["skl_bits"]) == 0.0


def test_security_verdicts(tmp_path, capsys):
    rc = run_cli(
        "security", "--ns", "12", "--i", "0", "--k", "6",
        "--compromised", "2,3,9,10", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["recoverable"] is True
    assert payload["witness"]
    rc = run_cli(
        "security", "--ns", "12", "--i", "0", "--k", "6",
        "--compromised", "", "--min-compromise", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["recoverable"] is False
    assert payload["min_compromise"] == 3
    assert payload["min_compromise_exact"] is True
    assert payload["min_lower"] == payload["min_upper"] == 3
    assert payload["min_example"] == [0, 1, 7]


def test_security_min_compromise_bracket(tmp_path, monkeypatch):
    # a search that runs out of budget reports its certified bracket
    monkeypatch.setattr(cli, "min_compromise", functools.partial(relay.min_compromise, max_evals=20))
    rc = run_cli(
        "security", "--ns", "12", "--i", "0", "--k", "6",
        "--min-compromise", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["min_compromise"] is None
    assert payload["min_compromise_exact"] is False
    # the 12 singletons are tested, the budget runs out among the pairs, and
    # the three satellites around an attachment certify the upper end
    assert payload["min_lower"] == 2
    assert payload["min_upper"] == 3
    assert payload["min_example"] == []


def test_security_bad_args_exit_code(tmp_path):
    assert run_cli(
        "security", "--ns", "12", "--i", "3", "--k", "3", "--output-dir", str(tmp_path)
    ) == 2


def test_security_feasibility_flag(tmp_path):
    rc = run_cli(
        "security", "--ns", "25", "--i", "0", "--k", "12",
        "--compromised", "", "--budget-db", "45", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["feasible_neighbor_range"] >= 3


def test_security_scenario_file(tmp_path):
    scen = tmp_path / "attack.ini"
    scen.write_text(
        "[security_scenario]\n"
        "n_sats = 12\ni = 0\nk = 6\nr = 2\nn_rings = 1\ncompromised = 2,3,9,10\n"
    )
    rc = run_cli("security", "--file", str(scen), "--output-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["recoverable"] is True
    scen.write_text("[security_scenario]\nwarp = 1\n")
    assert run_cli("security", "--file", str(scen), "--output-dir", str(tmp_path)) == 2


def test_validate_position_dump(tmp_path):
    rc = run_cli(
        "validate", "--output-dir", str(tmp_path), "--dump-positions", "5",
    )
    assert rc == 0
    lines = (tmp_path / "positions.csv").read_text().splitlines()
    assert lines[0] == "time_s,sat_index,x_km,y_km,z_km"
    assert len(lines) - 1 == 6 * 12
    _, _, x, y, z = lines[1].split(",")
    radius = (float(x) ** 2 + float(y) ** 2 + float(z) ** 2) ** 0.5
    assert radius == pytest.approx(6871.0, rel=1e-9)
