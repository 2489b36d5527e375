"""CLI tests: subcommands, exit codes, reproducible outputs."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringqkd import cli, relay
from ringqkd.cli import main
from ringqkd.scenario import _TABLE


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


FLOAT_KEYS = [f"{sec}.{key}" for (sec, key), row in _TABLE.items() if row[0] is float]


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


def test_boolean_keys_reject_other_spellings(tmp_path, capsys):
    rc = run_cli("validate", "--output-dir", str(tmp_path), "--set", "campaign.vary_phase=off")
    assert rc == 0
    assert "vary_phase = false" in (tmp_path / "manifest.ini").read_text()
    rc = run_cli("validate", "--output-dir", str(tmp_path), "--set", "campaign.vary_phase=maybe")
    assert rc == 2
    assert "campaign.vary_phase" in capsys.readouterr().err


@pytest.mark.parametrize("dotted", ["turbulence.model", "channel.effective_mode", "campaign.pooling"])
def test_choice_keys_reject_other_values(dotted, tmp_path, capsys):
    # a value outside a key's options, from --set or from a scenario file,
    # exits 2 before the output directory is made, and the error names the key
    out = tmp_path / "out"
    named = f"bad value for {dotted}: 'foo' (unknown "  # then the model's own reason
    assert run_cli("validate", "--output-dir", str(out), "--set", f"{dotted}=foo") == 2
    assert named in capsys.readouterr().err
    sec, key = dotted.split(".")
    scenario = tmp_path / "s.ini"
    scenario.write_text(f"[{sec}]\n{key} = foo\n")
    assert run_cli("validate", str(scenario), "--output-dir", str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nnum_sats = 24\n",  # dropped: no section to copy it into
    "[DEFAULT]\nseed = 3\n[campaign]\nn_days = 1\n",  # copied into [campaign]
    "[DEFAULT]\nseed = 3\n[campaign]\nn_days = 1\n[optics]\nwavelength_nm = 1550\n",
])
def test_scenario_file_rejects_default_keys(text, tmp_path, capsys):
    # configparser copies [DEFAULT] keys into every section, or drops them
    # when there is none; either way the file is rejected, naming the section
    scenario = tmp_path / "s.ini"
    scenario.write_text(text)
    out = tmp_path / "out"
    assert run_cli("validate", str(scenario), "--output-dir", str(out)) == 2
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flags", [
    ["security.eps_pa=1e-200", "security.eps_hat=1e-200"],  # eps_pa * eps_hat underflows to 0
    ["security.eps_cor=1e-300"],  # the correction term's product overflows
    ["security.eps_n1=5e-324"],  # subnormal: 1 / eps_n1 overflows
])
def test_extreme_epsilons_give_a_key(flags, tmp_path):
    argv = ["simulate", "--output-dir", str(tmp_path),
            "--set", "campaign.n_days=1", "--set", "campaign.t_total_s=600"]
    for flag in flags:
        argv += ["--set", flag]
    assert run_cli(*argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
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


@pytest.mark.parametrize("values", ["12.5", "inf", "12,11", "12,16,12"])
def test_sweep_rejects_bad_ns_before_any_campaign(values, tmp_path, monkeypatch):
    # a non-integer N, an N that fails validation anywhere in the list, or a
    # repeated N exits 2 before the first campaign runs
    ran = []
    monkeypatch.setattr(cli, "run_campaign", ran.append)
    assert run_cli("sweep", *fast_args(tmp_path), "--axis", "ns", "--values", values) == 2
    assert ran == []


@pytest.mark.parametrize("values", ["10,10.0,1e1", "0,-0"])
def test_sweep_rejects_repeated_values(values, tmp_path, monkeypatch, capsys):
    # summary.json keeps one entry a value, so a value repeated in any
    # spelling exits 2 before any campaign runs
    ran = []
    monkeypatch.setattr(cli, "run_campaign", ran.append)
    out = tmp_path / "out"
    argv = ["sweep", *fast_args(out), "--axis", "latitude", "--values", values]
    assert run_cli(*argv) == 2
    assert "repeats" in capsys.readouterr().err
    assert ran == [] and not out.exists()


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


@pytest.mark.parametrize("flags, named", [
    (("--dt", "0"), "--dt"),
    (("--dt", "-1"), "--dt"),
    (("--dt", "nan"), "--dt"),
    (("--dt", "inf"), "--dt"),
    (("--isl-min-sats", "0"), "--isl-min-sats"),
    (("--isl-min-sats", "2"), "--isl-min-sats"),
    (("--isl-min-sats", "12", "--isl-max-sats", "10"), "--isl-max-sats"),
    # more than MAX_DAY_SAMPLES pass samples, 2 floor(t_half / dt) + 1, or ring sizes
    (("--dt", "1e-6"), "--dt"),  # about 3e8 samples
    (("--dt", "1e-300"), "--dt"),
    (("--dt", "5e-324"), "--dt"),  # t_half / dt overflows
    (("--isl-max-sats", "1000000000"), "--isl-max-sats"),
    (("--isl-min-sats", "3", "--isl-max-sats", "2000003"), "--isl-max-sats"),
])
def test_linkbudget_rejects_bad_flags(flags, named, tmp_path, monkeypatch, capsys):
    # a validation error that names the flag, before any file is written or
    # any profile computed (they refuse to run, so a missed check fails at once)
    def refuse(*args, **kwargs):
        raise AssertionError("a profile was computed")

    monkeypatch.setattr(cli, "_zenith_pass_rows", refuse)
    monkeypatch.setattr(cli, "isl_efficiency", refuse)
    out = tmp_path / "out"
    assert run_cli("linkbudget", *fast_args(out), "--uplink-pass", "--isl", *flags) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_linkbudget_pass_limit_is_the_sample_count(tmp_path, monkeypatch):
    # 2 floor(t_half / dt) + 1 samples: dt just under t_half / 1e6 makes
    # 2,000,001 samples, above MAX_DAY_SAMPLES; just over it, 1,999,999
    assert cli.MAX_DAY_SAMPLES == 2_000_000
    t_half = cli._half_pass_s(cli.load_scenario())
    passes = []

    def one_row(config, dt):
        passes.append(dt)
        return [(0.0, 0.0, 500.0, 70.0)]

    monkeypatch.setattr(cli, "_zenith_pass_rows", one_row)
    over, under = t_half / (1e6 + 0.5), t_half / (1e6 - 0.5)
    argv = ["linkbudget", "--output-dir", str(tmp_path), "--uplink-pass", "--dt"]
    assert run_cli(*argv, repr(over)) == 2
    assert run_cli(*argv, repr(under)) == 0
    assert passes == [under]


@pytest.mark.parametrize("flags, named", [
    (("--loss-db", "nan", "--duration-s", "10"), "--loss-db"),
    (("--loss-db", "inf", "--duration-s", "10"), "--loss-db"),
    (("--loss-db", "-1", "--duration-s", "10"), "--loss-db"),
    (("--loss-db", "45", "--duration-s", "nan"), "--duration-s"),
    (("--loss-db", "45", "--duration-s", "inf"), "--duration-s"),
    (("--loss-db", "45", "--duration-s", "0"), "--duration-s"),
    (("--loss-db", "45", "--duration-s", "-5"), "--duration-s"),
    (("--loss-db", "0", "--duration-s", "1e300"), "--duration-s"),  # pulse count overflows
])
def test_keyrate_rejects_bad_flags(flags, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("keyrate", *fast_args(out), *flags) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (("sweep", "--axis", "latitude", "--values", "95"), "latitude"),
    (("sweep", "--axis", "ns", "--values", "13"), "even number of satellites"),
    (("sweep", "--axis", "ns", "--values", ","), "value"),
    (("validate", "--dump-positions", "-5"), "--dump-positions"),
    (("security", "--ns", "12", "--i", "0", "--k", "6", "--budget-db", "nan"), "isl_budget_db"),
    (("security", "--ns", "12", "--i", "0", "--k", "6", "--r", "9"), "neighbor_range 9"),
    (("security", "--ns", "12", "--i", "0", "--k", "6", "--compromised", "12"), "satellite index"),
    (("security", "--ns", "12"), "--ns/--i/--k"),
    (("simulate", "--set", "campaign.time_step_s=1e9"), "time_step_s"),
    (("simulate", "--set", "campaign.time_step_s=1e-9"), "MAX_DAY_SAMPLES"),
    (("sweep", "--axis", "ns", "--values", "12,x"), "--values"),
    (("security", "--ns", "12", "--i", "0", "--k", "6", "--compromised", "2,a"), "--compromised"),
    (("simulate", "no_such_scenario.ini"), "no_such_scenario.ini"),
    # an empty path is a missing file too, not "no file"
    (("security", "--file", "", "--ns", "12", "--i", "0", "--k", "6"), "No such file"),
    # range checks run on the SI values and name the key as typed
    (("validate", "--set", "optics.wavelength_nm=1e-320"), "optics.wavelength_nm"),
    (("validate", "--set", "channel.rep_rate_ghz=1e300"), "channel.rep_rate_ghz"),
])
def test_bad_input_writes_nothing(argv, named, tmp_path, capsys):
    # rejected at the boundary with exit 2, before the output directory is made
    out = tmp_path / "out"
    extra = ["--output-dir", str(out)] if argv[0] == "security" else fast_args(out)
    assert run_cli(*argv, *extra) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seed", "--days", "--workers"])
def test_scenario_values_are_set_only_through_the_table(flag, tmp_path):
    # campaign.seed, campaign.n_days and campaign.workers are --set keys
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", flag, "2", "--output-dir", str(tmp_path))
    assert exc.value.code == 2
    assert not (tmp_path / "manifest.ini").exists()


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_failure_after_the_manifest_exits_3(error, tmp_path, monkeypatch, capsys):
    # once the manifest is written the input was accepted, so any later
    # error is a runtime failure, whatever its type
    def fail(config):
        raise error("raised inside the campaign")

    monkeypatch.setattr(cli, "run_campaign", fail)
    assert run_cli("simulate", *fast_args(tmp_path)) == 3
    assert "runtime error" in capsys.readouterr().err
    assert (tmp_path / "manifest.ini").exists()


def test_security_failure_after_the_verdict_exits_3(tmp_path, monkeypatch, capsys):
    # the verdict's index checks are input checks; the search runs after them
    def fail(path, allow_attachments):
        raise ValueError("raised inside the search")

    monkeypatch.setattr(cli, "min_compromise", fail)
    out = tmp_path / "out"
    argv = ["security", "--ns", "12", "--i", "0", "--k", "6", "--min-compromise"]
    assert run_cli(*argv, "--output-dir", str(out)) == 3
    assert "runtime error" in capsys.readouterr().err
    assert out.is_dir() and not (out / "verdict.json").exists()


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
    # the budget runs out in the third of the four attachment choices: the
    # choice of attachment 0 alone has found (0, 1, 7), and no untried case
    # can go below 2
    assert payload["min_lower"] == 2
    assert payload["min_upper"] == 3
    assert payload["min_example"] == [0, 1, 7]


def read_sweep(tmp_path):
    lines = (tmp_path / "curves" / "security.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_security_sweep_ns(tmp_path):
    rc = run_cli(
        "security", "--sweep-ns", "12,16,28", "--budget-db", "45", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    rows = read_sweep(tmp_path)
    assert [(row["n_sats"], row["r_feasible"]) for row in rows] == [("12", "1"), ("16", "2"), ("28", "3")]
    # r < 2 forwards nothing, so there is no minimum to report
    assert [rows[0][key] for key in list(rows[0])[2:]] == ["", "", "", ""]
    got = [(row["min_with_attachments"], row["min_without_attachments"]) for row in rows[1:]]
    assert got == [("3", "4"), ("5", "6")]
    assert rows[1]["example_with_attachments"] == "0 1 9"
    assert rows[2]["example_without_attachments"] == "1 2 3 15 16 17"


def test_security_sweep_writes_bracket_when_budget_runs_out(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "min_compromise", functools.partial(relay.min_compromise, max_evals=20))
    rc = run_cli(
        "security", "--sweep-ns", "16", "--budget-db", "45", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    (row,) = read_sweep(tmp_path)
    res = relay.min_compromise(relay.build_paths(16, 0, 8), max_evals=20)
    assert not res.exact
    assert row["min_with_attachments"] == f"{res.lower}..{res.upper}"
    assert row["example_with_attachments"] == " ".join(map(str, res.example))


@pytest.mark.parametrize("extra", [
    ["--sweep-ns", "12,x", "--budget-db", "45"],
    ["--sweep-ns", "12.5", "--budget-db", "45"],
    ["--sweep-ns", "12,2", "--budget-db", "45"],
    ["--sweep-ns", "", "--budget-db", "45"],
    ["--sweep-ns", "12,16"],
    ["--sweep-ns", "12,16", "--budget-db", "nan"],
])
def test_security_sweep_rejects_bad_input(extra, tmp_path):
    out = tmp_path / "out"
    assert run_cli("security", *extra, "--output-dir", str(out)) == 2
    assert not out.exists()


def test_security_bad_args_exit_code(tmp_path):
    assert run_cli(
        "security", "--ns", "12", "--i", "3", "--k", "3", "--output-dir", str(tmp_path)
    ) == 2


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_security_rejects_non_finite_budget(budget, tmp_path):
    rc = run_cli(
        "security", "--ns", "25", "--i", "0", "--k", "12",
        "--budget-db", budget, "--output-dir", str(tmp_path),
    )
    assert rc == 2
    assert not (tmp_path / "verdict.json").exists()


def test_security_feasibility_flag(tmp_path):
    rc = run_cli(
        "security", "--ns", "25", "--i", "0", "--k", "12",
        "--compromised", "", "--budget-db", "45", "--output-dir", str(tmp_path),
    )
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["feasible_neighbor_range"] >= 3


def test_security_scenario_file(tmp_path, capsys):
    scen = tmp_path / "attack.ini"
    scen.write_text(
        "[security_scenario]\n"
        "n_sats = 12\ni = 0\nk = 6\nr = 2\nn_rings = 1\ncompromised = 2,3,9,10\n"
    )
    rc = run_cli("security", "--file", str(scen), "--output-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["recoverable"] is True
    for text, named in [
        ("warp = 1", "security_scenario.warp"),
        ("n_sats = 12.5", "security_scenario.n_sats"),
        # configparser would copy n_sats into [security_scenario]
        ("i = 0\nk = 6\n[DEFAULT]\nn_sats = 12", "[DEFAULT]"),
    ]:
        scen.write_text(f"[security_scenario]\n{text}\n")
        assert run_cli("security", "--file", str(scen), "--output-dir", str(tmp_path)) == 2
        assert named in capsys.readouterr().err


def test_security_file_and_flag_may_not_set_one_value(tmp_path, capsys):
    scen = tmp_path / "attack.ini"
    scen.write_text("[security_scenario]\nn_sats = 12\ni = 0\nk = 6\n")
    out = tmp_path / "out"
    argv = ["security", "--file", str(scen), "--output-dir", str(out)]
    assert run_cli(*argv, "--ns", "24", "--k", "12") == 2
    err = capsys.readouterr().err
    assert "--ns" in err and "security_scenario.n_sats" in err
    assert not out.exists()
    # flags for values the file leaves unset still apply
    assert run_cli(*argv, "--r", "3", "--compromised", "0,1") == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert (payload["n_sats"], payload["neighbor_range"], payload["n_rings"]) == (12, 3, 1)
    assert payload["compromised"] == [0, 1]


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


def test_position_dump_propagates_a_chunk_at_a_time(tmp_path, monkeypatch):
    # a dump over several chunks writes the bytes of a one-chunk dump, and no
    # propagation call receives more than one chunk of times
    argv = ("validate", "--dump-positions", "10", "--output-dir")
    assert run_cli(*argv, str(tmp_path / "one")) == 0
    sizes = []
    propagate = cli.positions_eci_km

    def spy(spec, times):
        sizes.append(len(times))
        return propagate(spec, times)

    monkeypatch.setattr(cli, "positions_eci_km", spy)
    monkeypatch.setattr(cli, "_DUMP_ROWS", 36)  # 3 times of the 12-satellite ring
    assert run_cli(*argv, str(tmp_path / "chunks")) == 0
    assert sizes == [3, 3, 3, 2]
    one, chunks = (tmp_path / d / "positions.csv" for d in ("one", "chunks"))
    assert one.read_bytes() == chunks.read_bytes()


def test_validate_does_not_import_scipy_integrate(tmp_path):
    # scipy.integrate is most of the package's import time; only the
    # turbulence integral needs it, and validate never integrates.
    code = (
        "import sys\n"
        "from ringqkd.cli import main\n"
        f"assert main(['validate', '--output-dir', {str(tmp_path)!r}]) == 0\n"
        "print('scipy' in sys.modules, 'scipy.integrate' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["True", "False"]
