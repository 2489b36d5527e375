"""Scenario table: every field mapped once, manifests round-trip, bad values
raise ValueError.  pytest turns warnings into errors (pyproject), so a numpy
warning on any of these paths fails the test that caused it."""

import configparser
import math
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringqkd.geometry import ConstellationKind, ConstellationSpec, GroundStation
from ringqkd.keyrate import ChannelModel, SecurityEpsilons
from ringqkd.linkbudget import OpticalParams, TurbulenceProfile
from ringqkd.scenario import _PARTS, _TABLE, ScenarioConfig, load_scenario, manifest

# fields set by the program, not by a scenario key
DERIVED = {
    (ChannelModel, "efficiency"),
    (ChannelModel, "eta_a"),
    (ChannelModel, "eta_b"),
    (GroundStation, "id"),
    (ScenarioConfig, "gs2"),
}
MAPPED = (
    ConstellationSpec, GroundStation, OpticalParams, TurbulenceProfile, ChannelModel,
    SecurityEpsilons, ScenarioConfig,
)


def test_every_scenario_field_is_one_table_row():
    rows = Counter((target, name) for _, _, target, name, _ in _TABLE.values())
    every = set()
    for cls in MAPPED:
        for f in fields(cls):
            every.add((cls, f.name))
            nested = cls is ScenarioConfig and f.name in _PARTS.values()
            want = 0 if (cls, f.name) in DERIVED or nested else 1
            assert rows[cls, f.name] == want, f"{cls.__name__}.{f.name}"
    assert set(rows) <= every


def _base(cls):
    if cls is ConstellationSpec:
        return ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, 12, 500.0)
    return cls()


@pytest.mark.parametrize("cls, name", [
    (ConstellationSpec, "altitude_km"),
    (ConstellationSpec, "epoch_s"),
    (ConstellationSpec, "phase0_deg"),
    (ConstellationSpec, "atm_shell_km"),
    (OpticalParams, "wavelength_m"),
    (OpticalParams, "pointing_jitter_rad"),
    (OpticalParams, "atm_loss_db_zenith"),
    (TurbulenceProfile, "wind_speed_mps"),
    (TurbulenceProfile, "h_top_m"),
    (ChannelModel, "rep_rate_hz"),
    (ChannelModel, "error_correction_factor"),
])
def test_dataclasses_reject_non_finite(cls, name):
    base = _base(cls)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            replace(base, **{name: bad})


def test_boolean_keys_take_configparser_spellings():
    for key in ("campaign.vary_phase", "channel.isl_pointing_in_effective"):
        for raw, value in configparser.ConfigParser.BOOLEAN_STATES.items():
            cfg = load_scenario(overrides=[f"{key}={raw.upper()}"])
            assert getattr(cfg, key.split(".")[1]) is value
        for raw in ("maybe", "", "2", "y"):
            with pytest.raises(ValueError, match=key):
                load_scenario(overrides=[f"{key}={raw}"])


def test_unreadable_file_is_a_value_error(tmp_path):
    path = tmp_path / "s.ini"
    for text in ("num_sats = 12\n", "[campaign]\nseed = 1\nseed = 2\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="unreadable"):
            load_scenario(str(path))


def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_subnormal=False, **kw)


# valid file-unit values for every key; constraints between keys are met by
# the ranges (altitude >= 500 km keeps 12 satellites above the ring minimum)
VALID = {
    ("constellation", "kind"): st.sampled_from(["type1", "type2"]),
    ("constellation", "num_sats"): st.sampled_from([12, 16, 24, 36]),
    ("constellation", "altitude_km"): _finite(500.0, 40000.0),
    ("constellation", "atm_shell_km"): _finite(0.0, 100.0),
    ("constellation", "phase0_deg"): _finite(-1e4, 1e4),
    ("constellation", "epoch_s"): _finite(-1e7, 1e7),
    ("ground_stations", "latitude_deg"): _finite(-90.0, 90.0),
    ("ground_stations", "gs1_longitude_deg"): _finite(-180.0, 360.0, exclude_max=True),
    ("optics", "wavelength_nm"): _finite(1e-3, 1e7),
    ("optics", "beam_divergence_urad"): _finite(1e-3, 1e7),
    ("optics", "gs_tx_diameter_m"): _finite(1e-3, 1e3),
    ("optics", "sat_tx_diameter_m"): _finite(1e-3, 1e3),
    ("optics", "sat_rx_diameter_m"): _finite(1e-3, 1e3),
    ("optics", "gs_beam_waist_m"): _finite(1e-3, 1e3),
    ("optics", "pointing_jitter_urad"): _finite(0.0, 1e7),
    ("optics", "optics_efficiency"): _finite(0.0, 1.0, exclude_min=True),
    ("optics", "atm_loss_db_zenith"): _finite(0.0, 100.0),
    ("turbulence", "model"): st.sampled_from(["hufnagel_valley", "none"]),
    ("turbulence", "wind_speed_mps"): _finite(0.0, 100.0),
    ("turbulence", "cn2_ground"): _finite(0.0, 1e-10),
    ("turbulence", "gs_altitude_m"): _finite(-500.0, 5000.0),
    ("turbulence", "h_top_m"): _finite(5001.0, 1e5),
    ("turbulence", "wander_residual"): _finite(0.0, 1.0),
    ("channel", "detector_efficiency"): _finite(0.0, 1.0, exclude_min=True),
    ("channel", "dark_count_prob"): _finite(0.0, 1.0, exclude_max=True),
    ("channel", "optical_error"): _finite(0.0, 0.5),
    ("channel", "rep_rate_ghz"): _finite(1e-6, 1e6),
    ("channel", "error_correction_factor"): _finite(1.0, 10.0),
    ("channel", "effective_mode"): st.sampled_from(["max", "asymmetric"]),
    ("channel", "isl_pointing_in_effective"): st.booleans(),
    **{
        ("security", key): _finite(1e-300, 1.0, exclude_max=True)
        for key in ("eps_cor", "eps_pa", "eps_hat", "eps_bar", "eps_n1")
    },
    ("campaign", "t_total_s"): _finite(1e-3, 1e7),
    ("campaign", "n_days"): st.integers(1, 10**6),
    ("campaign", "seed"): st.integers(0, 2**63),
    ("campaign", "time_step_s"): _finite(1e-3, 1e4),
    ("campaign", "theta_max_deg"): _finite(0.0, 90.0, exclude_min=True, exclude_max=True),
    ("campaign", "pooling"): st.sampled_from(["daily", "session"]),
    ("campaign", "vary_phase"): st.booleans(),
    ("campaign", "optimizer_starts"): st.integers(1, 100),
    ("campaign", "optimizer_evals"): st.integers(1, 10**5),
    ("campaign", "workers"): st.integers(1, 64),
}


def test_valid_strategies_cover_the_table():
    assert list(VALID) == list(_TABLE)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries(VALID))
def test_manifest_round_trips_any_valid_config(values, tmp_path):
    cfg = load_scenario(overrides=[f"{sec}.{key}={v}" for (sec, key), v in values.items()])
    text = manifest(cfg)
    path = tmp_path / "manifest.ini"
    path.write_text(text, encoding="utf-8")
    again = load_scenario(str(path))
    assert again == cfg
    assert manifest(again) == text


INVALID_TEXT = ["nan", "inf", "-inf", "1e999", "", "bogus", "1.5x"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from(list(_TABLE)),
    raw=st.one_of(
        st.sampled_from(INVALID_TEXT), st.floats().map(repr), st.integers().map(str)
    ),
    from_file=st.booleans(),
)
def test_bad_values_raise_value_error(key, raw, from_file, tmp_path):
    # texts that no key accepts are rejected with an error that names the
    # key; any other number either builds a config or raises ValueError,
    # never anything else
    sec, name = key
    try:
        if from_file:
            path = tmp_path / "s.ini"
            path.write_text(f"[{sec}]\n{name} = {raw}\n", encoding="utf-8")
            load_scenario(str(path))
        else:
            load_scenario(overrides=[f"{sec}.{name}={raw}"])
    except ValueError as exc:
        assert raw not in INVALID_TEXT or f"{sec}.{name}" in str(exc)
        return
    assert raw not in INVALID_TEXT


FLOAT_ROWS = [row for row in _TABLE.values() if row[0] is float]


@given(row=st.sampled_from(FLOAT_ROWS), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_direct_dataclass_calls_reject_non_finite(row, bad):
    _, _, target, name, _ = row
    cfg = load_scenario()
    part = cfg if target is ScenarioConfig else getattr(cfg, _PARTS[target])
    with pytest.raises(ValueError):
        replace(part, **{name: bad})
