"""Scenario table: every field mapped once, manifests round-trip, bad values
raise ValueError.  pytest turns warnings into errors (pyproject), so a numpy
warning on any of these paths fails the test that caused it."""

import configparser
import math
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ringqkd.geometry import ConstellationKind, ConstellationSpec, GroundStation
from ringqkd.keyrate import ChannelModel, SecurityEpsilons
from ringqkd.linkbudget import OpticalParams, TurbulenceProfile
from ringqkd.scenario import (
    _PARTS,
    _TABLE,
    MAX_DAY_SAMPLES,
    ScenarioConfig,
    load_scenario,
    manifest,
)
from ringqkd.simulator import run_day

# fields set by the program, not by a scenario key
DERIVED = {
    (GroundStation, "id"),
}
MAPPED = (
    ConstellationSpec, GroundStation, OpticalParams, TurbulenceProfile, ChannelModel,
    SecurityEpsilons, ScenarioConfig,
)


def test_every_scenario_field_is_one_table_row():
    rows = Counter((target, name) for _, target, name in _TABLE.values())
    every = set()
    for cls in MAPPED:
        for f in fields(cls):
            every.add((cls, f.name))
            nested = cls is ScenarioConfig and f.name in _PARTS.values()
            want = 0 if (cls, f.name) in DERIVED or nested else 1
            assert rows[cls, f.name] == want, f"{cls.__name__}.{f.name}"
    assert set(rows) <= every


def test_dataclass_defaults_are_the_baseline():
    # each baseline value is written once, as a dataclass default, so a part
    # built from its defaults is the part of the default scenario
    cfg = load_scenario()
    for cls, attr in _PARTS.items():
        assert cls() == getattr(cfg, attr), cls.__name__
    assert ScenarioConfig() == cfg


def _base(cls):
    if cls is ConstellationSpec:
        return ConstellationSpec(ConstellationKind.TYPE2_EQUATORIAL, 12, 500.0)
    return cls()


@pytest.mark.parametrize("cls, name", [
    (ConstellationSpec, "altitude_km"),
    (ConstellationSpec, "epoch_s"),
    (ConstellationSpec, "phase0_deg"),
    (ConstellationSpec, "atm_shell_km"),
    (OpticalParams, "wavelength_nm"),
    (OpticalParams, "pointing_jitter_urad"),
    (OpticalParams, "atm_loss_db_zenith"),
    (TurbulenceProfile, "wind_speed_mps"),
    (TurbulenceProfile, "h_top_m"),
    (ChannelModel, "rep_rate_ghz"),
    (ChannelModel, "error_correction_factor"),
])
def test_dataclasses_reject_non_finite(cls, name):
    base = _base(cls)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            replace(base, **{name: bad})


def test_si_values_are_checked():
    # a typed value whose SI value underflows to 0 or overflows to inf
    with pytest.raises(ValueError, match="wavelength_m"):
        OpticalParams(wavelength_nm=1e-320)
    with pytest.raises(ValueError, match="repetition rate"):
        ChannelModel(rep_rate_ghz=1e300)


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


# a value out of range for every key whose dataclass checks a range (the
# other keys take any value their parser accepts)
OUT_OF_RANGE = {
    ("constellation", "num_sats"): "2",
    ("constellation", "altitude_km"): "0",
    ("constellation", "atm_shell_km"): "-1",
    ("ground_stations", "latitude_deg"): "95",
    ("ground_stations", "gs1_longitude_deg"): "360",
    ("optics", "wavelength_nm"): "1e-320",  # underflows to 0 m
    ("optics", "beam_divergence_urad"): "0",
    ("optics", "gs_tx_diameter_m"): "0",
    ("optics", "sat_tx_diameter_m"): "-1",
    ("optics", "sat_rx_diameter_m"): "0",
    ("optics", "gs_beam_waist_m"): "-0.1",
    ("optics", "pointing_jitter_urad"): "-1",
    ("optics", "optics_efficiency"): "1.5",
    ("optics", "atm_loss_db_zenith"): "-1",
    ("turbulence", "wind_speed_mps"): "-1",
    ("turbulence", "cn2_ground"): "-1e-14",
    ("turbulence", "gs_altitude_m"): "30000",
    ("turbulence", "h_top_m"): "-10",
    ("turbulence", "wander_residual"): "2",
    ("channel", "detector_efficiency"): "0",
    ("channel", "dark_count_prob"): "1",
    ("channel", "optical_error"): "0.6",
    ("channel", "rep_rate_ghz"): "1e300",  # overflows to inf Hz
    ("channel", "error_correction_factor"): "0.9",
    **{("security", key): "1" for key in ("eps_cor", "eps_pa", "eps_hat", "eps_bar", "eps_n1")},
    ("campaign", "t_total_s"): "0",
    ("campaign", "n_days"): "0",
    ("campaign", "time_step_s"): "-1",
    ("campaign", "theta_max_deg"): "90",
    ("campaign", "optimizer_starts"): "0",
    ("campaign", "optimizer_evals"): "0",
    ("campaign", "workers"): "0",
}


@pytest.mark.parametrize("key", list(OUT_OF_RANGE), ids=".".join)
def test_range_errors_name_the_key(key):
    # the check runs on the dataclass's own (SI) value; the error names the
    # key as typed, in a file or an override
    setting = f"{'.'.join(key)}={OUT_OF_RANGE[key]}"
    with pytest.raises(ValueError, match=f"bad value for {'.'.join(key)}: "):
        load_scenario(overrides=[setting])


def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_subnormal=False, **kw)


# valid file-unit values for every key; constraints between keys are met by
# the ranges (altitude >= 500 km keeps 12 satellites above the ring minimum),
# except that the time step must fit the day window and keep the day's
# sample grid within MAX_DAY_SAMPLES (see time_step_fits)
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


@example(latitude=0.0, longitude=0.0)
@example(latitude=-90.0, longitude=-180.0)
@given(
    latitude=VALID[("ground_stations", "latitude_deg")],
    longitude=VALID[("ground_stations", "gs1_longitude_deg")],
)
def test_gs2_is_derived_from_gs1(latitude, longitude):
    cfg = load_scenario(overrides=[
        f"ground_stations.latitude_deg={latitude!r}",
        f"ground_stations.gs1_longitude_deg={longitude!r}",
    ])
    # the antipodal station, float for float: (longitude + 180) mod 360
    assert cfg.gs2 == GroundStation(2, latitude, (longitude + 180.0) % 360.0)
    # so the two stations share a latitude and lie 180 degrees apart
    assert cfg.gs2.latitude_deg == cfg.gs1.latitude_deg
    dlon = (cfg.gs2.longitude_deg - cfg.gs1.longitude_deg) % 360.0
    assert math.isclose(dlon, 180.0, abs_tol=1e-9)


def time_step_fits(values):
    step, total = values[("campaign", "time_step_s")], values[("campaign", "t_total_s")]
    return step <= total and math.floor(total / step) + 1 <= MAX_DAY_SAMPLES


def test_time_step_must_fit_the_day_window():
    load_scenario(overrides=["campaign.t_total_s=60", "campaign.time_step_s=60"])
    with pytest.raises(ValueError, match="time_step_s"):
        load_scenario(overrides=["campaign.t_total_s=60", "campaign.time_step_s=60.5"])


def test_sample_grid_is_limited():
    # floor(t_total_s / time_step_s) + 1 samples, at most MAX_DAY_SAMPLES
    load_scenario(overrides=[f"campaign.t_total_s={MAX_DAY_SAMPLES - 1}"])
    load_scenario(overrides=["campaign.t_total_s=86400", "campaign.time_step_s=0.05"])
    for t_total, step in ((MAX_DAY_SAMPLES, 1), (600, 1e-9), (1e300, 1e-300)):
        overrides = [f"campaign.t_total_s={t_total}", f"campaign.time_step_s={step}"]
        with pytest.raises(ValueError, match=f"MAX_DAY_SAMPLES = {MAX_DAY_SAMPLES:,}"):
            load_scenario(overrides=overrides)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries(VALID).filter(time_step_fits))
def test_manifest_round_trips_any_valid_config(values, tmp_path):
    cfg = load_scenario(overrides=[f"{sec}.{key}={v}" for (sec, key), v in values.items()])
    text = manifest(cfg)
    path = tmp_path / "manifest.ini"
    path.write_text(text, encoding="utf-8")
    again = load_scenario(str(path))
    assert again == cfg
    assert manifest(again) == text


# the keys whose unit is not SI: each value is stored as typed
UNIT_KEYS = [
    ("optics", "wavelength_nm"),
    ("optics", "beam_divergence_urad"),
    ("optics", "pointing_jitter_urad"),
    ("channel", "rep_rate_ghz"),
]


@example(item=(("optics", "wavelength_nm"), 251.5))
@given(item=st.sampled_from(UNIT_KEYS).flatmap(lambda k: st.tuples(st.just(k), VALID[k])))
def test_unit_named_values_are_written_as_typed(item):
    (sec, key), value = item
    text = manifest(load_scenario(overrides=[f"{sec}.{key}={value!r}"]))
    assert f"\n{key} = {format(value, '.17g')}\n" in text


# any valid config on a short day: at most 1 h, a step of at least 10 s,
# and a short optimiser search
SHORT_DAY = {
    **VALID,
    ("campaign", "t_total_s"): _finite(10.0, 3600.0),
    ("campaign", "time_step_s"): _finite(10.0, 3600.0),
    ("campaign", "optimizer_evals"): st.integers(1, 30),
}


@settings(max_examples=200, deadline=None)
@given(values=st.fixed_dictionaries(SHORT_DAY).filter(time_step_fits))
def test_any_accepted_config_simulates_a_day(values):
    # input the scenario accepts never fails inside the simulation, every
    # daily figure is a finite count or fraction, and no serving satellite
    # gets more key than the ISL reference carries
    cfg = load_scenario(overrides=[f"{sec}.{key}={v}" for (sec, key), v in values.items()])
    day = run_day(cfg, 0)
    for name, value in day.scalars().items():
        assert math.isfinite(value) and value >= 0.0, name
    isl_cap = len(day.serving_sats) * day.isl_reference.skl_bits
    assert day.protocol_skl <= isl_cap * (1 + 1e-12)


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
    _, target, name = row
    cfg = load_scenario()
    part = cfg if target is ScenarioConfig else getattr(cfg, _PARTS[target])
    with pytest.raises(ValueError):
        replace(part, **{name: bad})
