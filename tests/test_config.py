import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qecfabric
from qecfabric import qec_pipeline as qp
from qecfabric.capacity_model import (
    PROFILES,
    ROUTER_STAGE_NAMES,
    STAGE_NAMES,
    StageLatency,
    StageLatencyConfig,
)
from qecfabric.config import (
    _SYNDROME_SOURCES,
    TOOL_VERSION,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from qecfabric.link_layer import LinkModel


def test_defaults_validate():
    config = ExperimentConfig().validate()
    assert config.distance == 3
    assert config.stage_latency.uplink.mean_ps == 157_000
    assert config.stage_latency.downlink.mean_ps == 155_000
    # data-link transport time has one owner, the stage table
    for name in ("uplink", "downlink"):
        with pytest.raises(ConfigError, match=f"stage_latency.{name}"):
            config_from_dict({"links": {name: {"one_way_latency_ps": 999_000}}})


def test_the_package_version_is_the_one_pyproject_states():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == TOOL_VERSION
    assert qecfabric.__version__ == TOOL_VERSION


def test_round_trip_through_dict():
    config = ExperimentConfig(distance=5, shots=42, zero_jitter=True)
    rebuilt = config_from_dict(config.to_dict())
    assert rebuilt == config


def test_hash_is_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    c = ExperimentConfig(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"distnace": 3})
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"clock": {"offst_bound_ps": 0}})
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"stage_latency": {"uplink": {"mean": 1}}})


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"distance": "three"})
    with pytest.raises(ConfigError):
        config_from_dict({"zero_jitter": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"stage_latency": {"decode_table": {"3": "fast"}}})


def test_semantic_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(distance=4).validate()
    with pytest.raises(ConfigError):  # a d=1 patch has no stabilizer
        ExperimentConfig(distance=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(error_rate=1.5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(profile="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(syndrome_source="worst_case", distance=5).validate()
    with pytest.raises(ConfigError, match="stage_latency.uplink"):
        ExperimentConfig(uplink=LinkModel(10_000_000_000, 1, 157_000)).validate()


def test_profile_case_gives_one_hash():
    configs = [config_from_dict({"profile": "VCU129", "distance": 15}),
               config_from_dict({"profile": "vcu129", "distance": 15}),
               ExperimentConfig(profile="VCU129", distance=15),
               replace(ExperimentConfig(distance=15), profile="Vcu129")]
    assert {c.profile for c in configs} == {"vcu129"}
    assert len({c.config_hash() for c in configs}) == 1
    assert configs[2] == configs[1]


def test_worst_case_source_needs_its_pinned_rounds():
    # the pinned worst-case syndrome has 3 rounds, and `auto` picks it at d=3
    for kwargs in ({"rounds": 5}, {"rounds": 5, "syndrome_source": "worst_case"}):
        with pytest.raises(ConfigError, match="3 rounds"):
            ExperimentConfig(**kwargs).validate()
        with pytest.raises(ConfigError, match="3 rounds"):
            qp.Pipeline(ExperimentConfig(**kwargs))
    ExperimentConfig(rounds=3).validate()
    ExperimentConfig(rounds=5, syndrome_source="sampled").validate()
    assert ExperimentConfig().effective_syndrome_source == "worst_case"
    assert ExperimentConfig(distance=5).effective_syndrome_source == "sampled"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"links": {"uplink": {"lanes": 0}}}, "links.uplink"),
        ({"links": {"downlink": {"jitter_half_width_ps": 9_000}}}, "stage_latency.downlink"),
        ({"stage_latency": {"uplink": {"mean_ps": -1}}}, "stage_latency.uplink"),
        ({"stage_latency": {"decode_table": {}}}, "decode table is empty"),
        ({"stage_latency": {"decode_table": {"3": -1}}}, "decode table latency"),
        ({"stage_latency": {"decode_jitter_ps": -3}}, "decode_jitter_ps"),
        ({"clock": {"offset_bound_ps": -5}}, "clock.offset_bound_ps"),
        ({"clock": {"drift_ppm": -1_000_000}}, "clock.drift_ppm"),
        ({"links": {"uplink": {"line_rate_bps": 0}}}, "links.uplink.line_rate_bps"),
        ({"links": {"sync_uplink": {"line_rate_bps": 0}}}, "links.sync_uplink.line_rate_bps"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
)
def test_bad_values_rejected(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(data)


@pytest.mark.parametrize("name", ["sync_uplink", "sync_downlink"])
def test_sync_link_jitter_above_its_latency_rejected(name):
    # a uniform spread wider than the mean would draw negative one-way delays
    wide = {"one_way_latency_ps": 1_000, "jitter_half_width_ps": 1_001}
    with pytest.raises(ConfigError, match=re.escape(f"links.{name}.jitter_half_width_ps")):
        config_from_dict({"links": {name: wide}})
    equal = dict(wide, jitter_half_width_ps=1_000)
    assert getattr(config_from_dict({"links": {name: equal}}), name).jitter_half_width_ps == 1_000


def test_partial_override_keeps_defaults():
    config = config_from_dict(
        {"distance": 5, "stage_latency": {"uplink": {"jitter_ps": 0}}}
    )
    assert config.distance == 5
    assert config.stage_latency.uplink.mean_ps == 157_000
    assert config.stage_latency.uplink.jitter_ps == 0
    assert config.stage_latency.downlink.jitter_ps == 9_000


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"distance": 5, "shots": 7, "seed": 3}))
    config = load_config(path)
    assert (config.distance, config.shots, config.seed) == (5, 7, 3)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)


def test_config_hashes_are_pinned():
    # to_dict is the canonical form every report hashes; these pin its bytes
    assert ExperimentConfig().config_hash() == (
        "14ec1f7a478241cbfe735206e15bd97b7075246b8402648441a389c085b3b374"
    )
    config = ExperimentConfig(
        distance=13, router_layers=1, error_rate=1e-3, zero_jitter=True, rounds=5,
        syndrome_source="sampled",
    )
    assert config.config_hash() == (
        "3591f2a6dba096fcaf10ed75ef2a1173073533d68fb6aed7cb3bf0023b3488f5"
    )


_PS = st.integers(0, 10**12)
_STAGES = st.builds(StageLatency, _PS, _PS)
_STAGE_CONFIGS = st.builds(
    StageLatencyConfig,
    decode_table=st.dictionaries(st.integers(0, 30).map(lambda k: 2 * k + 1), _PS, min_size=1),
    decode_jitter_ps=_PS,
    **{name: _STAGES for name in STAGE_NAMES + ROUTER_STAGE_NAMES if name != "decode"},
)
_RATES, _LANES = st.integers(1, 10**11), st.integers(1, 64)
_DATA_LINKS = st.builds(LinkModel, _RATES, _LANES)
_SYNC_LINKS = st.builds(LinkModel, _RATES, _LANES, st.integers(1, 10**9), st.integers(0, 10**9))


def _valid_or_none(**fields):
    try:
        return ExperimentConfig(**fields)
    except ConfigError:
        return None


_CONFIGS = st.builds(
    _valid_or_none,
    distance=st.integers(1, 30).map(lambda k: 2 * k + 1),
    rounds=st.none() | st.integers(1, 50),
    error_rate=st.floats(0.0, 1.0),
    shots=st.integers(1, 10**9),
    seed=st.integers(0, 2**64),
    jobs=st.integers(1, 64),
    profile=st.sampled_from(sorted(PROFILES)),
    qubits_per_leaf=st.integers(1, 100),
    router_layers=st.integers(0, 4),
    syndrome_source=st.sampled_from(_SYNDROME_SOURCES),
    zero_jitter=st.booleans(),
    cycle_time_ps=st.integers(1, 10**9),
    clock_offset_bound_ps=st.integers(0, 10**9),
    drift_ppm=st.integers(-999_999, 10**6),
    sync_at_start=st.booleans(),
    stage_latency=_STAGE_CONFIGS,
    uplink=_DATA_LINKS,
    downlink=_DATA_LINKS,
    sync_uplink=_SYNC_LINKS,
    sync_downlink=_SYNC_LINKS,
).filter(lambda config: config is not None)


@settings(deadline=None)
@given(_CONFIGS)
def test_every_valid_config_round_trips_through_its_dict(config):
    rebuilt = config_from_dict(config.to_dict())
    assert rebuilt == config
    assert rebuilt.config_hash() == config.config_hash()


def _leaves(tree, path=()):
    """(path, default) of every leaf of a canonical dict; the decode table is one leaf."""
    for key, value in tree.items():
        if isinstance(value, dict) and key != "decode_table":
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _nest(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def _expected(default):
    if default is None:  # rounds
        return "an integer or null"
    return {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
            dict: "an object"}[type(default)]


def _accepts(default, value):
    if default is None:
        return value is None or type(value) is int
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


_LEAVES = list(_leaves(ExperimentConfig().to_dict()))


@pytest.mark.parametrize("path, default", _LEAVES, ids=[".".join(path) for path, _ in _LEAVES])
def test_every_leaf_rejects_wrong_types_and_unknown_siblings(path, default):
    name = ".".join(path)
    wrong = [value for value in (True, 7, 2.5, "x", None, [1], {}) if not _accepts(default, value)]
    assert wrong
    for value in wrong:
        message = f"{name}: expected {_expected(default)}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(_nest(path, value))
    # a misspelt key next to this leaf is named with the object that holds it
    parent = ".".join(path[:-1]) or "top level"
    sibling = path[-1] + "_typo"
    message = f"unknown config key(s) [{sibling!r}] at {parent}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(_nest(path[:-1] + (sibling,), default))
