import json
import re

import pytest

from qecfabric import qec_pipeline as qp
from qecfabric.config import ConfigError, ExperimentConfig, config_from_dict, load_config
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
    ],
)
def test_bad_values_rejected(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(data)


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
