"""Experiment configuration: defaults, JSON loading, validation and hashing.

A config file is a single JSON document in the shape of
``ExperimentConfig.to_dict()``, which is the file's only schema: a file may
set any subset of the keys that the defaults' dict has, each with its
default's type, and every omitted key keeps its documented default (the
reference prototype's measured values).  The canonical JSON form of the
fully resolved config is hashed into every report so reruns are
attributable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from . import capacity_model
from .capacity_model import ROUTER_STAGE_NAMES, STAGE_NAMES, StageLatency, StageLatencyConfig
from .fabric_sim import TopologyConfig
from .link_layer import DEFAULT_LINE_RATE_BPS, LinkModel

TOOL_VERSION = "0.1.0"

_SYNDROME_SOURCES = ("auto", "worst_case", "sampled")

#: Data links carry only a rate: their transport time is the measured
#: ``stage_latency.uplink``/``downlink`` stage.  Sync links also carry latency.
_DATA_LINKS = ("uplink", "downlink")
_SYNC_LINKS = ("sync_uplink", "sync_downlink")
_LINKS = _DATA_LINKS + _SYNC_LINKS
_LATENCY_KEYS = ("one_way_latency_ps", "jitter_half_width_ps")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _data_link_latency_error(name: str, key: str) -> ConfigError:
    return ConfigError(
        f"links.{name}.{key}: data-link transport time is set by "
        f"stage_latency.{name} (mean_ps, jitter_ps); links.{name} takes only "
        f"line_rate_bps and lanes"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; defaults reproduce the d=3 reference run.  Building
    one, ``dataclasses.replace`` included, runs ``validate()``, so every config is valid."""

    distance: int = 3
    rounds: int | None = None  # None: see effective_rounds
    error_rate: float = 0.001
    shots: int = 10_000
    seed: int = 1
    jobs: int = 1
    profile: str = "zcu216"
    qubits_per_leaf: int = capacity_model.PlatformProfile.qubits_per_leaf
    router_layers: int = 0
    syndrome_source: str = "auto"
    zero_jitter: bool = False
    cycle_time_ps: int = capacity_model.DEFAULT_CYCLE_TIME_PS
    clock_offset_bound_ps: int = 1_000_000
    drift_ppm: int = 0
    sync_at_start: bool = True
    stage_latency: StageLatencyConfig = field(default_factory=StageLatencyConfig)
    uplink: LinkModel = LinkModel(DEFAULT_LINE_RATE_BPS)
    downlink: LinkModel = LinkModel(DEFAULT_LINE_RATE_BPS)
    sync_uplink: LinkModel = TopologyConfig.sync_uplink
    sync_downlink: LinkModel = TopologyConfig.sync_downlink

    def __post_init__(self):
        # get_profile matches a name in any case; keep the one it matches, so
        # that every spelling of a profile runs and hashes as one config
        if isinstance(self.profile, str):
            object.__setattr__(self, "profile", self.profile.lower())
        self.validate()

    def validate(self) -> "ExperimentConfig":
        if self.distance < 3 or self.distance % 2 == 0:
            raise ConfigError(f"distance must be an odd integer >= 3, got {self.distance}")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError("error_rate must be a probability")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.router_layers < 0:
            raise ConfigError("router_layers must be >= 0")
        if self.qubits_per_leaf < 1:
            raise ConfigError("qubits_per_leaf must be >= 1")
        if self.cycle_time_ps < 1:
            raise ConfigError("cycle_time_ps must be >= 1")
        if self.clock_offset_bound_ps < 0:
            raise ConfigError("clock.offset_bound_ps must be >= 0")
        if self.drift_ppm <= -1_000_000:
            raise ConfigError(
                f"clock.drift_ppm must be > -1000000 (slower clocks stand still or run "
                f"backwards), got {self.drift_ppm}"
            )
        for name in _LINKS:
            if getattr(self, name).line_rate_bps < 1:
                raise ConfigError(f"links.{name}.line_rate_bps must be >= 1")
        for name in _DATA_LINKS:
            link = getattr(self, name)
            if link != LinkModel(link.line_rate_bps, link.lanes):
                raise _data_link_latency_error(name, "/".join(_LATENCY_KEYS))
        for name in _SYNC_LINKS:
            link = getattr(self, name)
            # a wider uniform spread would draw negative one-way delays
            if link.jitter_half_width_ps > link.one_way_latency_ps:
                raise ConfigError(
                    f"links.{name}.jitter_half_width_ps must be <= its one_way_latency_ps "
                    f"({link.one_way_latency_ps}), got {link.jitter_half_width_ps}"
                )
        if self.syndrome_source not in _SYNDROME_SOURCES:
            raise ConfigError(
                f"syndrome_source must be one of {_SYNDROME_SOURCES}, got {self.syndrome_source!r}"
            )
        rounds = self.effective_rounds
        if self.effective_syndrome_source == "worst_case" and (self.distance, rounds) != (3, 3):
            raise ConfigError(
                f"the worst_case syndrome source is pinned for distance 3 with 3 rounds, "
                f"not {self.distance} with {rounds}; use syndrome_source sampled"
            )
        try:
            capacity_model.get_profile(self.profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    @property
    def effective_rounds(self) -> int:
        """``rounds``, or one round per unit of distance when it is None."""
        return self.rounds or self.distance

    @property
    def effective_syndrome_source(self) -> str:
        """``auto`` resolves to the worst case at d=3 (the paper's method), else sampled."""
        if self.syndrome_source == "auto":
            return "worst_case" if self.distance == 3 else "sampled"
        return self.syndrome_source

    def to_dict(self) -> dict:
        def link_dict(name):
            link = getattr(self, name)
            out = {"line_rate_bps": link.line_rate_bps, "lanes": link.lanes}
            if name not in _DATA_LINKS:
                out.update({key: getattr(link, key) for key in _LATENCY_KEYS})
            return out

        stage = {
            name: asdict(self.stage_latency.stage(name))
            for name in STAGE_NAMES + ROUTER_STAGE_NAMES
            if name != "decode"
        }
        stage["decode_table"] = {
            str(d): int(v) for d, v in sorted(self.stage_latency.decode_table.items())
        }
        stage["decode_jitter_ps"] = self.stage_latency.decode_jitter_ps
        return {
            "distance": self.distance,
            "rounds": self.rounds,
            "error_rate": self.error_rate,
            "shots": self.shots,
            "seed": self.seed,
            "jobs": self.jobs,
            "profile": self.profile,
            "qubits_per_leaf": self.qubits_per_leaf,
            "router_layers": self.router_layers,
            "syndrome_source": self.syndrome_source,
            "zero_jitter": self.zero_jitter,
            "cycle_time_ps": self.cycle_time_ps,
            "clock": {
                "offset_bound_ps": self.clock_offset_bound_ps,
                "drift_ppm": self.drift_ppm,
                "sync_at_start": self.sync_at_start,
            },
            "stage_latency": stage,
            "links": {name: link_dict(name) for name in _LINKS},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _typed(value, kind: type, path: str):
    """``value`` if it has type ``kind`` (an int may stand for a float, a bool
    only for a bool), else ConfigError naming ``path``."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        expected = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
        raise ConfigError(f"{path}: expected {expected.get(kind, 'an object')}, got {value!r}")
    return float(value) if kind is float else value


def _decode_table(table) -> dict:
    for key, value in _typed(table, dict, "stage_latency.decode_table").items():
        try:
            int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"stage_latency.decode_table: bad distance key {key!r}") from None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"stage_latency.decode_table[{key}]: expected integer ps")
    return table


def _merge(defaults: dict, data, path: str = "") -> dict:
    """``data`` laid over ``defaults``, a level of ``to_dict``'s canonical form.

    Only the defaults' keys are accepted, each with its default's type;
    objects merge key by key, and ``decode_table`` is replaced whole.
    """
    data = _typed(data, dict, path)
    link = path.removeprefix("links.")
    for key in _LATENCY_KEYS:
        if link in _DATA_LINKS and key in data:
            raise _data_link_latency_error(link, key)
    unknown = sorted(data.keys() - defaults.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} at {path or 'top level'}")
    merged = dict(defaults)
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key == "rounds":
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"rounds: expected an integer or null, got {value!r}")
            merged[key] = value
        elif key == "decode_table":
            merged[key] = _decode_table(value)
        elif isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, where)
        else:
            merged[key] = _typed(value, type(defaults[key]), where)
    return merged


def _build(path: str, cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from ``data`` laid over the defaults' ``to_dict``;
    unknown keys anywhere are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    fields = _merge(ExperimentConfig().to_dict(), data)
    clock, links, stages = fields.pop("clock"), fields.pop("links"), fields.pop("stage_latency")
    table = {int(d): ps for d, ps in stages.pop("decode_table").items()}
    stages = {
        name: _build(f"stage_latency.{name}", StageLatency, **entry)
        if isinstance(entry, dict) else entry
        for name, entry in stages.items()
    }
    return ExperimentConfig(
        **fields,
        clock_offset_bound_ps=clock["offset_bound_ps"],
        drift_ppm=clock["drift_ppm"],
        sync_at_start=clock["sync_at_start"],
        stage_latency=_build("stage_latency", StageLatencyConfig, decode_table=table, **stages),
        **{name: _build(f"links.{name}", LinkModel, **entry) for name, entry in links.items()},
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {path}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(data)


def _latency_row(key: str, st: StageLatency, note: str):
    value = f"{st.mean_ps} +- {st.jitter_ps} ps" if st.jitter_ps else f"{st.mean_ps} ps"
    return (f"stage_latency.{key}", value, note)


def default_provenance() -> list:
    """(key, value, note) of every default, as --show-defaults prints them; each
    value is formatted from the default it names when this is called."""
    defaults = ExperimentConfig()
    stages = defaults.stage_latency
    links, gbps = (defaults.sync_uplink, defaults.sync_downlink), DEFAULT_LINE_RATE_BPS // 10**9
    up, down = (f"{link.one_way_latency_ps / 1000:g} ns" for link in links)
    sync = f"{up} symmetric" if up == down else f"{up} up, {down} down"
    zcu, vcu = capacity_model.PROFILES["zcu216"], capacity_model.PROFILES["vcu129"]
    return [
        _latency_row("leaf_agg", stages.leaf_agg, "measured leaf-side syndrome aggregation"),
        _latency_row("uplink", stages.uplink, "measured leaf-to-root network transfer"),
        _latency_row("root_agg", stages.root_agg, "measured root aggregation and pre-decode"),
        _latency_row("decode_table[3]", StageLatency(stages.decode_table[3]),
                     "measured decode, worst-case d=3 pattern"),
        _latency_row("decode_table[5]", StageLatency(stages.decode_table[5]),
                     "measured standalone decode, pre-sampled d=5 syndromes"),
        _latency_row("decode_table[7]", StageLatency(stages.decode_table[7]),
                     "measured standalone decode, pre-sampled d=7 syndromes"),
        _latency_row("decode_table[13]", StageLatency(stages.decode_table[13]),
                     "reported decoder latency at d=13"),
        _latency_row("root_dist", stages.root_dist, "measured root-side error distribution"),
        _latency_row("downlink", stages.downlink, "measured root-to-leaf network transfer"),
        _latency_row("leaf_dist", stages.leaf_dist, "measured leaf-side error distribution"),
        _latency_row("router_proc", stages.router_proc, "router on-board processing add-on per layer"),
        _latency_row("router_net", stages.router_net, "router round-trip network add-on per layer"),
        ("links.uplink/downlink", f"{gbps} Gb/s x 1 lane",
         "rate only; latency is stage_latency.uplink/downlink"),
        ("links.sync_*", sync, "timer-alignment frames on the raw link"),
        ("error_rate", str(defaults.error_rate),
         "physical error rate typical of current superconducting qubits"),
        ("cycle_time_ps", str(capacity_model.DEFAULT_CYCLE_TIME_PS), "typical 1 us measurement cycle"),
        ("profile.zcu216", f"{zcu.root_ports} root ports x {zcu.qubits_per_leaf} qubits",
         f"prototype root board, {zcu.root_ports} x {gbps} Gb/s transceivers"),
        ("profile.vcu129", f"{vcu.root_ports} root ports x {vcu.qubits_per_leaf} qubits",
         f"high-port-count root option ({vcu.root_ports * vcu.qubits_per_leaf} qubits direct)"),
        ("profile.router", f"{capacity_model.PlatformProfile.router_children} children",
         "router board option per added layer; latency is stage_latency.router_*"),
        ("capacity.base_latency_ps", str(capacity_model.BASE_LATENCY_PS),
         "quoted total of all non-decoder components (stage means sum to "
         f"{sum(stages.stage(n).mean_ps for n in STAGE_NAMES if n != 'decode')})"),
    ]
