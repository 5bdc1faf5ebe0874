"""The stage latency table, and closed-form capacity, latency and throughput math.

``StageLatencyConfig`` owns every latency term: the timed pipeline draws its
stage durations from it, and the closed-form latency adds its decode and
router means to the quoted non-decoder base.  The rest is arithmetic on
platform constants: qubits per tree and throughput headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .link_layer import DEFAULT_LINE_RATE_BPS, PS_PER_SECOND, LinkModel, effective_throughput

STAGE_NAMES = ("leaf_agg", "uplink", "root_agg", "decode", "root_dist", "downlink", "leaf_dist")
ROUTER_STAGE_NAMES = ("router_proc", "router_net")

#: Measured decoder latencies (ps) at the distances we have numbers for.
DEFAULT_DECODE_TABLE = {3: 56_000, 5: 65_000, 7: 90_000, 13: 250_000}

#: Quoted total of all non-decoder components (ps).  The stage means sum to
#: 5 ns more, so a zero-jitter simulated loop runs that much longer.
BASE_LATENCY_PS = 390_000

#: Peak decoder throughput reference: 440 syndrome bits in 11.5 ns.
DECODER_PEAK_BITS = 440
DECODER_PEAK_TIME_PS = 11_500

DEFAULT_CYCLE_TIME_PS = 1_000_000


@dataclass(frozen=True)
class PlatformProfile:
    """Port counts and leaf size of one hardware root/router mix."""

    name: str
    root_ports: int
    router_children: int = 29
    qubits_per_leaf: int = 14

    def __post_init__(self):
        if min(self.root_ports, self.router_children, self.qubits_per_leaf) < 1:
            raise ValueError("profile counts must be positive")


PROFILES = {
    "zcu216": PlatformProfile("zcu216", root_ports=4),
    "vcu129": PlatformProfile("vcu129", root_ports=34),
}


@dataclass(frozen=True)
class StageLatency:
    mean_ps: int
    jitter_ps: int = 0

    def __post_init__(self):
        if self.mean_ps < 0 or self.jitter_ps < 0:
            raise ValueError("stage latency parameters must be >= 0")


@dataclass(frozen=True)
class StageLatencyConfig:
    """Measured mean and min-max half-spread of every pipeline stage (ps).

    Decode latency is keyed by distance; router stages apply once per layer.
    Defaults are the reference three-board measurements (``--show-defaults``).
    """

    leaf_agg: StageLatency = StageLatency(29_000, 3_000)
    uplink: StageLatency = StageLatency(157_000, 16_000)
    root_agg: StageLatency = StageLatency(20_000, 10_000)
    root_dist: StageLatency = StageLatency(25_000, 3_000)
    downlink: StageLatency = StageLatency(155_000, 9_000)
    leaf_dist: StageLatency = StageLatency(9_000, 1_000)
    router_proc: StageLatency = StageLatency(45_000, 0)
    router_net: StageLatency = StageLatency(312_000, 0)
    decode_table: dict = field(default_factory=lambda: dict(DEFAULT_DECODE_TABLE))
    decode_jitter_ps: int = 0

    def __post_init__(self):
        if not self.decode_table:
            raise ValueError("decode table is empty")
        for d, ps in self.decode_table.items():
            if int(d) % 2 == 0 or int(d) < 1:
                raise ValueError(f"decode table keys must be odd distances, got {d}")
            if ps < 0:
                raise ValueError(f"decode table latency for d={d} must be >= 0, got {ps}")
        if self.decode_jitter_ps < 0:
            raise ValueError("decode_jitter_ps must be >= 0")

    def stage(self, name: str) -> StageLatency:
        if name == "decode":
            raise ValueError("decode latency is distance-keyed, use decode_ps()")
        return getattr(self, name)

    def decode_ps(self, distance: int) -> int:
        value, _ = decode_latency_ps(self.decode_table, distance)
        return value

    def at_distance(self, distance: int) -> dict:
        """Every stage's latency at one distance, in ``STAGE_NAMES + ROUTER_STAGE_NAMES`` order."""
        decode = StageLatency(self.decode_ps(distance), self.decode_jitter_ps)
        names = STAGE_NAMES + ROUTER_STAGE_NAMES
        return {n: decode if n == "decode" else getattr(self, n) for n in names}

    def zero_jitter(self) -> "StageLatencyConfig":
        """Copy with every jitter half-width forced to 0."""
        kwargs = {
            name: StageLatency(getattr(self, name).mean_ps, 0)
            for name in STAGE_NAMES + ROUTER_STAGE_NAMES
            if name != "decode"
        }
        return replace(self, decode_jitter_ps=0, **kwargs)


def get_profile(name: str) -> PlatformProfile:
    try:
        return PROFILES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown platform profile {name!r} (have {sorted(PROFILES)})") from None


def required_qubits(distance: int) -> int:
    """Physical qubits of the rotated code: 2*d^2 - 1."""
    if distance < 1 or distance % 2 == 0:
        raise ValueError(f"distance must be an odd integer >= 1, got {distance}")
    return 2 * distance * distance - 1


def max_qubits(profile: PlatformProfile, router_layers: int) -> int:
    """Largest qubit count the tree supports with the given router depth."""
    if router_layers < 0:
        raise ValueError("router_layers must be >= 0")
    return profile.root_ports * profile.router_children**router_layers * profile.qubits_per_leaf


def router_layers_needed(profile: PlatformProfile, distance: int) -> int:
    """Smallest router depth whose capacity covers the code.

    ValueError when no depth can: routers with one child add no capacity.
    """
    need = required_qubits(distance)
    if profile.router_children == 1 and max_qubits(profile, 0) < need:
        raise ValueError(
            f"profile {profile.name!r} cannot hold distance {distance} ({need} qubits) at "
            f"any router depth: its root holds {max_qubits(profile, 0)} and its routers "
            f"have one child each"
        )
    layers = 0
    while max_qubits(profile, layers) < need:
        layers += 1
    return layers


def decode_latency_ps(decode_table, distance: int):
    """Decoder latency for a distance, with an anchored/estimated flag.

    Distances present in the table are anchored measurements.  Between
    anchors the value is a linear interpolation; outside them it clamps to
    the nearest anchor.  Both are flagged as estimates.
    """
    if not decode_table:
        raise ValueError("decode table is empty")
    table = {int(k): int(v) for k, v in decode_table.items()}
    if distance in table:
        return table[distance], True
    anchors = sorted(table)
    if distance <= anchors[0]:
        return table[anchors[0]], False
    if distance >= anchors[-1]:
        return table[anchors[-1]], False
    lo = max(a for a in anchors if a < distance)
    hi = min(a for a in anchors if a > distance)
    value = Fraction(table[lo]) + Fraction(table[hi] - table[lo], hi - lo) * (distance - lo)
    return int(round(value)), False


def root_link(profile: PlatformProfile, uplink=LinkModel(DEFAULT_LINE_RATE_BPS)) -> LinkModel:
    """The syndrome stream's link into the root: one data uplink per root port."""
    return replace(uplink, lanes=uplink.lanes * profile.root_ports)


def decoder_peak_throughput() -> Fraction:
    """Decoder bits/s at its peak operating point (exact rational)."""
    return Fraction(DECODER_PEAK_BITS * PS_PER_SECOND, DECODER_PEAK_TIME_PS)


def syndrome_rate_required(distance: int, cycle_time_ps: int = DEFAULT_CYCLE_TIME_PS) -> Fraction:
    """Syndrome bits/s the code produces: (d^2 - 1) bits per cycle."""
    return Fraction((distance * distance - 1) * PS_PER_SECOND, cycle_time_ps)


def available_throughput(link: LinkModel) -> Fraction:
    """Lesser of the link's effective payload rate and the decoder's peak rate."""
    return min(effective_throughput(link), decoder_peak_throughput())


@dataclass(frozen=True)
class CapacityEstimate:
    """One row of the scaling analysis for a given distance."""

    distance: int
    required_qubits: int
    leaves_needed: int
    router_layers: int
    max_qubits: int
    decode_ps: int
    decode_anchored: bool
    predicted_latency_ps: int
    throughput_required_bps: Fraction
    throughput_available_bps: Fraction
    feasible: bool


def capacity_estimate(
    distance: int,
    profile: PlatformProfile,
    stages: StageLatencyConfig | None = None,
    link: LinkModel | None = None,
    cycle_time_ps: int = DEFAULT_CYCLE_TIME_PS,
) -> CapacityEstimate:
    """Full capacity/latency/throughput picture for one distance; feasible needs all three."""
    if stages is None:
        stages = StageLatencyConfig()
    if link is None:
        link = root_link(profile)
    need = required_qubits(distance)
    layers = router_layers_needed(profile, distance)
    cap = max_qubits(profile, layers)
    decode_ps, anchored = decode_latency_ps(stages.decode_table, distance)
    router_ps = stages.router_proc.mean_ps + stages.router_net.mean_ps
    latency = BASE_LATENCY_PS + decode_ps + layers * router_ps
    required_bps = syndrome_rate_required(distance, cycle_time_ps)
    available_bps = available_throughput(link)
    return CapacityEstimate(
        distance=distance,
        required_qubits=need,
        leaves_needed=-(-need // profile.qubits_per_leaf),
        router_layers=layers,
        max_qubits=cap,
        decode_ps=decode_ps,
        decode_anchored=anchored,
        predicted_latency_ps=latency,
        throughput_required_bps=required_bps,
        throughput_available_bps=available_bps,
        feasible=need <= cap and required_bps <= available_bps and latency <= cycle_time_ps,
    )
