"""Closed-form capacity, latency-extrapolation and throughput-margin math.

Everything here is pure arithmetic on platform constants: how many qubits a
given root/router configuration can host, what end-to-end latency to expect
at a given code distance, and how much throughput headroom the fabric keeps
over the syndrome stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .link_layer import PS_PER_SECOND, LinkModel, effective_throughput


@dataclass(frozen=True)
class PlatformProfile:
    """Port counts and per-layer latency add-ons of one hardware root/router mix."""

    name: str
    root_ports: int
    router_children: int = 29
    qubits_per_leaf: int = 14
    router_proc_ps: int = 45_000
    router_net_rt_ps: int = 312_000
    base_latency_ps: int = 390_000

    def __post_init__(self):
        if min(self.root_ports, self.router_children, self.qubits_per_leaf) < 1:
            raise ValueError("profile counts must be positive")

    @property
    def router_layer_ps(self) -> int:
        return self.router_proc_ps + self.router_net_rt_ps


PROFILES = {
    "zcu216": PlatformProfile("zcu216", root_ports=4),
    "vcu129": PlatformProfile("vcu129", root_ports=34),
}

#: Measured decoder latencies (ps) at the distances we have numbers for.
DEFAULT_DECODE_TABLE = {3: 56_000, 5: 65_000, 7: 90_000, 13: 250_000}

#: Peak decoder throughput reference: 440 syndrome bits in 11.5 ns.
DECODER_PEAK_BITS = 440
DECODER_PEAK_TIME_PS = 11_500

DEFAULT_CYCLE_TIME_PS = 1_000_000


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
    """Smallest router depth whose capacity covers the code."""
    need = required_qubits(distance)
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


def estimate_latency(distance: int, profile: PlatformProfile, decode_table=None) -> int:
    """Predicted end-to-end decoding-feedback latency in ps.

    Base non-decoder latency, plus the decoder's latency at this distance,
    plus per-router-layer processing and round-trip network add-ons for as
    many layers as the qubit count forces.
    """
    return capacity_estimate(distance, profile, decode_table).predicted_latency_ps


def decoder_peak_throughput(bits: int = DECODER_PEAK_BITS, time_ps: int = DECODER_PEAK_TIME_PS) -> Fraction:
    """Decoder bits/s at its peak operating point (exact rational)."""
    return Fraction(bits * PS_PER_SECOND, time_ps)


def syndrome_rate_required(distance: int, cycle_time_ps: int = DEFAULT_CYCLE_TIME_PS) -> Fraction:
    """Syndrome bits/s the code produces: (d^2 - 1) bits per cycle."""
    return Fraction((distance * distance - 1) * PS_PER_SECOND, cycle_time_ps)


def available_throughput(link: LinkModel, decoder_peak_bps=None) -> Fraction:
    """Lesser of the link's effective payload rate and the decoder's peak rate."""
    peak = decoder_peak_throughput() if decoder_peak_bps is None else Fraction(decoder_peak_bps)
    return min(effective_throughput(link), peak)


def throughput_margin(
    distance: int,
    link: LinkModel,
    decoder_peak_bps=None,
    cycle_time_ps: int = DEFAULT_CYCLE_TIME_PS,
) -> Fraction:
    """available / required throughput ratio for one distance."""
    available = available_throughput(link, decoder_peak_bps)
    return available / syndrome_rate_required(distance, cycle_time_ps)


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
    decode_table=None,
    link: LinkModel | None = None,
    cycle_time_ps: int = DEFAULT_CYCLE_TIME_PS,
) -> CapacityEstimate:
    """Full capacity/latency/throughput picture for one distance."""
    table = DEFAULT_DECODE_TABLE if decode_table is None else decode_table
    if link is None:
        link = LinkModel(10_000_000_000, lanes=profile.root_ports)
    need = required_qubits(distance)
    layers = router_layers_needed(profile, distance)
    cap = max_qubits(profile, layers)
    decode_ps, anchored = decode_latency_ps(table, distance)
    latency = profile.base_latency_ps + decode_ps + layers * profile.router_layer_ps
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
        feasible=need <= cap and required_bps <= available_bps,
    )


def extrapolation_table(distances, profile: PlatformProfile, decode_table=None, link=None):
    """Capacity estimates for each distance, in the given order."""
    return [capacity_estimate(d, profile, decode_table, link) for d in distances]
