"""Point-to-point link model with 64B/66B framing.

Captures the rate/overhead consequences of the line code (64 payload bits
carried in 66 wire bits, 3.03% overhead) plus a fixed one-way latency with
uniform jitter.  The latency and jitter apply to timer-alignment (sync)
frames; data transport time is the pipeline's measured uplink/downlink stage,
and data links contribute only their rate.  Scrambling, alignment and CRC
internals are not modeled; links are lossless and keep no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PAYLOAD_BITS_PER_FRAME = 64
WIRE_BITS_PER_FRAME = 66
PS_PER_SECOND = 10**12

#: Line rate of one transceiver lane, the default for every link (bits/s).
DEFAULT_LINE_RATE_BPS = 10_000_000_000


@dataclass(frozen=True)
class LinkModel:
    """One direction of a serial link.

    ``line_rate_bps`` is per lane; ``one_way_latency_ps`` is the mean
    propagation+processing latency and ``jitter_half_width_ps`` the half
    width of its uniform min-max spread.
    """

    line_rate_bps: int
    lanes: int = 1
    one_way_latency_ps: int = 1
    jitter_half_width_ps: int = 0

    def __post_init__(self):
        if self.one_way_latency_ps <= 0:
            raise ValueError("one-way latency mean must be positive")
        if self.lanes < 1 or self.line_rate_bps < 0 or self.jitter_half_width_ps < 0:
            raise ValueError("bad link parameters")

    @property
    def aggregate_rate_bps(self) -> int:
        return self.lanes * self.line_rate_bps


def effective_throughput(link: LinkModel) -> Fraction:
    """Usable payload bits per second: lanes x line rate x 64/66, exact."""
    return Fraction(link.aggregate_rate_bps * PAYLOAD_BITS_PER_FRAME, WIRE_BITS_PER_FRAME)


def effective_throughput_gbps(link: LinkModel, decimals: int = 3) -> float:
    """Effective throughput in Gb/s rounded to `decimals` places."""
    return round(float(effective_throughput(link)) / 1e9, decimals)


def frames_needed(payload_bits: int) -> int:
    if payload_bits < 0:
        raise ValueError("payload_bits must be >= 0")
    return -(-payload_bits // PAYLOAD_BITS_PER_FRAME)


def serialization_delay(payload_bits: int, link: LinkModel) -> int:
    """Picoseconds to clock the framed payload onto the wire (rounded up)."""
    wire_bits = frames_needed(payload_bits) * WIRE_BITS_PER_FRAME
    if wire_bits == 0:
        return 0
    rate = link.aggregate_rate_bps
    if rate <= 0:
        raise ValueError("cannot serialize on a zero-rate link")
    return -(-wire_bits * PS_PER_SECOND // rate)


def excess_serialization_delay(payload_bits: int, link: LinkModel) -> int:
    """Serialization beyond the first frame.

    Measured per-hop latencies already include clocking out a single frame,
    so only payloads spilling into extra frames add delay on top of them.
    """
    extra_frames = max(0, frames_needed(payload_bits) - 1)
    if extra_frames == 0:
        return 0
    return -(-extra_frames * WIRE_BITS_PER_FRAME * PS_PER_SECOND // link.aggregate_rate_bps)


def draw_jitter(link: LinkModel, rng) -> int:
    """Uniform integer jitter in [-half_width, +half_width], inclusive."""
    hw = link.jitter_half_width_ps
    if hw == 0:
        return 0
    return int(rng.integers(-hw, hw + 1))


def delivery_time(payload_bits: int, link: LinkModel, now: int, rng=None) -> int:
    """When a message handed to ``link`` at ``now`` arrives: serialization, plus
    the one-way mean, plus one ``draw_jitter`` draw from ``rng`` (none if None)."""
    jitter = draw_jitter(link, rng) if rng is not None else 0
    return now + serialization_delay(payload_bits, link) + link.one_way_latency_ps + jitter
