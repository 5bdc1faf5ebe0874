from fractions import Fraction

import pytest

from qecfabric import link_layer as ll
from qecfabric.code_model import rng_stream


def test_effective_throughput_reference_values():
    assert ll.effective_throughput_gbps(ll.LinkModel(10_000_000_000, lanes=4)) == 38.788
    assert ll.effective_throughput_gbps(ll.LinkModel(28_000_000_000, lanes=4), 1) == 108.6
    assert ll.effective_throughput(ll.LinkModel(0, lanes=1)) == 0


def test_efficiency_is_64_over_66():
    link = ll.LinkModel(25_000_000_000, lanes=2)
    ratio = ll.effective_throughput(link) / Fraction(link.aggregate_rate_bps)
    assert ratio == Fraction(64, 66)


def test_serialization_reference_values():
    link = ll.LinkModel(10_000_000_000, lanes=1)
    assert ll.frames_needed(13) == 1
    assert ll.frames_needed(0) == 0
    assert ll.serialization_delay(0, link) == 0
    assert ll.frames_needed(440) == 7
    # 7 frames = 462 wire bits at 10 Gb/s -> 46.2 ns
    assert ll.serialization_delay(440, link) == 46_200


def test_single_frame_payloads_add_no_excess():
    link = ll.LinkModel(10_000_000_000, lanes=4)
    for bits in (0, 1, 13, 64):
        assert ll.excess_serialization_delay(bits, link) == 0
    assert ll.excess_serialization_delay(65, link) > 0


def test_serialization_monotonicity():
    rates = [ll.LinkModel(r, lanes=n) for r in (1_000_000_000, 10_000_000_000) for n in (1, 2, 4)]
    for link in rates:
        previous = 0
        for bits in range(0, 600, 7):
            delay = ll.serialization_delay(bits, link)
            assert delay >= previous
            previous = delay
    # faster aggregate rate never slows serialization
    slow = ll.LinkModel(10_000_000_000, lanes=1)
    fast = ll.LinkModel(10_000_000_000, lanes=4)
    for bits in range(0, 600, 13):
        assert ll.serialization_delay(bits, fast) <= ll.serialization_delay(bits, slow)


def test_link_validation():
    with pytest.raises(ValueError):
        ll.LinkModel(10_000_000_000, lanes=1, one_way_latency_ps=0)
    with pytest.raises(ValueError):
        ll.LinkModel(10_000_000_000, lanes=0)


def test_jitter_draws_fill_but_never_exceed_bounds():
    link = ll.LinkModel(10_000_000_000, 1, 157_000, 16_000)
    rng = rng_stream(5, 1)
    draws = [ll.draw_jitter(link, rng) for _ in range(10_000)]
    hw = link.jitter_half_width_ps
    assert min(draws) >= -hw and max(draws) <= hw
    # with 1e4 samples over +-16000 the extremes approach the bounds
    assert min(draws) <= -hw * 0.99
    assert max(draws) >= hw * 0.99


def test_transfer_reference_latencies():
    uplink = ll.LinkModel(10_000_000_000, 1, 157_000, 0)
    downlink = ll.LinkModel(10_000_000_000, 1, 155_000, 0)
    # zero jitter, zero payload: pure transport component
    assert ll.delivery_time(0, uplink, now=0) == 157_000
    assert ll.delivery_time(0, downlink, now=0) == 155_000
