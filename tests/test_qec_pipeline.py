import concurrent.futures
import gc
import hashlib
import inspect
import itertools
import json
import re
import tracemalloc
import weakref
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecfabric import code_model as cm
from qecfabric import fabric_sim as fs
from qecfabric import qec_pipeline as qp
from qecfabric import uf_decoder as uf
from qecfabric.capacity_model import StageLatency, StageLatencyConfig
from qecfabric.config import ConfigError, ExperimentConfig
from qecfabric.link_layer import LinkModel, excess_serialization_delay
from reference import SPACELIKE, edges, fault_id

PAPER_STAGE_MEANS = {
    "leaf_agg": 29_000,
    "uplink": 157_000,
    "root_agg": 20_000,
    "decode": 56_000,
    "root_dist": 25_000,
    "downlink": 155_000,
    "leaf_dist": 9_000,
}
PAPER_STAGE_JITTER = {
    "leaf_agg": 3_000,
    "uplink": 16_000,
    "root_agg": 10_000,
    "decode": 0,
    "root_dist": 3_000,
    "downlink": 9_000,
    "leaf_dist": 1_000,
}


@pytest.mark.parametrize("d,expected", [(3, 2), (17, 42), (1, 1)])
def test_leaf_counts(d, expected):
    layout = cm.build_layout(d)
    leaf_map = qp.assign_qubits_to_leaves(layout)
    assert leaf_map.n_leaves == expected
    # every qubit lands on exactly one leaf
    owners = [leaf_map.leaf_of(q) for q in range(layout.total_qubits)]
    assert len(owners) == layout.total_qubits
    for leaf in range(leaf_map.n_leaves):
        assert all(owners[q] == leaf for q in leaf_map.owned(leaf))


@pytest.mark.parametrize("qubits_per_leaf", [1, 7, 14, 100])
@pytest.mark.parametrize("d", [1, 3, 5, 13, 21])
def test_leaf_ancillas_cover_all_syndrome_columns(d, qubits_per_leaf):
    layout = cm.build_layout(d)
    leaf_map = qp.assign_qubits_to_leaves(layout, qubits_per_leaf)
    columns = []
    for leaf in range(leaf_map.n_leaves):
        columns.extend(qp.leaf_ancilla_columns(layout, leaf_map, leaf))
    assert columns == list(range(layout.syndrome_bits_per_round))


def test_zero_jitter_shot_is_exact():
    config = ExperimentConfig(zero_jitter=True)
    report = qp.Pipeline(config).run_shot(0)
    assert report.end_to_end_ps == 451_000
    assert report.intervals == PAPER_STAGE_MEANS


def test_interval_sum_invariant_with_jitter():
    config = ExperimentConfig(shots=200, seed=5)
    result = qp.run_campaign(config)
    total = sum(result.samples[name] for name in result.stage_names)
    assert (total == result.end_to_end_ps).all()


def test_stage_spreads_within_configured_bounds():
    config = ExperimentConfig(shots=3_000, seed=8)
    result = qp.run_campaign(config)
    for name in result.stage_names:
        arr = result.samples[name]
        mean = PAPER_STAGE_MEANS[name]
        hw = PAPER_STAGE_JITTER[name]
        assert arr.min() >= mean - hw
        assert arr.max() <= mean + hw


def test_decode_interval_follows_table():
    config = ExperimentConfig(distance=5, shots=20, syndrome_source="sampled", seed=2)
    result = qp.run_campaign(config)
    assert set(result.samples["decode"].tolist()) == {65_000}


def test_bit_conservation_and_feedback():
    config = ExperimentConfig(
        distance=5, shots=1, syndrome_source="sampled", error_rate=0.05, seed=6
    )
    pipeline = qp.Pipeline(config)
    report = pipeline.run_shot(0)
    layout = pipeline.layout
    assert report.syndrome_bits_received == layout.syndrome_bits_per_round * config.effective_rounds

    # every identified error bit is sent to exactly the owning leaf
    expected = set()
    for sector in cm.SECTORS:
        parity = {}
        graph_edges = edges(pipeline.graphs[sector])
        for e_id in report.corrections[sector]:
            if graph_edges[e_id].kind == SPACELIKE:
                qubit = graph_edges[e_id].qubit
                parity[qubit] = parity.get(qubit, 0) ^ 1
        expected |= {(sector, q) for q, v in parity.items() if v}
    per_leaf = [0] * pipeline.leaf_map.n_leaves
    for _, qubit in expected:
        per_leaf[pipeline.leaf_map.leaf_of(qubit)] += 1
    assert expected and report.leaf_entries == tuple(per_leaf)
    assert sum(report.leaf_entries) == len(expected)


def dropping_one_edge(decode_defects):
    """``decode_defects`` with the lowest fault id removed from every non-empty correction."""

    def decode_dropping(graph, defects):
        ids, stats = decode_defects(graph, defects)
        return sorted(ids)[1:], stats

    return decode_dropping


def test_pipeline_checks_every_correction(monkeypatch):
    # a correction that leaves defects behind must stop the shot, not read
    # as a silent valid=False logical failure
    monkeypatch.setattr(qp, "decode_defects", dropping_one_edge(qp.decode_defects))
    config = ExperimentConfig(
        distance=5, shots=1, syndrome_source="sampled", error_rate=0.05, seed=6
    )
    with pytest.raises(ValueError, match="correction does not annihilate"):
        qp.Pipeline(config).run_shot(0)


def test_shot_prices_only_the_downlink_serialization(monkeypatch):
    # a leaf's uplink payload and the uplink are fixed per pipeline, and a
    # downlink message holds 0 to 2 * qubits_per_leaf entries, so both links
    # are priced while the pipeline is built and a shot only reads the prices
    calls = []

    def recording(payload_bits, link):
        calls.append((payload_bits, link))
        return excess(payload_bits, link)

    excess = qp.excess_serialization_delay
    monkeypatch.setattr(qp, "excess_serialization_delay", recording)
    pipeline = qp.Pipeline(ExperimentConfig(distance=5, router_layers=1))
    config, n_leaves = pipeline.config, pipeline.leaf_map.n_leaves
    sizes = list(range(2 * pipeline.leaf_map.qubits_per_leaf + 1))
    uplinks, downlinks = [config.uplink] * n_leaves, [config.downlink] * (len(sizes) + 1)
    assert [link for _, link in calls] == uplinks + downlinks
    assert [bits for bits, _ in calls[n_leaves:]] == sizes + [2 * pipeline.leaf_map.qubits_per_leaf]
    calls.clear()
    pipeline.run_shot(0)
    assert calls == []


def test_link_prices_grow_with_the_code_not_with_qubits_per_leaf(monkeypatch):
    # a leaf owns at most the code's 9 data qubits, so a d=3 pipeline prices
    # its one uplink message, downlink messages of 0 to 18 entries, and the
    # 20 000-entry bound that Pipeline.windows states
    calls = []
    excess = qp.excess_serialization_delay
    monkeypatch.setattr(qp, "excess_serialization_delay",
                        lambda bits, link: calls.append(bits) or excess(bits, link))
    pipeline = qp.Pipeline(ExperimentConfig(qubits_per_leaf=10_000))
    assert calls == [8] + list(range(19)) + [20_000]
    assert pipeline.windows["downlink"][2] == 164_000 + excess(20_000, pipeline.config.downlink)


def expected_leaf_corrections(pipeline, corrections):
    """Per leaf, the (sector, qubit) entries of odd per-qubit correction parity."""
    per_leaf = {leaf: [] for leaf in range(pipeline.leaf_map.n_leaves)}
    for sector in cm.SECTORS:
        parity = {}
        graph_edges = edges(pipeline.graphs[sector])
        for e_id in corrections[sector].fault_ids:
            if graph_edges[e_id].kind == SPACELIKE:
                parity[graph_edges[e_id].qubit] = parity.get(graph_edges[e_id].qubit, 0) ^ 1
        for qubit in sorted(q for q, v in parity.items() if v):
            per_leaf[pipeline.leaf_map.leaf_of(qubit)].append((sector, qubit))
    return {leaf: tuple(entries) for leaf, entries in per_leaf.items()}


def test_pipeline_memo_matches_reference_loop(monkeypatch):
    # at p=0.004 about an eighth of 400 d=5 shots repeat an earlier syndrome,
    # and a 4-entry memo clears dozens of times
    bound = 4
    monkeypatch.setattr(qp, "_DECODE_MEMO_ENTRIES", bound)
    decodes = []
    real = qp.decode_defects
    monkeypatch.setattr(qp, "decode_defects",
                        lambda graph, defects: decodes.append(1) or real(graph, defects))
    config = ExperimentConfig(distance=5, syndrome_source="sampled", error_rate=0.004, seed=3)
    pipeline = qp.Pipeline(config)
    reference = qp.Pipeline(config)
    shots = 400
    failures = 0
    for shot in range(shots):
        report = pipeline.run_shot(shot)
        assert all(len(memo) <= bound for memo in pipeline._memos.values())
        graphs = reference.graphs
        syndrome, patterns = cm.empty_syndrome(reference.layout, config.effective_rounds), {}
        for k, sector in enumerate(cm.SECTORS):
            patterns[sector] = cm.sample_errors(
                graphs[sector], config.error_rate, config.seed, stream=(qp._STREAM_SAMPLE, shot, k)
            )
            syndrome = syndrome ^ cm.syndrome_of(patterns[sector], graphs[sector])
        corrections = {s: uf.decode(graphs[s], syndrome) for s in cm.SECTORS}
        assert all(uf.is_valid(corrections[s], syndrome, graphs[s]) for s in cm.SECTORS)
        failure = any(uf.is_logical_failure(patterns[s], corrections[s]) for s in cm.SECTORS)
        assert report.logical_failure == failure
        assert report.corrections == {s: corrections[s].fault_ids for s in cm.SECTORS}
        applied = expected_leaf_corrections(reference, corrections)
        assert report.leaf_entries == tuple(len(applied[leaf]) for leaf in sorted(applied))
        assert sum(report.leaf_entries) == sum(len(e) for e in applied.values())
        failures += failure
    assert failures > 0
    assert len(decodes) < 2 * shots  # some shots were served by the memo


def test_memo_entries_at_d13_match_their_corrections():
    # the reference loop above runs at d=5; this checks the chunk-wide leaf
    # entry counts on the 25 leaves of d=13 behind one router layer.  At 14
    # qubits per leaf every real price is 0, so a strictly increasing table
    # stands in, and with zero jitter and aligned clocks a shot's downlink
    # interval is the stage mean plus its largest leaf's price.
    config = ExperimentConfig(
        distance=13, router_layers=1, syndrome_source="sampled", error_rate=1e-3, seed=1,
        zero_jitter=True, clock_offset_bound_ps=0,
    )
    pipeline = qp.Pipeline(config)
    reference = qp.Pipeline(config)
    pipeline._downlink_excess_ps = 1000 * np.arange(len(pipeline._downlink_excess_ps))
    shots = 60
    result = pipeline.run_range(0, shots)
    mean = config.stage_latency.downlink.mean_ps
    largest = []
    for shot in range(shots):
        syndrome, patterns = cm.empty_syndrome(reference.layout, config.effective_rounds), {}
        for k, sector in enumerate(cm.SECTORS):
            graph = reference.graphs[sector]
            patterns[sector] = cm.sample_errors(
                graph, config.error_rate, config.seed, stream=(qp._STREAM_SAMPLE, shot, k)
            )
            syndrome = syndrome ^ cm.syndrome_of(patterns[sector], graph)
        corrections = {s: uf.decode(reference.graphs[s], syndrome) for s in cm.SECTORS}
        entries = expected_leaf_corrections(reference, corrections)
        largest.append(max(len(owned) for owned in entries.values()))
    assert result.samples["downlink"].tolist() == [mean + 1000 * k for k in largest]
    assert max(largest) > 1


def test_memo_hit_keeps_the_per_shot_logical_check(monkeypatch):
    # two shots with one non-empty syndrome: one fault e, then e plus a
    # logical operator; the second is a memo hit whose residual still fails
    decodes = []
    real = qp.decode_defects
    monkeypatch.setattr(qp, "decode_defects",
                        lambda graph, defects: decodes.append(defects) or real(graph, defects))
    config = ExperimentConfig(distance=3, syndrome_source="sampled")
    pipeline = qp.Pipeline(config)
    graph = pipeline.graphs[cm.SECTOR_X]
    # round-0 faults on the top row of data qubits: an X-sector logical operator
    logical = cm.pattern_from_fault_ids(
        graph, [fault_id(graph, (q, 0), SPACELIKE) for q in range(config.distance)]
    )
    assert cm.syndrome_of(logical, graph).total_weight == 0
    assert len(logical.fault_ids & graph.crossing_ids) == 1
    fault = fault_id(graph, (0, 1), SPACELIKE)
    assert cm.syndrome_of(cm.pattern_from_fault_ids(graph, [fault]), graph).total_weight > 0
    rows = {}
    for shot, x_faults in ((0, [fault]), (1, [fault, *sorted(logical.fault_ids)])):
        rows[shot] = [np.zeros((1, pipeline.graphs[s].n_edges), dtype=bool) for s in cm.SECTORS]
        rows[shot][0][0, x_faults] = True
    monkeypatch.setattr(pipeline, "_chunk_faults", lambda shots: rows[int(shots[0])])
    assert not pipeline.run_shot(0).logical_failure
    assert pipeline.run_shot(1).logical_failure
    assert len(decodes) == 1


def test_campaign_reports_match_single_shots():
    config = ExperimentConfig(shots=5, seed=9)
    result = qp.run_campaign(config)
    pipeline = qp.Pipeline(config)
    for shot in range(5):
        report = pipeline.run_shot(shot)
        assert report.end_to_end_ps == result.end_to_end_ps[shot]


def test_campaign_is_job_count_invariant():
    config = ExperimentConfig(shots=40, seed=4)
    sequential = qp.run_campaign(replace(config, jobs=1))
    parallel = qp.run_campaign(replace(config, jobs=3))
    assert (sequential.end_to_end_ps == parallel.end_to_end_ps).all()
    for name in sequential.stage_names:
        assert (sequential.samples[name] == parallel.samples[name]).all()


def test_campaign_worker_count_is_bounded(monkeypatch):
    config = ExperimentConfig(seed=4)
    with pytest.raises(ValueError, match="jobs"):
        qp.run_campaign(replace(config, shots=3, jobs=0))
    asked = []

    class InlinePool:
        """Records the requested worker count and runs every task in this process."""

        def __init__(self, max_workers, mp_context=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    serial = qp.run_campaign(replace(config, shots=3, jobs=1))
    assert asked == []
    for cpus, workers in ((8, 3), (2, 2)):
        monkeypatch.setattr(qp.os, "cpu_count", lambda: cpus)
        result = qp.run_campaign(replace(config, shots=3, jobs=64))
        assert asked.pop() == workers
        assert result.n_shots == 3 and result.stage_names == serial.stage_names
        for name in serial.stage_names:
            assert (result.samples[name] == serial.samples[name]).all()
        assert (result.end_to_end_ps == serial.end_to_end_ps).all()
        assert (result.valid == serial.valid).all()
        assert (result.failures == serial.failures).all()


@pytest.mark.parametrize("overrides, shots, workers", [
    # one cycle per shot: each range starts where the serial run starts it
    ({"cycle_time_ps": 999_983}, 4_000, 3),
    # d=13/L1 shots overrun a 1 us cycle, so a drifting campaign runs as one range
    ({"distance": 13, "router_layers": 1}, 300, 1),
    # without drift the absolute start of a range changes no interval
    ({"distance": 13, "router_layers": 1, "drift_ppm": 0}, 300, 3),
    # a shot whose every stage draws 0 ps takes no cycle, which shifts the later shots
    ({"cycle_time_ps": 999_983, "drift_ppm": 333_333, "stage_latency": StageLatencyConfig(
        **dict.fromkeys(["leaf_agg", "uplink", "root_agg", "root_dist", "downlink", "leaf_dist"],
                        StageLatency(1, 1)), decode_table={3: 0})}, 4_000, 1),
])
def test_campaign_with_drifting_clocks_is_job_count_invariant(monkeypatch, overrides, shots,
                                                              workers):
    config = ExperimentConfig(**dict(
        {"drift_ppm": 50, "clock_offset_bound_ps": 20_000}, **overrides))
    serial = qp.run_campaign(replace(config, shots=shots, jobs=1))
    asked = []

    def inline(fn, tasks, n):
        asked.append(n)
        return [fn(*task) for task in tasks]

    monkeypatch.setattr(qp.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(qp, "_run_tasks", inline)
    parallel = qp.run_campaign(replace(config, shots=shots, jobs=3))
    assert asked == [workers]
    assert campaign_digest(parallel) == campaign_digest(serial)


def campaign_digest(result):
    """sha256 over every per-shot array of a campaign, in stage-name order."""
    digest = hashlib.sha256()
    for name in result.stage_names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(result.samples[name], dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(result.end_to_end_ps, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(result.valid, dtype=np.uint8).tobytes())
    digest.update(np.ascontiguousarray(result.failures, dtype=np.uint8).tobytes())
    return digest.hexdigest()


# Per-shot campaign digests pinned before the pipeline memoized decodes by
# syndrome (the two router-layer ones before the boundary chain replaced the
# per-layer interval rebuild): (config overrides, shots) -> campaign_digest.
# The golden reports hash only summary statistics; these pin every shot.
PINNED_CAMPAIGN_DIGESTS = [
    ({"seed": 7}, 500, "98cb61ee07671a769f5eca55fbb056f2509461f3d35b1147064fcd6e2de9ef06"),
    (
        {"distance": 13, "router_layers": 1},
        20,
        "eaeb3a2d470245a12fb0a79e88c2722e2b77286ade7bb1446ed7a2ea3c3cd242",
    ),
    (
        {"distance": 5, "syndrome_source": "sampled", "error_rate": 0.02},
        200,
        "1a5ffe816f4164a45ab5e917a665042654a92dd21c4566655d2246172d4c1427",
    ),
    # two router layers pin the per-level order of the up and down boundaries:
    # jittered router stages, then per-node clocks that drift apart from ideal time
    (
        {
            "router_layers": 2,
            "stage_latency": StageLatencyConfig(
                router_proc=StageLatency(45_000, 6_000), router_net=StageLatency(312_000, 20_000)
            ),
        },
        300,
        "1b36eed0b25960e73930683f42c788d719e9e69840ea35eae465315d174f498e",
    ),
    (
        {"router_layers": 2, "drift_ppm": 40},
        300,
        "f268c6fa758c06df4ce11b890dca92121c8022e570a036273aebd895c77f50de",
    ),
    # the only pins whose leaf messages spill past one 64-bit frame, so the
    # leaves differ in serialization time: slow data links under unaligned,
    # drifting clocks, then three sampled-syndrome router layers
    (
        {
            "distance": 13,
            "qubits_per_leaf": 100,
            "uplink": LinkModel(100_000_000),
            "downlink": LinkModel(100_000_000),
            "sync_at_start": False,
            "drift_ppm": -25,
            "error_rate": 0.01,
        },
        200,
        "32cfa4930f17d3d7cc11efa25bd4ff0961aeae70b6059cf834eb31a8bfced60c",
    ),
    (
        {
            "router_layers": 3,
            "syndrome_source": "sampled",
            "error_rate": 0.01,
            "stage_latency": StageLatencyConfig(
                router_proc=StageLatency(45_000, 6_000), router_net=StageLatency(312_000, 20_000)
            ),
        },
        200,
        "df69459c849529b211e0af3558ef32c05b9dc716217550149de18dbd665c27fe",
    ),
    # a seed of 2**32 or more: SeedSequence hashes its two words, pinned when
    # every stream of such a seed was built one by one
    (
        {"seed": 12_345_000_001},
        500,
        "b12e8ebce3eef9cdb2e472c360b923cacb50ecd2ea8e9c2724793cc7ff2f2624",
    ),
    (
        {"seed": 12_345_000_001, "distance": 5, "syndrome_source": "sampled", "error_rate": 0.02},
        200,
        "15b16a7445bb007e4eb6cf50aad8adbec3c74978de3f70d47099c6207c1e38d3",
    ),
]


@pytest.mark.parametrize("overrides, shots, digest", PINNED_CAMPAIGN_DIGESTS)
def test_campaign_reproduces_pinned_digest(overrides, shots, digest):
    config = ExperimentConfig(**overrides, shots=shots, jobs=1)
    assert campaign_digest(qp.run_campaign(config)) == digest


@pytest.mark.parametrize(
    "overrides, shots",
    [(overrides, shots) for overrides, shots, _ in PINNED_CAMPAIGN_DIGESTS[-2:]]
    + [({"seed": 1_000_001}, 500)],
)
def test_campaign_builds_only_the_sync_stream(overrides, shots, monkeypatch):
    # every shot's streams come from the batched keys, whatever the seed's width
    built = []

    def counting(*args):
        built.append(args)
        return cm.rng_stream(*args)

    monkeypatch.setattr(qp, "rng_stream", counting)
    config = ExperimentConfig(**overrides, shots=shots, jobs=1)
    qp.run_campaign(config)
    assert built == [(config.seed, qp._STREAM_SYNC)]


def test_campaign_repeatable():
    config = ExperimentConfig(shots=50, seed=12)
    a = qp.run_campaign(config)
    b = qp.run_campaign(config)
    assert (a.end_to_end_ps == b.end_to_end_ps).all()
    assert (a.failures == b.failures).all()


def test_router_layer_adds_exactly_the_configured_overhead():
    # d=3 fits under one router on the prototype root, making the add-on visible
    config = ExperimentConfig(router_layers=1, zero_jitter=True)
    report = qp.Pipeline(config).run_shot(0)
    assert report.intervals["router_proc"] == 45_000
    assert report.intervals["router_net"] == 312_000
    assert report.end_to_end_ps == 451_000 + 357_000


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_boundary_chain_yields_every_interval(layers):
    # each router level adds a processing and a network stage on the way up
    # and again on the way down, so at zero jitter a router stage reads its
    # per-layer mean once per layer
    config = ExperimentConfig(router_layers=layers, zero_jitter=True)
    pipeline = qp.Pipeline(config)
    report = pipeline.run_shot(0)
    assert len(pipeline.chain) == 8 + 4 * layers
    expected = dict(PAPER_STAGE_MEANS)
    if layers:
        expected.update(router_proc=45_000 * layers, router_net=312_000 * layers)
    assert report.intervals == expected
    assert report.end_to_end_ps == 451_000 + 357_000 * layers


def test_campaign_refuses_a_small_tree_before_starting_workers(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("started a worker pool for a tree that cannot host the code")

    monkeypatch.setattr(qp.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    with pytest.raises(qp.CapacityError, match="router layer"):
        qp.run_campaign(ExperimentConfig(distance=13, shots=10, jobs=2))


def test_capacity_error_directs_to_router_layer():
    config = ExperimentConfig(distance=17, syndrome_source="sampled")
    with pytest.raises(qp.CapacityError, match="router layer"):
        qp.Pipeline(config).run_shot(0)
    # the same code fits once a router layer is added on the larger root
    routed = ExperimentConfig(
        distance=17, profile="vcu129", router_layers=1, syndrome_source="sampled",
        zero_jitter=True,
    )
    qp.Pipeline(routed).run_shot(0)


def search_worst_case_d3():
    """Per sector, the weight <= 2 fault ids whose decode grows longest (ties to the smallest ids)."""
    layout = cm.build_layout(3)
    found = {}
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, 3)

        def key(ids):
            syn = cm.syndrome_of(cm.pattern_from_fault_ids(graph, ids), graph)
            return -uf.decode_with_stats(graph, syn)[1].growth_iterations, ids

        candidates = itertools.chain(
            ((i,) for i in range(graph.n_edges)), itertools.combinations(range(graph.n_edges), 2)
        )
        found[sector] = min(candidates, key=key)
    return found


def test_worst_case_syndrome_properties():
    assert search_worst_case_d3() == qp._WORST_D3_FAULT_IDS
    syn, patterns = qp._worst_case_d3()
    assert syn == qp.worst_case_d3_syndrome()
    assert syn.total_weight > 0
    layout = cm.build_layout(3)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, 3)
        assert patterns[sector].fault_ids == frozenset(qp._WORST_D3_FAULT_IDS[sector])
        own = cm.syndrome_of(patterns[sector], graph)
        assert (own.sector_bits(sector) == syn.sector_bits(sector)).all()
        assert uf.is_valid(uf.decode(graph, syn), syn, graph)


def test_run_shot_uses_synced_timers():
    # random initial offsets are aligned before the shot, leaving exact stages
    config = ExperimentConfig(zero_jitter=True, clock_offset_bound_ps=1_000_000)
    pipeline = qp.Pipeline(replace(config, seed=31))
    assert max(abs(v) for v in pipeline.fabric.residuals(pipeline.now).values()) == 0
    assert pipeline.run_shot(0).end_to_end_ps == 451_000


def test_jittered_sync_links_reproduce_pinned_residuals():
    # the one pin whose sync frames draw jitter, down then up on each of the
    # 26 edges of d=13 behind a router layer, with a 6 ns asymmetry; pinned
    # while each sync link direction still clamped its deliveries to FIFO order
    config = ExperimentConfig(
        distance=13, router_layers=1, seed=5,
        sync_uplink=LinkModel(10_000_000_000, 1, 156_000, 20_000),
        sync_downlink=LinkModel(10_000_000_000, 1, 150_000, 20_000),
    )
    pipeline = qp.Pipeline(config)
    residuals = pipeline.fabric.residuals(pipeline.now)
    digest = hashlib.sha256(json.dumps(sorted(residuals.items())).encode()).hexdigest()
    assert digest == "3925edd5f5d95f045b01a81720839e3436bfe74a3cfb7940bf2964958644ecb1"
    assert pipeline.now == 8_252_647
    assert max(abs(v) for v in residuals.values()) == 27_535


def test_pipeline_freed_when_last_reference_goes(monkeypatch):
    # with the cycle collector off, a pipeline that is still alive after its
    # last reference is dropped is held by a reference cycle
    refs = []

    class Tracked(qp.Pipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(qp, "Pipeline", Tracked)
    config = ExperimentConfig()
    gc.disable()
    try:
        pipeline = Tracked(config)
        pipeline.run_shot(0)
        del pipeline
        assert refs[0]() is None
        qp.run_campaign(replace(config, shots=2, jobs=1))
        assert len(refs) == 2 and refs[1]() is None
    finally:
        gc.enable()


def test_wilson_interval_basics():
    lo, hi = qp.wilson_interval(0, 100)
    assert lo < 1e-9 and 0 < hi < 0.05
    lo, hi = qp.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    # exact at the ends, where rounding left 1.7e-18 or 0.9999999999999998
    for n in (1, 7, 100, 200, 300, 400, 1_000):
        assert qp.wilson_interval(0, n)[0] == 0.0 and 0.0 < qp.wilson_interval(0, n)[1] < 1.0
        assert qp.wilson_interval(n, n)[1] == 1.0 and 0.0 < qp.wilson_interval(n, n)[0] < 1.0


def test_ler_campaign_zero_rate():
    est = qp.ler_campaign(3, 0.0, shots=2_000, seed=1)
    assert est.failures == 0
    assert est.rate == 0.0


def test_ler_campaign_random_guess_regime():
    # at p=0.5 each sector's logical class is a coin flip; with two sectors
    # the combined failure rate sits near 1 - 0.25 = 0.75
    est = qp.ler_campaign(3, 0.5, shots=2_000, seed=2)
    assert 0.6 < est.rate < 0.9


def test_ler_campaign_reproducible_and_batch_stable():
    a = qp.ler_campaign(3, 0.02, shots=3_000, seed=7)
    b = qp.ler_campaign(3, 0.02, shots=3_000, seed=7)
    assert a.failures == b.failures


# Failure counts measured before corrections were memoized by syndrome and
# residuals were checked in numpy: (distance, p, shots, seed, rounds, batch),
# where batch is the ``_LER_BATCH`` the count was drawn with.
PINNED_LER_FAILURES = [
    ((3, 0.02, 3_000, 7, None, 8192), 245),
    ((3, 0.5, 2_000, 2, None, 8192), 1458),
    ((5, 0.01, 20_000, 3, None, 8192), 299),
    ((7, 0.01, 5_000, 1, None, 8192), 31),
    ((3, 0.03, 20_000, 5, 1, 8192), 610),
    ((5, 0.005, 10_000, 9, 8, 1000), 36),
    ((5, 0.004, 20_000, 4, None, 3000), 23),
]


@pytest.mark.parametrize("args, failures", PINNED_LER_FAILURES)
def test_ler_campaign_pinned_failures(args, failures, monkeypatch):
    distance, p, shots, seed, rounds, batch = args
    monkeypatch.setattr(qp, "_LER_BATCH", batch)
    est = qp.ler_campaign(distance, p, shots, seed=seed, rounds=rounds)
    assert est.failures == failures


def _reference_ler_failures(distance, p, shots, seed, batch):
    """Per-shot loop through ErrorPattern and is_logical_failure, no memo."""
    layout = cm.build_layout(distance)
    failed = np.zeros(shots, dtype=bool)
    for k, sector in enumerate(cm.SECTORS):
        graph = cm.build_decoding_graph(layout, sector, distance)
        for b, lo in enumerate(range(0, shots, batch)):
            n = min(batch, shots - lo)
            rng = cm.rng_stream(seed, qp._STREAM_LER, distance, k, b)
            bits = rng.random((n, graph.n_edges)) < p
            for i in range(n):
                pattern = cm.pattern_from_fault_ids(graph, np.flatnonzero(bits[i]).tolist())
                corr = uf.decode(graph, cm.syndrome_of(pattern, graph))
                failed[lo + i] |= uf.is_logical_failure(pattern, corr)
    return int(failed.sum())


def test_ler_campaign_matches_reference_loop_when_memo_clears(monkeypatch):
    # 40-shot batches clear the 40-entry memo many times within and across batches
    monkeypatch.setattr(qp, "_LER_BATCH", 40)
    est = qp.ler_campaign(3, 0.05, 600, seed=11)
    assert est.failures == _reference_ler_failures(3, 0.05, 600, 11, 40)
    assert est.failures > 0


def test_a_run_takes_no_input_beside_its_config():
    # the config a caller holds, and hashes into its report, is the one that runs
    assert list(inspect.signature(qp.run_campaign).parameters) == ["config"]
    assert list(inspect.signature(qp.Pipeline).parameters) == ["config"]
    # the bench's positional call; the batch is the module's ``_LER_BATCH``
    assert list(inspect.signature(qp.ler_campaign).parameters) == [
        "distance", "error_rate", "shots", "seed", "rounds", "jobs"
    ]


def test_a_negative_seed_argument_is_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("built before validating the seed")

    monkeypatch.setattr(qp, "build_layout", no_work)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        qp.Pipeline(replace(ExperimentConfig(), seed=-1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"distance": 1},
        {"distance": 4},
        {"shots": 0},
        {"error_rate": 1.5},
        {"error_rate": -0.1},
        {"error_rate": float("nan")},
        {"rounds": 0},
        {"jobs": 0},
        {"seed": -1},
    ],
)
def test_ler_campaign_rejects_bad_inputs(kwargs, monkeypatch):
    def no_work(*args):
        raise AssertionError("built or sampled before validating inputs")

    monkeypatch.setattr(qp, "build_layout", no_work)
    monkeypatch.setattr(qp, "rng_stream", no_work)
    args = dict(distance=3, error_rate=0.01, shots=100, seed=1) | kwargs
    with pytest.raises(ValueError):
        qp.ler_campaign(**args)


#: Each run rule of ``ExperimentConfig.validate()``: a value it refuses, and its message.
RUN_RULES = [
    ("distance", 4, "distance must be an odd integer >= 3, got 4"),
    ("rounds", 0, "rounds must be >= 1"),
    ("error_rate", 1.5, "error_rate must be a probability"),
    ("shots", 0, "shots must be >= 1"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("jobs", 0, "jobs must be >= 1"),
]

#: Every way a run's parameters reach a config, given one field's value.
RUN_BUILDERS = {
    "ExperimentConfig": lambda field, value: ExperimentConfig(**{field: value}),
    "replace": lambda field, value: replace(ExperimentConfig(), **{field: value}),
    "ler_campaign": lambda field, value: qp.ler_campaign(
        **{"distance": 3, "error_rate": 0.01, "shots": 100, "seed": 1, field: value}),
    "run_campaign": lambda field, value: qp.run_campaign(
        replace(ExperimentConfig(), **{field: value})),
}


@pytest.mark.parametrize("builder, field, value, message", [
    (builder, *rule) for builder in RUN_BUILDERS for rule in RUN_RULES
    # callers give a campaign its own shots, seed or jobs through ``replace``
    if builder != "run_campaign" or rule[0] in ("shots", "seed", "jobs")
])
def test_each_run_rule_refuses_its_bad_value_wherever_a_run_is_built(
    builder, field, value, message, monkeypatch
):
    def no_work(*args):
        raise AssertionError("built or ran before validating the config")

    monkeypatch.setattr(qp, "build_layout", no_work)
    monkeypatch.setattr(qp, "_run_tasks", no_work)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RUN_BUILDERS[builder](field, value)


def test_a_campaign_beyond_the_shot_table_is_refused_whole_before_any_worker(monkeypatch):
    # each half of this d=3 campaign fits the int64 table on its own; the whole does not
    half = 3_500_000_000_000
    qp.Pipeline(ExperimentConfig())._check_table_fits(half)

    def no_pool(*args):
        raise AssertionError("started the workers before refusing the campaign")

    monkeypatch.setattr(qp, "_run_tasks", no_pool)
    monkeypatch.setattr(qp.os, "cpu_count", lambda: 2)
    with pytest.raises(ConfigError, match="beyond the int64 range of the shot table"):
        qp.run_campaign(ExperimentConfig(shots=2 * half, jobs=2))


@pytest.mark.parametrize(
    "overrides, shots",
    [({"distance": 5, "syndrome_source": "sampled", "error_rate": 0.01, "seed": 4}, 120),
     ({"distance": 13, "router_layers": 1, "syndrome_source": "sampled", "seed": 2}, 60)],
)
def test_consecutive_campaigns_in_one_process_are_equal(overrides, shots):
    config = ExperimentConfig(**overrides, shots=shots, jobs=1)
    first = qp.run_campaign(config)
    second = qp.run_campaign(config)
    assert second.stage_names == first.stage_names
    for name in first.stage_names:
        assert np.array_equal(second.samples[name], first.samples[name])
    for field in ("end_to_end_ps", "valid", "failures"):
        assert np.array_equal(getattr(second, field), getattr(first, field))


def test_ler_campaign_holds_no_graph_after_it_returns(monkeypatch):
    # a distance sweep must not keep each finished code's graphs alive
    built = []

    def build(*args):
        graph = cm.DecodingGraph(*args)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(qp, "DecodingGraph", build)
    qp.ler_campaign(5, 0.01, 200, seed=3)
    assert len(built) == 2  # one graph per sector
    assert all(graph() is None for graph in built)


def test_pipeline_graphs_die_with_the_pipeline():
    pipeline = qp.Pipeline(ExperimentConfig(distance=5, syndrome_source="sampled"))
    pipeline.run_range(0, 20)
    graphs = [weakref.ref(graph) for graph in pipeline.graphs.values()]
    layout = weakref.ref(pipeline.layout)
    del pipeline
    gc.collect()
    assert all(graph() is None for graph in graphs) and layout() is None


def test_ler_campaign_jobs_match_serial(monkeypatch):
    # three batches, so two workers each get a batch range; they take the
    # batch size from their task, not from their own import of the module
    monkeypatch.setattr(qp, "_LER_BATCH", 1000)
    serial = qp.ler_campaign(3, 0.02, 3_000, seed=7, jobs=1)
    parallel = qp.ler_campaign(3, 0.02, 3_000, seed=7, jobs=2)
    assert parallel == serial
    assert serial.failures == 237


class BoundedMemo(dict):
    """A decode memo that fails the moment it holds more than ``bound`` entries."""

    def __init__(self, bound):
        super().__init__()
        self.bound = bound

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        assert len(self) <= self.bound


@st.composite
def repeating_chunks(draw):
    """A fault matrix whose rows repeat a few distinct rows, split into two chunks."""
    d = draw(st.sampled_from([3, 5, 7]))
    rounds, sector = draw(st.integers(1, 3)), draw(st.sampled_from(cm.SECTORS))
    graph = cm.build_decoding_graph(cm.build_layout(d), sector, rounds)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1]))
    distinct = rng.random((draw(st.integers(1, 5)), graph.n_edges)) < p
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=24))
    cut = draw(st.integers(1, len(picks) - 1))
    return graph, distinct[picks], cut, draw(st.sampled_from([1, 2, 3]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(repeating_chunks())
def test_chunk_failures_match_a_per_row_decode(instance):
    graph, faults, cut, bound = instance
    memo = BoundedMemo(bound)
    pairs, failed = [], []
    for lo, chunk in ((0, faults[:cut]), (cut, faults[cut:])):
        chunk_failed, rows, which, fixes = qp._chunk_failures(
            graph, np.flatnonzero(chunk), len(chunk), memo, bound
        )
        pairs += [(row + lo, e) for row, j in zip(rows.tolist(), which.tolist())
                  for e in fixes[j].tolist()]
        failed += chunk_failed.tolist()
    expected_pairs, expected_failed = [], []
    for i, row in enumerate(faults):
        pattern = cm.pattern_from_fault_ids(graph, np.flatnonzero(row).tolist())
        ids, _ = uf.decode_defects(graph, cm.syndrome_of(pattern, graph).defect_vertices(graph))
        expected_pairs += [(i, e) for e in ids]
        correction = cm.pattern_from_fault_ids(graph, ids)
        expected_failed.append(uf.is_logical_failure(pattern, correction))
    assert pairs == expected_pairs
    assert failed == expected_failed


def poison(memo):
    """Replace every memo entry with its correction minus its first fault id."""
    for key, ids in memo.items():
        memo[key] = ids[1:]


def no_decoding(graph, defects):
    raise AssertionError("decoded a row the memo holds")


def test_a_poisoned_memo_entry_raises_on_a_hit(monkeypatch):
    # a memo hit is judged like a miss, so a wrong stored correction cannot
    # pass as a silent logical failure
    graph = cm.build_decoding_graph(cm.build_layout(5), cm.SECTOR_X, 5)
    faults = np.random.default_rng(2).random((64, graph.n_edges)) < 0.01
    memo = {}
    qp._chunk_failures(graph, np.flatnonzero(faults), len(faults), memo, 1024)
    assert memo
    poison(memo)
    monkeypatch.setattr(qp, "decode_defects", no_decoding)
    with pytest.raises(ValueError, match="does not annihilate"):
        qp._chunk_failures(graph, np.flatnonzero(faults), len(faults), memo, 1024)


def test_a_poisoned_pipeline_memo_raises_on_a_hit(monkeypatch):
    pipeline = qp.Pipeline(ExperimentConfig(syndrome_source="worst_case"))
    pipeline.run_range(0, 16)
    for memo in pipeline._memos.values():
        assert memo
        poison(memo)
    monkeypatch.setattr(qp, "decode_defects", no_decoding)
    with pytest.raises(ValueError, match="does not annihilate"):
        pipeline.run_range(16, 32)


def test_ler_campaign_checks_every_residual(monkeypatch):
    monkeypatch.setattr(qp, "decode_defects", dropping_one_edge(qp.decode_defects))
    with pytest.raises(ValueError, match="does not annihilate"):
        qp.ler_campaign(3, 0.02, 500, seed=7)


D13_SAMPLED = dict(distance=13, router_layers=1, syndrome_source="sampled", error_rate=1e-3, seed=1)


def test_settled_corrections_are_checked(monkeypatch):
    # a settled row never reaches decode_defects, so the tampered decode
    # above cannot reach it: tamper with the settle pass instead
    settle_rows = qp.settle_rows

    def settle_dropping(graph, defect_rows):
        fixes, declined = settle_rows(graph, defect_rows)
        return [None if ids is None else ids[1:] for ids in fixes], declined

    monkeypatch.setattr(qp, "settle_rows", settle_dropping)
    with pytest.raises(ValueError, match="does not annihilate"):
        qp.Pipeline(ExperimentConfig(**D13_SAMPLED).validate()).run_range(0, 50)
    with pytest.raises(ValueError, match="does not annihilate"):
        qp.ler_campaign(5, 1e-3, 8192, seed=1)


def test_a_one_miss_chunk_skips_the_settle_pass(monkeypatch):
    def refusing(graph, defect_rows):
        raise AssertionError("a chunk of one miss went through settle_rows")

    decodes = []
    real = qp.decode_defects
    monkeypatch.setattr(qp, "settle_rows", refusing)
    monkeypatch.setattr(qp, "decode_defects",
                        lambda graph, defects: decodes.append(1) or real(graph, defects))
    config = ExperimentConfig(distance=5, syndrome_source="sampled", error_rate=0.05)
    qp.Pipeline(config).run_shot(0)
    assert len(decodes) == 2  # one miss per sector
    decodes.clear()
    # the worst-case d=3 source repeats one row per sector: one miss each, then hits
    qp.Pipeline(ExperimentConfig(syndrome_source="worst_case")).run_range(0, 1000)
    assert len(decodes) == 2


def test_most_d13_misses_are_settled(monkeypatch):
    # at p=1e-3 most defect rows are isolated single faults; a narrower rule
    # or a lost pass would keep every output and show only here
    settled, decodes = [], []
    settle_rows, decode_defects = qp.settle_rows, qp.decode_defects

    def counting(graph, defect_rows):
        fixes, declined = settle_rows(graph, defect_rows)
        settled.append(len(fixes) - len(declined))
        return fixes, declined

    monkeypatch.setattr(qp, "settle_rows", counting)
    monkeypatch.setattr(qp, "decode_defects",
                        lambda graph, defects: decodes.append(1) or decode_defects(graph, defects))
    qp.Pipeline(ExperimentConfig(**D13_SAMPLED)).run_range(0, 100)
    assert sum(settled) >= 0.85 * (sum(settled) + len(decodes))


@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-3, 0.5, 1 - 2**-53, 1.0])
def test_raw_fault_draw_matches_float_draw_in_any_chunking(p):
    shape = (8 * 1024, 9)
    floats = cm.rng_stream(3, qp._STREAM_LER, 5, 1, 0).random(shape) < p
    source = cm.rng_stream(3, qp._STREAM_LER, 5, 1, 0).bit_generator
    chunks = [qp._draw_faults(source, np.empty((1024, shape[1]), dtype=bool), p) for _ in range(8)]
    assert np.array_equal(np.vstack(chunks), floats)
    one = qp._draw_faults(cm.rng_stream(3, qp._STREAM_LER, 5, 1, 0).bit_generator,
                         np.empty(shape, dtype=bool), p)
    assert np.array_equal(one, floats)


def test_campaign_paths_never_reach_the_object_api(monkeypatch):
    # every campaign path works on fault ids and packed defect rows: no object
    # API function runs, where it is defined or where a module imports it
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign path reached the object API")

    for module, names in ((cm, ("pattern_from_fault_ids", "syndrome_of", "empty_syndrome",
                                "sample_errors", "syndrome_from_defects")),
                          (uf, ("decode", "decode_with_stats", "is_valid", "is_logical_failure"))):
        for name in names:
            for holder in (module, qp):
                if hasattr(holder, name):
                    monkeypatch.setattr(holder, name, refuse)
    decodes = []
    real = qp.decode_defects
    monkeypatch.setattr(qp, "decode_defects",
                        lambda graph, defects: decodes.append(1) or real(graph, defects))
    pipelines = []

    class Recorded(qp.Pipeline):
        def __init__(self, config):
            super().__init__(config)
            pipelines.append(self)

    monkeypatch.setattr(qp, "Pipeline", Recorded)

    qp.run_campaign(ExperimentConfig(shots=20, seed=1))
    assert decodes and pipelines[-1].config.effective_syndrome_source == "worst_case"

    decodes.clear()
    config = ExperimentConfig(distance=5, syndrome_source="sampled", error_rate=0.01, shots=40)
    qp.run_campaign(config)
    assert decodes  # memo misses, whose corrections name data qubits
    assert any(len(ids) for memo in pipelines[-1]._memos.values() for ids in memo.values())

    decodes.clear()
    qp.ler_campaign(5, 0.01, 256, seed=1)
    assert decodes


def test_ler_sector_memory_does_not_grow_with_batch():
    config = ExperimentConfig(distance=5, error_rate=1e-3, shots=65_536, seed=1)
    tracemalloc.start()
    try:
        failed = qp._ler_sector_failures(config, 0, 65_536, range(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(failed) == 65_536
    assert peak < 4 * 2**20


@pytest.mark.parametrize("args", [(5, 1e-2, 9000), (13, 1e-3, 500)])
def test_ler_failures_do_not_depend_on_the_chunk_budget(args, monkeypatch):
    # the budget sizes the draws and the judged spans; a span that ends
    # mid-draw or mid-batch (9000 shots: a full and a partial batch) must
    # change no bit
    counts = []
    for budget in (2**12, 2**16, qp._TABLE_CHUNK_BYTES):
        monkeypatch.setattr(qp, "_TABLE_CHUNK_BYTES", budget)
        counts.append(qp.ler_campaign(*args, seed=5).failures)
    assert counts == counts[:1] * 3


def test_d13_campaign_digest_does_not_depend_on_the_chunk_budget(monkeypatch):
    config = ExperimentConfig(**D13_SAMPLED, shots=120, jobs=1)
    digests = []
    for budget in (qp._TABLE_CHUNK_BYTES, 2**16):
        monkeypatch.setattr(qp, "_TABLE_CHUNK_BYTES", budget)
        digests.append(campaign_digest(qp.run_campaign(config)))
    assert digests[0] == digests[1]


def test_a_d5_ler_batch_is_judged_in_two_spans_per_sector(monkeypatch):
    # at p=1e-3 about 16% of d=5 rows hold a fault: a batch's ~1 300 hit rows
    # fit two spans, where 757-row draws would be judged 11 times
    calls = []
    real = qp._chunk_failures
    monkeypatch.setattr(qp, "_chunk_failures",
                        lambda graph, *args: calls.append(graph.sector) or real(graph, *args))
    qp.ler_campaign(5, 1e-3, 8192, seed=1)
    assert all(calls.count(sector) in (1, 2) for sector in cm.SECTORS)


@pytest.mark.parametrize("args", [(5, 1e-2, 8192), (21, 1e-3, 2000)])
def test_ler_peak_memory_is_bounded_by_the_chunk_budget(args):
    # One sector runs at a time, and holds its graph, then at most:
    # - the raw uint64 words of one draw (<= C = _TABLE_CHUNK_BYTES), or,
    #   once they are freed, the arrays that judge one span (its
    #   _span_bytes, computed from its own fault ids, <= C);
    # - the bool draw buffer (C / 8) and the failure flags (shots bytes);
    # - the decode memo, at most one entry per distinct defect row: about
    #   4 000 entries of ~230 B at d=5, p=1e-2 (0.9 C) and 2 000 of ~940 B
    #   at d=21 (1.8 C).
    # So the peak stays below the graph plus 3 C.  A judged span four times
    # as large (d=5, p=1e-2) would read about 3.8 C and fail here.
    distance = args[0]
    tracemalloc.start()
    try:
        graph = cm.DecodingGraph(cm.build_layout(distance), cm.SECTOR_X, distance)
        graph_bytes, _ = tracemalloc.get_traced_memory()
        del graph
        tracemalloc.reset_peak()
        qp.ler_campaign(*args, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < graph_bytes + 3 * qp._TABLE_CHUNK_BYTES


@pytest.mark.parametrize("distance, shots", [(13, 400), (21, 200)])
def test_run_range_memory_stays_within_its_chunks(distance, shots):
    config = ExperimentConfig(distance=distance, router_layers=1, syndrome_source="sampled")
    pipeline = qp.Pipeline(config)
    pipeline.run_range(0, 20)  # warm-up: first-use checks and memo entries
    tracemalloc.start()
    try:
        result = pipeline.run_range(20, 20 + shots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_shots == shots
    assert peak < 4 * 2**20


@pytest.mark.parametrize("distance, error_rate, shots", [
    (5, 1e-3, 2000), (5, 1e-2, 1300), (13, 1e-3, 200), (13, 1e-2, 100), (21, 1e-3, 60), (21, 1e-2, 30),
])
def test_span_bytes_bound_the_judge_peak_within_a_factor_two(distance, error_rate, shots):
    # one _chunk_failures call with a fresh memo, as a span of ler judges it:
    # the estimate from its own ids must cover the call's tracemalloc peak,
    # and not by more than twice
    graph = cm.DecodingGraph(cm.build_layout(distance), cm.SECTOR_X, distance)
    source = cm.rng_stream(1, qp._STREAM_LER, distance, 0, 0).bit_generator
    draw = np.empty((shots, graph.n_edges), dtype=bool)
    warm_up = np.flatnonzero(qp._draw_faults(source, draw, error_rate))
    qp._chunk_failures(graph, warm_up, shots, {}, qp._LER_BATCH)
    ids = np.flatnonzero(qp._draw_faults(source, draw, error_rate))
    del draw
    rows = ids // graph.n_edges
    hits = len(np.unique(rows))
    ends = len(ids) + int(np.count_nonzero(graph.v[ids - rows * graph.n_edges] != cm.BOUNDARY))
    assert hits > 20  # a span of many rows, not one row's fixed costs
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        qp._chunk_failures(graph, ids, shots, {}, qp._LER_BATCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = qp._span_bytes(graph, hits, len(ids), ends)
    assert peak - start <= estimate <= 2 * (peak - start)


def span_load(graph, ids):
    """(hit rows, fault ids, endpoint ids) of flat fault ids, as ``_span_bytes`` takes them."""
    rows = ids // graph.n_edges
    ends = len(ids) + int(np.count_nonzero(graph.v[ids - rows * graph.n_edges] != cm.BOUNDARY))
    return len(np.unique(rows)), len(ids), ends


def test_spans_keep_each_span_within_the_budget(monkeypatch):
    # d=13, p=1e-2: a 400-shot draw splits into spans that each fit the
    # budget, and a span opens at a hit row's first id
    graph = cm.DecodingGraph(cm.build_layout(13), cm.SECTOR_X, 13)
    source = cm.rng_stream(1, qp._STREAM_LER, 13, 0, 0).bit_generator
    draw = np.empty((400, graph.n_edges), dtype=bool)
    ids = np.flatnonzero(qp._draw_faults(source, draw, 1e-2))
    rows = ids // graph.n_edges
    heads = np.flatnonzero(np.diff(rows, prepend=-1))
    spans = list(qp._spans(graph, [(ids, 400)]))
    cuts = np.cumsum([len(part) for _, _, part in spans])[:-1].tolist()  # where spans open
    assert len(spans) > 2 and set(cuts) <= set(heads.tolist())
    # the spans tile the rows, and each holds its ids numbered from its first row
    starts = [start for start, _, _ in spans]
    assert starts == [0, *rows[cuts].tolist()]
    assert [stop for _, stop, _ in spans] == [*starts[1:], 400]
    for (start, _, part), own in zip(spans, np.split(ids, cuts)):
        assert np.array_equal(part, own - start * graph.n_edges)
        assert qp._span_bytes(graph, *span_load(graph, part)) <= qp._TABLE_CHUNK_BYTES
    last = spans[-1][2]
    held = len(heads) - heads.tolist().index(cuts[-1]), len(ids) - cuts[-1]
    assert span_load(graph, last)[:2] == held
    # a span carried in from an earlier draw ends sooner
    carried = list(qp._spans(graph, [(last, 400 - starts[-1]), (ids, 400)]))
    assert carried[0][1] - (400 - starts[-1]) < spans[0][1]
    # a row costlier than the budget is a span on its own, and a span held
    # open from an earlier draw closes before the next draw's first hit row
    monkeypatch.setattr(qp, "_TABLE_CHUNK_BYTES", 1)
    hit = rows[heads].tolist()
    assert [start for start, _, _ in qp._spans(graph, [(ids, 400)])] == [0, *hit[1:]]
    after_one_row = qp._spans(graph, [(ids[:1], 1), (ids, 400)])
    assert [start for start, _, _ in after_one_row] == [0, *(1 + row for row in hit)]


@pytest.mark.parametrize("distance, shots", [(5, 6000), (13, 400)])
def test_spans_do_not_depend_on_how_rows_are_split_into_draws(distance, shots):
    graph = cm.DecodingGraph(cm.build_layout(distance), cm.SECTOR_X, distance)
    source = cm.rng_stream(1, qp._STREAM_LER, distance, 0, 0).bit_generator
    draw = np.empty((shots, graph.n_edges), dtype=bool)
    ids = np.flatnonzero(qp._draw_faults(source, draw, 1e-2))

    def spans(rows_per_draw):
        bounds = np.searchsorted(ids, np.arange(0, shots, rows_per_draw) * graph.n_edges)
        draws = [(part - lo * graph.n_edges, min(rows_per_draw, shots - lo))
                 for lo, part in zip(range(0, shots, rows_per_draw), np.split(ids, bounds[1:]))]
        return [(start, stop, part.tolist()) for start, stop, part in qp._spans(graph, draws)]

    whole = spans(shots)
    assert len(whole) > 2
    for rows_per_draw in (1, 7, 40):
        assert spans(rows_per_draw) == whole


def test_a_d13_rep_is_judged_as_one_span_per_sector(monkeypatch):
    # the bench's 100-shot d=13/L1 rep at p=1e-3 is one chunk, and each
    # sector judges it in one call
    calls = []
    real = qp._chunk_failures
    monkeypatch.setattr(qp, "_chunk_failures",
                        lambda graph, *args: calls.append(graph.sector) or real(graph, *args))
    qp.Pipeline(ExperimentConfig(**D13_SAMPLED)).run_range(0, 100)
    assert sorted(calls) == sorted(cm.SECTORS)


@pytest.mark.parametrize("distance, error_rate", [(13, 1e-3), (13, 1e-2), (21, 1e-3)])
def test_a_full_chunk_stays_within_twice_the_budget(distance, error_rate):
    # a chunk holds its bool fault rows, its fault ids and its table, and
    # each span that judges its ids fits the budget, so one full chunk
    # after warm-up peaks below 2 C
    config = ExperimentConfig(distance=distance, router_layers=1, syndrome_source="sampled",
                              error_rate=error_rate)
    pipeline = qp.Pipeline(config)
    chunk = qp._TABLE_CHUNK_BYTES // pipeline._shot_bytes
    pipeline.run_range(0, 20)  # warm-up: first-use checks and memo entries
    tracemalloc.start()
    try:
        pipeline.run_range(20, 20 + chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * qp._TABLE_CHUNK_BYTES


@pytest.mark.parametrize("overrides, shots", [
    ({**D13_SAMPLED, "error_rate": 1e-2}, 150),
    ({**D13_SAMPLED, "distance": 21}, 80),
])
def test_campaign_digest_does_not_depend_on_the_chunk_budget(overrides, shots, monkeypatch):
    # several spans per chunk at d=13, p=1e-2; three chunks at d=21
    config = ExperimentConfig(**overrides, shots=shots, jobs=1)
    digests = []
    for budget in (qp._TABLE_CHUNK_BYTES, 2**16):
        monkeypatch.setattr(qp, "_TABLE_CHUNK_BYTES", budget)
        digests.append(campaign_digest(qp.run_campaign(config)))
    assert digests[0] == digests[1]


def test_ler_decreases_with_distance_at_moderate_rate():
    # fast sanity version of the error-suppression property
    shots = 30_000
    d3 = qp.ler_campaign(3, 0.01, shots, seed=3)
    d5 = qp.ler_campaign(5, 0.01, shots, seed=3)
    assert d5.rate < d3.rate


def test_stage_latency_config_validation():
    with pytest.raises(ValueError):
        qp.StageLatency(-1, 0)
    with pytest.raises(ValueError):
        qp.StageLatencyConfig(decode_table={4: 60_000})
    cfg = qp.StageLatencyConfig()
    zeroed = cfg.zero_jitter()
    assert zeroed.uplink.jitter_ps == 0
    assert zeroed.uplink.mean_ps == cfg.uplink.mean_ps


def reference_walk(pipeline, shot):
    """One shot as the per-shot walk over the tree, in Python ints.

    The scalar reference for ``Pipeline.run_range``: stage draws from
    ``_stage_durations``, faults from ``sample_errors``, an unmemoized
    decode, and marks read off each node's clock.  It finds the tree's
    order and depths by its own walk over ``Fabric.nodes``, and each node's
    chain slots by boundary name.  Advances ``pipeline.now``; returns
    (intervals, end to end, valid, failure).
    """
    config, fabric, nodes = pipeline.config, pipeline.fabric, pipeline.fabric.nodes
    cycle = config.cycle_time_ps
    t0 = -(-pipeline.now // cycle) * cycle
    if config.effective_syndrome_source == "worst_case":
        syndrome, patterns = qp._worst_case_d3()
    else:
        syndrome, patterns = cm.empty_syndrome(pipeline.layout, config.effective_rounds), {}
        for k, sector in enumerate(cm.SECTORS):
            graph = pipeline.graphs[sector]
            patterns[sector] = cm.sample_errors(
                graph, config.error_rate, config.seed, stream=(qp._STREAM_SAMPLE, shot, k)
            )
            syndrome = syndrome ^ cm.syndrome_of(patterns[sector], graph)
    corrections = {s: uf.decode(pipeline.graphs[s], syndrome) for s in cm.SECTORS}
    valid = all(uf.is_valid(corrections[s], syndrome, pipeline.graphs[s]) for s in cm.SECTORS)
    failure = any(uf.is_logical_failure(patterns[s], corrections[s]) for s in patterns)
    entries = expected_leaf_corrections(pipeline, corrections)
    dur = pipeline._stage_durations(shot)
    marks = [None] * len(pipeline.chain)

    # breadth first from the root: every node after its parent; top routers are depth 1
    order, depth = [fabric.root_id], {fabric.root_id: 0}
    for node_id in order:
        for child in nodes[node_id].children:
            depth[child] = depth[node_id] + 1
            order.append(child)
    slot = {name: i for i, (name, _) in enumerate(pipeline.chain)}

    def slots(node_id):
        """The chain slots where the node starts holding data (up) and corrections (down)."""
        role = nodes[node_id].role
        if role == fs.ROLE_LEAF:
            return slot["start"], slot["leaf_arrive"]
        if role == fs.ROLE_ROOT:
            return slot["root_arrive"], slot["decode_done"]
        return slot[f"up_arrive_{depth[node_id]}"], slot[f"down_arrive_{depth[node_id]}"]

    def hold(node_id, first, t, stage):
        for s, at in ((first, t), (first + 1, t + stage)):
            value = nodes[node_id].clock.local(at)
            if marks[s] is None or value > marks[s]:
                marks[s] = value
        return t + stage

    leaf_index = {}
    for n in order:
        if nodes[n].role == fs.ROLE_LEAF:
            leaf_index[n] = len(leaf_index)
    arrive = {}
    for leaf_id, leaf in leaf_index.items():
        columns = qp.leaf_ancilla_columns(pipeline.layout, pipeline.leaf_map, leaf)
        t = hold(leaf_id, slots(leaf_id)[0], t0, dur["leaf_agg"]) + dur["uplink"]
        t += excess_serialization_delay(len(columns), config.uplink)
        parent = nodes[leaf_id].parent
        arrive[parent] = max(arrive.get(parent, t), t)
    for router in reversed(order):
        if nodes[router].role == fs.ROLE_ROUTER:
            t = hold(router, slots(router)[0], arrive[router], dur["router_proc"] // 2)
            t += dur["router_net"] // 2
            parent = nodes[router].parent
            arrive[parent] = max(arrive.get(parent, t), t)
    root = fabric.root_id
    up, down = slots(root)
    t = hold(root, up, arrive[root], dur["root_agg"])
    forward = {root: hold(root, down, t + dur["decode"], dur["root_dist"])}
    for child in order[1:]:
        parent = nodes[child].parent
        if nodes[child].role == fs.ROLE_ROUTER:
            net = dur["router_net"] - dur["router_net"] // 2
            proc = dur["router_proc"] - dur["router_proc"] // 2
            forward[child] = hold(child, slots(child)[1], forward[parent] + net, proc)
            continue
        t = forward[parent] + dur["downlink"]
        t += excess_serialization_delay(len(entries[leaf_index[child]]), config.downlink)
        pipeline.now = max(pipeline.now, hold(child, slots(child)[1], t, dur["leaf_dist"]))
    intervals = {}
    for (_, stage), lo, hi in zip(pipeline.chain[1:], marks, marks[1:]):
        intervals[stage] = intervals.get(stage, 0) + hi - lo
    return intervals, marks[-1] - marks[0], valid, failure


def assert_table_matches_walk(config, start, stop):
    """``run_range(start, stop)`` equals the reference walk, shot by shot and in ``now``."""
    pipeline, reference = qp.Pipeline(config), qp.Pipeline(config)
    table = pipeline.run_range(start, stop)
    assert table.n_shots == stop - start
    for i, shot in enumerate(range(start, stop)):
        intervals, end_to_end, valid, failure = reference_walk(reference, shot)
        assert {name: table.samples[name][i] for name in table.stage_names} == intervals
        assert table.end_to_end_ps[i] == end_to_end
        assert (table.valid[i], table.failures[i]) == (valid, failure)
    assert pipeline.now == reference.now
    return pipeline


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("overrides, shots, digest", PINNED_CAMPAIGN_DIGESTS)
def test_table_matches_scalar_walk(overrides, shots, digest, chunked, monkeypatch):
    config = ExperimentConfig(**overrides)
    if chunked:
        # nine-shot chunks (batched: see _BATCHED_MIN_SHOTS), from a range
        # start that is not a chunk multiple, with a short last chunk
        shot_bytes = qp.Pipeline(config)._shot_bytes
        monkeypatch.setattr(qp, "_TABLE_CHUNK_BYTES", 9 * shot_bytes)
        assert_table_matches_walk(config, 3, 3 + min(shots, 60))
    else:
        assert_table_matches_walk(config, 0, shots)


def test_table_matches_walk_when_a_routers_children_arrive_apart():
    # one leaf's message spills into a second frame on a slow uplink, so the
    # router's children arrive at different times and only the latest counts
    config = ExperimentConfig(
        distance=13, qubits_per_leaf=100, router_layers=2, uplink=LinkModel(100_000_000),
        syndrome_source="sampled",
    )
    pipeline = assert_table_matches_walk(config, 0, 20)
    assert len(set(pipeline._uplink_excess_ps.tolist())) > 1


@pytest.mark.parametrize("seed, shot", [(1, 68_174), (7, 70_300)])
def test_table_redraws_after_a_lemire_rejection(seed, shot):
    config = ExperimentConfig(seed=seed)
    windows = qp.Pipeline(config)._stage_windows
    # numpy's own stream rejects one of this shot's stage draws and draws again
    raw = cm.rng_stream(seed, qp._STREAM_SHOT, shot).bit_generator.random_raw(4)
    halves = [int(word) >> s & 0xFFFFFFFF for word in raw for s in (0, 32)]
    spans = [2 * hw + 1 for _, _, hw in windows if hw > 0]
    assert any(u * span % 2**32 < 2**32 % span for u, span in zip(halves, spans))
    assert_table_matches_walk(config, shot - 5, shot + 5)


def test_table_draws_nine_jittered_stages():
    # nine 32-bit draws need the second Philox block of each shot's stream
    stages = StageLatencyConfig(
        router_proc=StageLatency(45_000, 6_000),
        router_net=StageLatency(312_000, 20_000),
        decode_jitter_ps=4_000,
    )
    config = ExperimentConfig(router_layers=1, stage_latency=stages, seed=3)
    pipeline = assert_table_matches_walk(config, 0, 300)
    assert sum(hw > 0 for _, _, hw in pipeline._stage_windows) == 9


@pytest.mark.parametrize("overrides, first, redrawn", [
    # seed 1, shot 68_174 is a Lemire rejection, so its column is drawn again
    ({"seed": 1}, 68_174 - 150, [68_174]),
    ({"router_layers": 1, "seed": 3, "stage_latency": StageLatencyConfig(
        router_proc=StageLatency(45_000, 6_000), router_net=StageLatency(312_000, 20_000),
        decode_jitter_ps=4_000,
    )}, 0, []),
])
def test_stage_table_columns_are_each_shots_durations(overrides, first, redrawn, monkeypatch):
    pipeline = qp.Pipeline(ExperimentConfig(**overrides))
    shots = np.arange(first, first + 300)
    scalar, fallback = pipeline._stage_durations, []
    monkeypatch.setattr(pipeline, "_stage_durations",
                        lambda shot: fallback.append(shot) or scalar(shot))
    table = pipeline._stage_table(shots)
    assert table.shape == (len(pipeline._stage_windows), len(shots))
    assert fallback == redrawn
    for j, shot in enumerate(shots.tolist()):
        assert table[:, j].tolist() == list(scalar(shot).values())


def test_a_worst_case_chunk_is_judged_as_one_row(monkeypatch):
    # every worst-case shot has the same faults, so each sector judges one row
    judged = []
    real = qp._chunk_failures
    monkeypatch.setattr(qp, "_chunk_failures",
                        lambda graph, ids, n, *args: judged.append(n) or real(graph, ids, n, *args))
    result = qp.Pipeline(ExperimentConfig()).run_range(0, 1000)
    assert judged == [1, 1]
    assert result.failures.dtype == bool and result.failures.shape == (1000,)
    assert result.failures.flags.writeable
    # a sampled chunk still judges every shot
    judged.clear()
    qp.Pipeline(ExperimentConfig(distance=5, syndrome_source="sampled")).run_range(0, 100)
    assert judged == [100, 100]


def test_table_without_batched_streams_reproduces_pins(monkeypatch):
    # a numpy whose streams moved switches the batched keys off; every shot
    # then builds its streams and the pins still hold
    monkeypatch.setattr(cm, "_BATCHED_STREAMS_OK", False)
    for overrides, shots, digest in (PINNED_CAMPAIGN_DIGESTS[0], PINNED_CAMPAIGN_DIGESTS[2]):
        config = ExperimentConfig(**overrides, shots=shots, jobs=1)
        assert campaign_digest(qp.run_campaign(config)) == digest


def test_table_refuses_ranges_beyond_int64(monkeypatch):
    def no_shot(self, shots):
        raise AssertionError("ran a shot before refusing the range")

    with monkeypatch.context() as patch:
        patch.setattr(qp.Pipeline, "_chunk_faults", no_shot)
        with pytest.raises(ValueError, match="int64"):
            qp.run_campaign(ExperimentConfig(cycle_time_ps=2**62, shots=4, jobs=1))
    # a range near the limit still runs exactly
    assert_table_matches_walk(ExperimentConfig(cycle_time_ps=2**60, drift_ppm=1), 0, 4)


@pytest.mark.parametrize("overrides, largest", [
    ({}, 6_177_744_164_001),
    ({"distance": 13, "router_layers": 1, "drift_ppm": 50}, 90_248_258_673),
    ({"distance": 9, "qubits_per_leaf": 150, "profile": "vcu129"}, 5_716_967_319_737),
])
def test_table_fit_threshold_is_pinned(overrides, largest):
    # the worst case sums each stage window's upper bound, router stages per
    # layer and link stages with their longest message's serialization
    pipeline = qp.Pipeline(ExperimentConfig(**overrides))
    lo, hi = 1, 2**63
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            pipeline._check_table_fits(mid)
            lo = mid
        except ValueError:
            hi = mid
    assert lo == largest
