import gc
import weakref

import numpy as np
import pytest

from qecfabric import code_model as cm
from qecfabric import qec_pipeline as qp
from qecfabric import uf_decoder as uf
from qecfabric.config import ExperimentConfig

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


def test_leaf_ancillas_cover_all_syndrome_columns():
    layout = cm.build_layout(5)
    leaf_map = qp.assign_qubits_to_leaves(layout)
    columns = []
    for leaf in range(leaf_map.n_leaves):
        columns.extend(qp.leaf_ancilla_columns(layout, leaf_map, leaf))
    assert columns == list(range(layout.syndrome_bits_per_round))


def test_zero_jitter_shot_is_exact():
    config = ExperimentConfig(zero_jitter=True).validate()
    report = qp.run_shot(config)
    assert report.end_to_end_ps == 451_000
    assert report.intervals == PAPER_STAGE_MEANS
    assert report.valid


def test_interval_sum_invariant_with_jitter():
    config = ExperimentConfig(shots=200, seed=5).validate()
    result = qp.run_campaign(config)
    total = sum(result.samples[name] for name in result.stage_names)
    assert (total == result.end_to_end_ps).all()


def test_stage_spreads_within_configured_bounds():
    config = ExperimentConfig(shots=3_000, seed=8).validate()
    result = qp.run_campaign(config)
    for name in result.stage_names:
        arr = result.samples[name]
        mean = PAPER_STAGE_MEANS[name]
        hw = PAPER_STAGE_JITTER[name]
        assert arr.min() >= mean - hw
        assert arr.max() <= mean + hw


def test_decode_interval_follows_table():
    config = ExperimentConfig(
        distance=5, shots=20, syndrome_source="sampled", seed=2
    ).validate()
    result = qp.run_campaign(config)
    assert set(result.samples["decode"].tolist()) == {65_000}


def test_bit_conservation_and_feedback():
    config = ExperimentConfig(
        distance=5, shots=1, syndrome_source="sampled", error_rate=0.05, seed=6
    ).validate()
    pipeline = qp.Pipeline(config)
    report = pipeline.run_shot(0)
    layout = pipeline.layout
    assert report.syndrome_bits_received == layout.syndrome_bits_per_round * pipeline.rounds

    ctx = pipeline.last_context
    # the final-round bits reassembled at the root equal the ground truth
    assert ctx["received_syndrome"] == ctx["syndrome"]
    # every identified error bit was applied at exactly the owning leaf
    expected = set()
    for sector in cm.SECTORS:
        parity = {}
        for qubit, _ in ctx["corrections"][sector].data_faults:
            parity[qubit] = parity.get(qubit, 0) ^ 1
        expected |= {(sector, q) for q, v in parity.items() if v}
    applied = set()
    for leaf, entries in ctx["applied"].items():
        for sector, qubit in entries:
            assert pipeline.leaf_map.leaf_of(qubit) == leaf
            applied.add((sector, qubit))
    assert applied == expected
    assert report.correction_bits_sent == len(expected)


def test_campaign_reports_match_single_shots():
    config = ExperimentConfig(shots=5, seed=9).validate()
    result = qp.run_campaign(config)
    pipeline = qp.Pipeline(config)
    for shot in range(5):
        report = pipeline.run_shot(shot)
        assert report.end_to_end_ps == result.end_to_end_ps[shot]


def test_campaign_is_job_count_invariant():
    config = ExperimentConfig(shots=40, seed=4).validate()
    sequential = qp.run_campaign(config, jobs=1)
    parallel = qp.run_campaign(config, jobs=3)
    assert (sequential.end_to_end_ps == parallel.end_to_end_ps).all()
    for name in sequential.stage_names:
        assert (sequential.samples[name] == parallel.samples[name]).all()


def test_campaign_repeatable():
    config = ExperimentConfig(shots=50, seed=12).validate()
    a = qp.run_campaign(config)
    b = qp.run_campaign(config)
    assert (a.end_to_end_ps == b.end_to_end_ps).all()
    assert (a.failures == b.failures).all()


def test_router_layer_adds_exactly_the_configured_overhead():
    # d=3 fits under one router on the prototype root, making the add-on visible
    config = ExperimentConfig(router_layers=1, zero_jitter=True).validate()
    report = qp.run_shot(config)
    assert report.intervals["router_proc"] == 45_000
    assert report.intervals["router_net"] == 312_000
    assert report.end_to_end_ps == 451_000 + 357_000


def test_capacity_error_directs_to_router_layer():
    config = ExperimentConfig(distance=17, syndrome_source="sampled").validate()
    with pytest.raises(qp.CapacityError, match="router layer"):
        qp.run_shot(config)
    # the same code fits once a router layer is added on the larger root
    routed = ExperimentConfig(
        distance=17, profile="vcu129", router_layers=1, syndrome_source="sampled",
        zero_jitter=True,
    ).validate()
    report = qp.run_shot(routed)
    assert report.valid


def test_worst_case_syndrome_properties():
    syn = qp.worst_case_d3_syndrome()
    assert syn.total_weight > 0
    layout = cm.build_layout(3)
    _, patterns = qp._worst_case_d3()
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, 3)
        corr, stats = uf.decode_with_stats(graph, syn)
        assert uf.is_valid(corr, syn, graph)
        # the cached pattern maximizes growth over every weight-1 pattern
        for e_id in range(graph.n_edges):
            single = cm.syndrome_of(cm.pattern_from_fault_ids(graph, [e_id]), graph)
            _, single_stats = uf.decode_with_stats(graph, single)
            assert stats.growth_iterations >= single_stats.growth_iterations


def test_run_shot_uses_synced_timers():
    # random initial offsets are aligned before the shot, leaving exact stages
    config = ExperimentConfig(zero_jitter=True, clock_offset_bound_ps=1_000_000).validate()
    pipeline = qp.Pipeline(config, seed=31)
    assert max(abs(v) for v in pipeline.sync_residuals.values()) == 0
    assert pipeline.run_shot(0).end_to_end_ps == 451_000


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
        qp.run_campaign(config, shots=2, jobs=1)
        assert len(refs) == 2 and refs[1]() is None
    finally:
        gc.enable()


def test_wilson_interval_basics():
    lo, hi = qp.wilson_interval(0, 100)
    assert lo < 1e-9 and 0 < hi < 0.05
    lo, hi = qp.wilson_interval(50, 100)
    assert lo < 0.5 < hi


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
# residuals were checked in numpy: (distance, p, shots, seed, rounds, batch).
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
def test_ler_campaign_pinned_failures(args, failures):
    distance, p, shots, seed, rounds, batch = args
    est = qp.ler_campaign(distance, p, shots, seed=seed, rounds=rounds, batch=batch)
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
                failed[lo + i] |= uf.is_logical_failure(pattern, corr, layout)
    return int(failed.sum())


def test_ler_campaign_matches_reference_loop_when_memo_clears():
    # batch=40 clears the 40-entry memo many times within and across batches
    est = qp.ler_campaign(3, 0.05, 600, seed=11, batch=40)
    assert est.failures == _reference_ler_failures(3, 0.05, 600, 11, 40)
    assert est.failures > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shots": 0},
        {"batch": 0},
        {"error_rate": 1.5},
        {"error_rate": -0.1},
        {"error_rate": float("nan")},
        {"rounds": 0},
        {"jobs": 0},
    ],
)
def test_ler_campaign_rejects_bad_inputs(kwargs, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before validating inputs")

    monkeypatch.setattr(qp, "rng_stream", no_sampling)
    args = dict(distance=3, error_rate=0.01, shots=100, seed=1) | kwargs
    with pytest.raises(ValueError):
        qp.ler_campaign(**args)


def test_ler_campaign_jobs_match_serial():
    serial = qp.ler_campaign(3, 0.02, 3_000, seed=7, batch=1000, jobs=1)
    parallel = qp.ler_campaign(3, 0.02, 3_000, seed=7, batch=1000, jobs=2)
    assert parallel == serial
    assert serial.failures == 237


def test_ler_campaign_checks_every_residual(monkeypatch):
    real = qp.decode

    def drop_one_edge(graph, syndrome):
        corr = real(graph, syndrome)
        if not corr.fault_ids:
            return corr
        return uf._correction_from_ids(graph, sorted(corr.fault_ids)[1:])

    monkeypatch.setattr(qp, "decode", drop_one_edge)
    with pytest.raises(ValueError, match="does not annihilate"):
        qp.ler_campaign(3, 0.02, 500, seed=7)


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
