"""Acceptance suite: every release-gating property, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 1 and 5 carry runtime budgets (1 and 10 minutes) that
are asserted, not just hoped for.
"""

import itertools
import json
import time

import numpy as np

from qecfabric import capacity_model as cap
from qecfabric import code_model as cm
from qecfabric import link_layer as ll
from qecfabric import qec_pipeline as qp
from qecfabric import uf_decoder as uf
from qecfabric.cli import main
from qecfabric.config import ExperimentConfig
from reference import count_min_weight_solutions, oracle_decode

PAPER_BOUNDS = {
    "leaf_agg": (29_000, 3_000),
    "uplink": (157_000, 16_000),
    "root_agg": (20_000, 10_000),
    "decode": (56_000, 0),
    "root_dist": (25_000, 3_000),
    "downlink": (155_000, 9_000),
    "leaf_dist": (9_000, 1_000),
}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_latency_reproduction():
    start = time.perf_counter()
    config = ExperimentConfig(shots=10_000, seed=1)
    result = qp.run_campaign(config)
    elapsed = time.perf_counter() - start

    mean_ns = result.end_to_end_ps.mean() / 1000
    in_band = 440.0 <= mean_ns <= 455.0
    spreads_ok = True
    for name in result.stage_names:
        mean, hw = PAPER_BOUNDS[name]
        arr = result.samples[name]
        if arr.min() < mean - hw or arr.max() > mean + hw:
            spreads_ok = False
    report(
        1,
        in_band and spreads_ok and elapsed < 60.0,
        f"10000-shot d=3 mean {mean_ns:.2f} ns (target [440, 455]), "
        f"spreads within configured bounds: {spreads_ok}, runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_zero_jitter_determinism(tmp_path):
    config = ExperimentConfig(shots=200, seed=6, zero_jitter=True, jobs=1)
    result = qp.run_campaign(config)
    exact = set(result.end_to_end_ps.tolist()) == {451_000}

    argv = ["latency", "--shots", "25", "--seed", "6", "--zero-jitter", "--jobs", "1"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    names = ("latency_summary.json", "latency_stages.csv", "latency_hist.csv")
    identical = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    report(
        2,
        exact and identical,
        f"zero-jitter end-to-end exactly 451000 ps on all shots: {exact}; "
        f"equal-seed reports byte-identical: {identical}",
    )


def test_criterion_3_throughput_ledger():
    g10 = ll.effective_throughput_gbps(ll.LinkModel(10_000_000_000, lanes=4))
    g28 = ll.effective_throughput_gbps(ll.LinkModel(28_000_000_000, lanes=4), 1)
    peak = round(float(cap.decoder_peak_throughput()) / 1e9, 2)
    link = ll.LinkModel(10_000_000_000, lanes=4)
    margin = float(cap.available_throughput(link) / cap.syndrome_rate_required(21))
    ok = g10 == 38.788 and g28 == 108.6 and peak == 38.26 and round(margin) == 87
    report(
        3,
        ok,
        f"4x10G={g10} Gb/s (38.788), 4x28G={g28} Gb/s (108.6), "
        f"decoder peak={peak} Gb/s (38.26), d=21 margin={margin:.2f}x (~87)",
    )


def test_criterion_4_extrapolation_shape():
    vcu = cap.get_profile("vcu129")
    rows = {d: cap.capacity_estimate(d, vcu) for d in range(3, 22, 2)}
    layers_ok = all(rows[d].router_layers == 0 for d in range(3, 16, 2)) and all(
        rows[d].router_layers == 1 for d in (17, 19, 21)
    )
    step = rows[17].predicted_latency_ps - rows[15].predicted_latency_ps
    d3 = rows[3].predicted_latency_ps
    d21_conditional = (
        rows[21].predicted_latency_ps < 1_000_000
        if rows[21].decode_ps <= 253_000
        else True
    )
    ok = layers_ok and step == 357_000 and d3 == 446_000 and d21_conditional
    report(
        4,
        ok,
        f"router layers 0 thru d=15 then 1: {layers_ok}; step at 15->17 = {step} ps "
        f"(357000); d=3 latency {d3} ps (446000); d=21 decode {rows[21].decode_ps} ps "
        f"-> latency {rows[21].predicted_latency_ps} ps (< 1e6)",
    )


def _exhaustive_failures(distance, max_weight):
    layout = cm.build_layout(distance)
    failures = 0
    checked = 0
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, distance)
        pools = [
            itertools.combinations(range(graph.n_edges), w)
            for w in range(1, max_weight + 1)
        ]
        for ids in itertools.chain(*pools):
            pattern = cm.pattern_from_fault_ids(graph, ids)
            syn = cm.syndrome_of(pattern, graph)
            corr = uf.decode(graph, syn)
            if uf.is_logical_failure(pattern, corr):
                failures += 1
            checked += 1
    return failures, checked


def _random_validity_sweep(cases, seed=1234, batch=4096):
    """Sample shots, decode every defective one, count validity failures."""
    invalid = 0
    total_shots = 0
    for distance, p, shots in cases:
        layout = cm.build_layout(distance)
        for k, sector in enumerate(cm.SECTORS):
            graph = cm.build_decoding_graph(layout, sector, distance)
            incidence = graph.incidence_matrix().astype(np.float32)
            done = 0
            batch_index = 0
            while done < shots:
                n = min(batch, shots - done)
                rng = cm.rng_stream(seed, distance, k, batch_index)
                bits = rng.random((n, graph.n_edges)) < p
                defects = (bits.astype(np.float32) @ incidence) % 2
                for i in np.nonzero(defects.any(axis=1))[0]:
                    syn = cm.syndrome_from_defects(
                        graph, np.nonzero(defects[i] > 0.5)[0].tolist()
                    )
                    corr = uf.decode(graph, syn)
                    if not uf.is_valid(corr, syn, graph):
                        invalid += 1
                done += n
                batch_index += 1
        total_shots += shots
    return invalid, total_shots


def test_criterion_5_decoder_correctness():
    start = time.perf_counter()

    # (a) the code distance is respected: exhaustive small-weight sweeps
    f3, n3 = _exhaustive_failures(3, max_weight=1)
    f5, n5 = _exhaustive_failures(5, max_weight=2)

    # (b) every correction annihilates its syndrome on random shots
    cases = [
        (3, 0.003, 20_000),
        (3, 0.03, 20_000),
        (5, 0.002, 20_000),
        (5, 0.02, 20_000),
        (7, 0.001, 10_000),
        (7, 0.01, 10_000),
    ]
    invalid, validity_shots = _random_validity_sweep(cases)

    # (c) error suppression with distance at the reference physical rate
    shots = 1_000_000
    est3 = qp.ler_campaign(3, 0.001, shots, seed=2024)
    est5 = qp.ler_campaign(5, 0.001, shots, seed=2024)
    lo3, hi3 = est3.ci95
    lo5, hi5 = est5.ci95
    suppressed = est5.rate < est3.rate and hi5 < lo3

    elapsed = time.perf_counter() - start
    ok = f3 == 0 and f5 == 0 and invalid == 0 and suppressed and elapsed < 600.0
    report(
        5,
        ok,
        f"(a) exhaustive failures d3/w1: {f3}/{n3}, d5/w<=2: {f5}/{n5}; "
        f"(b) invalid corrections: {invalid}/{validity_shots} shots; "
        f"(c) LER d3={est3.rate:.2e} [{lo3:.2e},{hi3:.2e}] vs "
        f"d5={est5.rate:.2e} [{lo5:.2e},{hi5:.2e}], CIs disjoint: {suppressed}; "
        f"runtime {elapsed:.0f}s (< 600s)",
    )


def test_criterion_6_oracle_consistency():
    heavier = 0
    mismatched = 0
    checked = 0
    for rounds in (1, 2):
        layout = cm.build_layout(3)
        for sector in cm.SECTORS:
            graph = cm.build_decoding_graph(layout, sector, rounds)
            for e_id in range(graph.n_edges):
                syn = cm.syndrome_of(cm.pattern_from_fault_ids(graph, [e_id]), graph)
                corr = uf.decode(graph, syn)
                oracle = oracle_decode(graph, syn)
                assert uf.is_valid(corr, syn, graph)
                assert uf.is_valid(oracle, syn, graph)
                if len(corr.fault_ids) < len(oracle.fault_ids):
                    heavier += 1
                if (
                    count_min_weight_solutions(graph, syn, 1) == 1
                    and corr.fault_ids != oracle.fault_ids
                ):
                    mismatched += 1
                checked += 1
    ok = heavier == 0 and mismatched == 0
    report(
        6,
        ok,
        f"{checked} d=3 instances: decoder below oracle minimum {heavier} times, "
        f"unique-solution mismatches {mismatched}",
    )


def test_criterion_7_clock_sync():
    from qecfabric.fabric_sim import Fabric, Simulator, TopologyConfig, global_sync
    from qecfabric.link_layer import LinkModel

    # symmetric delays, arbitrary offsets up to +-1 us -> exact alignment
    worst = 0
    for seed in (1, 2, 3):
        fabric = Fabric(
            TopologyConfig(n_leaves=4, clock_offset_bound_ps=1_000_000), seed=seed
        )
        residuals = global_sync(Simulator(), fabric)
        worst = max(worst, max(abs(v) for v in residuals.values()))

    # configured asymmetry leaves exactly delta/2 per edge
    delta = 4_000
    fabric = Fabric(
        TopologyConfig(
            n_leaves=2,
            sync_uplink=LinkModel(10_000_000_000, 1, 156_000 + delta, 0),
            sync_downlink=LinkModel(10_000_000_000, 1, 156_000, 0),
            clock_offset_bound_ps=1_000_000,
        ),
        seed=4,
    )
    residuals = global_sync(Simulator(), fabric)
    asym_exact = all(residuals[leaf] == delta // 2 for leaf in fabric.levels[-1])
    ok = worst == 0 and asym_exact
    report(
        7,
        ok,
        f"max residual under symmetric links: {worst} ps (0 expected); "
        f"asymmetry {delta} ps leaves exactly {delta // 2} ps per edge: {asym_exact}",
    )


def test_criterion_8_capacity_identities():
    values = (
        cap.required_qubits(17),
        cap.required_qubits(21),
        cap.max_qubits(cap.get_profile("vcu129"), 0),
        cap.max_qubits(cap.get_profile("zcu216"), 0),
    )
    ok = values == (577, 881, 476, 56)
    report(8, ok, f"(577, 881, 476, 56) == {values}")
