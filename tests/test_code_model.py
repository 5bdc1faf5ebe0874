import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox, SeedSequence

from qecfabric import code_model as cm
from reference import SPACELIKE, TIMELIKE, Edge, edges, fault_id


def sector_adjacency(layout, sector):
    """For each data qubit, the incident stabilizer indices of one sector."""
    adj = [[] for _ in range(layout.data_qubit_count)]
    for s, qubits in enumerate(layout.stabilizers(sector)):
        for q in qubits:
            adj[q].append(s)
    return adj


@pytest.mark.parametrize(
    "d,total,bits",
    [(1, 1, 0), (3, 17, 8), (5, 49, 24), (7, 97, 48), (21, 881, 440)],
)
def test_layout_counts(d, total, bits):
    layout = cm.build_layout(d)
    assert layout.total_qubits == total
    assert layout.syndrome_bits_per_round == bits
    assert layout.data_qubit_count == d * d
    assert len(layout.x_stabilizers) == layout.stabilizer_count_per_sector
    assert len(layout.z_stabilizers) == layout.stabilizer_count_per_sector


@pytest.mark.parametrize("d", [0, 2, 4, -3])
def test_layout_rejects_bad_distance(d):
    with pytest.raises(ValueError):
        cm.build_layout(d)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_stabilizer_geometry(d):
    layout = cm.build_layout(d)
    for sector in cm.SECTORS:
        adjacency = sector_adjacency(layout, sector)
        assert all(1 <= len(stabs) <= 2 for stabs in adjacency)
        for qubits in layout.stabilizers(sector):
            assert len(qubits) in (2, 4)
            if len(qubits) == 4:
                # a weight-4 stabilizer's qubits form a 2x2 plaquette
                rows = sorted({q // d for q in qubits})
                cols = sorted({q % d for q in qubits})
                assert len(rows) == 2 and rows[1] - rows[0] == 1
                assert len(cols) == 2 and cols[1] - cols[0] == 1


def test_layout_deterministic():
    layout = cm.build_layout(5)
    again = cm.build_layout(5)  # a second build, not the same object
    assert again is not layout and again == layout


def test_crossing_chains_commute_with_opposite_sector():
    # the crossing chain must overlap every opposite-sector stabilizer evenly
    for d in (3, 5, 7):
        layout = cm.build_layout(d)
        for sector, opposite in ((cm.SECTOR_X, cm.SECTOR_Z), (cm.SECTOR_Z, cm.SECTOR_X)):
            chain = layout.crossing_chain[sector]
            assert len(chain) == d
            for qubits in layout.stabilizers(opposite):
                assert len(chain & set(qubits)) % 2 == 0


def test_graph_counts_d3():
    layout = cm.build_layout(3)
    graph = cm.build_decoding_graph(layout, cm.SECTOR_X, 3)
    assert graph.n_vertices == 12
    timelike = [e for e in edges(graph) if e.kind == TIMELIKE]
    assert len(timelike) == 8


def test_graph_single_round_has_no_timelike_edges():
    layout = cm.build_layout(3)
    graph = cm.build_decoding_graph(layout, cm.SECTOR_Z, 1)
    assert all(e.kind == SPACELIKE for e in edges(graph))


def test_graph_counts_d5():
    graph = cm.build_decoding_graph(cm.build_layout(5), cm.SECTOR_X, 5)
    assert graph.n_vertices == 60  # (25-1)/2 stabilizers x 5 rounds


@pytest.mark.parametrize("d,rounds", [(3, 1), (3, 3), (5, 2)])
def test_graph_edge_structure(d, rounds):
    layout = cm.build_layout(d)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, rounds)
        graph_edges = edges(graph)
        spacelike = [e for e in graph_edges if e.kind == SPACELIKE]
        timelike = [e for e in graph_edges if e.kind == TIMELIKE]
        # one spacelike (or boundary) edge per data qubit per round
        assert len(spacelike) == layout.data_qubit_count * rounds
        assert len(timelike) == graph.n_stabilizers * (rounds - 1)
        # each fault maps to exactly one edge and back
        for e_id, e in enumerate(graph_edges):
            if e.kind == SPACELIKE:
                assert fault_id(graph, (e.qubit, e.round), SPACELIKE) == e_id
            else:
                assert fault_id(graph, (e.stab, e.round), TIMELIKE) == e_id
                assert e.v == e.u + graph.n_stabilizers


def reference_graph(layout, sector, rounds):
    """Edges, per-vertex incident ids and crossing ids, built edge by edge as ``Edge`` objects."""
    n_stab = layout.stabilizer_count_per_sector
    adj = sector_adjacency(layout, sector)
    edges = []
    for t in range(rounds):
        base = t * n_stab
        for q in range(layout.data_qubit_count):
            stabs = adj[q]
            if len(stabs) == 2:
                edges.append(Edge(SPACELIKE, base + stabs[0], base + stabs[1], q, None, t))
            elif len(stabs) == 1:
                edges.append(Edge(SPACELIKE, base + stabs[0], cm.BOUNDARY, q, None, t))
            # a qubit touching no stabilizer of this sector (d=1 only) has no edge
    for t in range(rounds - 1):
        for s in range(n_stab):
            edges.append(Edge(TIMELIKE, t * n_stab + s, (t + 1) * n_stab + s, None, s, t))
    incident = [[] for _ in range(n_stab * rounds)]
    for e_id, e in enumerate(edges):
        incident[e.u].append(e_id)
        if e.v != cm.BOUNDARY:
            incident[e.v].append(e_id)
    chain = layout.crossing_chain[sector]
    crossing = {i for i, e in enumerate(edges) if e.kind == SPACELIKE and e.qubit in chain}
    return edges, incident, crossing


@pytest.mark.parametrize("d", [1, 3, 5, 7, 13])
@pytest.mark.parametrize("rounds", [1, 2, 3, "d"])
@pytest.mark.parametrize("sector", cm.SECTORS)
def test_graph_matches_reference_walk(d, rounds, sector):
    layout = cm.build_layout(d)
    rounds = d if rounds == "d" else rounds
    graph = cm.build_decoding_graph(layout, sector, rounds)
    walk, incident, crossing = reference_graph(layout, sector, rounds)
    assert graph.n_edges == len(walk)
    for e, ref in zip(edges(graph), walk):
        for name in ("kind", "u", "v", "qubit", "stab", "round"):
            assert getattr(e, name) == getattr(ref, name)
            assert type(getattr(e, name)) is type(getattr(ref, name))
    assert list(graph.edge_u) == [e.u for e in walk] == graph.u.tolist()
    assert list(graph.edge_v) == [e.v for e in walk] == graph.v.tolist()
    assert graph.qubit.dtype == np.intp
    assert graph.qubit.tolist() == [-1 if e.qubit is None else e.qubit for e in walk]
    starts = graph.incident_starts
    assert [list(graph.incident_ids[a:b]) for a, b in zip(starts, starts[1:])] == incident
    assert starts[0] == 0 and starts[-1] == len(graph.incident_ids)
    assert graph.crossing_ids == crossing
    for e_id, e in enumerate(walk):
        if e.kind == SPACELIKE:
            assert fault_id(graph, (e.qubit, e.round), SPACELIKE) == e_id
        else:
            assert fault_id(graph, (e.stab, e.round), TIMELIKE) == e_id


@pytest.mark.parametrize("d, rounds", [(1, 1), (3, 3), (5, 2), (13, 13)])
def test_qubit_array_names_each_edges_data_qubit(d, rounds):
    # every round repeats round 0's spacelike qubits; timelike edges name none
    layout = cm.build_layout(d)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, rounds)
        n_space = graph.n_edges - (rounds - 1) * graph.n_stabilizers
        per_round = n_space // rounds
        assert graph.qubit.dtype == np.intp
        assert graph.qubit[:n_space].reshape(rounds, per_round).tolist() == (
            [graph.qubit[:per_round].tolist()] * rounds
        )
        assert (graph.qubit[n_space:] == -1).all() and (graph.qubit[:n_space] >= 0).all()
        for q in graph.qubit[:per_round].tolist():
            for t in range(rounds):
                assert graph.qubit[fault_id(graph, (q, t), SPACELIKE)] == q


def records(graph):
    """A graph as its sector, rounds, vertex count and edges, for equality checks."""
    return graph.sector, graph.rounds, graph.n_vertices, edges(graph)


def test_layouts_and_graphs_are_built_afresh_per_call():
    layout = cm.build_layout(5)
    for again in (cm.build_layout(5), cm.build_layout(distance=5), cm.build_layout(np.int64(5))):
        assert again is not layout and again == layout
        assert type(again.distance) is int
    graph = cm.build_decoding_graph(layout, cm.SECTOR_X, 5)
    assert graph.layout is layout
    twin = cm.build_decoding_graph(cm.build_layout(5), cm.SECTOR_X, 5)
    assert twin is not graph and records(twin) == records(graph)
    for name in ("u", "v", "qubit", "incident_table"):
        assert not np.shares_memory(getattr(twin, name), getattr(graph, name))
    others = [cm.build_decoding_graph(layout, cm.SECTOR_X, 4),
              cm.build_decoding_graph(layout, cm.SECTOR_Z, 5),
              cm.build_decoding_graph(cm.build_layout(7), cm.SECTOR_X, 5)]
    assert all(records(other) != records(graph) for other in others)


@pytest.mark.parametrize("d, rounds", [(1, 1), (1, 3), (3, 1), (3, 3), (5, 2)])
def test_fault_id_of_rejects_entries_that_name_no_edge(d, rounds):
    layout = cm.build_layout(d)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, rounds)
        spacelike = [(-1, 0), (0, -1), (layout.data_qubit_count, 0), (0, rounds)]
        timelike = [(-1, 0), (0, -1), (graph.n_stabilizers, 0), (0, rounds - 1)]
        if d == 1:
            spacelike.append((0, 0))  # the one data qubit touches no stabilizer
        for kind, entries in ((SPACELIKE, spacelike), (TIMELIKE, timelike)):
            for entry in entries:
                with pytest.raises(ValueError):
                    fault_id(graph, entry, kind)


def test_graph_holds_at_most_240_bytes_per_edge():
    layout = cm.build_layout(21)
    tracemalloc.start()
    try:
        graph = cm.DecodingGraph(layout, cm.SECTOR_X, 21)  # every byte the graph holds is traced
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.n_edges == 13_661
    assert held <= 240 * graph.n_edges


@pytest.mark.parametrize("d", [1, 3, 13])
def test_incident_table_is_the_padded_incident_runs(d):
    graph = cm.build_decoding_graph(cm.build_layout(d), cm.SECTOR_Z, d)
    starts = graph.incident_starts
    runs = [graph.incident_ids[a:b] for a, b in zip(starts, starts[1:])]
    width = max(map(len, runs), default=0)
    assert graph.incident_table.shape == (graph.n_vertices, width)
    assert graph.incident_table.tolist() == [[*ids, *[-1] * (width - len(ids))] for ids in runs]
    if graph.incident_table.size:
        with pytest.raises(ValueError, match="read-only"):
            graph.incident_table[0, 0] = 0


def test_layouts_and_graphs_cannot_be_changed():
    layout = cm.build_layout(3)
    graph = cm.build_decoding_graph(layout, cm.SECTOR_X, 3)
    crossing = graph.crossing_ids
    for array in (graph.u, graph.v, graph.qubit, graph._crossing):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    sequences = (graph.edge_u, graph.edge_v, graph.incident_ids, graph.incident_starts,
                 layout.x_stabilizers, layout.z_stabilizers[0], layout.crossings)
    for seq in sequences:
        with pytest.raises(TypeError):
            seq[0] = seq[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.crossings = ()
    # crossing_chain is a copy: writing to it changes no later graph
    layout.crossing_chain[cm.SECTOR_X] = frozenset()
    assert cm.build_layout(3).crossing_chain[cm.SECTOR_X]
    assert cm.build_decoding_graph(layout, cm.SECTOR_X, 3).crossing_ids == crossing


def test_graph_rejects_bad_arguments():
    layout = cm.build_layout(3)
    with pytest.raises(ValueError):
        cm.build_decoding_graph(layout, cm.SECTOR_X, 0)
    with pytest.raises(ValueError):
        cm.build_decoding_graph(layout, "Y", 1)


def test_sample_errors_trivial_rates():
    graph = cm.build_decoding_graph(cm.build_layout(3), cm.SECTOR_X, 3)
    empty = cm.sample_errors(graph, 0.0, seed=1)
    assert len(empty.fault_ids) == 0
    full = cm.sample_errors(graph, 1.0, seed=1)
    assert len(full.fault_ids) == graph.n_edges


def test_sample_errors_reproducible():
    graph = cm.build_decoding_graph(cm.build_layout(5), cm.SECTOR_Z, 5)
    a = cm.sample_errors(graph, 0.05, seed=123, stream=(4, 1))
    b = cm.sample_errors(graph, 0.05, seed=123, stream=(4, 1))
    c = cm.sample_errors(graph, 0.05, seed=123, stream=(4, 2))
    assert a.fault_ids == b.fault_ids
    assert a.fault_ids != c.fault_ids


def test_sample_errors_concentration():
    # ~1e6 edges at p=0.001: empirical fraction within 5 sigma of p
    layout = cm.build_layout(21)
    graph = cm.build_decoding_graph(layout, cm.SECTOR_X, 21)
    p = 0.001
    draws = 0
    hits = 0
    shot = 0
    while draws < 1_000_000:
        pattern = cm.sample_errors(graph, p, seed=77, stream=(shot,))
        hits += len(pattern.fault_ids)
        draws += graph.n_edges
        shot += 1
    sigma = (draws * p * (1 - p)) ** 0.5
    assert abs(hits - draws * p) < 5 * sigma


def test_syndrome_of_empty_pattern():
    graph = cm.build_decoding_graph(cm.build_layout(3), cm.SECTOR_X, 3)
    pattern = cm.pattern_from_fault_ids(graph, [])
    assert cm.syndrome_of(pattern, graph).total_weight == 0


def test_syndrome_single_fault_weights():
    layout = cm.build_layout(3)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, 3)
        for e_id, e in enumerate(edges(graph)):
            syn = cm.syndrome_of(cm.pattern_from_fault_ids(graph, [e_id]), graph)
            if e.v == cm.BOUNDARY:
                assert syn.total_weight == 1
            else:
                assert syn.total_weight == 2
            if e.kind == TIMELIKE:
                # a measurement fault at (s, t) flips detectors t and t+1
                bits = syn.sector_bits(sector)
                assert bits[e.round, e.stab] == 1
                assert bits[e.round + 1, e.stab] == 1


def test_syndrome_rejects_foreign_fault():
    layout = cm.build_layout(3)
    graph = cm.build_decoding_graph(layout, cm.SECTOR_X, 2)
    for foreign in (-1, graph.n_edges):  # no such fault id on this graph
        with pytest.raises(ValueError):
            cm.syndrome_of(cm.pattern_from_fault_ids(graph, [foreign]), graph)
    z_graph = cm.build_decoding_graph(layout, cm.SECTOR_Z, 2)
    wrong_sector = cm.pattern_from_fault_ids(z_graph, [0])
    with pytest.raises(ValueError):
        cm.syndrome_of(wrong_sector, graph)


def test_defect_ids_round_trip_through_a_syndrome():
    layout = cm.build_layout(5)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, 4)
        syn = cm.syndrome_from_defects(graph, [7, 0, graph.n_vertices - 1, 7, 3, 7])
        assert syn.defect_vertices(graph) == [0, 3, 7, graph.n_vertices - 1]  # duplicates cancel
        assert syn.total_weight == 4  # and none in the other sector
        assert cm.syndrome_from_defects(graph, [2, 2]).total_weight == 0
        for bad in ([-1], [graph.n_vertices]):
            with pytest.raises(ValueError, match="outside"):
                cm.syndrome_from_defects(graph, bad)


def test_syndrome_linearity():
    graph = cm.build_decoding_graph(cm.build_layout(5), cm.SECTOR_X, 3)
    for shot in range(50):
        a = cm.sample_errors(graph, 0.08, seed=5, stream=(shot, 0))
        b = cm.sample_errors(graph, 0.08, seed=5, stream=(shot, 1))
        combined = cm.syndrome_of(a ^ b, graph)
        assert combined == cm.syndrome_of(a, graph) ^ cm.syndrome_of(b, graph)


@st.composite
def fault_matrices(draw):
    d = draw(st.sampled_from([3, 5]))
    rounds, sector = draw(st.integers(1, d + 1)), draw(st.sampled_from(cm.SECTORS))
    graph = cm.build_decoding_graph(cm.build_layout(d), sector, rounds)
    shots = draw(st.integers(0, 40))
    p = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # one row per single edge as well, so every boundary edge, and with
    # rounds >= 2 every timelike edge, is checked on its own
    faults = np.vstack([rng.random((shots, graph.n_edges)) < p, np.eye(graph.n_edges, dtype=bool)])
    return graph, faults


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fault_matrices())
def test_fault_parity_matches_incidence_and_crossing_ids(instance):
    graph, faults = instance
    defects, crossings = graph.fault_parity(np.flatnonzero(faults), len(faults))
    counts = faults.astype(np.int64)
    assert defects.dtype == np.uint8
    assert np.array_equal(defects, (counts @ graph.incidence_matrix()) % 2)
    crossing = sorted(graph.crossing_ids)
    assert np.array_equal(crossings, counts[:, crossing].sum(axis=1) % 2 == 1)
    # a defect row is the sector's syndrome bits, round by round
    for row, defect_row in zip(faults, defects):
        pattern = cm.pattern_from_fault_ids(graph, np.flatnonzero(row).tolist())
        expected = cm.syndrome_of(pattern, graph).sector_bits(graph.sector)
        assert np.array_equal(defect_row.reshape(graph.rounds, graph.n_stabilizers), expected)


@pytest.mark.parametrize("p", [1e-3, 0.3])
def test_fault_parity_counts_sparse_and_dense_chunks_alike(p):
    # the graphs above are too small for the sorted count of a sparse chunk:
    # at d=13, p=1e-3 takes it and p=0.3 the dense one
    graph = cm.build_decoding_graph(cm.build_layout(13), cm.SECTOR_X, 13)
    faults = np.random.default_rng(4).random((20, graph.n_edges)) < p
    starts = graph.incident_starts
    star = list(graph.incident_ids[starts[500] : starts[501]])  # a vertex met by several faults of one row
    faults[0, star], faults[1, star[:3]] = True, True
    defects, crossings = graph.fault_parity(np.flatnonzero(faults), len(faults))
    for row, defect_row, crossing in zip(faults, defects, crossings):
        pattern = cm.pattern_from_fault_ids(graph, np.flatnonzero(row).tolist())
        expected = cm.syndrome_of(pattern, graph).sector_bits(graph.sector)
        assert np.array_equal(defect_row.reshape(graph.rounds, graph.n_stabilizers), expected)
        assert crossing == (len(pattern.fault_ids & graph.crossing_ids) % 2 == 1)


def test_total_bits_transported():
    for d, r in ((3, 3), (5, 2), (7, 7)):
        layout = cm.build_layout(d)
        syn = cm.empty_syndrome(layout, r)
        assert syn.bits.size == (d * d - 1) * r


# entries near the one-word limit of SeedSequence's entropy coercion
STREAM_WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]), st.integers(0, 2**33))
# seeds of one to three words: SeedSequence hashes every word of the seed
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 12_345_000_001, 2**64]), st.integers(0, 2**70)
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    SEEDS,
    st.integers(0, 4).flatmap(
        lambda m: st.lists(st.lists(STREAM_WORDS, min_size=m, max_size=m), min_size=1, max_size=6)
    ),
    st.integers(1, 2),
)
def test_stream_blocks_match_numpy_philox(seed, rows, blocks):
    # (seed, *row) holds 1 to 7 words; 5 is the shape of the ler streams
    streams = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    keys, raw, exact = cm.stream_blocks(seed, streams, blocks)
    assert raw.shape == (len(rows), 4 * blocks)
    for row, key, draws, ok in zip(rows, keys, raw, exact):
        # an entry of 2**32 or more makes SeedSequence hash more words: not batched
        assert ok == all(w < 2**32 for w in row)
        if ok:
            bit_generator = Philox(SeedSequence((seed, *row)))
            assert np.array_equal(key, bit_generator.state["state"]["key"])
            assert np.array_equal(draws, bit_generator.random_raw(4 * blocks))


@pytest.mark.parametrize("n", [1, 16])
def test_stream_blocks_give_keys_alone_for_zero_blocks(n, monkeypatch):
    # keying a chunk's sample streams asks for no blocks: no Philox rounds run
    assert cm.batched_streams_agree()  # its own check draws blocks, so it runs first
    monkeypatch.setattr(cm, "_philox_blocks", None)
    streams = np.column_stack((np.full(n, 11), np.arange(n), np.arange(n) % 2))
    keys, raw, exact = cm.stream_blocks(3, streams, 0)
    assert exact.all() and raw.shape == (n, 0) and raw.dtype == np.uint64
    for row, key in zip(streams.tolist(), keys):
        assert np.array_equal(key, cm.rng_stream(3, *row).bit_generator.state["state"]["key"])


def test_stream_blocks_fall_back_when_numpy_disagrees(monkeypatch):
    streams = np.array([[7, 0], [11, 3]])
    assert cm.batched_streams_agree()
    assert cm.stream_blocks(1, streams)[2].all()
    monkeypatch.setattr(cm, "_BATCHED_STREAMS_OK", False)
    assert not cm.batched_streams_agree()
    assert not cm.stream_blocks(1, streams)[2].any()


def test_stream_blocks_leave_a_negative_seed_to_numpy():
    # SeedSequence refuses a negative seed; the batch must not key one
    assert not cm.stream_blocks(-1, np.array([[7, 0], [11, 3]]))[2].any()
