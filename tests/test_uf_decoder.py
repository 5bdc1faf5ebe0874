import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecfabric import code_model as cm
from qecfabric import uf_decoder as uf
from reference import (
    SPACELIKE,
    TIMELIKE,
    OracleCapError,
    count_min_weight_solutions,
    edges,
    fault_id,
    oracle_decode,
)


def graph_for(d, sector=cm.SECTOR_X, rounds=None):
    layout = cm.build_layout(d)
    return layout, cm.build_decoding_graph(layout, sector, rounds or d)


def correction_of(graph, fault_ids):
    return cm.pattern_from_fault_ids(graph, fault_ids)


def test_zero_syndrome_gives_empty_correction():
    layout, graph = graph_for(3)
    syn = cm.empty_syndrome(layout, graph.rounds)
    corr = uf.decode(graph, syn)
    assert len(corr.fault_ids) == 0
    assert uf.is_valid(corr, syn, graph)


def test_dimension_mismatch_rejected():
    layout, graph = graph_for(3)
    wrong = cm.empty_syndrome(layout, graph.rounds + 1)
    with pytest.raises(ValueError):
        uf.decode(graph, wrong)


def test_adjacent_defect_pair_decodes_to_shared_edge():
    layout, graph = graph_for(3, rounds=1)
    for e_id, e in enumerate(edges(graph)):
        if e.v == cm.BOUNDARY:
            continue
        syn = cm.syndrome_from_defects(graph, [e.u, e.v])
        corr = uf.decode(graph, syn)
        oracle = oracle_decode(graph, syn)
        assert oracle.fault_ids == {e_id}
        assert corr.fault_ids == {e_id}


def test_decode_is_deterministic():
    layout, graph = graph_for(5)
    pattern = cm.sample_errors(graph, 0.05, seed=3)
    syn = cm.syndrome_of(pattern, graph)
    a = uf.decode(graph, syn)
    b = uf.decode(graph, syn)
    assert a.fault_ids == b.fault_ids


@pytest.mark.parametrize("d,p", [(3, 0.02), (3, 0.1), (5, 0.01), (5, 0.05)])
def test_decode_always_annihilates(d, p):
    layout, graph = graph_for(d)
    for shot in range(500):
        pattern = cm.sample_errors(graph, p, seed=21, stream=(shot,))
        syn = cm.syndrome_of(pattern, graph)
        corr = uf.decode(graph, syn)
        assert uf.is_valid(corr, syn, graph)


def test_cluster_state_invariants():
    layout, graph = graph_for(3)
    state = uf.ClusterState(graph, defects=[0, 5])
    root = state.find(0)
    assert state.find(root) == root  # find is idempotent
    merged = state.union(0, 5)
    assert state.find(0) == state.find(5) == merged
    assert state.parity[merged] == 0  # two defects cancel
    again = state.union(0, 5)  # union never splits
    assert again == merged and state.find(5) == merged


def test_growth_is_monotone():
    layout, graph = graph_for(3, rounds=1)
    defects = [edges(graph)[0].u]
    state = uf.ClusterState(graph, defects)
    stats = uf.DecodeStats()
    previous = dict(state.growth)
    while state.grow(stats):
        assert all(state.growth[e_id] >= before for e_id, before in previous.items())
        previous = dict(state.growth)


def test_decode_defects_rejects_vertex_ids_outside_the_graph():
    layout, graph = graph_for(3)
    for defects in ([-1], [graph.n_vertices], [0, graph.n_vertices + 5]):
        with pytest.raises(ValueError, match="outside"):
            uf.decode_defects(graph, defects)


def test_decode_defects_agrees_with_the_syndrome_wrapper():
    layout, graph = graph_for(5)
    for seed in range(20):
        syn = cm.syndrome_of(cm.sample_errors(graph, 0.03, seed=seed), graph)
        ids, stats = uf.decode_defects(graph, syn.defect_vertices(graph))
        corr, wrapped = uf.decode_with_stats(graph, syn)
        assert len(ids) == len(set(ids)) and set(ids) == corr.fault_ids and stats == wrapped


def test_worst_case_style_pattern_valid():
    # a far-separated defect pair forces multiple growth iterations
    layout, graph = graph_for(3)
    pattern = cm.sample_errors(graph, 0.15, seed=99)
    syn = cm.syndrome_of(pattern, graph)
    corr, stats = uf.decode_with_stats(graph, syn)
    assert uf.is_valid(corr, syn, graph)
    assert stats.growth_iterations >= 1


# ---- pinned corpus and properties ---------------------------------------

# sha256 over the corpus below of (sorted fault ids, growth iterations,
# fusions, clusters), pinned from the decoder whose post-growth pass still
# scanned every vertex and edge; the region-proportional pass must match it.
CORPUS_DIGEST = "9f301d0f9cd9b8b75b2417c0e26114efce63a2fd1b0ae48fcacb552bfccc1675"


def equivalence_corpus():
    """Exhaustive d=3 weight <= 1 and d=5 weight <= 2 syndromes, then sampled d=7/9 shots."""
    for d, max_weight in ((3, 1), (5, 2)):
        layout = cm.build_layout(d)
        for sector in cm.SECTORS:
            graph = cm.build_decoding_graph(layout, sector, d)
            graph_edges = edges(graph)
            for w in range(max_weight + 1):
                for combo in itertools.combinations(range(graph.n_edges), w):
                    flipped = set()
                    for e_id in combo:
                        e = graph_edges[e_id]
                        flipped ^= {e.u} if e.v == cm.BOUNDARY else {e.u, e.v}
                    yield graph, cm.syndrome_from_defects(graph, sorted(flipped))
    for d in (7, 9):
        layout = cm.build_layout(d)
        graphs = [cm.build_decoding_graph(layout, s, d) for s in cm.SECTORS]
        for p in (1e-3, 1e-2, 0.05):
            for shot in range(200):
                for k, graph in enumerate(graphs):
                    pattern = cm.sample_errors(graph, p, seed=d, stream=(shot, k))
                    yield graph, cm.syndrome_of(pattern, graph)


def test_decoder_reproduces_pinned_corpus():
    digest = hashlib.sha256()
    for graph, syn in equivalence_corpus():
        corr, stats = uf.decode_with_stats(graph, syn)
        record = (sorted(corr.fault_ids), stats.growth_iterations, stats.fusions, stats.clusters)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == CORPUS_DIGEST


# sha256 over the corpus below, recorded as for CORPUS_DIGEST, pinned from the
# decoder that still ranked its unions and sorted its active roots each step
CAMPAIGN_CORPUS_DIGEST = "ac68e0fc8d5feced1953465f048b52a7affe55bdcd4b345057f6166a1256778c"


def campaign_corpus():
    """200 sampled shots per sector at d=13 and d=21, p=1e-3: the campaign sizes."""
    for d in (13, 21):
        layout = cm.build_layout(d)
        graphs = [cm.build_decoding_graph(layout, s, d) for s in cm.SECTORS]
        for shot in range(200):
            for k, graph in enumerate(graphs):
                pattern = cm.sample_errors(graph, 1e-3, seed=d, stream=(shot, k))
                yield graph, cm.syndrome_of(pattern, graph)


def test_decoder_reproduces_pinned_campaign_corpus():
    digest = hashlib.sha256()
    for graph, syn in campaign_corpus():
        corr, stats = uf.decode_with_stats(graph, syn)
        record = (sorted(corr.fault_ids), stats.growth_iterations, stats.fusions, stats.clusters)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == CAMPAIGN_CORPUS_DIGEST


def sector_graph(d, rounds, sector):
    return cm.build_decoding_graph(cm.build_layout(d), sector, rounds)


# the oracle searches subsets by increasing weight; beyond this the search
# on a 35-edge graph no longer fits the test's time budget
ORACLE_MAX_WEIGHT = 4


@st.composite
def decode_instances(draw):
    d = draw(st.sampled_from([3, 5, 7, 9]))
    rounds = draw(st.integers(1, d + 2))
    sector = draw(st.sampled_from(cm.SECTORS))
    p = draw(st.floats(0.0, 0.3, exclude_min=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, rounds, sector, p, seed


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(decode_instances())
def test_decoder_properties(instance):
    d, rounds, sector, p, seed = instance
    graph = sector_graph(d, rounds, sector)
    syn = cm.syndrome_of(cm.sample_errors(graph, p, seed), graph)
    corr, stats = uf.decode_with_stats(graph, syn)
    assert uf.is_valid(corr, syn, graph)
    again, again_stats = uf.decode_with_stats(graph, syn)
    assert again.fault_ids == corr.fault_ids and again_stats == stats
    if graph.n_edges <= 40 and len(corr.fault_ids) <= ORACLE_MAX_WEIGHT:
        oracle = oracle_decode(graph, syn, max_weight=len(corr.fault_ids))
        assert len(oracle.fault_ids) <= len(corr.fault_ids)


@st.composite
def growth_instances(draw):
    d = draw(st.sampled_from([3, 5, 7]))
    rounds = draw(st.integers(1, d))
    sector = draw(st.sampled_from(cm.SECTORS))
    p = draw(st.floats(0.0, 0.2, exclude_min=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, rounds, sector, p, seed


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(growth_instances())
def test_grow_adds_one_half_per_active_endpoint(instance):
    # the rule, checked against clusters recomputed from scratch each step: a
    # cluster is active when it holds an odd number of defects and no full
    # boundary edge; every edge gains one half per endpoint in an active
    # cluster, capped at full, and full interior edges join their endpoints
    d, rounds, sector, p, seed = instance
    graph = sector_graph(d, rounds, sector)
    defects = cm.syndrome_of(cm.sample_errors(graph, p, seed), graph).defect_vertices(graph)
    state = uf.ClusterState(graph, defects)
    stats = uf.DecodeStats()
    ends = list(zip(graph.edge_u, graph.edge_v))
    while True:
        root = [state.find(v) for v in range(graph.n_vertices)]
        odd = {}
        for v in defects:
            odd[root[v]] = odd.get(root[v], 0) ^ 1
        grounded = {root[u] for e_id, (u, v) in enumerate(ends)
                    if v == cm.BOUNDARY and state.growth.get(e_id, 0) == uf.FULL}
        active = [odd.get(r, 0) == 1 and r not in grounded for r in root]
        before = dict(state.growth)
        if not state.grow(stats):
            assert not any(active)
            break
        for e_id, (u, v) in enumerate(ends):
            halves = active[u] + (v != cm.BOUNDARY and active[v])
            assert state.growth.get(e_id, 0) == min(uf.FULL, before.get(e_id, 0) + halves * uf.HALF)
            if v != cm.BOUNDARY and state.growth.get(e_id, 0) == uf.FULL:
                assert state.find(u) == state.find(v)
    assert stats.growth_iterations <= graph.n_edges


def neighbours(graph):
    """Per vertex, its set of interior neighbours and its number of boundary edges."""
    near, grounded = [set() for _ in range(graph.n_vertices)], [0] * graph.n_vertices
    for u, v in zip(graph.edge_u, graph.edge_v):
        if v == cm.BOUNDARY:
            grounded[u] += 1
        else:
            near[u].add(v)
            near[v].add(u)
    return near, grounded


def near_misses(d, rounds, sector):
    """Defect sets built to sit at the edge of the settle rule, each with whether it
    settles; a shape the graph cannot hold is left out."""
    graph = sector_graph(d, rounds, sector)
    near, grounded = neighbours(graph)
    vertices = range(graph.n_vertices)

    def first(candidates):
        return next((sorted(c) for c in candidates), None)

    def pairs_only(defects):
        return all(len(near[x] & defects) == 1 for x in defects)

    shapes = {
        # a lone boundary defect with another defect exactly two hops away
        "two hops": (first({c, y} for c in vertices if grounded[c] for w in near[c]
                           for y in near[w] if y != c and y not in near[c]), False),
        # two isolated pairs whose ends share a neighbour
        "shared neighbour": (first(
            {a1, b1, a2, b2} for w in vertices for a1 in near[w] for a2 in near[w] if a1 < a2
            for b1 in near[a1] for b2 in near[a2]
            if len({w, a1, b1, a2, b2}) == 5 and pairs_only({a1, b1, a2, b2})), True),
        "chain of three": (first({a, b, c} for b in vertices for a in near[b] for c in near[b]
                                 if a < c and c not in near[a]), False),
        "lone interior": (first({v} for v in vertices if not grounded[v]), False),
        # the lowest of two boundary edges must be taken
        "two boundary edges": (first({v} for v in vertices if grounded[v] == 2), True),
    }
    return {name: shape for name, shape in shapes.items() if shape[0] is not None}


@st.composite
def settle_instances(draw):
    d = draw(st.sampled_from([3, 5, 7, 9]))
    rounds = draw(st.integers(1, d))
    sector = draw(st.sampled_from(cm.SECTORS))
    p = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    return d, rounds, sector, p, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(settle_instances())
def test_settled_rows_match_decode_defects(instance):
    d, rounds, sector, p, seed = instance
    graph = sector_graph(d, rounds, sector)
    near, _ = neighbours(graph)
    starts = graph.incident_starts
    faults = np.random.default_rng(seed).random((32, graph.n_edges)) < p
    defect_rows = graph.fault_parity(np.flatnonzero(faults), len(faults))[0]
    rows = [np.flatnonzero(row).tolist() for row in defect_rows if row.any()]
    shapes = near_misses(d, rounds, sector)
    rows += [defects for defects, _ in shapes.values()]
    matrix = np.zeros((len(rows), graph.n_vertices), dtype=np.uint8)
    for i, defects in enumerate(rows):
        matrix[i, defects] = 1
    fixes, declined = uf.settle_rows(graph, matrix)
    assert [i for i, _ in declined] == [i for i, ids in enumerate(fixes) if ids is None]
    assert all(rows[i] == defects for i, defects in declined)
    for i, (_, settles) in enumerate(shapes.values(), start=len(rows) - len(shapes)):
        assert (fixes[i] is not None) == settles
    for defects, ids in zip(rows, fixes):
        if ids is None:
            continue
        expected, stats = uf.decode_defects(graph, defects)
        assert sorted(ids.tolist()) == sorted(expected)
        # the closed-form statistics of a settled row
        paired = [x for x in defects if near[x] & set(defects)]
        lone = [x for x in defects if x not in paired]
        assert stats == uf.DecodeStats(
            growth_iterations=2 if lone else 1,
            fusions=len(paired) // 2 + sum(starts[x + 1] - starts[x] for x in lone),
            clusters=len(paired) // 2 + len(lone),
        )


# ---- oracle ---------------------------------------------------------------


def test_oracle_zero_syndrome():
    layout, graph = graph_for(3, rounds=1)
    corr = oracle_decode(graph, cm.empty_syndrome(layout, 1))
    assert len(corr.fault_ids) == 0


def test_oracle_single_boundary_defect():
    layout, graph = graph_for(3, rounds=1)
    graph_edges = edges(graph)
    for e_id, e in enumerate(graph_edges):
        if e.v != cm.BOUNDARY:
            continue
        syn = cm.syndrome_from_defects(graph, [e.u])
        oracle = oracle_decode(graph, syn)
        assert len(oracle.fault_ids) == 1
        chosen = next(iter(oracle.fault_ids))
        assert graph_edges[chosen].v == cm.BOUNDARY
        assert uf.is_valid(oracle, syn, graph)


@pytest.mark.parametrize("rounds", [1, 2])
def test_oracle_recovers_weight_one(rounds):
    layout, graph = graph_for(3, rounds=rounds)
    for e_id in range(graph.n_edges):
        pattern = cm.pattern_from_fault_ids(graph, [e_id])
        syn = cm.syndrome_of(pattern, graph)
        oracle = oracle_decode(graph, syn)
        assert len(oracle.fault_ids) == 1
        assert cm.syndrome_of(
            cm.pattern_from_fault_ids(graph, oracle.fault_ids), graph
        ) == syn


def test_oracle_pairing_path_matches_exhaustive():
    # force the pairing branch by shrinking the exhaustive cap
    layout, graph = graph_for(3, rounds=2)
    for e_id in range(0, graph.n_edges, 3):
        syn = cm.syndrome_of(cm.pattern_from_fault_ids(graph, [e_id]), graph)
        exhaustive = oracle_decode(graph, syn)
        paired = oracle_decode(graph, syn, exhaustive_edge_cap=0)
        assert len(paired.fault_ids) == len(exhaustive.fault_ids)
        assert uf.is_valid(paired, syn, graph)


def test_oracle_cap_enforced():
    layout, graph = graph_for(5, rounds=5)  # 173 edges, beyond exhaustive cap
    defects = list(range(13))
    syn = cm.syndrome_from_defects(graph, defects)
    with pytest.raises(OracleCapError):
        oracle_decode(graph, syn)


def test_oracle_consistency_with_decoder():
    # decoder output is valid and never lighter than the true minimum
    for rounds in (1, 2):
        layout, graph = graph_for(3, rounds=rounds)
        for e_id in range(graph.n_edges):
            syn = cm.syndrome_of(cm.pattern_from_fault_ids(graph, [e_id]), graph)
            corr = uf.decode(graph, syn)
            oracle = oracle_decode(graph, syn)
            assert uf.is_valid(corr, syn, graph)
            assert uf.is_valid(oracle, syn, graph)
            assert len(corr.fault_ids) >= len(oracle.fault_ids)
            if count_min_weight_solutions(graph, syn, 1) == 1:
                assert corr.fault_ids == oracle.fault_ids


# ---- validity and logical failure ----------------------------------------


def test_is_valid_trivial_cases():
    layout, graph = graph_for(3)
    zero = cm.empty_syndrome(layout, graph.rounds)
    empty = uf.decode(graph, zero)
    assert uf.is_valid(empty, zero, graph)
    nonzero = cm.syndrome_from_defects(graph, [0])
    assert not uf.is_valid(empty, nonzero, graph)


def test_is_valid_rejects_wrong_shape():
    layout, graph = graph_for(3)
    empty = correction_of(graph, [])
    with pytest.raises(ValueError):
        uf.is_valid(empty, cm.empty_syndrome(layout, graph.rounds + 1), graph)


def test_is_valid_rejects_a_dropped_edge():
    layout, graph = graph_for(5)
    syn = cm.syndrome_of(cm.sample_errors(graph, 0.05, seed=8), graph)
    corr = uf.decode(graph, syn)
    assert len(corr.fault_ids) >= 1 and uf.is_valid(corr, syn, graph)
    for e_id in corr.fault_ids:
        assert not uf.is_valid(correction_of(graph, corr.fault_ids - {e_id}), syn, graph)


def test_is_valid_boundary_edge_corrects_single_defect():
    layout, graph = graph_for(3)
    graph_edges = edges(graph)
    boundary = [e_id for e_id, e in enumerate(graph_edges) if e.v == cm.BOUNDARY]
    for e_id in boundary:
        syn = cm.syndrome_from_defects(graph, [graph_edges[e_id].u])
        assert uf.is_valid(correction_of(graph, [e_id]), syn, graph)


def test_is_valid_double_flips_cancel():
    # a spacelike edge in rounds 0 and 1 plus the timelike edges of both
    # its endpoints form a cycle: every vertex on it is flipped twice
    layout, graph = graph_for(3, rounds=2)
    e = next(e for e in edges(graph) if e.kind == SPACELIKE and e.v != cm.BOUNDARY)
    cycle = [
        fault_id(graph, (e.qubit, 0), SPACELIKE),
        fault_id(graph, (e.qubit, 1), SPACELIKE),
        fault_id(graph, (e.u, 0), TIMELIKE),
        fault_id(graph, (e.v, 0), TIMELIKE),
    ]
    corr = correction_of(graph, cycle)
    assert uf.is_valid(corr, cm.empty_syndrome(layout, 2), graph)
    for v in (e.u, e.v, e.u + graph.n_stabilizers, e.v + graph.n_stabilizers):
        assert not uf.is_valid(corr, cm.syndrome_from_defects(graph, [v]), graph)


def test_logical_failure_trivial_cases():
    layout, graph = graph_for(3)
    pattern = cm.sample_errors(graph, 0.05, seed=17)
    syn = cm.syndrome_of(pattern, graph)
    exact = cm.pattern_from_fault_ids(graph, pattern.fault_ids)
    assert uf.is_logical_failure(pattern, exact) is False


def test_full_logical_chain_is_a_failure():
    layout, graph = graph_for(3, rounds=1)
    # the X-sector's undetectable chain runs along the opposite sector's
    # support (a full row); it crosses the X crossing chain exactly once
    chain = layout.crossing_chain[cm.SECTOR_Z]
    pattern = cm.pattern_from_fault_ids(
        graph, [fault_id(graph, (q, 0), SPACELIKE) for q in chain]
    )
    syn = cm.syndrome_of(pattern, graph)
    assert syn.total_weight == 0  # the chain is undetectable
    empty = uf.decode(graph, syn)
    assert uf.is_logical_failure(pattern, empty) is True


def test_invalid_correction_rejected_by_failure_check():
    layout, graph = graph_for(3)
    pattern = cm.pattern_from_fault_ids(graph, [0])
    empty = uf.decode(graph, cm.empty_syndrome(layout, graph.rounds))
    with pytest.raises(ValueError):
        uf.is_logical_failure(pattern, empty)


def test_distance_three_corrects_every_single_fault():
    layout = cm.build_layout(3)
    for sector in cm.SECTORS:
        graph = cm.build_decoding_graph(layout, sector, 3)
        for e_id in range(graph.n_edges):
            pattern = cm.pattern_from_fault_ids(graph, [e_id])
            syn = cm.syndrome_of(pattern, graph)
            corr = uf.decode(graph, syn)
            assert not uf.is_logical_failure(pattern, corr)


def test_data_fault_weight_one_at_d3_all_rounds():
    # spacelike-only variant: all single data faults across rounds decode clean
    layout = cm.build_layout(3)
    graph = cm.build_decoding_graph(layout, cm.SECTOR_Z, 3)
    spacelike = [i for i, e in enumerate(edges(graph)) if e.kind == SPACELIKE]
    for e_id in spacelike:
        pattern = cm.pattern_from_fault_ids(graph, [e_id])
        corr = uf.decode(graph, cm.syndrome_of(pattern, graph))
        assert not uf.is_logical_failure(pattern, corr)
