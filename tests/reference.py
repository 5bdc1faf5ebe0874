"""Test references: an edge-object view of a decoding graph and a brute-force oracle.

``edges(graph)`` and ``fault_id(graph, entry, kind)`` name a graph's faults
by kind, data qubit or stabilizer, and round.  Both are computed from the
graph's public arrays (``u``, ``v``, ``qubit``, ``rounds`` and
``n_stabilizers``), using its fixed edge order: each round's spacelike
edges in data-qubit order, then the timelike edges round by round in
stabilizer order.

``oracle_decode`` is an independent reference for the union-find decoder:
exhaustive minimum-weight search on small graphs, shortest-path defect
pairing on small syndromes.  It shares no code with the cluster decoder
beyond the graph's edge lists.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from qecfabric.code_model import (
    BOUNDARY,
    DecodingGraph,
    ErrorPattern,
    SyndromeRounds,
    pattern_from_fault_ids,
)

SPACELIKE = "spacelike"
TIMELIKE = "timelike"


@dataclass(frozen=True)
class Edge:
    """One elementary fault mechanism of a decoding graph.

    ``u`` is always a real vertex id; ``v`` is a vertex id or BOUNDARY.
    Spacelike edges carry the data ``qubit`` they live on; timelike edges
    carry the ``stab`` whose measurement they corrupt.
    """

    kind: str
    u: int
    v: int
    qubit: int | None
    stab: int | None
    round: int


def _spacelike_layout(graph: DecodingGraph):
    """(spacelike edges in all, spacelike edges per round) of a graph."""
    n_space = graph.n_edges - (graph.rounds - 1) * graph.n_stabilizers
    return n_space, n_space // graph.rounds


def edges(graph: DecodingGraph):
    """The graph's edges as ``Edge`` objects in fault-id order."""
    n_space, per_round = _spacelike_layout(graph)
    out = []
    for e_id, (u, v, q) in enumerate(zip(graph.edge_u, graph.edge_v, graph.qubit.tolist())):
        if q >= 0:
            out.append(Edge(SPACELIKE, u, v, q, None, e_id // per_round))
        else:
            t, s = divmod(e_id - n_space, graph.n_stabilizers)
            out.append(Edge(TIMELIKE, u, v, None, s, t))
    return tuple(out)


def fault_id(graph: DecodingGraph, entry, kind) -> int:
    """Fault id for a (qubit, round) data fault or (stab, round) measurement fault."""
    index, t = entry
    n_space, per_round = _spacelike_layout(graph)
    if kind == SPACELIKE:
        slots = np.flatnonzero(graph.qubit[:per_round] == index).tolist()
        if slots and 0 <= t < graph.rounds:
            return t * per_round + slots[0]
    elif 0 <= index < graph.n_stabilizers and 0 <= t < graph.rounds - 1:
        return n_space + t * graph.n_stabilizers + index
    raise ValueError(f"unknown {kind} fault {entry!r} for this graph")


class OracleCapError(ValueError):
    """Instance too large for the brute-force oracle."""


def _edge_masks(graph: DecodingGraph):
    return [1 << u if v == BOUNDARY else (1 << u) ^ (1 << v)
            for u, v in zip(graph.edge_u, graph.edge_v)]


def _pairing_decode(graph: DecodingGraph, defects):
    """Minimum shortest-path pairing of defects (boundary allowed)."""
    n_b = graph.n_vertices  # pseudo-vertex standing in for the boundary
    adjacency = defaultdict(list)
    for e_id, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v)):
        v = n_b if v == BOUNDARY else v
        adjacency[u].append((v, e_id))
        adjacency[v].append((u, e_id))

    def bfs(src):
        dist = {src: 0}
        pred = {src: None}  # vertex -> (prev vertex, edge id)
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w, e_id in sorted(adjacency[u], key=lambda x: x[1]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    pred[w] = (u, e_id)
                    queue.append(w)
        return dist, pred

    info = {d: bfs(d) for d in defects}

    def path_edges(src, dst):
        _, pred = info[src]
        out = []
        v = dst
        while pred[v] is not None:
            u, e_id = pred[v]
            out.append(e_id)
            v = u
        return out

    best = {"cost": None, "pairs": None}

    def search(remaining, cost, pairs):
        if best["cost"] is not None and cost >= best["cost"]:
            return
        if not remaining:
            best["cost"], best["pairs"] = cost, list(pairs)
            return
        d0 = remaining[0]
        rest = remaining[1:]
        dist0 = info[d0][0]
        for k, dj in enumerate(rest):
            if dj in dist0:
                pairs.append((d0, dj))
                search(rest[:k] + rest[k + 1 :], cost + dist0[dj], pairs)
                pairs.pop()
        if n_b in dist0:
            pairs.append((d0, n_b))
            search(rest, cost + dist0[n_b], pairs)
            pairs.pop()

    search(sorted(defects), 0, [])
    if best["pairs"] is None:
        raise OracleCapError("no pairing annihilates the syndrome")
    chosen = set()
    for a, b in best["pairs"]:
        chosen ^= set(path_edges(a, b))
    return chosen


def oracle_decode(
    graph: DecodingGraph,
    syndrome: SyndromeRounds,
    exhaustive_edge_cap: int = 40,
    defect_cap: int = 12,
    max_weight: int = 6,
) -> ErrorPattern:
    """Minimum-weight correction by brute force, for small-instance checks.

    Graphs with at most ``exhaustive_edge_cap`` edges are searched by
    increasing subset weight; larger instances fall back to shortest-path
    pairing of at most ``defect_cap`` defects.  Raises OracleCapError beyond
    those caps.
    """
    defects = syndrome.defect_vertices(graph)
    if not defects:
        return pattern_from_fault_ids(graph, ())
    if graph.n_edges <= exhaustive_edge_cap:
        target = 0
        for v in defects:
            target ^= 1 << v
        masks = _edge_masks(graph)
        ids = range(graph.n_edges)
        for w in range(max_weight + 1):
            for combo in itertools.combinations(ids, w):
                acc = 0
                for e_id in combo:
                    acc ^= masks[e_id]
                if acc == target:
                    return pattern_from_fault_ids(graph, combo)
        raise OracleCapError(f"no solution of weight <= {max_weight} found")
    if len(defects) <= defect_cap:
        return pattern_from_fault_ids(graph, _pairing_decode(graph, defects))
    raise OracleCapError(
        f"instance too large: {graph.n_edges} edges, {len(defects)} defects"
    )


def count_min_weight_solutions(graph: DecodingGraph, syndrome: SyndromeRounds, weight: int) -> int:
    """How many edge sets of exactly `weight` annihilate the syndrome."""
    target = 0
    for v in syndrome.defect_vertices(graph):
        target ^= 1 << v
    masks = _edge_masks(graph)
    count = 0
    for combo in itertools.combinations(range(graph.n_edges), weight):
        acc = 0
        for e_id in combo:
            acc ^= masks[e_id]
        if acc == target:
            count += 1
    return count

