"""Union-find decoding of space-time syndromes, and the validity and logical-failure checks.

``decode_defects(graph, defects)`` is the one union-find decoder.  It takes
a sector's sorted defect vertex ids and grows clusters by one synchronous
rule (Delfosse and Nickerson, arXiv:1709.06218): in each iteration, every
edge below full growth gains one half for each endpoint that lies in an
active cluster (odd parity, not touching the open boundary), capped at
full, and the newly full edges then fuse in edge-id order, joining their
endpoints' clusters or marking the cluster as touching the boundary.
Growth stops when no cluster is active.  Each cluster is then peeled
leaf-first along a breadth-first spanning tree of its full interior edges
to give the correction's fault ids; a shot's residual is the XOR of the
sampled faults and the correction.  All tie-breaks (fusion order, tree
roots, peeling order) use fixed vertex/edge-id order, so decoding is a pure
function of (graph, defects).

Every table is keyed by the vertices and edges a decode touches, so a
decode costs O(defects + grown edges), with no graph-sized pass; it reads
the graph as flat tuples indexed by id: an edge's endpoints from
``edge_u``/``edge_v``, and a vertex's edges as its run of ``incident_ids``,
sliced at ``incident_starts`` when a cluster first reaches the vertex.
``decode_with_stats(graph, syndrome)`` and ``decode`` wrap it for
``SyndromeRounds`` inputs.

``settle_rows(graph, defect_rows)`` gives, in one numpy pass over many
defect rows, the correction ``decode_defects`` would give each row that
isolated single faults explain, and declines every other row.  A row is
settled when each of its defects is either
(a) one end of a pair: it shares an interior edge with exactly one other
    defect, which shares one with no other; or
(b) lone: no other defect lies within two hops, and it has a boundary edge.
Its correction is its pair edges plus, per lone defect, that defect's
lowest-id boundary edge.  This is exact: in iteration 1 only the pair
edges get a half from both ends, so they alone fuse and leave each pair an
even, inactive cluster; every other grown edge has one defect end and no
other defect within reach.  In iteration 2 each lone defect's edges all
become full, which joins its neighbours (no defect's neighbours) and
touches the boundary, so growth stops.  The peel then takes each pair's
edge, and each lone cluster, rooted at its lowest full boundary edge,
takes that edge.  A settled row's ``DecodeStats`` are known without a
decode: 1 growth iteration, or 2 with a lone defect; fusions = pairs +
the summed degree (boundary edges included) of the lone defects; clusters
= pairs + lone defects.

The tests check this decoder against a brute-force minimum-weight oracle
in ``tests/reference.py``, which shares no code with it beyond the graph's
edge arrays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .code_model import (
    BOUNDARY,
    DecodingGraph,
    ErrorPattern,
    SyndromeRounds,
    pattern_from_fault_ids,
    syndrome_of,
)

HALF = 1
FULL = 2


@dataclass
class DecodeStats:
    growth_iterations: int = 0
    fusions: int = 0
    clusters: int = 0


class ClusterState:
    """The clusters of one decode under the synchronous growth rule.

    A disjoint-set forest with path compression (``find``, ``union``) holds
    the clusters; ``parity`` maps a root to its cluster's defect parity,
    ``growth`` an edge to its half-edge count, ``active`` is the set of
    active roots and ``full_edges`` lists the fused edges in fusion order.
    A root's frontier lists each of its cluster's edges below full once per
    endpoint in the cluster, so one pass over the active frontiers applies
    the rule.  A vertex absent from ``parent`` is a root, and a vertex no
    decode touched has no entry in any table.
    """

    def __init__(self, graph: DecodingGraph, defects):
        self.graph = graph
        self.parent = {}
        self.parity = defaultdict(int, dict.fromkeys(defects, 1))
        self.growth = {}
        self.active = set(self.parity)
        self.touches_boundary = set()
        self.full_edges = []
        ids, starts = graph.incident_ids, graph.incident_starts
        self._frontier = {v: ids[starts[v] : starts[v + 1]] for v in self.active}  # never mutated in place

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while root in parent:
            root = parent[root]
        while v != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the clusters of a and b; never splits. Returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.parent[rb] = ra
        frontier, ids, starts = self._frontier, self.graph.incident_ids, self.graph.incident_starts
        fa, fb = frontier.get(ra), frontier.pop(rb, None)  # None: a vertex no cluster has reached
        frontier[ra] = [*(ids[starts[ra] : starts[ra + 1]] if fa is None else fa),
                        *(ids[starts[rb] : starts[rb + 1]] if fb is None else fb)]
        odd = self.parity[ra] = self.parity[ra] ^ self.parity.pop(rb, 0)
        boundary = self.touches_boundary
        if rb in boundary:
            boundary.add(ra)
        self.active.discard(rb)
        if odd and ra not in boundary:
            self.active.add(ra)
        else:
            self.active.discard(ra)
        return ra

    def grow(self, stats: DecodeStats):
        """One iteration of the growth rule; returns True while a cluster was active."""
        if not self.active:
            return False
        stats.growth_iterations += 1
        growth, frontier = self.growth, self._frontier
        fused = []
        for root in self.active:
            keep = []
            for e_id in frontier[root]:
                g = growth.get(e_id, 0)
                if g == HALF:
                    growth[e_id] = FULL
                    fused.append(e_id)
                elif g < HALF:
                    growth[e_id] = HALF
                    keep.append(e_id)
            frontier[root] = keep
        fused.sort()
        stats.fusions += len(fused)
        self.full_edges += fused
        edge_u, edge_v = self.graph.edge_u, self.graph.edge_v
        for e_id in fused:
            v = edge_v[e_id]
            if v == BOUNDARY:
                root = self.find(edge_u[e_id])
                self.touches_boundary.add(root)
                self.active.discard(root)
            else:
                self.union(edge_u[e_id], v)
        return True


def decode_defects(graph: DecodingGraph, defects):
    """Union-find decode of one sector's sorted defect vertex ids.

    Returns ``(fault ids of the correction, DecodeStats)``; the correction
    always annihilates the defects.  Raises ValueError for an id outside
    ``[0, n_vertices)``.  After growth, each cluster is peeled from its tree
    root (the lowest endpoint of its lowest boundary edge if it touches the
    boundary, else its lowest vertex) over its full interior edges, visited
    in edge-id order.
    """
    stats = DecodeStats()
    if not len(defects):
        return [], stats
    if min(defects) < 0 or max(defects) >= graph.n_vertices:
        raise ValueError(f"defect ids outside [0, {graph.n_vertices}) for this graph")

    state = ClusterState(graph, defects)
    while state.grow(stats):
        pass

    find = state.find
    edge_u, edge_v = graph.edge_u, graph.edge_v
    adjacency = {v: [] for v in defects}
    root_edge = {}  # boundary cluster root -> its lowest full boundary edge
    for e_id in sorted(state.full_edges):
        u, v = edge_u[e_id], edge_v[e_id]
        if v == BOUNDARY:
            root_edge.setdefault(find(u), e_id)
        else:
            adjacency.setdefault(u, []).append((e_id, v))
            adjacency.setdefault(v, []).append((e_id, u))
    tree_root = {}
    for v in sorted(adjacency):
        tree_root.setdefault(find(v), v)
    stats.clusters = len(tree_root)
    for root, e_id in root_edge.items():
        tree_root[root] = edge_u[e_id]

    # One breadth-first pass from every tree root: the clusters are disjoint,
    # so each one's tree is the one a pass from its root alone would build.
    order = list(tree_root.values())
    link = dict.fromkeys(order)
    for v in order:
        for e_id, w in adjacency[v]:
            if w not in link:
                link[w] = (v, e_id)
                order.append(w)
    odd = set(defects)
    selected = []
    for v in reversed(order):
        if v in odd and link[v] is not None:
            pv, e_id = link[v]
            selected.append(e_id)
            odd.symmetric_difference_update((pv,))
    for root, v in tree_root.items():
        if v in odd:
            if root not in root_edge:
                raise AssertionError("even-parity cluster left an unpaired defect")
            selected.append(root_edge[root])
    return selected, stats


def settle_rows(graph: DecodingGraph, defect_rows: np.ndarray):
    """``decode_defects``' corrections of the single-fault rows of a 0/1 defect matrix.

    ``defect_rows`` is (rows, n_vertices); see the module docstring for
    which rows are settled.  Returns ``(fixes, declined)``: ``fixes[i]`` is
    row i's correction as intp fault ids (the set ``decode_defects`` gives),
    or None for a declined row, and ``declined`` lists ``(i, defect ids)``
    for each declined row, ascending, as ``decode_defects`` takes them.
    """
    m, n_vertices = defect_rows.shape
    table, u, v = graph.incident_table, graph.u, graph.v
    padded = np.zeros((m, n_vertices + 1), dtype=bool)  # column -1 reads "no defect"
    padded[:, :n_vertices] = defect_rows
    row, x = np.divmod(np.flatnonzero(padded), n_vertices + 1)  # 10x faster on bool than uint8
    edges = table[x]
    # each slot's far end: a vertex, or -1 for a boundary edge (u ^ -1 ^ u) and for padding
    near = np.where(edges >= 0, u[edges] ^ v[edges] ^ x[:, None], -1)
    is_defect = padded[row[:, None], near]
    n_near = is_defect.sum(axis=1, dtype=np.int8)
    slot = is_defect.argmax(axis=1)
    partner = near[np.arange(len(x)), slot]
    # a partner with a second defect neighbour is neither paired nor lone,
    # so it declines the row itself
    paired = n_near == 1
    boundary = (edges >= 0) & (near < 0)
    lone = (n_near == 0) & boundary.any(axis=1)
    k = np.flatnonzero(lone)
    w = near[k]  # two hops out, for the lone candidates only
    far = table[w]
    far = np.where((far >= 0) & (w >= 0)[:, :, None], u[far] ^ v[far] ^ w[:, :, None], -1)
    far[far == x[k, None, None]] = -1
    lone[k] = ~padded[row[k, None, None], far].any(axis=(1, 2))

    settled = np.ones(m, dtype=bool)
    settled[row[~(paired | lone)]] = False
    take = (paired & (x < partner)) | lone
    ids = edges[take, np.where(lone, boundary.argmax(axis=1), slot)[take]]
    # each row's defects and correction ids are runs of x and ids
    bounds = np.arange(m + 1)
    starts, cuts = np.searchsorted(row, bounds).tolist(), np.searchsorted(row[take], bounds).tolist()
    fixes, declined = [], []
    for i, ok in enumerate(settled.tolist()):
        fixes.append(ids[cuts[i] : cuts[i + 1]] if ok else None)
        if not ok:
            declined.append((i, x[starts[i] : starts[i + 1]].tolist()))
    return fixes, declined


def decode_with_stats(graph: DecodingGraph, syndrome: SyndromeRounds):
    """``decode_defects`` on a syndrome: the correction pattern and the growth statistics."""
    ids, stats = decode_defects(graph, syndrome.defect_vertices(graph))
    return pattern_from_fault_ids(graph, ids), stats


def decode(graph: DecodingGraph, syndrome: SyndromeRounds) -> ErrorPattern:
    """Decode one sector's syndrome; the correction always annihilates it."""
    correction, _ = decode_with_stats(graph, syndrome)
    return correction


def is_valid(correction: ErrorPattern, syndrome: SyndromeRounds, graph: DecodingGraph) -> bool:
    """True iff the correction's edge parity reproduces the sector syndrome.

    Raises ValueError when the syndrome's shape does not match the graph.
    Costs one numpy scan of the sector's syndrome bits plus Python work in
    O(correction weight + defects).
    """
    defects = set(syndrome.defect_vertices(graph))
    edge_u, edge_v = graph.edge_u, graph.edge_v
    flipped = set()
    for e_id in correction.fault_ids:
        u, v = edge_u[e_id], edge_v[e_id]
        flipped.symmetric_difference_update((u,) if v == BOUNDARY else (u, v))
    return flipped == defects


def is_logical_failure(pattern: ErrorPattern, correction: ErrorPattern) -> bool:
    """True iff the residual error holds an odd number of the graph's crossing edges.

    The residual is pattern XOR correction; only ``graph.crossing_ids``
    count (measurement faults never touch the data).  Rejects corrections
    that do not annihilate the pattern's syndrome.
    """
    graph = correction.graph
    if not is_valid(correction, syndrome_of(pattern, graph), graph):
        raise ValueError("correction does not annihilate the pattern's syndrome")
    return len((pattern.fault_ids ^ correction.fault_ids) & graph.crossing_ids) % 2 == 1
