"""Union-find decoding of space-time syndromes, plus a minimum-weight oracle.

The decoder follows the standard union-find scheme: clusters seeded on
defect vertices grow by half edges, merge through a disjoint-set forest,
freeze once their parity is even or they touch the open boundary, and are
then peeled leaf-first along a spanning forest to extract the correction,
an ``ErrorPattern`` on the same graph: a shot's residual is the XOR of the
sampled pattern and the correction.
All tie-breaks (growth order, fusion order, peeling order) use fixed
vertex/edge-id order, so decoding is a pure function of (graph, syndrome).

Work after growth is O(defects + fully grown edges): growth records the
edges it brings to full growth, and cluster assembly and peeling touch only
those edges, their endpoints and the defects.  The cluster state lives in
dicts keyed by the vertices and edges a decode touches, so the one
graph-sized cost is the numpy scan of the sector's syndrome bits for its
defects.  ``is_valid`` likewise costs that scan plus O(correction weight +
defects) in Python.  Every pass reads the graph as flat lists indexed by
id: an edge's endpoints from ``edge_u``/``edge_v`` and a vertex's edges
from ``incident_edges``; none builds the graph's ``Edge`` objects.

``oracle_decode`` is an independent reference: exhaustive minimum-weight
search on small graphs, shortest-path defect pairing on small syndromes.
It shares no code with the cluster decoder beyond the graph's edge lists.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass

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


class OracleCapError(ValueError):
    """Instance too large for the brute-force oracle."""


@dataclass
class DecodeStats:
    growth_iterations: int = 0
    fusions: int = 0
    clusters: int = 0


class ClusterState:
    """Disjoint-set forest over graph vertices with cluster growth state.

    Tracks per-cluster defect parity, the roots whose cluster touches the
    boundary, per-edge growth meters (0 / half / full), the list of
    candidate growth edges and the ids of the edges grown to full, in the
    order they fused.  A cluster is frozen (stops growing) once its parity
    is even or it touches the boundary.

    Every table holds only the vertices and edges the decode touches, so
    setting up costs O(defects), not O(V + E): a vertex absent from
    ``parent`` is a root, and absent entries of ``rank``, ``parity`` and
    ``growth`` read as 0.
    """

    def __init__(self, graph: DecodingGraph, defects):
        self.graph = graph
        self.parent = {}
        self.rank = {}
        self.parity = defaultdict(int)
        self.touches_boundary = set()
        self.growth = {}
        self.defect = frozenset(defects)
        self.full_edges = []
        self._edge_lists = {}
        for v in defects:
            self.parity[v] = 1
            self._edge_lists[v] = list(graph.incident_edges[v])

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while root in parent:
            root = parent[root]
        while v != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def _edges_of(self, root: int):
        lst = self._edge_lists.get(root)
        if lst is None:
            lst = list(self.graph.incident_edges[root])
            self._edge_lists[root] = lst
        return lst

    def union(self, a: int, b: int) -> int:
        """Merge the clusters of a and b; never splits. Returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        rank_a, rank_b = self.rank.get(ra, 0), self.rank.get(rb, 0)
        if rank_a < rank_b:
            ra, rb = rb, ra
        elif rank_a == rank_b:
            self.rank[ra] = rank_a + 1
        self.parent[rb] = ra
        self.parity[ra] ^= self.parity[rb]
        if rb in self.touches_boundary:
            self.touches_boundary.add(ra)
        self._edges_of(ra).extend(self._edges_of(rb))
        self._edge_lists.pop(rb, None)
        return ra

    def active_roots(self):
        """Roots of odd-parity clusters not touching the boundary, id order."""
        roots = set()
        for v, pr in self._edge_lists.items():
            r = self.find(v)
            if self.parity[r] == 1 and r not in self.touches_boundary:
                roots.add(r)
        return sorted(roots)

    def grow(self, stats: DecodeStats):
        """One parallel growth step of every active cluster.

        Every candidate edge of every active cluster gains half an edge of
        growth; edges reaching full growth trigger fusions (in edge-id
        order).  Returns True while any cluster is still active.
        """
        active = self.active_roots()
        if not active:
            return False
        stats.growth_iterations += 1
        fused = set()
        growth = self.growth
        growth_of = growth.get
        for root in active:
            lst = self._edge_lists[root]
            keep = []
            for e_id in lst:
                g = growth_of(e_id, 0)
                if g >= FULL:
                    continue
                g += HALF
                growth[e_id] = g
                if g >= FULL:
                    fused.add(e_id)
                else:
                    keep.append(e_id)
            lst[:] = keep
        edge_u, edge_v = self.graph.edge_u, self.graph.edge_v
        for e_id in sorted(fused):
            stats.fusions += 1
            self.full_edges.append(e_id)
            v = edge_v[e_id]
            if v == BOUNDARY:
                self.touches_boundary.add(self.find(edge_u[e_id]))
            else:
                self.union(edge_u[e_id], v)
        return True


def _peel_cluster(graph, verts, defect, interior_full, boundary_full, touches_boundary):
    """Leaf-first peeling of one frozen cluster; returns selected edge ids."""
    edge_u, edge_v = graph.edge_u, graph.edge_v
    adjacency = defaultdict(list)
    for e_id in interior_full:
        u, v = edge_u[e_id], edge_v[e_id]
        adjacency[u].append((e_id, v))
        adjacency[v].append((e_id, u))
    for v in adjacency:
        adjacency[v].sort()

    if touches_boundary:
        root_edge = min(boundary_full)
        tree_root = edge_u[root_edge]
    else:
        root_edge = None
        tree_root = min(verts)

    order = [tree_root]
    parent_of = {tree_root: (None, None)}
    queue = deque([tree_root])
    while queue:
        v = queue.popleft()
        for e_id, w in adjacency[v]:
            if w not in parent_of:
                parent_of[w] = (v, e_id)
                order.append(w)
                queue.append(w)

    selected = []
    live = {v: v in defect for v in order}
    for v in reversed(order[1:]):
        if live[v]:
            pv, pe = parent_of[v]
            selected.append(pe)
            live[pv] = not live[pv]
    if live[tree_root]:
        if root_edge is None:
            raise AssertionError("even-parity cluster left an unpaired defect")
        selected.append(root_edge)
    return selected


def decode_with_stats(graph: DecodingGraph, syndrome: SyndromeRounds):
    """Union-find decode returning the correction and growth statistics.

    After growth the work is O(defects + fully grown edges): every vertex
    outside a defect's cluster is a defect-free singleton, and a cluster's
    vertices are its defects plus the endpoints of its full interior edges.
    """
    defects = syndrome.defect_vertices(graph)
    stats = DecodeStats()
    if not defects:
        return pattern_from_fault_ids(graph, ()), stats

    state = ClusterState(graph, defects)
    while state.grow(stats):
        pass

    find = state.find
    edge_u, edge_v = graph.edge_u, graph.edge_v
    touched = set(defects)
    interior_full = defaultdict(list)
    boundary_full = defaultdict(list)
    for e_id in sorted(state.full_edges):
        u, v = edge_u[e_id], edge_v[e_id]
        root = find(u)
        if v == BOUNDARY:
            boundary_full[root].append(e_id)
        else:
            interior_full[root].append(e_id)
            touched.add(u)
            touched.add(v)
    members = defaultdict(list)
    for v in sorted(touched):
        members[find(v)].append(v)

    selected = []
    for root in sorted(members):
        stats.clusters += 1
        selected.extend(
            _peel_cluster(
                graph,
                members[root],
                state.defect,
                interior_full[root],
                boundary_full[root],
                root in state.touches_boundary,
            )
        )
    return pattern_from_fault_ids(graph, selected), stats


def decode(graph: DecodingGraph, syndrome: SyndromeRounds) -> ErrorPattern:
    """Decode one sector's syndrome; the correction always annihilates it."""
    correction, _ = decode_with_stats(graph, syndrome)
    return correction


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
