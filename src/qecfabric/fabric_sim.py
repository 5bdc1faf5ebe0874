"""Tree control fabric: node levels, per-node clocks and timer alignment.

Time is integer picoseconds.  Each node's local clock (offset + linear ppm
drift against ideal time) is aligned by a four-timestamp exchange per tree
edge, whose two frames arrive at ``link_layer.delivery_time`` of the edge's
sync links, in the order a small deterministic event engine keeps, so an
alignment is a pure function of (config, seed).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .capacity_model import PROFILES, PlatformProfile
from .code_model import rng_stream
from .link_layer import DEFAULT_LINE_RATE_BPS, PAYLOAD_BITS_PER_FRAME, LinkModel, delivery_time

ROLE_LEAF = "LEAF"
ROLE_ROUTER = "ROUTER"
ROLE_ROOT = "ROOT"

# RNG stream tags (first index after the master seed)
_STREAM_CLOCK = 101


class CapacityError(ValueError):
    """The configured tree cannot host the code's qubits."""


def _half_even_div2(n: int) -> int:
    """n / 2 rounded half to even, exact integer arithmetic."""
    q, r = divmod(n, 2)
    return q + (1 if r and q % 2 else 0)


class Clock:
    """Node-local timer: local(t) = t + offset + drift_ppm * t / 1e6."""

    def __init__(self, offset_ps: int = 0, drift_ppm: int = 0):
        self.offset_ps = int(offset_ps)
        self.drift_ppm = int(drift_ppm)

    def local(self, t: int) -> int:
        return t + self.offset_ps + (self.drift_ppm * t) // 1_000_000


@dataclass
class NodeState:
    """One fabric node: role, tree links and clock."""

    node_id: int
    role: str
    parent: int | None = None
    children: tuple = ()
    clock: Clock = field(default_factory=Clock)


@dataclass(frozen=True)
class Event:
    fire_time: int
    seq: int
    node: int
    kind: str
    payload: object = field(compare=False, default=None)


class Simulator:
    """Event queue with deterministic (time, sequence) ordering."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._handlers = {}

    def on(self, kind: str, handler):
        self._handlers[kind] = handler

    def schedule(self, fire_time: int, node: int, kind: str, payload=None) -> Event:
        if fire_time < self.now:
            raise ValueError(f"cannot schedule into the past ({fire_time} < {self.now})")
        ev = Event(int(fire_time), self._seq, node, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, (ev.fire_time, ev.seq, ev))
        return ev

    def _dispatch(self, ev: Event):
        self.now = ev.fire_time
        handler = self._handlers.get(ev.kind)
        if handler is not None:
            handler(ev)

    def run_until(self, t: int) -> int:
        """Process every event with fire time <= t; returns the count."""
        count = 0
        while self._heap and self._heap[0][0] <= t:
            _, _, ev = heapq.heappop(self._heap)
            self._dispatch(ev)
            count += 1
        self.now = max(self.now, t)
        return count

    def run_all(self) -> int:
        count = 0
        while self._heap:
            _, _, ev = heapq.heappop(self._heap)
            self._dispatch(ev)
            count += 1
        return count


@dataclass(frozen=True)
class TopologyConfig:
    """Shape and physical parameters of the control tree.

    ``router_layers`` inserts that many aggregation levels between the root
    and the leaves; every non-leaf node is limited to ``root_ports`` or
    ``router_children`` downstream ports.  The links here carry only the
    timer-alignment frames; data transport time is a pipeline stage
    (``StageLatencyConfig.uplink``/``downlink``), not a property of the tree.
    """

    n_leaves: int
    root_ports: int = PROFILES["zcu216"].root_ports
    router_children: int = PlatformProfile.router_children
    router_layers: int = 0
    sync_uplink: LinkModel = LinkModel(DEFAULT_LINE_RATE_BPS, 1, 156_000, 0)
    sync_downlink: LinkModel = LinkModel(DEFAULT_LINE_RATE_BPS, 1, 156_000, 0)
    clock_offset_bound_ps: int = 0
    drift_ppm: int = 0


class Fabric:
    """Instantiated node tree whose edges carry ``config``'s sync links.

    ``levels`` holds the node ids level by level, root first and leaves last;
    each level is its parents' children in order, one contiguous run per parent.
    """

    def __init__(self, config: TopologyConfig, seed: int = 0):
        if config.n_leaves < 1:
            raise ValueError("need at least one leaf")
        self.config = config
        self.nodes = {}
        self.root_id = 0

        # Group leaves under routers level by level until the root's fan-out
        # fits its port budget; exactly router_layers levels are built.
        counts = [config.n_leaves]
        for _ in range(config.router_layers):
            counts.append(-(-counts[-1] // config.router_children))
        if counts[-1] > config.root_ports:
            raise CapacityError(
                f"{config.n_leaves} leaf boards need {counts[-1]} top-level nodes with "
                f"router_layers={config.router_layers}, more than the root's "
                f"{config.root_ports} ports. Add a router layer to extend capacity."
            )

        roles = [ROLE_ROOT] + [ROLE_ROUTER] * config.router_layers + [ROLE_LEAF]
        self.levels = []
        for role, count in zip(roles, [1] + counts[::-1]):
            row = tuple(range(len(self.nodes), len(self.nodes) + count))
            for node_id in row:
                self.nodes[node_id] = NodeState(node_id, role)
            if self.levels:
                self._attach(self.levels[-1], row)
            self.levels.append(row)

        self._init_clocks(seed)

    def _attach(self, parents, children):
        fanout = -(-len(children) // len(parents))
        for k, child in enumerate(children):
            parent = parents[k // fanout]
            self.nodes[child].parent = parent
            self.nodes[parent].children = self.nodes[parent].children + (child,)

    def _init_clocks(self, seed):
        bound = self.config.clock_offset_bound_ps
        if bound > 0:
            rng = rng_stream(seed, _STREAM_CLOCK)
            offsets = rng.integers(-bound, bound + 1, size=len(self.nodes))
        else:
            offsets = [0] * len(self.nodes)
        for node_id in sorted(self.nodes):
            self.nodes[node_id].clock = Clock(int(offsets[node_id]), self.config.drift_ppm)

    def edges_top_down(self):
        """(parent, child) pairs level by level from the root: BFS order, since
        each level is its parents' child runs in order."""
        return [(n, child) for row in self.levels for n in row for child in self.nodes[n].children]

    def residuals(self, t: int) -> dict:
        """node -> its local clock minus the root's at ideal time ``t``."""
        root = self.nodes[self.root_id].clock.local(t)
        return {node_id: node.clock.local(t) - root for node_id, node in self.nodes.items()}

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def ptp_sync(sim: Simulator, fabric: Fabric, parent_id: int, child_id: int, rng=None) -> int:
    """One two-message timer-alignment exchange along a tree edge.

    The child applies correction ((t2-t1) - (t4-t3)) / 2 (round half to
    even) to its offset and the correction is returned.  With symmetric
    link delay and zero drift the child lands exactly on the parent's
    timeline; a delay asymmetry of D leaves a residual of D/2.
    """
    parent = fabric.nodes[parent_id]
    child = fabric.nodes[child_id]

    # each sync message is priced as one 64B/66B frame
    t1 = parent.clock.local(sim.now)
    t_arrive = delivery_time(PAYLOAD_BITS_PER_FRAME, fabric.config.sync_downlink, sim.now, rng)
    sim.schedule(t_arrive, child_id, "sync_request")
    sim.run_until(t_arrive)
    t2 = t3 = child.clock.local(sim.now)  # immediate turnaround
    t_back = delivery_time(PAYLOAD_BITS_PER_FRAME, fabric.config.sync_uplink, sim.now, rng)
    sim.schedule(t_back, parent_id, "sync_response")
    sim.run_until(t_back)
    t4 = parent.clock.local(sim.now)

    correction = _half_even_div2((t2 - t1) - (t4 - t3))
    child.clock.offset_ps -= correction
    return correction


def global_sync(sim: Simulator, fabric: Fabric, rng=None) -> dict:
    """Align every node top-down; returns node -> residual offset vs the root.

    Residuals are measured on the local clocks at the time the sweep
    finishes, so with zero drift they equal the remaining offset errors.
    """
    for parent_id, child_id in fabric.edges_top_down():
        ptp_sync(sim, fabric, parent_id, child_id, rng)
    return fabric.residuals(sim.now)
