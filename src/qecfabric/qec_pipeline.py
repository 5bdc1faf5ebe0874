"""End-to-end decoding-feedback pipeline with per-stage latency accounting.

One shot walks the full loop: leaf-side syndrome aggregation, uplink
transport, root-side aggregation, decoding, error distribution, downlink
transport and leaf-side application, all inside one discrete-event
simulation with timestamps read off the synchronized node timers.  Stage
durations come from a configured table of measured means and min-max jitter
spreads; decoder correctness is real (the union-find decoder runs on the
actual syndrome) while decoder duration is table-driven.

Campaign helpers aggregate many shots into per-stage statistics and a
logical-error-rate estimate; ``ler_campaign`` is a vectorized Monte-Carlo
path for accuracy studies that skips the (transport-independent) timing
machinery.  It decodes each distinct syndrome once per sector and call
(a memo cleared whenever it holds ``batch`` entries), checks every defect
shot's residual for an empty syndrome with numpy, and shards by (sector,
batch range) over ``jobs`` worker processes with identical results.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import capacity_model
from .code_model import (
    SECTOR_X,
    SECTOR_Z,
    SECTORS,
    SPACELIKE,
    CodeLayout,
    SyndromeRounds,
    build_decoding_graph,
    build_layout,
    empty_syndrome,
    pattern_from_fault_ids,
    rng_stream,
    sample_errors,
    syndrome_from_defects,
    syndrome_of,
)
from .fabric_sim import ROLE_ROOT, Fabric, Simulator, TopologyConfig, global_sync
from .link_layer import excess_serialization_delay
from .uf_decoder import decode, decode_with_stats, is_logical_failure, is_valid

STAGE_NAMES = ("leaf_agg", "uplink", "root_agg", "decode", "root_dist", "downlink", "leaf_dist")
ROUTER_STAGE_NAMES = ("router_proc", "router_net")
#: Simulator event kinds; kind k is handled by ``Pipeline._on_<k>``.
_EVENT_KINDS = (
    "leaf_agg_done",
    "router_up",
    "router_up_fwd",
    "root_up",
    "root_agg_done",
    "decode_done",
    "dist_ready",
    "router_down",
    "router_down_fwd",
    "leaf_down",
    "leaf_apply_done",
)

# RNG stream tags under the campaign master seed
_STREAM_SHOT = 7  # per-shot stage jitter
_STREAM_SAMPLE = 11  # per-(shot, sector) error sampling
_STREAM_SYNC = 5  # timer-alignment message jitter
_STREAM_LER = 13  # batched Monte-Carlo sampling

Z95 = 1.959963984540054


class CapacityError(RuntimeError):
    """The configured tree cannot host the code's qubits."""


@dataclass(frozen=True)
class StageLatency:
    mean_ps: int
    jitter_ps: int = 0

    def __post_init__(self):
        if self.mean_ps < 0 or self.jitter_ps < 0:
            raise ValueError("stage latency parameters must be >= 0")


def _default_decode_table():
    return dict(capacity_model.DEFAULT_DECODE_TABLE)


@dataclass(frozen=True)
class StageLatencyConfig:
    """Measured mean and min-max half-spread of every pipeline stage (ps).

    Defaults are the reference three-board measurements: 29+-3 leaf
    aggregation, 157+-16 uplink, 20+-10 root aggregation and pre-decode,
    a decode table keyed by distance (fixed 56 ns at d=3), 25+-3 root
    distribution, 155+-9 downlink and 9+-1 leaf distribution, plus 45 ns
    processing / 312 ns round-trip network per router layer.
    """

    leaf_agg: StageLatency = StageLatency(29_000, 3_000)
    uplink: StageLatency = StageLatency(157_000, 16_000)
    root_agg: StageLatency = StageLatency(20_000, 10_000)
    root_dist: StageLatency = StageLatency(25_000, 3_000)
    downlink: StageLatency = StageLatency(155_000, 9_000)
    leaf_dist: StageLatency = StageLatency(9_000, 1_000)
    router_proc: StageLatency = StageLatency(45_000, 0)
    router_net: StageLatency = StageLatency(312_000, 0)
    decode_table: dict = field(default_factory=_default_decode_table)
    decode_jitter_ps: int = 0

    def __post_init__(self):
        for d in self.decode_table:
            if int(d) % 2 == 0 or int(d) < 1:
                raise ValueError(f"decode table keys must be odd distances, got {d}")

    def stage(self, name: str) -> StageLatency:
        if name == "decode":
            raise ValueError("decode latency is distance-keyed, use decode_ps()")
        return getattr(self, name)

    def decode_ps(self, distance: int) -> int:
        value, _ = capacity_model.decode_latency_ps(self.decode_table, distance)
        return value

    def zero_jitter(self) -> "StageLatencyConfig":
        """Copy with every jitter half-width forced to 0."""
        kwargs = {
            name: StageLatency(getattr(self, name).mean_ps, 0)
            for name in STAGE_NAMES + ROUTER_STAGE_NAMES
            if name != "decode"
        }
        return replace(self, decode_jitter_ps=0, **kwargs)


@dataclass(frozen=True)
class LeafMap:
    """Contiguous assignment of all physical qubits to leaf boards."""

    qubits_per_leaf: int
    n_leaves: int
    total_qubits: int

    def leaf_of(self, qubit: int) -> int:
        if not 0 <= qubit < self.total_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        return qubit // self.qubits_per_leaf

    def owned(self, leaf: int) -> range:
        start = leaf * self.qubits_per_leaf
        return range(start, min(start + self.qubits_per_leaf, self.total_qubits))


def assign_qubits_to_leaves(layout: CodeLayout, qubits_per_leaf: int = 14) -> LeafMap:
    """Assign every data and ancilla qubit to a leaf, 14 per board by default."""
    if qubits_per_leaf < 1:
        raise ValueError("qubits_per_leaf must be >= 1")
    total = layout.total_qubits
    return LeafMap(
        qubits_per_leaf=qubits_per_leaf,
        n_leaves=-(-total // qubits_per_leaf),
        total_qubits=total,
    )


def leaf_ancilla_columns(layout: CodeLayout, leaf_map: LeafMap, leaf: int):
    """Syndrome-matrix columns measured by one leaf's ancillas.

    Ancilla global ids follow the data qubits (X sector then Z sector), so
    a leaf's columns are its owned ids shifted by the data-qubit count.
    """
    n_data = layout.data_qubit_count
    return [q - n_data for q in leaf_map.owned(leaf) if q >= n_data]


@dataclass
class SyndromeMessage:
    shot: int
    round_range: tuple
    leaf: int
    bits: tuple
    emit_ps: int | None = None
    recv_ps: int | None = None


@dataclass
class CorrectionMessage:
    shot: int
    leaf: int
    error_bits: tuple  # (sector, data qubit) entries with a net correction
    emit_ps: int | None = None
    recv_ps: int | None = None


@dataclass
class ShotReport:
    """Stage interval durations and decode outcome of one full shot."""

    shot: int
    intervals: dict
    end_to_end_ps: int
    valid: bool
    logical_failure: bool
    syndrome_bits_received: int
    correction_bits_sent: int

    def __post_init__(self):
        total = sum(self.intervals.values())
        if total != self.end_to_end_ps:
            raise AssertionError(
                f"stage intervals sum to {total} but end-to-end is {self.end_to_end_ps}"
            )


def wilson_interval(failures: int, shots: int, z: float = Z95):
    """95% Wilson score interval for a binomial proportion."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = failures / shots
    z2 = z * z
    denom = 1.0 + z2 / shots
    center = (p + z2 / (2 * shots)) / denom
    half = z * ((p * (1 - p) / shots + z2 / (4 * shots * shots)) ** 0.5) / denom
    return max(0.0, center - half), min(1.0, center + half)


_WORST_D3_CACHE = None


def _worst_case_d3():
    """Search all weight <= 2 patterns (d=3, 3 rounds) for the slowest decode."""
    global _WORST_D3_CACHE
    if _WORST_D3_CACHE is not None:
        return _WORST_D3_CACHE
    layout = build_layout(3)
    patterns = {}
    syndrome = empty_syndrome(layout, 3)
    for sector in SECTORS:
        graph = build_decoding_graph(layout, sector, 3)
        ids_iter = itertools.chain(
            ((i,) for i in range(graph.n_edges)),
            itertools.combinations(range(graph.n_edges), 2),
        )
        best_key, best = None, None
        for ids in ids_iter:
            pattern = pattern_from_fault_ids(graph, ids)
            syn = syndrome_of(pattern, graph)
            _, stats = decode_with_stats(graph, syn)
            key = (-stats.growth_iterations, ids)
            if best_key is None or key < best_key:
                best_key, best = key, (pattern, syn)
        patterns[sector] = best[0]
        syndrome = syndrome ^ best[1]
    _WORST_D3_CACHE = (syndrome, patterns)
    return _WORST_D3_CACHE


def worst_case_d3_syndrome() -> SyndromeRounds:
    """The syndrome that maximizes this decoder's growth iterations at d=3."""
    return _worst_case_d3()[0]


class Pipeline:
    """One instantiated fabric ready to run timed decoding-feedback shots."""

    def __init__(self, config, seed=None, trace=False):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.distance = config.distance
        self.rounds = config.rounds if config.rounds else config.distance
        self.error_rate = config.error_rate
        self.cycle_ps = config.cycle_time_ps

        self.stages = config.stage_latency
        if config.zero_jitter:
            self.stages = self.stages.zero_jitter()
        self.decode_duration_ps = self.stages.decode_ps(self.distance)

        self.layout = build_layout(self.distance)
        self.graphs = {s: build_decoding_graph(self.layout, s, self.rounds) for s in SECTORS}
        self.leaf_map = assign_qubits_to_leaves(self.layout, config.qubits_per_leaf)

        profile = capacity_model.get_profile(config.profile)
        self.profile = profile
        layers = config.router_layers
        top_level = self.leaf_map.n_leaves
        for _ in range(layers):
            top_level = -(-top_level // profile.router_children)
        if top_level > profile.root_ports:
            raise CapacityError(
                f"distance {self.distance} needs {self.leaf_map.n_leaves} leaf boards; "
                f"{top_level} top-level nodes exceed the {profile.name} root's "
                f"{profile.root_ports} ports with router_layers={layers}. "
                f"Add a router layer to extend capacity."
            )

        topo = TopologyConfig(
            n_leaves=self.leaf_map.n_leaves,
            root_ports=profile.root_ports,
            router_children=profile.router_children,
            router_layers=layers,
            uplink=config.uplink,
            downlink=config.downlink,
            sync_uplink=config.sync_uplink,
            sync_downlink=config.sync_downlink,
            clock_offset_bound_ps=config.clock_offset_bound_ps,
            drift_ppm=config.drift_ppm,
        )
        self.sim = Simulator(trace=trace)
        self.fabric = Fabric(topo, seed=self.seed)
        if config.sync_at_start:
            global_sync(self.sim, self.fabric, rng_stream(self.seed, _STREAM_SYNC))
        self.sync_residuals = {
            n: node.clock.local(self.sim.now)
            - self.fabric.nodes[self.fabric.root_id].clock.local(self.sim.now)
            for n, node in self.fabric.nodes.items()
        }

        self._level = {}
        for node_id, node in self.fabric.nodes.items():
            depth = len(self.fabric.path_to_root(node_id))
            self._level[node_id] = depth  # root=0, top routers=1, ...
        self._router_layers = layers
        self._leaf_index = {n: i for i, n in enumerate(self.fabric.leaf_ids)}

        # syndrome source: the worst-case d=3 pattern mirrors the latency
        # measurement methodology; other distances sample at error_rate
        source = config.syndrome_source
        if source == "auto":
            source = "worst_case" if self.distance == 3 else "sampled"
        if source == "worst_case" and self.distance != 3:
            raise ValueError("the cached worst-case syndrome is distance-3 only")
        self.syndrome_source = source

        self._ctx = None
        # The simulator's handler table reaches the pipeline only through a
        # weak reference.  Without that cycle a dropped pipeline, with its
        # graphs and fabric, is freed at once instead of at the next full
        # garbage collection.
        ref = weakref.ref(self)
        for kind in _EVENT_KINDS:
            method = getattr(type(self), "_on_" + kind)
            self.sim.on(kind, lambda ev, method=method: method(ref(), ev))

    # ---- per-shot inputs -------------------------------------------------

    def _syndrome_for_shot(self, shot: int):
        if self.syndrome_source == "worst_case":
            return _worst_case_d3()
        patterns = {}
        syndrome = empty_syndrome(self.layout, self.rounds)
        for k, sector in enumerate(SECTORS):
            graph = self.graphs[sector]
            pattern = sample_errors(
                graph, self.error_rate, self.seed, stream=(_STREAM_SAMPLE, shot, k)
            )
            patterns[sector] = pattern
            syndrome = syndrome ^ syndrome_of(pattern, graph)
        return syndrome, patterns

    def _stage_durations(self, shot: int):
        """One shared duration draw per stage per shot.

        The measured min-max spreads are properties of each pipeline stage
        (clock-domain crossings), so a stage's duration is sampled once per
        shot and applies to every board participating in that stage.
        """
        rng = None
        durations = {}
        for name in STAGE_NAMES + ROUTER_STAGE_NAMES:
            if name == "decode":
                mean, hw = self.decode_duration_ps, self.stages.decode_jitter_ps
            else:
                st = self.stages.stage(name)
                mean, hw = st.mean_ps, st.jitter_ps
            if hw > 0:
                if rng is None:
                    rng = rng_stream(self.seed, _STREAM_SHOT, shot)
                mean = mean + int(rng.integers(-hw, hw + 1))
            durations[name] = max(0, mean)
        return durations

    # ---- event handlers --------------------------------------------------

    def _mark(self, key, value):
        b = self._ctx["boundaries"]
        if key not in b or value > b[key]:
            b[key] = value

    def _local(self, node_id):
        return self.fabric.nodes[node_id].clock.local(self.sim.now)

    def _on_leaf_agg_done(self, ev):
        ctx = self._ctx
        leaf_idx = self._leaf_index[ev.node]
        now = self.sim.now
        self._mark("leaf_agg", self._local(ev.node))
        cols = leaf_ancilla_columns(self.layout, self.leaf_map, leaf_idx)
        bits = tuple(int(b) for b in ctx["syndrome"].bits[self.rounds - 1, cols])
        msg = SyndromeMessage(
            shot=ctx["shot"],
            round_range=(self.rounds - 1, self.rounds),
            leaf=leaf_idx,
            bits=bits,
            emit_ps=self._local(ev.node),
        )
        parent = self.fabric.nodes[ev.node].parent
        delay = ctx["dur"]["uplink"] + excess_serialization_delay(len(bits), self.config.uplink)
        kind = "root_up" if self.fabric.nodes[parent].role == ROLE_ROOT else "router_up"
        self.sim.schedule(now + delay, parent, kind, [msg])

    def _expected_children(self, node_id):
        return len(self.fabric.nodes[node_id].children)

    def _on_router_up(self, ev):
        ctx = self._ctx
        level = self._level[ev.node]
        pending = ctx["router_up"].setdefault(ev.node, [])
        pending.extend(ev.payload)
        ctx["router_up_count"][ev.node] = ctx["router_up_count"].get(ev.node, 0) + 1
        if ctx["router_up_count"][ev.node] == self._expected_children(ev.node):
            self._mark(("router_up_arrive", level), self._local(ev.node))
            proc_up = ctx["dur"]["router_proc"] // 2
            self.sim.schedule(self.sim.now + proc_up, ev.node, "router_up_fwd", None)

    def _on_router_up_fwd(self, ev):
        ctx = self._ctx
        level = self._level[ev.node]
        self._mark(("router_up_fwd", level), self._local(ev.node))
        parent = self.fabric.nodes[ev.node].parent
        net_up = ctx["dur"]["router_net"] // 2
        kind = "root_up" if self.fabric.nodes[parent].role == ROLE_ROOT else "router_up"
        self.sim.schedule(self.sim.now + net_up, parent, kind, ctx["router_up"][ev.node])

    def _on_root_up(self, ev):
        ctx = self._ctx
        root = self.fabric.root_id
        for msg in ev.payload:
            msg.recv_ps = self._local(root)
            ctx["root_msgs"].append(msg)
            ctx["bits_received"] += len(msg.bits)
        ctx["root_up_count"] += 1
        if ctx["root_up_count"] == self._expected_children(root):
            self._mark("root_arrive", self._local(root))
            self.sim.schedule(
                self.sim.now + ctx["dur"]["root_agg"], root, "root_agg_done", None
            )

    def _assemble_final_round(self, ctx):
        """Rebuild the final syndrome row from the received leaf messages."""
        row = np.zeros(self.layout.syndrome_bits_per_round, dtype=np.uint8)
        for msg in sorted(ctx["root_msgs"], key=lambda m: m.leaf):
            cols = leaf_ancilla_columns(self.layout, self.leaf_map, msg.leaf)
            for c, b in zip(cols, msg.bits):
                row[c] = b
        return row

    def _on_root_agg_done(self, ev):
        ctx = self._ctx
        self._mark("root_agg_done", self._local(ev.node))
        received = np.array(ctx["syndrome"].bits)
        received[self.rounds - 1, :] = self._assemble_final_round(ctx)
        syndrome = SyndromeRounds(received, ctx["syndrome"].split)
        ctx["received_syndrome"] = syndrome

        valid = True
        failure = False
        corrections = {}
        for sector in SECTORS:
            graph = self.graphs[sector]
            corr = decode(graph, syndrome)
            corrections[sector] = corr
            valid = valid and is_valid(corr, syndrome, graph)
            pattern = ctx["patterns"].get(sector)
            if pattern is not None:
                failure = failure or is_logical_failure(pattern, corr, self.layout)
        ctx["corrections"] = corrections
        ctx["valid"] = valid
        ctx["failure"] = failure
        self.sim.schedule(self.sim.now + ctx["dur"]["decode"], ev.node, "decode_done", None)

    def _on_decode_done(self, ev):
        ctx = self._ctx
        self._mark("decode_done", self._local(ev.node))
        self.sim.schedule(self.sim.now + ctx["dur"]["root_dist"], ev.node, "dist_ready", None)

    def _net_error_bits(self, ctx):
        """(sector, qubit) entries whose per-qubit correction parity is odd."""
        entries = []
        for sector in SECTORS:
            parity = {}
            for qubit, _round in ctx["corrections"][sector].data_faults:
                parity[qubit] = parity.get(qubit, 0) ^ 1
            entries.extend((sector, q) for q, v in sorted(parity.items()) if v)
        return entries

    def _on_dist_ready(self, ev):
        ctx = self._ctx
        self._mark("dist_ready", self._local(ev.node))
        entries = self._net_error_bits(ctx)
        per_leaf = {leaf: [] for leaf in range(self.leaf_map.n_leaves)}
        for sector, qubit in entries:
            per_leaf[self.leaf_map.leaf_of(qubit)].append((sector, qubit))
        ctx["sent_messages"] = {}
        for leaf, owned in per_leaf.items():
            ctx["sent_messages"][leaf] = CorrectionMessage(
                shot=ctx["shot"], leaf=leaf, error_bits=tuple(owned), emit_ps=self._local(ev.node)
            )
        ctx["correction_bits"] = len(entries)
        now = self.sim.now
        for child in self.fabric.nodes[self.fabric.root_id].children:
            if child in self._leaf_index:
                leaf_idx = self._leaf_index[child]
                msg = ctx["sent_messages"][leaf_idx]
                delay = ctx["dur"]["downlink"] + excess_serialization_delay(
                    len(msg.error_bits), self.config.downlink
                )
                self.sim.schedule(now + delay, child, "leaf_down", msg)
            else:
                net_down = ctx["dur"]["router_net"] - ctx["dur"]["router_net"] // 2
                self.sim.schedule(now + net_down, child, "router_down", None)

    def _on_router_down(self, ev):
        ctx = self._ctx
        level = self._level[ev.node]
        self._mark(("router_down_arrive", level), self._local(ev.node))
        proc_down = ctx["dur"]["router_proc"] - ctx["dur"]["router_proc"] // 2
        self.sim.schedule(self.sim.now + proc_down, ev.node, "router_down_fwd", None)

    def _on_router_down_fwd(self, ev):
        ctx = self._ctx
        level = self._level[ev.node]
        self._mark(("router_down_fwd", level), self._local(ev.node))
        now = self.sim.now
        for child in self.fabric.nodes[ev.node].children:
            if child in self._leaf_index:
                leaf_idx = self._leaf_index[child]
                msg = ctx["sent_messages"][leaf_idx]
                delay = ctx["dur"]["downlink"] + excess_serialization_delay(
                    len(msg.error_bits), self.config.downlink
                )
                self.sim.schedule(now + delay, child, "leaf_down", msg)
            else:
                net_down = ctx["dur"]["router_net"] - ctx["dur"]["router_net"] // 2
                self.sim.schedule(now + net_down, child, "router_down", None)

    def _on_leaf_down(self, ev):
        ctx = self._ctx
        msg = ev.payload
        msg.recv_ps = self._local(ev.node)
        self._mark("leaf_arrive", self._local(ev.node))
        self.sim.schedule(
            self.sim.now + ctx["dur"]["leaf_dist"], ev.node, "leaf_apply_done", msg
        )

    def _on_leaf_apply_done(self, ev):
        ctx = self._ctx
        msg = ev.payload
        ctx["applied"][msg.leaf] = msg.error_bits
        self._mark("end", self._local(ev.node))
        if len(ctx["applied"]) == self.leaf_map.n_leaves:
            ctx["done"] = True

    # ---- shot driver -----------------------------------------------------

    def _intervals(self, ctx):
        b = ctx["boundaries"]
        layers = self._router_layers
        out = {}
        out["leaf_agg"] = b["leaf_agg"] - b["start"]
        if layers == 0:
            out["uplink"] = b["root_arrive"] - b["leaf_agg"]
        else:
            out["uplink"] = b[("router_up_arrive", layers)] - b["leaf_agg"]
            proc = net = 0
            for level in range(layers, 0, -1):
                proc += b[("router_up_fwd", level)] - b[("router_up_arrive", level)]
                up_target = (
                    b["root_arrive"] if level == 1 else b[("router_up_arrive", level - 1)]
                )
                net += up_target - b[("router_up_fwd", level)]
            net += b[("router_down_arrive", 1)] - b["dist_ready"]
            for level in range(1, layers + 1):
                proc += b[("router_down_fwd", level)] - b[("router_down_arrive", level)]
                if level < layers:
                    net += b[("router_down_arrive", level + 1)] - b[("router_down_fwd", level)]
            out["router_proc"] = proc
            out["router_net"] = net
        out["root_agg"] = b["root_agg_done"] - b["root_arrive"]
        out["decode"] = b["decode_done"] - b["root_agg_done"]
        out["root_dist"] = b["dist_ready"] - b["decode_done"]
        if layers == 0:
            out["downlink"] = b["leaf_arrive"] - b["dist_ready"]
        else:
            out["downlink"] = b["leaf_arrive"] - b[("router_down_fwd", layers)]
        out["leaf_dist"] = b["end"] - b["leaf_arrive"]
        return out

    def run_shot(self, shot: int = 0) -> ShotReport:
        """Run one full decoding-feedback shot at the next cycle boundary."""
        sim = self.sim
        t0 = -(-sim.now // self.cycle_ps) * self.cycle_ps
        sim.run_until(t0)

        syndrome, patterns = self._syndrome_for_shot(shot)
        ctx = {
            "shot": shot,
            "dur": self._stage_durations(shot),
            "syndrome": syndrome,
            "patterns": patterns,
            "boundaries": {},
            "router_up": {},
            "router_up_count": {},
            "root_msgs": [],
            "root_up_count": 0,
            # earlier rounds stream up during the cycle; only the final
            # round is timed, so their bits are on the books at t0
            "bits_received": (self.rounds - 1) * self.layout.syndrome_bits_per_round,
            "applied": {},
            "done": False,
        }
        self._ctx = ctx
        for leaf in self.fabric.leaf_ids:
            self._mark("start", self.fabric.nodes[leaf].clock.local(t0))
        for leaf in self.fabric.leaf_ids:
            sim.schedule(t0 + ctx["dur"]["leaf_agg"], leaf, "leaf_agg_done", None)
        sim.run_all()
        if not ctx["done"]:
            raise AssertionError("shot did not complete")

        intervals = self._intervals(ctx)
        report = ShotReport(
            shot=shot,
            intervals=intervals,
            end_to_end_ps=ctx["boundaries"]["end"] - ctx["boundaries"]["start"],
            valid=ctx["valid"],
            logical_failure=ctx["failure"],
            syndrome_bits_received=ctx["bits_received"],
            correction_bits_sent=ctx["correction_bits"],
        )
        self.last_context = ctx
        return report


def run_shot(config, seed=None, shot: int = 0) -> ShotReport:
    """Build a pipeline for the config and run a single shot."""
    return Pipeline(config, seed=seed).run_shot(shot)


@dataclass
class CampaignResult:
    """Aggregated per-stage samples and decode outcomes of a campaign."""

    n_shots: int
    stage_names: tuple
    samples: dict
    end_to_end_ps: np.ndarray
    valid: np.ndarray
    failures: np.ndarray

    def stage_stats(self):
        out = {}
        for name in self.stage_names:
            arr = self.samples[name]
            out[name] = {
                "mean_ps": float(arr.mean()),
                "min_ps": int(arr.min()),
                "max_ps": int(arr.max()),
                "p50_ps": float(np.percentile(arr, 50)),
                "p90_ps": float(np.percentile(arr, 90)),
                "p99_ps": float(np.percentile(arr, 99)),
            }
        return out

    def end_to_end_stats(self):
        arr = self.end_to_end_ps
        return {
            "mean_ps": float(arr.mean()),
            "min_ps": int(arr.min()),
            "max_ps": int(arr.max()),
            "p50_ps": float(np.percentile(arr, 50)),
            "p90_ps": float(np.percentile(arr, 90)),
            "p99_ps": float(np.percentile(arr, 99)),
        }

    def ler(self):
        k = int(self.failures.sum())
        lo, hi = wilson_interval(k, self.n_shots)
        return {
            "shots": self.n_shots,
            "failures": k,
            "rate": k / self.n_shots,
            "ci95_low": lo,
            "ci95_high": hi,
        }

    @staticmethod
    def merge(parts):
        first = parts[0]
        return CampaignResult(
            n_shots=sum(p.n_shots for p in parts),
            stage_names=first.stage_names,
            samples={
                name: np.concatenate([p.samples[name] for p in parts])
                for name in first.stage_names
            },
            end_to_end_ps=np.concatenate([p.end_to_end_ps for p in parts]),
            valid=np.concatenate([p.valid for p in parts]),
            failures=np.concatenate([p.failures for p in parts]),
        )


def _campaign_range(config, seed, start, stop) -> CampaignResult:
    pipeline = Pipeline(config, seed=seed)
    names = STAGE_NAMES + (ROUTER_STAGE_NAMES if config.router_layers else ())
    n = stop - start
    samples = {name: np.zeros(n, dtype=np.int64) for name in names}
    end_to_end = np.zeros(n, dtype=np.int64)
    valid = np.zeros(n, dtype=bool)
    failures = np.zeros(n, dtype=bool)
    for i, shot in enumerate(range(start, stop)):
        report = pipeline.run_shot(shot)
        for name in names:
            samples[name][i] = report.intervals[name]
        end_to_end[i] = report.end_to_end_ps
        valid[i] = report.valid
        failures[i] = report.logical_failure
    return CampaignResult(n, names, samples, end_to_end, valid, failures)


def _campaign_worker(args):
    return _campaign_range(*args)


def run_campaign(config, shots=None, seed=None, jobs=None) -> CampaignResult:
    """Run many shots and aggregate stage statistics plus an LER estimate.

    Shots are pure functions of (config, seed, shot index), so splitting a
    campaign across worker processes changes nothing but wall time.
    """
    shots = config.shots if shots is None else shots
    seed = config.seed if seed is None else seed
    jobs = config.jobs if jobs is None else jobs
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if jobs <= 1:
        return _campaign_range(config, seed, 0, shots)
    bounds = np.linspace(0, shots, jobs + 1, dtype=int)
    tasks = [
        (config, seed, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        parts = list(pool.map(_campaign_worker, tasks))
    return CampaignResult.merge(parts)


@dataclass(frozen=True)
class LerEstimate:
    distance: int
    rounds: int
    error_rate: float
    shots: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.shots

    @property
    def ci95(self):
        return wilson_interval(self.failures, self.shots)


def _ler_sector_failures(
    layout: CodeLayout,
    k: int,
    rounds: int,
    error_rate: float,
    seed: int,
    batch: int,
    batches: range,
    shots: int,
) -> np.ndarray:
    """Failure flags of sector ``SECTORS[k]`` for the shots of a contiguous batch range.

    Entry i is shot ``batches.start * batch + i``.  A shot fails when its
    faults, XOR the correction of its syndrome (memoized: the decoder is a
    pure function of (graph, syndrome)), cross the logical chain oddly.
    """
    graph = build_decoding_graph(layout, SECTORS[k], rounds)
    incidence = graph.incidence_matrix().astype(np.float32)
    chain = layout.crossing_chain[graph.sector]
    chain_mask = np.array(
        [1.0 if (e.kind == SPACELIKE and e.qubit in chain) else 0.0 for e in graph.edges],
        dtype=np.float32,
    )
    first = batches.start * batch
    failed = np.zeros(min(batches.stop * batch, shots) - first, dtype=bool)
    memo = {}  # packed defect row -> edge-indicator row of its correction
    for b in batches:
        lo = b * batch - first
        n = min(batch, len(failed) - lo)
        rng = rng_stream(seed, _STREAM_LER, layout.distance, k, b)
        bits = rng.random((n, graph.n_edges)) < error_rate
        f32 = bits.astype(np.float32)
        # float32 sums of 0/1 entries are exact integers far below 2**24
        defects = (f32 @ incidence).astype(np.int32) & 1
        crossings = (f32 @ chain_mask).astype(np.int32) & 1
        has_defect = defects.any(axis=1)
        quiet = np.flatnonzero(~has_defect)
        failed[lo + quiet] = crossings[quiet] == 1
        rows = np.flatnonzero(has_defect)
        if not len(rows):
            continue
        packed = np.packbits(defects[rows], axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        corrections = []
        for row, key in zip(rows, keys):
            corr = memo.get(key)
            if corr is None:
                if len(memo) >= batch:
                    memo.clear()
                syn = syndrome_from_defects(graph, np.flatnonzero(defects[row]).tolist())
                corr = np.zeros(graph.n_edges, dtype=bool)
                corr[list(decode(graph, syn).fault_ids)] = True
                memo[key] = corr
            corrections.append(corr)
        residual = (bits[rows] ^ np.array(corrections)).astype(np.float32)
        if ((residual @ incidence).astype(np.int32) & 1).any():
            raise ValueError("correction does not annihilate the pattern's syndrome")
        failed[lo + rows] = ((residual @ chain_mask).astype(np.int32) & 1) == 1
    return failed


def ler_campaign(
    distance: int,
    error_rate: float,
    shots: int,
    seed: int,
    rounds: int | None = None,
    batch: int = 8192,
    jobs: int = 1,
) -> LerEstimate:
    """Vectorized Monte-Carlo logical-error-rate estimate for one distance.

    Transport is lossless and order-preserving, so the logical error rate
    depends only on the sampled faults and the decoder; this path samples
    whole batches at once and decodes only the shots that show defects.
    Shot i of a given (seed, distance) is reproducible independent of the
    batch size schedule only if ``batch`` is kept fixed.

    Each distinct syndrome is decoded once per sector and call: a memo built
    fresh for every sector (and every shard) maps the packed defect row to
    its correction, and is cleared when it holds ``batch`` entries, so
    memory stays O(batch x edges).  Every defect shot's residual is still
    checked to have an empty syndrome (ValueError otherwise).

    ``jobs`` > 1 shards the run by (sector, contiguous batch range) over at
    most ``min(jobs, tasks, os.cpu_count())`` worker processes.  Batches are
    independent Philox streams, so every job count gives the same result.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must be a probability, got {error_rate}")
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    layout = build_layout(distance)
    r = distance if rounds is None else rounds
    n_batches = -(-shots // batch)
    cuts = np.linspace(0, n_batches, min(jobs, n_batches) + 1, dtype=int)
    shards = [
        (k, range(int(a), int(b))) for k in range(len(SECTORS)) for a, b in zip(cuts[:-1], cuts[1:])
    ]
    tasks = [(layout, k, r, error_rate, seed, batch, batches, shots) for k, batches in shards]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_ler_sector_failures(*task) for task in tasks]
    else:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_ler_sector_failures, *task) for task in tasks]
            parts = [f.result() for f in futures]
    failed = np.zeros(shots, dtype=bool)
    for (_, batches), part in zip(shards, parts):
        first = batches.start * batch
        failed[first : first + len(part)] |= part
    return LerEstimate(distance, r, error_rate, shots, int(failed.sum()))
