"""End-to-end decoding-feedback pipeline with per-stage latency accounting.

One shot walks the full loop: leaf-side syndrome aggregation, uplink
transport, root-side aggregation, decoding, error distribution, downlink
transport and leaf-side application.  The tree is fixed and each stage's
duration is drawn once per shot, so a shot's timing is one pass up the
tree, a level at a time (a router or the root starts when its last child's
data arrives), and one pass down it, with timestamps read off the
synchronized node timers.  That pass only adds durations, so a range of
shots runs as a table: int64 numpy arrays, shots last (so every reduction
runs over contiguous rows of shots), of the stage durations, per tree
level the times its nodes mark its four boundaries, the start times (a
cumulative sum of whole cycles) and the marks of every stage boundary.
``level_boundaries`` is the one statement of which level marks which
boundary and which stage ends there; ``boundary_chain`` puts them in time
order, and every stage interval is a sum of gaps between the marks of
that one list.  Stage durations come from
``capacity_model.StageLatencyConfig``'s measured means and min-max jitter
spreads, drawn from per-shot Philox streams whose keys and first blocks are
computed for a whole chunk at once (``code_model.stream_blocks``); decoder
correctness is real (the union-find decoder runs on the actual syndrome)
while decoder duration is table-driven.

A chunk's faults are flat fault ids per sector, ``row * n_edges + edge``
(one ``np.flatnonzero`` of the bool buffer ``_draw_faults`` fills), and
both campaign paths judge them with ``_chunk_failures`` in spans of
consecutive rows, which one generator, ``_spans``, cuts under one cost,
``_span_bytes``, computed from each span's own fault ids (``_spans`` states
the rule).  Only rows with a fault are looked at, read off the ids; their
parities are the defect rows.  Each distinct defect row is looked up once
in a per-sector memo that maps it to the fault ids of its correction
(exact, since decoding is a pure function of (graph, defects)).  When a
span misses ``_SETTLE_MIN_ROWS`` rows or more, they all go through
``uf_decoder.settle_rows``, one numpy pass that gives the correction of
each row that isolated single faults explain; only the rows it declines,
and the misses of a smaller span, go to ``uf_decoder.decode_defects``.
One ``fault_parity`` over the distinct corrections checks that each gives
back its row's defects and, by linearity, flips its rows' logical checks.
A ``Pipeline`` keeps one memo per sector, cleared when it holds
``_DECODE_MEMO_ENTRIES``.  It counts each distinct correction's leaf
entries, the qubits a leaf owns of odd correction parity, once per span,
and reads a leaf's downlink price from a table of
``excess_serialization_delay`` by entry count, built with the pipeline,
which also prices each leaf's fixed uplink message once.

Campaign helpers aggregate many shots into per-stage statistics and a
logical-error-rate estimate; ``ler_campaign`` is a vectorized Monte-Carlo
path for accuracy studies that skips the (transport-independent) timing
machinery.  It draws each batch of ``_LER_BATCH`` shots in fixed-size row
chunks and judges the batch's ids in spans, which may cover many draws,
so memory does not grow with the batch, through a memo per sector and
call that is cleared whenever it holds ``_LER_BATCH`` entries.  It shards
by (sector, batch range) over ``jobs`` worker processes with identical
results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from . import capacity_model
from .capacity_model import ROUTER_STAGE_NAMES, STAGE_NAMES, StageLatency, StageLatencyConfig  # noqa: F401
from .code_model import (
    BOUNDARY,
    SECTOR_X,
    SECTOR_Z,
    SECTORS,
    CodeLayout,
    DecodingGraph,
    SyndromeRounds,
    build_decoding_graph,
    build_layout,
    empty_syndrome,
    pattern_from_fault_ids,
    rng_stream,
    stream_blocks,
    syndrome_of,
)
from .config import ConfigError, ExperimentConfig
from .fabric_sim import CapacityError  # noqa: F401 -- the capacity error callers catch here
from .fabric_sim import Fabric, Simulator, TopologyConfig, global_sync
from .link_layer import excess_serialization_delay
from .uf_decoder import decode_defects, settle_rows

# RNG stream tags under the campaign master seed
_STREAM_SHOT = 7  # per-shot stage jitter
_STREAM_SAMPLE = 11  # per-(shot, sector) error sampling
_STREAM_SYNC = 5  # timer-alignment message jitter
_STREAM_LER = 13  # batched Monte-Carlo sampling

Z95 = 1.959963984540054

#: Most defect rows each of a pipeline's per-sector decode memos holds; a
#: miss that finds its memo full clears it first.
_DECODE_MEMO_ENTRIES = 1024

#: Bytes of arrays per chunk of a campaign: of the arrays a
#: ``Pipeline.run_range`` chunk holds (table columns, bool fault rows and
#: fault ids); in ``ler_campaign``, of the raw uint64 words per draw; and, in
#: both, of the arrays that judge one span of hit rows (``_span_bytes``).
_TABLE_CHUNK_BYTES = 1 << 20

#: Fewest shots whose streams are keyed in one batch: below it, building
#: each stream costs less than the batch's fixed numpy overhead.
_BATCHED_MIN_SHOTS = 8

#: Fewest memo misses of one chunk and sector that go through
#: ``settle_rows`` together: its fixed cost is a few single decodes.
_SETTLE_MIN_ROWS = 8

#: Shots per ``ler_campaign`` batch, one Philox stream per sector, which every
#: pinned LER count was drawn with; it also bounds each of its decode memos.
_LER_BATCH = 8192

#: A Philox counter or buffer with nothing drawn yet.
_ZERO_BLOCK = np.zeros(4, dtype=np.uint64)


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


def assign_qubits_to_leaves(
    layout: CodeLayout, qubits_per_leaf: int = capacity_model.PlatformProfile.qubits_per_leaf
) -> LeafMap:
    """Assign every data and ancilla qubit to a leaf, contiguously by qubit id."""
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


def link_excess_ps(layout: CodeLayout, leaf_map: LeafMap, config) -> tuple:
    """Serialization beyond one frame: as int64 arrays, of each leaf's fixed
    final-round uplink message (a bit per ancilla column it measures), and of a
    downlink message of k entries, up to one per sector and data qubit a leaf
    can own; then of one with 2 * ``qubits_per_leaf`` entries, a bound on all."""
    bits = [len(leaf_ancilla_columns(layout, leaf_map, j)) for j in range(leaf_map.n_leaves)]
    entries = range(2 * min(leaf_map.qubits_per_leaf, layout.data_qubit_count) + 1)
    return (np.array([excess_serialization_delay(b, config.uplink) for b in bits], np.int64),
            np.array([excess_serialization_delay(k, config.downlink) for k in entries], np.int64),
            excess_serialization_delay(2 * leaf_map.qubits_per_leaf, config.downlink))


def _tree(config) -> tuple:
    """A config's layout, leaf map and fabric (CapacityError if the tree is too small)."""
    layout = build_layout(config.distance)
    leaf_map = assign_qubits_to_leaves(layout, config.qubits_per_leaf)
    profile = capacity_model.get_profile(config.profile)
    topo = TopologyConfig(
        n_leaves=leaf_map.n_leaves,
        root_ports=profile.root_ports,
        router_children=profile.router_children,
        router_layers=config.router_layers,
        sync_uplink=config.sync_uplink,
        sync_downlink=config.sync_downlink,
        clock_offset_bound_ps=config.clock_offset_bound_ps,
        drift_ppm=config.drift_ppm,
    )
    return layout, leaf_map, Fabric(topo, seed=config.seed)


@dataclass
class ShotReport:
    """Stage interval durations and decode outcome of one full shot; the intervals
    are the gaps of one boundary chain, so they sum to ``end_to_end_ps``.  Per
    sector, ``corrections`` holds its correction's fault ids; per leaf,
    ``leaf_entries`` the correction entries that priced its downlink."""

    shot: int
    intervals: dict
    end_to_end_ps: int
    logical_failure: bool
    syndrome_bits_received: int
    corrections: dict
    leaf_entries: tuple


def wilson_interval(failures: int, shots: int):
    """95% Wilson score interval for a binomial proportion.

    The bounds are exactly 0.0 with no failures and exactly 1.0 with every
    shot failed, where the formula meets them only up to rounding.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = failures / shots
    z2 = Z95 * Z95
    denom = 1.0 + z2 / shots
    center = (p + z2 / (2 * shots)) / denom
    half = Z95 * ((p * (1 - p) / shots + z2 / (4 * shots * shots)) ** 0.5) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == shots else min(1.0, center + half)
    return lo, hi


#: Fault ids, per sector, of the weight <= 2 pattern whose decode takes the
#: most growth iterations on the d=3, 3-round graphs (ties to the smallest
#: ids).  The exhaustive search lives in the tests, which check this pin.
_WORST_D3_FAULT_IDS = {SECTOR_X: (0,), SECTOR_Z: (0,)}


def _worst_case_d3():
    """The pinned d=3, 3-round worst-case syndrome and its per-sector patterns."""
    layout = build_layout(3)
    patterns = {}
    syndrome = empty_syndrome(layout, 3)
    for sector, ids in _WORST_D3_FAULT_IDS.items():
        graph = build_decoding_graph(layout, sector, 3)
        patterns[sector] = pattern_from_fault_ids(graph, ids)
        syndrome = syndrome ^ syndrome_of(patterns[sector], graph)
    return syndrome, patterns


def worst_case_d3_syndrome() -> SyndromeRounds:
    """The syndrome that maximizes this decoder's growth iterations at d=3."""
    return _worst_case_d3()[0]


def level_boundaries(router_layers: int) -> tuple:
    """Per tree level, root first, the four boundaries its nodes mark, each with
    the stage that ends at it.

    A level's nodes hold the up-bound data from its first boundary (a leaf at
    the cycle start, a router or the root when its last child's data
    arrives) to its second, when they pass it on, and the corrections from
    its third to its fourth.  Router level 1 is the top one; each router
    level adds a processing and a network stage each way.
    """
    net = "uplink"  # whatever a leaf's data reaches first, it gets there over the uplink
    levels = [(("start", None), ("leaf_agg", "leaf_agg"),
               ("leaf_arrive", "downlink"), ("end", "leaf_dist"))]
    for level in range(router_layers, 0, -1):
        levels.append(((f"up_arrive_{level}", net), (f"up_forward_{level}", "router_proc"),
                       (f"down_arrive_{level}", "router_net"), (f"down_forward_{level}", "router_proc")))
        net = "router_net"
    levels.append((("root_arrive", net), ("root_agg_done", "root_agg"),
                   ("decode_done", "decode"), ("dist_ready", "root_dist")))
    return tuple(levels[::-1])


def boundary_chain(router_layers: int) -> tuple:
    """A shot's stage boundaries in time order, each with the stage that ends at it.

    Data climbs from the leaves through the router levels (deepest first) to
    the root and comes back down: the up halves of ``level_boundaries`` from
    the leaves, then the down halves from the root.  A stage's interval is
    the sum of the gaps before the boundaries that carry its name.
    """
    levels = level_boundaries(router_layers)
    return tuple(b for level in levels[::-1] for b in level[:2]) + tuple(
        b for level in levels for b in level[2:]
    )


class Pipeline:
    """One instantiated fabric ready to run timed decoding-feedback shots.

    ``run_range`` runs a range of shots as a table, a chunk of shots at a
    time, in two passes.  The first draws the chunk's bool fault rows
    (``_chunk_faults``), keeps each sector's flat fault ids and drops the
    rows, then judges each sector's ids, fed to ``_spans`` as one draw,
    span by span through that sector's memo.  That gives every shot's
    logical check and its distinct corrections, whose leaf entries price
    each leaf's downlink.  A vectorized pass then builds int64 arrays with
    one column per shot: the stage durations, the start times, and the
    marks of ``chain`` (see ``boundary_chain``), the one list of which
    boundaries delimit which stage.  A chunk is sized by what it holds per
    shot (``_shot_bytes``): its table columns and result arrays, its bool
    fault rows and its fault ids at the config's rate; the judge's arrays
    come and go span by span, under their own budget.

    The tree is a list of levels (``Fabric.levels``), and each level's nodes
    mark four boundaries of the chain (``level_boundaries``); per level, a
    (nodes x 4 x shots) array holds those times relative to the shot
    start.  Up the tree, from the leaves, a
    level's nodes start when their last child's data arrives: a
    ``np.maximum.reduceat`` over their children's contiguous runs of the
    level below.  Down it, a level's nodes all get the corrections at once,
    so each router level adds the same two stages to one value per shot;
    the leaves then add their own downlink serialization.  A boundary's mark
    is the latest local-clock reading of its level's nodes, and every stage
    interval is read off the marked chain.  ``now`` is the ideal time the
    last shot ended; the next shot starts at the cycle boundary after it, so
    the start times are a cumulative sum.  ``run_shot`` reports a one-shot
    chunk's column of its arrays.

    A pipeline reads every config value off ``config`` and keeps no copy of
    one.  It builds its own layout, decoding graphs, fabric, link prices and
    decode memos, and they are freed with it.  ``windows`` states once
    each reported stage's interval window in one shot, which every campaign
    result carries and ``_check_table_fits`` sums.
    """

    def __init__(self, config):
        self.config = config
        stages = config.stage_latency
        if config.zero_jitter:
            stages = stages.zero_jitter()
        self._stage_windows = tuple(
            (name, st.mean_ps, st.jitter_ps)
            for name, st in stages.at_distance(config.distance).items()
        )

        # a tree too small for the code is refused before any graph is built
        self.layout, self.leaf_map, self.fabric = _tree(config)
        rounds = config.effective_rounds
        self.graphs = {s: build_decoding_graph(self.layout, s, rounds) for s in SECTORS}
        sim = Simulator()
        if config.sync_at_start:
            global_sync(sim, self.fabric, rng_stream(config.seed, _STREAM_SYNC))
        self.now = sim.now

        self.chain = boundary_chain(config.router_layers)
        # each stage's chain gaps, in chain order: gap i ends at boundary i + 1
        self._stage_gaps = {}
        for i, (_, stage) in enumerate(self.chain[1:]):
            self._stage_gaps.setdefault(stage, []).append(i)
        slot = {name: i for i, (name, _) in enumerate(self.chain)}
        # Per tree level, root first: the chain slots of its four boundaries,
        # its clocks' offsets and drifts as (nodes, 1, 1) columns, and where
        # each of its nodes' run of children starts in the level below.
        self._levels = []
        for row, bounds in zip(self.fabric.levels, level_boundaries(config.router_layers)):
            nodes = [self.fabric.nodes[n] for n in row]
            self._levels.append((
                [slot[name] for name, _ in bounds],
                np.array([node.clock.offset_ps for node in nodes], dtype=np.int64)[:, None, None],
                np.array([node.clock.drift_ppm for node in nodes], dtype=np.int64)[:, None, None],
                np.cumsum([0] + [len(node.children) for node in nodes[:-1]]),
            ))
        # per leaf, its uplink message's price; per k, a k-entry downlink message's; their bound
        self._uplink_excess_ps, self._downlink_excess_ps, longest_downlink = link_excess_ps(
            self.layout, self.leaf_map, self.config
        )
        # each stage's interval in one shot: mean, jitter and upper bound; a router
        # stage counts once per layer, and a link adds its leaves' longest message
        excess = {"uplink": self._uplink_excess_ps.max(), "downlink": longest_downlink}
        self.windows = {}
        for name, mean, hw in self._stage_windows:
            k = config.router_layers if name in ROUTER_STAGE_NAMES else 1
            if k:
                self.windows[name] = (k * mean, k * hw, k * (mean + hw) + int(excess.get(name, 0)))
        # the leaves' ancillas cover every syndrome column, so every round's
        # bits reach the root
        self._bits_received = rounds * self.layout.syndrome_bits_per_round
        # bytes one shot adds to a chunk: 8 per int64 entry of its table column
        # (four hold times per node, the marks, the leaves' entry counts and
        # downlink prices, the stage draws, the reported samples and its
        # end-to-end time), 2 for its failure and validity flags, 1 per edge of
        # each sector's bool fault row and 8 per fault id drawn at the config's
        # rate; the arrays that judge its faults come and go span by span
        columns = (4 * self.fabric.node_count + len(self.chain) + 2 * self.leaf_map.n_leaves
                   + len(self._stage_windows) + len(self.windows) + 1)
        edges = sum(g.n_edges for g in self.graphs.values())
        self._shot_bytes = 8 * columns + 2 + edges + math.ceil(8 * config.error_rate * edges)
        # per sector: packed defect row -> intp fault ids of its correction
        self._memos = {sector: {} for sector in SECTORS}
        self._philox = Philox(0)

    # ---- per-shot inputs -------------------------------------------------

    def _chunk_faults(self, shots: np.ndarray) -> list:
        """Per sector, the bool fault buffer of a chunk: (shots x edges), or
        (1 x edges) for a worst-case chunk, whose every shot has that row.

        The worst-case row holds ``_WORST_D3_FAULT_IDS``; a sampled row is
        ``_draw_faults`` on the shot's ``_sample_source`` stream, keyed in
        one batch in a chunk of at least ``_BATCHED_MIN_SHOTS`` shots.  One
        buffer per sector takes a ``np.flatnonzero`` faster than one per row.
        """
        if self.config.effective_syndrome_source == "worst_case":
            faults = [np.zeros((1, g.n_edges), dtype=bool) for g in self.graphs.values()]
            for row, sector in zip(faults, SECTORS):
                row[0, _WORST_D3_FAULT_IDS[sector]] = True
            return faults
        faults = [np.zeros((len(shots), g.n_edges), dtype=bool) for g in self.graphs.values()]
        keys = [None] * (len(shots) * len(SECTORS))
        if len(shots) >= _BATCHED_MIN_SHOTS:
            streams = [(_STREAM_SAMPLE, s, k) for s in shots.tolist() for k in range(len(SECTORS))]
            batched, _, exact = stream_blocks(self.config.seed, streams, 0)
            keys = [key if ok else None for key, ok in zip(batched, exact.tolist())]
        error_rate = self.config.error_rate
        for j, key in enumerate(keys):
            i, k = divmod(j, len(SECTORS))
            _draw_faults(self._sample_source(int(shots[i]), k, key), faults[k][i], error_rate)
        return faults

    def _sample_source(self, shot: int, k: int, key=None):
        """The bit generator of ``rng_stream(seed, _STREAM_SAMPLE, shot, k)``; given the
        stream's batched Philox ``key``, one reused Philox set to that key, which is
        much cheaper than building the stream and draws the same."""
        if key is None:
            return rng_stream(self.config.seed, _STREAM_SAMPLE, shot, k).bit_generator
        self._philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_BLOCK, "key": key},
            "buffer": _ZERO_BLOCK,
            "buffer_pos": 4,  # buffer spent: the first draw computes block 1
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._philox

    def _stage_durations(self, shot: int):
        """One shared duration draw per stage per shot.

        The measured min-max spreads are properties of each pipeline stage
        (clock-domain crossings), so a stage's duration is sampled once per
        shot and applies to every board participating in that stage.
        """
        rng = None
        durations = {}
        for name, mean, hw in self._stage_windows:
            if hw > 0:
                if rng is None:
                    rng = rng_stream(self.config.seed, _STREAM_SHOT, shot)
                mean = mean + int(rng.integers(-hw, hw + 1))
            durations[name] = max(0, mean)
        return durations

    def _stage_table(self, shots: np.ndarray) -> np.ndarray:
        """(stages x shots) int64 durations, column by column equal to ``_stage_durations``.

        ``Generator.integers(-hw, hw + 1)`` over a span below 2**32 - 1 is
        Lemire's method on the stream's 32-bit outputs, the low then the high
        half of each raw word, so a shot's draws are read off the first
        blocks of its stream, and each stage's draws off one contiguous row
        of half-words.  A shot whose draw would be rejected and drawn again,
        and every shot when a span is wider or the range holds fewer than
        ``_BATCHED_MIN_SHOTS``, go through ``_stage_durations``.
        """
        n = len(shots)
        means = [[mean] for _, mean, _ in self._stage_windows]
        table = np.repeat(np.array(means, dtype=np.int64), n, axis=1)
        jittered = [(i, hw) for i, (_, _, hw) in enumerate(self._stage_windows) if hw > 0]
        if not jittered:
            return np.maximum(table, 0, out=table)
        exact = np.zeros(n, dtype=bool)
        if n >= _BATCHED_MIN_SHOTS and all(2 * hw < 2**32 - 1 for _, hw in jittered):
            rows = np.column_stack((np.full(n, _STREAM_SHOT), shots))
            _, raw, exact = stream_blocks(self.config.seed, rows, -(-len(jittered) // 8))
            draws = np.stack((raw.T & 0xFFFFFFFF, raw.T >> 32), axis=1).reshape(-1, n)
            for j, (i, hw) in enumerate(jittered):
                span = 2 * hw + 1
                scaled = draws[j] * np.uint64(span)
                exact &= (scaled & 0xFFFFFFFF) >= 2**32 % span
                table[i] += (scaled >> 32).astype(np.int64) - hw
        for col in np.flatnonzero(~exact):
            table[:, col] = list(self._stage_durations(int(shots[col])).values())
        return np.maximum(table, 0, out=table)

    # ---- shot table ------------------------------------------------------

    def _check_table_fits(self, shots: int):
        """ConfigError unless ``shots`` more shots keep every table entry within int64.

        Where Python ints would grow, the table would wrap silently, so the
        worst case is bounded first: every stage at the upper bound of its
        window in ``windows`` (which holds the largest serialization prices,
        the downlink's for ``2 * qubits_per_leaf`` entries, more than any leaf
        sends), one extra cycle of alignment per shot, then the clocks'
        offsets and drift.
        """
        cycle = self.config.cycle_time_ps
        walk = sum(high for _, _, high in self.windows.values())
        end = -(-self.now // cycle) * cycle + shots * (walk + cycle)
        clocks = [node.clock for node in self.fabric.nodes.values()]
        drift = max(abs(clock.drift_ppm) for clock in clocks)
        offset = max(abs(clock.offset_ps) for clock in clocks)
        if max(end * max(drift, 1), end + offset + end * drift // 1_000_000) >= 2**63:
            raise ConfigError(
                f"{shots} shots could run to {end} ps, beyond the int64 range of the shot table"
            )

    def run_range(self, start: int, stop: int) -> CampaignResult:
        """Run shots ``start`` to ``stop - 1`` back to back, from the cycle boundary after ``now``.

        The range runs in chunks of about ``_TABLE_CHUNK_BYTES`` of the arrays
        a chunk holds per shot (``_shot_bytes``: table columns and results,
        bool fault rows and fault ids), and of at least ``_BATCHED_MIN_SHOTS``
        shots; each chunk's ids are judged in spans within the same budget.
        """
        if stop <= start:
            raise ValueError(f"empty shot range [{start}, {stop})")
        self._check_table_fits(stop - start)
        chunk = max(_BATCHED_MIN_SHOTS, _TABLE_CHUNK_BYTES // self._shot_bytes)
        return CampaignResult.merge(
            [self._run_chunk(a, min(a + chunk, stop))[0] for a in range(start, stop, chunk)]
        )

    def _run_chunk(self, start: int, stop: int) -> tuple:
        """Shots ``start`` to ``stop - 1``: their ``CampaignResult``, their (shots x leaves)
        downlink entries, one row for a worst-case chunk, and per sector the
        fault ids of its spans' distinct corrections, listed span by span."""
        shots = np.arange(start, stop, dtype=np.int64)
        n = len(shots)

        # First pass: per sector and span (``_spans``), the failures and
        # distinct corrections through the sector's memo, whose leaf entries
        # are counted once per span into the rows of the shots they serve.  A
        # worst-case chunk judges its one row; its flags and counts hold for all.
        faults = self._chunk_faults(shots)
        m = len(faults[0])
        ids = [np.flatnonzero(sector_faults) for sector_faults in faults]
        del faults  # the bool buffers go before any span is judged
        n_data, per_leaf = self.layout.data_qubit_count, self.leaf_map.qubits_per_leaf
        failures = np.zeros(m, dtype=bool)
        counts = np.zeros((m, self.leaf_map.n_leaves), dtype=np.intp)
        corrections = {sector: [] for sector in SECTORS}
        for graph, sector_ids in zip(self.graphs.values(), ids):
            for lo, hi, span in _spans(graph, [(sector_ids, m)]):
                failed, rows, which, fixes = _chunk_failures(
                    graph, span, hi - lo, self._memos[graph.sector], _DECODE_MEMO_ENTRIES
                )
                failures[lo:hi] |= failed
                corrections[graph.sector] += fixes
                if not fixes:
                    continue
                # row j of odd marks the data qubits that correction j flips oddly
                fix = np.arange(len(fixes)).repeat(list(map(len, fixes)))
                qubit = graph.qubit[np.concatenate(fixes)]
                data = qubit >= 0
                odd = np.bincount(fix[data] * n_data + qubit[data], minlength=len(fixes) * n_data)
                odd = (odd & 1).reshape(-1, n_data)
                per_fix = np.add.reduceat(odd, np.arange(0, n_data, per_leaf), axis=1)
                counts[lo + rows, :per_fix.shape[1]] += per_fix[which]
        downlink = self._downlink_excess_ps[counts.T]

        # Vectorized pass: per tree level, a (nodes x 4 x shots) array of the
        # times its nodes mark their four boundaries, relative to the shot
        # start.  Up the tree, a node starts when its last child's data arrives ...
        dur = dict(zip((name for name, _, _ in self._stage_windows), self._stage_table(shots)))
        holds = [np.empty((len(row), 4, n), dtype=np.int64) for row in self.fabric.levels]
        root, leaves = holds[0], holds[-1]
        leaves[:, 0] = 0
        leaves[:, 1] = dur["leaf_agg"]
        sent = leaves[:, 1] + dur["uplink"] + self._uplink_excess_ps[:, None]
        proc_up, net_up = dur["router_proc"] // 2, dur["router_net"] // 2
        for hold, (_, _, _, runs) in zip(holds[-2:0:-1], self._levels[-2:0:-1]):
            hold[:, 0] = np.maximum.reduceat(sent, runs, axis=0)
            hold[:, 1] = hold[:, 0] + proc_up
            sent = hold[:, 1] + net_up
        root[0, 0] = sent.max(axis=0)
        root[0, 1] = root[0, 0] + dur["root_agg"]
        root[0, 2] = root[0, 1] + dur["decode"]
        root[0, 3] = forward = root[0, 2] + dur["root_dist"]
        # ... and down it, where a level's nodes all get the corrections at once
        net_down, proc_down = dur["router_net"] - net_up, dur["router_proc"] - proc_up
        for hold in holds[1:-1]:
            arrive = forward + net_down
            forward = arrive + proc_down
            hold[:, 2], hold[:, 3] = arrive, forward
        leaves[:, 2] = forward + dur["downlink"] + downlink
        leaves[:, 3] = leaves[:, 2] + dur["leaf_dist"]
        length = leaves[:, 3].max(axis=0)

        # Shot k starts at the cycle boundary after shot k - 1 ended.
        cycle = self.config.cycle_time_ps
        t0 = np.empty(n, dtype=np.int64)
        t0[0] = -(-self.now // cycle) * cycle
        np.cumsum(-(-length[:-1] // cycle) * cycle, out=t0[1:])
        t0[1:] += t0[0]
        self.now = int(t0[-1] + length[-1])
        # Each boundary takes the latest local-clock mark of its level's nodes.
        marks = np.empty((len(self.chain), n), dtype=np.int64)
        for t, (slots, offset, drift, _) in zip(holds, self._levels):
            t += t0
            marks[slots] = (t + offset + drift * t // 1_000_000).max(axis=0)
        gaps = np.diff(marks, axis=0)

        return CampaignResult(
            n_shots=n,
            windows=self.windows,
            samples={name: gaps[self._stage_gaps[name]].sum(axis=0) for name in self.windows},
            end_to_end_ps=marks[-1] - marks[0],
            valid=np.ones(n, dtype=bool),  # a residual with a defect raised above
            failures=failures.repeat(n // m),  # a worst-case chunk's row holds for every shot
        ), counts, corrections

    def run_shot(self, shot: int = 0) -> ShotReport:
        """Run one full decoding-feedback shot at the next cycle boundary."""
        self._check_table_fits(1)
        result, counts, corrections = self._run_chunk(shot, shot + 1)
        return ShotReport(
            shot=shot,
            intervals={name: int(result.samples[name][0]) for name in self._stage_gaps},
            end_to_end_ps=int(result.end_to_end_ps[0]),
            logical_failure=bool(result.failures[0]),
            syndrome_bits_received=self._bits_received,
            corrections={s: frozenset(fixes[0].tolist() if fixes else ())
                         for s, fixes in corrections.items()},
            leaf_entries=tuple(counts[0].tolist()),
        )


def _latency_stats(arr: np.ndarray) -> dict:
    return {
        "mean_ps": float(arr.mean()),
        "min_ps": int(arr.min()),
        "max_ps": int(arr.max()),
        "p50_ps": float(np.percentile(arr, 50)),
        "p90_ps": float(np.percentile(arr, 90)),
        "p99_ps": float(np.percentile(arr, 99)),
    }


@dataclass
class CampaignResult:
    """Aggregated per-stage samples and decode outcomes of a campaign, with
    its stages' interval windows as ``Pipeline.windows`` states them."""

    n_shots: int
    windows: dict
    samples: dict
    end_to_end_ps: np.ndarray
    valid: np.ndarray  # all True (a correction that leaves a defect raises); bench/ hashes it
    failures: np.ndarray

    @property
    def stage_names(self) -> tuple:
        return tuple(self.windows)

    def stage_stats(self):
        return {name: _latency_stats(self.samples[name]) for name in self.stage_names}

    def end_to_end_stats(self):
        return _latency_stats(self.end_to_end_ps)

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
            windows=first.windows,
            samples={
                name: np.concatenate([p.samples[name] for p in parts])
                for name in first.stage_names
            },
            end_to_end_ps=np.concatenate([p.end_to_end_ps for p in parts]),
            valid=np.concatenate([p.valid for p in parts]),
            failures=np.concatenate([p.failures for p in parts]),
        )


def _campaign_range(config, start, stop) -> CampaignResult:
    # where a serial run starts shot ``start`` if every shot takes one cycle
    pipeline = Pipeline(config)
    pipeline.now += start * config.cycle_time_ps
    return pipeline.run_range(start, stop)


def _worker_count(jobs: int, tasks: int) -> int:
    """Processes for ``tasks`` independent tasks: at most jobs, tasks and CPUs."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _run_tasks(fn, tasks, workers: int) -> list:
    """``[fn(*task) for task in tasks]``, over ``workers`` spawned processes if > 1.

    The pool machinery loads on the first call that fans out, so a serial
    run never imports ``multiprocessing`` or ``concurrent.futures``.
    """
    if workers <= 1:
        return [fn(*task) for task in tasks]
    # imported here, not at module level, so a serial run's cold start skips them (10-20 ms)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [f.result() for f in futures]


def run_campaign(config) -> CampaignResult:
    """Run many shots and aggregate stage statistics plus an LER estimate.

    The config is the campaign's only input: its ``shots``, ``seed`` and
    ``jobs`` are the run's, so a report's config hash names the run.  Each
    worker builds its own ``Pipeline``, layout and decoding graphs
    included, and runs its contiguous shot range through
    ``Pipeline.run_range``, a table of int64 columns built in chunks of
    bounded byte size.  Shots are pure functions of (config, shot index),
    so splitting a campaign into ranges, one per worker process (at most
    ``min(jobs, shots, os.cpu_count())``), changes nothing but wall time.
    A range starts ``start`` cycles after sync, where the serial run starts
    it if every shot takes one cycle; drifting clocks mark a shot by its
    absolute start, so a drifting campaign whose shots may not runs as one
    range.  A run with one worker never loads the pool machinery.  A tree
    that cannot host the code is refused with the fabric's CapacityError,
    and a campaign whose worst-case end time would not fit in int64 with
    ConfigError, before any worker starts or any shot runs.
    """
    workers = _worker_count(config.jobs, config.shots)
    if workers > 1:
        # one refusal of the whole campaign before the pool starts, not one
        # in every worker, whose range alone may fit
        pipeline = Pipeline(config)
        pipeline._check_table_fits(config.shots)
        windows = pipeline.windows.values()
        low = sum(max(0, mean - jitter) for mean, jitter, _ in windows)
        one_cycle = 0 < low and sum(high for _, _, high in windows) <= config.cycle_time_ps
        if config.drift_ppm and not one_cycle:
            workers = 1
    bounds = np.linspace(0, config.shots, workers + 1, dtype=int)
    tasks = [(config, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    return CampaignResult.merge(_run_tasks(_campaign_range, tasks, workers))


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


def _draw_faults(bit_generator, out: np.ndarray, error_rate: float) -> np.ndarray:
    """``Generator.random(out.shape) < error_rate`` on the same stream, from raw
    draws, written into the bool array ``out``, which is returned.

    ``random()`` is ``(raw >> 11) * 2**-53``, which is below p exactly when
    ``raw >> 11 < t`` with ``t = ceil(p * 2**53)``, and so exactly when
    ``raw < t << 11`` (the 11 dropped bits cannot lift ``raw >> 11`` to
    ``t``): one integer compare per word gives the same booleans with no
    float array.  Only p = 1 gives ``t = 2**53``, whose shift would
    overflow uint64; every ``raw >> 11`` is below it, so every draw is
    True.  Successive calls continue the stream, so drawing in row chunks
    gives the same bits as one draw.  The raw words are freed on return.
    """
    raw = bit_generator.random_raw(out.shape)
    threshold = math.ceil(error_rate * 2.0**53)
    if threshold >= 2**53:
        out[...] = True
        return out
    return np.less(raw, np.uint64(threshold << 11), out=out)


def _chunk_failures(graph, ids: np.ndarray, n: int, memo: dict, bound: int):
    """Failure flags and corrections of ``n`` rows (shots) of flat fault ids.

    ``ids`` is ascending intp ``row * n_edges + edge``, as ``np.flatnonzero``
    of a (rows x edges) bool fault matrix gives it.  A row fails when its
    faults, XOR the correction of its syndrome, cross the logical chain
    oddly.  Only rows with a fault are looked at; they are read off the ids.
    Each distinct defect row is first looked up in ``memo`` (packed defect
    row -> intp fault ids of its correction; the decoder is a pure function
    of (graph, defects)).  At least ``_SETTLE_MIN_ROWS`` misses go through
    ``settle_rows`` in one call, and only the rows it declines are decoded;
    fewer misses are each decoded from their defect ids.  Each new
    correction enters the memo, which is cleared first when it holds
    ``bound`` entries.  One ``fault_parity`` over the distinct corrections'
    ids checks that each has its key's defects as syndrome (ValueError
    otherwise); by linearity, its crossing parity then flips its rows'
    failure flags.

    Returns ``(failed, rows, which, fixes)``: the (n,) bool failure flags,
    the ascending rows with a defect, each one's index into ``fixes``, and
    the intp fault ids of each distinct correction.
    """
    n_edges = graph.n_edges
    failed = np.zeros(n, dtype=bool)
    rows = ids // n_edges
    head = np.ones(len(rows), dtype=bool)  # the first id of each row with a fault
    np.not_equal(rows[1:], rows[:-1], out=head[1:])
    hit = rows[head]
    # the ids renumbered onto the hit rows, which fault_parity then counts alone
    defects, crossings = graph.fault_parity(ids + (np.cumsum(head) - 1 - rows) * n_edges, len(hit))
    failed[hit] = crossings
    has_defect = defects.any(axis=1)
    rows = hit[has_defect]
    if not len(rows):
        return failed, rows, rows, []  # no corrections
    defects = defects[has_defect]
    packed = np.packbits(defects, axis=1)
    keys, first, which = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                   return_index=True, return_inverse=True)
    keys = keys.tolist()
    fixes = [memo.get(key) for key in keys]
    missed = [j for j, fix in enumerate(fixes) if fix is None]
    if len(missed) >= _SETTLE_MIN_ROWS:
        new, declined = settle_rows(graph, defects[first[missed]])
    else:
        new = [None] * len(missed)
        declined = [(i, np.flatnonzero(defects[first[j]]).tolist()) for i, j in enumerate(missed)]
    for i, defect_ids in declined:
        new[i] = np.array(decode_defects(graph, defect_ids)[0], dtype=np.intp)
    for j, fix in zip(missed, new):
        if len(memo) >= bound:
            memo.clear()
        fixes[j] = memo[keys[j]] = fix
    fix_ids = np.concatenate(fixes) + np.arange(len(fixes)).repeat(list(map(len, fixes))) * n_edges
    syndromes, flips = graph.fault_parity(fix_ids, len(fixes))
    if not np.array_equal(syndromes, defects[first]):
        raise ValueError("correction does not annihilate the pattern's syndrome")
    failed[rows] ^= flips[which]
    return failed, rows, which, fixes


def _span_bytes(graph, hits, faults, ends):
    """Bytes one ``_chunk_failures`` call holds to judge ``hits`` hit rows of
    ``faults`` fault ids with ``ends`` endpoint ids (2 per edge, 1 per boundary
    edge); ints, or numpy arrays of them elementwise.

    The terms add up arrays that live in different phases of the call, so
    the sum lies above the call's tracemalloc peak: 1.25 to 1.9 times it at
    d = 5 to 21, p = 1e-3 and 1e-2, with a fresh memo.  It leaves out
    ``settle_rows``' two-hop gathers for lone candidates: in a d = 5,
    p = 1e-2, 1 300-row call, ``settle_rows`` rises 1.12 MB above its entry,
    about 357 B per defect, where the per-endpoint term charges 208 B per
    endpoint id.  That call peaks at 1.35 MB, and the terms other than the
    dense-path term sum to 1.16 MB: the estimate covers the peak there only
    because the dense term counts an int64 array of another phase.
    """
    n_vertices = graph.n_vertices
    # per hit row and vertex: its uint8 defect row (1) and the copy that keeps
    # the rows with a defect (1), its packed key with np.unique's flattened and
    # sorted copies and its bytes key (4 x 1/8), settle_rows' padded bool row
    # (1) and the check's syndrome row (1)
    per_row = 9 * n_vertices // 2
    # per fault id: it, its row and its two endpoint ids (4 x 8); per endpoint
    # id, a defect at most, whose row and column settle_rows holds (2 x 8) and
    # gathers four int64s per incident slot (edge, both ends, far end)
    per_end = 16 + 32 * graph.incident_table.shape[1]
    # fault_parity's dense path: an int64 count per vertex of each hit row
    dense = 64 * ends >= hits * n_vertices
    return hits * (per_row + dense * 8 * n_vertices) + 32 * faults + per_end * ends


def _spans(graph, draws):
    """Spans of consecutive rows, each for one ``_chunk_failures`` call within
    ``_TABLE_CHUNK_BYTES`` of ``_span_bytes``: the span rule of both campaign
    paths, stated here alone.

    ``draws`` yields ``(ids, n)`` in row order: the ascending flat fault ids
    of ``n`` rows, numbered from the draw's first row.  A span takes all the
    ids left if they fit; otherwise it ends before the hit row that would
    carry its cost past the budget, and it holds at least one hit row.  A
    span still open when a draw ends carries its ids and cost into the
    next.  The spans tile the rows: the first starts at row 0, each other at
    the hit row its predecessor ended before, and the last ends after the
    last draw.  Yields ``(start, stop, ids)`` per span: its rows, numbered
    from the first draw's first row, and its ids, numbered from ``start``.
    """
    n_edges = graph.n_edges
    parts, start, lo = [], 0, 0  # the open span's ids and first row; the draw's first row
    hits = faults = n_ends = 0  # the open span's load before this draw

    def span_ids():  # the open span's ids, numbered from its first row
        ids = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return ids - start * n_edges if start else ids

    for ids, n in draws:
        if len(ids):
            ids = ids + lo * n_edges if lo else ids
            rows = ids // n_edges
            new_row = rows[1:] != rows[:-1]
            inner = graph.v[ids - rows * n_edges] != BOUNDARY  # a second endpoint id
            load = (hits + 1 + int(np.count_nonzero(new_row)), faults + len(ids),
                    n_ends + len(ids) + int(np.count_nonzero(inner)))
            if _span_bytes(graph, *load) > _TABLE_CHUNK_BYTES:
                # per hit row: the index past its last id, and the endpoint ids up to there
                stops = np.append(np.flatnonzero(new_row) + 1, len(ids))
                ends = np.cumsum(1 + inner)[stops - 1]
            del rows, new_row, inner  # no judged span holds this draw's per-id arrays,
            a = b = e = 0  # the open span's first id and hit row here, and endpoint ids before it
            while _span_bytes(graph, *load) > _TABLE_CHUNK_BYTES:
                first = int(hits == 0)  # an empty span takes its first row whatever it costs
                cost = _span_bytes(graph, hits + np.arange(1, len(stops) - b + 1),
                                   faults + stops[b:] - a, n_ends + ends[b:] - e)
                over = cost[first:] > _TABLE_CHUNK_BYTES
                if not over.any():
                    break
                b += first + int(over.argmax())
                # b = 0: the held span closes before these ids
                cut, e = (int(stops[b - 1]), int(ends[b - 1])) if b else (0, 0)
                row = int(ids[cut]) // n_edges
                parts.append(ids[a:cut])
                yield start, row, span_ids()
                parts, start, a = [], row, cut
                hits = faults = n_ends = 0
                load = (len(stops) - b, len(ids) - a, int(ends[-1]) - e)
            stops = ends = cost = over = None  # nor does the next draw hold its per-row arrays
            ids = ids[a:]
            hits, faults, n_ends = load
        parts.append(ids)
        lo += n
    yield start, lo, span_ids()


def _ler_sector_failures(config, k: int, batch: int, batches: range) -> np.ndarray:
    """Failure flags of sector ``SECTORS[k]`` for the shots of a contiguous range of
    ``batch``-shot batches of a sampled config.

    Entry i is shot ``batches.start * batch + i``.  Drawing and judging come
    apart.  Each batch's Philox stream is drawn in row chunks of
    ``_TABLE_CHUNK_BYTES`` of raw words, each compared into one reused bool
    buffer, and the batch's draws, as fault ids (one ``np.flatnonzero``
    each), are judged in the spans of ``_spans``, which may cover many
    draws.  The raw words of a draw are freed before a span is judged, so
    the arrays are O(``_TABLE_CHUNK_BYTES``) for any ``batch``.  The layout
    and graph are built here and freed on return, so that a distance sweep
    holds no graph of a code it has finished with.
    """
    layout = build_layout(config.distance)
    graph = DecodingGraph(layout, SECTORS[k], config.effective_rounds)
    n_edges = graph.n_edges
    draw = np.empty((max(1, _TABLE_CHUNK_BYTES // (8 * n_edges)), n_edges), dtype=bool)
    first = batches.start * batch
    failed = np.zeros(min(batches.stop * batch, config.shots) - first, dtype=bool)
    memo = {}

    def draws(source, n):
        for lo in range(0, n, len(draw)):
            rows = _draw_faults(source, draw[: n - lo], config.error_rate)
            yield np.flatnonzero(rows), len(rows)

    for b in batches:
        source = rng_stream(config.seed, _STREAM_LER, config.distance, k, b).bit_generator
        flags = failed[b * batch - first :][:batch]  # this batch's shots
        for start, stop, ids in _spans(graph, draws(source, len(flags))):
            flags[start:stop] = _chunk_failures(graph, ids, stop - start, memo, batch)[0]
    return failed


def ler_campaign(distance: int, error_rate: float, shots: int, seed: int,
                 rounds: int | None = None, jobs: int = 1) -> LerEstimate:
    """Vectorized Monte-Carlo logical-error-rate estimate for one distance.

    Transport is lossless and order-preserving, so the logical error rate
    depends only on the sampled faults and the decoder; this path samples
    many shots per numpy call and decodes only the shots that show defects.
    Shots come in batches of ``_LER_BATCH``, and each batch of a sector is
    one Philox stream keyed by (seed, distance, sector, batch), so shot i of
    a given (seed, distance) is the same for every ``shots`` and ``jobs``.

    A batch is drawn in row chunks of ``_TABLE_CHUNK_BYTES`` of raw draws,
    kept as fault ids, and judged in the spans of ``_spans``
    (``_ler_sector_failures``), so its arrays are O(``_TABLE_CHUNK_BYTES``)
    for any batch size, and at low rates a span covers many draws.  Each
    sector's graph is built by the task that decodes it and freed when the
    task ends.  Each distinct syndrome is decoded once per sector and call: a memo built fresh for
    every sector (and every shard) maps the packed defect row to the fault
    ids of its correction, and is cleared when it holds a batch's worth of
    entries.  Each distinct correction is checked once per span to give
    back its defect row (ValueError otherwise).

    ``jobs`` > 1 shards the run by (sector, contiguous batch range) over at
    most ``min(jobs, tasks, os.cpu_count())`` worker processes.  Batches are
    independent Philox streams, so every job count gives the same result.
    A run with one worker never loads the pool machinery.
    The arguments are checked as an ``ExperimentConfig``'s: bad ones raise
    ConfigError before anything is built.
    """
    # sampled: every shot is drawn, so the worst case's pinned rounds do not apply
    config = ExperimentConfig(distance=distance, rounds=rounds, error_rate=error_rate, shots=shots,
                              seed=seed, jobs=jobs, syndrome_source="sampled")
    batch = _LER_BATCH  # read once, so every worker uses the caller's value
    n_batches = -(-shots // batch)
    cuts = np.linspace(0, n_batches, min(jobs, n_batches) + 1, dtype=int)
    shards = [
        (k, range(int(a), int(b))) for k in range(len(SECTORS)) for a, b in zip(cuts[:-1], cuts[1:])
    ]
    tasks = [(config, k, batch, batches) for k, batches in shards]
    parts = _run_tasks(_ler_sector_failures, tasks, _worker_count(jobs, len(tasks)))
    failed = np.zeros(shots, dtype=bool)
    for (_, batches), part in zip(shards, parts):
        first = batches.start * batch
        failed[first : first + len(part)] |= part
    return LerEstimate(distance, config.effective_rounds, error_rate, shots, int(failed.sum()))
