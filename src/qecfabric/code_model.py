"""Rotated surface code layout, space-time decoding graphs, and noise sampling.

The code is laid out on a d x d grid of data qubits with (d^2 - 1) ancilla
qubits split evenly between an X sector and a Z sector (2*d^2 - 1 qubits in
total).  Each sector is decoded independently on its own space-time graph:
vertices are detectors (stabilizer, round), spacelike edges are data-qubit
faults, timelike edges are measurement faults, and a single virtual BOUNDARY
vertex absorbs chains that terminate on the open boundary.

Noise is phenomenological: every edge of a decoding graph fails
independently with probability p.  Sampling is counter-based (Philox) so a
given (seed, stream) always reproduces the same pattern.

Layouts and graphs are pure functions of (distance) and (distance, sector,
rounds).  ``build_layout`` and ``build_decoding_graph`` build a new object
on every call, so each campaign builds its own and frees it when done; a
graph is built from one round's template in a few numpy calls.  Both are
immutable: tuples, frozensets and read-only arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

SECTOR_X = "X"
SECTOR_Z = "Z"
SECTORS = (SECTOR_X, SECTOR_Z)

#: Vertex id of the virtual boundary vertex.
BOUNDARY = -1


def rng_stream(seed, *stream):
    """A counter-based generator for the given seed and stream indices.

    Identical (seed, stream) tuples always yield identical draws, which keeps
    parallel Monte-Carlo campaigns reproducible regardless of scheduling.
    """
    return Generator(Philox(SeedSequence((int(seed),) + tuple(int(s) for s in stream))))


# SeedSequence's entropy-pool hash (numpy.random.bit_generator), in uint32 words
_POOL_WORDS = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10 round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_S16, _S32 = np.uint32(16), np.uint64(32)

#: Whether the batched streams matched numpy on their first use in this process.
_BATCHED_STREAMS_OK = None


def _hash_rows(values: np.ndarray, hash_const: int, mult: int):
    """SeedSequence's hash step on each row of a uint32 matrix, one constant per row.

    Each row is xored with the running constant, which then advances by
    ``mult``, multiplied by the advanced constant and folded (``x ^ x >> 16``).
    Returns the hashed rows and the constant after the last row.
    """
    xors, mults = [], []
    for _ in range(len(values)):
        xors.append(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        mults.append(hash_const)
    values = (values ^ np.array(xors, np.uint32)[:, None]) * np.array(mults, np.uint32)[:, None]
    return values ^ (values >> _S16), hash_const


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """Philox keys of ``SeedSequence(row)`` for each row of a (n, m) uint32 word matrix.

    The pool hash and ``generate_state(2, uint64)`` of numpy's SeedSequence,
    on whole columns at once.  The hash constants do not depend on the data,
    so every row runs the same steps, and the updates of different pool
    words from one source word run as one array operation.
    """
    n, m = words.shape
    hash_const = _HASH_INIT_A

    def hashmix(values):
        nonlocal hash_const
        values, hash_const = _hash_rows(values, hash_const, _HASH_MULT_A)
        return values

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _S16)

    pool = np.zeros((_POOL_WORDS, n), dtype=np.uint32)
    pool[: min(m, _POOL_WORDS)] = words[:, :_POOL_WORDS].T
    pool = hashmix(pool)
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = mix(pool[dst], hashmix(np.broadcast_to(pool[src], (len(dst), n))))
    for src in range(_POOL_WORDS, m):
        pool = mix(pool, hashmix(np.broadcast_to(words[:, src], (_POOL_WORDS, n))))
    # generate_state(2, uint64) reads the pool once, in order, as little-endian pairs
    state, _ = _hash_rows(pool, _HASH_INIT_B, _HASH_MULT_B)
    state = state.astype(np.uint64)
    return np.stack((state[0] | state[1] << _S32, state[2] | state[3] << _S32), axis=1)


def _philox_blocks(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 output blocks at counters 1 to ``blocks`` under each row's key.

    Counter words (c0, c2) go through the multipliers and (c1, c3) are
    carried, so a round is one operation on each pair.  The 64 x 64-bit
    products are schoolbook on 32-bit halves (Warren, "Hacker's Delight",
    ``mulhu``), every partial sum within 64 bits.  Constants are full-size
    arrays: numpy broadcasts a scalar or a column more slowly.
    """
    n = len(keys)
    shape = (2, blocks * n)

    def full(pair):
        return np.broadcast_to(np.array(pair, dtype=np.uint64)[:, None], shape).copy()

    low, s32 = full((0xFFFFFFFF,) * 2), full((32, 32))
    mult, bump = full(_PHILOX_M), full(_PHILOX_W)
    m_lo, m_hi = mult & low, mult >> s32
    key = np.tile(keys.T, blocks)  # k0 and k1 of every row, block after block
    even = np.zeros(shape, dtype=np.uint64)  # (c0, c2)
    even[0] = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64), n)
    odd = np.zeros(shape, dtype=np.uint64)  # (c1, c3)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += bump
        e_lo, e_hi = even & low, even >> s32
        mid = e_hi * m_lo + (e_lo * m_lo >> s32)
        hi = e_hi * m_hi + (mid >> s32) + ((mid & low) + e_lo * m_hi >> s32)
        even, odd = hi[::-1] ^ odd ^ key, (even * mult)[::-1]
    # output words c0, c1, c2, c3 of each block, blocks side by side per row
    out = np.stack((even[0], odd[0], even[1], odd[1]))  # (4, blocks * n)
    return out.reshape(4, blocks, n).transpose(2, 1, 0).reshape(n, 4 * blocks)


def _stream_blocks(seed: int, streams: np.ndarray, blocks: int):
    # SeedSequence's entropy: the seed's uint32 words, low first, then the row's
    prefix = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words = np.empty((len(streams), len(prefix) + streams.shape[1]), dtype=np.uint32)
    words[:, : len(prefix)] = prefix
    words[:, len(prefix) :] = streams & 0xFFFFFFFF
    keys = _philox_keys(words)
    if not blocks:  # keys only: ten Philox rounds on empty arrays still cost ~0.1 ms
        return keys, np.empty((len(keys), 0), dtype=np.uint64)
    return keys, _philox_blocks(keys, blocks)


def batched_streams_agree() -> bool:
    """Whether the batched keys and blocks equal numpy's own on a few streams.

    Checked once per process, on 2- to 5-word entropy tuples with zero and
    all-ones words and on seeds of two and three words, two blocks each.
    """
    global _BATCHED_STREAMS_OK
    if _BATCHED_STREAMS_OK is None:
        rows = (
            (0, 7), (1, 7, 0), (2**32 - 1, 11, 68_174, 1), (9, 13, 5, 1, 2**32 - 1),
            (2**32, 7), (12_345_000_001, 11, 5, 1), (2**64 + 3, 13, 0),
        )
        _BATCHED_STREAMS_OK = True
        for seed, *row in rows:
            keys, raw = _stream_blocks(seed, np.array([row], dtype=np.int64), 2)
            bit_generator = rng_stream(seed, *row).bit_generator
            _BATCHED_STREAMS_OK &= bool(
                np.array_equal(keys[0], bit_generator.state["state"]["key"])
                and np.array_equal(raw[0], bit_generator.random_raw(8))
            )
    return _BATCHED_STREAMS_OK


def stream_blocks(seed: int, streams: np.ndarray, blocks: int = 1):
    """Keys and first output blocks of many ``rng_stream(seed, *row)`` streams at once.

    ``streams`` is a (n, m) integer matrix, one stream tuple per row.
    Returns ``(keys, raw, exact)``: the (n, 2) uint64 Philox keys, the
    (n, 4 * blocks) uint64 draws ``rng_stream(seed, *row).bit_generator
    .random_raw(4 * blocks)`` (counters 1 to ``blocks``), and an (n,) bool
    mask.  Any non-negative seed is batched: SeedSequence hashes its uint32
    words, low word first, in front of the row's.  Where ``exact`` is False,
    keys and draws are meaningless and the row must go through
    ``rng_stream``: a negative entry, or one of 2**32 or more (it would
    hash a different number of words per row), makes its row inexact, and
    a negative seed or a failed ``batched_streams_agree`` the whole batch,
    so a numpy that changed its streams cannot move a result.
    """
    streams = np.asarray(streams, dtype=np.int64)
    seed = int(seed)
    exact = ((streams >= 0) & (streams < 2**32)).all(axis=1)
    if not (seed >= 0 and batched_streams_agree()):
        exact[:] = False
    keys, raw = _stream_blocks(seed, streams, blocks)
    return keys, raw, exact


@dataclass(frozen=True)
class CodeLayout:
    """Static geometry of one rotated surface code patch.

    Data qubits are indexed row-major on the d x d grid (qubit = row*d + col).
    Ancilla qubits follow: X-sector ancillas first, then Z-sector, each
    row-major by plaquette coordinate.  ``x_stabilizers[i]`` / ``z_stabilizers[i]``
    list the 2 or 4 data qubits checked by that stabilizer, in ascending order.

    ``crossing_chain[sector]`` is the support of the logical operator whose
    odd overlap with a residual error of that sector signals a logical
    failure (a middle column for the X sector, a middle row for Z).  The
    layout holds the supports as ``crossings``, (sector, frozenset) pairs,
    so that a layout cannot be changed through its dict.
    """

    distance: int
    x_stabilizers: tuple
    z_stabilizers: tuple
    crossings: tuple = field(compare=False)

    @property
    def crossing_chain(self) -> dict:
        """Sector -> support of its logical crossing chain, a new dict per read."""
        return dict(self.crossings)

    @property
    def data_qubit_count(self) -> int:
        return self.distance * self.distance

    @property
    def stabilizer_count_per_sector(self) -> int:
        return (self.distance * self.distance - 1) // 2

    @property
    def total_qubits(self) -> int:
        return 2 * self.distance * self.distance - 1

    @property
    def syndrome_bits_per_round(self) -> int:
        return self.distance * self.distance - 1

    def stabilizers(self, sector):
        if sector == SECTOR_X:
            return self.x_stabilizers
        if sector == SECTOR_Z:
            return self.z_stabilizers
        raise ValueError(f"unknown sector {sector!r}")


def build_layout(distance: int) -> CodeLayout:
    """The rotated surface code layout for an odd distance, a new object per call.

    Plaquettes sit on the (d+1) x (d+1) dual grid; interior plaquettes
    alternate X/Z in a checkerboard, weight-2 X plaquettes close the top and
    bottom boundaries, and weight-2 Z plaquettes close the left and right.
    """
    distance = operator.index(distance)  # any integer type; qubit ids are Python ints
    if distance < 1 or distance % 2 == 0:
        raise ValueError(f"distance must be an odd integer >= 1, got {distance}")
    d = distance
    # Plaquette (i, j) has corners (i, j), (i, j + 1), (i + 1, j) and
    # (i + 1, j + 1), for i, j in -1 .. d - 1; it is X iff i + j is even.
    # X plaquettes lie in columns 0 .. d - 2, Z plaquettes in rows 0 .. d - 2.
    x_stabs = []
    for i in range(-1, d):
        for j in range(i % 2, d - 1, 2):
            a = i * d + j
            x_stabs.append((a + d, a + d + 1) if i < 0 else (a, a + 1) if i == d - 1
                           else (a, a + 1, a + d, a + d + 1))
    z_stabs = []
    for i in range(d - 1):
        for j in range(i % 2 - 1, d, 2):
            a = i * d + j
            z_stabs.append((a + 1, a + d + 1) if j < 0 else (a, a + d) if j == d - 1
                           else (a, a + 1, a + d, a + d + 1))

    mid = (d - 1) // 2
    crossings = (
        # Z-type residuals run left-right; a column crosses them once.
        (SECTOR_X, frozenset(r * d + mid for r in range(d))),
        # X-type residuals run top-bottom; a row crosses them once.
        (SECTOR_Z, frozenset(mid * d + c for c in range(d))),
    )
    layout = CodeLayout(
        distance=d,
        x_stabilizers=tuple(x_stabs),
        z_stabilizers=tuple(z_stabs),
        crossings=crossings,
    )
    assert len(x_stabs) == layout.stabilizer_count_per_sector
    assert len(z_stabs) == layout.stabilizer_count_per_sector
    return layout


class DecodingGraph:
    """Space-time decoding graph of one error sector, held as flat edge arrays.

    Vertices are (stabilizer, round) pairs with id = round * n_stabilizers +
    stabilizer.  The edge order is fixed: each round's spacelike edges in
    data-qubit order, then the timelike edges round by round in stabilizer
    order.  The position of an edge in that order is its fault id, so a
    (qubit, round) or (stabilizer, round) fault's id is arithmetic on the
    public arrays below.

    Edge ``e`` joins ``u[e]`` (always a real vertex) and ``v[e]`` (a vertex
    or BOUNDARY) and lies on data qubit ``qubit[e]`` (-1 on a timelike
    edge), all intp arrays; ``edge_u`` and ``edge_v`` are the same as
    tuples, which Python loops index faster.  The edges at vertex ``w``, in
    ascending id order, are ``incident_ids[incident_starts[w] :
    incident_starts[w + 1]]``: one flat tuple in vertex order and its run
    starts.  Row ``w`` of the (vertices x max degree) intp array
    ``incident_table`` holds the same ids, padded with -1.
    ``crossing_ids`` are the spacelike edges on the sector's logical
    crossing chain: a residual error is a logical failure iff it holds an
    odd number of them.

    A graph does not change once built: its numpy arrays are read-only and
    its sequences are tuples.  No campaign path (``Pipeline``,
    ``ler_campaign``) reads ``incidence_matrix``, which is built afresh on
    every call.
    """

    def __init__(self, layout: CodeLayout, sector: str, rounds: int):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if sector not in SECTORS:
            raise ValueError(f"unknown sector {sector!r}")
        self.layout = layout
        self.sector = sector
        self.rounds = rounds
        n_stab = self.n_stabilizers = layout.stabilizer_count_per_sector

        # One round's spacelike edges, one per data qubit in qubit order: it
        # joins the qubit's two stabilizers, or its one stabilizer and the
        # boundary.  A qubit's slot is its edge's place among them; a qubit
        # touching no stabilizer of this sector (d=1 only) has no edge, so
        # its slot is -1.  ``checks`` lists each stabilizer's qubits, padded
        # to the widest with n_data, whose slot is -1 too.
        stabs = layout.stabilizers(sector)
        n_data = layout.data_qubit_count
        width = max(map(len, stabs), default=0)
        pad = (n_data,) * width
        checks, first, second = [], [-1] * n_data, [BOUNDARY] * n_data
        for s, qs in enumerate(stabs):
            checks += qs + pad[len(qs) :]
            for q in qs:
                if first[q] < 0:
                    first[q] = s
                else:
                    second[q] = s
        first, second = np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)
        qubits = np.flatnonzero(first >= 0)
        first, second = first[qubits], second[qubits]
        slot = np.full(n_data + 1, -1, dtype=np.intp)
        slot[qubits] = np.arange(len(qubits))
        per_round = len(qubits)
        n_space = rounds * per_round

        # vertex (s, t) is t * n_stab + s, and timelike edge (t, s), from
        # (s, t) to (s, t + 1), is edge n_space + t * n_stab + s
        vertex = np.arange(rounds * n_stab, dtype=np.intp).reshape(rounds, n_stab)
        round_base = vertex[:, :1]
        v = second + round_base
        v[:, second == BOUNDARY] = BOUNDARY
        self.u = np.concatenate(((first + round_base).ravel(), vertex[:-1].ravel()))
        self.v = np.concatenate((v.ravel(), vertex[1:].ravel()))
        self.edge_u = tuple(self.u.tolist())
        self.edge_v = tuple(self.v.tolist())
        self.qubit = np.full(self.n_edges, -1, dtype=np.intp)
        self.qubit[:n_space].reshape(rounds, per_round)[:] = qubits

        # Vertex (s, t) meets stabilizer s's k_s spacelike slots offset by
        # t x per_round (ascending, as s lists its qubits in order), then the
        # timelike edges (t - 1, s) and (t, s), so the table is one round's
        # (stabilizers x width) template of slots, broadcast over the
        # rounds, with the timelike ids put after the slots.
        template = slot[np.array(checks, dtype=np.intp).reshape(n_stab, width)]
        padding = template < 0
        table = np.full((rounds, n_stab, width + (min(rounds - 1, 2) if n_stab else 0)), -1,
                        dtype=np.intp)
        table[:, :, :width] = template + np.arange(rounds, dtype=np.intp)[:, None, None] * per_round
        table[:, :, :width][:, padding] = -1
        k = np.fromiter(map(len, stabs), np.intp, n_stab)
        s, t = np.arange(n_stab), np.arange(rounds - 1)[:, None]
        timelike = vertex[:-1] + n_space
        table[t + 1, s, k] = timelike  # (t, s) is the first timelike edge of (s, t + 1)
        table[t, s, k + (t > 0)] = timelike  # and follows (t - 1, s) at (s, t) if t > 0
        self.incident_table = table.reshape(self.n_vertices, table.shape[2])
        self.incident_ids = tuple(table[table >= 0].tolist())
        degree = k + [[(r > 0) + (r < rounds - 1)] for r in range(rounds)]  # slots + timelike edges
        self.incident_starts = (0, *np.cumsum(degree).tolist())

        chain = layout.crossing_chain[sector]
        self._crossing = np.zeros(self.n_edges, dtype=bool)
        rows = self._crossing[:n_space].reshape(rounds, per_round)
        rows[:] = [q in chain for q in qubits.tolist()]  # a view: sets every round's spacelike edges
        self.crossing_ids = frozenset(np.flatnonzero(self._crossing).tolist())
        for array in (self.u, self.v, self.qubit, self._crossing, self.incident_table):
            array.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.n_stabilizers * self.rounds

    @property
    def n_edges(self) -> int:
        return len(self.u)

    def incidence_matrix(self) -> np.ndarray:
        """Edge-by-vertex 0/1 incidence (boundary column omitted), a new array per call."""
        mat = np.zeros((self.n_edges, self.n_vertices), dtype=np.uint8)
        inner = np.flatnonzero(self.v != BOUNDARY)
        mat[np.concatenate((np.arange(self.n_edges), inner)),
            np.concatenate((self.u, self.v[inner]))] = 1
        return mat

    def fault_parity(self, ids: np.ndarray, n: int):
        """Detector and logical-crossing parities of ``n`` rows of flat fault ids.

        ``ids`` holds each row's faults as ``row * n_edges + edge``, each at
        most once (``np.flatnonzero`` of a (rows x edges) bool matrix gives
        them, ascending).  Returns ``(defects, crossings)``: the (n,
        n_vertices) uint8 0/1 syndrome of each row (the boundary absorbs
        parity silently) and the (n,) bool parity of its overlap with
        ``crossing_ids``.  Only the faulty edges' endpoints are counted, so
        the cost is O(faults log faults + n x vertices), with no
        edge-by-vertex product; an (n x vertices) int64 count array is built
        only where it is the faster way, with at most 64 vertex slots per
        endpoint.
        """
        n_edges, n_vertices = self.n_edges, self.n_vertices
        rows = ids // n_edges
        edges = ids - rows * n_edges
        v = self.v[edges]
        inner = v != BOUNDARY
        ends = np.concatenate(
            (rows * n_vertices + self.u[edges], rows[inner] * n_vertices + v[inner])
        )
        if 64 * len(ends) < n * n_vertices:  # sparse: sorting the ends beats counting every slot
            ends, counts = np.unique(ends, return_counts=True)
            defects = np.zeros(n * n_vertices, dtype=np.uint8)
            defects[ends] = counts & 1
        else:
            defects = np.bincount(ends, minlength=n * n_vertices).astype(np.uint8)
            defects &= 1
        crossings = (np.bincount(rows[self._crossing[edges]], minlength=n) & 1).astype(bool)
        return defects.reshape(n, n_vertices), crossings


def build_decoding_graph(layout: CodeLayout, sector: str, rounds: int) -> DecodingGraph:
    """Space-time graph of `rounds` measurement rounds for one sector, a new object per call."""
    return DecodingGraph(layout, sector, rounds)


@dataclass(frozen=True, eq=False)
class ErrorPattern:
    """A set of faults on one sector's decoding graph, named by fault id.

    A sampled error and a decoder's correction are both ErrorPatterns; the
    residual of a shot is their XOR.  Build one with ``pattern_from_fault_ids``.
    """

    graph: DecodingGraph = field(repr=False)
    fault_ids: frozenset

    @property
    def sector(self) -> str:
        return self.graph.sector

    def __xor__(self, other: "ErrorPattern") -> "ErrorPattern":
        _check_same_graph(other.graph, self.graph)
        return ErrorPattern(self.graph, self.fault_ids ^ other.fault_ids)


def _check_same_graph(a: DecodingGraph, b: DecodingGraph):
    """ValueError unless a and b have equal distance, sector and rounds (not identity)."""
    if (a.layout.distance, a.sector, a.rounds) != (b.layout.distance, b.sector, b.rounds):
        raise ValueError("pattern graph differs in distance, sector or rounds")


def pattern_from_fault_ids(graph: DecodingGraph, fault_ids) -> ErrorPattern:
    """The pattern of the given fault ids; rejects an id outside [0, n_edges)."""
    ids = frozenset(map(int, fault_ids))
    if ids and (min(ids) < 0 or max(ids) >= graph.n_edges):
        raise ValueError(f"fault ids outside [0, {graph.n_edges}) for this graph")
    return ErrorPattern(graph, ids)


def sample_errors(graph: DecodingGraph, p: float, seed: int, stream=()) -> ErrorPattern:
    """Sample one fault pattern: each edge fails independently with probability p.

    ``stream`` extends the seed into independent substreams, e.g. (shot,
    sector_index) during a campaign.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    rng = rng_stream(seed, *stream)
    hits = np.nonzero(rng.random(graph.n_edges) < p)[0]
    return pattern_from_fault_ids(graph, hits.tolist())


@dataclass(frozen=True, eq=False)
class SyndromeRounds:
    """Detector outcomes for r rounds, both sectors side by side.

    ``bits`` is an r x (d^2 - 1) uint8 matrix; columns [0, split) belong to
    the X sector and [split, d^2 - 1) to the Z sector, each row-major by
    plaquette coordinate.  Bits follow the detector convention (XOR of
    consecutive raw ancilla measurements).
    """

    bits: np.ndarray
    split: int

    def __post_init__(self):
        self.bits.flags.writeable = False

    @property
    def rounds(self) -> int:
        return self.bits.shape[0]

    def sector_bits(self, sector: str) -> np.ndarray:
        if sector == SECTOR_X:
            return self.bits[:, : self.split]
        if sector == SECTOR_Z:
            return self.bits[:, self.split :]
        raise ValueError(f"unknown sector {sector!r}")

    def defect_vertices(self, graph: DecodingGraph):
        """Vertex ids of nonzero detectors in the given graph's sector."""
        sb = self.sector_bits(graph.sector)
        if sb.shape != (graph.rounds, graph.n_stabilizers):
            raise ValueError(
                f"syndrome shape {sb.shape} does not match graph "
                f"({graph.rounds}, {graph.n_stabilizers})"
            )
        return np.flatnonzero(sb).tolist()  # row-major (round, stabilizer) is the vertex id

    @property
    def total_weight(self) -> int:
        return int(self.bits.sum())

    def __xor__(self, other: "SyndromeRounds") -> "SyndromeRounds":
        if self.split != other.split or self.bits.shape != other.bits.shape:
            raise ValueError("syndrome dimensions differ")
        return SyndromeRounds(self.bits ^ other.bits, self.split)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SyndromeRounds)
            and self.split == other.split
            and self.bits.shape == other.bits.shape
            and bool((self.bits == other.bits).all())
        )


def empty_syndrome(layout: CodeLayout, rounds: int) -> SyndromeRounds:
    bits = np.zeros((rounds, layout.syndrome_bits_per_round), dtype=np.uint8)
    return SyndromeRounds(bits, layout.stabilizer_count_per_sector)


def syndrome_from_defects(graph: DecodingGraph, defect_vertices) -> SyndromeRounds:
    """Syndrome with the given vertices of one sector flipped; a vertex listed twice cancels.

    Raises ValueError for a vertex id outside [0, n_vertices).
    """
    ids = np.fromiter(defect_vertices, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= graph.n_vertices):
        raise ValueError(f"defect ids outside [0, {graph.n_vertices}) for this graph")
    flipped = np.bincount(ids, minlength=graph.n_vertices) & 1
    split = graph.layout.stabilizer_count_per_sector
    bits = np.zeros((graph.rounds, graph.layout.syndrome_bits_per_round), dtype=np.uint8)
    cols = slice(0, split) if graph.sector == SECTOR_X else slice(split, None)
    bits[:, cols] = flipped.reshape(graph.rounds, graph.n_stabilizers)
    return SyndromeRounds(bits, split)


def syndrome_of(pattern: ErrorPattern, graph: DecodingGraph) -> SyndromeRounds:
    """Detector outcomes of a fault pattern: vertex bit = parity of incident faults.

    The virtual boundary absorbs parity silently.  Only the graph's own
    sector columns are populated; combine sectors with XOR.
    """
    _check_same_graph(pattern.graph, graph)
    ids = np.fromiter(pattern.fault_ids, dtype=np.intp, count=len(pattern.fault_ids))
    ends = np.concatenate((graph.u[ids], graph.v[ids]))
    flipped = np.bincount(ends[ends != BOUNDARY], minlength=graph.n_vertices) & 1
    return syndrome_from_defects(graph, np.flatnonzero(flipped))
