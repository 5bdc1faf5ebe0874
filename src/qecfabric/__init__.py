"""Distributed real-time QEC control-fabric simulator.

Library layout:

- ``code_model``: rotated surface code layouts, space-time decoding graphs,
  phenomenological noise sampling, syndrome extraction, and the Philox
  streams of many (seed, stream) tuples keyed in one numpy pass.
- ``uf_decoder``: union-find decoder plus validity and logical-failure
  checks (the brute-force oracle the tests hold it to is in
  ``tests/reference.py``).
- ``fabric_sim``: tree topologies as lists of node levels, per-node clocks,
  and the timer-alignment procedure: a four-timestamp exchange per tree
  edge, whose two frames a small deterministic event engine orders.
- ``link_layer``: stateless 64B/66B framed link model (throughput,
  serialization, latency, jitter and a frame's delivery time).
- ``qec_pipeline``: the timed end-to-end decoding-feedback loop, run as a
  table (one row per shot: stage durations, per tree level the times its
  nodes mark their boundaries, and the marks of every stage boundary, in
  int64 numpy arrays), campaign statistics and Monte-Carlo
  logical-error-rate estimation.
- ``capacity_model``: the stage latency table, which owns every latency
  term, and closed-form capacity, latency and throughput-margin math on it.
- ``config`` / ``cli``: experiment configuration and the command-line tool.
"""

from .capacity_model import (
    DEFAULT_DECODE_TABLE,
    PROFILES,
    CapacityEstimate,
    PlatformProfile,
    StageLatency,
    StageLatencyConfig,
    capacity_estimate,
    decode_latency_ps,
    decoder_peak_throughput,
    max_qubits,
    required_qubits,
)
from .code_model import (
    BOUNDARY,
    SECTOR_X,
    SECTOR_Z,
    SECTORS,
    CodeLayout,
    DecodingGraph,
    ErrorPattern,
    SyndromeRounds,
    build_decoding_graph,
    build_layout,
    sample_errors,
    syndrome_of,
)
from .config import TOOL_VERSION as __version__
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .fabric_sim import (
    CapacityError,
    Clock,
    Event,
    Fabric,
    NodeState,
    Simulator,
    TopologyConfig,
    global_sync,
    ptp_sync,
)
from .link_layer import (
    LinkModel,
    delivery_time,
    effective_throughput,
    effective_throughput_gbps,
    serialization_delay,
)
from .qec_pipeline import (
    CampaignResult,
    LeafMap,
    LerEstimate,
    Pipeline,
    ShotReport,
    assign_qubits_to_leaves,
    ler_campaign,
    run_campaign,
    wilson_interval,
    worst_case_d3_syndrome,
)
from .uf_decoder import (
    decode,
    is_logical_failure,
    is_valid,
)
