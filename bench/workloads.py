"""The benchmark's workloads: fixed inputs, one campaign repetition, and its checks.

A run of a workload is a sequence of repetitions ("reps").  Rep ``j`` of a
run at seed ``S`` is one call of a public campaign entry point at campaign
seed ``S * REP_SEED_STRIDE + j``, so every rep decodes fresh inputs: a cache
kept across campaign calls cannot turn a rep into a replay of an earlier one.
The first ``PINNED_REPS`` reps always run; their outputs are what the pinned
references in ``references.json`` record, and the simulated metrics of a run
are computed over them alone, so those metrics depend on the seed only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

REP_SEED_STRIDE = 1_000_000
PINNED_REPS = 5

#: A logical error rate above this on d=5 at p=1e-3 means the decoder is
#: broken: the pinned references are orders of magnitude lower.
LER_PLAUSIBLE_MAX = 1e-2


def rep_seed(seed: int, rep: int) -> int:
    if not 0 <= rep < REP_SEED_STRIDE:
        raise ValueError(f"rep {rep} out of range")
    return seed * REP_SEED_STRIDE + rep


@dataclass(frozen=True)
class LatencyWorkload:
    """Timed decoding-feedback campaigns through ``qec_pipeline.run_campaign``."""

    name: str
    why: str
    shots_per_rep: int
    overrides: dict = field(default_factory=dict)
    #: ROADMAP baseline row this workload is compared with (shots/s).
    baseline: tuple = ()
    #: Traced reps whose spans the per-layer metrics are computed from.
    trace_reps: int = 2

    def config(self, campaign_seed: int):
        from qecfabric.config import ExperimentConfig

        return ExperimentConfig(
            seed=campaign_seed, shots=self.shots_per_rep, jobs=1, **self.overrides
        ).validate()

    def setup(self, qp, seed: int):
        """Cold set-up as a user pays it: build the pipeline and run its first shot.

        The first shot is included because the d=3 worst-case syndrome
        search runs lazily on it.
        """
        qp.Pipeline(self.config(rep_seed(seed, 0))).run_shot(0)

    def run(self, qp, campaign_seed: int):
        return qp.run_campaign(self.config(campaign_seed))

    def record(self, result, campaign_seed: int) -> dict:
        """Digest of every per-shot output plus the rep's simulated metrics."""
        h = hashlib.sha256()
        h.update(repr((result.n_shots, tuple(result.stage_names))).encode())
        for name in result.stage_names:
            h.update(np.ascontiguousarray(result.samples[name], dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(result.end_to_end_ps, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(result.valid, dtype=np.uint8).tobytes())
        h.update(np.ascontiguousarray(result.failures, dtype=np.uint8).tobytes())
        rec = {"digest": h.hexdigest()}
        rec.update(self.simulated([result]))
        return rec

    def simulated(self, results) -> dict:
        """Simulated latency, deadline and logical-error figures of some reps."""
        config = self.config(0)
        e2e = np.concatenate([r.end_to_end_ps for r in results])
        failures = int(sum(int(r.failures.sum()) for r in results))
        return {
            "sim_latency_p50_ns": float(np.percentile(e2e, 50)) / 1000.0,
            "sim_latency_p99_ns": float(np.percentile(e2e, 99)) / 1000.0,
            "deadline_miss_frac": float((e2e > config.cycle_time_ps).mean()),
            "logical_error_rate": failures / len(e2e),
        }

    def failed_shots(self, qp, result, campaign_seed: int):
        """Shots whose output breaks a model invariant, with the reasons.

        Every correction must annihilate its syndrome, the stage intervals
        must add up to the end-to-end latency, and each stage must stay in
        its configured mean +- jitter window (router stages once per layer,
        links plus any serialization beyond the first frame).
        """
        config = self.config(campaign_seed)
        if result.n_shots != self.shots_per_rep or len(result.end_to_end_ps) != result.n_shots:
            return self.shots_per_rep, ["wrong shot count"]
        bad = ~np.asarray(result.valid, dtype=bool)
        problems = [f"{int(bad.sum())} invalid corrections"] if bad.any() else []
        total = sum(np.asarray(result.samples[n], dtype=np.int64) for n in result.stage_names)
        mismatch = total != result.end_to_end_ps
        if mismatch.any():
            problems.append(f"{int(mismatch.sum())} shots whose stages do not sum to end-to-end")
        bad |= mismatch
        for name, (lo, hi) in stage_bounds(qp, config).items():
            if name not in result.samples:
                continue
            arr = result.samples[name]
            out = (arr < lo) | (arr > hi)
            if out.any():
                problems.append(f"{int(out.sum())} {name} samples outside [{lo}, {hi}] ps")
            bad |= out
        return int(bad.sum()), problems


def stage_bounds(qp, config) -> dict:
    from qecfabric.link_layer import excess_serialization_delay

    stages = config.stage_latency.zero_jitter() if config.zero_jitter else config.stage_latency
    layers = config.router_layers
    bounds = {}
    for name in qp.STAGE_NAMES + qp.ROUTER_STAGE_NAMES:
        if name == "decode":
            mean, hw = stages.decode_ps(config.distance), stages.decode_jitter_ps
        else:
            st = stages.stage(name)
            mean, hw = st.mean_ps, st.jitter_ps
        lo, hi = max(0, mean - hw), mean + hw
        if name in qp.ROUTER_STAGE_NAMES:
            lo, hi = lo * layers, hi * layers
        bounds[name] = (lo, hi)
    # a leaf sends at most one bit per owned qubit up, and one entry per
    # owned data qubit and sector down
    lo, hi = bounds["uplink"]
    bounds["uplink"] = (lo, hi + excess_serialization_delay(config.qubits_per_leaf, config.uplink))
    lo, hi = bounds["downlink"]
    bounds["downlink"] = (
        lo,
        hi + excess_serialization_delay(2 * config.qubits_per_leaf, config.downlink),
    )
    return bounds


@dataclass(frozen=True)
class LerWorkload:
    """Batched Monte-Carlo logical-error-rate runs through ``qec_pipeline.ler_campaign``."""

    name: str
    why: str
    shots_per_rep: int
    distance: int
    error_rate: float
    baseline: tuple = ()
    trace_reps: int = 2

    def setup(self, qp, seed: int):
        """Cold set-up: layout, graphs and incidence matrices of both sectors.

        ``ler_campaign`` builds them on every call, so a one-shot call
        measures them plus a single sampled shot.
        """
        qp.ler_campaign(self.distance, self.error_rate, 1, seed=rep_seed(seed, 0))

    def run(self, qp, campaign_seed: int):
        return qp.ler_campaign(self.distance, self.error_rate, self.shots_per_rep, seed=campaign_seed)

    def record(self, estimate, campaign_seed: int) -> dict:
        return {"failures": int(estimate.failures)}

    def simulated(self, estimates) -> dict:
        shots = sum(e.shots for e in estimates)
        return {"logical_error_rate": sum(e.failures for e in estimates) / shots}

    def failed_shots(self, qp, estimate, campaign_seed: int):
        """All shots fail when the estimate is malformed or implausible."""
        expected = (self.distance, self.distance, self.error_rate, self.shots_per_rep)
        got = (estimate.distance, estimate.rounds, estimate.error_rate, estimate.shots)
        if got != expected:
            return self.shots_per_rep, [f"estimate describes {got}, expected {expected}"]
        if not 0 <= estimate.failures <= LER_PLAUSIBLE_MAX * estimate.shots:
            return self.shots_per_rep, [
                f"{estimate.failures} failures in {estimate.shots} shots is implausible"
            ]
        return 0, []


WORKLOADS = {
    w.name: w
    for w in (
        LatencyWorkload(
            name="latency_d3",
            why=(
                "paper's 3-board d=3 loop: same worst-case syndrome every shot, so the event "
                "engine, handlers and per-shot RNG construction dominate and memos always hit"
            ),
            shots_per_rep=1000,
            baseline=("d3 default", 3000.0),
        ),
        LatencyWorkload(
            name="latency_d13_l1",
            why=(
                "d=13 behind one router layer at p=1e-3: distinct syndromes on 1092-vertex "
                "graphs, so post-growth decoder scans and is_valid dominate; routers run only here"
            ),
            shots_per_rep=100,
            overrides={"distance": 13, "router_layers": 1},
            baseline=("d13 (1 router layer)", 160.0),
        ),
        LerWorkload(
            name="ler_d5_p1e-3",
            why=(
                "batched d=5 p=1e-3 LER estimate: no event engine; numpy sampling plus decoding "
                "of defect shots, whose syndromes mostly repeat"
            ),
            shots_per_rep=8192,
            distance=5,
            error_rate=1e-3,
            baseline=("ler_campaign d5 p=1e-3", 17800.0),
            # the share of decodes repeating an earlier syndrome climbs towards
            # ~0.91 only as a run grows: 0.85 after 2 reps, 0.91 after 10
            trace_reps=10,
        ),
    )
}
