"""Command-line front end: campaigns, capacity tables and throughput ledgers.

Every report embeds (config hash, seed, tool version); reruns with the same
triple are byte-identical.  Exit codes: 0 success, 2 configuration error,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import capacity_model, link_layer, qec_pipeline
from .code_model import (
    BOUNDARY,
    SECTORS,
    batched_streams_agree,
    build_decoding_graph,
    build_layout,
    sample_errors,
    stream_blocks,
    syndrome_of,
)
from .config import (
    _SYNDROME_SOURCES,
    TOOL_VERSION,
    ConfigError,
    ExperimentConfig,
    default_provenance,
    load_config,
)
from .fabric_sim import CapacityError, Fabric, Simulator, TopologyConfig, global_sync
from .uf_decoder import decode_defects, decode_with_stats

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


def _parse_distances(text: str):
    """'3..21' (odd values), '3,5,7', or '' for an empty sweep; ConfigError if malformed."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            distances = [d for d in range(int(lo_s), int(hi_s) + 1) if d % 2 == 1]
        else:
            distances = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--distances {text!r} is not like '3,5,7' or '3..21'") from None
    if any(d < 3 or d % 2 == 0 for d in distances):
        raise ConfigError(f"--distances {text!r}: every distance must be an odd integer >= 3")
    return distances


#: Flags that override one config field each: field -> ``add_argument`` options.
#: An absent flag parses to None and leaves the config's value alone.
_OVERRIDE_FLAGS = {
    "seed": {"type": int},
    "distance": {"type": int},
    "rounds": {"type": int},
    "error_rate": {"type": float},
    "shots": {"type": int},
    "jobs": {
        "type": int,
        "help": "worker processes; at most min(jobs, tasks, cpu_count) are started",
    },
    "profile": {"choices": sorted(capacity_model.PROFILES)},
    "router_layers": {"type": int},
    "zero_jitter": {"action": "store_true", "default": None},
    "syndrome_source": {"choices": _SYNDROME_SOURCES},
}


def _resolve_config(args, **fixed) -> ExperimentConfig:
    """The config file (or the defaults), then the given flags, then ``fixed``."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {
        name: getattr(args, name)
        for name in _OVERRIDE_FLAGS
        if getattr(args, name, None) is not None
    }
    overrides.update(fixed)
    if overrides:
        config = replace(config, **overrides)
    return config


def _write_reports(out, config: ExperimentConfig, name: str, tables, **summary):
    """Create ``out`` and write each ``(file, header, rows)`` of ``tables`` as a CSV and
    ``<name>_summary.json``: the report meta (config hash, seed, tool version) plus ``summary``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, header, rows in tables:
        with open(out / filename, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    summary.update(config_hash=config.config_hash(), seed=config.seed, tool_version=TOOL_VERSION)
    (out / f"{name}_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"reports written to {out}")


def cmd_latency(args) -> int:
    config = _resolve_config(args)
    result = qec_pipeline.run_campaign(config)

    stage_stats = result.stage_stats()
    stage_rows, stages_json = [], {}
    for name, (mean, jitter, high) in result.windows.items():
        stats = stage_stats[name]
        within = mean - jitter <= stats["min_ps"] and stats["max_ps"] <= high
        stage_rows.append(
            [name, f"{stats['mean_ps']:.3f}", stats["min_ps"], stats["max_ps"],
             f"{stats['p50_ps']:.1f}", f"{stats['p90_ps']:.1f}", f"{stats['p99_ps']:.1f}",
             mean, jitter, within]
        )
        stages_json[name] = dict(stats, configured_mean_ps=mean, configured_jitter_ps=jitter,
                                 within_bounds=within)

    e2e_ns, counts = np.unique(result.end_to_end_ps // 1000, return_counts=True)
    e2e = result.end_to_end_stats()

    print(f"{result.n_shots} shots at distance {config.distance}")
    for name in result.stage_names:
        s = stage_stats[name]
        print(f"  {name:11s} mean {s['mean_ps'] / 1000:8.3f} ns   "
              f"spread [{s['min_ps'] / 1000:.3f}, {s['max_ps'] / 1000:.3f}]")
    print(f"  end-to-end  mean {e2e['mean_ps'] / 1000:8.3f} ns   "
          f"spread [{e2e['min_ps'] / 1000:.3f}, {e2e['max_ps'] / 1000:.3f}]")
    _write_reports(
        args.out, config, "latency",
        [("latency_stages.csv",
          ["stage", "mean_ps", "min_ps", "max_ps", "p50_ps", "p90_ps", "p99_ps",
           "configured_mean_ps", "configured_jitter_ps", "within_bounds"],
          stage_rows),
         ("latency_hist.csv", ["end_to_end_ns", "count"],
          zip(e2e_ns.tolist(), counts.tolist()))],
        shots=result.n_shots, distance=config.distance, stages=stages_json, end_to_end=e2e,
        all_corrections_valid=bool(result.valid.all()), ler=result.ler(),
    )
    return EXIT_OK


def cmd_ler(args) -> int:
    # the LER path samples every shot, so any number of rounds is valid
    config = _resolve_config(args, syndrome_source="sampled")
    rows, table = [], {}
    for d in _parse_distances(args.distances):
        est = qec_pipeline.ler_campaign(
            d, config.error_rate, config.shots, config.seed, rounds=config.rounds,
            jobs=config.jobs,
        )
        lo, hi = est.ci95
        rows.append([d, est.rounds, config.error_rate, est.shots, est.failures,
                     f"{est.rate:.6e}", f"{lo:.6e}", f"{hi:.6e}"])
        table[str(d)] = dict(rounds=est.rounds, shots=est.shots, failures=est.failures,
                             rate=est.rate, ci95_low=lo, ci95_high=hi)
        print(f"d={d}: {est.failures}/{est.shots} failures  "
              f"LER={est.rate:.3e}  CI95=[{lo:.3e}, {hi:.3e}]")
    _write_reports(
        args.out, config, "ler",
        [("ler.csv", ["distance", "rounds", "error_rate", "shots", "failures", "ler",
                      "ci95_low", "ci95_high"], rows)],
        error_rate=config.error_rate, distances=table,
    )
    return EXIT_OK


def _capacity_rows(distances, config):
    """Each distance's closed-form capacity, latency and throughput row, as a JSON-ready dict."""
    # leaves hold the config's qubits_per_leaf, as in the tree `latency` builds
    profile = replace(capacity_model.get_profile(config.profile),
                      qubits_per_leaf=config.qubits_per_leaf)
    link = capacity_model.root_link(profile, config.uplink)
    rows = []
    for d in distances:
        est = capacity_model.capacity_estimate(d, profile, config.stage_latency, link,
                                               config.cycle_time_ps)
        required, available = est.throughput_required_bps, est.throughput_available_bps
        rows.append(dict(asdict(est), throughput_required_bps=float(required),
                         throughput_available_bps=float(available),
                         margin_ratio=float(available / required)))
    return rows


#: Per table command: its CSV columns of ``_capacity_rows`` and the line it prints per row.
_TABLES = {
    "capacity": (
        ["distance", "required_qubits", "leaves_needed", "router_layers", "max_qubits",
         "feasible"],
        lambda r: (f"d={r['distance']:2d}  qubits={r['required_qubits']:5d}  "
                   f"leaves={r['leaves_needed']:3d}  layers={r['router_layers']}  "
                   f"max={r['max_qubits']:6d}  feasible={r['feasible']}"),
    ),
    "extrapolate": (
        ["distance", "required_qubits", "router_layers", "decode_ps", "decode_anchored",
         "predicted_latency_ps", "margin_ratio"],
        lambda r: (f"d={r['distance']:2d}  layers={r['router_layers']}  "
                   f"decode={r['decode_ps'] / 1000:7.2f} ns  "
                   f"latency={r['predicted_latency_ps'] / 1000:8.2f} ns"
                   + ("" if r["decode_anchored"] else " (decode estimated)")),
    ),
}


def cmd_table(args) -> int:
    """``capacity`` or ``extrapolate``: the closed-form rows, one per distance."""
    config = _resolve_config(args)
    rows = _capacity_rows(_parse_distances(args.distances), config)
    header, line = _TABLES[args.command]
    extras = {}
    if args.command == "extrapolate":
        extras = {"base_latency_ps": capacity_model.BASE_LATENCY_PS,
                  "stage_mean_sum_ps": sum(config.stage_latency.stage(n).mean_ps
                                           for n in capacity_model.STAGE_NAMES if n != "decode")}
    for r in rows:
        print(line(r))
    _write_reports(args.out, config, args.command,
                   [(f"{args.command}.csv", header, [[r[k] for k in header] for r in rows])],
                   profile=config.profile, rows=rows, **extras)
    return EXIT_OK


def cmd_throughput(args) -> int:
    config = _resolve_config(args)
    # the headline ledger is quoted at d=21 unless the flag or the file pins a distance
    pinned = args.distance is not None or (
        args.config and "distance" in json.loads(Path(args.config).read_text())
    )
    d = config.distance if pinned else 21
    row = _capacity_rows([d], config)[0]
    required, available = row["throughput_required_bps"], row["throughput_available_bps"]

    # the paper's quoted 4 x 10G and 4 x 28G figures, for reference
    link10 = link_layer.LinkModel(10_000_000_000, lanes=4)
    link28 = link_layer.LinkModel(28_000_000_000, lanes=4)
    peak = capacity_model.decoder_peak_throughput()
    rows = [
        ["network_4x10G_gbps", f"{link_layer.effective_throughput_gbps(link10):.3f}"],
        ["network_4x28G_gbps", f"{link_layer.effective_throughput_gbps(link28, 1):.1f}"],
        ["decoder_peak_gbps", f"{float(peak) / 1e9:.2f}"],
        [f"required_d{d}_mbps", f"{required / 1e6:.3f}"],
        [f"available_d{d}_gbps", f"{available / 1e9:.2f}"],
        [f"margin_ratio_d{d}", f"{row['margin_ratio']:.2f}"],
    ]
    for name, value in rows:
        print(f"  {name:22s} {value}")
    _write_reports(
        args.out, config, "throughput", [("throughput.csv", ["quantity", "value"], rows)],
        distance=d, profile=config.profile,
        network_4x10G_bps=float(capacity_model.effective_throughput(link10)),
        network_4x28G_bps=float(capacity_model.effective_throughput(link28)),
        decoder_peak_bps=float(peak), required_bps=required, available_bps=available,
        margin_ratio=row["margin_ratio"],
    )
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    check("capacity: 2d^2-1 identities",
          capacity_model.required_qubits(17) == 577
          and capacity_model.required_qubits(21) == 881)
    check("capacity: root port products",
          capacity_model.max_qubits(capacity_model.get_profile("vcu129"), 0) == 476
          and capacity_model.max_qubits(capacity_model.get_profile("zcu216"), 0) == 56)
    link10 = link_layer.LinkModel(10_000_000_000, lanes=4)
    check("throughput: 4x10G effective 38.788 Gb/s",
          link_layer.effective_throughput_gbps(link10) == 38.788)
    check("throughput: decoder peak 38.26 Gb/s",
          round(float(capacity_model.decoder_peak_throughput()) / 1e9, 2) == 38.26)

    cfg = ExperimentConfig(zero_jitter=True, shots=3, seed=9)
    r1 = qec_pipeline.run_campaign(cfg)
    r2 = qec_pipeline.run_campaign(cfg)
    check("determinism: zero-jitter end-to-end 451000 ps",
          set(r1.end_to_end_ps.tolist()) == {451_000})
    check("determinism: repeated runs identical",
          (r1.end_to_end_ps == r2.end_to_end_ps).all()
          and all((r1.samples[n] == r2.samples[n]).all() for n in r1.stage_names))
    routed = qec_pipeline.Pipeline(ExperimentConfig(zero_jitter=True, router_layers=1)).run_shot(0)
    check("routing: one router layer, zero-jitter end-to-end 808000 ps",
          routed.end_to_end_ps == 808_000)

    sampled = qec_pipeline.run_campaign(ExperimentConfig(
        distance=5, syndrome_source="sampled", error_rate=0.02, shots=200, seed=1, jobs=1))
    check("pipeline: d=5 p=0.02 200 sampled shots seed 1 give 19 failures, all corrections valid",
          sampled.failures.sum() == 19 and sampled.valid.all())

    check("rng: batched Philox keys and blocks agree with numpy (else every stream is built)",
          batched_streams_agree())
    check("rng: a seed of 2**32 or more keys its streams in the batch too",
          stream_blocks(12_345_000_001, [[7, 0]])[2].all())

    fabric = Fabric(TopologyConfig(n_leaves=4, clock_offset_bound_ps=1_000_000), seed=5)
    residuals = global_sync(Simulator(), fabric)
    check("clock sync: zero residual under symmetric links",
          max(abs(v) for v in residuals.values()) == 0)

    est = qec_pipeline.ler_campaign(3, 0.02, 2000, seed=11)
    check("decoder: d=3 sampled shots decode validly (LER sane)", 0 <= est.rate < 0.5)
    check("ler: d=3 p=0.02 3000 shots seed 7 gives the pinned 245 failures",
          qec_pipeline.ler_campaign(3, 0.02, 3000, seed=7).failures == 245)
    check("decoder: worst-case d=3 syndrome is nonzero",
          qec_pipeline.worst_case_d3_syndrome().total_weight > 0)

    layout = build_layout(3)
    check("layout: d=3 has 17 qubits / 8 syndrome bits",
          layout.total_qubits == 17 and layout.syndrome_bits_per_round == 8)

    incident_ok = agree = True
    for k, sector in enumerate(SECTORS):
        graph = build_decoding_graph(build_layout(13), sector, 13)
        expected = [[] for _ in range(graph.n_vertices)]
        for e_id, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v)):
            expected[u].append(e_id)
            if v != BOUNDARY:
                expected[v].append(e_id)
        starts = graph.incident_starts
        incident_ok &= [list(graph.incident_ids[a:b]) for a, b in zip(starts, starts[1:])] == expected
        syndrome = syndrome_of(sample_errors(graph, 3e-3, seed=13, stream=(k,)), graph)
        defects = syndrome.defect_vertices(graph)
        ids, stats = decode_defects(graph, defects)
        correction, wrapped = decode_with_stats(graph, syndrome)
        agree &= bool(defects) and set(ids) == correction.fault_ids and stats == wrapped
    check("graph: d=13 incident lists match every edge's endpoints", incident_ok)
    check("decoder: decode_defects and decode_with_stats agree on a d=13 syndrome per sector",
          agree)
    pipeline = qec_pipeline.Pipeline(ExperimentConfig(
        distance=13, router_layers=1, syndrome_source="sampled", error_rate=1e-3))
    report, entries = pipeline.run_shot(0), [0] * pipeline.leaf_map.n_leaves
    for sector, ids in report.corrections.items():
        qubits = pipeline.graphs[sector].qubit[sorted(ids)].tolist()
        for q in set(qubits) - {-1}:
            entries[pipeline.leaf_map.leaf_of(q)] += qubits.count(q) % 2
    check("pipeline: a d=13/L1 shot sends each leaf one entry per odd-parity corrected data "
          "qubit it owns", any(entries) and tuple(entries) == report.leaf_entries)

    print("selftest:", "all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return EXIT_OK if failures == 0 else 1


def _show_defaults() -> int:
    print(f"qecfabric {TOOL_VERSION} defaults (reference prototype measurements)")
    rows = default_provenance()
    width = max(len(name) for name, _, _ in rows)
    for name, value, note in rows:
        print(f"  {name:<{width}}  {value:<26} {note}")
    print("\nresolved default config:")
    print(json.dumps(ExperimentConfig().to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qecfabric",
        description="Distributed real-time QEC control-fabric simulator and analyzer",
    )
    parser.add_argument("--show-defaults", action="store_true",
                        help="print every default with its provenance and exit")
    sub = parser.add_subparsers(dest="command")

    def command(name, func, summary, overrides):
        # no abbreviations: `ler --distance` must not pass for `--distances`
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--out", default="reports", help="output directory")
        for field in overrides:
            p.add_argument("--" + field.replace("_", "-"), dest=field, **_OVERRIDE_FLAGS[field])
        p.set_defaults(func=func)
        return p

    command("latency", cmd_latency, "run a timed decoding-feedback campaign", _OVERRIDE_FLAGS)
    p = command("ler", cmd_ler, "Monte-Carlo logical error rate sweep",
                ("seed", "rounds", "error_rate", "shots", "jobs"))
    p.add_argument("--distances", default="3,5", help="e.g. '3,5,7' or '3..9'")
    for name, summary in (("capacity", "qubit capacity table per distance"),
                          ("extrapolate", "predicted latency scaling table")):
        p = command(name, cmd_table, summary, ("profile",))
        p.add_argument("--distances", default="3..21")
    command("throughput", cmd_throughput, "network/decoder throughput ledger",
            ("distance", "profile"))

    p = sub.add_parser("selftest", help="quick internal consistency checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.show_defaults:
        return _show_defaults()
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
