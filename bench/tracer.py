"""Span tracing of qecfabric from outside the program.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers, in every qecfabric module that holds a
reference to them, so the names callers actually resolve are the ones
timed.  Handlers registered through ``Simulator.on`` are wrapped as they
are registered.  No source file is touched; ``uninstall`` restores every
original.

Each span records its name, start and end (``perf_counter_ns``), the index
of its parent span and the shot id of the enclosing ``Pipeline.run_shot``
(-1 outside a shot, as in ``ler_campaign``, which has no per-shot call).
Spans stay in memory; ``setup_metrics`` and ``campaign_metrics`` turn
them into per-layer times and counts, and ``write_chrome_trace`` writes
them as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import json
import time
from importlib import import_module

import numpy as np

BUILD = "qec_pipeline.build_us"
HANDLERS = "qec_pipeline.handlers_us"

#: (module, attribute or Class.method, layer metric charged with its self time).
#: A span nested inside a BUILD span is charged to BUILD as well: that is the
#: per-campaign construction a user pays before the first shot.
TARGETS = (
    ("code_model", "rng_stream", "code_model.rng_stream_us"),
    ("code_model", "sample_errors", "code_model.sample_us"),
    ("code_model", "syndrome_of", "code_model.syndrome_us"),
    ("code_model", "syndrome_from_defects", "code_model.syndrome_us"),
    ("code_model", "pattern_from_fault_ids", "code_model.syndrome_us"),
    ("code_model", "build_layout", BUILD),
    ("code_model", "build_decoding_graph", BUILD),
    ("code_model", "DecodingGraph.incidence_matrix", BUILD),
    ("uf_decoder", "decode", "uf_decoder.post_growth_us"),
    ("uf_decoder", "decode_with_stats", "uf_decoder.post_growth_us"),
    ("uf_decoder", "ClusterState.grow", "uf_decoder.grow_us"),
    ("uf_decoder", "is_valid", "uf_decoder.is_valid_us"),
    ("uf_decoder", "is_logical_failure", "uf_decoder.logical_check_us"),
    ("fabric_sim", "Simulator.run_all", "fabric_sim.engine_us"),
    ("fabric_sim", "Simulator.run_until", "fabric_sim.engine_us"),
    ("fabric_sim", "global_sync", BUILD),
    ("link_layer", "excess_serialization_delay", "link_layer.us"),
    ("qec_pipeline", "run_campaign", "qec_pipeline.shot_driver_us"),
    ("qec_pipeline", "Pipeline.run_shot", "qec_pipeline.shot_driver_us"),
    ("qec_pipeline", "_worst_case_d3", "qec_pipeline.shot_driver_us"),
    ("qec_pipeline", "Pipeline.__init__", BUILD),
    ("qec_pipeline", "ler_campaign", "qec_pipeline.ler_batch_us"),
)

#: Per-shot self-time metrics; with trace.other_us they add up to trace.wall_us.
SELF_TIME_METRICS = (
    "code_model.rng_stream_us",
    "code_model.sample_us",
    "code_model.syndrome_us",
    "uf_decoder.post_growth_us",
    "uf_decoder.grow_us",
    "uf_decoder.is_valid_us",
    "uf_decoder.logical_check_us",
    "fabric_sim.engine_us",
    "link_layer.us",
    HANDLERS,
    "qec_pipeline.shot_driver_us",
    "qec_pipeline.ler_batch_us",
    BUILD,
)

GRAPH_BUILD_SPANS = ("code_model.build_layout", "code_model.build_decoding_graph",
                     "code_model.DecodingGraph.incidence_matrix")
WORST_CASE_SPAN = "qec_pipeline._worst_case_d3"
SYNC_SPAN = "fabric_sim.global_sync"

_NAME, _START, _END, _PARENT = range(4)  # indices into a span record


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name code, start ns, end ns, parent index, shot id]
        self.names = []
        self._codes = {}
        self.group_of = {}
        self.top = -1
        self.shot = -1
        self.events = {}  # span index -> events dispatched by a run_all/run_until
        self.decodes = {}  # span index -> (syndrome key, defects, DecodeStats)
        self.missing = []
        self._restore = []

    # ---- recording -------------------------------------------------------

    def _code(self, name, group):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.group_of[name] = group
        return code

    def wrap(self, fn, name, group, on_call=None, on_return=None):
        code = self._code(name, group)
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            parent = tracer.top
            rec = [code, clock(), 0, parent, tracer.shot]
            idx = len(spans)
            spans.append(rec)
            tracer.top = idx
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                tracer.top = parent
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return wrapper

    def _set_shot(self, args, kwargs):
        self.shot = int(kwargs.get("shot", args[1] if len(args) > 1 else 0))

    def _count_events(self, idx, args, result):
        self.events[idx] = int(result)

    def _observe_decode(self, idx, args, result):
        graph, syndrome = args[0], args[1]
        bits = np.ascontiguousarray(syndrome.sector_bits(graph.sector))
        key = (graph.sector, bits.shape, bits.tobytes())
        self.decodes[idx] = (key, int(np.count_nonzero(bits)), result[1])

    def truncate(self, mark):
        """Drop every span recorded from index ``mark`` on."""
        del self.spans[mark:]
        for table in (self.events, self.decodes):
            for idx in [i for i in table if i >= mark]:
                del table[idx]

    # ---- installation ----------------------------------------------------

    def install(self):
        """Wrap every target wherever a qecfabric module references it."""
        self.missing = []
        modules = [self.package] + [
            import_module(f"{self.package.__name__}.{m}")
            for m in ("code_model", "uf_decoder", "fabric_sim", "link_layer",
                      "qec_pipeline", "capacity_model", "config", "cli")
        ]
        hooks = {
            "qec_pipeline.Pipeline.run_shot": {"on_call": self._set_shot},
            "fabric_sim.Simulator.run_all": {"on_return": self._count_events},
            "fabric_sim.Simulator.run_until": {"on_return": self._count_events},
            "uf_decoder.decode_with_stats": {"on_return": self._observe_decode},
        }
        for mod_name, attr, group in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = import_module(f"{self.package.__name__}.{mod_name}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(meth) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._patch(cls, meth, self.wrap(original, name, group, **hooks.get(name, {})))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, group, **hooks.get(name, {}))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        sim_cls = import_module(f"{self.package.__name__}.fabric_sim").Simulator
        original_on = sim_cls.__dict__["on"]
        tracer = self

        def on(sim, kind, handler):
            return original_on(sim, kind, tracer.wrap(handler, f"handler.{kind}", HANDLERS))

        self._patch(sim_cls, "on", on)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # ---- analysis --------------------------------------------------------

    def _groups_and_self(self, lo, hi):
        """Layer group and self time (ns) of spans[lo:hi]; parents precede children."""
        spans = self.spans
        groups = {}
        self_ns = {}
        for i in range(lo, hi):
            rec = spans[i]
            name = self.names[rec[_NAME]]
            parent = rec[_PARENT]
            group = self.group_of[name]
            if parent >= lo and groups[parent] == BUILD:
                group = BUILD
            groups[i] = group
            dur = rec[_END] - rec[_START]
            self_ns[i] = self_ns.get(i, 0) + dur
            if parent >= lo:
                self_ns[parent] = self_ns.get(parent, 0) - dur
        return groups, self_ns

    def setup_metrics(self, lo, hi) -> dict:
        """Inclusive times (ms) of the set-up layers in spans[lo:hi].

        Graph builds made by the d=3 worst-case search count towards
        qec_pipeline.worst_case_search_ms, not code_model.graph_build_ms.
        """
        spans = self.spans
        in_search = {}
        totals = {"code_model.graph_build_ms": 0, "fabric_sim.sync_ms": 0,
                  "qec_pipeline.worst_case_search_ms": 0}
        for i in range(lo, hi):
            rec = spans[i]
            name = self.names[rec[_NAME]]
            parent = rec[_PARENT]
            inside = parent >= lo and (in_search[parent] or
                                       self.names[spans[parent][_NAME]] == WORST_CASE_SPAN)
            in_search[i] = inside
            dur = rec[_END] - rec[_START]
            if name == WORST_CASE_SPAN and not inside:
                totals["qec_pipeline.worst_case_search_ms"] += dur
            elif name == SYNC_SPAN:
                totals["fabric_sim.sync_ms"] += dur
            elif name in GRAPH_BUILD_SPANS and not inside:
                totals["code_model.graph_build_ms"] += dur
        return {k: v / 1e6 for k, v in totals.items()}

    def campaign_metrics(self, lo, hi, shots: int, wall_ns: int) -> dict:
        """Per-shot self times, counts and input properties of spans[lo:hi]."""
        groups, self_ns = self._groups_and_self(lo, hi)
        per_group = dict.fromkeys(SELF_TIME_METRICS, 0)
        counts = {}
        for i, group in groups.items():
            per_group[group] += self_ns[i]
            if group != BUILD:
                name = self.names[self.spans[i][_NAME]]
                counts[name] = counts.get(name, 0) + 1
        out = {k: v / 1e3 / shots for k, v in per_group.items()}
        out["trace.wall_us"] = wall_ns / 1e3 / shots
        out["trace.other_us"] = out["trace.wall_us"] - sum(per_group.values()) / 1e3 / shots

        events = sum(n for i, n in self.events.items() if lo <= i < hi and groups[i] != BUILD)
        decodes = [(i, d) for i, d in self.decodes.items() if lo <= i < hi and groups[i] != BUILD]
        decodes.sort()
        seen = set()
        repeats = defects = growth = fusions = clusters = decode_ns = 0
        for i, (key, n_defects, stats) in decodes:
            repeats += key in seen
            seen.add(key)
            defects += n_defects
            growth += stats.growth_iterations
            fusions += stats.fusions
            clusters += stats.clusters
            rec = self.spans[i]
            decode_ns += rec[_END] - rec[_START]
        n_dec = len(decodes)
        per_decode = (lambda x: x / n_dec) if n_dec else (lambda x: 0.0)
        out.update({
            "code_model.rng_streams_per_shot": counts.get("code_model.rng_stream", 0) / shots,
            "uf_decoder.is_valid_calls_per_shot": counts.get("uf_decoder.is_valid", 0) / shots,
            "uf_decoder.decodes_per_shot": n_dec / shots,
            "uf_decoder.decodes_per_s": n_dec / (decode_ns / 1e9) if decode_ns else 0.0,
            "uf_decoder.defects_per_decode": per_decode(defects),
            "uf_decoder.growth_iterations_per_decode": per_decode(growth),
            "uf_decoder.fusions_per_decode": per_decode(fusions),
            "uf_decoder.clusters_per_decode": per_decode(clusters),
            "uf_decoder.repeat_syndrome_frac": per_decode(repeats),
            "fabric_sim.events_per_shot": events / shots,
            "link_layer.calls_per_shot":
                counts.get("link_layer.excess_serialization_delay", 0) / shots,
        })
        return out

    def write_chrome_trace(self, path, phases):
        """Chrome trace-event JSON; ``phases`` maps a thread name to a span range.

        Events are written one at a time, so the file never sits in memory whole.
        """
        t0 = self.spans[0][_START] if self.spans else 0
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit":"ns","traceEvents":[\n')
            sep = ""
            for tid, (label, (lo, hi)) in enumerate(phases.items(), start=1):
                fh.write(sep + json.dumps({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                                           "args": {"name": label}}))
                sep = ",\n"
                for i in range(lo, hi):
                    name, start, end, parent, shot = self.spans[i]
                    fh.write(sep + json.dumps({
                        "name": self.names[name], "ph": "X", "pid": 1, "tid": tid,
                        "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                        "args": {"id": i, "parent": parent, "shot": shot},
                    }, separators=(",", ":")))
            fh.write("\n]}\n")
