"""Benchmark of the qecfabric simulator: one workload per process.

    python3 bench/run.py --workload latency_d3 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: cold set-up time in fresh interpreters, host shots/s of the public
campaign entry point over repeated campaigns (both calibrated to a
reference speed, see ``calibration.py``), and peak memory.  With
``--trace 1`` it wraps the program's public functions (see ``tracer.py``)
and reports per-layer self times and counts instead.  Either way every
campaign's output is checked, against the pinned references in
``references.json`` when the seed has them and against model invariants
always; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct.  See README.md for the metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, within any nproc, so the
# batched matmul of ler_campaign does not compete with the interpreter for
# a small machine's few CPUs and its wall time repeats.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from calibration import REFERENCE_S, kernel_s  # noqa: E402
from tracer import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import PINNED_REPS, WORKLOADS, rep_seed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 9  # measured cold set-ups per run, after one discarded warm-up
PROBE_TIMEOUT_S = 60

#: Per-layer metric -> (end-to-end metric it should move, workloads).
LAYER_TARGETS = {
    "code_model.rng_stream_us": ("shots_per_s", "latency_d3"),
    "code_model.rng_streams_per_shot": ("shots_per_s", "latency_d3"),
    "code_model.sample_us": ("shots_per_s", "latency_d13_l1"),
    "code_model.syndrome_us": ("shots_per_s", "ler_d5_p1e-3, latency_d3"),
    "code_model.graph_build_ms": ("setup_s", "all"),
    "uf_decoder.post_growth_us": ("shots_per_s", "latency_d13_l1, ler_d5_p1e-3"),
    "uf_decoder.grow_us": ("shots_per_s", "all"),
    "uf_decoder.is_valid_us": ("shots_per_s", "latency_d13_l1"),
    "uf_decoder.is_valid_calls_per_shot": ("shots_per_s", "latency_d13_l1"),
    "uf_decoder.logical_check_us": ("shots_per_s", "all"),
    "uf_decoder.decodes_per_shot": ("input property", "all"),
    "uf_decoder.decodes_per_s": ("shots_per_s", "all"),
    "uf_decoder.defects_per_decode": ("input property", "all"),
    "uf_decoder.growth_iterations_per_decode": ("input property", "all"),
    "uf_decoder.fusions_per_decode": ("input property", "all"),
    "uf_decoder.clusters_per_decode": ("input property", "all"),
    "uf_decoder.repeat_syndrome_frac": ("input property: memo gain bound", "all"),
    "fabric_sim.events_per_shot": ("input property", "latency_d3, latency_d13_l1"),
    "fabric_sim.engine_us": ("shots_per_s", "latency_d3, latency_d13_l1; none on ler_d5_p1e-3"),
    "fabric_sim.sync_ms": ("setup_s", "latency_d3, latency_d13_l1"),
    "link_layer.us": ("shots_per_s", "latency_d3, latency_d13_l1"),
    "link_layer.calls_per_shot": ("shots_per_s", "latency_d3, latency_d13_l1"),
    "qec_pipeline.handlers_us": ("shots_per_s", "latency_d3, latency_d13_l1"),
    "qec_pipeline.shot_driver_us": ("shots_per_s", "latency_d3, latency_d13_l1"),
    "qec_pipeline.ler_batch_us": ("shots_per_s", "ler_d5_p1e-3"),
    "qec_pipeline.build_us": ("shots_per_s", "all"),
    "qec_pipeline.worst_case_search_ms": ("setup_s", "latency_d3"),
    "trace.wall_us": ("traced shots_per_s", "all"),
    "trace.other_us": ("none: time outside every wrapped function", "all"),
    "trace.overhead_frac": ("none: cost of tracing", "all"),
}

UNITS = {"_us": "us", ".us": "us", "_ms": "ms", "_per_shot": "count/shot", "_per_decode": "count/decode",
         "_per_s": "1/s", "_frac": "frac"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import qecfabric from this checkout's src/, and from nowhere else."""
    if not (SRC / "qecfabric" / "__init__.py").is_file():
        fail(f"no qecfabric package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qecfabric
    from qecfabric import qec_pipeline

    if Path(qecfabric.__file__).resolve().parent != (SRC / "qecfabric").resolve():
        fail(f"imported qecfabric from {qecfabric.__file__}, not {SRC}")
    return qecfabric, qec_pipeline


# ---- run manifest ----------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    info = {"threads_set": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        info["library"] = "unknown"
    info["threads_reported"] = openblas_threads()
    return info


def openblas_threads():
    """Thread count OpenBLAS reports, if a loaded OpenBLAS exports its getter."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(args, workload, loadavg) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": loadavg,
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "shots_per_rep": workload.shots_per_rep,
    }


# ---- measurement -----------------------------------------------------------

def setup_probe(workload, seed: int):
    """Child-process mode: time a cold import of qecfabric plus the workload's set-up.

    numpy is already loaded by then: its import is not the program's set-up.
    Prints the time and the mean calibration-kernel time around it.
    """
    kernel_s()  # discarded: the interpreter specializes the kernel's bytecode
    before = kernel_s()
    t0 = time.perf_counter()
    _, qp = import_program()
    workload.setup(qp, seed)
    elapsed = time.perf_counter() - t0
    print(json.dumps([elapsed, (before + kernel_s()) / 2]))


def cold_setup_s(workload, seed: int):
    """(raw, calibrated) set-up time of one fresh interpreter (see ``setup_probe``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    elapsed, kernel = json.loads(proc.stdout.strip().splitlines()[-1])
    return elapsed, elapsed * REFERENCE_S / kernel


class Checker:
    """Checks each rep's output and counts the shots that failed."""

    def __init__(self, qp, workload, seed, references):
        self.qp = qp
        self.workload = workload
        self.pinned = references.get(workload.name, {}).get(str(seed), [])
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.pinned_checked = 0
        self.first_outputs = {}

    def check(self, rep, output, error=None):
        w = self.workload
        self.attempted += w.shots_per_rep
        if error is not None:
            self.failed += w.shots_per_rep
            print(f"rep {rep}: raised {error!r}", file=sys.stderr)
            return
        campaign_seed = rep_seed(self.seed, rep)
        failed, problems = w.failed_shots(self.qp, output, campaign_seed)
        if rep < len(self.pinned):
            self.pinned_checked += 1
            got = w.record(output, campaign_seed)
            if got != self.pinned[rep]:
                failed = w.shots_per_rep
                problems.append(f"output differs from the pinned reference: {got} != {self.pinned[rep]}")
        if problems:
            print(f"rep {rep}: " + "; ".join(problems), file=sys.stderr)
        self.failed += failed
        if rep < PINNED_REPS and rep not in self.first_outputs:
            self.first_outputs[rep] = output


def run_rep(qp, workload, seed, rep, checker):
    """One timed campaign; returns its wall time in ns (None if it raised)."""
    t0 = time.perf_counter_ns()
    try:
        output = workload.run(qp, rep_seed(seed, rep))
    except Exception as exc:  # a failing campaign is a counted failure, not a crash
        checker.check(rep, None, error=exc)
        return None
    wall = time.perf_counter_ns() - t0
    checker.check(rep, output)
    return wall


def timed_reps(qp, workload, seed, seconds, checker):
    """Rep 0 warms caches (checked, not timed); reps 1.. are timed for `seconds`.

    Returns (raw, calibrated) shots/s of each timed rep, and (raw,
    calibrated) times of SETUP_PROBES cold set-ups spread evenly over the
    same window.  A rep's calibrated rate is its rate scaled by the mean
    calibration-kernel time just before and just after it.  At least
    PINNED_REPS reps run.
    """
    cold_setup_s(workload, seed)  # discarded: compiles bytecode, fills the file cache
    run_rep(qp, workload, seed, 0, checker)
    rates, setups = [], []
    rep = 1
    start = time.perf_counter()
    before = kernel_s()
    while rep < PINNED_REPS or time.perf_counter() - start < seconds:
        wall = run_rep(qp, workload, seed, rep, checker)
        after = kernel_s()
        if wall is not None:
            rate = workload.shots_per_rep / (wall / 1e9)
            rates.append((rate, rate * (before + after) / 2 / REFERENCE_S))
        before = after
        rep += 1
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROBES * min(1.0, elapsed / seconds):
            setups.append(cold_setup_s(workload, seed))
            before = kernel_s()
    while len(setups) < SETUP_PROBES:
        setups.append(cold_setup_s(workload, seed))
    return rates, setups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def simulated_metrics(workload, checker):
    outputs = [checker.first_outputs[r] for r in range(PINNED_REPS) if r in checker.first_outputs]
    if len(outputs) < PINNED_REPS:
        return {}
    return workload.simulated(outputs)


def print_metric(name, value, unit, note=""):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<40} {text:>14} {unit:<12} {note}".rstrip())


def run_untraced(args, qp, workload, checker, result):
    rates, setups = timed_reps(qp, workload, args.seed, args.seconds, checker)
    if not rates:
        fail("no rep completed", 1)
    raw_rates, cal_rates = zip(*rates)
    raw_setups, cal_setups = zip(*setups)
    cal_q1, cal_med, _ = quartiles(list(cal_rates))
    shots_per_s = cal_q1
    setup_s = statistics.median(cal_setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "shots_per_s": {"value": shots_per_s, "unit": "shots/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    sim = simulated_metrics(workload, checker)
    failed_frac = checker.failed / checker.attempted
    raw_q1, raw_med, raw_q3 = quartiles(list(raw_rates))

    print(f"end-to-end metrics ({workload.name}, seed {args.seed}; host time at the "
          f"calibration kernel's reference speed, unless marked raw or simulated):")
    print_metric("shots_per_s", shots_per_s, "shots/s",
                 f"lower quartile of {len(rates)} timed reps of {workload.shots_per_rep} shots; "
                 f"median {cal_med:.6g}")
    print_metric("setup_s", setup_s, "s", f"median of {len(setups)} cold set-ups")
    print_metric("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process")
    print_metric("failed_frac", failed_frac, "frac",
                 f"{checker.failed} of {checker.attempted} shots; "
                 f"{checker.pinned_checked} reps compared with pinned references")
    for name, unit in (("sim_latency_p50_ns", "ns"), ("sim_latency_p99_ns", "ns"),
                       ("deadline_miss_frac", "frac"), ("logical_error_rate", "frac")):
        if name in sim:
            print_metric(name, sim[name], unit, f"simulated, deterministic: reps 0-{PINNED_REPS - 1}")
        else:
            print_metric(name, "n/a", unit, "no timing model on this path")
    print_metric("raw shots_per_s", raw_med, "shots/s",
                 f"median wall-clock rate; quartiles {raw_q1:.6g}, {raw_q3:.6g}")
    print_metric("raw setup_s", statistics.median(raw_setups), "s",
                 "median wall-clock set-up: " + ", ".join(f"{t:.4f}" for t in raw_setups))
    label, base = workload.baseline
    print(f"baseline cross-check (informational): raw shots_per_s / ROADMAP '{label}' {base:g} "
          f"= {raw_med / base:.3f}")

    result["metrics"] = metrics
    result["detail"] = {"rates": rates, "setups": setups, "simulated": sim,
                        "failed_frac": failed_frac}


def run_traced(args, qp, package, workload, checker, result):
    """Per-layer metrics from traced reps, each run right after the same rep untraced.

    Untraced and traced runs of each rep alternate until ``seconds`` pass,
    so both sample the same spells of machine load and their ratio gives the
    tracing overhead.  Only the spans of the first ``workload.trace_reps``
    traced reps are kept and analysed, so every count depends on the seed
    alone; later traced reps add to the overhead estimate only.
    """
    tracer = Tracer(package)
    tracer.install()
    if tracer.missing:
        print(f"bench: not traced, missing from the program: {', '.join(tracer.missing)}",
              file=sys.stderr)
    workload.setup(qp, args.seed)
    setup_end = len(tracer.spans)
    tracer.uninstall()

    run_rep(qp, workload, args.seed, 0, checker)
    plain_ns = traced_ns = kept_ns = 0
    rep = 0
    start = time.perf_counter()
    while rep < workload.trace_reps or time.perf_counter() - start < args.seconds:
        plain = run_rep(qp, workload, args.seed, rep, checker)
        mark = len(tracer.spans)
        tracer.shot = -1
        tracer.install()
        traced = run_rep(qp, workload, args.seed, rep, checker)
        tracer.uninstall()
        if traced is None and rep < workload.trace_reps:
            fail(f"traced rep {rep} raised; no per-layer metrics", 1)
        if rep < workload.trace_reps:
            kept_ns += traced
            kept_end = len(tracer.spans)
        else:
            tracer.truncate(mark)
        if plain is not None and traced is not None:
            plain_ns += plain
            traced_ns += traced
        rep += 1

    shots = workload.trace_reps * workload.shots_per_rep
    layer = tracer.setup_metrics(0, setup_end)
    layer.update(tracer.campaign_metrics(setup_end, kept_end, shots, kept_ns))
    layer["trace.overhead_frac"] = 1.0 - plain_ns / traced_ns

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    tracer.write_chrome_trace(trace_path, {"setup": (0, setup_end),
                                           "campaigns": (setup_end, kept_end)})

    print(f"per-layer metrics ({workload.name}, seed {args.seed}; {kept_end} spans from set-up and "
          f"{workload.trace_reps} traced reps of {workload.shots_per_rep} shots; "
          f"trace in {trace_path.relative_to(ROOT)}):")
    for name in sorted(layer):
        target, where = LAYER_TARGETS[name]
        print_metric(name, layer[name], unit_of(name), f"-> {target} on {where}")
    total = sum(layer[k] for k in SELF_TIME_METRICS) + layer["trace.other_us"]
    print(f"self times + trace.other_us = {total:.6g} us/shot; traced wall = {layer['trace.wall_us']:.6g} us/shot")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak memory of this traced run: {rss_mb:.1f} MB")
    print(f"tracing overhead over {rep} pairs of traced and untraced reps: "
          f"{traced_ns / 1e9:.3f} s traced vs {plain_ns / 1e9:.3f} s untraced")

    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}


def run_all(args):
    """Run every workload in a process of its own, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--references", str(args.references)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=BENCH_DIR / "references.json",
                        help="pinned outputs to compare with (default: %(default)s)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0
    if args.seconds <= 0:
        fail("--seconds must be positive")
    loadavg = os.getloadavg()
    try:
        references = json.loads(args.references.read_text())["workloads"]
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot read references {args.references}: {exc}")
    package, qp = import_program()

    info = manifest(args, workload, loadavg)
    print("manifest " + json.dumps(info, sort_keys=True))
    checker = Checker(qp, workload, args.seed, references)
    result = {}
    if args.trace:
        run_traced(args, qp, package, workload, checker, result)
    else:
        run_untraced(args, qp, workload, checker, result)

    info["attempted"] = checker.attempted
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": info, **result}, indent=1, sort_keys=True) + "\n")
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
