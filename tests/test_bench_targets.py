"""The benchmark reads qecfabric names by import path; each must resolve.

A renamed tracer target would silently move its time into
``trace.other_us``, so every name in ``bench/tracer.py``'s ``TARGETS`` must
resolve.  ``bench/workloads.stage_bounds`` reads the stage table through
``qec_pipeline``, so a move that breaks it fails here, not in the benchmark.
"""

from pathlib import Path

import qecfabric
from qecfabric import qec_pipeline as qp
from qecfabric.config import ExperimentConfig

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_tracer_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    tracer = Tracer(qecfabric)
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_stage_bounds_read_the_stage_table(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from workloads import stage_bounds

    bounds = stage_bounds(qp, ExperimentConfig())
    assert set(bounds) == set(qp.STAGE_NAMES + qp.ROUTER_STAGE_NAMES)
    assert bounds["decode"] == (56_000, 56_000)
    assert bounds["leaf_agg"] == (26_000, 32_000)
    zero = stage_bounds(qp, ExperimentConfig(zero_jitter=True, router_layers=2))
    assert zero["leaf_agg"] == (29_000, 29_000)
    assert zero["router_net"] == (624_000, 624_000)
