"""The benchmark tracer times qecfabric names it finds by import path.

A renamed target would silently move its time into ``trace.other_us``, so
every name in ``bench/tracer.py``'s ``TARGETS`` must resolve.
"""

from pathlib import Path

import qecfabric

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
