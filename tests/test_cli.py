import json

import pytest

from qecfabric.cli import main


def read(path):
    return path.read_bytes()


def test_latency_writes_reports(tmp_path):
    out = tmp_path / "r"
    rc = main(["latency", "--shots", "50", "--seed", "7", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "latency_summary.json").read_text())
    assert summary["shots"] == 50
    assert summary["seed"] == 7
    assert len(summary["config_hash"]) == 64
    assert summary["tool_version"]
    assert summary["all_corrections_valid"] is True
    assert 440_000 <= summary["end_to_end"]["mean_ps"] <= 460_000
    assert (out / "latency_stages.csv").exists()
    assert (out / "latency_hist.csv").exists()


def test_latency_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["latency", "--shots", "20", "--seed", "7", "--jobs", "1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    for name in ("latency_summary.json", "latency_stages.csv", "latency_hist.csv"):
        assert read(a / name) == read(b / name)


def test_zero_jitter_stages_are_degenerate(tmp_path):
    out = tmp_path / "r"
    rc = main(["latency", "--shots", "10", "--zero-jitter", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "latency_summary.json").read_text())
    for name, stats in summary["stages"].items():
        assert stats["min_ps"] == stats["max_ps"], name
    assert summary["end_to_end"]["min_ps"] == 451_000
    assert summary["end_to_end"]["max_ps"] == 451_000


def test_ler_zero_rate(tmp_path):
    out = tmp_path / "r"
    rc = main(["ler", "--shots", "500", "--error-rate", "0",
               "--distances", "3", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "ler_summary.json").read_text())
    assert summary["distances"]["3"]["failures"] == 0


def test_ler_forwards_jobs(tmp_path, monkeypatch):
    from qecfabric import qec_pipeline

    seen = []
    real = qec_pipeline.ler_campaign

    def recording(*args, **kwargs):
        seen.append(kwargs.get("jobs"))
        return real(*args, **kwargs)

    monkeypatch.setattr(qec_pipeline, "ler_campaign", recording)
    rc = main(["ler", "--shots", "100", "--error-rate", "0", "--distances", "3",
               "--jobs", "2", "--out", str(tmp_path / "r")])
    assert rc == 0
    assert seen == [2]


def test_capacity_table_router_step(tmp_path):
    out = tmp_path / "r"
    rc = main(["capacity", "--profile", "vcu129", "--distances", "3..21",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "capacity_summary.json").read_text())["rows"]
    by_d = {r["distance"]: r for r in rows}
    assert by_d[15]["router_layers"] == 0
    assert by_d[17]["router_layers"] == 1
    assert by_d[17]["required_qubits"] == 577


def test_extrapolate_reference_numbers(tmp_path):
    out = tmp_path / "r"
    rc = main(["extrapolate", "--profile", "vcu129", "--distances", "3..21",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "extrapolate_summary.json").read_text())["rows"]
    by_d = {r["distance"]: r for r in rows}
    assert by_d[3]["predicted_latency_ps"] == 446_000
    step = by_d[17]["predicted_latency_ps"] - by_d[15]["predicted_latency_ps"]
    assert step == 357_000
    assert by_d[21]["predicted_latency_ps"] < 1_000_000


def test_empty_distance_range(tmp_path):
    out = tmp_path / "r"
    rc = main(["capacity", "--distances", "", "--out", str(out)])
    assert rc == 0
    assert (out / "capacity.csv").read_text().strip().count("\n") == 0  # header only


def test_throughput_ledger(tmp_path):
    out = tmp_path / "r"
    rc = main(["throughput", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "throughput_summary.json").read_text())
    assert round(summary["network_4x10G_bps"] / 1e9, 3) == 38.788
    assert round(summary["network_4x28G_bps"] / 1e9, 1) == 108.6
    assert round(summary["decoder_peak_bps"] / 1e9, 2) == 38.26
    assert round(summary["margin_ratio"]) == 87


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"distance": 4}))
    rc = main(["latency", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 2
    rc = main(["latency", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "r")])
    assert rc == 2


def test_capacity_error_exit_code(tmp_path):
    rc = main(["latency", "--distance", "17", "--shots", "1",
               "--syndrome-source", "sampled", "--out", str(tmp_path / "r")])
    assert rc == 3


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"shots": 5, "seed": 4}))
    out = tmp_path / "r"
    rc = main(["latency", "--config", str(cfg), "--shots", "8", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "latency_summary.json").read_text())
    assert summary["shots"] == 8  # flag overrides file
    assert summary["seed"] == 4  # file overrides default


def test_show_defaults(capsys):
    assert main(["--show-defaults"]) == 0
    out = capsys.readouterr().out
    assert "29000" in out and "157000" in out and "decode_table" in out


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()
