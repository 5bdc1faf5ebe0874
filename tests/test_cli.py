import ast
import hashlib
import inspect
import json
from collections import Counter
from dataclasses import replace

import pytest

from qecfabric import capacity_model as cap
from qecfabric import fabric_sim as fs
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
    bad.write_text(json.dumps({"stage_latency": {"uplink": {"mean_ps": -1}}}))
    rc = main(["latency", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 2
    for command, distances in (("ler", "4"), ("capacity", "4"), ("ler", "3..x"), ("ler", "1"),
                               ("ler", "1..5"), ("capacity", "1"), ("extrapolate", "1,3")):
        rc = main([command, "--distances", distances, "--out", str(tmp_path / "r")])
        assert rc == 2, (command, distances)
    for command in ("latency", "throughput"):  # a d=1 patch has no stabilizer
        assert main([command, "--distance", "1", "--out", str(tmp_path / "r")]) == 2, command
    for command in ("latency", "ler"):
        assert main([command, "--seed", "-1", "--shots", "2", "--out", str(tmp_path / "r")]) == 2


def test_latency_bounds_include_the_serialization_of_long_messages(tmp_path):
    # a 150-qubit leaf's messages spill past one frame, and the pipeline adds
    # that serialization to the uplink and downlink stages
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(
        {"distance": 9, "qubits_per_leaf": 150, "profile": "vcu129", "shots": 200}
    ))
    out = tmp_path / "r"
    assert main(["latency", "--config", str(cfg), "--out", str(out)]) == 0
    stages = json.loads((out / "latency_summary.json").read_text())["stages"]
    uplink = stages["uplink"]
    assert uplink["max_ps"] > uplink["configured_mean_ps"] + uplink["configured_jitter_ps"]
    assert {name: s["within_bounds"] for name, s in stages.items()} == dict.fromkeys(stages, True)


def test_latency_histogram_has_a_row_per_distinct_latency_not_per_nanosecond(tmp_path):
    # a 100 us uplink jitter spreads 5 shots over about 200 000 ns
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "shots": 5, "cycle_time_ps": 10**12,
        "stage_latency": {"uplink": {"mean_ps": 10**8, "jitter_ps": 10**8}},
    }))
    out = tmp_path / "r"
    assert main(["latency", "--config", str(cfg), "--out", str(out)]) == 0
    header, *rows = (out / "latency_hist.csv").read_text().splitlines()
    assert header == "end_to_end_ns,count" and len(rows) <= 5
    assert sum(int(row.split(",")[1]) for row in rows) == 5


@pytest.mark.parametrize(
    "qubits_per_leaf, leaves, layers, max_qubits", [(7, 126, 2, 23548), (14, 63, 1, 1624)]
)
def test_capacity_uses_config_leaf_size(tmp_path, qubits_per_leaf, leaves, layers, max_qubits):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"qubits_per_leaf": qubits_per_leaf}))
    out = tmp_path / "r"
    assert main(["capacity", "--distances", "21", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = json.loads((out / "capacity_summary.json").read_text())["rows"]
    assert (row["leaves_needed"], row["router_layers"], row["max_qubits"]) == (
        leaves, layers, max_qubits
    )
    # the fabric that `latency` builds agrees on the router depth
    prof = cap.get_profile("zcu216")
    topo = fs.TopologyConfig(
        n_leaves=leaves, root_ports=prof.root_ports, router_children=prof.router_children,
        router_layers=layers,
    )
    fs.Fabric(topo)
    with pytest.raises(fs.CapacityError):
        fs.Fabric(replace(topo, router_layers=layers - 1))


def test_capacity_uses_config_cycle_time(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"cycle_time_ps": 500_000}))
    out = tmp_path / "r"
    assert main(["capacity", "--distances", "21", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = json.loads((out / "capacity_summary.json").read_text())["rows"]
    # 440 syndrome bits per 500 ns cycle, as `throughput` reports it
    assert row["throughput_required_bps"] == 880e6
    assert row["predicted_latency_ps"] == 997_000 and row["feasible"] is False
    assert main(["throughput", "--config", str(cfg), "--distance", "21",
                 "--out", str(tmp_path / "t")]) == 0
    ledger = json.loads((tmp_path / "t" / "throughput_summary.json").read_text())
    assert ledger["required_bps"] == row["throughput_required_bps"]


def test_latency_router_windows_scale_with_layers(tmp_path):
    out = tmp_path / "r"
    assert main(["latency", "--router-layers", "2", "--zero-jitter", "--shots", "2",
                 "--out", str(out)]) == 0
    stages = json.loads((out / "latency_summary.json").read_text())["stages"]
    assert stages["router_proc"]["configured_mean_ps"] == 2 * 45_000
    assert stages["router_net"]["configured_mean_ps"] == 2 * 312_000
    assert {name: s["within_bounds"] for name, s in stages.items()} == dict.fromkeys(stages, True)


def test_capacity_and_throughput_read_the_uplink_rate(tmp_path):
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({"links": {"uplink": {"line_rate_bps": 100_000_000}}}))
    out = tmp_path / "c"
    assert main(["capacity", "--distances", "21", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = json.loads((out / "capacity_summary.json").read_text())["rows"]
    # 4 root ports x 100 Mb/s x 64/66 cannot carry the 440 Mb/s d=21 stream
    assert round(row["throughput_available_bps"] / 1e6, 2) == 387.88
    assert row["feasible"] is False
    assert main(["throughput", "--config", str(cfg), "--distance", "21",
                 "--out", str(tmp_path / "t")]) == 0
    ledger = json.loads((tmp_path / "t" / "throughput_summary.json").read_text())
    assert ledger["available_bps"] == row["throughput_available_bps"]
    assert round(ledger["margin_ratio"], 2) == 0.88


def test_throughput_distance_comes_from_the_flag_or_a_file_that_sets_it(tmp_path):
    def ledger_distance(config, *flags):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "t"
        assert main(["throughput", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        summary = json.loads((out / "throughput_summary.json").read_text())
        rows = (out / "throughput.csv").read_text()
        assert f"required_d{summary['distance']}_mbps" in rows
        return summary["distance"]

    # a file key unrelated to distance leaves the headline d=21 ledger alone
    assert ledger_distance({"links": {"uplink": {"lanes": 2}}}) == 21
    assert ledger_distance({"distance": 5}) == 5
    assert ledger_distance({"distance": 5}, "--distance", "7") == 7


def test_rounds_other_than_3_need_a_sampled_source_at_d3(tmp_path):
    # the d=3 worst-case syndrome is pinned with 3 rounds; `ler` always samples
    argv = ["latency", "--rounds", "5", "--shots", "2"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    assert main(argv + ["--syndrome-source", "sampled", "--out", str(tmp_path / "b")]) == 0
    assert main(["ler", "--rounds", "5", "--shots", "100", "--distances", "3",
                 "--out", str(tmp_path / "c")]) == 0


@pytest.mark.parametrize("argv", [
    "ler --distance 7", "ler --router-layers 3", "ler --zero-jitter", "ler --profile vcu129",
    "capacity --seed 1", "capacity --distance 5", "capacity --shots 5",
    "extrapolate --rounds 5", "extrapolate --jobs 2", "extrapolate --router-layers 1",
    "throughput --seed 5", "throughput --rounds 9", "throughput --error-rate 0.3",
    "throughput --jobs 4", "throughput --zero-jitter", "throughput --distances 21",
    "latency --shot 5",
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert not (tmp_path / "r").exists()


def test_capacity_error_exit_code(tmp_path):
    rc = main(["latency", "--distance", "17", "--shots", "1",
               "--syndrome-source", "sampled", "--out", str(tmp_path / "r")])
    assert rc == 3


def test_a_refused_campaign_leaves_no_report_directory(tmp_path):
    out = tmp_path / "r"
    assert main(["latency", "--distance", "13", "--out", str(out)]) == 3
    assert not out.exists()


def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"distance": 3, "note": "caf\u00e9"}'.encode("latin-1"))
    for path, message in ((tmp_path, "cannot read config file"), (latin, "config file is not UTF-8")):
        rc = main(["latency", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "r").exists()


def test_a_campaign_too_long_for_the_shot_table_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["latency", "--shots", "7000000000000", "--out", str(out)]) == 2
    assert "beyond the int64 range of the shot table" in capsys.readouterr().err
    assert not out.exists()


def test_a_sync_link_wider_than_its_latency_is_a_config_error(tmp_path):
    wide = {"one_way_latency_ps": 1000, "jitter_half_width_ps": 50000}
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"links": {"sync_uplink": wide, "sync_downlink": wide},
                               "shots": 10}))
    assert main(["latency", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_one_function_opens_report_files():
    from qecfabric import cli

    def opens_files(function):
        called = [node.func for node in ast.walk(function) if isinstance(node, ast.Call)]
        return any(getattr(f, "id", None) == "open"
                   or getattr(f, "attr", None) in ("open", "write_text", "write_bytes")
                   for f in called)

    tree = ast.parse(inspect.getsource(cli))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in functions if opens_files(f)] == ["_write_reports"]


def test_latency_builds_one_layout_and_one_link_price_table(tmp_path, monkeypatch):
    # the stage windows come with the campaign result, so the command builds
    # no second layout or link-price table to work them out again
    from qecfabric import cli, qec_pipeline

    calls = Counter()

    def counted(name):
        real = getattr(qec_pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    build_layout = counted("build_layout")
    monkeypatch.setattr(qec_pipeline, "build_layout", build_layout)
    monkeypatch.setattr(cli, "build_layout", build_layout)
    monkeypatch.setattr(qec_pipeline, "link_excess_ps", counted("link_excess_ps"))
    assert main(["latency", "--distance", "13", "--router-layers", "1", "--shots", "20",
                 "--jobs", "1", "--out", str(tmp_path / "r")]) == 0
    assert calls == {"build_layout": 1, "link_excess_ps": 1}


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


def test_show_defaults_output_is_pinned(capsys):
    assert main(["--show-defaults"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "28e73758915d900e62a10cb1f721972439af26056802a5f2dc654a78fb21ad16"
    )


def test_show_defaults_formats_each_profile_from_its_definition(capsys, monkeypatch):
    profile = replace(cap.PROFILES["vcu129"], root_ports=20)
    monkeypatch.setitem(cap.PROFILES, "vcu129", profile)
    assert main(["--show-defaults"]) == 0
    out = capsys.readouterr().out
    assert "20 root ports x 14 qubits" in out and "(280 qubits direct)" in out
    assert "34 root ports" not in out and "476" not in out


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def _report_digests(out):
    """sha256 of every report file, with ``config_hash`` dropped from the JSON ones."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("config_hash")
            data = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


#: Report digests recorded at commit 4793abf, before the data-link latency keys
#: left the config schema.  ``config_hash`` is dropped: that schema change moves it.
#: The ``latency_hist.csv`` digests are the same files without their zero-count rows.
#: The first ``latency_summary.json`` is re-pinned for its ``ci95_low``, which
#: ``wilson_interval`` now gives as exactly 0.0 at no failures, not 1.7e-18.
GOLDEN_REPORTS = {
    "latency --shots 200 --seed 3": {
        "latency_hist.csv": "736605a2b442dbd2bab08f31f1d3dca4f51ddbf63e05b7c9b8bd3d794a5bfbad",
        "latency_stages.csv": "3606cb220e6f1f5f1733d200eaf1429966c41ff31b5992a58acaedede950e509",
        "latency_summary.json": "0ae0f0ccef92bcdf10e18ce398de84a95aca977ee0aef43da3ef575e9ceca0aa",
    },
    "latency --distance 13 --router-layers 1 --shots 20": {
        "latency_hist.csv": "2953901c731148dbc17492306ce6ff64735df9ff921d0f8d823dc7d4dbc67843",
        "latency_stages.csv": "7ed4c1f0e39395206fcc9b03acd2b5fede57cfaf0d3017eec9b3430a12276add",
        "latency_summary.json": "12f18115d4c273efc428db147a944338487a222eb9e0d2f5fd1b07e5ff47875e",
    },
    "ler --shots 20000 --distances 3,5": {
        "ler.csv": "7093124dcc4614d776ed3830a65bea930d08994f0278ae4209ee2d5afedae531",
        "ler_summary.json": "3df65f46a84fc1a8d914495906de473e1532435bba17b08f3e5579f905fcefee",
    },
    "capacity": {
        "capacity.csv": "ceee41144ad5c5943deb7d0b3ddc84ac289bb81dbee10393be176ff1039e51b7",
        "capacity_summary.json": "b7acdc28bf323b55aa014a7a3eb9c2e847f5162af29a52531b7c733bcd0dd372",
    },
    "extrapolate": {
        "extrapolate.csv": "8b0bd29a24d487a79a23386339f4d91af1b83116db76dc4bdc0862a3f4a1dc96",
        "extrapolate_summary.json": "b3c1e46ab39179002ee671ed2e867aa8e4cf978c59af30c0a55b273fa6712674",
    },
    "throughput": {
        "throughput.csv": "ed4b7ffd5a412d6c86b0ed36a67e6077f31d33c6be966a35bafaa3a8a7ee62a3",
        "throughput_summary.json": "ee9e7dc9d1445a430df13d85f0f8e6a54c634d343abab9ce69e6aa8777d2579e",
    },
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS), ids=lambda a: a.replace(" ", "_"))
def test_golden_reports(tmp_path, argv):
    out = tmp_path / "r"
    assert main(argv.split() + ["--out", str(out)]) == 0
    assert _report_digests(out) == GOLDEN_REPORTS[argv]
