import json
from dataclasses import replace
from fractions import Fraction

import pytest

from qecfabric import capacity_model as cap
from qecfabric import fabric_sim as fs
from qecfabric import qec_pipeline as qp
from qecfabric.cli import main
from qecfabric.code_model import build_layout
from qecfabric.config import ExperimentConfig
from qecfabric.link_layer import LinkModel


def test_required_qubits_identities():
    assert cap.required_qubits(3) == 17
    assert cap.required_qubits(17) == 577
    assert cap.required_qubits(21) == 881
    with pytest.raises(ValueError):
        cap.required_qubits(4)


def test_required_qubits_matches_layout():
    for d in range(3, 23, 2):
        assert cap.required_qubits(d) == build_layout(d).total_qubits


def test_max_qubits_identities():
    vcu = cap.get_profile("vcu129")
    zcu = cap.get_profile("zcu216")
    assert cap.max_qubits(vcu, 0) == 476
    assert cap.max_qubits(zcu, 0) == 56
    assert cap.max_qubits(vcu, 1) == 34 * 29 * 14  # 13804


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        cap.get_profile("vu9p")


def test_router_layers_needed():
    vcu = cap.get_profile("vcu129")
    assert cap.router_layers_needed(vcu, 15) == 0  # 449 <= 476
    assert cap.router_layers_needed(vcu, 17) == 1  # 577 > 476
    assert cap.router_layers_needed(vcu, 21) == 1


def test_decode_latency_anchors_and_interpolation():
    table = cap.DEFAULT_DECODE_TABLE
    assert cap.decode_latency_ps(table, 3) == (56_000, True)
    assert cap.decode_latency_ps(table, 13) == (250_000, True)
    # linear between the d=7 and d=13 anchors
    assert cap.decode_latency_ps(table, 9) == (143_333, False)
    assert cap.decode_latency_ps(table, 11) == (196_667, False)
    # clamped beyond the last anchor
    assert cap.decode_latency_ps(table, 15) == (250_000, False)
    assert cap.decode_latency_ps(table, 21) == (250_000, False)


def test_estimate_latency_reference_points():
    vcu = cap.get_profile("vcu129")
    assert cap.capacity_estimate(3, vcu).predicted_latency_ps == 446_000  # base 390 + decode 56
    step = cap.capacity_estimate(17, vcu).predicted_latency_ps - cap.capacity_estimate(15, vcu).predicted_latency_ps
    assert step == 357_000  # the router layer's 45 + 312 ns
    assert cap.capacity_estimate(21, vcu).predicted_latency_ps < 1_000_000


def test_estimate_latency_monotone_in_distance():
    vcu = cap.get_profile("vcu129")
    values = [cap.capacity_estimate(d, vcu).predicted_latency_ps for d in range(3, 23, 2)]
    assert values == sorted(values)


def test_decoder_peak_throughput():
    peak = cap.decoder_peak_throughput()
    assert peak == Fraction(440 * 10**12, 11_500)
    assert round(float(peak) / 1e9, 2) == 38.26


def test_syndrome_rate_required():
    assert cap.syndrome_rate_required(3) == Fraction(8_000_000)  # 8 Mb/s
    assert cap.syndrome_rate_required(21) == Fraction(440_000_000)


def test_throughput_margin_d21():
    link = LinkModel(10_000_000_000, lanes=4)
    margin = cap.available_throughput(link) / cap.syndrome_rate_required(21)
    assert round(float(margin)) == 87
    # the decoder, not the network, limits throughput here
    assert cap.decoder_peak_throughput() < cap.effective_throughput(link)


def test_capacity_estimate_rows():
    vcu = cap.get_profile("vcu129")
    est15 = cap.capacity_estimate(15, vcu)
    est17 = cap.capacity_estimate(17, vcu)
    est21 = cap.capacity_estimate(21, vcu)
    assert est15.router_layers == 0 and est17.router_layers == 1
    assert est17.predicted_latency_ps - est15.predicted_latency_ps == 357_000
    assert est21.feasible
    assert est21.predicted_latency_ps < 1_000_000
    assert est17.leaves_needed == 42
    assert est15.max_qubits == 476 and est17.max_qubits == 13_804


def test_extrapolation_table_shape():
    zcu = cap.get_profile("zcu216")
    rows = [cap.capacity_estimate(d, zcu) for d in range(3, 9, 2)]
    assert [r.distance for r in rows] == [3, 5, 7]
    assert rows[0].predicted_latency_ps == 446_000
    # the prototype root holds 56 qubits: d=5 (49) fits, d=7 (97) needs a layer
    assert rows[1].router_layers == 0
    assert rows[2].router_layers == 1


@pytest.mark.parametrize("profile", sorted(cap.PROFILES))
def test_fabric_capacity_matches_closed_form(profile):
    assert issubclass(fs.CapacityError, ValueError)
    assert qp.CapacityError is fs.CapacityError
    prof = cap.get_profile(profile)
    for d in range(3, 22, 2):
        for layers in range(3):
            topo = fs.TopologyConfig(
                n_leaves=-(-cap.required_qubits(d) // prof.qubits_per_leaf),
                root_ports=prof.root_ports,
                router_children=prof.router_children,
                router_layers=layers,
            )
            fits = cap.required_qubits(d) <= cap.max_qubits(prof, layers)
            try:
                fs.Fabric(topo)
                built = True
            except fs.CapacityError as exc:
                assert "Add a router layer" in str(exc)
                built = False
            assert built == fits, (d, layers)


def test_feasible_requires_latency_within_cycle():
    zcu = cap.get_profile("zcu216")
    est = cap.capacity_estimate(13, zcu)
    assert est.predicted_latency_ps == 997_000 and est.feasible
    tight = cap.capacity_estimate(13, zcu, cycle_time_ps=900_000)
    assert tight.predicted_latency_ps == 997_000
    assert not tight.feasible
    assert cap.capacity_estimate(21, cap.get_profile("vcu129")).feasible


def _zero_jitter_offsets(stages):
    """Simulated zero-jitter end-to-end minus the closed form, over every tree that builds."""
    offsets = {}
    per_layer = stages.router_proc.mean_ps + stages.router_net.mean_ps
    for profile in sorted(cap.PROFILES):
        for d in (3, 5, 7, 9, 13):
            est = cap.capacity_estimate(d, cap.get_profile(profile), stages)
            for layers in range(3):
                config = ExperimentConfig(
                    distance=d, profile=profile, router_layers=layers, zero_jitter=True,
                    stage_latency=stages,
                )
                try:
                    pipeline = qp.Pipeline(config)
                except qp.CapacityError:
                    assert layers < est.router_layers, (profile, d, layers)
                    continue
                # the closed form places the fewest layers that fit; each
                # extra layer adds one more router round trip
                predicted = est.predicted_latency_ps + (layers - est.router_layers) * per_layer
                offsets[profile, d, layers] = pipeline.run_shot(0).end_to_end_ps - predicted
    return offsets


@pytest.mark.parametrize("router_net_ps", [None, 100_000])
def test_closed_form_equals_zero_jitter_simulation(tmp_path, router_net_ps):
    stages = qp.StageLatencyConfig()
    if router_net_ps is not None:
        stages = replace(stages, router_net=qp.StageLatency(router_net_ps))
    stage_mean_sum = sum(stages.stage(n).mean_ps for n in qp.STAGE_NAMES if n != "decode")
    assert stage_mean_sum - cap.BASE_LATENCY_PS == 5_000
    offsets = _zero_jitter_offsets(stages)
    assert len(offsets) == 27
    assert set(offsets.values()) == {5_000}, offsets

    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({} if router_net_ps is None else
                              {"stage_latency": {"router_net": {"mean_ps": router_net_ps}}}))
    out = tmp_path / "r"
    assert main(["extrapolate", "--distances", "13", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = json.loads((out / "extrapolate_summary.json").read_text())["rows"]
    assert (row["router_layers"], row["predicted_latency_ps"]) == (
        (1, 997_000) if router_net_ps is None else (1, 785_000)
    )


def test_router_layers_needed_refuses_routers_that_add_no_capacity(monkeypatch):
    # with one child per router every depth holds what the root holds, so a
    # search over depths would never end; the counter turns a hang into a failure
    max_qubits, calls = cap.max_qubits, []

    def counted(*args):
        calls.append(args)
        if len(calls) > 1000:
            raise RuntimeError("router_layers_needed kept searching")
        return max_qubits(*args)

    monkeypatch.setattr(cap, "max_qubits", counted)
    single = cap.PlatformProfile("single", root_ports=1, router_children=1)
    with pytest.raises(ValueError, match="'single'"):
        cap.router_layers_needed(single, 3)  # 17 qubits > 14 on the root
    pair = cap.PlatformProfile("pair", root_ports=2, router_children=1)
    assert cap.router_layers_needed(pair, 3) == 0  # 17 qubits <= 28 on the root
