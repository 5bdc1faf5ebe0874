import pytest

from qecfabric import fabric_sim as fs
from qecfabric.link_layer import LinkModel


def test_run_until_empty_queue():
    sim = fs.Simulator()
    assert sim.run_until(1_000_000) == 0
    assert sim.now == 1_000_000


def test_equal_time_events_fire_in_schedule_order():
    sim = fs.Simulator()
    seen = []
    sim.on("tick", lambda ev: seen.append(ev.payload))
    for k in range(5):
        sim.schedule(100, node=0, kind="tick", payload=k)
    sim.run_until(100)
    assert seen == [0, 1, 2, 3, 4]


def test_scheduling_into_the_past_rejected():
    sim = fs.Simulator()
    sim.run_until(500)
    with pytest.raises(ValueError):
        sim.schedule(499, node=0, kind="tick")


# ---- topology -------------------------------------------------------------

def test_tree_shape_direct():
    fabric = fs.Fabric(fs.TopologyConfig(n_leaves=4), seed=0)
    assert fabric.node_count == 5
    assert len(fabric.levels) - 1 == 1
    root = fabric.nodes[fabric.root_id]
    assert len(root.children) == 4
    assert all(fabric.nodes[leaf].parent == fabric.root_id for leaf in fabric.levels[-1])


def test_tree_shape_with_router_layer():
    config = fs.TopologyConfig(n_leaves=42, root_ports=34, router_children=29, router_layers=1)
    fabric = fs.Fabric(config, seed=0)
    n_routers = -(-42 // 29)
    assert fabric.node_count == 1 + n_routers + 42
    assert len(fabric.levels) - 1 == 2
    routers = [n for n in fabric.nodes.values() if n.role == fs.ROLE_ROUTER]
    assert len(routers) == n_routers
    assert all(len(r.children) <= 29 for r in routers)
    for leaf in fabric.levels[-1]:
        assert fabric.nodes[fabric.nodes[leaf].parent].role == fs.ROLE_ROUTER


@pytest.mark.parametrize("router_layers", [0, 1, 2, 3])
@pytest.mark.parametrize("router_children", [2, 3, 29])
def test_levels_are_contiguous_child_runs(router_layers, router_children):
    roles = [fs.ROLE_ROOT] + [fs.ROLE_ROUTER] * router_layers + [fs.ROLE_LEAF]
    for n_leaves in range(1, 121):
        config = fs.TopologyConfig(n_leaves=n_leaves, root_ports=120,
                                   router_children=router_children, router_layers=router_layers)
        try:
            fabric = fs.Fabric(config, seed=0)
        except fs.CapacityError:
            continue
        levels = fabric.levels
        # the levels partition the nodes, one role per level
        assert sorted(n for row in levels for n in row) == sorted(fabric.nodes)
        assert [{fabric.nodes[n].role for n in row} for row in levels] == [{r} for r in roles]
        assert levels[0] == (fabric.root_id,)
        assert levels[-1] == tuple(range(fabric.node_count - n_leaves, fabric.node_count))
        # every non-leaf node's children: a non-empty run of the next level, in order
        for row, below in zip(levels, levels[1:]):
            runs = [fabric.nodes[n].children for n in row]
            assert all(runs) and [c for run in runs for c in run] == list(below)
        bfs, queue = [], [fabric.root_id]
        for n in queue:
            for child in fabric.nodes[n].children:
                bfs.append((n, child))
                queue.append(child)
        assert fabric.edges_top_down() == bfs


def test_tree_rejects_port_violation():
    with pytest.raises(ValueError):
        fs.Fabric(fs.TopologyConfig(n_leaves=5, root_ports=4), seed=0)


# ---- clocks and sync -------------------------------------------------------

def sync_pair(up_ps, down_ps, child_offset, parent_offset=0, drift=0):
    """Two-node fabric with explicit link asymmetry and starting offsets."""
    config = fs.TopologyConfig(
        n_leaves=1,
        sync_uplink=LinkModel(10_000_000_000, 1, up_ps, 0),
        sync_downlink=LinkModel(10_000_000_000, 1, down_ps, 0),
        drift_ppm=drift,
    )
    fabric = fs.Fabric(config, seed=0)
    fabric.nodes[0].clock.offset_ps = parent_offset
    fabric.nodes[1].clock.offset_ps = child_offset
    return fs.Simulator(), fabric


def test_ptp_sync_zero_offset_symmetric():
    sim, fabric = sync_pair(156_000, 156_000, child_offset=0)
    correction = fs.ptp_sync(sim, fabric, 0, 1)
    assert correction == 0
    assert fabric.nodes[1].clock.offset_ps == 0


def test_ptp_sync_removes_initial_offset_exactly():
    sim, fabric = sync_pair(156_000, 156_000, child_offset=10_000)
    fs.ptp_sync(sim, fabric, 0, 1)
    assert fabric.nodes[1].clock.offset_ps == 0


@pytest.mark.parametrize("delta", [2_000, -2_000, 4_600, -18])
def test_ptp_asymmetry_bias_is_half_delta(delta):
    # residual = (up - down) / 2, the classic two-way exchange bias
    down = 156_000
    up = down + delta
    sim, fabric = sync_pair(up, down, child_offset=12_345)
    fs.ptp_sync(sim, fabric, 0, 1)
    residual = fabric.nodes[1].clock.offset_ps - fabric.nodes[0].clock.offset_ps
    assert residual == delta // 2


@pytest.mark.parametrize("delta", [3_001, 1, -7])
def test_ptp_odd_asymmetry_within_one_ps(delta):
    # an odd delta cannot split evenly on an integer clock; the rounded
    # correction lands within 1 ps of delta/2 either way
    sim, fabric = sync_pair(156_000 + delta, 156_000, child_offset=12_345)
    fs.ptp_sync(sim, fabric, 0, 1)
    residual = fabric.nodes[1].clock.offset_ps - fabric.nodes[0].clock.offset_ps
    assert abs(2 * residual - delta) <= 1


def test_half_even_division():
    assert fs._half_even_div2(4) == 2
    assert fs._half_even_div2(3) == 2
    assert fs._half_even_div2(5) == 2
    assert fs._half_even_div2(-3) == -2
    assert fs._half_even_div2(-5) == -2


def test_global_sync_zero_offsets_stay_zero():
    sim = fs.Simulator()
    fabric = fs.Fabric(fs.TopologyConfig(n_leaves=4), seed=0)
    residuals = fs.global_sync(sim, fabric)
    assert set(residuals.values()) == {0}


def test_global_sync_random_offsets_to_zero():
    sim = fs.Simulator()
    config = fs.TopologyConfig(
        n_leaves=29, root_ports=34, router_children=29, router_layers=1,
        clock_offset_bound_ps=1_000_000,
    )
    fabric = fs.Fabric(config, seed=11)
    assert any(n.clock.offset_ps != 0 for n in fabric.nodes.values())
    residuals = fs.global_sync(sim, fabric)
    assert max(abs(v) for v in residuals.values()) == 0


def test_global_sync_asymmetry_composes_down_the_tree():
    delta = 2_000
    config = fs.TopologyConfig(
        n_leaves=2, router_children=2, router_layers=1, root_ports=4,
        sync_uplink=LinkModel(10_000_000_000, 1, 156_000 + delta, 0),
        sync_downlink=LinkModel(10_000_000_000, 1, 156_000, 0),
        clock_offset_bound_ps=500_000,
    )
    fabric = fs.Fabric(config, seed=3)
    residuals = fs.global_sync(fs.Simulator(), fabric)
    # each edge contributes delta/2 relative to its parent
    assert residuals[1] == delta // 2  # router, one hop
    for leaf in fabric.levels[-1]:
        assert residuals[leaf] == 2 * (delta // 2)  # two hops from the root


def test_drift_bound_between_syncs():
    # 10 ppm drift over a 1 ms re-sync interval accumulates exactly 10 ns
    clock = fs.Clock(offset_ps=0, drift_ppm=10)
    interval = 1_000_000_000  # 1 ms in ps
    t0 = 123_456
    divergence = (clock.local(t0 + interval) - clock.local(t0)) - interval
    assert divergence == 10_000
    assert divergence <= 10 * interval // 1_000_000
