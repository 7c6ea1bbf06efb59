"""Tests for the fat-tree fabric model."""

import pytest

from repro.hardware.fabric import (
    FatTreeSpec,
    allreduce_seconds_at_scale,
    bisection_bandwidth,
    effective_node_bandwidth,
    fabric_for_projection,
)
from repro.hardware.interconnect import INFINIBAND_100G
from repro.units import GB


def _spec(num_nodes=64, nodes_per_leaf=16, oversubscription=1.0):
    return FatTreeSpec(
        num_nodes=num_nodes,
        nodes_per_leaf=nodes_per_leaf,
        node_link=INFINIBAND_100G,
        oversubscription=oversubscription,
    )


class TestSpec:
    def test_leaf_count(self):
        assert _spec(64, 16).num_leaves == 4
        assert _spec(65, 16).num_leaves == 5

    def test_uplink_capacity_scales_with_oversubscription(self):
        blocking = _spec(oversubscription=4.0)
        nonblocking = _spec(oversubscription=1.0)
        assert blocking.leaf_uplink_bytes_per_s == pytest.approx(
            nonblocking.leaf_uplink_bytes_per_s / 4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(num_nodes=0)
        with pytest.raises(ValueError):
            _spec(oversubscription=0.5)


class TestBisection:
    def test_nonblocking_bisection_is_nic_limited(self):
        """At 1:1 the bisection equals half the nodes' NIC capacity."""
        spec = _spec(64, 16, oversubscription=1.0)
        nic = INFINIBAND_100G.peak_effective_bandwidth
        assert bisection_bandwidth(spec) == pytest.approx(32 * nic)

    def test_oversubscription_cuts_bisection(self):
        nonblocking = bisection_bandwidth(_spec(oversubscription=1.0))
        blocked = bisection_bandwidth(_spec(oversubscription=4.0))
        assert blocked == pytest.approx(nonblocking / 4)

    def test_single_leaf_has_full_bisection(self):
        """Intra-leaf traffic never touches the spine."""
        spec = _spec(num_nodes=8, nodes_per_leaf=8)
        nic = INFINIBAND_100G.peak_effective_bandwidth
        assert bisection_bandwidth(spec) == pytest.approx(4 * nic)

    @pytest.mark.parametrize(
        "num_nodes,nodes_per_leaf,oversubscription,nics",
        # Expected NICs = local sender/receiver pairs + min(up, down),
        # where each leaf's surplus is capped at its uplink of
        # nodes_per_leaf / oversubscription NICs.
        [
            # Leaves {0-3}, {4-7}, {8,9}; senders are nodes 0-4. Leaf 1
            # pairs node 4 locally; leaf 0 has 4 surplus senders, leaves
            # 1 and 2 have 2 surplus receivers each.
            (10, 4, 1.0, 1 + min(4, 2 + 2)),
            (10, 4, 2.0, 1 + min(2, 2 + 2)),
            (10, 4, 4.0, 1 + min(1, 1 + 1)),
            # Leaves {0,1}, {2,3}, {4}; senders are nodes 0-1, no local
            # pairs; leaf 0 has 2 surplus senders, leaves 1 and 2 have
            # 2 and 1 surplus receivers.
            (5, 2, 1.0, 0 + min(2, 2 + 1)),
        ],
    )
    def test_partial_last_leaf(
        self, num_nodes, nodes_per_leaf, oversubscription, nics
    ):
        spec = _spec(num_nodes, nodes_per_leaf, oversubscription)
        nic = INFINIBAND_100G.peak_effective_bandwidth
        assert bisection_bandwidth(spec) == pytest.approx(nics * nic)


class TestEffectiveBandwidth:
    def test_nonblocking_keeps_nic_rate(self):
        spec = _spec(oversubscription=1.0)
        assert effective_node_bandwidth(spec) == pytest.approx(
            INFINIBAND_100G.peak_effective_bandwidth
        )

    def test_oversubscription_divides_rate(self):
        spec = _spec(oversubscription=2.0)
        assert effective_node_bandwidth(spec) == pytest.approx(
            INFINIBAND_100G.peak_effective_bandwidth / 2
        )

    def test_single_leaf_unaffected(self):
        spec = _spec(num_nodes=8, nodes_per_leaf=8, oversubscription=4.0)
        assert effective_node_bandwidth(spec) == pytest.approx(
            INFINIBAND_100G.peak_effective_bandwidth
        )


class TestAllReduceAtScale:
    def test_grows_with_oversubscription(self):
        fast = allreduce_seconds_at_scale(
            _spec(oversubscription=1.0), 1 * GB, 64
        )
        slow = allreduce_seconds_at_scale(
            _spec(oversubscription=4.0), 1 * GB, 64
        )
        assert slow == pytest.approx(4 * fast)

    def test_single_node_free(self):
        assert allreduce_seconds_at_scale(_spec(), 1 * GB, 1) == 0.0

    def test_too_many_participants(self):
        with pytest.raises(ValueError):
            allreduce_seconds_at_scale(_spec(num_nodes=4), 1 * GB, 8)

    def test_projection_builder_clamps_leaf(self):
        spec = fabric_for_projection(8, INFINIBAND_100G, nodes_per_leaf=32)
        assert spec.nodes_per_leaf == 8
