"""Unit tests for the clustered mesh topology builder and node boards."""

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigError
from repro.network.links import EJECTION, INJECTION, MESH
from repro.network.packet import Packet
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric


@pytest.fixture
def mesh(tiny_network) -> NetworkFabric:
    return NetworkFabric(tiny_network, StatsCollector())


class TestStructure:
    def test_router_and_node_counts(self, mesh, tiny_network):
        assert len(mesh.routers) == tiny_network.num_routers == 4
        assert len(mesh.nodes) == tiny_network.num_nodes == 8

    def test_link_counts(self, mesh, tiny_network):
        n = tiny_network.num_nodes
        injection = len(mesh.links_of_kind(INJECTION))
        ejection = len(mesh.links_of_kind(EJECTION))
        meshes = len(mesh.links_of_kind(MESH))
        assert injection == n
        assert ejection == n
        # 2x2 mesh: 4 adjacent pairs, two unidirectional links each.
        assert meshes == 8
        assert len(mesh.links) == injection + ejection + meshes

    def test_paper_scale_link_count(self):
        config = NetworkConfig()  # 8x8x8
        full = NetworkFabric(config, StatsCollector())
        assert len(full.links_of_kind(INJECTION)) == 512
        assert len(full.links_of_kind(EJECTION)) == 512
        # 8x8 mesh: 2*2*8*7 = 224 unidirectional inter-router links.
        assert len(full.links_of_kind(MESH)) == 224

    def test_router_coordinates(self, mesh):
        coords = [(r.x, r.y) for r in mesh.routers]
        assert coords == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_all_routed_outputs_attached(self, mesh):
        for router in mesh.routers:
            # Local ports always attached.
            for port in range(router.num_local):
                assert router.outputs[port] is not None

    def test_edge_routers_missing_offmesh_ports(self, mesh):
        corner = mesh.routers[0]  # (0, 0): no west, no north
        from repro.network.routing import NORTH, WEST

        assert corner.outputs[corner.num_local + WEST] is None
        assert corner.outputs[corner.num_local + NORTH] is None


class TestCreditWiring:
    def test_injection_credits_shared_with_node(self, mesh):
        node = mesh.nodes[0]
        router = mesh.routers[0]
        assert node.credits is router.inputs[0].upstream_credits

    def test_mesh_credits_shared_with_neighbour(self, mesh, tiny_network):
        from repro.network.routing import EAST, OPPOSITE

        r0, r1 = mesh.routers[0], mesh.routers[1]
        locals_ = tiny_network.nodes_per_cluster
        out = r0.outputs[locals_ + EAST]
        in_port = r1.inputs[locals_ + OPPOSITE[EAST]]
        assert out.credits is in_port.upstream_credits

    def test_downstream_buffers_recorded(self, mesh):
        for link, buffers in zip(mesh.links, mesh.downstream_buffers):
            if link.kind == EJECTION:
                assert buffers is None
            else:
                assert buffers is not None and len(buffers) > 0


class TestNodeIds:
    def test_node_id_mapping(self, mesh):
        assert mesh.node_id(0, 0, 0) == 0
        assert mesh.node_id(1, 0, 1) == 3
        assert mesh.node_id(1, 1, 0) == 6

    def test_node_id_out_of_range(self, mesh):
        with pytest.raises(ConfigError):
            mesh.node_id(5, 0, 0)
        with pytest.raises(ConfigError):
            mesh.node_id(0, 0, 9)

    def test_node_for_bounds(self, mesh):
        with pytest.raises(ConfigError):
            mesh.node_for(-1)
        with pytest.raises(ConfigError):
            mesh.node_for(100)


class TestNodeBehaviour:
    def test_injection_respects_credits(self, mesh):
        node = mesh.nodes[0]
        packet = Packet(1, src=0, dst=1, size=2, create_time=0)
        node.enqueue_packet(packet)
        for counter in node.credits:
            while counter.can_send():
                counter.consume()
        node.step(0.0)
        assert node.pending_flits == 2  # nothing sent

    def test_injection_serialises_on_link(self, mesh):
        node = mesh.nodes[0]
        packet = Packet(1, src=0, dst=1, size=2, create_time=0)
        node.enqueue_packet(packet)
        node.step(0.0)
        assert node.pending_flits == 1
        # The link is busy for service_time; an immediate retry fails.
        node.step(0.5)
        assert node.pending_flits == 1
        node.step(1.0)
        assert node.pending_flits == 0

    def test_packet_flits_share_vc(self, mesh):
        node = mesh.nodes[0]
        packet = Packet(1, src=0, dst=1, size=2, create_time=0)
        node.enqueue_packet(packet)
        node.step(0.0)
        node.step(1.0)
        arrivals = node.link.pop_arrivals(100.0)
        assert len(arrivals) == 2
        assert arrivals[0].vc == arrivals[1].vc

    def test_sink_records_delivery_on_tail(self, mesh):
        stats = mesh.stats
        packet = Packet(1, src=0, dst=1, size=2, create_time=0)
        stats.packet_created(packet, 0)
        head, tail = packet.make_flits()
        node = mesh.nodes[1]
        node.receive_flit(head, 10.0)
        assert stats.packets_delivered == 0
        node.receive_flit(tail, 11.0)
        assert stats.packets_delivered == 1
        assert packet.eject_time == 11
