"""Unit tests for the topology self-check."""

import pytest

from repro.config import NetworkConfig
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric
from repro.network.validation import validate_topology


def build(**overrides) -> NetworkFabric:
    defaults = {"mesh_width": 3, "mesh_height": 2, "nodes_per_cluster": 2,
                "buffer_depth": 8, "num_vcs": 2}
    defaults.update(overrides)
    return NetworkFabric(NetworkConfig(**defaults), StatsCollector())


class TestCleanTopologies:
    @pytest.mark.parametrize("shape", [
        {"mesh_width": 1, "mesh_height": 1, "nodes_per_cluster": 2},
        {"mesh_width": 2, "mesh_height": 2, "nodes_per_cluster": 1},
        {"mesh_width": 4, "mesh_height": 3, "nodes_per_cluster": 4},
        {"mesh_width": 8, "mesh_height": 8, "nodes_per_cluster": 8,
         "buffer_depth": 16, "num_vcs": 4},
    ])
    def test_builder_output_validates(self, shape):
        defaults = {"buffer_depth": 8, "num_vcs": 2}
        defaults.update(shape)
        mesh = NetworkFabric(NetworkConfig(**defaults), StatsCollector())
        assert validate_topology(mesh) == []


class TestDetection:
    def test_detects_missing_deliver(self):
        mesh = build()
        mesh.links[0].deliver = None
        problems = validate_topology(mesh)
        assert any("undelivered" in p for p in problems)

    def test_detects_unwired_node(self):
        mesh = build()
        mesh.nodes[0].link = None
        problems = validate_topology(mesh)
        assert any("no injection wiring" in p for p in problems)

    def test_detects_missing_mesh_output(self):
        mesh = build()
        # Corner router's east output should exist on a 3-wide mesh.
        from repro.network.routing import EAST

        locals_ = mesh.config.nodes_per_cluster
        mesh.routers[0].outputs[locals_ + EAST] = None
        problems = validate_topology(mesh)
        assert any("missing east output" in p for p in problems)

    def test_detects_foreign_credits(self):
        mesh = build()
        from repro.network.buffers import CreditCounter
        from repro.network.routing import EAST

        locals_ = mesh.config.nodes_per_cluster
        output = mesh.routers[0].outputs[locals_ + EAST]
        output.credits = [CreditCounter(4) for _ in range(2)]
        problems = validate_topology(mesh)
        assert any("not the neighbour's upstream counters" in p
                   for p in problems)
