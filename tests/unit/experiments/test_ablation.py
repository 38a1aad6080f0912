"""Unit tests for the stabiliser ablation harness."""

import pytest

from repro.config import PolicyConfig
from repro.experiments.ablation import (
    VARIANTS,
    ablation_table,
    run_ablation,
    variant_policy,
)
from repro.experiments.configs import get_scale


class TestVariantPolicies:
    def test_full_variant_is_default(self):
        policy = variant_policy("full", 200)
        default = PolicyConfig(window_cycles=200)
        assert policy == default

    def test_paper_literal_disables_everything(self):
        policy = variant_policy("paper_literal", 200)
        assert not policy.congestion_inhibits_downscale
        assert not policy.congestion_rescue
        assert not policy.pressure_aware_utilisation

    def test_each_single_ablation_differs_from_full(self):
        full = variant_policy("full", 200)
        for name in ("no_guard", "no_rescue", "no_pressure"):
            assert variant_policy(name, 200) != full

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            variant_policy("no_everything", 200)


class TestRunAblation:
    def test_runs_selected_variants(self):
        scale = get_scale("smoke")
        results = run_ablation(scale, load="light",
                               variants=("full", "paper_literal"))
        assert set(results) == {"full", "paper_literal"}
        for result in results.values():
            assert result.packets_delivered > 0
            assert result.relative_power < 1.0

    def test_table_rendering(self):
        scale = get_scale("smoke")
        results = run_ablation(scale, load="light", variants=("full",))
        table = ablation_table(results)
        assert "full" in table
        assert "rel power" in table


class TestVariantRegistry:
    def test_registry_complete(self):
        assert set(VARIANTS) == {
            "full", "no_guard", "no_rescue", "no_pressure", "paper_literal",
        }
