"""Property tests: precomputed operating-point tables mirror the models.

The hot-path contract of :class:`repro.core.tables.OperatingPointTable`:
every table cell is *exactly* the analytical model evaluated at that
operating point — the table is a cache, never an approximation.  These
tests sweep randomly generated ladders and band structures and hold both
technologies to a 1e-12 bound (in practice the values are identical
floats, since the build path calls the very same ``power()``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MODULATOR, PowerAwareConfig
from repro.core.levels import BitRateLadder, OpticalBands
from repro.core.manager import NetworkPowerManager
from repro.core.tables import OperatingPointTable
from repro.errors import ConfigError
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric
from repro.photonics.power_model import LinkPowerModel

MODELS = {
    "vcsel": LinkPowerModel.vcsel_link,
    "modulator": LinkPowerModel.modulator_link,
}


@st.composite
def ladders(draw):
    num_levels = draw(st.integers(min_value=2, max_value=8))
    min_rate = draw(st.floats(min_value=1e9, max_value=8e9,
                              allow_nan=False))
    max_rate = draw(st.floats(min_value=min_rate * 1.05, max_value=10e9,
                              allow_nan=False))
    return BitRateLadder.linear(min_rate, max_rate, num_levels)


class TestTableMirrorsModel:
    @settings(max_examples=60, deadline=None)
    @given(ladder=ladders(),
           technology=st.sampled_from(sorted(MODELS)))
    def test_every_cell_matches_the_analytical_model(self, ladder,
                                                     technology):
        model = MODELS[technology]()
        table = OperatingPointTable.build(model, ladder)
        assert table.num_levels == ladder.num_levels
        assert table.max_power == model.max_power
        for level, rate in enumerate(ladder.rates):
            assert abs(table.level_powers[level] - model.power(rate)) \
                <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(ladder=ladders(),
           technology=st.sampled_from(sorted(MODELS)))
    def test_three_band_grid_rows_match_model_everywhere(self, ladder,
                                                         technology):
        # The analytic models are band-invariant (electrical budget only),
        # so every band row must equal the same analytical evaluation.
        model = MODELS[technology]()
        bands = OpticalBands.paper_three_level()
        table = OperatingPointTable.build(model, ladder, bands)
        assert table.num_bands == bands.num_bands
        assert table.band_fractions == bands.power_fractions
        for band in range(bands.num_bands):
            for level, rate in enumerate(ladder.rates):
                assert abs(table.power(level, band) - model.power(rate)) \
                    <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(ladder=ladders())
    def test_tabulate_is_the_build_path(self, ladder):
        model = LinkPowerModel.vcsel_link()
        assert model.tabulate(ladder.rates) == tuple(
            model.power(rate) for rate in ladder.rates
        )
        assert OperatingPointTable.build(model, ladder).level_powers == \
            model.tabulate(ladder.rates)

    @settings(max_examples=40, deadline=None)
    @given(ladder=ladders())
    def test_attenuations_follow_band_fractions(self, ladder):
        table = OperatingPointTable.build(
            LinkPowerModel.modulator_link(), ladder,
            OpticalBands.paper_three_level(),
        )
        for fraction, db in zip(table.band_fractions,
                                table.attenuations_db):
            assert 10 ** (-db / 10.0) == pytest.approx(fraction)

    def test_mismatched_row_rejected(self):
        with pytest.raises(ConfigError):
            OperatingPointTable(
                rates=(5e9, 10e9), grid=((0.1,),),
                band_fractions=(1.0,), attenuations_db=(0.0,),
                max_power=0.2,
            )


class TestManagerUsesTheTable:
    def test_every_power_link_indexes_the_shared_table(self):
        network_kwargs = {"mesh_width": 2, "mesh_height": 2,
                          "nodes_per_cluster": 2, "buffer_depth": 8,
                          "num_vcs": 2}
        from repro.config import NetworkConfig

        network = NetworkConfig(**network_kwargs)
        topology = NetworkFabric(network, StatsCollector())
        manager = NetworkPowerManager(
            topology, PowerAwareConfig(technology=MODULATOR,
                                       optical_levels=3), network)
        expected = manager.power_model.tabulate(manager.ladder.rates)
        assert manager.table.level_powers == expected
        for pal in manager.links:
            assert pal.level_powers is manager.table.level_powers
