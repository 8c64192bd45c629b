"""Tests for repro.hardware (config, catalog, cost model)."""

import numpy as np
import pytest

from repro.hardware import (
    HardwareCatalog,
    HardwareConfig,
    footprint,
    matmul_catalog,
    ndp_catalog,
    occupancy_cost,
    rank_by_efficiency,
    synthetic_catalog,
)


class TestHardwareConfig:
    def test_paper_tuple(self):
        hw = HardwareConfig("H0", cpus=2, memory_gb=16)
        assert hw.as_tuple() == (2, 16.0)

    def test_invalid_cpus(self):
        with pytest.raises(ValueError):
            HardwareConfig("bad", cpus=0, memory_gb=16)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            HardwareConfig("bad", cpus=2, memory_gb=-1)

    def test_invalid_gpus(self):
        with pytest.raises(ValueError):
            HardwareConfig("bad", cpus=2, memory_gb=16, gpus=-1)

    def test_empty_name(self):
        with pytest.raises(ValueError):
            HardwareConfig("", cpus=1, memory_gb=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cpus", 2.5),
            ("cpus", 2.0),
            ("cpus", True),
            ("gpus", 1.9),
            ("gpus", 0.5),
            ("gpus", True),
            ("memory_gb", float("nan")),
            ("memory_gb", float("inf")),
            ("cpu_clock_ghz", float("nan")),
            ("hourly_cost", float("inf")),
        ],
    )
    def test_counts_are_integers_and_capacities_finite(self, field, value):
        spec = dict(cpus=2, memory_gb=8.0, gpus=1, cpu_clock_ghz=2.5, hourly_cost=1.0)
        spec[field] = value
        with pytest.raises(ValueError, match=field):
            HardwareConfig("x", **spec)

    def test_numpy_integer_counts_become_ints(self):
        hw = HardwareConfig("x", cpus=np.int64(4), memory_gb=8, gpus=np.int32(1))
        assert (type(hw.cpus), type(hw.gpus)) == (int, int)
        assert hw == HardwareConfig("x", cpus=4, memory_gb=8.0, gpus=1)

    def test_default_cost_increases_with_resources(self):
        small = HardwareConfig("s", cpus=2, memory_gb=16)
        big = HardwareConfig("b", cpus=8, memory_gb=64)
        assert big.cost_per_hour > small.cost_per_hour

    def test_explicit_cost_wins(self):
        hw = HardwareConfig("h", cpus=2, memory_gb=16, hourly_cost=3.0)
        assert hw.cost_per_hour == 3.0

    def test_compute_capacity(self):
        hw = HardwareConfig("h", cpus=4, memory_gb=8, cpu_clock_ghz=2.0)
        assert hw.compute_capacity == 8.0

    def test_dict_roundtrip(self):
        hw = HardwareConfig("h", cpus=4, memory_gb=8, labels={"zone": "us-west"})
        back = HardwareConfig.from_dict(hw.to_dict())
        assert back.name == hw.name
        assert back.cpus == hw.cpus
        assert back.labels == {"zone": "us-west"}

    def test_frozen(self):
        hw = HardwareConfig("h", cpus=1, memory_gb=1)
        with pytest.raises(AttributeError):
            hw.cpus = 4

    def test_equality(self):
        assert HardwareConfig("h", 2, 16) == HardwareConfig("h", 2, 16)


class TestHardwareCatalog:
    def test_ndp_catalog_matches_paper(self):
        catalog = ndp_catalog()
        assert catalog.names == ["H0", "H1", "H2"]
        assert catalog["H0"].as_tuple() == (2, 16.0)
        assert catalog["H1"].as_tuple() == (3, 24.0)
        assert catalog["H2"].as_tuple() == (4, 16.0)

    def test_matmul_catalog_has_five_arms(self):
        assert len(matmul_catalog()) == 5

    def test_synthetic_catalog_is_a_ladder(self):
        catalog = synthetic_catalog(4)
        cpus = [hw.cpus for hw in catalog]
        assert cpus == sorted(cpus)
        assert len(set(cpus)) == 4

    def test_synthetic_catalog_minimum_size(self):
        with pytest.raises(ValueError):
            synthetic_catalog(1)

    def test_index_lookup(self):
        catalog = ndp_catalog()
        assert catalog.index_of("H1") == 1
        assert catalog.index_of(catalog["H2"]) == 2

    def test_index_lookup_missing(self):
        with pytest.raises(KeyError):
            ndp_catalog().index_of("H9")

    def test_getitem_by_index_and_name(self):
        catalog = ndp_catalog()
        assert catalog[0] is catalog["H0"]

    def test_contains(self):
        catalog = ndp_catalog()
        assert "H0" in catalog
        assert catalog["H0"] in catalog
        assert "H9" not in catalog

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HardwareCatalog([HardwareConfig("H0", 1, 1), HardwareConfig("H0", 2, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HardwareCatalog([])

    def test_records_roundtrip(self):
        catalog = ndp_catalog()
        back = HardwareCatalog.from_records(catalog.to_records())
        assert back == catalog


class TestResourceCost:
    def test_footprint_increases_with_cpus(self):
        assert footprint(4, 16, 0) > footprint(2, 16, 0)

    def test_footprint_weights(self):
        # 8 GiB of memory counts as one CPU, a GPU as eight.
        assert footprint(3, 24, 1) == 3.0 + 3.0 + 8.0

    def test_ndp_efficiency_order(self):
        # H0=(2,16) is lightest, then H1=(3,24), then H2=(4,16) by CPU weight.
        ranked = rank_by_efficiency(ndp_catalog())
        assert [hw.name for hw in ranked] == ["H0", "H1", "H2"]

    def test_rank_ignores_input_order(self):
        shuffled = [ndp_catalog()[name] for name in ("H2", "H1", "H0")]
        ranked = rank_by_efficiency(shuffled)
        assert ranked[0].name == "H0"
        assert [hw.name for hw in shuffled] == ["H2", "H1", "H0"]  # input untouched

    def test_memory_breaks_equal_cpus(self):
        light = HardwareConfig("light", cpus=4, memory_gb=8)
        heavy = HardwareConfig("heavy", cpus=4, memory_gb=32)
        assert [hw.name for hw in rank_by_efficiency([heavy, light])] == ["light", "heavy"]

    def test_equal_footprint_prefers_fewer_cpus(self):
        # (2, 16) and (3, 8) both score 4.0; fewer CPUs wins the tie before
        # the name does.
        fewer = HardwareConfig("b", cpus=2, memory_gb=16)
        more = HardwareConfig("a", cpus=3, memory_gb=8)
        assert footprint(2, 16, 0) == footprint(3, 8, 0)
        assert [hw.name for hw in rank_by_efficiency([more, fewer])] == ["b", "a"]

    def test_identical_shapes_break_on_name(self):
        b = HardwareConfig("b", cpus=2, memory_gb=16)
        a = HardwareConfig("a", cpus=2, memory_gb=16)
        assert [hw.name for hw in rank_by_efficiency([b, a])] == ["a", "b"]

    def test_occupancy_cost_scales_with_time(self):
        hw = HardwareConfig("h", cpus=2, memory_gb=16)
        assert occupancy_cost(hw, 10) == pytest.approx(10 * footprint(2, 16, 0))

    def test_occupancy_cost_negative_time(self):
        with pytest.raises(ValueError):
            occupancy_cost(HardwareConfig("h", 1, 1), -1)
