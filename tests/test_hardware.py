"""Tests for repro.hardware (config, catalog, cost model)."""

import numpy as np
import pytest

from repro.hardware import (
    HardwareCatalog,
    HardwareConfig,
    ResourceCostModel,
    matmul_catalog,
    ndp_catalog,
    rank_by_efficiency,
    resource_footprint,
    synthetic_catalog,
    uniform_scaling_catalog,
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

    def test_subset_preserves_order(self):
        sub = ndp_catalog().subset(["H2", "H0"])
        assert sub.names == ["H2", "H0"]

    def test_add_returns_new_catalog(self):
        catalog = ndp_catalog()
        bigger = catalog.add(HardwareConfig("H3", 8, 64))
        assert len(bigger) == 4
        assert len(catalog) == 3

    def test_records_roundtrip(self):
        catalog = ndp_catalog()
        back = HardwareCatalog.from_records(catalog.to_records())
        assert back == catalog

    def test_uniform_scaling_catalog(self):
        catalog = uniform_scaling_catalog(3, base_cpus=2, cpu_step=4)
        assert [hw.cpus for hw in catalog] == [2, 6, 10]

    def test_uniform_scaling_invalid(self):
        with pytest.raises(ValueError):
            uniform_scaling_catalog(0)


class TestResourceCost:
    def test_footprint_increases_with_cpus(self):
        small = HardwareConfig("s", cpus=2, memory_gb=16)
        big = HardwareConfig("b", cpus=4, memory_gb=16)
        assert resource_footprint(big) > resource_footprint(small)

    def test_ndp_efficiency_order(self):
        # H0=(2,16) is lightest, then H1=(3,24), then H2=(4,16) by CPU weight.
        ranked = rank_by_efficiency(ndp_catalog())
        assert [hw.name for hw in ranked] == ["H0", "H1", "H2"]

    def test_most_efficient(self):
        model = ResourceCostModel()
        catalog = ndp_catalog()
        assert model.most_efficient(list(catalog)).name == "H0"

    def test_most_efficient_empty(self):
        with pytest.raises(ValueError):
            ResourceCostModel().most_efficient([])

    def test_occupancy_cost_scales_with_time(self):
        model = ResourceCostModel()
        hw = HardwareConfig("h", cpus=2, memory_gb=16)
        assert model.occupancy_cost(hw, 10) == pytest.approx(10 * model.footprint(hw))

    def test_occupancy_cost_negative_time(self):
        with pytest.raises(ValueError):
            ResourceCostModel().occupancy_cost(HardwareConfig("h", 1, 1), -1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ResourceCostModel(cpu_weight=-1)

    def test_memory_only_weighting(self):
        model = ResourceCostModel(cpu_weight=0.0, memory_weight=1.0)
        catalog = ndp_catalog()
        ranked = model.rank(catalog)
        assert ranked[0].name in ("H0", "H2")  # both have 16 GiB
        assert ranked[-1].name == "H1"
