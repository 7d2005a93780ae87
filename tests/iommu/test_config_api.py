"""The typed construction API: MachineConfig / ClusterConfig / IommuConfig.

The redesign's contract: configs are frozen value objects, and the
constructors take configuration *only* through them -- any stray
keyword, known config field or not, raises Python's own ``TypeError``.
"""

import dataclasses

import pytest

from repro import ClusterConfig, Machine, MachineConfig, ShrimpCluster
from repro.config import IommuConfig
from repro.errors import ConfigurationError

PAGE = 4096


class TestConfigObjects:
    def test_configs_are_frozen(self):
        for config in (MachineConfig(), ClusterConfig(), IommuConfig()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                config.mem_size = 1  # type: ignore[misc]

    def test_replace_returns_a_modified_copy(self):
        base = MachineConfig(mem_size=1 << 20)
        bigger = base.replace(mem_size=1 << 21)
        assert base.mem_size == 1 << 20
        assert bigger.mem_size == 1 << 21

    def test_iommu_coercion(self):
        assert MachineConfig().iommu_config is None
        assert MachineConfig(iommu=False).iommu_config is None
        assert MachineConfig(iommu=True).iommu_config == IommuConfig()
        custom = IommuConfig(iotlb_entries=8)
        assert MachineConfig(iommu=custom).iommu_config is custom
        with pytest.raises(ConfigurationError):
            IommuConfig.coerce("yes")  # type: ignore[arg-type]

    def test_iommu_config_validates(self):
        with pytest.raises(ConfigurationError):
            IommuConfig(iotlb_entries=0)
        with pytest.raises(ConfigurationError):
            IommuConfig(fault_queue_depth=0)
        with pytest.raises(ConfigurationError):
            IommuConfig(park_budget=0)

    def test_cluster_node_projection_carries_iommu(self):
        cluster_cfg = ClusterConfig(iommu=True, mem_size=1 << 20)
        node_cfg = cluster_cfg.node_config()
        assert node_cfg.iommu is True
        assert node_cfg.mem_size == 1 << 20


class TestLegacyKeywords:
    def test_machine_legacy_kwargs_raise_type_error(self):
        with pytest.raises(TypeError, match="mem_size"):
            Machine(mem_size=1 << 20)

    def test_cluster_legacy_kwargs_raise_type_error(self):
        with pytest.raises(TypeError, match="num_nodes"):
            ShrimpCluster(num_nodes=2, mem_size=1 << 21)

    def test_unknown_machine_kwarg_raises_type_error(self):
        with pytest.raises(TypeError, match="mem_sise"):
            Machine(mem_sise=1 << 20)

    def test_unknown_cluster_kwarg_raises_type_error(self):
        with pytest.raises(TypeError, match="nodes"):
            ShrimpCluster(nodes=2)

    def test_iommu_is_config_only(self):
        with pytest.raises(TypeError, match="iommu"):
            Machine(iommu=True)
        with pytest.raises(TypeError, match="iommu"):
            ShrimpCluster(iommu=True)
        assert Machine(config=MachineConfig(iommu=True)).iommu is not None

    def test_config_and_legacy_kwargs_are_mutually_exclusive(self):
        with pytest.raises(TypeError, match="mem_size"):
            Machine(config=MachineConfig(), mem_size=1 << 20)
        with pytest.raises(TypeError, match="num_nodes"):
            ShrimpCluster(config=ClusterConfig(), num_nodes=2)

    def test_wiring_kwargs_stay_on_the_constructor(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 20), name="n7")
        assert machine.name == "n7"
