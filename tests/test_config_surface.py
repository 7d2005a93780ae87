"""The settable surface of the simulator, pinned name by name.

Every field of the construction configs and the cost model, and every
keyword parameter of the assembly, engine and traffic entry points, is
listed here.  Each one is a configuration the paper-claim benches, the
chaos twins and the shard-count sweeps may have to cover, so a new knob
-- or a second route to a decision that already has one -- must show up
as a visible edit of this file, not slip in as a default nobody sets.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro import (
    ClusterConfig,
    CostModel,
    Machine,
    MachineConfig,
    ObsConfig,
    ShrimpCluster,
)
from repro.sharding import InProcessEngine, WorkerEngine
from repro.traffic import TrafficEngine, run_scenario

FIELDS = {
    MachineConfig: (
        "costs", "mem_size", "scheme", "queue_depth", "replacement_policy",
        "i3_strategy", "guard_strategy", "bounce_frames", "dma_burst_bytes",
        "swap", "reference", "obs", "reliability", "protection", "iommu",
    ),
    ClusterConfig: (
        "num_nodes", "costs", "mem_size", "nipt_entries", "queue_depth",
        "scheme", "cut_through", "topology", "mesh_width", "dma_burst_bytes",
        "reference", "obs", "reliability", "protection", "iommu",
    ),
    ObsConfig: ("metrics", "spans"),
    CostModel: (
        "cpu_hz", "mem_ref_cycles", "io_ref_cycles", "alu_cycles",
        "udma_align_check_cycles", "fence_cycles", "syscall_entry_cycles",
        "syscall_exit_cycles", "translate_page_cycles", "pin_page_cycles",
        "unpin_page_cycles", "descriptor_entry_cycles", "device_start_cycles",
        "interrupt_cycles", "reschedule_cycles", "copy_byte_cycles",
        "context_switch_cycles", "page_fault_cycles", "swap_io_cycles",
        "remap_check_cycles", "dma_start_cycles", "dma_bytes_per_cycle",
        "packet_header_cycles", "wire_bytes_per_cycle", "wire_flush_cycles",
        "hop_cycles", "rx_check_cycles", "rx_dma_bytes_per_cycle",
        "iommu_iotlb_hit_cycles", "iommu_walk_cycles",
        "iommu_fault_service_cycles", "disk_seek_cycles",
        "disk_bytes_per_cycle", "page_size", "word_size", "tlb_entries",
        "tlb_miss_cycles",
    ),
}

#: ``**name`` marks a catch-all keyword parameter
PARAMETERS = {
    Machine: ("config", "clock", "name"),
    ShrimpCluster: ("config",),
    InProcessEngine: ("spec", "num_shards", "audit"),
    WorkerEngine: ("spec", "num_shards", "audit"),
    TrafficEngine: (
        "cluster", "placement", "messages", "msg_bytes", "gap_cycles",
        "churn_every", "scenario",
    ),
    run_scenario: (
        "name", "pattern", "num_nodes", "tenants_per_node", "messages",
        "msg_bytes", "seed", "gap_cycles", "churn_every", "reference",
        "**pattern_kwargs",
    ),
}


@pytest.mark.parametrize("config", list(FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    assert tuple(f.name for f in dataclasses.fields(config)) == FIELDS[config]


@pytest.mark.parametrize("entry", list(PARAMETERS), ids=lambda e: e.__name__)
def test_keyword_parameters_are_pinned(entry):
    names = tuple(
        f"**{p.name}" if p.kind is p.VAR_KEYWORD else p.name
        for p in inspect.signature(entry).parameters.values()
    )
    assert names == PARAMETERS[entry]
