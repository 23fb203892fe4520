"""Tests for the architecture factory and multi-bit queries."""

import pytest

from repro.qram import (
    ARCHITECTURES,
    BucketBrigadeQRAM,
    ClassicalMemory,
    MultiBitQuery,
    SelectSwapQRAM,
    SequentialQueryCircuit,
    VirtualQRAM,
    VirtualQRAMOptions,
    make_architecture,
)


class TestFactory:
    def test_known_names_resolve(self, small_memory):
        assert isinstance(make_architecture("virtual", small_memory, 2), VirtualQRAM)
        assert isinstance(make_architecture("sqc_bb", small_memory, 2), BucketBrigadeQRAM)
        assert isinstance(make_architecture("bb", small_memory, 2), BucketBrigadeQRAM)
        assert isinstance(make_architecture("ours", small_memory, 2), VirtualQRAM)
        assert isinstance(make_architecture("ss", small_memory, 2), SelectSwapQRAM)
        assert isinstance(make_architecture("sqc", small_memory), SequentialQueryCircuit)

    def test_unknown_name_raises(self, small_memory):
        with pytest.raises(KeyError):
            make_architecture("qrom2000", small_memory)

    def test_default_width_is_full_memory(self, small_memory):
        architecture = make_architecture("virtual", small_memory)
        assert architecture.m == small_memory.address_width
        assert architecture.k == 0

    def test_case_insensitive(self, small_memory):
        assert isinstance(make_architecture("Virtual", small_memory, 2), VirtualQRAM)

    def test_registry_contains_all_names(self):
        assert {
            "virtual", "sqc_bb", "sqc_ss", "fanout", "sqc", "ours", "bb", "ss"
        } <= set(ARCHITECTURES)

    def test_kwargs_forwarded(self, small_memory):
        architecture = make_architecture(
            "virtual", small_memory, 2, options=VirtualQRAMOptions.raw()
        )
        assert not architecture.options.recycle_address_qubits


class TestMultiBitQuery:
    def test_classical_readout_recovers_values(self):
        memory = ClassicalMemory.from_values([3, 0, 2, 1], data_width=2)
        query = MultiBitQuery(memory=memory, qram_width=1)
        for address in range(memory.size):
            assert query.classical_readout(address) == memory[address]

    def test_planes_builds_one_architecture_per_bit(self):
        memory = ClassicalMemory.from_values([3, 0, 2, 1], data_width=2)
        query = MultiBitQuery(memory=memory, qram_width=2)
        planes = query.planes()
        assert len(planes) == 2
        assert {p.bit_plane for p in planes} == {0, 1}

    def test_total_resources_aggregate(self):
        memory = ClassicalMemory.from_values([3, 0, 2, 1], data_width=2)
        query = MultiBitQuery(memory=memory, qram_width=2)
        single_plane = query.planes()[0].resource_report().as_dict()
        total = query.total_resources()
        assert total["gate_count"] >= 2 * single_plane["gate_count"] - 2

    def test_other_architectures_supported(self):
        memory = ClassicalMemory.from_values([1, 2, 3, 0], data_width=2)
        query = MultiBitQuery(memory=memory, qram_width=2, architecture="sqc_bb")
        for address in range(memory.size):
            assert query.classical_readout(address) == memory[address]
