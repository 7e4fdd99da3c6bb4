"""Windows-substrate invariants: layout, symbols, taxonomy, walks."""

import random

import numpy as np
import pytest

from repro.datasets import CATALOG, ScenarioGenerator
from repro.datasets.fastgen import to_event_columns
from repro.etw.stack_partition import StackPartitioner
from repro.winsys import AddressSpace, WindowsMachine
from repro.winsys.addresses import (
    ALLOC_RANGE,
    ALLOCATION_GRANULARITY,
    APP_IMAGE_BASE,
    DLL_RANGE,
    KERNEL_RANGE,
    AddressSpaceError,
)
from repro.winsys.image import FUNCTION_ALIGN, BinaryImage, SymbolError
from repro.winsys.process import ResolutionError
from repro.winsys.syscalls import SYSCALLS, validate_taxonomy

FUNCTIONS = ("main", "loop", "handler", "flush")


def spawn(machine, exe="app.exe"):
    return machine.spawn(exe, FUNCTIONS)


class TestAddressSpace:
    def test_app_image_at_conventional_base(self):
        space = AddressSpace()
        region = space.map_app_image("app.exe", 0x1234)
        assert region.base == APP_IMAGE_BASE
        assert region.size % ALLOCATION_GRANULARITY == 0

    def test_regions_stay_in_their_ranges(self):
        rng = random.Random("ranges")
        space = AddressSpace()
        dll = space.map_library("a.dll", 0x20000, rng)
        kernel = space.map_kernel("k.sys", 0x20000, rng)
        alloc = space.map_alloc("heap", 0x10000, rng)
        assert DLL_RANGE[0] <= dll.base and dll.end <= DLL_RANGE[1]
        assert KERNEL_RANGE[0] <= kernel.base and kernel.end <= KERNEL_RANGE[1]
        assert ALLOC_RANGE[0] <= alloc.base and alloc.end <= ALLOC_RANGE[1]

    def test_no_overlaps_ever(self):
        rng = random.Random("overlap")
        space = AddressSpace()
        for index in range(40):
            space.map_alloc(f"r{index}", 0x40000, rng)
        regions = sorted(space.regions, key=lambda r: r.base)
        for left, right in zip(regions, regions[1:]):
            assert left.end <= right.base

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.map_app_image("app.exe", 0x1000)
        with pytest.raises(AddressSpaceError):
            space.map_app_image("app.exe", 0x1000)

    def test_region_of(self):
        space = AddressSpace()
        region = space.map_app_image("app.exe", 0x10000)
        assert space.region_of(region.base + 8) is region
        assert space.region_of(0) is None


class TestBinaryImage:
    def test_symbols_aligned_unique_and_inside(self):
        space = AddressSpace()
        image = BinaryImage("app.exe", space.map_app_image("app.exe", 0x10000))
        image.add_functions(FUNCTIONS, random.Random("sym"))
        addresses = [image.address_of(name) for name in FUNCTIONS]
        assert len(set(addresses)) == len(FUNCTIONS)
        for address in addresses:
            assert image.region.contains(address)
            assert address % FUNCTION_ALIGN == 0

    def test_unknown_and_duplicate_symbols(self):
        space = AddressSpace()
        image = BinaryImage("app.exe", space.map_app_image("app.exe", 0x10000))
        image.add_functions(("main",), random.Random("sym"))
        with pytest.raises(SymbolError):
            image.address_of("nope")
        with pytest.raises(SymbolError):
            image.add_functions(("main",), random.Random("sym"))

    def test_capacity_enforced(self):
        space = AddressSpace()
        image = BinaryImage("tiny", space.map_alloc(
            "tiny", FUNCTION_ALIGN, random.Random("cap")))
        # an aligned region holds size // FUNCTION_ALIGN slots at most
        names = [f"f{i}" for i in range(
            image.region.size // FUNCTION_ALIGN + 1)]
        with pytest.raises(SymbolError):
            image.add_functions(names, random.Random("cap"))


class TestTaxonomy:
    def test_validates_against_catalogs(self):
        validate_taxonomy()

    def test_identity_fields_unique(self):
        identities = [(s.category, s.opcode) for s in SYSCALLS.values()]
        assert len(identities) == len(set(identities))

    def test_system_chains_are_system_side(self):
        partitioner = StackPartitioner()
        for spec in SYSCALLS.values():
            for module, _ in spec.system_chain:
                assert partitioner.is_system(module), module


class TestMachineDeterminism:
    def test_same_seed_same_world(self):
        first, second = WindowsMachine("w0"), WindowsMachine("w0")
        for name, image in first.system_images.items():
            assert image.symbol_table() == (
                second.system_images[name].symbol_table()
            )
        assert spawn(first).image.symbol_table() == (
            spawn(second).image.symbol_table()
        )

    def test_different_seed_different_layout(self):
        tables = {
            seed: [
                image.symbol_table()
                for image in WindowsMachine(seed).system_images.values()
            ]
            for seed in ("w0", "w1")
        }
        assert tables["w0"] != tables["w1"]

    def test_pids_sequential(self):
        machine = WindowsMachine("w0")
        assert [spawn(machine).pid, spawn(machine).pid] == [1000, 1100]


class TestWalks:
    def test_every_syscall_walk_partitions_at_the_app_boundary(self):
        machine = WindowsMachine("w0")
        process = spawn(machine)
        partitioner = StackPartitioner()
        app_path = [("app.exe", "main"), ("app.exe", "loop")]
        for key in SYSCALLS:
            frames = process.walk(app_path, SYSCALLS[key])
            split = partitioner.split_index(frames)
            assert split == len(app_path)
            assert len(frames) == len(app_path) + len(
                SYSCALLS[key].system_chain
            )
            assert [frame.index for frame in frames] == list(
                range(len(frames))
            )

    def test_tracer_eids_and_clock_monotone(self):
        """A synthesized session numbers its events 0..n-1 on a strictly
        increasing clock."""
        generator = ScenarioGenerator(CATALOG["vim_reverse_tcp"], "w0")
        synth = generator.session_synth("mixed", 200, 0.3, "A")
        columns = synth.synthesize()
        events = to_event_columns(
            synth.table, columns.type_ids, columns.timestamps
        ).records()
        assert [event.eid for event in events] == list(range(200))
        assert (np.diff(columns.timestamps) > 0).all()
        assert [event.timestamp for event in events] == (
            columns.timestamps.tolist()
        )

    def test_unknown_module_raises(self):
        machine = WindowsMachine("w0")
        process = spawn(machine)
        with pytest.raises(ResolutionError):
            process.walk(
                [("ghost.exe", "main")], SYSCALLS["ui_get_message"]
            )
