"""Attack-model invariants: polymorphic encoding, both delivery
models' observable consequences, and cross-build taxonomy stability."""

import numpy as np
import pytest

from repro.apps import APPS
from repro.attacks import (
    PAYLOADS,
    REMOTE_THREAD_OFFSET,
    UNKNOWN_MODULE,
    PolymorphicEncoder,
    deliver,
    msfvenom,
)
from repro.datasets.fastgen import build_emission_table, to_event_columns
from repro.etw.stack_partition import StackPartitioner
from repro.winsys.process import WindowsMachine


def attack_records(process, app, instance):
    """One record per attack emission row of the delivered process: the
    setup ops, then the beacon ops, in payload declaration order."""
    table = build_emission_table(process, app, instance)
    rows = np.concatenate([table.setup_types, table.beacon_types])
    return to_event_columns(table, rows, np.arange(len(rows))).records()


def session(app_name, payload, method, build_id, seed="atk"):
    """Spawn and deliver; returns the instance and its attack events."""
    app = APPS[app_name]
    machine = WindowsMachine(seed)
    process = machine.spawn(app.exe, app.functions)
    build = msfvenom(payload, seed, build_id)
    instance = deliver(process, app, build, method)
    return instance, attack_records(process, app, instance)


class TestEncoder:
    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    def test_builds_are_deterministic(self, payload):
        first = msfvenom(payload, "s", "A")
        second = msfvenom(payload, "s", "A")
        assert first.names == second.names

    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    def test_two_builds_share_no_names(self, payload):
        encoder = PolymorphicEncoder("s")
        spec = PAYLOADS[payload]
        first = encoder.encode(spec, "A")
        second = encoder.encode(spec, "B")
        assert not set(first.function_names()) & set(
            second.function_names()
        )
        # names are unique within a build and obfuscated
        for build in (first, second):
            names = build.function_names()
            assert len(set(names)) == len(spec.roles)
            assert all(name.startswith("sub_") for name in names)

    def test_two_builds_share_no_addresses(self):
        app = APPS["vim"]
        machine = WindowsMachine("addr")
        addresses = {}
        for build_id in ("A", "B"):
            process = machine.spawn(app.exe, app.functions)
            build = msfvenom("reverse_tcp", "addr", build_id)
            deliver(process, app, build, "offline")
            addresses[build_id] = {
                process.image.address_of(name)
                for name in build.function_names()
            }
        assert not addresses["A"] & addresses["B"]

    def test_builds_share_the_system_event_taxonomy(self):
        """A rebuild changes app-space symbols only: same event names,
        same (category, opcode), same system chains."""

        def taxonomy(events):
            return [
                (
                    event.name,
                    event.category,
                    event.opcode,
                    tuple(
                        (frame.module, frame.function)
                        for frame in event.frames
                        if frame.module.endswith((".dll", ".sys"))
                        or frame.module == "ntoskrnl.exe"
                    ),
                )
                for event in events
            ]

        _, first = session("putty", "reverse_https", "offline", "A")
        _, second = session("putty", "reverse_https", "offline", "B")
        assert taxonomy(first) == taxonomy(second)
        app_nodes = {
            (frame.module, frame.function)
            for events in (first, second)
            for event in events
            for frame in event.frames
            if frame.function.startswith("sub_")
        }
        # ... while the app-space halves are fully disjoint per build
        first_nodes = {
            (f.module, f.function)
            for e in first for f in e.frames if f.function.startswith("sub_")
        }
        assert first_nodes and first_nodes < app_nodes


class TestOfflineDelivery:
    def test_instance_shape(self):
        app = APPS["winscp"]
        instance, _ = session("winscp", "reverse_tcp", "offline", "A")
        assert instance.module == app.exe
        assert instance.prefix == ((app.exe, app.entry()),)
        assert instance.tid is None

    def test_payload_frames_resolve_inside_the_app_image(self):
        partitioner = StackPartitioner()
        instance, events = session("winscp", "reverse_tcp", "offline", "A")
        for event in events:
            split = partitioner.split_index(event.frames)
            app_frames = event.frames[:split]
            assert app_frames[0].function == APPS["winscp"].entry()
            for frame in app_frames:
                assert frame.module == "winscp.exe"

    def test_benign_addresses_survive_infection(self):
        """Trojanizing must not move the app's own symbols — the benign
        half of a mixed log matches the clean log exactly."""
        app = APPS["notepad++"]
        machine = WindowsMachine("clean")
        clean = machine.spawn(app.exe, app.functions)
        infected = machine.spawn(app.exe, app.functions)
        build = msfvenom("reverse_https", "clean", "A")
        deliver(infected, app, build, "offline")
        for name in app.functions:
            assert clean.image.address_of(name) == (
                infected.image.address_of(name)
            )


class TestOnlineDelivery:
    def test_instance_shape(self):
        instance, _ = session("putty", "reverse_tcp", "online", "A")
        assert instance.module == UNKNOWN_MODULE
        assert instance.prefix == ()
        assert instance.tid is not None

    def test_runs_on_a_remote_thread_outside_any_image(self):
        app = APPS["putty"]
        machine = WindowsMachine("inj")
        process = machine.spawn(app.exe, app.functions)
        build = msfvenom("reverse_tcp", "inj", "A")
        instance = deliver(process, app, build, "online")
        assert instance.tid == process.main_tid + REMOTE_THREAD_OFFSET
        events = attack_records(process, app, instance)
        partitioner = StackPartitioner()
        for event in events:
            assert event.tid == instance.tid
            split = partitioner.split_index(event.frames)
            assert split >= 1  # <unknown> stays on the app side
            for frame in event.frames[:split]:
                assert frame.module == UNKNOWN_MODULE
                assert not process.image.region.contains(frame.address)


class TestDeliver:
    def test_unknown_method_rejected(self):
        app = APPS["vim"]
        machine = WindowsMachine("d")
        process = machine.spawn(app.exe, app.functions)
        build = msfvenom("reverse_tcp", "d", "A")
        with pytest.raises(ValueError, match="delivery method"):
            deliver(process, app, build, "wireless")

    def test_payload_registry(self):
        assert set(PAYLOADS) == {
            "reverse_tcp", "reverse_https", "codeinject"
        }
        for spec in PAYLOADS.values():
            assert spec.setup_ops() and spec.beacon_ops()
