"""Application-model invariants: distinct CFGs, workload determinism,
round-trip through the raw-log serializer/parser."""

import pytest

from repro.apps import APPS
from repro.apps.base import AppSpec, Operation
from repro.datasets import CATALOG, ScenarioGenerator
from repro.datasets.fastgen import to_event_columns
from repro.etw.parser import parse_with_report, serialize_events

ALL_SPECS = tuple(APPS.values())


def trace(spec, n_events=300, seed="apps"):
    """A benign session of ``spec``'s first catalog row, as records."""
    row = next(row for row in CATALOG.values() if row.app == spec.name)
    synth = ScenarioGenerator(row, seed).benign_synth(n_events)
    columns = synth.synthesize()
    return to_event_columns(
        synth.table, columns.type_ids, columns.timestamps
    ).records()


class TestSpecs:
    def test_catalog_names(self):
        assert set(APPS) == {"winscp", "chrome", "notepad++", "putty", "vim"}

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_spec_self_consistent(self, spec):
        # construction already validates; check the derived views
        assert spec.entry() == spec.functions[0]
        assert spec.cfg_nodes() and spec.cfg_edges()
        for node in spec.cfg_nodes():
            assert node[0] == spec.exe

    def test_five_apps_have_distinct_cfgs_and_libraries(self):
        specs = list(APPS.values())
        for index, left in enumerate(specs):
            for right in specs[index + 1:]:
                assert left.cfg_edges() != right.cfg_edges()
                assert left.libraries != right.libraries
                # distinct exes → fully disjoint CFG node sets
                assert left.cfg_nodes().isdisjoint(right.cfg_nodes())

    def test_validation_rejects_undeclared_functions(self):
        with pytest.raises(ValueError, match="undeclared"):
            AppSpec(
                name="bad", exe="bad.exe",
                functions=("main",),
                libraries=frozenset({"kernel32.dll", "ntdll.dll"}),
                operations=(
                    Operation("x", "file_read", (("main", "ghost"),)),
                ),
            )

    def test_validation_rejects_library_escape(self):
        with pytest.raises(ValueError, match="library footprint"):
            AppSpec(
                name="bad", exe="bad.exe",
                functions=("main",),
                libraries=frozenset({"kernel32.dll", "ntdll.dll"}),
                operations=(
                    # tcp_send descends through ws2_32/mswsock
                    Operation("x", "tcp_send", (("main",),)),
                ),
            )


class TestWorkloads:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_workload_covers_every_operation(self, spec):
        events = trace(spec, 600)
        names = {event.name for event in events}
        assert names == {op.name for op in spec.operations}

    def test_workload_deterministic(self):
        spec = APPS["vim"]
        first = serialize_events(trace(spec, 200))
        second = serialize_events(trace(spec, 200))
        assert first == second

    def test_workload_respects_phases(self):
        spec = APPS["putty"]
        events = trace(spec, 200)
        startup = [op.name for op in spec.ops_in_phase("startup")]
        shutdown = [op.name for op in spec.ops_in_phase("shutdown")]
        assert [event.name for event in events[:len(startup)]] == startup
        assert [event.name for event in events[-len(shutdown):]] == shutdown

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_round_trip_with_zero_issues(self, spec):
        events = trace(spec, 250)
        parsed, report = parse_with_report(serialize_events(events))
        assert not report.issues
        assert parsed == events

    def test_workload_exercises_ground_truth_cfg_only(self):
        spec = APPS["winscp"]
        edges = spec.cfg_edges()
        for event in trace(spec, 500):
            app = [
                frame.node for frame in event.frames
                if frame.module == spec.exe
            ]
            for edge in zip(app, app[1:]):
                assert edge in edges
