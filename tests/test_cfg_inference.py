"""Algorithm 1 — CFG inference, including the paper's Figure-3 example."""

import pytest

from repro.core.cfg_inference import (
    CFG,
    EXPLICIT,
    IMPLICIT,
    CFGInferencer,
    common_prefix_length,
    implicit_chain,
)

MAIN = ("app.exe", "WinMain")
A = ("app.exe", "funcA")
B = ("app.exe", "funcB")
C = ("app.exe", "funcC")
D = ("app.exe", "funcD")


class TestCFGContainer:
    def test_add_and_query(self):
        cfg = CFG()
        cfg.add_edge(A, B)
        assert cfg.has_node(A) and cfg.has_node(B)
        assert cfg.has_edge(A, B) and not cfg.has_edge(B, A)
        assert cfg.successors(A) == frozenset({B})
        assert cfg.predecessors(B) == frozenset({A})
        assert cfg.node_count == 2 and cfg.edge_count == 1

    def test_edge_kinds_accumulate(self):
        cfg = CFG()
        cfg.add_edge(A, B, EXPLICIT)
        cfg.add_edge(A, B, IMPLICIT)
        assert cfg.edge_kinds(A, B) == frozenset({EXPLICIT, IMPLICIT})

    def test_merge(self):
        first, second = CFG(), CFG()
        first.add_edge(A, B)
        second.add_edge(B, C, IMPLICIT)
        second.add_node(D)
        first.merge(second)
        assert first.has_edge(A, B) and first.has_edge(B, C)
        assert first.has_node(D)
        assert first.edge_kinds(B, C) == frozenset({IMPLICIT})

    def test_merge_preserves_both_kinds_on_one_edge(self):
        # explicit-only + implicit-only merge → the edge reports both
        explicit_only, implicit_only = CFG(), CFG()
        explicit_only.add_edge(A, B, EXPLICIT)
        implicit_only.add_edge(A, B, IMPLICIT)
        explicit_only.merge(implicit_only)
        assert explicit_only.edge_kinds(A, B) == frozenset({EXPLICIT, IMPLICIT})
        assert explicit_only.edge_count == 1

    def test_merge_kind_union_is_symmetric(self):
        left, right = CFG(), CFG()
        left.add_edge(A, B, EXPLICIT)
        left.add_edge(B, C, IMPLICIT)
        right.add_edge(A, B, IMPLICIT)
        right.add_edge(C, D, EXPLICIT)
        merged_lr, merged_rl = CFG(), CFG()
        merged_lr.merge(left)
        merged_lr.merge(right)
        merged_rl.merge(right)
        merged_rl.merge(left)
        assert merged_lr == merged_rl
        assert merged_lr.edge_kinds(A, B) == frozenset({EXPLICIT, IMPLICIT})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CFG().add_edge(A, B, "telepathic")

    def test_equality_ignores_intern_order(self):
        forward, backward = CFG(), CFG()
        forward.add_edge(A, B)
        forward.add_edge(C, D, IMPLICIT)
        backward.add_edge(C, D, IMPLICIT)
        backward.add_edge(A, B)
        assert forward == backward
        backward.add_edge(A, B, IMPLICIT)  # extra kind breaks equality
        assert forward != backward


class TestSymbolTable:
    """The interned-ID fast path under the FrameNode public API."""

    def test_intern_is_stable_and_dense(self):
        cfg = CFG()
        assert cfg.intern(A) == 0
        assert cfg.intern(B) == 1
        assert cfg.intern(A) == 0  # repeat does not re-intern
        assert cfg.node_count == 2

    def test_node_id_does_not_insert(self):
        cfg = CFG()
        assert cfg.node_id(A) == -1
        assert not cfg.has_node(A)
        cfg.add_node(A)
        assert cfg.node_id(A) == 0

    def test_path_ids_marks_unknown(self):
        cfg = CFG()
        cfg.add_edge(A, B)
        assert cfg.path_ids([A, B, C]) == [0, 1, -1]

    def test_packed_edge_array_matches_edges(self):
        cfg = CFG()
        cfg.add_edge(A, B)
        cfg.add_edge(B, C, IMPLICIT)
        packed = cfg.packed_edge_array()
        unpacked = {
            (int(key) >> 32, int(key) & ((1 << 32) - 1)) for key in packed
        }
        expected = {
            (cfg.node_id(src), cfg.node_id(dst)) for src, dst in cfg.edges()
        }
        assert unpacked == expected
        assert list(packed) == sorted(packed)

    def test_version_bumps_on_structural_change(self):
        cfg = CFG()
        before = cfg.version
        cfg.add_node(A)
        assert cfg.version > before
        before = cfg.version
        cfg.add_node(A)  # no-op
        assert cfg.version == before
        cfg.add_edge(A, B)
        assert cfg.version > before
        before = cfg.version
        cfg.add_edge(A, B, IMPLICIT)  # new kind on existing edge
        assert cfg.version > before


class TestHelpers:
    def test_common_prefix_length(self):
        assert common_prefix_length([MAIN, A, B], [MAIN, A, C]) == 2
        assert common_prefix_length([MAIN, A], [MAIN, A, C]) == 2
        assert common_prefix_length([A], [B]) == 0

    def test_implicit_chain_divergent(self):
        # return from B up to the common ancestor A, then call down to C
        assert implicit_chain([MAIN, A, B], [MAIN, A, C]) == [B, A, C]

    def test_implicit_chain_pure_call(self):
        # second walk goes deeper on the same path: no returns inferred
        assert implicit_chain([MAIN, A], [MAIN, A, B]) == [A, B]

    def test_implicit_chain_pure_return(self):
        assert implicit_chain([MAIN, A, B], [MAIN, A]) == [B, A]

    def test_implicit_chain_no_common_ancestor(self):
        assert implicit_chain([A, B], [C, D]) == [B, A, C, D]


class TestFigure3:
    """The paper's two-adjacent-events example: stacks [Main, A, B] then
    [Main, A, C] yield explicit call paths plus the implicit B→A→C flow."""

    @pytest.fixture
    def cfg(self):
        return CFGInferencer().infer([[MAIN, A, B], [MAIN, A, C]])

    def test_nodes(self, cfg):
        assert set(cfg.nodes()) == {MAIN, A, B, C}

    def test_explicit_paths(self, cfg):
        for src, dst in [(MAIN, A), (A, B), (A, C)]:
            assert EXPLICIT in cfg.edge_kinds(src, dst)

    def test_implicit_path(self, cfg):
        assert cfg.edge_kinds(B, A) == frozenset({IMPLICIT})
        assert IMPLICIT in cfg.edge_kinds(A, C)

    def test_exact_edge_set(self, cfg):
        assert set(cfg.edges()) == {(MAIN, A), (A, B), (A, C), (B, A)}


class TestInferencer:
    def test_empty_paths_are_skipped(self):
        cfg = CFGInferencer().infer([[MAIN, A], [], [MAIN, B]])
        # the empty path does not break adjacency: A→MAIN→B is inferred
        assert cfg.has_edge(A, MAIN) and cfg.has_edge(MAIN, B)

    def test_single_frame_paths(self):
        cfg = CFGInferencer().infer([[MAIN], [MAIN]])
        assert set(cfg.nodes()) == {MAIN}
        assert cfg.edge_count == 0

    def test_no_self_loops_from_repeated_stacks(self):
        cfg = CFGInferencer().infer([[MAIN, A], [MAIN, A]])
        assert not cfg.has_edge(A, A)
        assert set(cfg.edges()) == {(MAIN, A)}

    def test_benign_log_shape(self, tiny_log_lines):
        from repro.etw.parser import RawLogParser
        from repro.etw.stack_partition import StackPartitioner

        events = RawLogParser().parse_lines(tiny_log_lines)
        partitioner = StackPartitioner()
        cfg = CFGInferencer().infer([partitioner.app_path(e) for e in events])
        win_main = ("app.exe", "WinMain")
        assert cfg.has_edge(win_main, ("app.exe", "message_pump"))
        assert cfg.has_edge(win_main, ("app.exe", "load_config"))
        assert cfg.has_edge(win_main, ("app.exe", "net_loop"))
        # implicit returns between adjacent events
        assert cfg.has_edge(("app.exe", "message_pump"), win_main)

    PATHS = [[MAIN, A, B], [MAIN, A, C], [MAIN, A, B], [MAIN, D]]

    def test_generator_input_matches_list(self):
        # regression: the prev-tracking loop must consume an iterator
        # exactly once without skipping paths
        from_list = CFGInferencer().infer(self.PATHS)
        from_iter = CFGInferencer().infer(iter(self.PATHS))
        from_genexp = CFGInferencer().infer(path for path in self.PATHS)
        assert from_list == from_iter == from_genexp

    def test_paths_may_themselves_be_iterators(self):
        from_list = CFGInferencer().infer(self.PATHS)
        from_nested = CFGInferencer().infer(iter(path) for path in self.PATHS)
        assert from_list == from_nested

    def test_repeated_paths_add_nothing(self):
        # the path-level memo skips repeats: two cycles already visit
        # every distinct walk and every distinct adjacent pair, so more
        # repetitions leave the graph unchanged
        cycle = [[MAIN, A, B], [MAIN, A, C]]
        twice = CFGInferencer().infer(cycle * 2)
        looped = CFGInferencer().infer(cycle * 50)
        assert looped == twice


class TestInferMany:
    LOG1 = [[MAIN, A], [MAIN, A, B]]
    LOG2 = [[MAIN, C], [MAIN, C, D]]

    def sequential(self):
        inferencer = CFGInferencer()
        merged = CFG()
        merged.merge(inferencer.infer(self.LOG1))
        merged.merge(inferencer.infer(self.LOG2))
        return merged

    def test_no_implicit_edges_across_logs(self):
        merged = CFGInferencer().infer_many([self.LOG1, self.LOG2])
        assert merged.has_edge(MAIN, A) and merged.has_edge(MAIN, C)
        # Concatenating the logs into one stream draws the implicit
        # boundary transition [MAIN, A, B] → [MAIN, C] (B returns to A,
        # A to MAIN); infer_many treats them as separate captures.
        concatenated = CFGInferencer().infer(self.LOG1 + self.LOG2)
        assert concatenated.has_edge(B, A) and concatenated.has_edge(A, MAIN)
        assert not merged.has_edge(B, A) and not merged.has_edge(A, MAIN)

    def test_single_log_equals_infer(self):
        assert CFGInferencer().infer_many([self.LOG1]) == CFGInferencer().infer(
            self.LOG1
        )

    def test_accepts_generators(self):
        logs = (iter(log) for log in (self.LOG1, self.LOG2))
        assert CFGInferencer().infer_many(logs) == self.sequential()

    def test_empty_input_yields_empty_cfg(self):
        merged = CFGInferencer().infer_many([])
        assert merged.node_count == 0 and merged.edge_count == 0
