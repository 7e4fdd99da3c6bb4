"""Algorithm 2 — benignity scoring and the c = 1 − benignity inversion."""

import numpy as np
import pytest

from repro.core.cfg_inference import CFGInferencer
from repro.core.weights import WeightAssessor

MAIN = ("app.exe", "WinMain")
A = ("app.exe", "funcA")
B = ("app.exe", "funcB")
C = ("app.exe", "funcC")
PAYLOAD1 = ("app.exe", "payload_main")
PAYLOAD2 = ("<unknown>", "sub_7f000012")


@pytest.fixture
def assessor():
    benign_cfg = CFGInferencer().infer([[MAIN, A, B], [MAIN, A, C]])
    return WeightAssessor(benign_cfg)


class TestCheckCFG:
    def test_known_path_passes(self, assessor):
        assert assessor.check_cfg([MAIN, A, B])
        assert assessor.check_cfg([MAIN, A, C])

    def test_implicit_edges_count_as_reachable(self, assessor):
        # B→A is an implicit (return) edge of the benign CFG
        assert assessor.check_cfg([B, A])

    def test_unknown_node_fails(self, assessor):
        assert not assessor.check_cfg([MAIN, PAYLOAD1])

    def test_known_nodes_unknown_edge_fails(self, assessor):
        assert not assessor.check_cfg([MAIN, B])

    def test_empty_path_passes(self, assessor):
        assert assessor.check_cfg([])


class TestDensityArray:
    def test_alternating_layout(self, assessor):
        # [n0, e01, n1, e12, n2] for a 3-node path
        array = assessor.density_array([MAIN, A, B])
        assert array.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_alien_suffix(self, assessor):
        array = assessor.density_array([MAIN, A, PAYLOAD1])
        # MAIN ok, edge MAIN→A ok, A ok, edge A→payload missing, payload missing
        assert array.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_fully_alien(self, assessor):
        assert assessor.density_array([PAYLOAD1, PAYLOAD2]).tolist() == [0.0, 0.0, 0.0]

    def test_single_node(self, assessor):
        assert assessor.density_array([MAIN]).tolist() == [1.0]
        assert assessor.density_array([PAYLOAD1]).tolist() == [0.0]


class TestBenignity:
    def test_benign_path_scores_one(self, assessor):
        assert assessor.benignity([MAIN, A, B]) == 1.0

    def test_alien_path_scores_zero(self, assessor):
        assert assessor.benignity([PAYLOAD1, PAYLOAD2]) == 0.0

    def test_partial_path_in_between(self, assessor):
        score = assessor.benignity([MAIN, A, PAYLOAD1])
        assert score == pytest.approx(3.0 / 5.0)

    def test_empty_path_is_benign(self, assessor):
        assert assessor.benignity([]) == 1.0


class TestWeightInversion:
    """c_i = 1 − benignity: mislabeled benign noise → 0, payload → 1."""

    def test_inversion(self, assessor):
        assert assessor.event_weight([MAIN, A, B]) == 0.0
        assert assessor.event_weight([PAYLOAD1, PAYLOAD2]) == 1.0
        assert assessor.event_weight([MAIN, A, PAYLOAD1]) == pytest.approx(2.0 / 5.0)

    def test_assess_vector(self, assessor):
        weights = assessor.assess([[MAIN, A, B], [PAYLOAD1, PAYLOAD2], [MAIN, A, C]])
        assert isinstance(weights, np.ndarray)
        assert weights.tolist() == [0.0, 1.0, 0.0]
        assert np.all((weights >= 0.0) & (weights <= 1.0))


class TestAssessFastPath:
    """The memoized id-space assess against ``event_weight`` per path."""

    PATHS = [
        [],
        [MAIN],
        [PAYLOAD1],
        [MAIN, A, B],
        [MAIN, A, C],
        [B, A],
        [MAIN, B],              # known nodes, unknown edge
        [MAIN, A, PAYLOAD1],    # alien suffix
        [PAYLOAD1, PAYLOAD2],   # fully alien
        [MAIN, MAIN],           # repeated node, no self-loop in CFG
        [MAIN, A, B, PAYLOAD2, PAYLOAD1, MAIN],
    ] * 3  # repetition exercises the memo scatter

    def test_memoized_equals_naive_bit_for_bit(self, assessor):
        fast = assessor.assess(self.PATHS)
        per_path = np.asarray([assessor.event_weight(p) for p in self.PATHS])
        assert np.array_equal(fast, per_path)

    def test_accepts_generator(self, assessor):
        fast = assessor.assess(iter(self.PATHS))
        per_path = np.asarray([assessor.event_weight(p) for p in self.PATHS])
        assert np.array_equal(fast, per_path)

    def test_empty_input(self, assessor):
        result = assessor.assess([])
        assert result.shape == (0,) and result.dtype == np.float64

    def test_memo_invalidated_by_cfg_mutation(self, assessor):
        alien = [MAIN, B]
        assert assessor.assess([alien])[0] == assessor.event_weight(alien) > 0.0
        # adding the missing edge must flip the cached verdict
        assessor.benign_cfg.add_edge(MAIN, B)
        assert assessor.assess([alien])[0] == 0.0
        assert assessor.event_weight(alien) == 0.0

    def test_distinct_unknown_nodes_collapse_safely(self, assessor):
        # both paths map to the same id-tuple (-1 suffix) — and both
        # genuinely have the same weight under the naive path
        first, second = [MAIN, A, PAYLOAD1], [MAIN, A, PAYLOAD2]
        fast = assessor.assess([first, second])
        assert fast[0] == fast[1] == assessor.event_weight(first)
        assert assessor.event_weight(first) == assessor.event_weight(second)
