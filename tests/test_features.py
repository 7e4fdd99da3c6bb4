"""3-tuple featurization and vocabulary behaviour."""

import numpy as np
import pytest

from repro.etw.parser import RawLogParser
from repro.preprocessing.features import UNKNOWN_ID, EventFeaturizer, Vocabulary


class TestVocabulary:
    def test_first_appearance_order(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 1
        assert vocab.add("b") == 2
        assert vocab.add("a") == 1
        assert len(vocab) == 2

    def test_frozen_unseen_maps_to_unknown(self):
        vocab = Vocabulary()
        vocab.add("a")
        vocab.freeze()
        assert vocab.add("new") == UNKNOWN_ID
        assert vocab.lookup("new") == UNKNOWN_ID
        assert vocab.lookup("a") == 1
        assert len(vocab) == 1


@pytest.fixture
def events(tiny_log_lines):
    return RawLogParser().parse_lines(tiny_log_lines)


def fit_transform(events):
    return EventFeaturizer().fit(events).transform(events)


class TestEventFeaturizer:
    def test_shape_and_determinism(self, events):
        feats = fit_transform(events)
        assert feats.shape == (3, 3)
        again = fit_transform(events)
        assert np.array_equal(feats, again)

    def test_ids_assigned_in_order(self, events):
        feats = fit_transform(events)
        # three distinct etypes / app sigs / system sigs, in appearance order
        assert feats[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert feats[:, 1].tolist() == [1.0, 2.0, 3.0]
        assert feats[:, 2].tolist() == [1.0, 2.0, 3.0]

    def test_unseen_event_maps_to_unknown(self, events):
        featurizer = EventFeaturizer().fit(events[:2])
        feats = featurizer.transform(events)
        assert feats[2].tolist() == [UNKNOWN_ID, UNKNOWN_ID, UNKNOWN_ID]

    def test_same_behaviour_same_id(self, events):
        featurizer = EventFeaturizer().fit(events)
        feats = featurizer.transform([events[0], events[0]])
        assert np.array_equal(feats[0], feats[1])

    def test_fit_over_multiple_streams(self, events):
        featurizer = EventFeaturizer().fit(events[:1], events[1:])
        assert featurizer.transform(events).min() >= 1

    def test_transform_before_fit_raises(self, events):
        with pytest.raises(RuntimeError):
            EventFeaturizer().transform(events)
