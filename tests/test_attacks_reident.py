"""Tests for the re-identification attacks (POI matching and footprint)."""

from __future__ import annotations

import pytest

from repro.attacks.reident import (
    FootprintReidentifier,
    KnownPoi,
    ReidentificationConfig,
    Reidentifier,
)
from repro.baselines.trivial import PseudonymizationMechanism
from repro.core.trajectory import MobilityDataset
from repro.experiments.workloads import split_train_publish


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReidentificationConfig(match_distance_m=0.0)
        with pytest.raises(ValueError):
            ReidentificationConfig(assignment="magic")
        with pytest.raises(ValueError):
            FootprintReidentifier(cell_size_m=0.0)
        with pytest.raises(ValueError):
            FootprintReidentifier(assignment="magic")


class TestPoiMatchingAttack:
    def test_reidentifies_pseudonymized_raw_data(self, small_world):
        training, publish = split_train_publish(small_world, 0.5)
        attacker = Reidentifier()
        knowledge = attacker.knowledge_from_dataset(training)
        publication = PseudonymizationMechanism(seed=1).publish(publish)
        result = attacker.attack(publication.dataset, knowledge)
        # Ground truth: the pseudonym -> original user mapping of the publication.
        accuracy = result.accuracy(dict(publication.pseudonym_of))
        assert accuracy >= 0.7, "POI matching must re-identify most raw pseudonymous traces"

    def test_accuracy_empty_truth(self):
        from repro.attacks.reident import ReidentificationResult

        result = ReidentificationResult(predicted={"p1": "a"}, scores={"p1": {"a": 1.0}})
        assert result.accuracy({}) == 0.0
        assert result.accuracy({"p1": "a"}) == 1.0
        assert result.accuracy({"p1": "b"}) == 0.0

    def test_similarity_empty_sets(self):
        attacker = Reidentifier()
        assert attacker._similarity([], [KnownPoi(45.0, 4.0)]) == 0.0
        assert attacker._similarity([], []) == 0.0

    def test_greedy_assignment_allows_collisions(self, small_world):
        training, publish = split_train_publish(small_world, 0.5)
        attacker = Reidentifier(ReidentificationConfig(assignment="greedy"))
        knowledge = attacker.knowledge_from_dataset(training)
        result = attacker.attack(publish, knowledge)
        # Identifiers are unchanged here, so the attack is essentially matching
        # each user to herself; every prediction should be non-None.
        assert all(result.predicted.values())

    def test_attack_with_no_knowledge(self, small_world):
        attacker = Reidentifier()
        result = attacker.attack(small_world.dataset, {})
        assert all(v is None for v in result.predicted.values())


class TestFootprintAttack:
    def test_reidentifies_unmodified_locations(self, small_world):
        training, publish = split_train_publish(small_world, 0.5)
        attacker = FootprintReidentifier()
        knowledge = attacker.knowledge_from_dataset(training)
        result = attacker.attack(publish, knowledge)
        truth = {u: u for u in publish.user_ids}
        assert result.accuracy(truth) >= 0.8

    def test_empty_published_dataset(self, small_world):
        attacker = FootprintReidentifier()
        knowledge = attacker.knowledge_from_dataset(small_world.dataset)
        result = attacker.attack(MobilityDataset(), knowledge)
        assert result.predicted == {}

    def test_jaccard_similarity_bounds(self):
        import numpy as np

        attacker = FootprintReidentifier()
        a = np.array([3, 7, 11], dtype=np.int64)
        assert attacker._jaccard(a, a) == pytest.approx(1.0)
        assert attacker._jaccard(a, np.array([99], dtype=np.int64)) == 0.0
        assert attacker._jaccard(np.zeros(0, dtype=np.int64), a) == 0.0
        assert attacker._jaccard(a, np.array([7, 99], dtype=np.int64)) == pytest.approx(1.0 / 4.0)
        # The scalar oracle agrees bitwise (integer set sizes on both paths).
        reference = FootprintReidentifier(engine="reference")
        assert reference._jaccard(a, np.array([7, 99], dtype=np.int64)) == attacker._jaccard(
            a, np.array([7, 99], dtype=np.int64)
        )
