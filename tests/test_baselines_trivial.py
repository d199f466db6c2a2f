"""Tests for the trivial baselines and the paper's mechanisms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_mechanism
from repro.baselines.paper import SpeedSmoothingMechanism
from repro.baselines.trivial import (
    DownsamplingMechanism,
    IdentityMechanism,
    PseudonymizationMechanism,
)
from repro.core.speed_smoothing import SpeedSmoothingConfig


class TestIdentity:
    def test_returns_same_dataset(self, small_dataset):
        assert IdentityMechanism().publish(small_dataset).dataset is small_dataset


class TestDownsampling:
    def test_factor_validation(self):
        with pytest.raises(ValueError):
            DownsamplingMechanism(factor=0)

    def test_keeps_roughly_one_in_n(self, small_dataset):
        published = DownsamplingMechanism(factor=10).publish(small_dataset).dataset
        ratio = published.n_points / small_dataset.n_points
        assert 0.08 <= ratio <= 0.15

    def test_factor_one_is_identity(self, small_dataset):
        assert DownsamplingMechanism(factor=1).publish(small_dataset).dataset == small_dataset


class TestPseudonymization:
    def test_locations_unchanged_identifiers_changed(self, small_dataset):
        result = PseudonymizationMechanism(seed=0).publish(small_dataset)
        published = result.dataset
        assert set(published.user_ids).isdisjoint(set(small_dataset.user_ids))
        assert set(result.pseudonym_of) == set(published.user_ids)
        assert set(result.pseudonym_of.values()) == set(small_dataset.user_ids)
        assert published.n_points == small_dataset.n_points
        # The multiset of coordinates is identical.
        orig = np.sort(np.concatenate(small_dataset.all_coordinates()))
        new = np.sort(np.concatenate(published.all_coordinates()))
        np.testing.assert_array_equal(orig, new)

    def test_deterministic_given_seed(self, small_dataset):
        a = PseudonymizationMechanism(seed=5).publish(small_dataset).dataset
        b = PseudonymizationMechanism(seed=5).publish(small_dataset).dataset
        assert a.user_ids == b.user_ids


class TestPaperAdapters:
    def test_speed_smoothing_mechanism(self, small_dataset):
        mechanism = SpeedSmoothingMechanism(SpeedSmoothingConfig(epsilon_m=150.0))
        assert mechanism.config.epsilon_m == 150.0
        published = mechanism.publish(small_dataset).dataset
        assert 0 < published.n_points < small_dataset.n_points

    def test_full_pipeline_mechanism_keeps_report(self, small_dataset):
        result = make_mechanism("promesse").publish(small_dataset)
        assert result.report is not None
        assert result.report.published_points == result.dataset.n_points

    def test_repr_mentions_name(self):
        assert "identity" in repr(IdentityMechanism())
