"""SampleBlock: round-tripping, zero-copy views, sampling, pickling, padding."""

import pickle

import numpy as np
import pytest

from repro.data.block import SampleBlock
from repro.data.dataset import StreamDataset
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.errors import DataShapeError, ValidationError
from repro.experiments.config import build_population
from repro.sampling.replication import generate_test_pairs

from helpers import make_series
from test_sample_golden import RAGGED, STRATEGIES


def _uniform_dataset(n=4, t=6, v=3, seed=0, with_truth=True):
    rng = np.random.default_rng(seed)
    series = []
    for k in range(n):
        truth = rng.normal(size=(t, v)) if with_truth else None
        values = (truth.copy() if with_truth else rng.normal(size=(t, v)))
        values[rng.random(values.shape) < 0.2] = np.nan
        series.append(TimeSeries(NodeId(0, 0, k), values, truth=truth))
    return StreamDataset(series)


class TestRoundTrip:
    def test_to_block_shape_and_metadata(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        assert (block.n_series, block.length, block.n_attributes) == (4, 6, 3)
        assert block.attributes == ds.attributes
        assert block.nodes == tuple(s.node for s in ds)
        assert np.array_equal(block.indices, np.arange(4))

    def test_values_masks_and_truth_lossless(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        back = StreamDataset.from_block(block)
        assert back.attributes == ds.attributes
        for original, restored in zip(ds, back):
            assert restored.node == original.node
            assert np.array_equal(restored.values, original.values, equal_nan=True)
            assert np.array_equal(
                restored.missing_mask, original.missing_mask
            )
            assert np.array_equal(restored.truth, original.truth)

    def test_truth_omitted_when_any_series_lacks_it(self):
        ds = _uniform_dataset(with_truth=False)
        assert ds.to_block().truth is None

    def test_ragged_lengths_pad(self):
        ragged = StreamDataset(
            [
                make_series([[1.0, 2.0, 0.5], [2.0, 3.0, 0.6]]),
                make_series([[1.0, 2.0, 0.5]]),
            ]
        )
        block = ragged.to_block()
        assert block.values.shape == (2, 2, 3)
        assert block.lengths.tolist() == [2, 1]
        assert block.padded
        assert np.isnan(block.values[1, 1]).all()
        assert block.valid.tolist() == [[True, True], [True, False]]
        assert not block.missing_mask[1, 1].any()

    def test_pooled_matches_dataset_pooled(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        for dropna in ("none", "any", "all"):
            assert np.array_equal(
                block.pooled(dropna), ds.pooled(dropna), equal_nan=True
            )


class TestZeroCopyViews:
    def test_view_mutation_visible_in_parent_block(self):
        block = _uniform_dataset().to_block()
        view_ds = StreamDataset.from_block(block)
        view_ds[2].values[0, 0] = 123.25
        assert block.values[2, 0, 0] == 123.25

    def test_block_mutation_visible_in_views(self):
        block = _uniform_dataset().to_block()
        view_ds = StreamDataset.from_block(block)
        block.values[1, 3, 2] = -7.5
        assert view_ds[1].values[3, 2] == -7.5

    def test_to_block_copies_out_of_the_source_series(self):
        ds = _uniform_dataset()
        block = ds.to_block()
        block.values[0, 0, 0] = 99.0
        assert ds[0].values[0, 0] != 99.0


class TestTakeAndCopy:
    def test_take_gathers_with_repeats(self):
        block = _uniform_dataset().to_block()
        sub = block.take([3, 1, 1])
        assert sub.n_series == 3
        assert np.array_equal(sub.values[1], sub.values[2], equal_nan=True)
        assert np.array_equal(sub.values[0], block.values[3], equal_nan=True)
        assert sub.nodes == (block.nodes[3], block.nodes[1], block.nodes[1])
        assert np.array_equal(sub.indices, [3, 1, 1])

    def test_take_is_a_copy(self):
        block = _uniform_dataset().to_block()
        sub = block.take([0])
        sub.values[0, 0, 0] = 42.0
        assert block.values[0, 0, 0] != 42.0

    def test_take_rejects_bad_indices(self):
        block = _uniform_dataset().to_block()
        with pytest.raises(ValidationError):
            block.take([])
        with pytest.raises(ValidationError):
            block.take([7])

    def test_copy_shares_metadata_but_not_values(self):
        block = _uniform_dataset().to_block()
        dup = block.copy()
        dup.values[0, 0, 0] = 5.5
        assert block.values[0, 0, 0] != 5.5
        assert dup.truth is block.truth
        assert dup.nodes is block.nodes


class TestPickling:
    def test_block_round_trips_through_pickle(self):
        block = _uniform_dataset().to_block()
        restored = pickle.loads(pickle.dumps(block))
        assert np.array_equal(restored.values, block.values, equal_nan=True)
        assert np.array_equal(restored.truth, block.truth)
        assert restored.attributes == block.attributes
        assert restored.nodes == block.nodes


class TestValidation:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DataShapeError):
            SampleBlock(np.zeros((3, 4)), ("a",), (NodeId(0, 0, 0),) * 3)

    def test_rejects_attribute_mismatch(self):
        with pytest.raises(DataShapeError):
            SampleBlock(np.zeros((2, 3, 3)), ("a", "b"), (NodeId(0, 0, 0),) * 2)

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(DataShapeError):
            SampleBlock(np.zeros((2, 3, 2)), ("a", "b"), (NodeId(0, 0, 0),))

    def test_rejects_truth_shape_mismatch(self):
        with pytest.raises(DataShapeError):
            SampleBlock(
                np.zeros((2, 3, 2)),
                ("a", "b"),
                (NodeId(0, 0, 0),) * 2,
                truth=np.zeros((2, 3, 3)),
            )


@pytest.fixture(scope="module")
def ragged_pair():
    """One replication pair (B = 12) of the ragged tiny golden population."""
    bundle = build_population(scale="tiny", seed=0, generator_config=RAGGED)
    return next(generate_test_pairs(bundle.dirty, bundle.ideal, 1, 12, seed=4))


def _ragged_dataset(lengths=(6, 3, 0, 5), v=3, seed=1):
    """Series of the given lengths (one zero-length), truth on every one."""
    rng = np.random.default_rng(seed)
    series = []
    for k, length in enumerate(lengths):
        truth = rng.normal(size=(length, v))
        values = truth.copy()
        values[rng.random(values.shape) < 0.3] = np.nan
        series.append(TimeSeries(NodeId(0, 1, k), values, truth=truth))
    return StreamDataset(series)


def _widen(block, extra):
    """*block* with *extra* more NaN padding steps (same lengths)."""
    pad = np.full((block.n_series, extra, block.n_attributes), np.nan)
    return SampleBlock(
        values=np.concatenate([block.values, pad], axis=1),
        attributes=block.attributes,
        nodes=block.nodes,
        truth=None if block.truth is None else np.concatenate([block.truth, pad], axis=1),
        indices=block.indices,
        lengths=block.lengths,
    )


class TestPaddedLayout:
    """Ragged samples travel as NaN-padded blocks with a lengths vector."""

    @pytest.mark.parametrize(
        "lengths", [[3, 3], [3, 3, 3, 3], [3, -1, 2], [3, 7, 2]],
        ids=["short", "long", "negative", "above-T"],
    )
    def test_lengths_validation(self, lengths):
        values = np.zeros((3, 5, 2))
        with pytest.raises(DataShapeError):
            SampleBlock(values, ("a", "b"), (NodeId(0, 0, 0),) * 3, lengths=lengths)

    def test_default_lengths_are_the_width(self):
        block = _uniform_dataset().to_block()
        assert block.lengths.tolist() == [6] * 4
        assert not block.padded
        assert block.valid.all()

    def test_ragged_round_trip_keeps_nan_payloads_and_truth(self):
        ds = _ragged_dataset()
        payload = np.frombuffer(np.uint64(0x7FF8000000000ABC).tobytes(), dtype=float)[0]
        ds[0].values[2, 1] = payload
        block = ds.to_block()
        assert block.values.shape == (4, 6, 3)
        assert block.lengths.tolist() == [6, 3, 0, 5]
        back = StreamDataset.from_block(block)
        for original, restored in zip(ds, back):
            assert restored.node == original.node
            assert restored.length == original.length
            assert restored.values.tobytes() == original.values.tobytes()
            assert restored.truth.tobytes() == original.truth.tobytes()
        assert np.isnan(block.truth[1, 3:]).all()

    def test_take_and_pickle_carry_lengths(self):
        block = _ragged_dataset().to_block()
        sub = block.take([3, 1, 1, 2])
        assert sub.lengths.tolist() == [5, 3, 3, 0]
        assert np.array_equal(sub.indices, [3, 1, 1, 2])
        restored = pickle.loads(pickle.dumps(sub))
        assert restored.lengths.tolist() == [5, 3, 3, 0]
        assert np.array_equal(restored.values, sub.values, equal_nan=True)
        assert restored.copy().lengths.tolist() == [5, 3, 3, 0]
        assert sub.with_values(sub.values).lengths.tolist() == [5, 3, 3, 0]

    @pytest.mark.parametrize("dropna", ["none", "any", "all"])
    def test_pooled_never_returns_padding(self, dropna):
        ds = _ragged_dataset()
        block = ds.to_block()
        pooled = block.pooled(dropna)
        assert np.array_equal(pooled, ds.pooled(dropna), equal_nan=True)
        assert _widen(block, 4).pooled(dropna).tobytes() == pooled.tobytes()
        if dropna == "none":
            assert pooled.shape[0] == ds.n_records

    def test_zero_length_member_scores_zero(self, tiny_bundle):
        from repro.core.glitch_index import GlitchWeights, series_glitch_scores_block
        from repro.glitches.detectors import DetectorSuite

        block = _ragged_dataset().to_block()
        suite = DetectorSuite.from_ideal(tiny_bundle.ideal)
        glitches = suite.annotate_block(block)
        scores = series_glitch_scores_block(glitches, GlitchWeights())
        assert scores[2] == 0.0
        assert glitches.matrix(2).length == 0
        assert not glitches.bits[2].any()

    def test_block_glitches_equal_dataset_glitches(self, tiny_bundle):
        from repro.core.glitch_index import (
            GlitchWeights,
            series_glitch_scores,
            series_glitch_scores_block,
        )
        from repro.glitches.detectors import DetectorSuite, ScaleTransform

        ds = StreamDataset(
            TimeSeries(s.node, s.values[: 60 - 7 * k], s.attributes)
            for k, s in enumerate(tiny_bundle.dirty.series[:8])
        )
        assert len({s.length for s in ds}) == 8
        suite = DetectorSuite.from_ideal(
            tiny_bundle.ideal, transform=ScaleTransform.log_attr1()
        )
        per_series = suite.annotate_dataset(ds)
        for block in (ds.to_block(), _widen(ds.to_block(), 9)):
            glitches = suite.annotate_block(block)
            for i, matrix in enumerate(per_series):
                assert np.array_equal(glitches.matrix(i).bits, matrix.bits)
            assert not glitches.bits[~block.valid].any()
            assert glitches.record_fractions() == per_series.record_fractions()
            np.testing.assert_array_equal(
                series_glitch_scores_block(glitches, GlitchWeights()),
                series_glitch_scores(per_series, GlitchWeights()),
            )

    def test_cleaning_leaves_padding_untouched(self, ragged_pair):
        from repro.cleaning.base import CleaningContext
        from repro.glitches.detectors import ScaleTransform

        block = ragged_pair.dirty_block
        padding = ~block.valid
        assert padding.any()
        for name, factory in STRATEGIES.items():
            context = CleaningContext(
                ideal=ragged_pair.ideal_block,
                transform=ScaleTransform.log_attr1(),
                seed=5,
            )
            treated = factory().clean_block(block, context)
            assert treated.lengths.tolist() == block.lengths.tolist(), name
            assert np.isnan(treated.values[padding]).all(), name

    def test_pad_width_does_not_change_outcomes(self, ragged_pair):
        from repro.cleaning.partial import PartialCleaner
        from repro.cleaning.registry import paper_strategies, strategy_by_name
        from repro.cleaning.remeasure import RemeasureStrategy
        from repro.core.framework import ExperimentConfig, evaluate_pair_outcomes
        from repro.sampling.replication import TestPair

        pair = ragged_pair
        assert pair.dirty_block.padded
        strategies = paper_strategies() + [
            strategy_by_name("interpolate"),
            strategy_by_name("regression"),
            RemeasureStrategy(coverage=0.4, include_outliers=True),
            PartialCleaner(strategy_by_name("strategy1"), fraction=0.5),
        ]
        for distance in ("emd", "ks"):
            config = ExperimentConfig(sample_size=12, distance=distance)
            keys = []
            for extra in (0, 13):
                widened = TestPair(
                    0, _widen(pair.dirty_block, extra), _widen(pair.ideal_block, extra)
                )
                outcomes = evaluate_pair_outcomes(widened, strategies, config, seed=9)
                keys.append(
                    [
                        (o.strategy, o.improvement.hex(), o.distortion.hex())
                        + tuple(v.hex() for v in o.treated_fractions.values())
                        for o in outcomes
                    ]
                )
            assert keys[0] == keys[1]
