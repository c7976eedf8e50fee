"""The block layout against the golden fingerprints.

Every strategy, the detector suite and the full experiment loop run on
:class:`~repro.data.block.SampleBlock` tensors only. These tests call the
block entry points directly — ``clean_block``, ``annotate_block``,
``series_glitch_scores_block`` — on one uniform and one NaN-padded ragged
pair, and compare every treated value, glitch bit and score with the
fingerprints ``tests/test_sample_golden.py`` recorded from the per-series
reference path. The full run must also stay bitwise-identical across
execution backends.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cleaning.base import CleaningContext, IdentityStrategy
from repro.cleaning.partial import PartialCleaner
from repro.cleaning.registry import strategy_by_name
from repro.cleaning.remeasure import RemeasureStrategy
from repro.core.distortion import statistical_distortion_batch
from repro.core.executor import ProcessBackend, SerialBackend, ThreadBackend
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.glitch_index import (
    GlitchWeights,
    series_glitch_scores,
    series_glitch_scores_block,
)
from repro.data.dataset import StreamDataset
from repro.experiments.config import build_population
from repro.glitches.detectors import DetectorSuite, ScaleTransform
from repro.sampling.replication import generate_test_pairs

from test_sample_golden import (
    GOLDEN_ANNOTATION,
    GOLDEN_RUN,
    GOLDEN_TREATED,
    RAGGED,
    glitches_fingerprint,
    golden_pair,
    outcome_keys,
    run_strategies,
    values_fingerprint,
)

REGISTRY_NAMES = [f"strategy{i}" for i in range(1, 6)]


@pytest.fixture(scope="module")
def block_pair(tiny_bundle):
    """The uniform golden pair (B = 14, seed 11)."""
    return golden_pair(tiny_bundle)


@pytest.fixture(scope="module")
def block_pairs(block_pair):
    """The uniform and the ragged golden pair, by population name."""
    ragged = build_population(scale="tiny", seed=0, generator_config=RAGGED)
    return {"uniform": block_pair, "ragged": golden_pair(ragged)}


def _context(pair, log=True, seed=123):
    return CleaningContext(
        ideal=pair.ideal_block,
        transform=ScaleTransform.log_attr1() if log else None,
        seed=seed,
    )


def _assert_matches_golden(pairs, factory, name, log=True):
    """``factory().clean_block`` on each pair's dirty block hits its golden."""
    scale = "log" if log else "raw"
    for population, pair in pairs.items():
        treated = factory().clean_block(pair.dirty_block, _context(pair, log=log))
        assert treated.values.shape == pair.dirty_block.values.shape
        fingerprint = values_fingerprint(StreamDataset.from_block(treated))
        assert fingerprint == GOLDEN_TREATED[f"{population}-{scale}-{name}"], population


class TestStrategyEquivalence:
    """clean_block() reproduces the per-series goldens under fixed seeds."""

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    @pytest.mark.parametrize("log", [True, False])
    def test_registry_strategy(self, block_pairs, name, log):
        _assert_matches_golden(
            block_pairs, lambda: strategy_by_name(name), name, log=log
        )

    @pytest.mark.parametrize(
        "name", ["interpolate", "interpolate+winsorize", "regression"]
    )
    def test_extension_strategies(self, block_pairs, name):
        _assert_matches_golden(block_pairs, lambda: strategy_by_name(name), name)

    def test_identity_strategy(self, block_pairs):
        _assert_matches_golden(block_pairs, IdentityStrategy, "identity")

    @pytest.mark.parametrize("coverage", [1.0, 0.4])
    def test_remeasure(self, block_pairs, coverage):
        _assert_matches_golden(
            block_pairs,
            lambda: RemeasureStrategy(coverage=coverage, include_outliers=True),
            f"remeasure@{coverage}",
        )

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_partial_cleaner(self, block_pairs, fraction):
        def factory():
            return PartialCleaner(strategy_by_name("strategy4"), fraction=fraction)

        _assert_matches_golden(block_pairs, factory, f"partial@{fraction}")
        assert factory().cost_fraction == fraction


class TestLegacyConstraintCompat:
    def test_evaluate_only_subclass_works_on_blocks(self, block_pair):
        from repro.glitches.constraints import Constraint, ConstraintSet

        class LegacyNegativeAttr2(Constraint):
            """Implements only the original per-series contract."""

            def evaluate(self, series):
                mask = np.zeros(series.values.shape, dtype=bool)
                col = series.values[:, 1]
                with np.errstate(invalid="ignore"):
                    mask[:, 1] = np.isfinite(col) & (col < 0)
                return mask

            def describe(self):
                return "attr2 >= 0 (legacy)"

        constraint_set = ConstraintSet([LegacyNegativeAttr2()])
        block = block_pair.dirty_block
        block_mask = constraint_set.evaluate_values(block.values, block.attributes)
        for i, series in enumerate(block_pair.dirty):
            np.testing.assert_array_equal(
                constraint_set.evaluate(series), block_mask[i]
            )


class TestAnnotationEquivalence:
    def test_annotate_block_matches_annotate_dataset(self, block_pairs):
        for population, pair in block_pairs.items():
            suite = DetectorSuite.from_ideal(
                pair.ideal, transform=ScaleTransform.log_attr1()
            )
            block = suite.annotate_block(pair.dirty_block)
            assert (
                glitches_fingerprint(block.to_dataset_glitches())
                == GOLDEN_ANNOTATION[f"{population}-log"]
            ), population
            per_series = suite.annotate_dataset(pair.dirty)
            assert per_series.record_fractions() == block.record_fractions()

    def test_block_scores_match_series_scores(self, block_pairs):
        weights = GlitchWeights()
        for population, pair in block_pairs.items():
            suite = DetectorSuite.from_ideal(pair.ideal)
            glitches = suite.annotate_block(pair.dirty_block)
            assert (
                glitches_fingerprint(glitches.to_dataset_glitches(), weights)
                == GOLDEN_ANNOTATION[f"{population}-raw"]
            ), population
            np.testing.assert_array_equal(
                series_glitch_scores_block(glitches, weights),
                series_glitch_scores(suite.annotate_dataset(pair.dirty), weights),
            )


class TestDistortionEquivalence:
    def test_block_columns_match_per_series_pooling(self, block_pair):
        context = _context(block_pair)
        strategies = [strategy_by_name(n) for n in REGISTRY_NAMES]
        treated_blocks = [
            s.clean_block(block_pair.dirty_block, context) for s in strategies
        ]
        treated_sets = [StreamDataset.from_block(b) for b in treated_blocks]
        transform = ScaleTransform.log_attr1()
        from_blocks = statistical_distortion_batch(
            block_pair.dirty_block, treated_blocks, transform=transform
        )
        from_series = statistical_distortion_batch(
            block_pair.dirty, treated_sets, transform=transform
        )
        assert from_blocks == from_series


class TestFullRunEquivalence:
    """Outcome lists hit the golden and are bitwise-identical on all backends."""

    def test_block_vs_loop_across_backends(self, tiny_bundle):
        cfg = ExperimentConfig(n_replications=2, sample_size=10, seed=3, distance="emd")
        backends = {
            "serial": SerialBackend,
            "thread": lambda: ThreadBackend(2),
            "process": lambda: ProcessBackend(2, min_units=1),
        }
        reference_keys = None
        for name, factory in backends.items():
            result = ExperimentRunner(
                tiny_bundle.dirty,
                tiny_bundle.ideal,
                config=cfg,
                backend=factory(),
            ).run(run_strategies())
            keys = outcome_keys(result)
            if reference_keys is None:
                reference_keys = keys
                digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
                assert digest == GOLDEN_RUN["uniform-emd"]
            assert keys == reference_keys, f"outcomes diverged: backend={name}"

    def test_fast_path_engages_by_default(self, tiny_bundle):
        pair = next(
            generate_test_pairs(tiny_bundle.dirty, tiny_bundle.ideal, 1, 5, seed=0)
        )
        assert pair.dirty_block is not None
        assert pair.ideal_block is not None
