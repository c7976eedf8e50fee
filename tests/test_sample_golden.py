"""Golden fingerprints of cleaning, annotation and full runs on uniform and
ragged samples.

Every strategy, the detector suite and the experiment runner are pinned on
one uniform-length and one ragged tiny population (series lengths 40-60),
on the raw and the log-attr1 analysis scale. The fingerprints were recorded
from the per-series reference path, the only path ragged samples used to
take, so any change to a single treated value, glitch bit, score or outcome
float fails here, whatever sample layout the code runs on.

Each case stores a sha256: treated values hash every series' length and
little-endian ``float64`` bytes (NaN payloads included); annotations hash
the glitch bits plus the ``float.hex`` of the record fractions and
per-series scores; runs hash the ``float.hex`` of every outcome field.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cleaning.base import CleaningContext, IdentityStrategy
from repro.cleaning.partial import PartialCleaner
from repro.cleaning.registry import paper_strategies, strategy_by_name
from repro.cleaning.remeasure import RemeasureStrategy
from repro.core.framework import ExperimentConfig, ExperimentRunner
from repro.core.glitch_index import GlitchWeights, series_glitch_scores
from repro.data.generator import GeneratorConfig
from repro.experiments.config import build_population
from repro.glitches.detectors import DetectorSuite, ScaleTransform
from repro.glitches.types import GlitchType
from repro.sampling.replication import generate_test_pairs

RAGGED = GeneratorConfig(
    n_rnc=2,
    towers_per_rnc=5,
    sectors_per_tower=10,
    series_length=60,
    min_length=40,
)

#: Strategy factories by fingerprint name (fresh instance per case).
STRATEGIES = {
    **{f"strategy{i}": (lambda i=i: strategy_by_name(f"strategy{i}")) for i in range(1, 6)},
    "interpolate": lambda: strategy_by_name("interpolate"),
    "interpolate+winsorize": lambda: strategy_by_name("interpolate+winsorize"),
    "regression": lambda: strategy_by_name("regression"),
    "identity": IdentityStrategy,
    "remeasure@1.0": lambda: RemeasureStrategy(coverage=1.0, include_outliers=True),
    "remeasure@0.4": lambda: RemeasureStrategy(coverage=0.4, include_outliers=True),
    "partial@0.0": lambda: PartialCleaner(strategy_by_name("strategy4"), fraction=0.0),
    "partial@0.5": lambda: PartialCleaner(strategy_by_name("strategy4"), fraction=0.5),
    "partial@1.0": lambda: PartialCleaner(strategy_by_name("strategy4"), fraction=1.0),
}

DISTANCES = ("emd", "kl", "ks")


def run_strategies():
    """The panel of the pinned full runs."""
    return paper_strategies() + [
        strategy_by_name("interpolate"),
        strategy_by_name("regression"),
        RemeasureStrategy(coverage=0.4, include_outliers=True),
        PartialCleaner(strategy_by_name("strategy1"), fraction=0.5),
    ]


def _transform(scale: str):
    return ScaleTransform.log_attr1() if scale == "log" else None


def golden_pair(bundle):
    """The pinned replication pair of a population (B = 14, seed 11)."""
    return next(generate_test_pairs(bundle.dirty, bundle.ideal, 1, 14, seed=11))


def golden_context(pair, scale: str) -> CleaningContext:
    return CleaningContext(ideal=pair.ideal, transform=_transform(scale), seed=123)


def values_fingerprint(dataset) -> str:
    """sha256 over every series' length and raw ``float64`` bytes."""
    h = hashlib.sha256()
    for series in dataset:
        h.update(np.int64(series.length).tobytes())
        h.update(np.ascontiguousarray(series.values, dtype="<f8").tobytes())
    return h.hexdigest()


def treated_fingerprint(pair, scale: str, name: str) -> str:
    """Fingerprint of one strategy's treated copy of the pair's dirty side."""
    treated = STRATEGIES[name]().clean(pair.dirty, golden_context(pair, scale))
    return values_fingerprint(treated)


def glitches_fingerprint(glitches, weights=None) -> str:
    """sha256 over per-series glitch bits, record fractions and scores."""
    h = hashlib.sha256()
    for matrix in glitches:
        h.update(np.int64(matrix.length).tobytes())
        h.update(np.ascontiguousarray(matrix.bits, dtype=np.uint8).tobytes())
    fractions = glitches.record_fractions()
    h.update(",".join(float(fractions[g]).hex() for g in GlitchType).encode())
    scores = series_glitch_scores(glitches, weights or GlitchWeights())
    h.update(",".join(float(s).hex() for s in scores).encode())
    return h.hexdigest()


def annotation_fingerprint(pair, scale: str) -> str:
    """Fingerprint of the dirty side's annotation under the ideal-fitted suite."""
    suite = DetectorSuite.from_ideal(pair.ideal, transform=_transform(scale))
    return glitches_fingerprint(suite.annotate_dataset(pair.dirty))


def outcome_keys(result) -> list:
    """Every outcome field, floats as ``float.hex``."""
    return [
        [
            o.strategy,
            o.replication,
            float(o.improvement).hex(),
            float(o.distortion).hex(),
            float(o.glitch_index_dirty).hex(),
            float(o.glitch_index_treated).hex(),
            float(o.cost_fraction).hex(),
            [[g.name, float(v).hex()] for g, v in sorted(o.dirty_fractions.items())],
            [[g.name, float(v).hex()] for g, v in sorted(o.treated_fractions.items())],
        ]
        for o in result.outcomes
    ]


def run_fingerprint(bundle, distance: str, seed=3) -> str:
    """sha256 of an ``ExperimentRunner`` run's outcome keys (R = 2, B = 10)."""
    config = ExperimentConfig(
        n_replications=2, sample_size=10, seed=seed, distance=distance
    )
    result = ExperimentRunner(bundle.dirty, bundle.ideal, config=config).run(
        run_strategies()
    )
    return hashlib.sha256(json.dumps(outcome_keys(result)).encode()).hexdigest()


#: Recorded from the per-series cleaning/annotation path before the sample
#: layouts were collapsed; any drift from these values is a numbers change.
GOLDEN_TREATED: dict[str, str] = {
    "ragged-log-identity": (
        "42327176d5ff1490a9ddc952e1a9d98a8145f4b65b481919bce67f3df39eeac9"
    ),
    "ragged-log-interpolate": (
        "b39401675cbc37ebf4b25ae903f2122b7bf4faa8e6a1a167ed8cc1c26c258375"
    ),
    "ragged-log-interpolate+winsorize": (
        "7066e0691a9fdab419ec29ffd9f0692ffa03e5bad5dffbe124ce187780ced215"
    ),
    "ragged-log-partial@0.0": (
        "42327176d5ff1490a9ddc952e1a9d98a8145f4b65b481919bce67f3df39eeac9"
    ),
    "ragged-log-partial@0.5": (
        "643a55075536d9f83d237ca4f84bef83906534ff1d3f35a48575c6a679f38147"
    ),
    "ragged-log-partial@1.0": (
        "9f79db294647d50fe593b56dc9ebe97a8926ac1eb8801402f3e3576a43e3e863"
    ),
    "ragged-log-regression": (
        "889013dd24a735bc0a26afa07a3db8e27f40691ff41090fe55dbce384d1e4594"
    ),
    "ragged-log-remeasure@0.4": (
        "de4c21f3fb3c9ffed52b16768d147cb69018d6593c7b7972e66e63c935a6dd07"
    ),
    "ragged-log-remeasure@1.0": (
        "458ab91e42a9283e7735e5c060a194c203caa1adb26f6cd8cfb2ef3ff4d03b9e"
    ),
    "ragged-log-strategy1": (
        "5347a2d0b90e683936865360dd565cb5d92b2486d61060301f51342a87026299"
    ),
    "ragged-log-strategy2": (
        "f1fcea2f4574fb7b19c4edba7fec2c315c7dff4d4b6f3ec8c0ee2990226dffcc"
    ),
    "ragged-log-strategy3": (
        "97181d6a8ca4386257b86a0b803e11ce693d6c72d576b4f1f564869757c87a1e"
    ),
    "ragged-log-strategy4": (
        "9f79db294647d50fe593b56dc9ebe97a8926ac1eb8801402f3e3576a43e3e863"
    ),
    "ragged-log-strategy5": (
        "19ca3164fe67218234e118f9cb752efe9f74ef115281cd3bcffc38ce7bb91a0c"
    ),
    "ragged-raw-identity": (
        "42327176d5ff1490a9ddc952e1a9d98a8145f4b65b481919bce67f3df39eeac9"
    ),
    "ragged-raw-interpolate": (
        "b39401675cbc37ebf4b25ae903f2122b7bf4faa8e6a1a167ed8cc1c26c258375"
    ),
    "ragged-raw-interpolate+winsorize": (
        "d292e6304edd19e2668d90fc6e3cf2a53018b3127f6ba241db3cb4906c0087c8"
    ),
    "ragged-raw-partial@0.0": (
        "42327176d5ff1490a9ddc952e1a9d98a8145f4b65b481919bce67f3df39eeac9"
    ),
    "ragged-raw-partial@0.5": (
        "2154e64afac0b3bc1e5304702a033b67b042d72837917dd96ea250a0a4886e17"
    ),
    "ragged-raw-partial@1.0": (
        "08e7b80fc605ac0bc09574de8817f472c71f8d32a28c6e24870157bb0ea1edc0"
    ),
    "ragged-raw-regression": (
        "8d2f8e67feec27900a675732ae2f9bd00fad7427cf690879bb3b33ae92e59bc2"
    ),
    "ragged-raw-remeasure@0.4": (
        "50851014f8e2969c73e8b0e7561e75f2445468a64019b7c9517c09679db1242a"
    ),
    "ragged-raw-remeasure@1.0": (
        "fdf15c85c0624384156bee23faf2c8edb076cc8989a43a7264da5d93c5c46494"
    ),
    "ragged-raw-strategy1": (
        "a5f2f8abca0439f42dea39e26a9949898e5b92341e1fddf6bdc93357e5f93a87"
    ),
    "ragged-raw-strategy2": (
        "52cccebc6413674733daca9634d31d55f7405d81afe872185d21e54465bf6ab6"
    ),
    "ragged-raw-strategy3": (
        "cb7ef016adc24e888f9bbc6af2c7484636a7ee17228c4a393663f4374ceda883"
    ),
    "ragged-raw-strategy4": (
        "08e7b80fc605ac0bc09574de8817f472c71f8d32a28c6e24870157bb0ea1edc0"
    ),
    "ragged-raw-strategy5": (
        "cfb0b3363bf108a371aa05d759e6d356b7260b1a978458e79d961d56d252978f"
    ),
    "uniform-log-identity": (
        "011448d4eb7f90fed2e3b2ffd8b272a213a7017e5f6aa545fd8b89bc8869be19"
    ),
    "uniform-log-interpolate": (
        "5406764c2edb8e89b0b168a2eb5cef5b9445349cb511e21f5d2dd1834d6e2b4c"
    ),
    "uniform-log-interpolate+winsorize": (
        "1a955b1e6c423c35e5c6428888a44367c02ec24b43b74eb9410336f916e9a81d"
    ),
    "uniform-log-partial@0.0": (
        "011448d4eb7f90fed2e3b2ffd8b272a213a7017e5f6aa545fd8b89bc8869be19"
    ),
    "uniform-log-partial@0.5": (
        "fe8006808297a24713bb32fa9a51bed0720808e6387aec0546defcefce2845b4"
    ),
    "uniform-log-partial@1.0": (
        "9564828f568e8cdde4180a9823b497a9211aa6eb15e217a0c52947dabc20439b"
    ),
    "uniform-log-regression": (
        "7c10bbfcda3397249594c830c1921e247da68aab0386599f64c478116199bd2d"
    ),
    "uniform-log-remeasure@0.4": (
        "bdbe36c3a722915f8374240e20b2d71a64791e49e684e0ef6f7a431e609042e9"
    ),
    "uniform-log-remeasure@1.0": (
        "dad899fc49f1088d1b13fcf667bf0f764e0932c1f71be2ab7c8994ecbd6edc48"
    ),
    "uniform-log-strategy1": (
        "0df7ebb81f29fe0e81ded33a5e1c2a956455c0ffb394bed5c6940790554c168c"
    ),
    "uniform-log-strategy2": (
        "854ca7369d53aea99fd145c30ec4625d3630f0cfc578ae855eaa57c5e304192c"
    ),
    "uniform-log-strategy3": (
        "eb6976cef835dd7693878d83cd5eccb819e292f5257fba000ced79b27117fa3f"
    ),
    "uniform-log-strategy4": (
        "9564828f568e8cdde4180a9823b497a9211aa6eb15e217a0c52947dabc20439b"
    ),
    "uniform-log-strategy5": (
        "42a707884297e1801a865bbee3bac6d72801a2c4574c4ad92281e5c4e11cc853"
    ),
    "uniform-raw-identity": (
        "011448d4eb7f90fed2e3b2ffd8b272a213a7017e5f6aa545fd8b89bc8869be19"
    ),
    "uniform-raw-interpolate": (
        "5406764c2edb8e89b0b168a2eb5cef5b9445349cb511e21f5d2dd1834d6e2b4c"
    ),
    "uniform-raw-interpolate+winsorize": (
        "c0a96a3119123e0e44986cad8cbb89c244104ae266d838cc40093f985cb467f8"
    ),
    "uniform-raw-partial@0.0": (
        "011448d4eb7f90fed2e3b2ffd8b272a213a7017e5f6aa545fd8b89bc8869be19"
    ),
    "uniform-raw-partial@0.5": (
        "0182a1e7285921cbfeffb38970b83fef26ebddef3c8fd3a082427a53d42b0e47"
    ),
    "uniform-raw-partial@1.0": (
        "d668badb01221855f518a8abec66de49bd34a0559861438e6e3b61c0ab88cb7c"
    ),
    "uniform-raw-regression": (
        "7735a2391e2b1899986f8dfcfd958e20ae8eacfa72fd739f79db95c340c92270"
    ),
    "uniform-raw-remeasure@0.4": (
        "162f7fc8b528dfd70d9e3a55e5f4e7e5f138d47cff978d042681a080bfcc9196"
    ),
    "uniform-raw-remeasure@1.0": (
        "8ba256ea235c36d0bd606dbdfcc0658ce235ba4f8e287ddc800bd6b601cd1ecb"
    ),
    "uniform-raw-strategy1": (
        "64cfa98cf4fefce219fc290e21a9df0c94df3a5197a7d739c759dbe61d8459e5"
    ),
    "uniform-raw-strategy2": (
        "ab6e2760a5772edfa947a7c716ac6e51561dbe89f19239b246c1b39b32151e21"
    ),
    "uniform-raw-strategy3": (
        "afa09a444520b7d13190d805f0a08208d8a8509c438ca2f5f929ee501426bb9d"
    ),
    "uniform-raw-strategy4": (
        "d668badb01221855f518a8abec66de49bd34a0559861438e6e3b61c0ab88cb7c"
    ),
    "uniform-raw-strategy5": (
        "27a926cb2990c06b8adfd4f9d47131ad07572add7d16bc170c6681d10ddc44f3"
    ),
}
GOLDEN_ANNOTATION: dict[str, str] = {
    "ragged-log": (
        "cb591e605579c749ccac262ab89befa8b514abe51c5541147afa37e6644f2bc4"
    ),
    "ragged-raw": (
        "e2cd2a60996f9e7a296fca397029751acec7d55bd22c58627d24c8acc0c9c591"
    ),
    "uniform-log": (
        "c77d2ffb7876b2d1f556fe6bbda9176e4d33fb1687fceda0c327cee5ead9176d"
    ),
    "uniform-raw": (
        "4292e0ffad514b7759b5cd7bd8cde6e29209a27986cef00124cb1c38e1878d18"
    ),
}
GOLDEN_RUN: dict[str, str] = {
    "ragged-emd": (
        "96cde807421401a0abfaa284b77219db329448045006f9fc41e55b3dd97bd2f0"
    ),
    "ragged-kl": (
        "f5bfa73ef75b75df575c268f7c6d34918cf1c0f82001cdaaba1162b541ceee91"
    ),
    "ragged-ks": (
        "e88fab9a962d4e40fda51d7d6b18ab71a0c6ef0e031d0a1fa2f57682aec77f5b"
    ),
    "uniform-emd": (
        "f0763a3d0c6eafd546b5d7914f0a534eddf03c9250fef1bdbb6c503904141ec7"
    ),
    "uniform-kl": (
        "98c5229f33392604b1267940e5871d91fdc094d3e112a11948064b8da6666d6d"
    ),
    "uniform-ks": (
        "e9f00be02c353a71420799ea93b60d3bd5652c65d9864c1cd79cbb662a39a6b5"
    ),
}

#: A run whose config seed is a ``SeedSequence``: the evaluator spawns the
#: per-replication strategy streams from the sequence itself before the
#: pair draws spawn theirs, so this pins that consumption order.
GOLDEN_SEEDSEQUENCE_RUN = (
    "68d85bfd948f8859671701c4feee58127616fb4b0c23b2db02e76d81c3dbe3c2"
)


@pytest.fixture(scope="session")
def ragged_bundle():
    return build_population(scale="tiny", seed=0, generator_config=RAGGED)


@pytest.fixture(scope="session")
def golden_pairs(tiny_bundle, ragged_bundle):
    return {"uniform": golden_pair(tiny_bundle), "ragged": golden_pair(ragged_bundle)}


def test_ragged_pair_is_ragged(golden_pairs):
    lengths = {s.length for s in golden_pairs["ragged"].dirty}
    assert len(lengths) > 1
    assert {s.length for s in golden_pairs["uniform"].dirty} == {60}


@pytest.mark.parametrize("case", sorted(GOLDEN_TREATED))
def test_treated_values_match_golden(golden_pairs, case):
    population, scale, name = case.split("-", 2)
    assert treated_fingerprint(golden_pairs[population], scale, name) == GOLDEN_TREATED[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_ANNOTATION))
def test_annotation_matches_golden(golden_pairs, case):
    population, scale = case.split("-")
    assert annotation_fingerprint(golden_pairs[population], scale) == GOLDEN_ANNOTATION[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_RUN))
def test_run_outcomes_match_golden(request, case):
    population, distance = case.split("-")
    bundle = request.getfixturevalue(
        "tiny_bundle" if population == "uniform" else "ragged_bundle"
    )
    assert run_fingerprint(bundle, distance) == GOLDEN_RUN[case]


def test_seedsequence_run_matches_golden(tiny_bundle):
    fingerprint = run_fingerprint(tiny_bundle, "emd", seed=np.random.SeedSequence(5))
    assert fingerprint == GOLDEN_SEEDSEQUENCE_RUN
