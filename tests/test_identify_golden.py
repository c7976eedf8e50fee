"""Golden fingerprints of the ideal-set identification.

The streaming and push-service identity tests compare their split against
:func:`identify_ideal`; since every engine runs the one shared fixed-point
loop, those comparisons cannot notice a change in the loop itself. These
pins can: each case records the sha256 of the ideal indices (as little-endian
``int64``) and the ``float.hex`` of every fitted sigma limit, so any change
to which series are ideal, or to a single bit of a limit, fails here.

The single-pass test pins the cost shape of the loop: the
suite-independent missing/inconsistent rates are profiled once, and each
round recomputes only the outlier rates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.generator import GeneratorConfig
from repro.experiments.config import build_population
from repro.glitches.constraints import ConstraintSet
from repro.glitches.detectors import DetectorSuite, ScaleTransform, identify_ideal

RAGGED = GeneratorConfig(
    n_rnc=2,
    towers_per_rnc=5,
    sectors_per_tower=10,
    series_length=60,
    min_length=40,
)


def fingerprint(partition, suite) -> tuple[int, str, dict]:
    """``(n_ideal, sha256 of the ideal indices, {attr: (lo.hex, hi.hex)})``."""
    ideal = np.asarray(partition.ideal_indices, dtype="<i8")
    limits = suite.outlier_detector.limits
    return (
        len(ideal),
        hashlib.sha256(ideal.tobytes()).hexdigest(),
        {a: tuple(float(b).hex() for b in limits.bounds(a)) for a in limits.attributes},
    )


#: Recorded from the per-series annotate loop that the shared fixed point
#: replaced; any drift from these values is a numbers change.
GOLDEN = {
    "tiny-raw": (
        11,
        "281e676d69abaec21b77578bf24f1462c51d46ade179f70b057a090800f1aea6",
        {
            "attr1": ("-0x1.7ba5a20a6a162p+6", "0x1.1f8183e6c0ec5p+7"),
            "attr2": ("-0x1.130f37d6e5da3p+5", "0x1.8a6d89bac8e83p+5"),
            "attr3": ("0x1.dca26d71a88d8p-1", "0x1.0b13b3d7ea453p+0"),
        },
    ),
    "tiny-log": (
        5,
        "da2aa9aade7b01484e7cd9a19be97f77b2f4879139d0118a673eab86d1e9a24a",
        {
            "attr1": ("0x1.cf1e7d1787220p-1", "0x1.3a81e46fa4911p+2"),
            "attr2": ("-0x1.86049fe4622e6p+4", "0x1.364a564843831p+5"),
            "attr3": ("0x1.dd7fc7ca35c87p-1", "0x1.0ae714c048c05p+0"),
        },
    ),
    "small-raw": (
        236,
        "2f8ad2e8edd9dcbbeb591c368dd7760edcbc9354f8620e2282c3edc0f9bef01d",
        {
            "attr1": ("-0x1.4bb739cc51dc3p+7", "0x1.bfac3ae820dcdp+7"),
            "attr2": ("-0x1.23fa25543974cp+6", "0x1.6eb132b57dc6ap+6"),
            "attr3": ("0x1.af9f077a2dbfep-1", "0x1.1f97a1fc226bbp+0"),
        },
    ),
    "small-log": (
        192,
        "2dbeb84dcd7abfbfdbcd4131b2b4a0d5d1c71e6b4d57f7f9c551cdaf994adc02",
        {
            "attr1": ("0x1.3f3e28d43db34p-1", "0x1.5b90a8bb51e04p+2"),
            "attr2": ("-0x1.30d0ae86dc40cp+6", "0x1.7c09c0b97b9c4p+6"),
            "attr3": ("0x1.bce5c407dc1c7p-1", "0x1.195661de5a9f4p+0"),
        },
    ),
    "ragged-raw": (
        36,
        "a49d74f28c7087ae3753ec9362c76b7158e458c9ca6920c304d5f68fa5323a31",
        {
            "attr1": ("-0x1.45bc837491abep+7", "0x1.be32c66870422p+7"),
            "attr2": ("-0x1.9a943ffb2ad26p+5", "0x1.162dd2593eaa6p+6"),
            "attr3": ("0x1.baa389e5d1c7cp-1", "0x1.1a9a024ddfbbbp+0"),
        },
    ),
    "ragged-log": (
        10,
        "df33ece49d133a61833f6840d9e9b464a21a375aba44c9f685c7b7aad54352fe",
        {
            "attr1": ("0x1.74f3e1ad8cd9cp-1", "0x1.569ed6002df70p+2"),
            "attr2": ("-0x1.95388ca409e82p+5", "0x1.14acd1dd5a3a0p+6"),
            "attr3": ("0x1.d9bb301223771p-1", "0x1.0c729668c0c16p+0"),
        },
    ),
}


@pytest.fixture(scope="module")
def ragged_population():
    return build_population(scale="tiny", seed=0, generator_config=RAGGED).population


def _population(request, name):
    if name == "ragged":
        return request.getfixturevalue("ragged_population")
    return request.getfixturevalue(f"{name}_bundle").population


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_identification_matches_golden(request, case):
    name, scale = case.split("-")
    transform = ScaleTransform.log_attr1() if scale == "log" else None
    partition, suite = identify_ideal(_population(request, name), transform=transform)
    assert fingerprint(partition, suite) == GOLDEN[case]


def test_identify_profiles_once(monkeypatch, tiny_bundle):
    """Constraints are evaluated once per series, however many rounds run,
    and no round re-annotates a series with the full suite."""
    calls = []
    evaluate = ConstraintSet.evaluate

    def counted(self, series):
        calls.append(series.node)
        return evaluate(self, series)

    def forbidden(self, series):
        raise AssertionError("identify_ideal must not annotate whole series")

    monkeypatch.setattr(ConstraintSet, "evaluate", counted)
    monkeypatch.setattr(DetectorSuite, "annotate", forbidden)
    population = tiny_bundle.population
    for max_iter in (1, 5):
        calls.clear()
        identify_ideal(population, max_iter=max_iter, backend="serial")
        assert len(calls) == len(population)
