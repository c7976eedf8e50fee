"""Comparing cleaning strategies — including your own.

Shows how to define a custom strategy (a composite of building blocks plus a
fully custom class), evaluate it against the paper's five, and read the
three-dimensional verdict.

Run:  python examples/strategy_tradeoff.py
"""

import numpy as np

from repro import (
    CleaningContext,
    CleaningStrategy,
    CompositeStrategy,
    InterpolationImputation,
    SampleBlock,
    WinsorizeOutliers,
    build_population,
    experiment_config,
    paper_strategies,
    render_strategy_summaries,
    viable_strategies,
)
from repro.core.framework import ExperimentRunner


class ClampRatioStrategy(CleaningStrategy):
    """A domain-specific rule: clamp Attribute 3 into [0, 1] and drop
    nothing else. Cheap, targeted, and constraint-aware — the kind of
    strategy the framework is meant to evaluate against generic ones."""

    name = "clamp-ratio"

    def clean_block(self, block: SampleBlock, context: CleaningContext) -> SampleBlock:
        # A strategy works on the whole sample as one (n_series, T, v) block.
        # Ragged samples are NaN-padded past each series' length; clipping
        # keeps NaN, so the padding stays padding.
        values = block.values.copy()
        j = block.attributes.index("attr3")
        with np.errstate(invalid="ignore"):
            values[..., j] = np.clip(values[..., j], 0.0, 1.0)
        return block.with_values(values)


def main() -> None:
    bundle = build_population(scale="small", seed=2)
    config = experiment_config("small", log_transform=True)

    strategies = paper_strategies() + [
        # Composite from building blocks: structure-aware imputation plus
        # the paper's outlier repair.
        CompositeStrategy(
            "interp+winsorize",
            mi_treatment=InterpolationImputation(),
            outlier_treatment=WinsorizeOutliers(),
        ),
        ClampRatioStrategy(),
    ]

    # backend=None defers to REPRO_BACKEND (e.g. "process:4" to fan the
    # replications out over four workers — the numbers do not change).
    runner = ExperimentRunner(bundle.dirty, bundle.ideal, config=config)
    result = runner.run(strategies)

    print(render_strategy_summaries(
        result.summaries(), title="Paper strategies vs custom strategies"
    ))

    # A user with a distortion budget: which strategies remain?
    budget = 0.35
    survivors = viable_strategies(result.summaries(), max_distortion=budget)
    print(f"\nviable strategies with distortion <= {budget}:")
    for p in survivors:
        print(
            f"  {p.strategy:<18} improvement={p.improvement:6.2f} "
            f"distortion={p.distortion:.3f}"
        )


if __name__ == "__main__":
    main()
