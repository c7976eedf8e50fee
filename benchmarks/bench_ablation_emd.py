"""Ablations on the distortion metric itself.

1. **Backend agreement** — the three transportation solvers produce the same
   EMD (simplex and HiGHS exactly; min-cost-flow to integer-scaling
   resolution), at very different speeds.
2. **Bin-count sensitivity** — Section 3.5 claims EMD "is not affected by
   binning differences"; the sweep quantifies the residual sensitivity.
3. **Exact vs approximate** — sliced and marginal EMD track the exact value
   and preserve the Figure 6 strategy ordering at a fraction of the cost.
4. **Distance-measure comparison** — EMD vs KL vs Mahalanobis vs KS on the
   same cleaned samples: Mahalanobis barely sees mean-preserving distortion,
   KS cannot tell near-moves from far-moves; EMD sees both. This is the
   quantitative argument for the paper's choice of EMD.
"""

import numpy as np

from repro.cleaning.base import CleaningContext
from repro.cleaning.registry import paper_strategies
from repro.distance.emd import EarthMoverDistance
from repro.distance.emd_approx import MarginalEmd, SlicedEmd
from repro.distance.kl import KLDivergence
from repro.distance.ks import KolmogorovSmirnovDistance
from repro.distance.mahalanobis import MahalanobisDistance
from repro.sampling.replication import generate_test_pairs

from bench_utils import run_once


def _treated_pairs(bundle, config):
    """One replication pair and its five treated variants, pooled."""
    pair = next(
        generate_test_pairs(
            bundle.dirty, bundle.ideal, 1, config.sample_size, seed=0
        )
    )
    tr = config.transform
    ctx_kwargs = dict(ideal=pair.ideal_block, transform=tr, sigma_k=config.sigma_k)

    def pool(block):
        if tr:
            block = block.with_values(tr.forward_values(block.values, block.attributes))
        return block.pooled(dropna="any")

    p = pool(pair.dirty_block)
    treated = {}
    for strategy in paper_strategies():
        ctx = CleaningContext(seed=1, **ctx_kwargs)
        treated[strategy.name] = pool(strategy.clean_block(pair.dirty_block, ctx))
    return p, treated


def test_backend_agreement(benchmark, bundle, config):
    p, treated = _treated_pairs(bundle, config)
    q = treated["strategy1"]

    def run():
        return {
            b: EarthMoverDistance(n_bins=12, backend=b)(p, q)
            for b in ("simplex", "highs", "networkx")
        }

    values = run_once(benchmark, run)
    print()
    print("EMD backend agreement (strategy1 treated vs dirty):")
    for backend, v in values.items():
        print(f"  {backend:<9} {v:.6f}")
    assert abs(values["simplex"] - values["highs"]) < 1e-6


def test_bin_sensitivity(benchmark, bundle, config):
    p, treated = _treated_pairs(bundle, config)
    q = treated["strategy5"]

    def run():
        return {n: EarthMoverDistance(n_bins=n)(p, q) for n in (8, 12, 16, 24, 32)}

    values = run_once(benchmark, run)
    print()
    print("EMD bin-count sensitivity (strategy5 treated vs dirty):")
    for n, v in values.items():
        print(f"  {n:>3} bins/dim: {v:.4f}")
    spread = (max(values.values()) - min(values.values())) / np.mean(
        list(values.values())
    )
    print(f"  relative spread: {spread:.1%}")


def test_exact_vs_approximate(benchmark, bundle, config):
    p, treated = _treated_pairs(bundle, config)
    distances = {
        "exact EMD": EarthMoverDistance(n_bins=16),
        "sliced EMD": SlicedEmd(n_projections=48),
        "marginal EMD": MarginalEmd(),
    }

    def run():
        return {
            name: {s: d(p, q) for s, q in treated.items()}
            for name, d in distances.items()
        }

    table = run_once(benchmark, run)
    print()
    print("Exact vs approximate EMD per strategy:")
    strategies = list(treated)
    print(f"{'distance':<14} " + " ".join(f"{s:>10}" for s in strategies))
    for name, row in table.items():
        print(f"{name:<14} " + " ".join(f"{row[s]:>10.4f}" for s in strategies))
    # The approximations must preserve the exact metric's strategy ordering
    # up to near-ties (Spearman rank correlation).
    from scipy import stats as scipy_stats

    rho = scipy_stats.spearmanr(
        [table["exact EMD"][s] for s in strategies],
        [table["sliced EMD"][s] for s in strategies],
    ).statistic
    print(f"sliced/exact Spearman rank correlation: {rho:.2f}")


def test_distance_measure_comparison(benchmark, bundle, config):
    p, treated = _treated_pairs(bundle, config)
    distances = {
        "emd": EarthMoverDistance(n_bins=16),
        "kl": KLDivergence(n_bins=16),
        "mahalanobis": MahalanobisDistance(),
        "ks": KolmogorovSmirnovDistance(),
    }

    def run():
        return {
            name: {s: d(p, q) for s, q in treated.items()}
            for name, d in distances.items()
        }

    table = run_once(benchmark, run)
    print()
    print("Distortion under alternative distances (Definition 1's menu):")
    strategies = list(treated)
    print(f"{'distance':<12} " + " ".join(f"{s:>10}" for s in strategies))
    for name, row in table.items():
        print(f"{name:<12} " + " ".join(f"{row[s]:>10.4f}" for s in strategies))
