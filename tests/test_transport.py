"""Transportation solvers: correctness and cross-backend agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.transport import (
    _solve_highs_batch,
    _validate,
    solve_transport,
    solve_transport_batch,
)
from repro.errors import TransportError


def random_instance(rng, n, m):
    supply = rng.random(n) + 0.05
    demand = rng.random(m) + 0.05
    demand *= supply.sum() / demand.sum()
    cost = rng.random((n, m)) * 10
    return supply, demand, cost


class TestValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [1.0], np.zeros((2, 1)))

    def test_rejects_negative_supply(self):
        with pytest.raises(TransportError):
            solve_transport([-1.0, 2.0], [1.0], np.zeros((2, 1)))

    def test_rejects_unbalanced(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [2.0], np.zeros((1, 1)))

    def test_rejects_nonfinite_cost(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [1.0], np.array([[np.inf]]))

    def test_rejects_unknown_backend(self):
        with pytest.raises(TransportError):
            solve_transport([1.0], [1.0], np.zeros((1, 1)), backend="magic")

    def test_rejects_zero_total(self):
        with pytest.raises(TransportError):
            solve_transport([0.0], [0.0], np.zeros((1, 1)))


class TestKnownSolutions:
    @pytest.mark.parametrize("backend", ["simplex", "highs", "networkx"])
    def test_identity_is_free(self, backend):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = solve_transport([0.5, 0.5], [0.5, 0.5], cost, backend=backend)
        assert res.cost == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("backend", ["simplex", "highs", "networkx"])
    def test_full_shift(self, backend):
        # All mass must move from bin 0 to bin 1 at distance 3.
        cost = np.array([[0.0, 3.0], [3.0, 0.0]])
        res = solve_transport([1.0, 0.0], [0.0, 1.0], cost, backend=backend)
        assert res.cost == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("backend", ["simplex", "highs"])
    def test_textbook_instance(self, backend):
        # Classic 3x3 transportation instance with optimum 39.
        supply = np.array([20.0, 30.0, 25.0])
        demand = np.array([10.0, 35.0, 30.0])
        cost = np.array([[2.0, 3.0, 1.0], [5.0, 4.0, 8.0], [5.0, 6.0, 8.0]])
        res = solve_transport(supply, demand, cost, backend=backend)
        expected = solve_transport(supply, demand, cost, backend="highs").cost
        assert res.cost == pytest.approx(expected, rel=1e-9)

    def test_flow_marginals(self):
        rng = np.random.default_rng(1)
        supply, demand, cost = random_instance(rng, 5, 7)
        res = solve_transport(supply, demand, cost, backend="simplex")
        assert np.allclose(res.flow.sum(axis=1), supply, atol=1e-9)
        assert np.allclose(res.flow.sum(axis=0), demand, atol=1e-9)
        assert (res.flow >= -1e-12).all()

    def test_degenerate_instance(self):
        # Degenerate: several partial sums coincide, forcing zero-flow pivots.
        supply = np.array([1.0, 1.0, 1.0])
        demand = np.array([1.0, 1.0, 1.0])
        cost = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
        res = solve_transport(supply, demand, cost, backend="simplex")
        assert res.cost == pytest.approx(3.0)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_simplex_matches_highs(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 14, size=2)
        supply, demand, cost = random_instance(rng, int(n), int(m))
        a = solve_transport(supply, demand, cost, backend="simplex")
        b = solve_transport(supply, demand, cost, backend="highs")
        assert a.cost == pytest.approx(b.cost, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_networkx_close_to_highs(self, seed):
        rng = np.random.default_rng(100 + seed)
        supply, demand, cost = random_instance(rng, 5, 6)
        a = solve_transport(supply, demand, cost, backend="networkx")
        b = solve_transport(supply, demand, cost, backend="highs")
        # Integer-scaled backend: agreement to the scaling resolution.
        assert a.cost == pytest.approx(b.cost, rel=1e-4, abs=1e-4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_simplex_never_beats_lp_optimum(self, seed):
        """The simplex solution is feasible, so cost >= LP optimum; and it
        should be equal since both are exact."""
        rng = np.random.default_rng(seed)
        supply, demand, cost = random_instance(rng, 4, 4)
        a = solve_transport(supply, demand, cost, backend="simplex")
        b = solve_transport(supply, demand, cost, backend="highs")
        assert a.cost >= b.cost - 1e-9
        assert a.cost == pytest.approx(b.cost, rel=1e-7, abs=1e-9)


class TestAutoBackend:
    def test_auto_small_uses_simplex_result(self):
        supply = np.array([1.0])
        demand = np.array([1.0])
        cost = np.array([[2.0]])
        assert solve_transport(supply, demand, cost).cost == pytest.approx(2.0)

    def test_auto_large_instance_works(self):
        rng = np.random.default_rng(0)
        supply, demand, cost = random_instance(rng, 30, 30)
        res = solve_transport(supply, demand, cost, backend="auto")
        ref = solve_transport(supply, demand, cost, backend="highs")
        assert res.cost == pytest.approx(ref.cost, rel=1e-7)


def _linprog_batch(instances, options):
    """The batched transport LP as ``scipy.optimize.linprog`` states it: the
    same row-major variables, supply rows, and demand rows minus the last,
    assembled through ``scipy.sparse``."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    rows, cols, obj, b, spans = [], [], [], [], []
    var_off = row_off = 0
    for supply, demand, cost in (_validate(*inst) for inst in instances):
        n, m = cost.shape
        var_rows, var_cols = np.divmod(np.arange(n * m), m)
        keep = var_cols < m - 1
        rows += [row_off + var_rows, row_off + n + var_cols[keep]]
        cols += [var_off + np.arange(n * m), var_off + np.flatnonzero(keep)]
        obj.append(cost.ravel())
        b += [supply, demand[:-1]]
        spans.append((var_off, n, m, cost))
        var_off += n * m
        row_off += n + m - 1
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    a_eq = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(row_off, var_off))
    res = linprog(
        np.concatenate(obj), A_eq=a_eq.tocsr(), b_eq=np.concatenate(b),
        bounds=(0, None), method="highs", options=options,
    )
    assert res.success
    out = []
    for off, n, m, cost in spans:
        flow = res.x[off : off + n * m].reshape(n, m)
        out.append((flow, float(np.sum(flow * cost))))
    return out


def _assert_matches_linprog(instances, options):
    ours = solve_transport_batch(instances, backend="highs")
    ref = _linprog_batch(instances, options)
    assert len(ours) == len(ref)
    for got, (flow, cost) in zip(ours, ref):
        assert np.array_equal(got.flow, flow)
        assert got.cost == cost


class TestHighsOracle:
    """The direct HiGHS model solve is bit-for-bit the LP ``linprog`` solves
    (same variables, constraints and options), so every EMD outcome is
    unchanged by skipping scipy's wrapper."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        instances = [
            random_instance(rng, *map(int, rng.integers(1, 12, size=2)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        _assert_matches_linprog(instances, {"presolve": False})

    @pytest.mark.parametrize("seed", range(6))
    def test_tied_costs(self, seed):
        rng = np.random.default_rng(50 + seed)
        instances = []
        for _ in range(int(rng.integers(1, 7))):
            supply, demand, cost = random_instance(rng, 6, 5)
            instances.append((supply, demand, np.round(cost / 4)))
        _assert_matches_linprog(instances, {"presolve": False})

    def test_single_row_and_column_shapes(self):
        rng = np.random.default_rng(7)
        instances = [
            random_instance(rng, 1, 6),
            random_instance(rng, 5, 1),
            random_instance(rng, 1, 1),
            random_instance(rng, 3, 4),
        ]
        _assert_matches_linprog(instances, {"presolve": False})

    def test_zero_mass_bins(self):
        rng = np.random.default_rng(8)
        instances = []
        for _ in range(4):
            supply, demand, cost = random_instance(rng, 6, 7)
            supply[[0, 3]] = 0.0
            demand[[2]] = 0.0
            demand *= supply.sum() / demand.sum()
            instances.append((supply, demand, cost))
        _assert_matches_linprog(instances, {"presolve": False})

    def test_presolved_large_instance(self):
        # 230 x 230 = 52,900 variables: above the presolve threshold, where
        # linprog runs HiGHS with its default options.
        rng = np.random.default_rng(9)
        _assert_matches_linprog([random_instance(rng, 230, 230)], None)

    def test_non_optimal_status_raises(self):
        # Unvalidated and unbalanced, so infeasible: the HiGHS status is
        # reported, not a garbage flow.
        instance = (np.ones(2), np.full(2, 3.0), np.zeros((2, 2)))
        with pytest.raises(TransportError, match="Infeasible"):
            _solve_highs_batch([instance])
