"""Seeded graph matching: LAP and transportation exactness, the block-form
relaxation, and ascent quality."""

import itertools
import math

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from vnom.canonical import enumerate_partitions
from vnom.core import (
    BlockAssignment,
    BlockModel,
    contiguous_assignment,
    log_likelihood,
    sample_sbm,
)
from vnom.sgm import (
    _gradient,
    _objective,
    _polish,
    _relaxation,
    sgm_match,
    solve_lap,
    solve_transport,
)


def brute_force_lap(cost, maximize):
    n = cost.shape[0]
    best_val = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n))
        better = best_val is None or (val > best_val if maximize else val < best_val)
        if better:
            best_val = val
            best_perm = perm
    return np.array(best_perm), best_val


def objective(adjacency, L, labels):
    """<A, H L H^T> for 1-based labels."""
    lab = np.asarray(labels) - 1
    return float(np.sum(adjacency * L[np.ix_(lab, lab)]))


def random_graph(rng, N, p=0.5):
    upper = np.triu(rng.random((N, N)) < p, 1)
    return upper | upper.T


def random_logodds(rng, K):
    L = rng.normal(size=(K, K))
    return (L + L.T) / 2


def random_problem(rng, max_n=8, max_k=3, max_m=3):
    """A random graph, log-odds matrix, seed labels and ambiguous sizes."""
    K = int(rng.integers(1, max_k + 1))
    n_sizes = rng.multinomial(int(rng.integers(1, max_n + 1)), np.full(K, 1.0 / K))
    m = int(rng.integers(0, max_m + 1))
    seed_labels = rng.integers(1, K + 1, size=m)
    N = m + int(n_sizes.sum())
    return random_graph(rng, N), random_logodds(rng, K), seed_labels, n_sizes


def exhaustive_maximum(adjacency, L, seed_labels, n_sizes):
    return max(
        objective(adjacency, L, np.concatenate([seed_labels, part]))
        for part in enumerate_partitions(n_sizes)
    )


def transport_reference(cost, sizes):
    """Optimal value by linear_sum_assignment on the column-repeated cost."""
    cols = np.repeat(np.arange(len(sizes)), sizes)
    rows, picked = linear_sum_assignment(cost[:, cols], maximize=True)
    return float(cost[rows, cols[picked]].sum())


class TestSolveLap:
    def test_identity_dominant(self):
        cost = np.eye(4) * 10.0
        col, value = solve_lap(cost, maximize=True)
        assert col.tolist() == [0, 1, 2, 3]
        assert value == 40.0

    def test_two_by_two_antidiagonal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        col, value = solve_lap(cost, maximize=True)
        assert col.tolist() == [1, 0]
        assert value == 2.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            cost = rng.normal(size=(n, n))
            for maximize in (False, True):
                col, value = solve_lap(cost, maximize=maximize)
                _, best_val = brute_force_lap(cost, maximize)
                assert value == pytest.approx(best_val, abs=1e-9)

    def test_non_finite_rejected(self):
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ValueError):
            solve_lap(cost)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_lap(np.zeros((2, 3)))


class TestSolveTransport:
    def check(self, cost, sizes):
        labels, value = solve_transport(cost, sizes)
        assert np.bincount(labels, minlength=len(sizes)).tolist() == list(sizes)
        assert value == pytest.approx(cost[np.arange(len(labels)), labels].sum(), abs=1e-12)
        assert value == pytest.approx(transport_reference(cost, sizes), abs=1e-9)
        again, _ = solve_transport(cost.copy(), np.array(sizes))
        assert again.tolist() == labels.tolist()

    def test_random_costs(self, rng):
        for _ in range(300):
            K = int(rng.integers(1, 6))
            n = int(rng.integers(1, 60))
            sizes = rng.multinomial(n, rng.dirichlet(np.ones(K)))
            self.check(rng.normal(size=(n, K)), sizes)

    def test_integer_costs_with_ties(self, rng):
        for _ in range(300):
            K = int(rng.integers(2, 5))
            n = int(rng.integers(1, 40))
            sizes = rng.multinomial(n, np.full(K, 1.0 / K))
            self.check(rng.integers(0, 3, size=(n, K)).astype(float), sizes)
        # every assignment is co-optimal
        self.check(np.zeros((7, 3)), [2, 4, 1])

    def test_zero_size_blocks(self, rng):
        for sizes in ([0, 3, 2], [3, 0, 2], [3, 2, 0], [0, 0, 5], [0, 4, 0, 1]):
            cost = rng.normal(size=(sum(sizes), len(sizes)))
            # the empty blocks must stay empty however attractive they are
            cost[:, np.flatnonzero(np.array(sizes) == 0)] += 100.0
            self.check(cost, sizes)

    def test_one_and_two_blocks(self, rng):
        labels, value = solve_transport(np.array([[1.0], [2.0], [3.0]]), [3])
        assert labels.tolist() == [0, 0, 0] and value == 6.0
        labels, value = solve_transport(np.array([[0.0, 1.0], [0.0, 5.0], [0.0, 2.0]]), [2, 1])
        assert labels.tolist() == [0, 1, 0] and value == 5.0
        for _ in range(100):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(0, n + 1))
            self.check(rng.normal(size=(n, 2)), [s, n - s])

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.zeros((3, 2)), [1, 1])
        with pytest.raises(ValueError):
            solve_transport(np.zeros((3, 2)), [4, -1])
        with pytest.raises(ValueError):
            solve_transport(np.zeros((3, 2)), [3])
        with pytest.raises(ValueError):
            solve_transport(np.array([[0.0, np.nan]]), [1, 0])


class TestLogOdds:
    def test_entries(self):
        lam = np.array([[0.5, 0.8], [0.8, 1.0]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)
        L = model.log_odds()
        assert L[0, 0] == 0.0
        assert L[0, 1] == pytest.approx(math.log(4))
        eps = 1e-6
        assert L[1, 1] == pytest.approx(math.log((1 - eps) / eps))
        assert L[1, 1] == pytest.approx(13.815509, abs=1e-5)

    def test_labels_keep_seeds_and_sizes(self, rng):
        # block 3 has no seeds; the seeds keep their labels and the
        # ambiguous vertices fill the blocks to n_sizes
        lam = np.full((3, 3), 0.5)
        model = BlockModel(m_sizes=(1, 1, 0), n_sizes=(2, 1, 1), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 3)
        result = sgm_match(graph.adjacency, model.log_odds(), graph.seed_labels, model.n_sizes)
        assert result.labels[:2].tolist() == [1, 2]
        assert np.bincount(result.labels[2:], minlength=4)[1:].tolist() == [2, 1, 1]

    def test_symmetric(self):
        lam = np.array([[0.3, 0.6], [0.6, 0.9]])
        model = BlockModel(m_sizes=(2, 1), n_sizes=(2, 2), lam=lam)
        L = model.log_odds()
        assert np.allclose(L, L.T)


def flat_objective_nxn(Q, adjacency, L, slot_labels, m):
    """The n x n relaxation <A, P B P^T> at P = diag(I, Q), with the
    matching's log-odds matrix B built explicitly from slot labels."""
    N = len(adjacency)
    lab = slot_labels - 1
    B = L[np.ix_(lab, lab)]
    P = np.zeros((N, N))
    P[:m, :m] = np.eye(m)
    P[m:, m:] = Q
    return float(np.sum(adjacency * (P @ B @ P.T)))


def gradient_nxn(Q, adjacency, L, slot_labels, m):
    lab = slot_labels - 1
    A = adjacency.astype(float)
    B = L[np.ix_(lab, lab)]
    linear = A[m:, :m] @ B[m:, :m].T + A[:m, m:].T @ B[:m, m:]
    A22, B22 = A[m:, m:], B[m:, m:]
    return linear + A22 @ Q @ B22.T + A22.T @ Q @ B22


def random_doubly_stochastic(rng, n, terms=6):
    weights = rng.dirichlet(np.ones(terms))
    return sum(w * np.eye(n)[rng.permutation(n)] for w in weights)


class TestSgmMatch:
    def test_single_ambiguous_vertex(self, rng):
        adjacency = random_graph(rng, 3)
        result = sgm_match(adjacency, random_logodds(rng, 2), [1, 2], (0, 1))
        assert result.labels.tolist() == [1, 2, 2]

    def test_attains_exhaustive_maximum(self, rng):
        # small generic instances: restarts and the polish reach the
        # global maximum of <A, H L H^T>
        for _ in range(10):
            adjacency, L, seed_labels, n_sizes = random_problem(rng, max_n=7)
            result = sgm_match(adjacency, L, seed_labels, n_sizes, restarts=10, rng_seed=1)
            best = exhaustive_maximum(adjacency, L, seed_labels, n_sizes)
            assert result.objective == pytest.approx(best, abs=1e-8)
            assert objective(adjacency, L, result.labels) == pytest.approx(best, abs=1e-8)

    def test_monotone_relaxed_objective(self, rng):
        for _ in range(20):
            adjacency, L, seed_labels, n_sizes = random_problem(rng, max_n=9)
            result = sgm_match(adjacency, L, seed_labels, n_sizes)
            hist = result.relaxed_objectives
            for prev, nxt in zip(hist, hist[1:]):
                assert nxt >= prev - 1e-8 * max(1.0, abs(prev))

    def test_gradient_matches_finite_differences(self, rng):
        # central finite differences of the relaxed objective at a random
        # interior point of the transportation polytope
        adjacency, L = random_graph(rng, 10), random_logodds(rng, 3)
        seed_labels = np.array([1, 3])
        const, C, A22 = _relaxation(adjacency, L, seed_labels)
        Y = random_doubly_stochastic(rng, 8) @ np.eye(3)[[0, 0, 0, 1, 1, 2, 2, 2]]
        grad = _gradient(A22 @ Y, C, L)
        h = 1e-5
        for _ in range(10):
            i, k = rng.integers(8), rng.integers(3)
            Yp, Ym = Y.copy(), Y.copy()
            Yp[i, k] += h
            Ym[i, k] -= h
            fd = (_objective(Yp, A22 @ Yp, const, C, L)
                  - _objective(Ym, A22 @ Ym, const, C, L)) / (2 * h)
            assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_block_form_equals_nxn_relaxation(self, rng):
        # f(Q S) and grad f(Q S) S^T reproduce the n x n objective and
        # gradient at any doubly stochastic Q
        for _ in range(20):
            adjacency, L, seed_labels, n_sizes = random_problem(rng, max_n=9, max_m=4)
            m, K = len(seed_labels), len(L)
            slots = np.repeat(np.arange(1, K + 1), n_sizes)
            S = np.eye(K)[slots - 1]
            Q = random_doubly_stochastic(rng, len(slots))
            Y = Q @ S
            const, C, A22 = _relaxation(adjacency, L, seed_labels)
            AY = A22 @ Y
            labels = np.concatenate([seed_labels, slots]).astype(int)
            assert _objective(Y, AY, const, C, L) == pytest.approx(
                flat_objective_nxn(Q, adjacency, L, labels, m), abs=1e-9)
            np.testing.assert_allclose(
                _gradient(AY, C, L) @ S.T, gradient_nxn(Q, adjacency, L, labels, m),
                rtol=0, atol=1e-9)

    def test_objective_at_least_flat_projection(self, rng):
        # the returned labels must beat (or tie) projecting the flat start
        # directly
        for _ in range(10):
            adjacency, L, seed_labels, n_sizes = random_problem(rng, max_n=11, max_m=2)
            n = int(n_sizes.sum())
            flat = np.tile(n_sizes / n, (n, 1))
            base, _ = solve_transport(flat, n_sizes)
            base_labels = np.concatenate([seed_labels, base + 1])
            result = sgm_match(adjacency, L, seed_labels, n_sizes)
            assert result.objective >= objective(adjacency, L, base_labels) - 1e-9

    def test_dimension_mismatch_rejected(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        with pytest.raises(ValueError):
            sgm_match(adjacency, np.zeros((2, 2)), [1], (1, 2))
        with pytest.raises(ValueError):
            sgm_match(adjacency, np.zeros((2, 2)), [1], (2,))
        with pytest.raises(ValueError):
            sgm_match(np.zeros((3, 4), dtype=bool), np.zeros((2, 2)), [1], (1, 1))


    def test_asymmetric_adjacency_rejected(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[0, 3] = True
        with pytest.raises(ValueError, match="square and symmetric"):
            sgm_match(adjacency, np.zeros((2, 2)), [1], (2, 1))

class TestPolish:
    def test_gains_are_twice_log_likelihood_differences(self, rng):
        made = 0
        for _ in range(20):
            K = int(rng.integers(2, 4))
            n_sizes = tuple(int(x) for x in rng.integers(1, 5, size=K))
            m_sizes = tuple(int(x) for x in rng.integers(0, 3, size=K))
            raw = rng.uniform(0.05, 0.95, size=(K, K))
            model = BlockModel(m_sizes=m_sizes, n_sizes=n_sizes, lam=(raw + raw.T) / 2)
            graph = sample_sbm(model, contiguous_assignment(model), int(rng.integers(2**32)))
            start = np.concatenate(
                [graph.seed_labels, rng.permutation(np.repeat(np.arange(1, K + 1), n_sizes))]
            )
            L = model.log_odds()
            labels, value, swaps = _polish(
                graph.adjacency, start, model.m, L, objective(graph.adjacency, L, start))
            assert value == pytest.approx(objective(graph.adjacency, L, labels), abs=1e-9)
            current = start.copy()
            for v, w, gain in swaps:
                before = log_likelihood(graph, BlockAssignment(current.copy()), model)
                i, j = model.m + v, model.m + w
                current[i], current[j] = current[j], current[i]
                after = log_likelihood(graph, BlockAssignment(current.copy()), model)
                assert gain == pytest.approx(2 * (after - before), abs=1e-9)
            assert current.tolist() == labels.tolist()
            made += len(swaps)
        assert made > 0
