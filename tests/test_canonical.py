"""Exact canonical nomination against a rational brute-force oracle."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_instance, random_symmetric_lambda
from vnom import canonical
from vnom.canonical import (
    DEFAULT_GUARD,
    InfeasibleEnumerationError,
    canonical_nominate,
    conditional_block1_probability,
    enumerate_partitions,
    partition_count,
)
from vnom.core import BlockModel, LabeledGraph, clamp_probabilities


def oracle_block1_probability(graph, model):
    """Exact conditional probabilities by rational arithmetic over all
    partitions, multiplying raw pair probabilities directly."""
    m, n = model.m, model.n
    lam = clamp_probabilities(model.lam)
    lam_frac = np.empty(lam.shape, dtype=object)
    for k in range(model.K):
        for l in range(model.K):
            lam_frac[k, l] = Fraction(lam[k, l])
    total = Fraction(0)
    numer = [Fraction(0)] * n
    for part in enumerate_partitions(model.n_sizes):
        labels = np.concatenate([graph.seed_labels, part]) - 1
        weight = Fraction(1)
        for i in range(m + n):
            for j in range(i + 1, m + n):
                p = lam_frac[labels[i], labels[j]]
                weight *= p if graph.adjacency[i, j] else 1 - p
        total += weight
        for v in range(n):
            if part[v] == 1:
                numer[v] += weight
    return np.array([float(nu / total) for nu in numer])


class TestEnumeratePartitions:
    def test_counts(self):
        assert partition_count((1, 1)) == 2
        assert partition_count((2, 0)) == 1
        assert partition_count((4, 3, 3)) == 4200

    def test_exhaustive_and_unique(self):
        parts = [tuple(p) for p in enumerate_partitions((2, 1))]
        assert len(parts) == 3
        assert len(set(parts)) == 3
        assert parts == sorted(parts)

    def test_lexicographic_order(self):
        parts = [tuple(p) for p in enumerate_partitions((1, 1, 1))]
        assert parts == sorted(parts)
        assert len(parts) == 6

    def test_guard(self):
        with pytest.raises(InfeasibleEnumerationError):
            list(enumerate_partitions((10, 10, 10), guard=100))

    def test_cache_keeps_only_latest_sizes(self):
        first = canonical._partition_matrix((2, 1), DEFAULT_GUARD)
        assert list(canonical._partition_cache) == [(2, 1)]
        second = canonical._partition_matrix((1, 2, 1), DEFAULT_GUARD)
        assert list(canonical._partition_cache) == [(1, 2, 1)]
        assert first.shape == (3, 3) and second.shape == (12, 4)


class TestConditionalProbability:
    def test_two_partition_symmetry(self):
        # no seeds, symmetric Lambda: both partitions carry equal weight
        lam = np.array([[0.6, 0.2], [0.2, 0.6]])
        model = BlockModel(m_sizes=(0, 0), n_sizes=(1, 1), lam=lam)
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([], dtype=int))
        scores = conditional_block1_probability(graph, model)
        assert np.allclose(scores.prob, [0.5, 0.5])

    def test_seeded_hand_example(self):
        # one block-1 seed u, single edge u ~ v1: weights 0.8^2 * 0.8 vs
        # 0.2^2 * 0.8 after cancelling shared factors
        lam = np.array([[0.8, 0.2], [0.2, 0.5]])
        model = BlockModel(m_sizes=(1, 0), n_sizes=(1, 1), lam=lam)
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1]))
        scores = conditional_block1_probability(graph, model)
        expected = 0.512 / (0.512 + 0.032)
        assert scores.prob[0] == pytest.approx(expected, abs=1e-9)
        assert scores.prob[1] == pytest.approx(1 - expected, abs=1e-9)

    def test_probabilities_sum_to_n1(self, rng):
        for _ in range(20):
            graph, model = random_instance(rng, max_n=6, max_k=3)
            scores = conditional_block1_probability(graph, model)
            assert scores.prob.sum() == pytest.approx(model.n_sizes[0], abs=1e-9)

    def test_matches_rational_oracle(self, rng):
        for _ in range(20):
            graph, model = random_instance(rng, max_n=4, max_k=3)
            scores = conditional_block1_probability(graph, model)
            oracle = oracle_block1_probability(graph, model)
            assert np.allclose(scores.prob, oracle, atol=1e-12, rtol=0)


class TestCanonicalNominate:
    def test_hand_example_orders_by_probability(self):
        lam = np.array([[0.8, 0.2], [0.2, 0.5]])
        model = BlockModel(m_sizes=(1, 0), n_sizes=(1, 1), lam=lam)
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1]))
        nomination = canonical_nominate(graph, model)
        assert nomination.order.tolist() == [1, 2]

    def test_constant_lambda_gives_id_order(self):
        lam = np.full((2, 2), 0.5)
        model = BlockModel(m_sizes=(1, 1), n_sizes=(2, 1), lam=lam)
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 3] = adj[3, 0] = True
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1, 2]))
        nomination = canonical_nominate(graph, model)
        assert nomination.order.tolist() == [2, 3, 4]

    def test_relabeling_equivariance(self, rng):
        # permuting the ambiguous vertices permutes the list identically
        for _ in range(10):
            graph, model = random_instance(rng, max_n=5, max_k=2, max_m=2)
            m, n = model.m, model.n
            if n < 2:
                continue
            probs = conditional_block1_probability(graph, model).prob
            # exact ties fall back to vertex-id order and are not equivariant
            if np.min(np.abs(np.subtract.outer(probs, probs))[~np.eye(n, dtype=bool)]) < 1e-9:
                continue
            perm = np.concatenate([np.arange(m), m + rng.permutation(n)])
            adj = graph.adjacency[np.ix_(perm, perm)]
            permuted = LabeledGraph(adjacency=adj, seed_labels=graph.seed_labels)
            base = canonical_nominate(graph, model)
            moved = canonical_nominate(permuted, model)
            # position of original vertex v in the permuted graph
            inverse = np.empty(m + n, dtype=int)
            inverse[perm] = np.arange(m + n)
            assert moved.order.tolist() == [int(inverse[v]) for v in base.order]
