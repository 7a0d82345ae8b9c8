"""Exact canonical nomination against a rational brute-force oracle."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import BASE_LAMBDA, CONFIG_DIR, random_instance, random_symmetric_lambda
from vnom import canonical, harness
from vnom.canonical import (
    InfeasibleEnumerationError,
    canonical_nominate,
    conditional_block1_probability,
    enumerate_partitions,
    partition_count,
)
from vnom.core import (
    BlockModel,
    LabeledGraph,
    clamp_probabilities,
    contiguous_assignment,
    sample_sbm,
)


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


def brute_log_weights(graph, model):
    """log p(b, G) of every partition, in enumeration order, summed over
    all vertex pairs including the seed-seed pairs."""
    lam = clamp_probabilities(model.lam)
    iu, ju = np.triu_indices(model.num_vertices, k=1)
    edge = graph.adjacency[iu, ju]
    weights = []
    for part in enumerate_partitions(model.n_sizes):
        labels = np.concatenate([graph.seed_labels, part]) - 1
        p = lam[labels[iu], labels[ju]]
        weights.append(np.sum(np.log(np.where(edge, p, 1 - p))))
    return np.array(weights)


def block_graph(model, ambiguous_labels):
    """Seeds in block order, then the ambiguous vertices with the given
    labels; an edge joins exactly the vertices of one block."""
    seeds = np.repeat(np.arange(1, model.K + 1), model.m_sizes)
    labels = np.concatenate([seeds, ambiguous_labels])
    adj = labels[:, None] == labels[None, :]
    np.fill_diagonal(adj, False)
    return LabeledGraph(adjacency=adj, seed_labels=seeds)


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

    @staticmethod
    def half_labels(sizes):
        n, K = sum(sizes), len(sizes)
        x1, bounds1, x2, bounds2 = canonical._half_partitions(sizes, n // 2, n - n // 2)
        for x in (x1, x2):
            assert x.dtype == bool and np.all(x.reshape(len(x), -1, K).sum(axis=2) == 1)
        assert len(bounds1) == len(bounds2)
        labels1 = x1.reshape(len(x1), -1, K).argmax(axis=2) + 1
        labels2 = x2.reshape(len(x2), -1, K).argmax(axis=2) + 1
        return labels1, bounds1, labels2, bounds2

    @pytest.mark.parametrize("sizes", [(1,), (3,), (2, 1), (1, 1, 1), (0, 2, 1),
                                       (2, 0, 2, 1), (3, 2, 2), (4, 3, 3)])
    def test_cached_matrix_matches_generator(self, sizes):
        # the one-hot partition matrix is held as two halves: group g of the
        # first half joined with group g of the second gives every partition
        # exactly once
        labels1, bounds1, labels2, bounds2 = self.half_labels(sizes)
        joined = [
            tuple(a) + tuple(b)
            for lo1, hi1, lo2, hi2 in zip(bounds1[:-1], bounds1[1:], bounds2[:-1], bounds2[1:])
            for a in labels1[lo1:hi1]
            for b in labels2[lo2:hi2]
        ]
        assert sorted(joined) == [tuple(p) for p in enumerate_partitions(sizes)]

    @pytest.mark.parametrize("chunk", [1, 7, 50])
    @pytest.mark.parametrize("sizes", [(1,), (5,), (2, 1), (0, 2, 1), (2, 0, 2, 1),
                                       (3, 2, 2), (4, 3, 3)])
    def test_chunks_past_cache_concatenate_to_generator(self, monkeypatch, sizes, chunk):
        # the row tiles scored against each H2 group hold at most _TILE
        # log-weights (one H1 row, if the group alone is larger) and together
        # score every partition exactly once
        monkeypatch.setattr(canonical, "_TILE", chunk)
        labels1, bounds1, labels2, bounds2 = self.half_labels(sizes)
        joined = []
        for rows2, tiles in canonical._tiles(bounds1, bounds2):
            width = rows2.stop - rows2.start
            for rows1 in tiles:
                assert 0 < (rows1.stop - rows1.start) * width <= max(chunk, width)
                joined += [tuple(a) + tuple(b) for a in labels1[rows1] for b in labels2[rows2]]
        assert sorted(joined) == [tuple(p) for p in enumerate_partitions(sizes)]


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

    def test_clamped_lambda_matches_rational_oracle(self, rng):
        # Lambda with exact 0 and 1 entries: every log is taken of the
        # clamped matrix, so the impossible partitions keep tiny weights
        for _ in range(20):
            graph, model = random_instance(rng, max_n=4, max_k=3)
            lam = np.where(model.lam < 0.3, 0.0, np.where(model.lam > 0.7, 1.0, model.lam))
            lam[0, 0] = 1.0
            model = BlockModel(m_sizes=model.m_sizes, n_sizes=model.n_sizes, lam=lam)
            scores = conditional_block1_probability(graph, model)
            oracle = oracle_block1_probability(graph, model)
            assert np.allclose(scores.prob, oracle, atol=1e-12, rtol=0)

    def test_log_denominator_is_log_graph_probability(self, rng):
        # log of the sum over all partitions of p(b, G), seed-seed pairs included
        for _ in range(20):
            graph, model = random_instance(rng, max_n=5, max_k=3)
            scores = conditional_block1_probability(graph, model)
            expected = logsumexp(brute_log_weights(graph, model))
            assert scores.log_denominator == pytest.approx(expected, abs=1e-9, rel=0)

    @pytest.mark.parametrize("sizes", [(1,), (3,), (1, 0), (1,) * 7, (2, 0, 2, 1)])
    def test_edge_cases_match_rational_oracle(self, rng, sizes):
        # n = 1 leaves the first half empty, K = 1 has one partition, seven
        # singleton blocks give one group per split, and empty blocks leave
        # their columns unused
        K = len(sizes)
        model = BlockModel(m_sizes=(1,) + (0,) * (K - 1), n_sizes=sizes,
                           lam=random_symmetric_lambda(rng, K))
        graph = sample_sbm(model, contiguous_assignment(model), int(rng.integers(2**32)))
        scores = conditional_block1_probability(graph, model)
        assert np.allclose(scores.prob, oracle_block1_probability(graph, model),
                           atol=1e-12, rtol=0)
        expected = logsumexp(brute_log_weights(graph, model))
        assert scores.log_denominator == pytest.approx(expected, abs=1e-9, rel=0)

    @pytest.mark.parametrize("patch", [{"_TILE": 1}, {"_TILE": 16}, {"_TILE": 50}])
    def test_chunks_and_blocks_match_single_pass(self, monkeypatch, patch):
        # the truth, labels (3, 3, 2, 2, 1, 1, 1), is the heaviest partition
        # and the last in enumeration order, so its split of the block sizes
        # is scored last: the running maximum grows in a later tile or split
        # and the earlier sums are rescaled
        lam = np.array([[0.8, 0.1, 0.2], [0.1, 0.7, 0.1], [0.2, 0.1, 0.9]])
        model = BlockModel(m_sizes=(1, 1, 1), n_sizes=(3, 2, 2), lam=lam)
        graph = block_graph(model, np.array([3, 3, 2, 2, 1, 1, 1]))
        heaviest = int(np.argmax(brute_log_weights(graph, model)))
        assert heaviest == partition_count(model.n_sizes) - 1
        expected = conditional_block1_probability(graph, model)
        for name, value in patch.items():
            monkeypatch.setattr(canonical, name, value)
        tiles = []
        split = canonical._tiles

        def recorded(*args):
            for rows2, rows1 in split(*args):
                tiles.append(rows1)
                yield rows2, rows1

        monkeypatch.setattr(canonical, "_tiles", recorded)
        got = conditional_block1_probability(graph, model)
        # the patched _TILE is read by this call: some H2 group meets more
        # than one tile of H1 rows
        assert max(len(rows1) for rows1 in tiles) > 1
        assert np.allclose(got.prob, expected.prob, atol=1e-12, rtol=0)
        assert got.log_denominator == pytest.approx(expected.log_denominator, abs=1e-12)

    def test_memory_is_bounded(self):
        # 5.7 million partitions: each half is enumerated once, as booleans,
        # and no block of log-weights holds more than _TILE entries
        model = BlockModel(m_sizes=(4, 0, 0), n_sizes=(6, 6, 5), lam=BASE_LAMBDA)
        graph = sample_sbm(model, contiguous_assignment(model), 7)
        assert partition_count(model.n_sizes) > 5 * 10**6
        tracemalloc.start()
        try:
            scores = conditional_block1_probability(graph, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.prob.sum() == pytest.approx(6, abs=1e-9)
        assert peak < 48 * 2**20

    def test_memory_is_bounded_with_many_blocks(self):
        # 11 singleton blocks, 39.9 million partitions: H2 has 332,640 rows
        # of 66 columns. A1 is formed from float tiles of H1, and the halves
        # are built from label vectors, so no float copy of H1 and no copy
        # of H2 is made (93.9 MiB before, 74.1 after)
        K = 11
        model = BlockModel(m_sizes=(4,) + (0,) * (K - 1), n_sizes=(1,) * K,
                           lam=np.full((K, K), 0.3) + 0.4 * np.eye(K))
        graph = sample_sbm(model, contiguous_assignment(model), 7)
        tracemalloc.start()
        try:
            scores = conditional_block1_probability(graph, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.prob.sum() == pytest.approx(1, abs=1e-9)
        assert peak < 84 * 2**20

    def test_one_float_tile_held_with_many_blocks(self):
        # The model above. The peak now comes while A1 is formed: the
        # halves (20.9 MiB of H2, 2.9 of H1), A1 (27.9), the quadratic terms
        # (2.9) and one float tile of H1 (7.9), 62.8 MiB in all. A second
        # tile made while the first is held, or A1 kept alive while the
        # numerators convert H2's block-1 columns to float (15.2 MiB), each
        # pushed it past 70 MiB (74.1 with both).
        K = 11
        model = BlockModel(m_sizes=(4,) + (0,) * (K - 1), n_sizes=(1,) * K,
                           lam=np.full((K, K), 0.3) + 0.4 * np.eye(K))
        graph = sample_sbm(model, contiguous_assignment(model), 7)
        canonical._half_partitions.cache_clear()
        tracemalloc.start()
        try:
            conditional_block1_probability(graph, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 66 * 2**20


class TestHalfPartitionCache:
    @staticmethod
    def instance(n_sizes, seed):
        K = len(n_sizes)
        model = BlockModel(m_sizes=(2,) + (1,) * (K - 1), n_sizes=n_sizes,
                           lam=random_symmetric_lambda(np.random.default_rng(seed), K))
        return sample_sbm(model, contiguous_assignment(model), seed), model

    def test_alternating_models_match_cold_calls(self):
        instances = [self.instance((4, 3, 3), 1), self.instance((3, 2, 2), 2)]
        cold = []
        for graph, model in instances:
            canonical._half_partitions.cache_clear()
            cold.append(conditional_block1_probability(graph, model))
        for _ in range(2):
            for (graph, model), expected in zip(instances, cold):
                for _ in range(2):
                    got = conditional_block1_probability(graph, model)
                    assert np.array_equal(got.prob, expected.prob)
                    assert got.log_denominator == expected.log_denominator

    def test_cached_halves_are_read_only(self):
        x1, bounds1, x2, bounds2 = canonical._half_partitions((4, 3, 3), 5, 5)
        assert canonical._half_partitions((4, 3, 3), 5, 5)[0] is x1
        for x in (x1, x2):
            with pytest.raises(ValueError):
                x[0, 0] = not x[0, 0]
        assert isinstance(bounds1, tuple) and isinstance(bounds2, tuple)

    def test_keeps_only_latest_model(self):
        for n_sizes in [(4, 3, 3), (3, 2, 2)]:
            graph, model = self.instance(n_sizes, 3)
            conditional_block1_probability(graph, model)
        info = canonical._half_partitions.cache_info()
        assert (info.misses, info.currsize) == (2, 1)
        conditional_block1_probability(graph, model)
        assert canonical._half_partitions.cache_info().hits == 1

    def test_simulation_builds_halves_once(self):
        config = harness.load_config(CONFIG_DIR / "small.json")
        harness.run_simulation(dataclasses.replace(config, replicates=3))
        info = canonical._half_partitions.cache_info()
        assert (info.misses, info.hits) == (1, 2)


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

    def test_structural_twins_listed_by_id(self, rng):
        # vertices with the same neighbourhoods have equal probabilities in
        # exact arithmetic; whatever rounding separates them, the tie rule
        # lists them in ascending id order
        for _ in range(60):
            graph, model = random_instance(rng, max_n=7, max_k=3)
            m, n = model.m, model.n
            if n < 3:
                continue
            adj = graph.adjacency.copy()
            twins = m + np.sort(rng.choice(n, size=3, replace=False))
            for b in twins[1:]:
                adj[b, :] = adj[twins[0], :]
                adj[:, b] = adj[:, twins[0]]
            adj[np.ix_(twins, twins)] = rng.random() < 0.5
            np.fill_diagonal(adj, False)
            graph = LabeledGraph(adjacency=adj, seed_labels=graph.seed_labels)
            probs = conditional_block1_probability(graph, model).prob[twins - m]
            assert np.allclose(probs, probs[0], atol=1e-12, rtol=0)
            order = canonical_nominate(graph, model).order.tolist()
            positions = [order.index(v) for v in twins]
            assert positions == sorted(positions)

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
