"""Spectral nomination: embedding, k-means, centroid choice, ranking."""

from pathlib import Path

import numpy as np
import pytest

from vnom import harness, spectral
from vnom.core import BlockModel, LabeledGraph, contiguous_assignment, sample_sbm
from vnom.spectral import (
    Embedding,
    choose_block1_centroid,
    default_dimension,
    embed,
    kmeans,
    spectral_nominate,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def graph_from_adjacency(adj, seed_labels):
    return LabeledGraph(adjacency=np.asarray(adj, dtype=bool),
                        seed_labels=np.asarray(seed_labels))


class TestDefaultDimension:
    def test_full_rank(self):
        lam = np.array([[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]])
        assert default_dimension(lam) == 3

    def test_rank_one(self):
        lam = np.full((3, 3), 0.5)
        assert default_dimension(lam) == 1

    def test_rank_two(self):
        v = np.array([1.0, 0.5, 0.25])
        w = np.array([0.1, 0.3, 0.2])
        lam = 0.5 * np.outer(v, v) + np.outer(w, w)
        assert default_dimension(lam) == 2


class TestEmbed:
    def test_complete_graph(self):
        n = 6
        adj = ~np.eye(n, dtype=bool)
        graph = graph_from_adjacency(adj, [1])
        emb = embed(graph, 1)
        assert emb.eigenvalues[0] == pytest.approx(n - 1)
        expected = np.full(n, np.sqrt((n - 1) / n))
        assert np.allclose(emb.X[:, 0], expected)

    def test_empty_graph(self):
        adj = np.zeros((5, 5), dtype=bool)
        graph = graph_from_adjacency(adj, [1])
        emb = embed(graph, 2)
        assert np.allclose(emb.eigenvalues, 0.0)
        assert np.allclose(emb.X, 0.0)

    def test_column_norms_match_eigenvalues(self, rng):
        adj = rng.random((12, 12)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        graph = graph_from_adjacency(adj, [1, 1])
        emb = embed(graph, 4)
        for j in range(4):
            assert np.linalg.norm(emb.X[:, j]) ** 2 == pytest.approx(
                abs(emb.eigenvalues[j]), abs=1e-6
            )

    def test_deterministic_across_runs(self, rng):
        adj = rng.random((10, 10)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        graph = graph_from_adjacency(adj, [1])
        e1 = embed(graph, 3)
        e2 = embed(graph, 3)
        assert np.array_equal(e1.X, e2.X)

    def test_full_decomposition_reconstructs_adjacency(self, rng):
        adj = rng.random((8, 8)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        graph = graph_from_adjacency(adj, [1])
        emb = embed(graph, 8)
        signs = np.sign(emb.eigenvalues)
        recon = (emb.X * signs) @ emb.X.T
        assert np.allclose(recon, adj.astype(float), atol=1e-6)

    def test_tiled_eigsh_matches_dense_solvers(self, monkeypatch):
        lam = np.array([[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]])
        model = BlockModel(m_sizes=(10, 0, 0), n_sizes=(110, 90, 90), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 17)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = embed(graph, 2)  # eigh: N <= _DENSE_LIMIT
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", 100)
        copied = embed(graph, 2)  # eigsh on the float64 copy
        products = []
        product = spectral.adjacency_product

        def counted(adjacency, X):
            products.append(X.shape)
            return product(adjacency, X)

        monkeypatch.setattr(spectral, "adjacency_product", counted)
        monkeypatch.setattr(spectral, "_DENSE_COPY_BYTES", 0)
        tiled = embed(graph, 2)
        assert products
        assert np.allclose(tiled.X, copied.X, rtol=0.0, atol=1e-10)
        assert np.allclose(tiled.eigenvalues, copied.eigenvalues, rtol=0.0, atol=1e-10)
        assert np.allclose(tiled.X, dense.X, rtol=0.0, atol=1e-8)
        assert np.allclose(tiled.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-8)

    def test_lanczos_finds_repeated_top_eigenvalue(self, monkeypatch):
        # Two identical components: the top eigenvalue is double, and its
        # antisymmetric eigenvector is orthogonal to a flat start vector.
        rng = np.random.default_rng(5)
        block = np.triu(rng.random((150, 150)) < 0.3, 1)
        block = block | block.T
        adj = np.zeros((300, 300), dtype=bool)
        adj[:150, :150] = block
        adj[150:, 150:] = block
        graph = graph_from_adjacency(adj, [1])
        assert graph.num_vertices > spectral._DENSE_LIMIT
        lanczos = embed(graph, 3)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = embed(graph, 3)
        assert dense.eigenvalues[0] == pytest.approx(dense.eigenvalues[1], rel=1e-12)
        assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-9)

    def test_empty_graph_on_lanczos_path(self, monkeypatch):
        graph = graph_from_adjacency(np.zeros((300, 300)), [1])
        assert graph.num_vertices > spectral._DENSE_LIMIT
        lanczos = embed(graph, 3)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = embed(graph, 3)
        assert lanczos.X.shape == dense.X.shape == (300, 3)
        assert np.array_equal(lanczos.X, dense.X)
        assert np.array_equal(lanczos.eigenvalues, dense.eigenvalues)
        assert not lanczos.X.any()

    def test_d_out_of_range(self):
        graph = graph_from_adjacency(np.zeros((4, 4)), [1])
        with pytest.raises(ValueError):
            embed(graph, 0)
        with pytest.raises(ValueError):
            embed(graph, 5)


class TestKmeans:
    def test_separated_1d_points(self):
        X = np.array([0.0, 1.0, 10.0, 11.0])
        clustering = kmeans(X, 2, rng_seed=0)
        labels = clustering.labels
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_zero_cost_on_distinct_locations(self):
        X = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 4 + [[-3.0, 2.0]] * 2)
        clustering = kmeans(X, 3, rng_seed=1)
        assert clustering.objective == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_is_mean(self, rng):
        X = rng.normal(size=(20, 3))
        clustering = kmeans(X, 1, rng_seed=0)
        assert np.allclose(clustering.centroids[0], X.mean(axis=0))

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    def test_empty_cluster_repaired(self):
        # two locations, three clusters: seeding duplicates a center and a
        # cluster comes up empty until the repair moves a point into it
        X = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]] * 5)
        for seed in range(3):
            clustering = kmeans(X, 3, rng_seed=seed)
            assert np.array_equal(np.unique(clustering.labels), [1, 2, 3])
            assert clustering.objective == 0.0
            again = kmeans(X, 3, rng_seed=seed)
            assert np.array_equal(again.labels, clustering.labels)
            assert np.array_equal(again.centroids, clustering.centroids)

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(30, 2))
        c1 = kmeans(X, 3, rng_seed=7)
        c2 = kmeans(X, 3, rng_seed=7)
        assert np.array_equal(c1.labels, c2.labels)
        assert np.array_equal(c1.centroids, c2.centroids)


class TestChooseBlock1Centroid:
    def test_majority_cluster_wins(self):
        X = np.array([0.0, 0.1, 10.0, 10.1, 0.05, 10.05])
        clustering = kmeans(X, 2, rng_seed=0)
        seed_labels = np.array([1, 1, 2, 2])
        c = choose_block1_centroid(clustering, seed_labels)
        assert clustering.labels[0] == c + 1

    def test_requires_block1_seed(self):
        X = np.array([0.0, 1.0])
        clustering = kmeans(X, 1, rng_seed=0)
        with pytest.raises(ValueError):
            choose_block1_centroid(clustering, np.array([2, 2]))


class TestSpectralNominate:
    def test_planted_two_cluster_dichotomy(self):
        # dense within, empty across: block-1 ambiguous vertices must all
        # precede block-2 vertices
        lam = np.array([[0.9, 0.05], [0.05, 0.9]])
        model = BlockModel(m_sizes=(3, 3), n_sizes=(6, 6), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 21)
        nomination = spectral_nominate(graph, 2, d=2, rng_seed=0)
        first = graph.true_labels[nomination.positions()[:6]]
        assert (first == 1).all()

    def test_d_defaults_from_model_rank(self):
        lam = np.full((2, 2), 0.5)
        model = BlockModel(m_sizes=(1, 1), n_sizes=(2, 2), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 3)
        nomination = spectral_nominate(graph, 2, model=model, rng_seed=0)
        assert len(nomination) == 4

    def test_d_required_without_model(self):
        lam = np.full((2, 2), 0.5)
        model = BlockModel(m_sizes=(1, 1), n_sizes=(2, 2), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 3)
        with pytest.raises(ValueError):
            spectral_nominate(graph, 2, rng_seed=0)

    def test_near_tied_distances_listed_by_vertex_id(self, monkeypatch):
        # Vertices 3 and 4 sit 1e-12 apart, closer than the tie tolerance:
        # they form one tie group, listed by vertex id, not by rounding.
        X = np.array([[0.0], [10.0], [10.0], [1.0 + 1e-12], [1.0], [9.0]])
        monkeypatch.setattr(spectral, "embed",
                            lambda graph, d: Embedding(X=X, eigenvalues=np.ones(1)))
        graph = graph_from_adjacency(np.zeros((6, 6)), [1, 2, 2])
        nomination = spectral_nominate(graph, 2, d=1, rng_seed=0)
        assert nomination.order.tolist() == [3, 4, 5]

    def test_medium_replicate_same_list_under_eigh_and_eigsh(self, monkeypatch):
        config = harness.load_config(CONFIG_DIR / "medium.json")
        model = harness.build_model(config)
        seen = []
        monkeypatch.setattr(harness, "_nominate_all",
                            lambda graph, *args: seen.append(graph))
        harness._simulation_replicate(config, 0)
        graph = seen[0]
        assert graph.num_vertices > spectral._DENSE_LIMIT
        lanczos = harness._nominate("spectral", graph, model, config, 0)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = harness._nominate("spectral", graph, model, config, 0)
        assert np.array_equal(lanczos.order, dense.order)

    def test_relabeling_equivariance_when_separated(self, rng):
        lam = np.array([[0.9, 0.05], [0.05, 0.9]])
        model = BlockModel(m_sizes=(3, 3), n_sizes=(5, 5), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 33)
        m, n = model.m, model.n
        perm = np.concatenate([np.arange(m), m + rng.permutation(n)])
        adj = graph.adjacency[np.ix_(perm, perm)]
        permuted = LabeledGraph(adjacency=adj, seed_labels=graph.seed_labels)
        base = spectral_nominate(graph, 2, d=2, rng_seed=5)
        moved = spectral_nominate(permuted, 2, d=2, rng_seed=5)
        inverse = np.empty(m + n, dtype=int)
        inverse[perm] = np.arange(m + n)
        assert moved.order.tolist() == [int(inverse[v]) for v in base.order]
