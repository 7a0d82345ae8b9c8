"""Spectral nomination: embedding, k-means, centroid choice, ranking."""

import warnings
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


def _reference_seed_centroids(points, K, rng):
    """k-means seeding one restart at a time, as before the batched loop."""
    first = int(rng.integers(len(points)))
    centers = [points[first]]
    dist = np.linalg.norm(points - centers[0], axis=1)
    for _ in range(1, K):
        nxt = int(np.argmax(dist))
        centers.append(points[nxt])
        dist = np.minimum(dist, np.linalg.norm(points - centers[-1], axis=1))
    return np.array(centers)


def _reference_lloyd(points, centers, max_iter):
    """One restart's Lloyd loop as before the batched loop, with the repair
    taking points only from clusters of at least 2 members. Also returns
    the number of centroid updates."""
    labels = None
    steps = max_iter
    for step in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        # empty-cluster repair: move the centroid to the farthest point
        claimed = []
        for k in range(len(centers)):
            if not (new_labels == k).any():
                gaps = d2[np.arange(len(points)), new_labels].copy()
                sizes = np.bincount(new_labels, minlength=len(centers))
                gaps[sizes[new_labels] < 2] = -1.0
                if claimed:
                    gaps[claimed] = -1.0
                far = int(np.argmax(gaps))
                new_labels[far] = k
                claimed.append(far)
        if labels is not None and np.array_equal(new_labels, labels):
            steps = step
            break
        labels = new_labels
        for k in range(len(centers)):
            centers[k] = points[labels == k].mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    objective = float(d2[np.arange(len(points)), labels].sum())
    return labels, centers, objective, steps


def _reference_restarts(X, K, restarts, rng_seed, max_iter=300):
    """Each restart's (labels, centers, objective, steps), one at a time."""
    points = np.asarray(X, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    runs = []
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, r)))
        centers = _reference_seed_centroids(points, K, rng)
        runs.append(_reference_lloyd(points, centers.copy(), max_iter))
    return runs


def _reference_kmeans(X, K, restarts=10, rng_seed=0, max_iter=300):
    """Best of restarts; ties go to the earliest. Returns labels 1..K,
    centers, objective, winning restart and its centroid updates."""
    best = None
    for r, (labels, centers, objective, steps) in enumerate(
            _reference_restarts(X, K, restarts, rng_seed, max_iter)):
        if best is None or objective < best[2] - 1e-12:
            best = (labels + 1, centers, objective, r, steps)
    return best


def assert_matches_reference(X, K, restarts=10, rng_seed=0, max_iter=300):
    labels, centers, objective, restart, steps = _reference_kmeans(
        X, K, restarts, rng_seed, max_iter)
    clustering = kmeans(X, K, restarts=restarts, rng_seed=rng_seed)
    assert np.array_equal(clustering.labels, labels)
    assert np.array_equal(clustering.centroids, centers)
    assert clustering.objective == objective
    assert (clustering.restart, clustering.iterations) == (restart, steps)


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

    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 2, restarts=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_batched_restarts_match_one_at_a_time(self, d, K):
        # d >= 8 sums each squared distance pairwise; d = 1 takes numpy's
        # pairwise mean. Scales vary so that rounding differences would show.
        rng = np.random.default_rng(1000 * d + K)
        for trial in range(6):
            N = int(rng.integers(K, 80))
            X = rng.normal(size=(N, d)) * 10.0 ** rng.integers(-2, 3, size=(N, 1))
            assert_matches_reference(X, K, rng_seed=trial)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_batched_restarts_match_on_duplicated_rows(self, K):
        rng = np.random.default_rng(K)
        for trial in range(8):
            distinct = rng.normal(size=(int(rng.integers(1, 2 * K)), 2))
            X = distinct[rng.integers(len(distinct), size=int(rng.integers(K, 30)))]
            assert_matches_reference(X, K, rng_seed=trial)

    def test_batched_restarts_match_on_medium_embeddings(self, monkeypatch):
        config = harness.load_config(CONFIG_DIR / "medium.json")
        model = harness.build_model(config)
        seen = []
        monkeypatch.setattr(harness, "_nominate_all",
                            lambda graph, *args: seen.append(graph))
        for replicate in range(4):
            harness._simulation_replicate(config, replicate)
        d = default_dimension(model.lam)
        for replicate, graph in enumerate(seen):
            assert_matches_reference(embed(graph, d).X, model.K, rng_seed=replicate)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_step_cap(self, monkeypatch, cap):
        monkeypatch.setattr(spectral, "_MAX_ITER", cap)
        rng = np.random.default_rng(cap)
        for trial in range(5):
            X = rng.normal(size=(60, 2))
            assert_matches_reference(X, 4, rng_seed=trial, max_iter=cap)
            assert kmeans(X, 4, rng_seed=trial).iterations <= cap

    def test_restarts_split_into_groups(self, monkeypatch, rng):
        X = rng.normal(size=(50, 3))
        monkeypatch.setattr(spectral, "_BATCH_ELEMENTS", 3 * 50 * 3)
        assert_matches_reference(X, 3, restarts=7, rng_seed=4)

    def test_tied_restarts_return_restart_zero(self):
        # Three tight, far-apart groups: every restart ends on the same
        # partition and objective, but seeding numbers the clusters
        # differently from restart to restart.
        rng = np.random.default_rng(8)
        X = np.concatenate([rng.normal(loc, 0.01, size=(6, 2))
                            for loc in ([0, 0], [10, 0], [0, 10])])
        runs = _reference_restarts(X, 3, 10, rng_seed=3)
        assert len({objective for _, _, objective, _ in runs}) == 1
        assert len({tuple(labels) for labels, _, _, _ in runs}) > 1
        clustering = kmeans(X, 3, restarts=10, rng_seed=3)
        assert clustering.restart == 0
        assert np.array_equal(clustering.labels, runs[0][0] + 1)
        assert np.array_equal(clustering.centroids, runs[0][1])

    def test_repair_never_empties_a_singleton_cluster(self):
        # Fewer distinct rows than clusters: the repair used to take the
        # only member of another cluster, leaving it empty with a NaN center.
        X = np.array([[2.0], [0.0], [1.0], [1.0], [1.0], [0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clustering = kmeans(X, 4, rng_seed=297)
        assert np.array_equal(np.unique(clustering.labels), [1, 2, 3, 4])
        assert np.isfinite(clustering.centroids).all()

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_every_cluster_used_with_few_distinct_rows(self, K):
        rng = np.random.default_rng(K)
        for trial in range(100):
            N = int(rng.integers(K, 12))
            X = rng.integers(0, K - 1, size=(N, int(rng.integers(1, 3)))).astype(float)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                clustering = kmeans(X, K, rng_seed=trial)
            assert np.array_equal(np.unique(clustering.labels), np.arange(1, K + 1))
            assert np.isfinite(clustering.centroids).all()


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
