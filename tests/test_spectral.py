"""Spectral nomination: embedding, k-means, centroid choice, ranking."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import BASE_LAMBDA, replicate_graphs
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
    taking points only from clusters of at least 2 members, stopping when
    a step's labels equal the previous step's or those of the last step
    numbered 0 or a power of two. Also returns the number of centroid
    updates."""
    labels = saved = None
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
        if labels is not None and (np.array_equal(new_labels, labels)
                                   or np.array_equal(new_labels, saved)):
            steps = step
            break
        if step & (step - 1) == 0:
            saved = new_labels
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


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def seed_generators(seed, restarts=10):
    return [np.random.default_rng(np.random.SeedSequence((seed, r))) for r in range(restarts)]


def duplicated_rows(rng, K, n_max=30):
    """K to n_max points drawn from fewer than 2K distinct 2-D rows."""
    distinct = rng.normal(size=(int(rng.integers(1, 2 * K)), 2))
    return distinct[rng.integers(len(distinct), size=int(rng.integers(K, n_max)))]


def realdata_shape(rng):
    """The shape of a two-class real-data embedding: 300 points, d = 2."""
    X = np.concatenate([rng.normal([1.0, 0.5], 0.3, size=(120, 2)),
                        rng.normal([0.8, -0.4], 0.4, size=(180, 2))])
    return X[rng.permutation(300)]


def assert_restarts_match_reference(monkeypatch, X, centers):
    """Every restart of one _lloyd call equals its one-at-a-time reference
    in labels, center bits, objective and step count. Returns the restart
    rows the call's distances covered (summed over the (R, K, d) centers
    passed to _sq_distances) and the rows a loop that keeps every restart
    to its own stop would cover: one per step up to and including the
    stopping step, or per step and for the final objective at the cap."""
    rows = []
    sq_distances = spectral._sq_distances

    def counted(points, columns, centers, buf, out):
        rows.append(len(centers))
        return sq_distances(points, columns, centers, buf, out)

    monkeypatch.setattr(spectral, "_sq_distances", counted)
    labels, final, objectives, steps = spectral._lloyd(X, centers.copy())
    monkeypatch.setattr(spectral, "_sq_distances", sq_distances)
    for r in range(len(centers)):
        want = _reference_lloyd(X, centers[r].copy(), 300)
        assert np.array_equal(labels[r], want[0])
        assert same_bits(final[r], want[1])
        assert objectives[r] == want[2]
        assert steps[r] == want[3]
    return sum(rows), int((steps + 1).sum())


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


def force_packed_products(monkeypatch):
    """Send every Lanczos embedding through the lookup-table product on the
    packed rows, and return the list that records each product's vector
    shape."""
    products = []
    product = spectral.packed_product

    def counted(columns, x):
        products.append(x.shape)
        return product(columns, x)

    monkeypatch.setattr(spectral, "packed_product", counted)
    monkeypatch.setattr(spectral, "_DENSE_COPY_BYTES", 0)
    return products


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

    def test_packed_lanczos_matches_dense_solvers(self, monkeypatch):
        lam = np.array([[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]])
        model = BlockModel(m_sizes=(10, 0, 0), n_sizes=(110, 90, 90), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 17)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = embed(graph, 2)  # eigh: N <= _DENSE_LIMIT
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", 100)
        copied = embed(graph, 2)  # Lanczos on the float64 copy
        products = force_packed_products(monkeypatch)
        packed = embed(graph, 2)
        assert products
        assert np.allclose(packed.X, copied.X, rtol=0.0, atol=1e-10)
        assert np.allclose(packed.eigenvalues, copied.eigenvalues, rtol=0.0, atol=1e-10)
        for lanczos in (copied, packed):
            assert np.allclose(lanczos.X, dense.X, rtol=0.0, atol=1e-9)
            assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-9)

    def test_packed_embedding_memory_is_bounded(self):
        # Above the copy bound the products read the packed graph's byte
        # columns, an N^2 / 8 byte copy; the Lanczos solver's own arrays
        # add about 240 N bytes, so N^2 / 4 holds them both from N = 3,040
        # on (2.9 MB of 3.9 MB here). Unpacking the whole N x N adjacency
        # (N^2 bytes), converting it to float64 (8 N^2) or a second copy of
        # the columns would push the traced peak past N^2 / 4.
        model = BlockModel(m_sizes=(10, 10, 10), n_sizes=(1300, 1300, 1300), lam=BASE_LAMBDA)
        graph = sample_sbm(model, contiguous_assignment(model), 3)
        N = graph.num_vertices
        assert N * N * 8 > spectral._DENSE_COPY_BYTES
        tracemalloc.start()
        try:
            emb = embed(graph, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.X.shape == (N, 2)
        assert peak < N * N / 4

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

    def test_lanczos_continues_past_invariant_subspaces(self, monkeypatch):
        # 100 disjoint triangles: each Krylov space from one start vector
        # holds only 2 distinct eigenvalues, so the solver breaks down (a
        # zero residual) and must continue from fresh vectors to find the
        # top eigenvalue, 2, three times.
        adj = np.kron(np.eye(100), ~np.eye(3, dtype=bool)).astype(bool)
        graph = graph_from_adjacency(adj, [1])
        assert graph.num_vertices > spectral._DENSE_LIMIT
        betas = []
        extend = spectral._extend

        def recorded(basis, j, w):
            alpha, beta = extend(basis, j, w)
            betas.append(beta)
            return alpha, beta

        monkeypatch.setattr(spectral, "_extend", recorded)
        lanczos = embed(graph, 3)
        assert 0.0 in betas
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = embed(graph, 3)
        assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-9)
        # the eigenvectors of a repeated eigenvalue are not unique; check
        # that X spans eigenvectors with orthogonal columns
        A = adj.astype(float)
        X = lanczos.X
        assert np.allclose(A @ X, X * lanczos.eigenvalues, rtol=0.0, atol=1e-9)
        assert np.allclose(X.T @ X, np.diag(np.abs(lanczos.eigenvalues)), rtol=0.0, atol=1e-9)

    def test_lanczos_keeps_plus_minus_ties_in_eigh_order(self, monkeypatch):
        # K_{100,225} is bipartite with eigenvalues +150 and -150, whose
        # magnitudes both solvers return bit-equal here. The stable sort by
        # -|lambda| then keeps the solver's order, so Lanczos must return
        # its pairs ascending, as eigh does, to give the same X.
        adj = np.zeros((325, 325), dtype=bool)
        adj[:100, 100:] = True
        adj |= adj.T
        graph = graph_from_adjacency(adj, [1])
        assert graph.num_vertices > spectral._DENSE_LIMIT
        lanczos = embed(graph, 2)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = embed(graph, 2)
        for emb in (lanczos, dense):
            assert abs(emb.eigenvalues[0]) == abs(emb.eigenvalues[1])
            assert emb.eigenvalues[0] < 0 < emb.eigenvalues[1]
        assert np.allclose(lanczos.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-9)
        assert np.allclose(lanczos.X, dense.X, rtol=0.0, atol=1e-9)

    def test_lanczos_raises_when_not_converged(self, monkeypatch):
        lam = np.array([[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]])
        model = BlockModel(m_sizes=(10, 0, 0), n_sizes=(110, 90, 90), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 17)
        assert graph.num_vertices > spectral._DENSE_LIMIT
        monkeypatch.setattr(spectral, "_LANCZOS_RESTARTS", 0)
        with pytest.raises(ValueError, match="3 converged eigenpairs of the 300-vertex"):
            embed(graph, 3)

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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9])
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
            X = duplicated_rows(rng, K)
            assert_matches_reference(X, K, rng_seed=trial)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_seeding_matches_one_restart_at_a_time(self, d):
        # d >= 8 sums each squared distance pairwise, as np.linalg.norm
        # does; below, the squares are added left to right
        rng = np.random.default_rng(d)
        for trial in range(6):
            N = int(rng.integers(5, 80))
            X = rng.normal(size=(N, d)) * 10.0 ** rng.integers(-2, 3, size=(N, 1))
            centers = X[rng.integers(N, size=4)]
            got = spectral._distances(X, np.ascontiguousarray(X.T), centers,
                                      np.empty(4 * X.size), np.empty(4 * N))
            assert same_bits(got, np.linalg.norm(X - centers[:, None], axis=-1))
            for K in (1, 2, 3, 5):
                seeded = spectral._seed_centroids(X, K, seed_generators(trial))
                for r, rng_r in enumerate(seed_generators(trial)):
                    assert same_bits(seeded[r], _reference_seed_centroids(X, K, rng_r))

    def test_seeding_matches_one_restart_at_a_time_on_tied_grids(self):
        # Integer grids: many points lie at equal distances from the chosen
        # centers, and the farthest pick must be the first of them.
        line = np.arange(9.0)[:, None]
        square = np.array([[x, y] for x in range(-2, 3) for y in range(-2, 3)], dtype=float)
        cube = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)],
                        dtype=float)
        for X in (line, square, cube):
            for K in (2, 3, 4, 5):
                for seed in range(5):
                    seeded = spectral._seed_centroids(X, K, seed_generators(seed))
                    for r, rng in enumerate(seed_generators(seed)):
                        assert same_bits(seeded[r], _reference_seed_centroids(X, K, rng))

    def test_coinciding_restarts_run_once_on_realdata_shapes(self, monkeypatch):
        # Restarts whose labels coincide at a step numbered a power of two
        # share every later step, so one of them runs on for both: fewer
        # restart rows than one per restart per step, same results.
        rng = np.random.default_rng(300)
        rows = full = 0
        for trial in range(3):
            X = realdata_shape(rng)
            centers = spectral._seed_centroids(X, 2, seed_generators(trial))
            got, want = assert_restarts_match_reference(monkeypatch, X, centers)
            assert got <= want
            rows, full = rows + got, full + want
        assert rows < full

    def test_coinciding_restarts_run_once_on_cycling_inputs(self, monkeypatch):
        # the inputs of test_cycling_restarts_stop_before_the_cap
        K = 5
        rng = np.random.default_rng(K)
        rows = full = 0
        for trial in range(20):
            X = duplicated_rows(rng, K)
            centers = spectral._seed_centroids(X, K, seed_generators(trial))
            got, want = assert_restarts_match_reference(monkeypatch, X, centers)
            assert got <= want
            rows, full = rows + got, full + want
        assert rows < full

    @pytest.mark.parametrize("K, trials", [(5, 50), (6, 16)])
    def test_restarts_coinciding_between_save_points_run_on(self, monkeypatch, K, trials):
        # Between two steps numbered powers of two, restarts with equal
        # labels may hold different saved labels: one of them can be in a
        # cycle through its saved labels and stop steps before the other,
        # which joined the cycle later. These inputs hold such pairs, so
        # merging restarts there would give a wrong step count or labels.
        rng = np.random.default_rng(100 + K)
        for trial in range(trials):
            X = duplicated_rows(rng, K, 40)
            centers = spectral._seed_centroids(X, K, seed_generators(trial))
            got, want = assert_restarts_match_reference(monkeypatch, X, centers)
            assert got <= want

    def test_coinciding_matches_pairwise_row_comparison(self):
        # Small label alphabets and planted copies make duplicate rows
        # common, and many rows equal two or more earlier rows: each twin
        # must name the first of them.
        rng = np.random.default_rng(302)
        twin_count = later_matches = 0
        for trial in range(300):
            R, N = int(rng.integers(1, 11)), int(rng.integers(1, 40))
            labels = rng.integers(0, int(rng.integers(1, 4)), (R, N))
            for _ in range(int(rng.integers(0, R + 1))):
                labels[rng.integers(R)] = labels[rng.integers(R)]
            twins = {}
            for i in range(R):
                equal = [j for j in range(i) if np.array_equal(labels[i], labels[j])]
                if equal:
                    twins[i] = equal[0]
                    later_matches += len(equal) > 1
            assert spectral._coinciding(labels) == twins
            twin_count += len(twins)
        assert twin_count and later_matches

    def test_coinciding_restarts_run_once_within_groups(self, monkeypatch):
        # 10 restarts in groups of 4, 4 and 2: each group's restarts
        # coincide only with each other, and the best is still the earliest
        # of the restarts with the least objective.
        rng = np.random.default_rng(301)
        X = realdata_shape(rng)
        monkeypatch.setattr(spectral, "_BATCH_ELEMENTS", 4 * 300 * 2 * 2)
        groups = []
        lloyd = spectral._lloyd

        def recorded(points, centers):
            groups.append(centers.copy())
            return lloyd(points, centers)

        monkeypatch.setattr(spectral, "_lloyd", recorded)
        assert_matches_reference(X, 2, rng_seed=5)
        monkeypatch.setattr(spectral, "_lloyd", lloyd)
        assert [len(centers) for centers in groups] == [4, 4, 2]
        rows = full = 0
        for centers in groups:
            got, want = assert_restarts_match_reference(monkeypatch, X, centers)
            rows, full = rows + got, full + want
        assert rows < full

    def test_cycling_restarts_stop_before_the_cap(self):
        # With fewer distinct rows than K, points can flip between centers
        # that differ in the last bit, in cycles of 2 or 4 steps. 6 of these
        # 20 inputs reach such a cycle, which a stop on the previous step's
        # labels alone would follow to the 300-step cap.
        K = 5
        rng = np.random.default_rng(K)
        for trial in range(20):
            X = duplicated_rows(rng, K)
            rngs = [np.random.default_rng(np.random.SeedSequence((trial, r))) for r in range(10)]
            labels, centers, objectives, steps = spectral._lloyd(
                X, spectral._seed_centroids(X, K, rngs))
            assert steps.max() < 20
            assert np.isfinite(centers).all() and np.isfinite(objectives).all()

    def test_batched_restarts_match_on_medium_embeddings(self):
        _, model, graphs = replicate_graphs("medium", 20)
        d = default_dimension(model.lam)
        for replicate, graph in enumerate(graphs[:4]):
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

    def test_realdata_shape_matches_reference(self):
        # the shape of a two-class real-data embedding: 300 points, K = d = 2
        rng = np.random.default_rng(300)
        for trial in range(3):
            assert_matches_reference(realdata_shape(rng), 2, rng_seed=trial)

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_nearest_takes_first_center_on_ties(self, K):
        rng = np.random.default_rng(K)
        d2 = rng.integers(0, 3, size=(4, K, 50)).astype(float)
        assert np.array_equal(spectral._nearest(d2), np.argmin(d2, axis=1))

    def test_points_midway_between_centers_go_to_lower_cluster(self):
        # Integer points on a line and a grid: the seeded centers leave
        # points exactly midway between two of them, whose first label
        # must be the lower cluster's, as np.argmin gives it.
        line = np.arange(9.0)[:, None]
        grid = np.array([[x, y] for x in range(-2, 3) for y in range(-2, 3)], dtype=float)
        midway = 0
        for X, K in ((line, 2), (line, 3), (grid, 2), (grid, 4)):
            for seed in range(5):
                for r in range(10):
                    rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
                    centers = _reference_seed_centroids(X, K, rng)
                    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                    midway += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
                assert_matches_reference(X, K, rng_seed=seed)
        assert midway > 100

    @pytest.mark.parametrize("K", [2, 4])
    def test_repairs_inside_a_batched_group(self, K):
        # One Lloyd loop over restarts of which some start with duplicated
        # centers or centers far from every point, so their clusters come
        # up empty and are repaired, while the others run unrepaired.
        rng = np.random.default_rng(K)
        X = rng.normal(size=(40, 2))
        starts = [X[rng.choice(40, K, replace=False)] for _ in range(6)]
        starts[1] = np.repeat(X[:1], K, axis=0)
        starts[3][1:] = 100.0 + np.arange(K - 1)[:, None]
        starts[4] = np.repeat(X[5:6], K, axis=0)
        centers = np.array(starts)
        labels, final, objectives, steps = spectral._lloyd(X, centers.copy())
        for r in range(len(centers)):
            want = _reference_lloyd(X, centers[r].copy(), 300)
            assert np.array_equal(labels[r], want[0])
            assert same_bits(final[r], want[1])
            assert objectives[r] == want[2]
            assert steps[r] == want[3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        X = np.arange(12.0).reshape(6, 2)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(X, 2)

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

    def test_near_tied_distances_listed_by_vertex_id(self, monkeypatch):
        # Vertices 3 and 4 sit 1e-12 apart, closer than the tie tolerance:
        # they form one tie group, listed by vertex id, not by rounding.
        X = np.array([[0.0], [10.0], [10.0], [1.0 + 1e-12], [1.0], [9.0]])
        monkeypatch.setattr(spectral, "embed",
                            lambda graph, d: Embedding(X=X, eigenvalues=np.ones(1)))
        graph = graph_from_adjacency(np.zeros((6, 6)), [1, 2, 2])
        nomination = spectral_nominate(graph, 2, d=1, rng_seed=0)
        assert nomination.order.tolist() == [3, 4, 5]

    def test_medium_replicate_same_list_under_eigh_and_lanczos(self, monkeypatch):
        config, model, graphs = replicate_graphs("medium", 20)
        graph = graphs[0]
        assert graph.num_vertices > spectral._DENSE_LIMIT
        d = harness._spectral_dimension(config, model)
        lanczos = harness._nominate("spectral", graph, model, config, 0, d)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", graph.num_vertices)
        dense = harness._nominate("spectral", graph, model, config, 0, d)
        assert np.array_equal(lanczos.order, dense.order)

    def test_medium_replicate_same_list_on_packed_rows_and_copy(self, monkeypatch):
        config, model, graphs = replicate_graphs("medium", 20)
        graph = graphs[0]
        assert graph.num_vertices > spectral._DENSE_LIMIT
        d = harness._spectral_dimension(config, model)
        copied = harness._nominate("spectral", graph, model, config, 0, d)
        products = force_packed_products(monkeypatch)
        packed = harness._nominate("spectral", graph, model, config, 0, d)
        assert products
        assert np.array_equal(packed.order, copied.order)

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
