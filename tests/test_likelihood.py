"""Likelihood maximization nomination: swap ratios and the two-stage list."""

import tracemalloc

import numpy as np
import pytest

from conftest import BASE_LAMBDA, random_instance, replicate_graphs
from vnom import harness
from vnom.canonical import enumerate_partitions
from vnom.core import (
    BlockAssignment,
    BlockModel,
    LabeledGraph,
    contiguous_assignment,
    log_likelihood,
    sample_sbm,
)
from vnom.likelihood import (
    _geo_mean_scores,
    likelihood_nominate,
    mle_block_assignment,
    swap_log_ratio,
)
from vnom.metrics import rank_with_ties
from vnom.sgm import sgm_match


def random_bhat(rng, graph, model):
    """A random member of the feasible assignment family for this model."""
    labels = []
    for k, cnt in enumerate(model.n_sizes, start=1):
        labels.extend([k] * cnt)
    labels = np.array(labels)
    rng.shuffle(labels)
    return BlockAssignment(np.concatenate([graph.seed_labels, labels]))


class TestMleBlockAssignment:
    def test_planted_blocks_recovered(self):
        # near-deterministic model: dense within blocks, empty across
        lam = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = BlockModel(m_sizes=(2, 2), n_sizes=(3, 3), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 0)
        bhat = mle_block_assignment(graph, model)
        assert bhat.labels.tolist() == contiguous_assignment(model).labels.tolist()

    def test_single_ambiguous_vertex(self):
        lam = np.array([[0.6, 0.3], [0.3, 0.6]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 0), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 1)
        bhat = mle_block_assignment(graph, model)
        assert bhat.labels.tolist() == [1, 2, 1]

    def test_member_of_feasible_family(self, rng):
        for _ in range(10):
            graph, model = random_instance(rng, max_n=6, max_k=3)
            bhat = mle_block_assignment(graph, model)
            bhat.check_membership(model, graph.seed_labels)


    def test_unconverged_matcher_still_swap_optimal(self):
        # one Frank-Wolfe step cannot converge from the flat start, but the
        # polish still leaves no block-1 swap that raises the likelihood
        model = BlockModel(m_sizes=(4, 2, 2), n_sizes=(20, 20, 20), lam=BASE_LAMBDA)
        graph = sample_sbm(model, contiguous_assignment(model), 5)
        result = sgm_match(graph, model.log_odds(), model.n_sizes, max_iter=1)
        assert result.iterations == 1 and not result.converged
        bhat = mle_block_assignment(graph, model, max_iter=1)
        assert bhat.labels.tolist() == result.labels.tolist()
        assert_no_positive_swap(graph, bhat, model)

    def test_clamped_lambda(self):
        # entries 0 and 1 are clamped to eps and 1 - eps before the log-odds
        lam = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.5], [0.3, 0.5, 0.0]])
        model = BlockModel(m_sizes=(2, 1, 1), n_sizes=(3, 3, 2), lam=lam)
        for seed in range(5):
            graph = sample_sbm(model, contiguous_assignment(model), seed)
            bhat = mle_block_assignment(graph, model, restarts=10)
            bhat.check_membership(model, graph.seed_labels)
            assert np.isfinite(log_likelihood(graph, bhat, model))
            assert_no_positive_swap(graph, bhat, model)
            assert log_likelihood(graph, bhat, model) == pytest.approx(
                exhaustive_log_likelihood(graph, model), abs=1e-9)

    def test_empty_middle_block(self):
        lam = np.array([[0.7, 0.2, 0.3], [0.2, 0.6, 0.1], [0.3, 0.1, 0.5]])
        model = BlockModel(m_sizes=(2, 1, 1), n_sizes=(3, 0, 2), lam=lam)
        for seed in range(5):
            graph = sample_sbm(model, contiguous_assignment(model), seed)
            bhat = mle_block_assignment(graph, model, restarts=5)
            assert 2 not in bhat.labels[model.m:].tolist()
            bhat.check_membership(model, graph.seed_labels)
            assert_no_positive_swap(graph, bhat, model)
            assert log_likelihood(graph, bhat, model) == pytest.approx(
                exhaustive_log_likelihood(graph, model), abs=1e-9)


def assert_no_positive_swap(graph, bhat, model):
    """No swap of an estimated block-1 vertex with an ambiguous vertex
    outside block 1 raises log p(b-hat, G)."""
    labels, m = bhat.labels, graph.seed_count
    tol = 1e-9 * max(1.0, abs(log_likelihood(graph, bhat, model)))
    for v in range(m, graph.num_vertices):
        for vp in range(m, graph.num_vertices):
            if labels[v] == 1 and labels[vp] != 1:
                assert swap_log_ratio(graph, bhat, model, v, vp) <= tol


def exhaustive_log_likelihood(graph, model):
    return max(
        log_likelihood(graph, BlockAssignment(np.concatenate([graph.seed_labels, part])), model)
        for part in enumerate_partitions(model.n_sizes)
    )


class TestSwapLogRatio:
    def test_constant_lambda_gives_zero(self, rng):
        lam = np.full((2, 2), 0.5)
        model = BlockModel(m_sizes=(1, 1), n_sizes=(2, 2), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 4)
        bhat = contiguous_assignment(model)
        for v in (2, 3):
            for vp in (4, 5):
                assert swap_log_ratio(graph, bhat, model, v, vp) == pytest.approx(0.0)

    def test_matches_global_difference(self, rng):
        # the local swap computation must equal the full log-likelihood
        # difference between the swapped and unswapped assignments
        for _ in range(30):
            graph, model = random_instance(rng, max_n=8, max_k=3)
            if model.n_sizes[0] == model.n or model.n_sizes[0] == 0:
                continue
            bhat = random_bhat(rng, graph, model)
            labels = bhat.labels
            m = graph.seed_count
            in1 = [v for v in range(m, model.num_vertices) if labels[v] == 1]
            out1 = [v for v in range(m, model.num_vertices) if labels[v] != 1]
            if not in1 or not out1:
                continue
            v = in1[int(rng.integers(len(in1)))]
            vp = out1[int(rng.integers(len(out1)))]
            swapped = labels.copy()
            swapped[v], swapped[vp] = labels[vp], labels[v]
            expected = log_likelihood(
                graph, BlockAssignment(swapped), model
            ) - log_likelihood(graph, bhat, model)
            assert swap_log_ratio(graph, bhat, model, v, vp) == pytest.approx(
                expected, abs=1e-10
            )

    def test_precondition_violations(self):
        lam = np.full((2, 2), 0.5)
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 0)
        bhat = contiguous_assignment(model)
        with pytest.raises(ValueError):
            swap_log_ratio(graph, bhat, model, 0, 3)  # v is a seed
        with pytest.raises(ValueError):
            swap_log_ratio(graph, bhat, model, 3, 2)  # v not in block 1


def per_pair_scores(graph, bhat, model):
    """Segment scores as plain means of per-pair swap_log_ratio calls."""
    m = graph.seed_count
    labels = bhat.labels
    in1 = [v for v in range(m, graph.num_vertices) if labels[v] == 1]
    out1 = [v for v in range(m, graph.num_vertices) if labels[v] != 1]
    ratios = np.array(
        [[swap_log_ratio(graph, bhat, model, v, vp) for vp in out1] for v in in1]
    ).reshape(len(in1), len(out1))
    score_in = ratios.mean(axis=1) if out1 else np.zeros(len(in1))
    score_out = ratios.mean(axis=0) if in1 else np.zeros(len(out1))
    return in1, score_in, out1, score_out


def ratio_matrix_scores(graph, bhat, model, eps):
    """Segment scores as row and column means of the n1 x n2 matrix of swap
    ratios built from the block edge counts. Reference for
    likelihood._geo_mean_scores."""
    m, K = graph.seed_count, model.K
    labels0 = bhat.labels - 1
    lam = model.clamped_lam(eps)
    log_lam = np.log(lam)
    log_1m = np.log1p(-lam)
    onehot = np.eye(K, dtype=np.int64)[labels0]
    E = graph.adjacency.astype(np.int64) @ onehot
    sizes = np.bincount(labels0, minlength=K)
    S = E @ log_lam.T + (sizes - onehot - E) @ log_1m.T
    ambiguous = graph.ambiguous_vertices()
    in1 = ambiguous[labels0[m:] == 0]
    out1 = ambiguous[labels0[m:] != 0]
    k = labels0[out1]
    pair_edge = log_lam.diagonal() + log_lam[0, 0] - 2 * log_lam[0]
    pair_non = log_1m.diagonal() + log_1m[0, 0] - 2 * log_1m[0]
    ratios = (S[in1][:, k] - S[in1, :1] + (S[out1, 0] - S[out1, k])
              - np.where(graph.adjacency[np.ix_(in1, out1)], pair_edge[k], pair_non[k]))
    score_in = ratios.mean(axis=1) if len(out1) else np.zeros(len(in1))
    score_out = ratios.mean(axis=0) if len(in1) else np.zeros(len(out1))
    return in1, score_in, out1, score_out


def nomination_order(scores):
    in1, score_in, out1, score_out = scores
    return np.concatenate([rank_with_ties(in1, score_in), rank_with_ties(out1, -score_out)])


class TestGeoMeanScores:
    def assert_matches_per_pair(self, graph, bhat, model):
        got = _geo_mean_scores(graph, bhat, model)
        want = per_pair_scores(graph, bhat, model)
        for g, w in zip(got, want):
            assert len(g) == len(w)
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-9)

    def test_random_instances(self, rng):
        for _ in range(40):
            graph, model = random_instance(rng, max_n=9, max_k=3)
            self.assert_matches_per_pair(graph, random_bhat(rng, graph, model), model)

    def test_clamped_lambda(self, rng):
        # entries 0 and 1 are clamped; a random b-hat then puts edges where
        # Lambda forbids them, so log(eps) terms enter the ratios
        lam = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.5], [0.3, 0.5, 0.0]])
        model = BlockModel(m_sizes=(2, 1, 1), n_sizes=(3, 3, 2), lam=lam)
        for seed in range(5):
            graph = sample_sbm(model, contiguous_assignment(model), seed)
            self.assert_matches_per_pair(graph, random_bhat(rng, graph, model), model)

    def test_empty_out_segment(self):
        lam = np.array([[0.7, 0.3], [0.3, 0.7]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(3, 0), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 2)
        bhat = contiguous_assignment(model)
        self.assert_matches_per_pair(graph, bhat, model)
        in1, score_in, out1, score_out = _geo_mean_scores(graph, bhat, model)
        assert in1.tolist() == [2, 3, 4] and out1.tolist() == []
        assert score_in.tolist() == [0.0, 0.0, 0.0] and score_out.size == 0

    @pytest.mark.parametrize("name, count", [("small", 200), ("medium", 20)])
    def test_matches_ratio_matrix_on_replicates(self, name, count):
        # b-hat as the likelihood scheme estimates it on each replicate
        config, model, graphs = replicate_graphs(name, count)
        hyper = config.hyper
        for replicate, graph in enumerate(graphs):
            bhat = mle_block_assignment(
                graph, model, eps=hyper.eps, max_iter=hyper.sgm_max_iter,
                tol=hyper.sgm_tol, restarts=hyper.sgm_restarts,
                rng_seed=harness._replicate_seed(config.master_seed, replicate, 1))
            got = _geo_mean_scores(graph, bhat, model, eps=hyper.eps)
            want = ratio_matrix_scores(graph, bhat, model, hyper.eps)
            for g, w in zip(got, want):
                assert len(g) == len(w)
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-9)
            assert np.array_equal(nomination_order(got), nomination_order(want))


def traced_peak(call, *args):
    """The traced peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_counts_peak_below_the_packed_rows():
    # Both count the packed rows in chunks: one unpacked row per vertex
    # (N² bytes, or n·N for the ambiguous rows) would pass N²/8 bytes.
    model = BlockModel(m_sizes=(10, 10, 10), n_sizes=(990, 990, 990), lam=BASE_LAMBDA)
    bhat = contiguous_assignment(model)
    graph = sample_sbm(model, bhat, 17)
    N = graph.num_vertices
    assert traced_peak(_geo_mean_scores, graph, bhat, model) < N * N / 8
    assert traced_peak(log_likelihood, graph, bhat, model) < N * N / 8


class TestTieRule:
    def test_isolated_vertices_in_id_order(self, rng):
        lam = np.array([[0.6, 0.2], [0.2, 0.5]])
        model = BlockModel(m_sizes=(2, 2), n_sizes=(4, 4), lam=lam)
        for seed in range(5):
            graph = sample_sbm(model, contiguous_assignment(model), seed)
            bhat = random_bhat(rng, graph, model)
            # isolate two ambiguous vertices of the same b-hat segment
            segment = [v for v in range(model.m, model.num_vertices)
                       if bhat.labels[v] == bhat.labels[model.m]]
            pair = sorted(rng.choice(segment, size=2, replace=False).tolist())
            adj = graph.adjacency.copy()
            adj[pair, :] = False
            adj[:, pair] = False
            isolated = LabeledGraph(adjacency=adj, seed_labels=graph.seed_labels)
            order = likelihood_nominate(isolated, model, bhat=bhat).order.tolist()
            first, second = order.index(pair[0]), order.index(pair[1])
            assert second == first + 1

    def test_symmetric_blocks_in_id_order(self):
        # Lambda and the block sizes are symmetric under swapping blocks 2
        # and 3, and only block-1 vertices have edges, so every estimated
        # block-2 or block-3 vertex has the same score in exact arithmetic.
        # Computed, the two blocks' scores differ in the last bits for
        # about half of these Lambdas; that must not reorder them.
        ambiguous = [3, 1, 2, 3, 2, 1, 3, 2]
        bhat = BlockAssignment([1, 1, 2, 3] + ambiguous)
        block1 = [0, 1, 5, 9]
        rng = np.random.default_rng(3)
        for _ in range(20):
            p00, p01, p11, p12 = rng.uniform(0.05, 0.95, size=4)
            lam = np.array([[p00, p01, p01], [p01, p11, p12], [p01, p12, p11]])
            model = BlockModel(m_sizes=(2, 1, 1), n_sizes=(2, 3, 3), lam=lam)
            adj = np.zeros((12, 12), dtype=bool)
            for i, a in enumerate(block1):
                for b in block1[i + 1:]:
                    adj[a, b] = adj[b, a] = rng.random() < 0.7
            graph = LabeledGraph(adjacency=adj, seed_labels=[1, 1, 2, 3])
            order = likelihood_nominate(graph, model, bhat=bhat).order.tolist()
            assert order[2:] == [4 + i for i, k in enumerate(ambiguous) if k != 1]

    @pytest.mark.parametrize("segment", ["in", "out"])
    def test_twin_vertices_score_bit_equal(self, segment):
        # Copy one ambiguous vertex's neighbourhood onto another of the same
        # b-hat block, far apart in the vertex order: their scores must be
        # bit-equal, so the tie rule lists them in ascending id.
        config, model, graphs = replicate_graphs("medium", 20)
        rng = np.random.default_rng(5)
        for graph in graphs[:5]:
            m = graph.seed_count
            bhat = random_bhat(rng, graph, model)
            amb = bhat.labels[m:]
            block = np.flatnonzero(amb == 1 if segment == "in" else amb == 3) + m
            v, w = int(block[int(rng.integers(3))]), int(block[-1 - int(rng.integers(3))])
            adj = graph.adjacency.copy()
            adj[w] = adj[v]
            adj[w, w], adj[w, v] = False, adj[v, w]
            adj[:, w] = adj[w]
            twins = LabeledGraph(adjacency=adj, seed_labels=graph.seed_labels)
            in1, score_in, out1, score_out = _geo_mean_scores(twins, bhat, model)
            ids, scores = (in1, score_in) if segment == "in" else (out1, score_out)
            where = {int(u): i for i, u in enumerate(ids)}
            assert scores[where[v]] == scores[where[w]]
            order = likelihood_nominate(twins, model, bhat=bhat).order.tolist()
            assert order.index(v) < order.index(w)


class TestLikelihoodNominate:
    def test_list_does_not_depend_on_packed_layout(self):
        # Column-major packed rows are stored row-major, so the matcher sees
        # the same adjacency layout and the list cannot move.
        config, model, graphs = replicate_graphs("medium", 20)
        hyper = config.hyper
        for replicate, graph in enumerate(graphs[:4]):
            fortran = LabeledGraph(packed=np.asfortranarray(graph.packed),
                                   seed_labels=graph.seed_labels,
                                   true_labels=graph.true_labels)
            assert fortran.packed.flags.c_contiguous
            lists = [
                likelihood_nominate(
                    g, model, eps=hyper.eps, max_iter=hyper.sgm_max_iter, tol=hyper.sgm_tol,
                    rng_seed=harness._replicate_seed(config.master_seed, replicate, 1)).order
                for g in (graph, fortran)
            ]
            assert np.array_equal(lists[0], lists[1]), replicate

    def test_never_reads_the_unpacked_adjacency(self, monkeypatch):
        # The matcher and the scores work from the packed rows: the N x N
        # boolean adjacency is not unpacked on the likelihood path.
        config, model, graphs = replicate_graphs("medium", 20)
        hyper = config.hyper
        graph = graphs[0]

        def nominate():
            return likelihood_nominate(
                graph, model, eps=hyper.eps, max_iter=hyper.sgm_max_iter, tol=hyper.sgm_tol,
                restarts=hyper.sgm_restarts,
                rng_seed=harness._replicate_seed(config.master_seed, 0, 1)).order

        want = nominate()

        def unpacked(self):
            raise AssertionError("LabeledGraph.adjacency was read")

        monkeypatch.setattr(LabeledGraph, "adjacency", property(unpacked))
        assert np.array_equal(nominate(), want)

    def test_constant_lambda_gives_id_order_within_segments(self):
        lam = np.full((2, 2), 0.5)
        model = BlockModel(m_sizes=(1, 1), n_sizes=(2, 2), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 9)
        bhat = contiguous_assignment(model)
        nomination = likelihood_nominate(graph, model, bhat=bhat)
        assert nomination.order.tolist() == [2, 3, 4, 5]

    def test_all_block_one_uses_id_order(self):
        lam = np.array([[0.7, 0.3], [0.3, 0.7]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(3, 0), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 2)
        nomination = likelihood_nominate(graph, model)
        assert nomination.order.tolist() == [2, 3, 4]

    def test_head_holds_estimated_block_one(self, rng):
        for _ in range(10):
            graph, model = random_instance(rng, max_n=6, max_k=2)
            bhat = mle_block_assignment(graph, model)
            nomination = likelihood_nominate(graph, model, bhat=bhat)
            n1 = model.n_sizes[0]
            head = set(nomination.order[:n1].tolist())
            expected = {
                v
                for v in range(model.m, model.num_vertices)
                if bhat.labels[v] == 1
            }
            assert head == expected

    def test_extra_edge_to_block1_seed_never_demotes(self, rng):
        # with a fixed assignment and Lambda favoring block-1 affinity,
        # connecting v to a block-1 seed can only improve v's rank
        lam = np.array([[0.8, 0.2], [0.2, 0.6]])
        model = BlockModel(m_sizes=(2, 1), n_sizes=(3, 3), lam=lam)
        for trial in range(10):
            graph = sample_sbm(model, contiguous_assignment(model), 100 + trial)
            bhat = contiguous_assignment(model)
            candidates = [
                v
                for v in range(model.m, model.num_vertices)
                if bhat.labels[v] == 1 and not graph.adjacency[v, 0]
            ]
            if not candidates:
                continue
            v = candidates[0]
            before = likelihood_nominate(graph, model, bhat=bhat)
            adj = graph.adjacency.copy()
            adj[v, 0] = adj[0, v] = True
            bumped = LabeledGraph(
                adjacency=adj,
                seed_labels=graph.seed_labels,
                true_labels=graph.true_labels,
            )
            after = likelihood_nominate(bumped, model, bhat=bhat)
            rank_before = int(np.where(before.order == v)[0][0])
            rank_after = int(np.where(after.order == v)[0][0])
            assert rank_after <= rank_before
