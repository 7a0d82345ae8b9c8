"""Graph core: models, sampling, edge counts, likelihoods, file I/O."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE_LAMBDA, random_symmetric_lambda
from vnom import core, harness
from vnom.core import (
    PROB_EPS,
    BlockAssignment,
    BlockModel,
    LabeledGraph,
    ParseError,
    SizeMismatchError,
    block_edge_counts,
    block_pair_counts,
    contiguous_assignment,
    estimate_lambda,
    load_edge_list,
    load_labels,
    load_lambda,
    log_likelihood,
    mix_lambda,
    packed_product,
    sample_sbm,
)


def two_block_model(lam=None):
    if lam is None:
        lam = np.array([[0.7, 0.2], [0.2, 0.6]])
    return BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)


class TestBlockModel:
    def test_basic_properties(self):
        model = BlockModel(m_sizes=(4, 0, 0), n_sizes=(4, 3, 3), lam=BASE_LAMBDA)
        assert model.K == 3
        assert model.m == 4
        assert model.n == 10
        assert model.num_vertices == 14

    def test_asymmetric_lambda_rejected(self):
        lam = np.array([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(ValueError):
            BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)

    def test_out_of_range_lambda_rejected(self):
        lam = np.array([[0.5, 1.2], [1.2, 0.5]])
        with pytest.raises(ValueError):
            BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)

    def test_empty_block_of_interest_rejected(self):
        with pytest.raises(ValueError):
            BlockModel(m_sizes=(2, 0), n_sizes=(0, 3), lam=np.full((2, 2), 0.5))

    @pytest.mark.parametrize("key, value", [
        ("m_sizes", (1.5, 2)), ("n_sizes", (3, 2.5)), ("m_sizes", (True, 2)),
    ])
    def test_non_integer_sizes_rejected(self, key, value):
        # int() would run (1.5, 2) as (1, 2)
        sizes = {"m_sizes": (1, 2), "n_sizes": (3, 3), key: value}
        with pytest.raises(ValueError, match=key):
            BlockModel(**sizes, lam=np.full((2, 2), 0.5))

    def test_integral_sizes_become_ints(self):
        model = BlockModel(m_sizes=(np.int64(1), 2.0), n_sizes=np.array([3, 3]),
                           lam=np.full((2, 2), 0.5))
        assert model.m_sizes == (1, 2) and model.n_sizes == (3, 3)
        assert all(type(x) is int for x in model.m_sizes + model.n_sizes)

    def test_clamping(self):
        lam = np.array([[0.0, 1.0], [1.0, 0.5]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)
        clamped = model.clamped_lam()
        assert clamped[0, 0] == PROB_EPS
        assert clamped[0, 1] == 1.0 - PROB_EPS
        assert clamped[1, 1] == 0.5

    def test_log_probabilities_of_the_clamped_lambda(self):
        lam = np.array([[0.0, 1.0], [1.0, 0.5]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)
        for eps in (PROB_EPS, 0.01):
            clamped = model.clamped_lam(eps)
            log_lam, log_1m = model.log_probabilities(eps)
            assert np.array_equal(log_lam, np.log(clamped))
            assert np.array_equal(log_1m, np.log1p(-clamped))
            assert np.array_equal(model.log_odds(eps), log_lam - log_1m)
            assert np.isfinite(log_lam).all() and np.isfinite(log_1m).all()


class TestSampleSbm:
    def test_all_ones_gives_complete_graph(self):
        model = two_block_model(np.ones((2, 2)))
        graph = sample_sbm(model, contiguous_assignment(model), 0)
        expected = ~np.eye(4, dtype=bool)
        assert (graph.adjacency == expected).all()

    def test_all_zeros_gives_empty_graph(self):
        model = two_block_model(np.zeros((2, 2)))
        graph = sample_sbm(model, contiguous_assignment(model), 0)
        assert not graph.adjacency.any()

    def test_determinism(self):
        model = two_block_model()
        g1 = sample_sbm(model, contiguous_assignment(model), 42)
        g2 = sample_sbm(model, contiguous_assignment(model), 42)
        assert (g1.adjacency == g2.adjacency).all()
        g3 = sample_sbm(model, contiguous_assignment(model), 43)
        assert (g1.adjacency != g3.adjacency).any()

    def test_within_block_density(self):
        # 200 block-2 vertices give 19900 pairs; the empirical density of a
        # single draw should sit within 0.01 of the cell probability 0.8.
        model = BlockModel(m_sizes=(0, 200, 0), n_sizes=(1, 0, 0), lam=BASE_LAMBDA)
        graph = sample_sbm(model, contiguous_assignment(model), 7)
        sub = graph.adjacency[:200, :200]
        density = np.triu(sub, k=1).sum() / math.comb(200, 2)
        assert abs(density - 0.8) < 0.01

    def test_blockwise_sampler_matches_distribution(self):
        # perfbench wraps harness.sample_sbm_blockwise by name; it must stay
        # bound to the one sampler and draw the model's distribution.
        assert harness.sample_sbm_blockwise is sample_sbm
        model = BlockModel(m_sizes=(0, 200, 0), n_sizes=(1, 0, 0), lam=BASE_LAMBDA)
        graph = harness.sample_sbm_blockwise(model, contiguous_assignment(model), 11)
        sub = graph.adjacency[:200, :200]
        density = np.triu(sub, k=1).sum() / math.comb(200, 2)
        assert abs(density - 0.8) < 0.01
        assert not graph.adjacency.diagonal().any()
        assert (graph.adjacency == graph.adjacency.T).all()

    def test_labels_carried_through(self):
        model = two_block_model()
        graph = sample_sbm(model, contiguous_assignment(model), 3)
        assert graph.seed_labels.tolist() == [1, 2]
        assert graph.true_labels.tolist() == [1, 2]


def whole_matrix_sample(model, membership, rng_seed):
    """Reference draw: one N x N array of uniforms, compared above the
    diagonal with each pair's probability."""
    N = model.num_vertices
    labels0 = membership.labels - 1
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    probs = model.lam[labels0[:, None], labels0[None, :]]
    upper = np.triu(rng.random((N, N)) < probs, k=1)
    return upper | upper.T


def seeds_first_order(rng, model):
    """A random vertex order that permutes the seeds among themselves and
    the ambiguous vertices among themselves."""
    return np.concatenate([rng.permutation(model.m), model.m + rng.permutation(model.n)])


# seeds in two blocks, an empty third block, and blocks of 3 + 301 and
# 2 + 40 vertices, none a multiple of the strip heights below
ORDER_MODELS = [
    BlockModel(m_sizes=(3, 0, 2), n_sizes=(301, 0, 40), lam=BASE_LAMBDA),
    BlockModel(m_sizes=(2, 1, 0, 4), n_sizes=(5, 7, 0, 3),
               lam=random_symmetric_lambda(np.random.default_rng(8), 4)),
]
# N = 2,011: past several strips of the default height, and a multiple of no
# strip height
LARGE_MODEL = BlockModel(m_sizes=(5, 5, 0), n_sizes=(1203, 700, 98), lam=BASE_LAMBDA)
# N = 1 (no pair, so no uniform is kept), N = 2 (one pair), and N = 32 and
# 33: exactly one strip of the default height, then one row past it
EDGE_MODELS = [
    BlockModel(m_sizes=(0,), n_sizes=(1,), lam=[[0.5]]),
    BlockModel(m_sizes=(1,), n_sizes=(1,), lam=[[0.5]]),
    BlockModel(m_sizes=(2, 0, 1), n_sizes=(15, 9, 5), lam=BASE_LAMBDA),
    BlockModel(m_sizes=(2, 0, 1), n_sizes=(15, 9, 6), lam=BASE_LAMBDA),
]


class TestPcg64Stream:
    """The two facts of numpy's PCG64 stream that let sample_sbm skip the
    uniforms left of the diagonal without moving any it keeps."""

    def test_each_double_takes_one_word(self):
        words = np.random.PCG64(np.random.SeedSequence(21)).random_raw(50)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(21)))
        # a double is the top 53 bits of one 64-bit word
        assert np.array_equal(rng.random(50), (words >> np.uint64(11)) * 2.0**-53)
        assert rng.bit_generator.random_raw() == np.random.PCG64(
            np.random.SeedSequence(21)).random_raw(51)[-1]

    @pytest.mark.parametrize("k, n", [(0, 4), (1, 1), (1, 0), (7, 13), (10_040, 5)])
    def test_advance_then_draw_is_the_tail_of_one_draw(self, k, n):
        whole = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8))).random(k + n)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8)))
        rng.bit_generator.advance(k)
        tail = np.empty(n)
        rng.random(out=tail)
        assert np.array_equal(tail, whole[k:])

    def test_default_rng_is_pcg64_of_the_seed_sequence(self):
        pinned = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        assert np.array_equal(pinned.random(20),
                              np.random.default_rng(np.random.SeedSequence(5)).random(20))


class TestSampleOrder:
    @pytest.mark.parametrize("strip_rows", [1, 3, None])
    @pytest.mark.parametrize("model", ORDER_MODELS + [LARGE_MODEL] + EDGE_MODELS)
    def test_order_equals_permuted_order_free_sample(self, monkeypatch, rng, model,
                                                     strip_rows):
        if strip_rows is not None:
            monkeypatch.setattr(core, "_STRIP_ROWS", strip_rows)
        membership = contiguous_assignment(model)
        order = seeds_first_order(rng, model)
        free = sample_sbm(model, membership, 5)
        graph = sample_sbm(model, membership, 5, order=order)
        labels = np.concatenate([free.seed_labels, free.true_labels])
        assert np.array_equal(graph.adjacency, free.adjacency[np.ix_(order, order)])
        assert np.array_equal(graph.seed_labels, labels[order][: model.m])
        assert np.array_equal(graph.true_labels, labels[order][model.m :])

    @pytest.mark.parametrize("strip_rows", [1, 3, None])
    @pytest.mark.parametrize("model", ORDER_MODELS + [LARGE_MODEL] + EDGE_MODELS)
    def test_strips_draw_the_whole_matrix_bits(self, monkeypatch, rng, model, strip_rows):
        if strip_rows is not None:
            monkeypatch.setattr(core, "_STRIP_ROWS", strip_rows)
        # ambiguous labels shuffled, so the blocks are not contiguous
        labels = contiguous_assignment(model).labels
        membership = BlockAssignment(np.concatenate(
            [labels[: model.m], rng.permutation(labels[model.m :])]))
        graph = sample_sbm(model, membership, 9)
        assert np.array_equal(graph.adjacency, whole_matrix_sample(model, membership, 9))

    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("model", ORDER_MODELS + [LARGE_MODEL] + EDGE_MODELS)
    def test_output_is_symmetric_by_construction(self, rng, model, ordered):
        # The sampler's graph skips the constructor's symmetry scan.
        order = seeds_first_order(rng, model) if ordered else None
        graph = sample_sbm(model, contiguous_assignment(model), 4, order=order)
        assert core._is_symmetric(graph.packed)
        assert np.array_equal(graph.adjacency, graph.adjacency.T)

    def test_bad_order_rejected(self):
        model = ORDER_MODELS[1]
        membership = contiguous_assignment(model)
        N = model.num_vertices
        with pytest.raises(ValueError, match="permutation"):
            sample_sbm(model, membership, 0, order=np.zeros(N, dtype=int))
        with pytest.raises(ValueError, match="permutation"):
            sample_sbm(model, membership, 0, order=np.arange(N - 1))
        swapped = np.arange(N)
        swapped[[0, N - 1]] = swapped[[N - 1, 0]]
        with pytest.raises(ValueError, match="seeds"):
            sample_sbm(model, membership, 0, order=swapped)

    def test_peak_memory_is_bounded(self, rng):
        # The packed graph is N^2 / 8 bytes. A float64 draw of the whole
        # matrix (8 N^2 bytes), or any N x N boolean for the vertex order or
        # the symmetrisation, would push the traced peak past N^2.
        model = BlockModel(m_sizes=(10, 10, 10), n_sizes=(1000, 1000, 1000), lam=BASE_LAMBDA)
        membership = contiguous_assignment(model)
        order = seeds_first_order(rng, model)
        N = model.num_vertices
        tracemalloc.start()
        try:
            graph = sample_sbm(model, membership, 3, order=order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_vertices == N
        assert peak < N * N


class TestLabeledGraph:
    def test_self_loop_rejected(self):
        adj = np.eye(3, dtype=bool)
        with pytest.raises(ValueError):
            LabeledGraph(adjacency=adj, seed_labels=np.array([1]))

    def test_asymmetric_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            LabeledGraph(adjacency=adj, seed_labels=np.array([1]))

    @pytest.mark.parametrize("pair", [(-2, -1), (-1, 3)])
    def test_asymmetry_in_last_partial_strip_rejected(self, rng, pair):
        N = 2 * core._TRANSPOSE_COLS + 5
        upper = np.triu(rng.random((N, N)) < 0.3, k=1)
        adj = upper | upper.T
        LabeledGraph(adjacency=adj.copy(), seed_labels=np.array([1]))
        i, j = pair
        adj[i, j] = not adj[j, i]
        with pytest.raises(ValueError, match="symmetric"):
            LabeledGraph(adjacency=adj, seed_labels=np.array([1]))

    @pytest.mark.parametrize("N", [1, 7, 8, 9, 63, 64, 65])
    def test_packed_round_trip(self, rng, N):
        adj = random_adjacency(rng, N)
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1]))
        assert graph.packed.dtype == np.uint8 and graph.packed.shape == (N, -(-N // 8))
        assert np.array_equal(graph.packed, np.packbits(adj, axis=1))
        assert np.array_equal(graph.adjacency, adj)
        again = LabeledGraph(packed=graph.packed, seed_labels=np.array([1]))
        assert np.array_equal(again.adjacency, adj)
        rows = [N - 1, 0]
        assert np.array_equal(graph.rows(rows), adj[rows])
        assert np.array_equal(graph.rows(slice(1, 4)), adj[1:4])
        assert np.array_equal(graph.rows(N - 1), adj[N - 1])

    @staticmethod
    def packed_with_bit(N, i, j):
        packed = np.zeros((N, -(-N // 8)), dtype=np.uint8)
        packed[i, j // 8] |= 0x80 >> j % 8
        return packed

    def test_packed_padding_bits_rejected(self):
        # N = 9: the second byte of each row holds column 8 and 7 padding bits
        packed = np.zeros((9, 2), dtype=np.uint8)
        LabeledGraph(packed=packed, seed_labels=np.array([1]))
        packed[4, 1] = 0x01
        with pytest.raises(ValueError, match="padding"):
            LabeledGraph(packed=packed, seed_labels=np.array([1]))

    @pytest.mark.parametrize("N", [9, 70])
    def test_packed_asymmetric_rows_rejected(self, N):
        with pytest.raises(ValueError, match="symmetric"):
            LabeledGraph(packed=self.packed_with_bit(N, N - 1, 2), seed_labels=np.array([1]))
        with pytest.raises(ValueError, match="symmetric"):
            LabeledGraph(packed=self.packed_with_bit(N, 2, N - 1), seed_labels=np.array([1]))

    def test_packed_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            LabeledGraph(packed=self.packed_with_bit(9, 8, 8), seed_labels=np.array([1]))

    def test_packed_shape_and_dtype_checked(self):
        for packed in (np.zeros((9, 1), dtype=np.uint8), np.zeros((9, 2), dtype=bool),
                       np.zeros((9, 3), dtype=np.uint8)):
            with pytest.raises(SizeMismatchError):
                LabeledGraph(packed=packed, seed_labels=np.array([1]))
        with pytest.raises(TypeError, match="exactly one"):
            LabeledGraph(seed_labels=np.array([1]))
        with pytest.raises(TypeError, match="exactly one"):
            adj = np.zeros((2, 2), dtype=bool)
            LabeledGraph(adjacency=adj, packed=np.packbits(adj, axis=1),
                         seed_labels=np.array([1]))

    def test_adjacency_is_read_only(self, rng):
        adj = random_adjacency(rng, 10)
        packed = np.packbits(adj, axis=1)
        graph = LabeledGraph(packed=packed, seed_labels=np.array([1]))
        assert packed.flags.writeable
        for frozen in (graph.adjacency, graph.packed):
            assert not frozen.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frozen[0, 0] = 1
        with pytest.raises(AttributeError):
            graph.adjacency = adj
        with pytest.raises(AttributeError):
            graph.packed = packed

    def test_ambiguous_vertices(self):
        adj = np.zeros((4, 4), dtype=bool)
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1]))
        assert graph.ambiguous_vertices().tolist() == [1, 2, 3]

    def test_caller_arrays_stay_writeable(self):
        adj = np.zeros((4, 4), dtype=bool)
        seeds, truth = np.array([1]), np.array([1, 2, 2])
        graph = LabeledGraph(adjacency=adj, seed_labels=seeds, true_labels=truth)
        assert adj.flags.writeable and seeds.flags.writeable and truth.flags.writeable
        for frozen in (graph.adjacency, graph.seed_labels, graph.true_labels):
            assert not frozen.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0
        adj[1, 2] = adj[2, 1] = True  # the caller may still edit its own array
        labels = np.array([1, 2, 2])
        assignment = BlockAssignment(labels)
        assert labels.flags.writeable and not assignment.labels.flags.writeable


def random_adjacency(rng, N, p=0.3):
    upper = np.triu(rng.random((N, N)) < p, k=1)
    return upper | upper.T


def byte_columns(adjacency):
    """packed_product's byte columns of a boolean matrix."""
    return np.ascontiguousarray(np.packbits(adjacency, axis=1).T)


class TestPackedProduct:
    # Sizes below, at and past one byte group (8) and two, and one past a
    # table chunk (core._TABLE_GROUPS groups).
    SIZES = [0, 1, 7, 8, 9, 15, 16, 17, 37, 8 * core._TABLE_GROUPS + 3]

    @pytest.mark.parametrize("N", SIZES)
    def test_matches_dense_product(self, rng, N):
        adj = random_adjacency(rng, N)
        columns = byte_columns(adj)
        dense = adj.astype(float)
        counts = rng.integers(-3, 4, size=N).astype(float)
        assert np.array_equal(packed_product(columns, counts), dense @ counts)
        x = rng.normal(size=N)
        result = packed_product(columns, x)
        assert result.dtype == np.float64 and result.shape == (N,)
        assert np.allclose(result, dense @ x, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("N", SIZES)
    def test_non_symmetric_matrix(self, rng, N):
        adj = rng.random((N, N)) < 0.5
        assert N < 2 or not np.array_equal(adj, adj.T)
        columns = byte_columns(adj)
        counts = rng.integers(-3, 4, size=N).astype(float)
        assert np.array_equal(packed_product(columns, counts), adj.astype(float) @ counts)
        x = rng.normal(size=N)
        assert np.allclose(packed_product(columns, x), adj.astype(float) @ x,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 13), (13, 5), (3, 0), (0, 3)])
    def test_rectangular_matrix(self, rng, shape):
        adj = rng.random(shape) < 0.5
        counts = rng.integers(-3, 4, size=shape[1]).astype(float)
        assert np.array_equal(packed_product(byte_columns(adj), counts),
                              adj.astype(float) @ counts)

    def test_each_bit_reaches_its_column(self):
        # Row i holds only column i, so A·x = x: every bit of every byte
        # position, most significant first, picks its own entry of x.
        N = 19
        x = 2.0 ** np.arange(N)
        assert np.array_equal(packed_product(byte_columns(np.eye(N, dtype=bool)), x), x)


def count_nonzero_oracle(A, labels, K):
    """E[v, k]: the set entries of row v of the boolean A among the leading
    len(labels) columns labeled k+1, by np.count_nonzero."""
    labels = np.asarray(labels)
    A = A[:, : len(labels)]
    expected = np.zeros((A.shape[0], K), dtype=np.int64)
    for k in range(K):
        expected[:, k] = np.count_nonzero(A[:, labels == k + 1], axis=1)
    return expected


class TestBlockEdgeCounts:
    @pytest.mark.parametrize("N", [0, 1, 5, 14, 16, 37, 100, 300])
    @pytest.mark.parametrize("view", ["whole", "rows_past_m", "first_m_columns"])
    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_matches_count_nonzero(self, rng, N, view, K):
        adj = random_adjacency(rng, N)
        # block K is empty when K > 1, and label K + 1 counts toward no block
        labels = np.where(rng.random(N) < 0.2, K + 1, rng.integers(1, max(K, 2), size=N))
        m = N // 3
        rows, columns = {"whole": (slice(None), N), "rows_past_m": (slice(m, None), m),
                         "first_m_columns": (slice(None), m)}[view]
        A = adj[rows]
        counts = block_edge_counts(np.packbits(A, axis=1), labels[:columns], K)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, count_nonzero_oracle(A, labels[:columns], K))
        assert K == 1 or not counts[:, K - 1].any()

    def test_no_columns(self, rng):
        packed = np.packbits(random_adjacency(rng, 20), axis=1)
        assert np.array_equal(block_edge_counts(packed, [], 2), np.zeros((20, 2)))
        assert np.array_equal(block_edge_counts(packed[:, :0], [], 2), np.zeros((20, 2)))

    @pytest.mark.parametrize("N", [1, 5, 13, 37])
    def test_padding_bits_do_not_count(self, N):
        # Rows of all-ones bytes set the padding bits past column N too;
        # only the N labeled columns count, and a label outside 1..K
        # counts toward no block.
        labels = np.arange(N) % 4 + 1
        packed = np.full((3, -(-N // 8)), 0xFF, dtype=np.uint8)
        expected = np.bincount(labels, minlength=5)[1:4]
        assert np.array_equal(block_edge_counts(packed, labels, 3), np.tile(expected, (3, 1)))

    def test_labels_shorter_than_the_row(self, rng):
        # The bits past the labeled leading columns do not count, whether
        # the labels end inside a byte or on a byte boundary.
        adj = rng.random((9, 30)) < 0.5
        packed = np.packbits(adj, axis=1)
        for M in (0, 3, 8, 16, 21, 29):
            labels = rng.integers(1, 4, size=M)
            assert np.array_equal(block_edge_counts(packed, labels, 3),
                                  count_nonzero_oracle(adj, labels, 3))

    @pytest.mark.parametrize("count_bytes", [1, 40, 1000])
    def test_any_chunk_height_gives_the_same_counts(self, rng, monkeypatch, count_bytes):
        adj = random_adjacency(rng, 77)
        labels = rng.integers(1, 4, size=77)
        monkeypatch.setattr(core, "_COUNT_BYTES", count_bytes)
        assert np.array_equal(block_edge_counts(np.packbits(adj, axis=1), labels, 3),
                              count_nonzero_oracle(adj, labels, 3))


class TestBlockPairCounts:
    LABELS = np.array([1, 1, 2, 2])

    def test_empty_graph(self):
        edges, pairs = block_pair_counts(np.packbits(np.zeros((4, 4), dtype=bool), axis=1),
                                         self.LABELS, 2)
        assert not edges.any()
        assert pairs.tolist() == [[2, 4], [4, 2]]

    def test_complete_graph_two_blocks(self):
        edges, pairs = block_pair_counts(np.packbits(~np.eye(4, dtype=bool), axis=1),
                                         self.LABELS, 2)
        assert edges.tolist() == [[2, 4], [4, 2]]
        assert np.array_equal(edges, pairs)

    def test_single_cross_edge(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 2] = adj[2, 0] = True
        edges, pairs = block_pair_counts(np.packbits(adj, axis=1), self.LABELS, 2)
        assert edges.tolist() == [[0, 1], [1, 0]]
        assert (pairs - edges).tolist() == [[2, 3], [3, 2]]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_complementarity(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 9))
        K = int(rng.integers(1, 4))
        adj = rng.random((N, N)) < 0.5
        adj = np.triu(adj, k=1)
        adj = adj | adj.T
        labels = rng.integers(1, K + 1, size=N)
        edges, pairs = block_pair_counts(np.packbits(adj, axis=1), labels, K)
        sizes = np.bincount(labels, minlength=K + 1)[1:]
        assert np.array_equal(edges, edges.T)
        for k in range(K):
            for l in range(K):
                assert pairs[k, l] == sizes[k] * (sizes[l] - (k == l))
                assert 0 <= edges[k, l] <= pairs[k, l]
                ik, il = labels == k + 1, labels == l + 1
                assert edges[k, l] == adj[np.ix_(ik, il)].sum()


class TestPairCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_seed_rows_of_one_pass_match_the_seed_subgraph(self, seed):
        # the rows of the seeds in a count pass over the whole graph give
        # what a pass over the seed-induced subgraph gives
        rng = np.random.default_rng(seed)
        N, m, K = 30, 17, 3
        adj = np.triu(rng.random((N, N)) < 0.4, k=1)
        packed = np.packbits(adj | adj.T, axis=1)
        seeds = rng.integers(1, K + 1, size=m)
        counts = block_edge_counts(packed, seeds, K)
        got = core.pair_counts(counts[:m], seeds, K)
        want = block_pair_counts(packed[:m], seeds, K)
        assert all(np.array_equal(g, w) and g.dtype == np.int64 for g, w in zip(got, want))

    def test_no_labeled_rows(self):
        edges, pairs = core.pair_counts(np.zeros((0, 2), dtype=np.int64), np.zeros(0, int), 2)
        assert not edges.any() and not pairs.any() and edges.shape == pairs.shape == (2, 2)


class TestLogLikelihood:
    def test_uniform_half(self):
        model = two_block_model(np.full((2, 2), 0.5))
        graph = sample_sbm(model, contiguous_assignment(model), 0)
        ll = log_likelihood(graph, contiguous_assignment(model), model)
        assert ll == pytest.approx(6 * math.log(0.5))

    def test_single_pair(self):
        lam = np.array([[0.7, 0.2], [0.2, 0.6]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 0), lam=lam)
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1, 2]))
        assignment = BlockAssignment(np.array([1, 2, 1]))
        ll = log_likelihood(graph, assignment, model)
        expected = math.log(0.2) + math.log(1 - 0.7) + math.log(1 - 0.2)
        assert ll == pytest.approx(expected)

    def test_probabilities_sum_to_one(self):
        # summing exp(log-likelihood) over all graphs on a fixed vertex set
        # must give 1 for any fixed assignment
        rng = np.random.default_rng(5)
        lam = random_symmetric_lambda(rng, 2)
        model = BlockModel(m_sizes=(1, 0), n_sizes=(1, 1), lam=lam)
        assignment = BlockAssignment(np.array([1, 1, 2]))
        total = 0.0
        pairs = [(0, 1), (0, 2), (1, 2)]
        for bits in range(8):
            adj = np.zeros((3, 3), dtype=bool)
            for idx, (a, b) in enumerate(pairs):
                if bits >> idx & 1:
                    adj[a, b] = adj[b, a] = True
            graph = LabeledGraph(adjacency=adj, seed_labels=np.array([1]))
            total += math.exp(log_likelihood(graph, assignment, model))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestEstimateLambda:
    def _graph(self, adj, seed_labels):
        return LabeledGraph(adjacency=adj, seed_labels=np.asarray(seed_labels))

    def test_complete_block_clamps_high(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        graph = self._graph(adj, [1, 1, 2, 2])
        lam = estimate_lambda(graph, 2)
        assert lam[0, 0] == 1.0 - PROB_EPS
        assert lam[0, 1] == PROB_EPS

    def test_partial_density(self):
        adj = np.zeros((4, 4), dtype=bool)
        for a, b in [(0, 1), (1, 2)]:
            adj[a, b] = adj[b, a] = True
        graph = self._graph(adj, [1, 1, 1, 2])
        # block 2 has a single seed: the within-block density is undefined
        with pytest.raises(ValueError, match="block 2"):
            estimate_lambda(graph, 2)

    def test_two_of_three_edges(self):
        adj = np.zeros((5, 5), dtype=bool)
        for a, b in [(0, 1), (1, 2)]:
            adj[a, b] = adj[b, a] = True
        graph = self._graph(adj, [1, 1, 1, 2, 2])
        lam = estimate_lambda(graph, 2)
        assert lam[0, 0] == pytest.approx(2 / 3)

    def test_empty_later_block_named(self):
        graph = self._graph(np.zeros((5, 5), dtype=bool), [1, 1, 2, 1, 2])
        with pytest.raises(ValueError, match="block 3 has no seeds"):
            estimate_lambda(graph, 3)

    def test_matches_pairwise_densities(self, rng):
        N, m, K = 60, 30, 3
        adj = random_adjacency(rng, N)
        labels = np.concatenate([np.repeat([1, 2, 3], 10), rng.integers(1, K + 1, N - m)])
        graph = LabeledGraph(adjacency=adj, seed_labels=labels[:m], true_labels=labels[m:])
        adj, labels = adj[:m, :m], labels[:m]
        expected = np.zeros((K, K))
        for k in range(1, K + 1):
            ik = np.flatnonzero(labels == k)
            sub = adj[np.ix_(ik, ik)]
            expected[k - 1, k - 1] = np.triu(sub, k=1).sum() / math.comb(len(ik), 2)
            for l in range(k + 1, K + 1):
                il = np.flatnonzero(labels == l)
                dens = adj[np.ix_(ik, il)].sum() / (len(ik) * len(il))
                expected[k - 1, l - 1] = expected[l - 1, k - 1] = dens
        lam = estimate_lambda(graph, K, eps=0.0)
        assert np.array_equal(lam, expected)

    def test_seed_in_block_above_k_ignored(self, rng):
        N, K = 31, 3
        adj = random_adjacency(rng, N)
        labels = np.concatenate([np.repeat([1, 2, 3], 10), [K + 1]])
        with_extra = LabeledGraph(adjacency=adj, seed_labels=labels)
        without = LabeledGraph(adjacency=adj[:-1, :-1], seed_labels=labels[:-1])
        assert np.array_equal(estimate_lambda(with_extra, K), estimate_lambda(without, K))


class TestMixLambda:
    def test_identity_at_one(self):
        assert np.allclose(mix_lambda(BASE_LAMBDA, 1.0), BASE_LAMBDA)

    def test_constant_at_zero(self):
        assert np.allclose(mix_lambda(BASE_LAMBDA, 0.0), 0.5)

    def test_point_three(self):
        expected = np.array(
            [[0.50, 0.44, 0.47], [0.44, 0.59, 0.53], [0.47, 0.53, 0.44]]
        )
        assert np.allclose(mix_lambda(BASE_LAMBDA, 0.3), expected)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            mix_lambda(BASE_LAMBDA, 1.5)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_preserves_symmetry_and_range(self, theta):
        mixed = mix_lambda(BASE_LAMBDA, theta)
        assert np.allclose(mixed, mixed.T)
        assert mixed.min() >= 0.0 and mixed.max() <= 1.0


class TestLoadEdgeList:
    def test_symmetrization(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 1\n")
        graph = load_edge_list(edges)
        assert graph.num_vertices == 2
        assert graph.adjacency[0, 1] and graph.adjacency[1, 0]
        assert graph.adjacency.sum() == 2

    @pytest.mark.parametrize("N", [2, 7, 8, 9, 37, 100])
    def test_packed_rows_match_a_dense_build(self, tmp_path, rng, N):
        pairs = rng.integers(1, N + 1, size=(2 * N, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # every third edge again, and every other one reversed
        pairs = np.concatenate([pairs, pairs[::3], pairs[::2, ::-1]])
        edges = tmp_path / "edges.txt"
        edges.write_text(f"#vertices {N}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        adj = np.zeros((N, N), dtype=bool)
        adj[pairs[:, 0] - 1, pairs[:, 1] - 1] = True
        adj[pairs[:, 1] - 1, pairs[:, 0] - 1] = True
        assert np.array_equal(load_edge_list(edges).packed, np.packbits(adj, axis=1))

    def test_memory_is_bounded(self, tmp_path, rng):
        # The packed rows are N^2 / 8 bytes; an N x N boolean would be N^2.
        N = 3000
        pairs = rng.integers(1, N + 1, size=(4000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        edges = tmp_path / "edges.txt"
        edges.write_text(f"#vertices {N}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        tracemalloc.start()
        try:
            graph = load_edge_list(edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_vertices == N
        assert peak < N * N / 2

    @pytest.mark.parametrize("text, message", [
        ("1 2\n3 3\nx y\n", r":2: self-loop on vertex 3"),
        ("1 2\nx y\n3 3\n", r":2: non-integer vertex id"),
        ("#vertices 4\n\n# note\n0 1\n1 2 3\n", r":4: vertex ids are 1-based"),
        ("2 1\n\n#vertices x\n4 4\n", r":3: malformed '#vertices' header"),
    ])
    def test_first_faulty_line_is_reported(self, tmp_path, text, message):
        # lines are checked in file order
        edges = tmp_path / "edges.txt"
        edges.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_edge_list(edges)

    def test_unusual_ids_parse_as_int_does(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("#vertices 12\n+3 4\n1_0 2\r\n  05\t\t6  \n7\x0b8\n")
        got = load_edge_list(edges).adjacency
        want = np.zeros((12, 12), dtype=bool)
        for a, b in [(3, 4), (10, 2), (5, 6), (7, 8)]:
            want[a - 1, b - 1] = want[b - 1, a - 1] = True
        assert np.array_equal(got, want)

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("3 3\n")
        with pytest.raises(ParseError, match=":1:"):
            load_edge_list(edges)

    def test_header_declares_isolated_vertices(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("#vertices 5\n1 2\n")
        graph = load_edge_list(edges)
        assert graph.num_vertices == 5
        assert not graph.adjacency[4].any()

    def test_header_only_gives_empty_graph(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("#vertices 3\n")
        graph = load_edge_list(edges)
        assert graph.num_vertices == 3
        assert not graph.adjacency.any()

    def test_header_smaller_than_max_id_rejected(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("#vertices 2\n1 3\n")
        with pytest.raises(ParseError):
            load_edge_list(edges)

    def test_id_beyond_int64_is_compared_with_the_header(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("#vertices 2\n1 12345678901234567890\n")
        with pytest.raises(ParseError, match="vertex 12345678901234567890 referenced but only 2"):
            load_edge_list(edges)

    @pytest.mark.parametrize("header", ["#vertices -3", "#vertices", "#vertices x"])
    def test_malformed_header_rejected_at_its_line(self, tmp_path, header):
        edges = tmp_path / "edges.txt"
        edges.write_text(f"1 2\n{header}\n")
        with pytest.raises(ParseError, match=r"edges\.txt:2: malformed '#vertices' header"):
            load_edge_list(edges)

    def test_labels_attach_to_prefix(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("#vertices 6\n1 5\n2 6\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1 1\n2 1\n3 1\n4 1\n")
        graph = load_edge_list(edges, labels)
        assert graph.seed_count == 4
        assert graph.seed_labels.tolist() == [1, 1, 1, 1]

    def test_non_prefix_seeds_rejected(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("2 1\n")
        with pytest.raises(ParseError):
            load_edge_list(edges, labels)

    def test_malformed_line(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n1 2 3\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_list(edges)

    def test_seed_listed_twice_rejected_with_line_number(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1 1\n1 2\n")
        with pytest.raises(ParseError, match=r"labels\.txt:2: vertex 1 listed twice"):
            load_edge_list(edges, labels)

    def test_seed_ids_with_gap_rejected(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n3 4\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("1 1\n3 2\n")
        with pytest.raises(ParseError, match=r"cover vertices 1\.\.3"):
            load_edge_list(edges, labels)


@pytest.mark.parametrize("read, line", [
    (load_edge_list, "1 2 3\n"),
    (load_labels, "2\n"),
], ids=["edges", "labels"])
def test_non_utf8_file_fails_as_such_before_any_line_error(tmp_path, read, line):
    # line 2 is malformed, and the first byte that is not UTF-8 lies past
    # the first 8 KiB, where a line-by-line decode would not yet have read
    path = tmp_path / "file.txt"
    path.write_bytes(("1 2\n" + line + "# padding\n" * 1000).encode() + b"\xff\n")
    assert path.stat().st_size > 8192
    with pytest.raises(ParseError, match=r"file\.txt: not UTF-8 text"):
        read(path)


class TestLoadLabels:
    def test_blocks_in_vertex_order(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# vertex block\n3 2\n1 1\n\n2 3\n")
        assert load_labels(path).tolist() == [1, 3, 2]
        assert load_labels(path, 3).tolist() == [1, 3, 2]

    def test_empty_file_gives_no_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# vertex block\n")
        assert load_labels(path).tolist() == []


class TestLoadLambda:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lambda.json"
        path.write_text(
            '{"K": 2, "lambda": [[0.7, 0.2], [0.2, 0.6]]}', encoding="utf-8"
        )
        lam = load_lambda(path)
        assert np.allclose(lam, [[0.7, 0.2], [0.2, 0.6]])

    @pytest.mark.parametrize("text", ["", '{"K": 2,'])
    def test_invalid_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "lambda.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=r"lambda\.json: invalid JSON"):
            load_lambda(path)

    def test_wrong_size(self, tmp_path):
        path = tmp_path / "lambda.json"
        path.write_text('{"K": 2, "lambda": [0.5, 0.5]}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_lambda(path)

    @pytest.mark.parametrize("key, text", [
        ("K", '{"K": "two", "lambda": [[0.7, 0.2], [0.2, 0.6]]}'),
        ("lambda", '{"K": 2, "lambda": [[0.7, "x"], ["x", 0.6]]}'),
        ("K", '{"K": 2.5, "lambda": [[0.7, 0.2], [0.2, 0.6]]}'),
        ("K", '{"K": true, "lambda": [[0.7]]}'),
    ], ids=["K", "lambda", "K-fraction", "K-bool"])
    def test_field_that_fails_conversion_is_named(self, tmp_path, key, text):
        path = tmp_path / "lambda.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"'{key}' must be"):
            load_lambda(path)

    def test_integral_float_k_parses(self, tmp_path):
        path = tmp_path / "lambda.json"
        path.write_text('{"K": 2.0, "lambda": [[0.7, 0.2], [0.2, 0.6]]}', encoding="utf-8")
        assert load_lambda(path).shape == (2, 2)

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "lambda.json"
        path.write_text(
            '{"K": 2, "lambda": [[0.5, 0.1], [0.2, 0.5]]}', encoding="utf-8"
        )
        with pytest.raises(ParseError):
            load_lambda(path)
