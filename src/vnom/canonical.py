"""Exact canonical nomination: per-vertex conditional block-1
probabilities by exhaustive partition enumeration, in the log domain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vnom.core import PROB_EPS, block_edge_counts, block_pair_counts
from vnom.metrics import NominationList, rank_with_ties

DEFAULT_GUARD = 10**8
_CACHE_LIMIT = 10**6
_CHUNK = 200_000
# Partitions scored per X·Q product; two float64 buffers of _BLOCK x n·K.
_BLOCK = 1024

_partition_cache = {}


class InfeasibleEnumerationError(ValueError):
    """The multinomial partition count exceeds the enumeration guard."""


@dataclass(frozen=True)
class CanonicalScores:
    """Conditional block-1 probability for each ambiguous vertex."""

    prob: np.ndarray
    log_denominator: float


def partition_count(n_sizes):
    """Number of ways to split n vertices into blocks of the given sizes."""
    n = sum(n_sizes)
    count = math.factorial(n)
    for s in n_sizes:
        count //= math.factorial(s)
    return count


def check_enumeration(n_sizes, guard):
    """The partition count of n_sizes, after checking that it is within
    the enumeration guard."""
    count = partition_count(n_sizes)
    if count > guard:
        raise InfeasibleEnumerationError(
            f"{count} partitions exceed the enumeration guard ({guard}); "
            "use the likelihood maximization scheme at this scale"
        )
    return count


def enumerate_partitions(n_sizes, guard=DEFAULT_GUARD):
    """Yield every assignment of the ambiguous vertices into blocks of
    sizes n_sizes exactly once, in lexicographic order of the label
    vector. Labels are 1-based."""
    n_sizes = tuple(int(s) for s in n_sizes)
    if any(s < 0 for s in n_sizes) or sum(n_sizes) == 0:
        raise ValueError("n_sizes must be nonnegative with positive total")
    check_enumeration(n_sizes, guard)
    n = sum(n_sizes)
    labels = np.empty(n, dtype=np.int8)

    def rec(pos, remaining):
        if pos == n:
            yield labels.copy()
            return
        for k, left in enumerate(remaining):
            if left:
                labels[pos] = k + 1
                remaining[k] -= 1
                yield from rec(pos + 1, remaining)
                remaining[k] += 1

    yield from rec(0, list(n_sizes))


def _partition_matrix(n_sizes, guard):
    """All partitions as a (count, n·K) boolean one-hot matrix, cached for
    small counts: column i·K + k is set when vertex i has label k+1.

    The cache keeps only the most recent n_sizes, so it holds at most one
    matrix of up to _CACHE_LIMIT rows.
    """
    key = tuple(int(s) for s in n_sizes)
    if key in _partition_cache:
        return _partition_cache[key]
    if check_enumeration(key, guard) <= _CACHE_LIMIT:
        mat = _one_hot(np.concatenate(list(_label_chunks(key))), len(key))
        _partition_cache.clear()
        _partition_cache[key] = mat
        return mat
    return None


def _extend(labels, remaining):
    """Extend every label prefix by each label with room left in
    `remaining`, prefix-major and label-minor, so rows in lexicographic
    order stay in that order. Returns the new prefixes, their remaining
    block sizes, and the parent row and block index of each new row."""
    rows, ks = np.nonzero(remaining > 0)
    labels = np.column_stack([labels[rows], (ks + 1).astype(np.int8)])
    remaining = remaining[rows]
    remaining[np.arange(len(rows)), ks] -= 1
    return labels, remaining, rows, ks


def _label_chunks(n_sizes):
    """All partitions as rows of 1-based labels, in the order of
    enumerate_partitions, in int8 matrices of at most _CHUNK rows built one
    column at a time by _extend.

    Prefixes are extended until none has more than _CHUNK completions. Each
    run of consecutive prefixes whose completions fit in one chunk is then
    extended to full length together.
    """
    n = sum(n_sizes)
    labels = np.zeros((1, 0), dtype=np.int8)
    remaining = np.array([n_sizes], dtype=np.int32)
    # completions per prefix, as exact Python integers
    counts = np.array([partition_count(n_sizes)], dtype=object)
    while counts.max() > _CHUNK:
        depth = labels.shape[1]
        labels, remaining, rows, ks = _extend(labels, remaining)
        # a child takes the share r_k / (n - depth) of its parent's
        # completions, r_k being the room its label had before it was placed
        room = remaining[np.arange(len(rows)), ks] + 1
        counts = counts[rows] * room.astype(object) // (n - depth)
    ends = np.cumsum(counts)
    start = 0
    while start < len(labels):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + _CHUNK, side="right"))
        chunk, left = labels[start:stop], remaining[start:stop]
        for _ in range(n - labels.shape[1]):
            chunk, left, _, _ = _extend(chunk, left)
        yield chunk
        start = stop


def _one_hot(partitions, K):
    """Rows of 1-based labels as a (count, n·K) boolean one-hot matrix."""
    labels = np.asarray(partitions, dtype=np.int8)
    return (labels[:, :, None] == np.arange(1, K + 1, dtype=np.int8)).reshape(len(labels), -1)


def _chunked_partitions(n_sizes, guard):
    mat = _partition_matrix(n_sizes, guard)
    if mat is not None:
        yield mat
        return
    for labels in _label_chunks(n_sizes):
        yield _one_hot(labels, len(n_sizes))


def conditional_block1_probability(graph, model, guard=DEFAULT_GUARD, eps=PROB_EPS):
    """P[b(v) = 1 | observed graph class] for every ambiguous vertex, via
    the ratio of partition-restricted to total weighted sums.

    With x the one-hot vector of a partition (x[i·K + k] = 1 iff vertex i
    is in block k+1), its log-weight log p(b, G) is

        x^T Q x + c,   Q = (A_VV ⊗ L) / 2 + diag(seed_terms),

    where L = log Lambda - log(1 - Lambda), A_VV is the ambiguous-ambiguous
    adjacency and seed_terms[i, k] is the log-likelihood of i's pairs with
    the seeds if i is in block k+1 (the diagonal carries it because
    x_i^2 = x_i). The constant c holds the seed-seed pairs and the sum of
    log(1 - Lambda) over the ambiguous pairs, which depends only on
    n_sizes. The partitions are scored _BLOCK rows at a time through two
    reused float buffers, one X·Q product and a row-wise dot each, and
    summed as exp(log-weight - running maximum).
    """
    m, n, K = model.m, model.n, model.K
    if graph.seed_count != m or graph.ambiguous_count != n:
        raise ValueError("graph does not match the model's seed/ambiguous sizes")
    lam = model.clamped_lam(eps)
    log_lam = np.log(lam)
    log_1m = np.log1p(-lam)

    # Seed-seed contribution, identical for every partition: log p of the
    # seed-induced subgraph, half the sum over ordered pairs.
    edges, pairs = block_pair_counts(graph.packed[:m], graph.seed_labels, K)
    seed_const = 0.5 * float(np.sum(edges * log_lam + (pairs - edges) * log_1m))
    # Ambiguous-ambiguous non-edge term: sum over i < j of log(1-Lambda)[b_i, b_j].
    sizes = np.asarray(model.n_sizes, dtype=float)
    pair_const = 0.5 * float(sizes @ log_1m @ sizes - sizes @ log_1m.diagonal())
    # Edges from each ambiguous vertex to the seeds of each block.
    edges_to_seeds = block_edge_counts(graph.packed[m:], graph.seed_labels, K)
    nonedges_to_seeds = np.asarray(model.m_sizes, dtype=float)[None, :] - edges_to_seeds
    # seed_terms[v, k] = log-weight of v's seed-incident pairs if b(v) = k+1
    seed_terms = edges_to_seeds @ log_lam.T + nonedges_to_seeds @ log_1m.T

    # Q[(i, k), (j, l)] = A22[i, j] (log_lam - log_1m)[k, l] / 2: the
    # Kronecker product by broadcasting (halving first is exact)
    half = 0.5 * (log_lam - log_1m)
    Q = (graph.rows(slice(m, None))[:, None, m:, None] * half[:, None, :]).reshape(n * K, n * K)
    Q[np.diag_indices_from(Q)] += seed_terms.ravel()

    x_buf = np.empty((_BLOCK, n * K))
    xq_buf = np.empty((_BLOCK, n * K))
    shift, total, numer = -np.inf, 0.0, np.zeros(n * K)
    for chunk in _chunked_partitions(model.n_sizes, guard):
        for start in range(0, len(chunk), _BLOCK):
            x = x_buf[: min(_BLOCK, len(chunk) - start)]
            np.copyto(x, chunk[start : start + len(x)])
            xq = np.dot(x, Q, out=xq_buf[: len(x)])
            logw = np.einsum("pj,pj->p", xq, x)
            top = logw.max()
            if top > shift:
                scale = math.exp(shift - top)
                total *= scale
                numer *= scale
                shift = top
            w = np.exp(logw - shift)
            total += w.sum()
            numer += w @ x
    prob = numer[::K] / total
    log_denominator = shift + math.log(total) + pair_const + seed_const
    return CanonicalScores(prob=prob, log_denominator=float(log_denominator))


def canonical_nominate(graph, model, guard=DEFAULT_GUARD, eps=PROB_EPS):
    """Order the ambiguous vertices by decreasing conditional block-1
    probability.

    Ties are explicit, as in likelihood_nominate: a probability within
    TIE_RTOL * (1 + p) of its predecessor in sorted order joins that
    predecessor's tie group, and a tie group is ordered by ascending vertex
    id. Structurally equivalent vertices, whose probabilities are equal in
    exact arithmetic, so keep id order whatever rounding separates them.
    """
    scores = conditional_block1_probability(graph, model, guard=guard, eps=eps)
    order = rank_with_ties(graph.ambiguous_vertices(), -scores.prob)
    return NominationList(order=order, seed_count=model.m)
