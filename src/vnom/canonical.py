"""Exact canonical nomination: per-vertex conditional block-1
probabilities by exhaustive partition enumeration, in the log domain."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import logsumexp

from vnom.core import (
    PROB_EPS,
    BlockAssignment,
    LabeledGraph,
    block_edge_counts,
    edge_counts,
)
from vnom.metrics import NominationList

DEFAULT_GUARD = 10**8
_CACHE_LIMIT = 10**6
_CHUNK = 200_000

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


def enumerate_partitions(n_sizes, guard=DEFAULT_GUARD):
    """Yield every assignment of the ambiguous vertices into blocks of
    sizes n_sizes exactly once, in lexicographic order of the label
    vector. Labels are 1-based."""
    n_sizes = tuple(int(s) for s in n_sizes)
    if any(s < 0 for s in n_sizes) or sum(n_sizes) == 0:
        raise ValueError("n_sizes must be nonnegative with positive total")
    count = partition_count(n_sizes)
    if count > guard:
        raise InfeasibleEnumerationError(
            f"{count} partitions exceed the enumeration guard ({guard}); "
            "use the likelihood maximization scheme at this scale"
        )
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
    """All partitions as a (count, n) int8 matrix, cached for small counts.

    The cache keeps only the most recent n_sizes, so it holds at most one
    matrix of up to _CACHE_LIMIT rows.
    """
    key = tuple(int(s) for s in n_sizes)
    if key in _partition_cache:
        return _partition_cache[key]
    count = partition_count(key)
    if count > guard:
        raise InfeasibleEnumerationError(
            f"{count} partitions exceed the enumeration guard ({guard}); "
            "use the likelihood maximization scheme at this scale"
        )
    if count <= _CACHE_LIMIT:
        mat = np.array(list(enumerate_partitions(key, guard)), dtype=np.int8)
        _partition_cache.clear()
        _partition_cache[key] = mat
        return mat
    return None


def _chunked_partitions(n_sizes, guard):
    mat = _partition_matrix(n_sizes, guard)
    if mat is not None:
        yield mat
        return
    gen = enumerate_partitions(n_sizes, guard)
    while True:
        chunk = list(islice(gen, _CHUNK))
        if not chunk:
            return
        yield np.array(chunk, dtype=np.int8)


def _chunk_log_weights(labels0, adj_vv, pair_index, seed_terms, log_lam, log_1m):
    """Log-weight of each partition in a chunk, up to the seed-seed
    constant shared by every partition."""
    logw = seed_terms[np.arange(seed_terms.shape[0])[None, :], labels0].sum(axis=1)
    for i, j in pair_index:
        w = log_lam if adj_vv[i, j] else log_1m
        logw += w[labels0[:, i], labels0[:, j]]
    return logw


def conditional_block1_probability(graph, model, guard=DEFAULT_GUARD, eps=PROB_EPS):
    """P[b(v) = 1 | observed graph class] for every ambiguous vertex, via
    the ratio of partition-restricted to total weighted sums."""
    m, n, K = model.m, model.n, model.K
    if graph.seed_count != m or graph.ambiguous_count != n:
        raise ValueError("graph does not match the model's seed/ambiguous sizes")
    lam = model.clamped_lam(eps)
    log_lam = np.log(lam)
    log_1m = np.log1p(-lam)

    # Seed-seed contribution, identical for every partition.
    if m > 0:
        seed_graph = LabeledGraph(
            adjacency=graph.adjacency[:m, :m], seed_labels=graph.seed_labels
        )
        seed_counts = edge_counts(seed_graph, BlockAssignment(graph.seed_labels))
        k_used = seed_counts.e.shape[0]
        mask = np.triu(np.ones((k_used, k_used), dtype=bool))
        seed_const = float(
            np.sum(
                seed_counts.e[mask] * log_lam[:k_used, :k_used][mask]
                + seed_counts.c[mask] * log_1m[:k_used, :k_used][mask]
            )
        )
    else:
        seed_const = 0.0
    # Edges from each ambiguous vertex to the seeds of each block.
    edges_to_seeds = block_edge_counts(graph.adjacency[m:, :m], graph.seed_labels, K)
    nonedges_to_seeds = np.asarray(model.m_sizes, dtype=float)[None, :] - edges_to_seeds
    # seed_terms[v, k] = log-weight of v's seed-incident pairs if b(v) = k+1
    seed_terms = edges_to_seeds @ log_lam.T + nonedges_to_seeds @ log_1m.T

    adj_vv = graph.adjacency[m:, m:]
    pair_index = [(i, j) for i in range(n) for j in range(i + 1, n)]

    chunk_totals = []
    chunk_numerators = []
    for chunk in _chunked_partitions(model.n_sizes, guard):
        labels0 = chunk.astype(np.intp) - 1
        logw = _chunk_log_weights(labels0, adj_vv, pair_index, seed_terms, log_lam, log_1m)
        chunk_totals.append(logsumexp(logw))
        numer = np.full(n, -np.inf)
        in_block1 = labels0 == 0
        for v in range(n):
            sel = logw[in_block1[:, v]]
            if sel.size:
                numer[v] = logsumexp(sel)
        chunk_numerators.append(numer)

    log_total = logsumexp(np.array(chunk_totals))
    log_numer = logsumexp(np.stack(chunk_numerators, axis=0), axis=0)
    prob = np.exp(log_numer - log_total)
    return CanonicalScores(prob=prob, log_denominator=float(log_total + seed_const))


def canonical_nominate(graph, model, guard=DEFAULT_GUARD, eps=PROB_EPS):
    """Order the ambiguous vertices by decreasing conditional block-1
    probability; ties break by ascending vertex id."""
    scores = conditional_block1_probability(graph, model, guard=guard, eps=eps)
    n = model.n
    # stable sort on -prob keeps ascending vertex id within ties
    order = np.argsort(-scores.prob, kind="stable") + model.m
    assert len(order) == n
    return NominationList(order=order, seed_count=model.m)
