"""Exact canonical nomination: per-vertex conditional block-1
probabilities by exhaustive partition enumeration, in the log domain."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from vnom.core import PROB_EPS, block_edge_counts, pair_counts
from vnom.metrics import NominationList, rank_with_ties

DEFAULT_GUARD = 10**8
# Most entries in one float64 block (8 MiB): of log-weights, or of a half's
# one-hot rows while their quadratic terms or A1 are formed.
_TILE = 2**20


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


@functools.lru_cache(maxsize=1)
def _half_partitions(n_sizes, h1, h2):
    """Every labeling of the first h1 and of the first h2 vertices (h1 <= h2)
    that fits in blocks of sizes n_sizes (a tuple of ints), as two
    (rows, h·K) read-only boolean one-hot matrices (column i·K + k is set
    when vertex i has label k+1), each with the tuple of row bounds of its
    groups.

    The labelings are extended one vertex at a time as label vectors, in
    the order of enumerate_partitions, keeping only those with room left,
    so no K^h matrix is built and each one-hot matrix is made once, from
    its sorted labels. Each matrix is sorted stably by a mixed-radix code of
    block sizes, and a group is a run of rows with one code: H1 is coded by
    the sizes its rows leave and H2 by the sizes its rows use, so group g of
    H1 and group g of H2 complete each other.

    The halves depend only on the arguments, so they are built once per
    model: the latest model's are kept (maxsize=1), so what stays held
    between calls is never more than one call's own halves.
    """
    K = len(n_sizes)
    eye = np.eye(K, dtype=bool)
    # mixed radix with block 1 most significant: codes sort sizes lexicographically
    radix = np.array([math.prod(s + 1 for s in n_sizes[k + 1 :]) for k in range(K)])
    labels = np.zeros((1, 0), dtype=np.min_scalar_type(K))  # 0-based label of each vertex
    left = np.array([n_sizes], dtype=np.min_scalar_type(max(n_sizes)))
    code = left @ radix  # the code of the sizes each row leaves
    first = (labels, code)
    for level in range(1, h2 + 1):
        rows, ks = np.nonzero(left > 0)
        labels = np.concatenate([labels[rows], ks[:, None].astype(labels.dtype)], axis=1)
        left = left[rows] - eye[ks]
        code = code[rows] - radix[ks]
        if level == h1:
            first = (labels, code)
    used = radix @ n_sizes - code  # the code of the sizes each H2 row uses
    halves = []
    for labels, code in (first, (labels, used)):
        order = np.argsort(code, kind="stable")
        code = code[order]
        cuts = np.flatnonzero(code[1:] != code[:-1]) + 1
        # one-hot from the sorted labels: no boolean matrix is copied
        x = (labels[order][:, :, None] == np.arange(K)).reshape(len(order), labels.shape[1] * K)
        x.flags.writeable = False
        halves += [x, (0, *cuts.tolist(), len(order))]
    return tuple(halves)


def _float_tiles(x):
    """The rows of a boolean matrix as float tiles of at most _TILE entries
    (one row, if a row alone is larger): (row slice, float rows) pairs.
    Every tile is written into one buffer, so a tile is held only until
    the next one is made."""
    step = max(_TILE // (x.shape[1] + 1), 1)
    buf = np.empty((min(step, len(x)), x.shape[1]))
    for i in range(0, len(x), step):
        y = buf[: min(step, len(x) - i)]
        y[...] = x[i : i + step]
        yield slice(i, i + step), y


def _quadratic_terms(x, Q):
    """xᵀQx for every row x of a boolean matrix, _TILE entries at a time."""
    q = np.empty(len(x))
    for rows, y in _float_tiles(x):
        q[rows] = np.einsum("pj,pj->p", y @ Q, y)
    return q


def _product(x, R):
    """x @ R for a boolean matrix x, _TILE entries of x at a time, so no
    float copy of all of x is made."""
    product = np.empty((len(x), R.shape[1]))
    for rows, y in _float_tiles(x):
        np.matmul(y, R, out=product[rows])
    return product


def _tiles(bounds1, bounds2):
    """For each pair of groups that complete each other, the H2 group's rows
    and the H1 group's rows split into tiles of at most _TILE log-weights
    against it (one row, if the H2 group alone is larger)."""
    for lo1, hi1, lo2, hi2 in zip(bounds1[:-1], bounds1[1:], bounds2[:-1], bounds2[1:]):
        step = max(_TILE // (hi2 - lo2), 1)
        yield slice(lo2, hi2), [slice(i, min(i + step, hi1)) for i in range(lo1, hi1, step)]


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
    n_sizes. The seed terms and the seed-seed pairs come from one
    block_edge_counts pass over every row against the seed labels: its
    ambiguous rows are the edges to each seed block, and its seed rows
    summed by block give the seed-seed edges.

    The partitions are scored by meet-in-the-middle. With H1 the first
    floor(n/2) ambiguous vertices and H2 the rest, x = (x1, x2) and

        x^T Q x = q1 + q2 + x1 (2 Q12) x2^T,   qi = xi^T Qii xi.

    The halves come from _half_partitions, built once per model and kept
    for the next call. Each pair of their groups that complete each other
    is scored as one product with A1 = X1 (2 Q12), in the row tiles of
    _tiles, and summed as exp(log-weight - running maximum). The row sums
    of the weights, applied to H1's block-1 columns, and their column sums,
    applied to H2's, give the numerators. A1 and the qi are formed from
    float row tiles of the halves (_float_tiles), so no float copy of a
    whole half is made.
    """
    m, n, K = model.m, model.n, model.K
    if graph.seed_count != m or graph.ambiguous_count != n:
        raise ValueError("graph does not match the model's seed/ambiguous sizes")
    check_enumeration(model.n_sizes, guard)
    log_lam, log_1m = model.log_probabilities(eps)

    # One count pass over every row: edges from each vertex to the seeds
    # of each block. The seed rows give the seed-seed pairs, identical for
    # every partition: log p of the seed-induced subgraph, half the sum
    # over ordered pairs.
    counts = block_edge_counts(graph.packed, graph.seed_labels, K)
    edges, pairs = pair_counts(counts[:m], graph.seed_labels, K)
    seed_const = 0.5 * float(np.sum(edges * log_lam + (pairs - edges) * log_1m))
    # Ambiguous-ambiguous non-edge term: sum over i < j of log(1-Lambda)[b_i, b_j].
    sizes = np.asarray(model.n_sizes, dtype=float)
    pair_const = 0.5 * float(sizes @ log_1m @ sizes - sizes @ log_1m.diagonal())
    # seed_terms[v, k] = log-weight of v's seed-incident pairs if b(v) = k+1
    edges_to_seeds = counts[m:]
    nonedges_to_seeds = np.asarray(model.m_sizes, dtype=float)[None, :] - edges_to_seeds
    seed_terms = edges_to_seeds @ log_lam.T + nonedges_to_seeds @ log_1m.T

    # Q[(i, k), (j, l)] = A22[i, j] (log_lam - log_1m)[k, l] / 2: the
    # Kronecker product by broadcasting (halving first is exact)
    half = 0.5 * (log_lam - log_1m)
    Q = (graph.rows(slice(m, None))[:, None, m:, None] * half[:, None, :]).reshape(n * K, n * K)
    Q[np.diag_indices_from(Q)] += seed_terms.ravel()

    h1 = n // 2
    x1, bounds1, x2, bounds2 = _half_partitions(model.n_sizes, h1, n - h1)
    cut = h1 * K
    q1, q2 = _quadratic_terms(x1, Q[:cut, :cut]), _quadratic_terms(x2, Q[cut:, cut:])
    a1 = _product(x1, 2 * Q[:cut, cut:])
    # summed weight of the partitions through each H1 row and each H2 row
    shift, w1, w2 = -np.inf, np.zeros(len(x1)), np.zeros(len(x2))
    # One buffer for an H2 group's float rows and one for a tile of
    # log-weights (at most _TILE entries, or one row of the largest H2
    # group), so no two of either are held at once.
    g1, g2 = (max(hi - lo for lo, hi in zip(b[:-1], b[1:])) for b in (bounds1, bounds2))
    y2buf, logbuf = np.empty((g2, x2.shape[1])), np.empty(min(max(_TILE, g2), g1 * g2))
    for rows2, tiles in _tiles(bounds1, bounds2):
        y2 = y2buf[: rows2.stop - rows2.start]
        y2[...] = x2[rows2]
        for rows1 in tiles:
            size = (rows1.stop - rows1.start) * len(y2)
            logw = np.dot(a1[rows1], y2.T, out=logbuf[:size].reshape(-1, len(y2)))
            logw += q1[rows1, None]
            logw += q2[rows2]
            top = logw.max()
            if top > shift:
                scale = math.exp(shift - top)
                w1 *= scale
                w2 *= scale
                shift = top
            w = np.exp(np.subtract(logw, shift, out=logw), out=logw)
            w1[rows1] = w.sum(axis=1)
            w2[rows2] += w.sum(axis=0)
    # A1 is done with: freeing it before the numerators, which convert
    # H2's block-1 columns to float, keeps the two from being held together
    del a1
    total = w1.sum()
    prob = np.concatenate([w1 @ x1[:, ::K], w2 @ x2[:, ::K]]) / total
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
