"""Likelihood maximization nomination: estimate the block assignment by
seeded graph matching, then rank vertices by geometric-mean swap
likelihood ratios."""

from __future__ import annotations

import numpy as np

from vnom.core import PROB_EPS, BlockAssignment, block_edge_counts
from vnom.metrics import NominationList, rank_with_ties
from vnom.sgm import sgm_match


def mle_block_assignment(graph, model, eps=PROB_EPS, max_iter=20, tol=1e-6,
                         restarts=1, rng_seed=0):
    """Approximate argmax of p(b, G) over assignments agreeing with the
    seeds, via seeded graph matching against the log-odds matrix: the
    matching objective <A, H L H^T> is 2 log p(b, G) plus a constant of
    the block sizes."""
    if graph.seed_count != model.m or graph.ambiguous_count != model.n:
        raise ValueError("graph does not match the model's seed/ambiguous sizes")
    result = sgm_match(graph, model.log_odds(eps), model.n_sizes, max_iter=max_iter,
                       tol=tol, restarts=restarts, rng_seed=rng_seed)
    bhat = BlockAssignment(result.labels)
    bhat.check_membership(model, graph.seed_labels)
    return bhat


def swap_log_ratio(graph, bhat, model, v, v_prime, eps=PROB_EPS):
    """log p(b-hat with v and v' swapped, G) - log p(b-hat, G).

    Computed locally over the pairs incident to v or v'; the (v, v') pair
    cancels by the symmetry of Lambda. v must be assigned to block 1 and
    v' to some other block; both must be ambiguous.
    """
    labels = bhat.labels
    m = graph.seed_count
    if v < m or v_prime < m:
        raise ValueError("both vertices must be ambiguous")
    if labels[v] != 1 or labels[v_prime] == 1:
        raise ValueError("need b-hat(v) = 1 and b-hat(v') != 1")
    lam = model.clamped_lam(eps)
    log_lam = np.log(lam)
    log_1m = np.log1p(-lam)
    k2 = labels[v_prime] - 1
    lw = labels - 1
    keep = np.ones(graph.num_vertices, dtype=bool)
    keep[v] = keep[v_prime] = False
    rows = graph.rows([v, v_prime])

    def side(row, new_k, old_k):
        edges = row & keep
        others = keep & ~row
        d_edge = (log_lam[new_k, lw] - log_lam[old_k, lw])[edges].sum()
        d_non = (log_1m[new_k, lw] - log_1m[old_k, lw])[others].sum()
        return d_edge + d_non

    return float(side(rows[0], k2, 0) + side(rows[1], 0, k2))


def _geo_mean_scores(graph, bhat, model, eps=PROB_EPS):
    """Log geometric-mean swap ratios for both segments of the list.

    Every mean comes from the n x K block edge counts of the ambiguous
    vertices. With E = A·H their edge counts to each block (H one-hot in
    b-hat), S = E log(Lambda)^T + (sizes - H - E) log(1-Lambda)^T holds in
    S[w, k] the log-likelihood of w's incident pairs if w were in block
    k+1. For v in block 1 and v' in block k+1,

        swap_log_ratio(v, v') = S[v, k] - S[v, 0] + S[v', 0] - S[v', k]
                                - pn[k] - A[v, v'] (pe[k] - pn[k]),

    where pe[k] = log Lambda[k, k] + log Lambda[0, 0] - 2 log Lambda[0, k]
    and pn[k], the same in log(1-Lambda), correct for the (v, v') pair,
    which S counts on both sides. Averaged over v' (c[k] of them in block
    k+1, n2 in all), the A[v, v'] term only needs D[v, k], v's edge count
    to the ambiguous vertices of block k+1; averaged over v (n1 of them),
    only D[v', 0]. D = E - E_s, with E_s the edge counts to each block's seeds:

        score_in[v]   = ((S[v] - S[v, 0])·c - D[v]·(pe - pn) - pn·c) / n2
                        + mean(S[v', 0] - S[v', k'])
        score_out[v'] = mean(S[v, k'] - S[v, 0]) + S[v', 0] - S[v', k']
                        - pn[k'] - (pe[k'] - pn[k']) D[v', 0] / n1

    Cost: one core.block_edge_counts pass over the n packed ambiguous rows,
    with 2K labels (seed and ambiguous columns of each block), and O(n·K)
    arithmetic; no row is unpacked. Products over the length-K axis are
    taken one column at a time, so vertices with equal counts in the same
    block get bit-equal scores.
    """
    m, K = graph.seed_count, model.K
    labels0 = bhat.labels - 1
    amb = labels0[m:]
    lam = model.clamped_lam(eps)
    log_lam = np.log(lam)
    log_1m = np.log1p(-lam)
    # one count pass over the packed ambiguous rows: columns k count edges
    # to block k+1's seeds, columns K + k to its ambiguous vertices
    counts = block_edge_counts(graph.packed[m:], np.concatenate([labels0[:m], amb + K]) + 1,
                               2 * K)
    D = counts[:, K:]
    E = counts[:, :K] + D
    sizes = np.bincount(labels0, minlength=K)
    # S = E (log Lambda - log(1-Lambda))^T + (sizes - H) log(1-Lambda)^T
    S = _columns_dot(E, log_lam - log_1m) + (log_1m @ sizes - log_1m[:, amb].T)
    ambiguous = graph.ambiguous_vertices()
    is_in = amb == 0
    in1, out1 = ambiguous[is_in], ambiguous[~is_in]
    # empty-mean convention: a mean over no swaps is 0 (ratio 1)
    if not len(in1) or not len(out1):
        return in1, np.zeros(len(in1)), out1, np.zeros(len(out1))
    k = amb[~is_in]
    c = np.bincount(k, minlength=K)
    pair_edge = log_lam.diagonal() + log_lam[0, 0] - 2 * log_lam[0]
    pair_non = log_1m.diagonal() + log_1m[0, 0] - 2 * log_1m[0]
    # pair_edge[0] = pair_non[0] = c[0] = 0 exactly, so block 1 drops out
    # of the sums over blocks
    pair_gap = pair_edge - pair_non
    gain = S[is_in] - S[is_in, :1]
    drop = S[~is_in, 0] - S[~is_in, k]
    score_in = ((_columns_dot(gain, c) - _columns_dot(D[is_in], pair_gap)
                 - pair_non @ c) / len(out1) + drop.mean())
    score_out = (gain.mean(axis=0)[k] + drop - pair_non[k]
                 - pair_gap[k] * D[~is_in, 0] / len(in1))
    return in1, score_in, out1, score_out


def _columns_dot(X, W):
    """X @ W.T for an R x K matrix X and W of shape K or J x K, accumulated
    one column of X at a time: every row takes the same float operations,
    so equal rows of X give bit-equal rows of the result."""
    out = np.multiply.outer(X[:, 0], W[..., 0])
    for j in range(1, X.shape[1]):
        out += np.multiply.outer(X[:, j], W[..., j])
    return out


def likelihood_nominate(graph, model, eps=PROB_EPS, max_iter=20, tol=1e-6,
                        restarts=1, rng_seed=0, bhat=None):
    """Two-stage nomination: b-hat from seeded graph matching, then the
    estimated block-1 vertices in increasing order of their geometric-mean
    swap ratio, followed by the rest in decreasing order of theirs.

    Ties are explicit: in each segment's sorted scores, a score within
    1e-9 * (1 + |s|) (TIE_RTOL) of its predecessor joins that predecessor's
    tie group, and a tie group is ordered by ascending vertex id. Scores
    that are equal in exact arithmetic (structurally equivalent vertices)
    so keep id order whatever rounding separates them. Scoring costs one
    popcount pass over the packed ambiguous rows plus O(n·K); see
    _geo_mean_scores.
    """
    if bhat is None:
        bhat = mle_block_assignment(graph, model, eps=eps, max_iter=max_iter,
                                    tol=tol, restarts=restarts, rng_seed=rng_seed)
    in1, score_in, out1, score_out = _geo_mean_scores(graph, bhat, model, eps=eps)
    order = np.concatenate([rank_with_ties(in1, score_in),
                            rank_with_ties(out1, -score_out)])
    return NominationList(order=order, seed_count=graph.seed_count)
