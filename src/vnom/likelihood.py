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
    result = sgm_match(graph.adjacency, model.log_odds(eps), graph.seed_labels,
                       model.n_sizes, max_iter=max_iter, tol=tol,
                       restarts=restarts, rng_seed=rng_seed)
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

    def side(vertex, new_k, old_k):
        edges = graph.adjacency[vertex] & keep
        others = keep & ~graph.adjacency[vertex]
        d_edge = (log_lam[new_k, lw] - log_lam[old_k, lw])[edges].sum()
        d_non = (log_1m[new_k, lw] - log_1m[old_k, lw])[others].sum()
        return d_edge + d_non

    return float(side(v, k2, 0) + side(v_prime, 0, k2))


def _geo_mean_scores(graph, bhat, model, eps=PROB_EPS):
    """Log geometric-mean swap ratios for both segments of the list.

    Every swap ratio comes from one N x K matrix of block edge counts.
    With E = A·H the edge counts from each vertex to each block (H one-hot
    in b-hat), S = E log(Lambda)^T + (sizes - H - E) log(1-Lambda)^T holds
    in S[w, k] the log-likelihood of w's incident pairs if w were in block
    k+1. For v in block 1 and v' in block k+1,

        swap_log_ratio(v, v') = S[v, k] - S[v, 0] + S[v', 0] - S[v', k] - c,

    where c corrects for the (v, v') pair, which S counts on both sides:
    log Lambda[k, k] + log Lambda[0, 0] - 2 log Lambda[0, k] if v ~ v', and
    the same in log(1-Lambda) if not. Cost: one A·H product and
    O(N·K + n1·n2) arithmetic, against n1·n2 swap_log_ratio calls of O(N)
    each.
    """
    m, K = graph.seed_count, model.K
    labels0 = bhat.labels - 1
    lam = model.clamped_lam(eps)
    log_lam = np.log(lam)
    log_1m = np.log1p(-lam)
    E = block_edge_counts(graph.adjacency, bhat.labels, K)
    sizes = np.bincount(labels0, minlength=K)
    S = E @ log_lam.T + (sizes - np.eye(K, dtype=np.int64)[labels0] - E) @ log_1m.T
    ambiguous = graph.ambiguous_vertices()
    in1 = ambiguous[labels0[m:] == 0]
    out1 = ambiguous[labels0[m:] != 0]
    k = labels0[out1]
    pair_edge = log_lam.diagonal() + log_lam[0, 0] - 2 * log_lam[0]
    pair_non = log_1m.diagonal() + log_1m[0, 0] - 2 * log_1m[0]
    ratios = (S[in1][:, k] - S[in1, :1] + (S[out1, 0] - S[out1, k])
              - np.where(graph.adjacency[np.ix_(in1, out1)], pair_edge[k], pair_non[k]))
    # empty-mean convention: a mean over no swaps is 0 (ratio 1)
    score_in = ratios.mean(axis=1) if len(out1) else np.zeros(len(in1))
    score_out = ratios.mean(axis=0) if len(in1) else np.zeros(len(out1))
    return in1, score_in, out1, score_out


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
    N x K edge-count product plus O(N·K + n1·n2); see _geo_mean_scores.
    """
    if bhat is None:
        bhat = mle_block_assignment(graph, model, eps=eps, max_iter=max_iter,
                                    tol=tol, restarts=restarts, rng_seed=rng_seed)
    in1, score_in, out1, score_out = _geo_mean_scores(graph, bhat, model, eps=eps)
    order = np.concatenate([rank_with_ties(in1, score_in),
                            rank_with_ties(out1, -score_out)])
    return NominationList(order=order, seed_count=graph.seed_count)
