"""Ranking-quality measures: precision at depth, average precision, the
nonincreasing alpha-weight expansion, and Monte-Carlo mean average
precision."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance under which two sorted nomination keys are tied.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class NominationList:
    """An ordering of the n ambiguous vertices (0-based vertex ids)."""

    order: np.ndarray
    seed_count: int

    def __post_init__(self):
        # Freeze a view, not the caller's own array.
        order = np.asarray(self.order, dtype=int).view()
        order.setflags(write=False)
        object.__setattr__(self, "order", order)
        n = len(order)
        expected = set(range(self.seed_count, self.seed_count + n))
        if set(order.tolist()) != expected:
            raise ValueError("order must be a permutation of the ambiguous vertices")

    def __len__(self):
        return len(self.order)

    def positions(self):
        """Ambiguous-relative indices (0..n-1) in nomination order."""
        return self.order - self.seed_count


def rank_with_ties(vertices, keys):
    """`vertices` by ascending key, each tie group by ascending vertex id.

    A key within TIE_RTOL * (1 + |key|) of its predecessor in sorted order
    joins the predecessor's tie group. All three schemes order their lists
    with it.
    """
    order = np.argsort(keys, kind="stable")
    ranked, sorted_keys = vertices[order], keys[order]
    gaps = np.diff(sorted_keys, prepend=sorted_keys[:1])
    group = np.cumsum(gaps > TIE_RTOL * (1.0 + np.abs(sorted_keys)))
    return ranked[np.lexsort((ranked, group))]


@dataclass(frozen=True)
class AlphaWeights:
    """The weights alpha_i = (1/n1) * sum_{j=i..n1} 1/j (zero past n1)."""

    alpha: np.ndarray


def _membership_indicators(nomination, truth):
    truth = np.asarray(truth, dtype=int)
    if len(truth) != len(nomination):
        raise ValueError("truth must label exactly the ambiguous vertices")
    return (truth[nomination.positions()] == 1).astype(float)


def precision_at_depth(nomination, truth, depth):
    """Fraction of the first `depth` nominees truly in block 1."""
    n = len(nomination)
    if not 1 <= depth <= n:
        raise ValueError(f"depth must lie in 1..{n}, got {depth}")
    hits = _membership_indicators(nomination, truth)
    return float(hits[:depth].sum() / depth)


def average_precision(nomination, truth, n1):
    """Mean of precision@j for j = 1..n1 (the pure-average definition)."""
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    hits = _membership_indicators(nomination, truth)
    prec = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float(prec[:n1].mean())


def alpha_weights(n, n1):
    """Weights expressing average precision as a convex combination of the
    per-position block-1 indicators."""
    if not 1 <= n1 <= n:
        raise ValueError(f"need 1 <= n1 <= n, got n1={n1}, n={n}")
    alpha = np.zeros(n)
    # alpha_i = (1/n1) * sum_{j=i}^{n1} 1/j, accumulated from the tail
    acc = 0.0
    for i in range(n1, 0, -1):
        acc += 1.0 / i
        alpha[i - 1] = acc / n1
    return AlphaWeights(alpha=alpha)


def mean_average_precision(aps):
    """Sample mean and standard error of a sequence of average precisions."""
    aps = np.asarray(aps, dtype=float)
    if aps.size == 0:
        raise ValueError("need at least one average precision value")
    if aps.min() < 0.0 or aps.max() > 1.0:
        raise ValueError("average precisions must lie in [0, 1]")
    mean = float(aps.mean())
    if aps.size == 1:
        return mean, 0.0
    se = float(aps.std(ddof=1) / math.sqrt(aps.size))
    return mean, se
