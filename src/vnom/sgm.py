"""Seeded graph matching on block memberships.

The likelihood scheme matches the graph against the block-constant matrix
B = H L H^T, where L is the K x K log-odds matrix and H one-hot labels,
maximizing <A, P B P^T> over permutations P that fix the seeds. With
P = diag(I, Q), a doubly stochastic Q enters only through the n x K block
memberships Y = Q S (S one-hot in the ambiguous block labels), so
Frank-Wolfe runs on Y over the transportation polytope: rows sum to 1 and
column k sums to n_k. Its vertices are the labelings with block sizes n_k
(the polytope is integral by total unimodularity), and its linear step is
an exact K-block transportation solve (the FAQ relaxation of Vogelstein et
al. applied to seeded graph matching as in Fishkind et al.).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from vnom.core import block_edge_counts

# Coordinate passes that set the block potentials before the exact
# successive-shortest-path repair in solve_transport.
TRANSPORT_PASSES = 2


# Kept only for perfbench's timing hook; it goes at the next benchmark change.
def solve_lap(cost, maximize=False):
    """Exactly optimal assignment for a square cost matrix: returns
    (col, value) where row i is assigned to column col[i]."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("cost must be square")
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
    from scipy.optimize import linear_sum_assignment

    _, col = linear_sum_assignment(cost, maximize=maximize)
    return col, float(cost[np.arange(len(col)), col].sum())


def solve_transport(cost, sizes):
    """Exactly optimal assignment of the rows of an n x K cost matrix to K
    blocks of fixed sizes.

    Maximizes sum_i cost[i, labels[i]] subject to exactly sizes[k] rows
    taking label k, and returns (labels, value) with 0-based labels. Block
    potentials u from a few coordinate passes on the dual put each row at
    its best reduced cost cost[i, k] - u[k], which is optimal for the block
    counts that produces; successive shortest paths on the K-node graph of
    row moves then bring the counts to `sizes` while every row stays at its
    best reduced cost. When one block alone is over-full and one alone
    under-full, the rows that tie between them move as one run, in index
    order, which is what one-row shortest paths would do. The result is
    deterministic.
    """
    cost = np.asarray(cost, dtype=float)
    sizes = np.asarray(sizes, dtype=np.int64)
    if cost.ndim != 2 or sizes.shape != (cost.shape[1],):
        raise ValueError("cost must be n x K with one size per column")
    if cost.shape[0] == 0:
        raise ValueError("cost must have at least one row")
    if (sizes < 0).any() or sizes.sum() != cost.shape[0]:
        raise ValueError("sizes must be nonnegative and sum to the number of rows")
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
    labels = _Transport(sizes)(cost)
    return labels, float(cost[np.arange(len(labels)), labels].sum())


class _Transport:
    """solve_transport for one vector of int64 block sizes that has passed
    its checks: called on a float n x K cost, it returns the labels.
    sgm_match builds one per call for all of its Frank-Wolfe steps and its
    projection, so what depends only on the sizes is made once: the
    nonempty blocks (the only ones solved for) and their sizes, the
    partition cut positions, each block's list of other blocks and two
    length-n buffers for potentials."""

    def __init__(self, sizes):
        self.blocks = np.flatnonzero(sizes)
        self.sizes = sizes[self.blocks]
        K, n = len(self.blocks), int(self.sizes.sum())
        self.cuts = [(n - size - 1, n - size) for size in self.sizes.tolist()]
        self.others = [[j for j in range(K) if j != k] for k in range(K)]
        self.best, self.lead = np.empty(n), np.empty(n)

    def __call__(self, cost):
        columns = cost.T[self.blocks].copy()  # row-major, whatever order indexing gives
        u = self.potentials(columns)
        start = _best_blocks(columns - u[:, None])
        return self.blocks[_balance(columns, self.sizes, start, u)]

    def potentials(self, columns):
        """Coordinate passes on the transportation dual: with the other
        potentials fixed, u[k] is set between the sizes[k]-th and the next
        largest lead of block k over each row's best other block, so that
        sizes[k] rows prefer block k (up to ties at the threshold).

        columns holds the K x n transposed cost of the nonempty blocks,
        one contiguous row per block; reduced[k] = columns[k] - u[k] is
        kept up to date as u changes. The best other block is a running
        np.maximum (exact) into one buffer, and the two order statistics
        come from np.partition of the leads in the other, which returns
        the values a sort would."""
        K = len(columns)
        u = np.zeros(K)
        if K == 1:
            return u
        reduced = columns.copy()
        best, lead = self.best, self.lead
        for _ in range(TRANSPORT_PASSES):
            for k, (low, high) in enumerate(self.cuts):
                first, *rest = self.others[k]
                top = reduced[first]
                for j in rest:
                    top = np.maximum(top, reduced[j], out=best)
                np.subtract(columns[k], top, out=lead)
                lead.partition((low, high))
                u[k] = 0.5 * (lead[low] + lead[high])
                np.subtract(columns[k], u[k], out=reduced[k])
        return u


def _best_blocks(reduced):
    """Each row's best block, the first on ties (np.argmax over the rows of
    reduced.T), from a running comparison of the K contiguous columns in
    place of a reduction over a length-K axis."""
    labels = np.zeros(reduced.shape[1], dtype=np.intp)
    best = reduced[0]
    for k in range(1, len(reduced)):
        labels[reduced[k] > best] = k
        best = np.maximum(best, reduced[k])
    return labels


def _balance(columns, sizes, labels, u):
    """Successive shortest paths from over-full to under-full blocks.

    columns is the K x n transposed cost. Every row i sits at its best
    reduced cost columns[k, i] - u[k], so moving a row from block a to
    block b loses a margin >= 0 of reduced cost. On the K-node graph whose
    edge a -> b carries the smallest such loss over a's rows (the first
    such row on ties, all K x K pairs from one masked (K, K, n) argmin),
    one row moves along each edge of a shortest path from an over-full to
    an under-full block, and u drops by the path distances (capped at the
    target's), which keeps every row at its best reduced cost. The K-node
    Bellman-Ford and the path walk run on Python floats and lists, whose
    sums and comparisons are numpy's. Each round moves one unit of excess,
    except that a lone surplus/deficit pair (one block over-full, one
    under-full, the rest at size) moves its zero-loss rows as one run, in
    index order, up to the excess, which is what the one-unit rounds would
    do; on sparse graphs, whose costs tie in long runs, that saves one
    (K, K, n) pass per row moved. labels and u are updated in place.
    Every block must have a positive size: _Transport drops empty blocks
    before it calls here. The index arrays are made only when the counts
    are off, which most calls' are not.
    """
    K, n = columns.shape
    counts = np.bincount(labels, minlength=K).tolist()
    sizes = sizes.tolist()
    if counts == sizes:
        return labels
    rows, block_ids, pairs = np.arange(n), np.arange(K)[:, None, None], np.arange(K * K)
    inf = float("inf")
    while counts != sizes:
        over = [k for k in range(K) if counts[k] > sizes[k]]
        under = [k for k in range(K) if counts[k] < sizes[k]]
        if len(over) == 1 and len(under) == 1:
            # One surplus block a and one deficit block b: while a has a row
            # that loses nothing in b, a round's path is the edge a -> b at
            # distance 0, its mover a's first such row, and u stays as it is,
            # so the first counts[a] - sizes[a] of those rows move at once.
            (a,), (b,) = over, under
            loss = (columns[a] - u[a]) - (columns[b] - u[b])
            run = np.flatnonzero((labels == a) & (loss <= 0.0))[:counts[a] - sizes[a]]
            if len(run):
                labels[run] = b
                counts[a] -= len(run)
                counts[b] += len(run)
                continue
        reduced = columns - u[:, None]
        margin = np.maximum(reduced[labels, rows] - reduced, 0.0)
        # losses[a, b, i]: moving row i from its block a to block b
        losses = np.where(labels == block_ids, margin, np.inf)
        mover = losses.argmin(axis=2)
        weight = losses.reshape(K * K, n)[pairs, mover.ravel()].reshape(K, K).tolist()
        mover = mover.tolist()
        # Bellman-Ford from every over-full block, each pass relaxing every
        # node from the previous pass's distances (the first block on ties);
        # weights are nonnegative, so strict improvements keep the
        # predecessor graph a forest
        dist = [0.0 if have > want else inf for have, want in zip(counts, sizes)]
        pred = [-1] * K
        for _ in range(K - 1):
            relaxed = dist[:]
            for b in range(K):
                via, best = -1, inf
                for a in range(K):
                    through = dist[a] + weight[a][b]
                    if through < best and a != b:
                        via, best = a, through
                if best < dist[b]:
                    relaxed[b], pred[b] = best, via
            if relaxed == dist:
                break
            dist = relaxed
        target = min(under, key=dist.__getitem__)
        b = target
        while pred[b] >= 0:
            a = pred[b]
            labels[mover[a][b]] = b
            counts[a] -= 1
            counts[b] += 1
            b = a
        u -= np.minimum(dist, dist[target])
    return labels


@dataclass
class SgmResult:
    """Outcome of one seeded-graph-matching solve.

    labels holds the 1-based block of every vertex, seeds first; objective
    is <A, H L H^T> at those labels; relaxed_objectives is the Frank-Wolfe
    history of the winning start.
    """

    labels: np.ndarray
    objective: float
    relaxed_objectives: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _relaxation(packed, logodds, seed_labels):
    """(const, C, E_s) of the relaxed objective on block memberships,

        f(Y) = const + <C, Y> + <Y, A22 Y L^T>,

    which is <A, P B P^T> at P = diag(I, Q) for Y = Q S, with A22 the
    ambiguous-ambiguous block of A. packed holds the bit-packed rows of A
    (LabeledGraph.packed). With H_s the seeds' one-hot labels,
    E_s = A21 H_s counts the edges from each ambiguous vertex to the seeds
    of each block, const = <A11, H_s L H_s^T> and
    C = (A21 H_s) L^T + (A12^T H_s) L = E_s (L^T + L), as A is symmetric.
    """
    m, K = len(seed_labels), len(logodds)
    to_seeds = block_edge_counts(packed, seed_labels, K)
    seed_blocks = np.eye(K, dtype=np.int64)[np.asarray(seed_labels, dtype=int) - 1]
    const = float(np.sum((seed_blocks.T @ to_seeds[:m]) * logodds))
    C = to_seeds[m:] @ (logodds.T + logodds)
    return const, C, to_seeds[m:]


def _total(x):
    """The sum of all entries of x, by what np.sum calls for an ndarray
    (so bit for bit the same), without its Python wrapper."""
    return float(np.add.reduce(x, axis=None))


def _objective(Y, AYL, const, C):
    """f(Y) given AYL = A22 Y L^T."""
    return const + _total(C * Y) + _total(Y * AYL)


def _gradient(AY, C, LS):
    """grad f(Y) = C + A22 Y L^T + A22^T Y L given AY = A22 Y and
    LS = L^T + L, with A22 symmetric."""
    return C + AY @ LS


def sgm_match(graph, logodds, n_sizes, max_iter=20, tol=1e-6, restarts=1, rng_seed=0):
    """Approximately maximize <A, H L H^T> over block labelings H that keep
    the seeds' labels and put n_sizes[k] ambiguous vertices in block k+1.

    graph is a LabeledGraph, whose seed_labels the m seeds keep; logodds is
    the symmetric K x K matrix L. Frank-Wolfe on the n x K block
    memberships starts at the flat point (every row equal to n_sizes / n)
    and runs until the relaxed objective changes by at most tol (relative)
    or max_iter steps; each step's direction is an exact transportation
    solve on the gradient, followed by exact line search on the 1-D
    quadratic. Extra restarts begin at the one-hot labels of random
    permutations of the contiguous slot labels; each iterate is projected
    by one more transportation solve and then polished by steepest-ascent
    label swaps. The best objective wins, earliest start on ties.
    """
    logodds = np.asarray(logodds, dtype=float)
    seed_labels = graph.seed_labels
    sizes = np.asarray(n_sizes, dtype=np.int64)
    N, m, K = graph.num_vertices, graph.seed_count, len(logodds)
    if logodds.shape != (K, K) or sizes.shape != (K,):
        raise ValueError("logodds must be K x K with one size per block")
    if (sizes < 0).any() or m + sizes.sum() != N or m == N:
        raise ValueError("need nonnegative n_sizes covering the N - m >= 1 ambiguous vertices")
    if m and not (1 <= seed_labels.min() and seed_labels.max() <= K):
        raise ValueError("seed labels must lie in 1..K")
    n = N - m
    const, C, seed_counts = _relaxation(graph.packed, logodds, seed_labels)
    A22 = graph.rows(slice(m, None))[:, m:].astype(float)

    onehot = np.eye(K)
    slots = np.repeat(np.arange(K), sizes)
    starts = [np.tile(sizes / n, (n, 1))]
    if restarts > 1:
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, 0x5367)))
        for _ in range(restarts - 1):
            starts.append(onehot[slots[rng.permutation(n)]])

    transport = _Transport(sizes)
    best = None
    for Y0 in starts:
        Y, history, iters, converged = _frank_wolfe(
            Y0, transport, const, C, A22, logodds, max_iter, tol
        )
        ambiguous = transport(Y)
        R = onehot[ambiguous]
        AR = A22 @ R
        objective = _objective(R, AR @ logodds.T, const, C)
        labels = np.concatenate([seed_labels, ambiguous + 1])
        # Sums of 0/1 products, so these block edge counts are exact.
        counts = seed_counts + AR
        labels, objective, _ = _polish(A22, labels, m, logodds, objective, counts)
        if best is None or objective > best.objective + 1e-12:
            best = SgmResult(labels=labels, objective=objective,
                             relaxed_objectives=history, iterations=iters,
                             converged=converged)
    return best


def _polish(A22, labels, m, L, objective, counts):
    """Steepest-ascent hill climb over label swaps of ambiguous vertices.

    labels holds the 1-based labels of all vertices, the m seeds first.
    counts is E, the ambiguous vertices' block edge counts under labels
    (what core.block_edge_counts gives for the packed rows from m on);
    A22 is the ambiguous-ambiguous block of the adjacency as floats. With
    F = E L, swapping ambiguous v in block a and v' in block c changes the
    objective by

        2 (F[v, c] - F[v, a] + F[v', a] - F[v', c]
           - A[v, v'] (L[a, a] + L[c, c] - 2 L[a, c])),

    twice their swap log-likelihood ratio, since the objective is
    2 log p(b, G) less a constant of the block sizes. Each step makes the
    best swap, found without an n_a x n_c matrix of gains: for each block
    pair a < c, _best_swap scans x_v + y_v' in descending order, with
    x_v = F[v, c] - F[v, a] and y_v' = F[v', a] - F[v', c], until the bound
    x_v + y_v' + max(0, -kappa) on every gain left falls below the best
    found. Equal gains go where a dense argmax would put them: the earliest
    pair (a, c), and within it the first (v, v') in row-major order. A swap
    changes F by the rank-one (A[v] - A[v']) (L[c] - L[a]), reading the
    rows of the symmetric A. Returns the polished labels, their objective
    and the swaps made as (v, v', gain), with v and v' indexing the
    ambiguous vertices.
    """
    K = len(L)
    labels = np.array(labels)
    amb = labels[m:]  # a view: swaps write through to labels
    F = counts @ L
    kappa = L.diagonal()[:, None] + L.diagonal()[None, :] - 2.0 * L
    swaps = []
    for _ in range(max(100, 2 * len(amb))):
        members = [np.flatnonzero(amb == k + 1) for k in range(K)]
        half, pick = -np.inf, None
        for a in range(K):
            for c in range(a + 1, K):
                Ia, Ic = members[a], members[c]
                if not len(Ia) or not len(Ic):
                    continue
                found = _best_swap(F[Ia, c] - F[Ia, a], F[Ic, a] - F[Ic, c],
                                   float(kappa[a, c]), A22, Ia, Ic, half)
                if found is not None:
                    half, i, j = found
                    pick = (Ia[i], Ic[j], a, c)
        gain = 2.0 * half
        if pick is None or gain <= 1e-10 * max(1.0, abs(objective)):
            break
        v, w, a, c = pick
        amb[v], amb[w] = c + 1, a + 1
        F += (A22[v] - A22[w])[:, None] * (L[c] - L[a])
        objective += gain
        swaps.append((int(v), int(w), float(gain)))
    return labels, objective, swaps


def _best_swap(x, y, kappa, A, rows, cols, floor):
    """The largest gain x[i] + y[j] - kappa A[rows[i], cols[j]] above floor
    as (gain, i, j), the first (i, j) in row-major order among equal gains,
    or None if no gain exceeds floor.

    With x and y sorted in descending order, a heap yields the sums
    x[i] + y[j] in descending order (each (i, j) is pushed by (i, j - 1),
    or by (i - 1, 0) when j = 0). Rounding is monotone, so every gain not
    yet seen is at most the current sum plus max(0, -kappa); the scan stops
    once that bound falls below the best gain, or to floor or below while
    none is found.
    """
    by_x, by_y = np.argsort(-x, kind="stable"), np.argsort(-y, kind="stable")
    xs, ys = x[by_x].tolist(), y[by_y].tolist()
    slack = max(0.0, -kappa)
    best = None
    heap = [(-(xs[0] + ys[0]), 0, 0)]
    while heap:
        neg, p, q = heapq.heappop(heap)
        total = -neg
        if (total + slack < best[0]) if best else (total + slack <= floor):
            break
        i, j = int(by_x[p]), int(by_y[q])
        gain = total - kappa * float(A[rows[i], cols[j]])
        if gain > floor and (best is None or gain > best[0]
                             or (gain == best[0] and (i, j) < best[1:])):
            best = (gain, i, j)
        if q + 1 < len(ys):
            heapq.heappush(heap, (-(xs[p] + ys[q + 1]), p, q + 1))
        if q == 0 and p + 1 < len(xs):
            heapq.heappush(heap, (-(xs[p + 1] + ys[0]), p + 1, 0))
    return best


def _frank_wolfe(Y, transport, const, C, A22, L, max_iter, tol):
    """Frank-Wolfe from Y with exact line search. AY = A22 Y and
    AYL = AY L^T are carried with each iterate, so each is formed once
    per step; the step's quadratic a alpha^2 + b alpha is
    <D, AD L^T> alpha^2 + (<D, C> + <Y, AD L^T> + <D, AY L^T>) alpha."""
    onehot = np.eye(len(L))
    LT, LS = L.T, L.T + L
    AY = A22 @ Y
    AYL = AY @ LT
    f = _objective(Y, AYL, const, C)
    history = [f]
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        labels = transport(_gradient(AY, C, LS))
        D = onehot[labels] - Y
        AD = A22 @ D
        ADL = AD @ LT
        a = _total(D * ADL)
        b = _total(D * C) + _total(Y * ADL) + _total(D * AYL)
        if a < -1e-12:
            alpha = min(1.0, max(0.0, -b / (2.0 * a)))
        elif a > 1e-12:
            # convex along the segment: an endpoint is optimal
            alpha = 1.0 if a + b > 0.0 else 0.0
        else:
            alpha = 1.0 if b > 0.0 else 0.0
        if alpha > 0.0:
            Y = Y + alpha * D
            AY = AY + alpha * AD
            AYL = AY @ LT
        f_new = _objective(Y, AYL, const, C)
        history.append(f_new)
        if abs(f_new - f) <= tol * max(1.0, abs(f)):
            f = f_new
            converged = True
            break
        f = f_new
    return Y, history, iters, converged
