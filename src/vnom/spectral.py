"""Spectral partitioning nomination: scaled eigenvector embedding of the
adjacency matrix, k-means over the rows, seed-majority centroid
selection, and distance ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from vnom.core import adjacency_product
from vnom.metrics import NominationList, rank_with_ties

# Above this size the Lanczos solver (eigsh) finds the d <= K needed eigenpairs
# faster than a full dense decomposition (eigh), which computes all N of them.
# Fastest of 5 calls, one BLAS thread, d = 3, configs/medium.json's model
# scaled to N vertices, eigh against eigsh: N = 150 2.9 ms against 3.5 ms,
# N = 200 4.6 against 4.3, N = 250 7.6 against 4.3, N = 300 10.8 against 4.6,
# N = 520 39 against 15, N = 1,000 257 against 102, N = 2,000 1,696 against
# 200. eigsh's time depends on the eigengap, so the limit sits a little above
# the crossover. On the 20 configs/medium.json graphs the two paths' embeddings
# and eigenvalues differ by at most 1.0e-12.
_DENSE_LIMIT = 250

# Above this many bytes of float64 adjacency (N > 2,896), eigsh multiplies by
# the boolean adjacency in tiles (core.adjacency_product) instead of a float64
# copy; the embedding has the same bits either way. The bound caps the copy at
# 64 MiB. Near the bound the copy is faster, far above it the tiles are. One
# BLAS thread, tiled against copied: N = 2,040 0.91 s against 0.50 s, N = 3,040
# 1.1 s against 0.8 s, N = 5,040 1.0 s against 1.6 s, N = 10,040 3.2-4.1 s
# against 4.1-4.6 s, where the peak RSS of sampling and embedding fell from
# 947 MB to 291 MB.
_DENSE_COPY_BYTES = 64 << 20

# Lloyd's algorithm stops a restart unconverged after this many centroid updates.
_MAX_ITER = 300

# k-means runs its restarts together, in groups whose (group, N, K, d)
# distance buffer holds at most this many float64 elements (1 MiB). All 10
# restarts fit in one group while N*K*d <= 13,107 (configs/medium.json's
# graphs have 4,680); configs/large.json's (60,240) run two at a time, and
# its peak RSS stayed at 287 MB.
_BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class Embedding:
    """Rows are vertex coordinates; column j has squared norm |eigenvalue_j|."""

    X: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class Clustering:
    """`labels` run 1..K. `restart` is the winning k-means restart and
    `iterations` its centroid updates, which reach the step cap only if
    that restart stopped unconverged."""

    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    restart: int
    iterations: int
    chosen_centroid: int | None = None


def default_dimension(lam, rel_tol=1e-8):
    """Numerical rank of Lambda: singular values above rel_tol * max."""
    s = np.linalg.svd(np.asarray(lam, dtype=float), compute_uv=False)
    if s[0] == 0.0:
        return 1
    return max(1, int(np.sum(s > rel_tol * s[0])))


def _fix_signs(vectors):
    """Deterministic sign convention: each column's largest-magnitude entry
    (first on ties) is made positive."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            vectors[:, j] = -col
    return vectors


def embed(graph, d):
    """Scaled spectral embedding from the d largest-modulus eigenpairs of
    the 0/1 adjacency matrix."""
    N = graph.num_vertices
    if not 1 <= d <= N:
        raise ValueError(f"d must lie in 1..{N}, got {d}")
    if N <= _DENSE_LIMIT or d > N // 10:
        A = graph.adjacency.astype(float)
        w, V = scipy.linalg.eigh(A)
        idx = np.argsort(-np.abs(w), kind="stable")[:d]
        vals = w[idx]
        vecs = V[:, idx]
    else:
        if not graph.adjacency.any():
            # ARPACK rejects A = 0; eigh gives zero eigenvalues and X = 0.
            return Embedding(X=np.zeros((N, d)), eigenvalues=np.zeros(d))
        if N * N * 8 > _DENSE_COPY_BYTES:
            A = scipy.sparse.linalg.LinearOperator(
                (N, N),
                matvec=lambda x: adjacency_product(graph.adjacency, x),
                dtype=np.float64,
            )
        else:
            A = graph.adjacency.astype(np.float64)
        # A fixed start vector with no symmetry, so a repeated top eigenvalue
        # (two identical components) is not lost to an orthogonal eigenvector.
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, N)
        w, V = scipy.sparse.linalg.eigsh(A, k=d, which="LM", v0=v0)
        idx = np.argsort(-np.abs(w), kind="stable")
        vals = w[idx]
        vecs = V[:, idx]
    vecs = _fix_signs(vecs / np.linalg.norm(vecs, axis=0))
    X = vecs * np.sqrt(np.abs(vals))
    return Embedding(X=X, eigenvalues=vals)


def _seed_centroids(points, K, rngs):
    """Greedy farthest-point seeding, one restart per generator: a random
    first center, then each next center at the point farthest from all
    chosen centers. Returns the (restarts, K, d) centers."""
    picks = np.empty((len(rngs), K), dtype=np.intp)
    picks[:, 0] = [rng.integers(len(points)) for rng in rngs]
    dist = np.linalg.norm(points - points[picks[:, :1]], axis=-1)
    for k in range(1, K):
        picks[:, k] = np.argmax(dist, axis=1)
        dist = np.minimum(dist, np.linalg.norm(points - points[picks[:, k:k + 1]], axis=-1))
    return points[picks]


def _sq_distances(repeated, centers, buf):
    """(R, N, K) squared distances from every point to every restart's
    centers, squared in the leading (R, N, K, d) part of buf. `repeated`
    holds the (N, d) points K times over in each row, so the subtraction
    runs over rows of K*d elements."""
    R, K, d = centers.shape
    diff = buf[:R]
    np.subtract(repeated, centers.reshape(R, 1, K * d), out=diff.reshape(R, -1, K * d))
    np.square(diff, out=diff)
    if d == 2:
        # One addition rounds the same in either order, so this equals the
        # sum below without its slow reduction over a length-2 axis.
        return np.add(diff[..., 0], diff[..., 1])
    return diff.sum(axis=-1)


def _cluster_counts(labels, K):
    """(R, K) member counts of each restart's clusters."""
    R = len(labels)
    flat = (labels + K * np.arange(R)[:, None]).ravel()
    return np.bincount(flat, minlength=R * K).reshape(R, K)


def _repair_empty(d2, labels, counts):
    """Give each empty cluster, in index order, the point farthest from its
    own center among the clusters that have at least 2 members, so no
    cluster is emptied in turn. One restart: d2 is (N, K); labels and
    counts are updated in place."""
    rows = np.arange(len(labels))
    for k in np.flatnonzero(counts == 0):
        gaps = d2[rows, labels]
        gaps[counts[labels] < 2] = -1.0
        far = int(np.argmax(gaps))
        counts[labels[far]] -= 1
        labels[far] = k
        counts[k] = 1


def _centroids(points, columns, labels, counts):
    """(R, K, d) cluster means. Row j of `columns` is coordinate j of the
    points, repeated for each restart. Coordinates are summed in ascending
    vertex order, which is how `points[labels == k].mean(axis=0)` sums them
    when d >= 2; numpy sums a single column pairwise, so d = 1 takes that
    mean."""
    R, K = counts.shape
    if points.shape[1] == 1:
        return np.array([[points[row == k].mean(axis=0) for k in range(K)]
                         for row in labels])
    flat = (labels + K * np.arange(R)[:, None]).ravel()
    sums = np.stack([np.bincount(flat, weights=col[:flat.size], minlength=R * K)
                     for col in columns], axis=-1)
    return (sums / counts.reshape(-1, 1)).reshape(R, K, -1)


def _objectives(d2, labels):
    """Each restart's sum of squared distances to its own centers."""
    return np.take_along_axis(d2, labels[..., None], axis=-1)[..., 0].sum(axis=1)


def _lloyd(points, centers):
    """Lloyd's algorithm from each restart's (K, d) centers, all restarts in
    one loop. A restart leaves the loop once its labels repeat, or after
    _MAX_ITER centroid updates. Returns labels (R, N), centers (R, K, d),
    objectives (R,) and each restart's centroid updates (R,)."""
    R, K, d = centers.shape
    labels = np.empty((R, len(points)), dtype=np.intp)
    final = np.empty_like(centers)
    objectives = np.empty(R)
    steps = np.full(R, _MAX_ITER)
    buf = np.empty((R, len(points), K, d))
    repeated = np.tile(points, K)
    columns = np.tile(points.T, R)
    active = np.arange(R)
    current = None
    for step in range(_MAX_ITER):
        d2 = _sq_distances(repeated, centers, buf)
        new = np.argmin(d2, axis=-1)
        counts = _cluster_counts(new, K)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _repair_empty(d2[i], new[i], counts[i])
        if current is not None:
            done = (new == current).all(axis=1)
            if done.any():
                finished = active[done]
                labels[finished] = new[done]
                final[finished] = centers[done]
                objectives[finished] = _objectives(d2[done], new[done])
                steps[finished] = step
                keep = ~done
                active, new, counts = active[keep], new[keep], counts[keep]
                if not len(active):
                    break
        current = new
        centers = _centroids(points, columns, current, counts)
    else:
        labels[active] = current
        final[active] = centers
        objectives[active] = _objectives(_sq_distances(repeated, centers, buf), current)
    return labels, final, objectives, steps


def kmeans(X, K, restarts=10, rng_seed=0):
    """Best-of-restarts Lloyd's algorithm with farthest-point seeding;
    restart r draws from SeedSequence((rng_seed, r)). Deterministic given
    rng_seed. Ties between restarts (objectives within 1e-12) go to the
    earliest."""
    points = np.asarray(X, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    N, d = points.shape
    if K < 1 or K > N:
        raise ValueError(f"K must lie in 1..{N}, got {K}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    group = max(1, _BATCH_ELEMENTS // (N * K * d))
    best = None
    for first in range(0, restarts, group):
        rngs = [np.random.default_rng(np.random.SeedSequence((rng_seed, r)))
                for r in range(first, min(first + group, restarts))]
        labels, centers, objectives, steps = _lloyd(points, _seed_centroids(points, K, rngs))
        for i, objective in enumerate(objectives.tolist()):
            if best is None or objective < best[2] - 1e-12:
                best = (labels[i], centers[i], objective, first + i, int(steps[i]))
    labels, centers, objective, restart, iterations = best
    return Clustering(labels=labels + 1, centroids=centers, objective=objective,
                      restart=restart, iterations=iterations)


def _canonical_cluster_order(centroids):
    """Cluster indices sorted by lexicographic centroid order."""
    return np.lexsort(centroids.T[::-1])


def choose_block1_centroid(clustering, seed_labels):
    """The cluster holding the most block-1 seeds; ties go to the lowest
    index under lexicographic centroid ordering."""
    K = len(clustering.centroids)
    block1_seeds = np.flatnonzero(np.asarray(seed_labels) == 1)
    if len(block1_seeds) == 0:
        raise ValueError("at least one block-1 seed is required")
    counts = np.bincount(clustering.labels[block1_seeds] - 1, minlength=K)
    order = _canonical_cluster_order(clustering.centroids)
    best = order[int(np.argmax(counts[order]))]
    return int(best)


def spectral_nominate(graph, K, d=None, restarts=10, rng_seed=0, model=None):
    """Embed, cluster, pick the seed-majority centroid, and rank ambiguous
    vertices by ascending distance to it (ties by `rank_with_ties`)."""
    if d is None:
        if model is None:
            raise ValueError("d must be given when the model (Lambda) is unknown")
        d = default_dimension(model.lam)
    emb = embed(graph, d)
    clustering = kmeans(emb.X, K, restarts=restarts, rng_seed=rng_seed)
    c = choose_block1_centroid(clustering, graph.seed_labels)
    centroid = clustering.centroids[c]
    amb = graph.ambiguous_vertices()
    dist = np.linalg.norm(emb.X[amb] - centroid, axis=1)
    return NominationList(order=rank_with_ties(amb, dist), seed_count=graph.seed_count)
