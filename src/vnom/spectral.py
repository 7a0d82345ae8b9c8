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


@dataclass(frozen=True)
class Embedding:
    """Rows are vertex coordinates; column j has squared norm |eigenvalue_j|."""

    X: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class Clustering:
    labels: np.ndarray
    centroids: np.ndarray
    objective: float
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


def _seed_centroids(points, K, rng):
    """Greedy farthest-point seeding: a random first center, then each
    next center at the point farthest from all chosen centers."""
    first = int(rng.integers(len(points)))
    centers = [points[first]]
    dist = np.linalg.norm(points - centers[0], axis=1)
    for _ in range(1, K):
        nxt = int(np.argmax(dist))
        centers.append(points[nxt])
        dist = np.minimum(dist, np.linalg.norm(points - centers[-1], axis=1))
    return np.array(centers)


def _lloyd(points, centers, max_iter=300):
    labels = None
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        # empty-cluster repair: move the centroid to the farthest point
        claimed = []
        for k in range(len(centers)):
            if not (new_labels == k).any():
                gaps = d2[np.arange(len(points)), new_labels].copy()
                if claimed:
                    gaps[claimed] = -1.0
                far = int(np.argmax(gaps))
                new_labels[far] = k
                claimed.append(far)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(len(centers)):
            centers[k] = points[labels == k].mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    objective = float(d2[np.arange(len(points)), labels].sum())
    return labels, centers, objective


def kmeans(X, K, restarts=10, rng_seed=0):
    """Best-of-restarts Lloyd's algorithm; deterministic given rng_seed.
    Ties between restarts go to the earliest."""
    points = np.asarray(X, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if K < 1 or K > len(points):
        raise ValueError(f"K must lie in 1..{len(points)}, got {K}")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, r)))
        centers = _seed_centroids(points, K, rng)
        labels, centers, objective = _lloyd(points, centers.copy())
        if best is None or objective < best[2] - 1e-12:
            best = (labels, centers, objective)
    labels, centers, objective = best
    return Clustering(labels=labels + 1, centroids=centers, objective=objective)


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
