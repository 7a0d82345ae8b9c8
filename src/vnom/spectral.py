"""Spectral partitioning nomination: scaled eigenvector embedding of the
adjacency matrix, k-means over the rows, seed-majority centroid
selection, and distance ranking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from vnom.core import packed_product
from vnom.metrics import NominationList, rank_with_ties

# Up to this size the embedding takes a full dense decomposition
# (numpy.linalg.eigh), which computes all N eigenpairs; above it the Lanczos
# solver (_lanczos) finds the d <= K needed ones. Fastest of 5 calls, one BLAS
# thread, d = 3, configs/medium.json's model scaled to N vertices, ranges over
# 3 runs, eigh / Lanczos: N = 150 1.4 / 1.1-1.2 ms, N = 250 4.0 / 2.0 ms, N =
# 520 20.9-21.0 / 6.9-7.1 ms, N = 1,000 121 / 48 ms. Lanczos's time depends on
# the eigengap. The limit stays above the crossover: lowering it would move
# graphs from one path to the other, and their embeddings in the last bits. On
# the 20 configs/medium.json graphs the two paths' embeddings differ by at
# most 5.7e-12 and their eigenvalues by 1.2e-15, relative to the largest.
_DENSE_LIMIT = 250

# Above this many bytes of float64 adjacency (N > 2,896), Lanczos multiplies
# by the packed adjacency through byte lookup tables (core.packed_product)
# instead of a float64 copy. Fastest embed of 5 (of 3 at N = 10,040), one BLAS
# thread, configs/large.json's model scaled to N vertices, packed against
# copied, over two runs: N = 520 0.017 s against 0.007 s, N = 1,000 0.053 s
# against 0.044 s, N = 2,040 0.097-0.098 s against 0.114 s, N = 3,040
# 0.171-0.172 s against 0.236 s, N = 5,040 0.264-0.265 s against 0.430-0.433
# s, N = 10,040 0.487-0.490 s packed. The crossover lies between 1,000 and
# 2,040 vertices, but the bound stays where it was: lowering it would move
# graphs to the other path and their embeddings in the last bits. The packed
# path holds an N²/8 byte transpose of the rows while Lanczos runs: drawing
# and embedding configs/large.json's first graph peaks at 66.7 MB RSS (one
# thread); a copy would add 806 MB of float64 and the 101 MB boolean it is
# converted from.
_DENSE_COPY_BYTES = 64 << 20

# Lanczos stops once each wanted Ritz pair's residual is at most this
# fraction of its eigenvalue. At machine epsilon (2.2e-16), which no
# nomination list needs, each of the 5 configs/large.json graphs took 47
# lookup-table products instead of 38, and the 20 configs/medium.json graphs
# (on the float64 copy) a median of 146 instead of 119 (119-182 against
# 101-137); one BLAS thread. No list changed.
_LANCZOS_TOL = 1e-12

# Lanczos raises ValueError after this many restarts without convergence.
_LANCZOS_RESTARTS = 1000

# Lloyd's algorithm stops a restart unconverged after this many centroid updates.
_MAX_ITER = 300

# k-means runs its restarts together, in groups whose buffer of coordinate
# differences, (d, group, K, N) float64 (cluster-major, the vertex axis
# contiguous; (group, K, N, d) from 8 coordinates on), holds at most this many
# elements (1 MiB). All 10 restarts fit in one group while N*K*d <= 13,107
# (configs/medium.json's graphs have 4,680); configs/large.json's (60,240) run
# two at a time, so the buffer stays below a tenth of its 12 MB packed graph.
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
    that restart stopped neither converged nor in a cycle."""

    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    restart: int
    iterations: int


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


def _extend(basis, j, w):
    """One Lanczos step: orthogonalise w = A·basis[j] against basis[:j+1]
    by classical Gram-Schmidt, with a second pass only when the first
    cancels (the residual keeps at most 0.717 of |w|, the test of Daniel,
    Gragg, Kaufman & Stewart that ARPACK uses), and store the unit residual
    in basis[j+1]. Returns (alpha, beta): the Rayleigh quotient of
    basis[j] and the residual's norm. When the second pass cancels too, w
    lay in the basis's span (an invariant subspace): beta is 0 and
    basis[j+1] is a fixed pseudo-random vector orthogonalised twice
    against the basis instead."""
    span = basis[: j + 1]
    h = span @ w
    r = w - h @ span
    beta = _norm(r)
    if beta <= 0.717 * _norm(w):
        c = span @ r
        r -= c @ span
        h += c
        first, beta = beta, _norm(r)
        if beta <= 0.717 * first:
            beta = 0.0
            r = np.random.default_rng(j).uniform(-1.0, 1.0, len(w))
            for _ in range(2):
                r -= (span @ r) @ span
    basis[j + 1] = r / _norm(r)
    return h[j], beta


def _norm(x):
    """np.linalg.norm of a 1-D float64 vector, bit for bit (the square
    root of x.dot(x), which is what it computes), without its Python
    wrapper."""
    return math.sqrt(x.dot(x))


def _lanczos(matvec, N, d, v0, tol):
    """The d largest-modulus eigenpairs of the symmetric N x N operator
    x -> matvec(x), by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000), which is ARPACK's implicitly restarted Lanczos
    with exact shifts in another form.

    The basis holds ncv = min(N, max(2d + 1, 20)) orthonormal vectors
    (ARPACK's default) plus the residual direction, (ncv + 1)·N floats,
    and every new vector is orthogonalised against all of them
    (_extend). When the basis is full, T = VᵀAV (tridiagonal, with an
    arrow in the rows kept by the last restart) gives the Ritz pairs
    (theta_i, V·s_i); a pair has converged when its residual |beta·s_i[-1]|
    is at most tol·max(|theta_i|, eps^(2/3)), ARPACK's rule. Once all d
    wanted pairs (the largest |theta|, the first on ties in ascending
    order) have converged they are returned, eigenvalues ascending as eigh
    returns them and eigenvectors as columns. Otherwise the basis
    restarts from the wanted pairs plus half of the others, those of
    largest |theta|, and the residual direction. Raises ValueError after
    _LANCZOS_RESTARTS restarts without convergence."""
    ncv = min(N, max(2 * d + 1, 20))
    keep = d + (ncv - d) // 2
    floor = np.finfo(float).eps ** (2 / 3)
    basis = np.empty((ncv + 1, N))
    T = np.zeros((ncv, ncv))
    basis[0] = v0 / np.linalg.norm(v0)
    start = 0
    for _ in range(_LANCZOS_RESTARTS + 1):
        for j in range(start, ncv):
            T[j, j], beta = _extend(basis, j, matvec(basis[j]))
            if j + 1 < ncv:
                T[j + 1, j] = T[j, j + 1] = beta
        theta, S = np.linalg.eigh(T)
        order = np.argsort(-np.abs(theta), kind="stable")
        wanted = order[:d]
        residuals = np.abs(beta * S[-1, wanted])
        if (residuals <= tol * np.maximum(np.abs(theta[wanted]), floor)).all():
            wanted = np.sort(wanted)
            return theta[wanted], basis[:ncv].T @ S[:, wanted]
        kept = order[:keep]
        basis[:keep] = S[:, kept].T @ basis[:ncv]
        basis[keep] = basis[ncv]
        T[:] = 0.0
        T[:keep, :keep] = np.diag(theta[kept])
        T[keep, :keep] = T[:keep, keep] = beta * S[-1, kept]
        start = keep
    raise ValueError(f"Lanczos found no {d} converged eigenpairs of the "
                     f"{N}-vertex graph within {_LANCZOS_RESTARTS} restarts")


def embed(graph, d):
    """Scaled spectral embedding from the d largest-modulus eigenpairs of
    the 0/1 adjacency matrix: column j is eigenvector j (unit norm, signed
    by _fix_signs) times sqrt(|eigenvalue j|), in order of descending
    modulus (a stable sort, so +-lambda ties keep the solver's ascending
    order). Graphs of at most _DENSE_LIMIT vertices, or with d > N/10,
    take numpy's full eigh; larger ones the thick-restart Lanczos solver
    (_lanczos), multiplying by a float64 copy of the adjacency up to
    _DENSE_COPY_BYTES and by the packed rows (core.packed_product) above.
    Raises ValueError if d is not in 1..N or Lanczos does not converge."""
    N = graph.num_vertices
    if not 1 <= d <= N:
        raise ValueError(f"d must lie in 1..{N}, got {d}")
    if N <= _DENSE_LIMIT or d > N // 10:
        w, V = np.linalg.eigh(graph.adjacency.astype(float))
    elif not graph.packed.any():
        # A = 0: every eigenvalue is 0 and X = 0, as eigh would give
        return Embedding(X=np.zeros((N, d)), eigenvalues=np.zeros(d))
    else:
        if N * N * 8 > _DENSE_COPY_BYTES:
            # N²/8 bytes of byte columns, made once for all the products
            matvec = partial(packed_product, np.ascontiguousarray(graph.packed.T))
        else:
            matvec = graph.adjacency.astype(np.float64).dot
        # A fixed start vector with no symmetry, so a repeated top eigenvalue
        # (two identical components) is not lost to an orthogonal eigenvector.
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, N)
        w, V = _lanczos(matvec, N, d, v0, _LANCZOS_TOL)
    idx = np.argsort(-np.abs(w), kind="stable")[:d]
    vals = w[idx]
    vecs = V[:, idx]
    vecs = _fix_signs(vecs / np.linalg.norm(vecs, axis=0))
    X = vecs * np.sqrt(np.abs(vals))
    return Embedding(X=X, eigenvalues=vals)


def _seed_centroids(points, K, rngs):
    """Greedy farthest-point seeding, one restart per generator: a random
    first center, then each next center at the point farthest from all
    chosen centers (the first on ties). Returns the (restarts, K, d)
    centers. The distances to each restart's latest center come from
    _distances, with the bits of np.linalg.norm, and none are taken after
    the last pick."""
    R, (N, d) = len(rngs), points.shape
    picks = np.empty((R, K), dtype=np.intp)
    picks[:, 0] = [rng.integers(N) for rng in rngs]
    columns = np.ascontiguousarray(points.T)
    buf, out = np.empty(d * R * N), np.empty(R * N)
    # min(inf, x) is x, so the first update copies the first distances
    dist = np.full((R, N), np.inf)
    for k in range(1, K):
        np.minimum(dist, _distances(points, columns, points[picks[:, k - 1]], buf, out), out=dist)
        picks[:, k] = np.argmax(dist, axis=1)
    return points[picks]


def _distances(points, columns, centers, buf, out):
    """(R, N) Euclidean distances from every point to each of the R centers
    (R, d), in the leading R*N elements of the flat buffer `out`: the square
    root of _sq_distances' sums, which add the squares in the order numpy's
    reduction does, so each equals np.linalg.norm(points - center, axis=-1)
    bit for bit. columns is points.T, contiguous; buf is _sq_distances'."""
    d2 = _sq_distances(points, columns, centers[:, None], buf, out)[:, 0]
    return np.sqrt(d2, out=out[:d2.size].reshape(d2.shape))


def _sq_distances(points, columns, centers, buf, out):
    """(R, K, N) squared distances from every point to every restart's
    centers, in the leading R*K*N elements of the flat buffer `out`;
    columns is points.T, contiguous. Below 8 coordinates, the leading part
    of the flat buffer `buf` takes the (d, R, K, N) differences, which are
    squared and added coordinate by coordinate, left to right: numpy's
    reduction adds that few terms in that order, so each distance gets the
    bits of a sum over a (..., d) axis without its slow loop over a short
    axis. From 8 terms on numpy sums pairwise, in an order these additions
    would not reproduce, so buf then takes the (R, K, N, d) differences and
    numpy sums them."""
    R, K, d = centers.shape
    size = R * K * len(points)
    out = out[:size].reshape(R, K, -1)
    if d < 8:
        diff = buf[:d * size].reshape(d, R, K, -1)
        np.subtract(columns[:, None, None, :], centers.transpose(2, 0, 1)[..., None], out=diff)
        np.square(diff, out=diff)
        if d == 1:
            return diff[0]
        np.add(diff[0], diff[1], out=out)
        for j in range(2, d):
            np.add(out, diff[j], out=out)
        return out
    diff = buf[:d * size].reshape(R, K, -1, d)
    np.subtract(points, centers[:, :, None, :], out=diff)
    np.square(diff, out=diff)
    return diff.sum(axis=-1, out=out)


def _nearest(d2):
    """Each point's nearest center in every restart, the first on ties
    (np.argmin over axis 1 of the (R, K, N) distances), from running strict
    comparisons of the K contiguous (R, N) slices in place of a reduction
    over a length-K axis."""
    R, K, N = d2.shape
    if K == 1:
        return np.zeros((R, N), dtype=np.intp)
    labels = np.less(d2[:, 1], d2[:, 0]).astype(np.intp)
    best = d2[:, 0]
    for k in range(2, K):
        best = np.minimum(best, d2[:, k - 1])
        np.copyto(labels, k, where=d2[:, k] < best)
    return labels


def _cluster_index(labels, K):
    """(R, N) labels as indices r*K + k into all restarts' clusters."""
    return labels + K * np.arange(len(labels))[:, None]


def _cluster_counts(labels, K):
    """(R, K) member counts of each restart's clusters."""
    R = len(labels)
    return np.bincount(_cluster_index(labels, K).ravel(), minlength=R * K).reshape(R, K)


def _repair_empty(d2, labels, counts):
    """Give each empty cluster, in index order, the point farthest from its
    own center among the clusters that have at least 2 members, so no
    cluster is emptied in turn. One restart: d2 is (K, N); labels and
    counts are updated in place."""
    rows = np.arange(len(labels))
    for k in np.flatnonzero(counts == 0):
        gaps = d2[labels, rows]
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
    d = len(columns)
    # bin j*R*K + r*K + k sums coordinate j of restart r's cluster k
    flat = _cluster_index(labels, K)
    bins = (flat.reshape(1, -1) + R * K * np.arange(d)[:, None]).ravel()
    sums = np.bincount(bins, weights=columns[:, :flat.size].ravel(), minlength=d * R * K)
    return (sums.reshape(d, -1) / counts.reshape(-1)).reshape(d, R, K).transpose(1, 2, 0)


def _objectives(d2, labels):
    """Each restart's sum of squared distances to its own centers, from
    the (R, K, N) distances and (R, N) labels."""
    R, K, N = d2.shape
    return d2.reshape(R * K, N)[_cluster_index(labels, K), np.arange(N)].sum(axis=1)


def _coinciding(labels):
    """{i: j} for each row i of the integer labels (R, N) that equals an
    earlier row, j the first row equal to it. Rows are keyed by their
    bytes, so equal keys are equal rows."""
    first, twins = {}, {}
    for i, row in enumerate(labels):
        j = first.setdefault(row.tobytes(), i)
        if j != i:
            twins[i] = j
    return twins


def _lloyd(points, centers):
    """Lloyd's algorithm from each restart's (K, d) centers, all restarts in
    one loop. A restart leaves the loop once a step's labels repeat an
    earlier step's, or after _MAX_ITER centroid updates, and returns the
    labels before that step with their centroids. Each step's labels are a
    function of the previous step's, so a repeat of the previous labels is
    convergence and a repeat of older ones a cycle that would run to the
    cap: with fewer distinct rows than K, the means of identical rows can
    differ in the last bit, and points then flip between such centers in
    cycles of 2 or 4 steps. Besides the previous labels, each step compares
    with the labels of the last step numbered 0 or a power of two (Brent's
    cycle detection), which finds a cycle of length c entered by step s by
    step 2^j + c, for the least 2^j >= max(s, c), and costs one comparison
    per step. At a step numbered a power of two, the saved labels, the
    previous labels and the next centers all depend only on the step's
    labels, so a restart whose labels equal an earlier active restart's
    (_coinciding) has that restart's future: it leaves the loop, and at
    the end takes that restart's labels, centers, objective and step count.
    Returns labels (R, N), centers (R, K, d), objectives (R,) and each
    restart's centroid updates (R,)."""
    R, K, d = centers.shape
    labels = np.empty((R, len(points)), dtype=np.intp)
    final = np.empty_like(centers)
    objectives = np.empty(R)
    steps = np.full(R, _MAX_ITER)
    # flat buffers of differences and distances for the whole call; a step
    # with fewer restarts left uses the contiguous leading part of each
    buf = np.empty(R * K * len(points) * d)
    out = np.empty(R * K * len(points))
    transposed = np.ascontiguousarray(points.T)
    columns = np.tile(transposed, R)
    active = np.arange(R)
    current = saved = None
    twin_of = {}  # a restart that left as a twin -> the earlier restart it equals
    for step in range(_MAX_ITER):
        d2 = _sq_distances(points, transposed, centers, buf, out)
        new = _nearest(d2)
        counts = _cluster_counts(new, K)
        if not counts.all():
            for i in np.flatnonzero((counts == 0).any(axis=1)):
                _repair_empty(d2[i], new[i], counts[i])
        if current is not None:
            done = (new == current).all(axis=1)
            if saved is not current:
                done |= (new == saved).all(axis=1)
            if done.any():
                finished = active[done]
                labels[finished] = current[done]
                final[finished] = centers[done]
                objectives[finished] = _objectives(d2[done], current[done])
                steps[finished] = step
                keep = ~done
                active, new, counts, saved = active[keep], new[keep], counts[keep], saved[keep]
                if not len(active):
                    break
        if step & (step - 1) == 0:
            # step 0 is not checked: restarts were never seen to share its labels
            if step and len(active) > 1:
                twins = _coinciding(new)
                if twins:
                    ids = active.tolist()
                    twin_of.update((ids[i], ids[j]) for i, j in twins.items())
                    keep = [i for i in range(len(ids)) if i not in twins]
                    active = active.take(keep)
                    new, counts = new.take(keep, axis=0), counts.take(keep, axis=0)
            saved = new
        current = new
        centers = _centroids(points, columns, current, counts)
    else:
        labels[active] = current
        final[active] = centers
        objectives[active] = _objectives(
            _sq_distances(points, transposed, centers, buf, out), current)
    if twin_of:
        # a twin's restart is earlier, so it is resolved first, to the
        # restart that ran to the end for both
        source = []
        for r in range(R):
            source.append(source[twin_of[r]] if r in twin_of else r)
        source = np.array(source)
        labels, final = labels[source], final[source]
        objectives, steps = objectives[source], steps[source]
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
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
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


def spectral_nominate(graph, K, d, restarts=10, rng_seed=0, embedding=None):
    """Embed, cluster, pick the seed-majority centroid, and rank ambiguous
    vertices by ascending distance to it (ties by `rank_with_ties`).
    `embedding`, if given, is the graph's embed(graph, d), which is then
    not computed again."""
    if embedding is None:
        embedding = embed(graph, d)
    elif embedding.X.shape != (graph.num_vertices, d):
        raise ValueError(f"embedding must be {graph.num_vertices} x {d}, "
                         f"got {embedding.X.shape}")
    clustering = kmeans(embedding.X, K, restarts=restarts, rng_seed=rng_seed)
    c = choose_block1_centroid(clustering, graph.seed_labels)
    centroid = clustering.centroids[c]
    amb = graph.ambiguous_vertices()
    points = embedding.X[amb]
    dist = _distances(points, np.ascontiguousarray(points.T), centroid[None],
                      np.empty(points.size), np.empty(len(points)))[0]
    return NominationList(order=rank_with_ties(amb, dist), seed_count=graph.seed_count)
