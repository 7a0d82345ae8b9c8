"""Graph and model representations, SBM sampling, and block likelihoods.

Vertices are indexed 0-based internally; all file formats are 1-based.
Block labels are 1..K everywhere (matching the 1-based file formats).
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass

import numpy as np

PROB_EPS = 1e-6

class SizeMismatchError(ValueError):
    """An assignment, graph, or model disagree on vertex or block counts."""


class ParseError(ValueError):
    """A malformed input file."""


def integral(value):
    """int(value), refusing what int() would change: a bool, or a number
    with a fractional part (2.7, NaN, infinity). 3.0 gives 3."""
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an integer: {value!r}")
    if (isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def clamp_probabilities(lam, eps=PROB_EPS):
    """Clamp a probability matrix entrywise into [eps, 1-eps].

    Applied to every Lambda (given or estimated) before logs are taken, so
    log(lam) and log(1-lam) are always finite.
    """
    lam = np.asarray(lam, dtype=float)
    return np.clip(lam, eps, 1.0 - eps)


@dataclass(frozen=True)
class BlockModel:
    """SB(K, m, n, b, Lambda) parameter bundle.

    m_sizes[k] / n_sizes[k] count seeds / ambiguous vertices in block k+1.
    lam is the symmetric K x K matrix of adjacency probabilities.
    """

    m_sizes: tuple
    n_sizes: tuple
    lam: np.ndarray

    def __post_init__(self):
        for key in ("m_sizes", "n_sizes"):
            try:
                sizes = tuple(integral(x) for x in getattr(self, key))
            except (TypeError, ValueError):
                raise ValueError(f"{key} must be integers, got {getattr(self, key)!r}") from None
            object.__setattr__(self, key, sizes)
        lam = np.array(self.lam, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        K = len(self.m_sizes)
        if K < 1 or len(self.n_sizes) != K:
            raise SizeMismatchError("m_sizes and n_sizes must have equal positive length")
        if lam.shape != (K, K):
            raise SizeMismatchError(f"Lambda must be {K}x{K}, got {lam.shape}")
        if not np.allclose(lam, lam.T):
            raise ValueError("Lambda must be symmetric")
        if lam.min() < 0.0 or lam.max() > 1.0:
            raise ValueError("Lambda entries must lie in [0, 1]")
        if any(x < 0 for x in self.m_sizes) or any(x < 0 for x in self.n_sizes):
            raise ValueError("block sizes must be nonnegative")
        if self.n < 1:
            raise ValueError("at least one ambiguous vertex is required")
        if self.n_sizes[0] < 1:
            raise ValueError("the block of interest must have ambiguous members (n_1 >= 1)")

    @property
    def K(self):
        return len(self.m_sizes)

    @property
    def m(self):
        return sum(self.m_sizes)

    @property
    def n(self):
        return sum(self.n_sizes)

    @property
    def num_vertices(self):
        return self.m + self.n

    def clamped_lam(self, eps=PROB_EPS):
        return clamp_probabilities(self.lam, eps)

    def log_odds(self, eps=PROB_EPS):
        """The K x K matrix log(Lambda / (1 - Lambda)) of the clamped Lambda."""
        lam = self.clamped_lam(eps)
        return np.log(lam) - np.log1p(-lam)


# Columns per block of the packed transposes that symmetrise a drawn graph
# and check symmetry: a multiple of 8, so every block is whole bytes of each
# packed row. Each block unpacks N x 64 bits into bytes (640 KB at
# N = 10,040). Symmetrising a graph of that size took 0.12 s of CPU (one
# thread, fastest of 5) when each unpacked block is transposed into a
# contiguous copy before np.packbits, and 0.31 s when packed from the
# transposed view; copying the strided byte columns before unpacking them
# made no difference.
_TRANSPOSE_COLS = 64


def _transposed_columns(packed, start, stop, first_row=0):
    """Columns start:stop of the packed rows from first_row on, transposed:
    a contiguous (stop - start) x (N - first_row) uint8 array of 0/1, whose
    row c is column start + c. start must be a multiple of 8."""
    block = packed[first_row:, start // 8 : -(-stop // 8)]
    return np.ascontiguousarray(np.unpackbits(block, axis=1, count=stop - start).T)


def _is_symmetric(packed):
    """Compare each block of packed rows, from its diagonal on, with the
    transpose of the matching block of columns, so no N x N temporary is
    allocated. The padding bits must be zero."""
    N = packed.shape[0]
    for start in range(0, N, _TRANSPOSE_COLS):
        stop = min(start + _TRANSPOSE_COLS, N)
        mirror = np.packbits(_transposed_columns(packed, start, stop, start), axis=1)
        if not np.array_equal(mirror, packed[start:stop, start // 8 :]):
            return False
    return True


@dataclass(frozen=True, init=False)
class LabeledGraph:
    """Simple undirected graph with seed labels and optional hidden truth.

    Vertices 0..m-1 are seeds (set U); vertices m..m+n-1 are ambiguous
    (set V). true_labels, when present, give the block of each ambiguous
    vertex and are used only for evaluation.

    The adjacency is stored only as `packed`, its np.packbits rows: an
    N x ceil(N/8) uint8 array whose row i has bit j (most significant bit
    first in each byte) set when {i, j} is an edge, with the padding bits
    past column N zero. That is N²/8 bytes, 12 MB at N = 10,040. Give the
    constructor either a boolean `adjacency` or `packed` rows. `adjacency`
    unpacks all N² bytes anew on each read, for small graphs only; `rows`
    unpacks some rows.
    """

    packed: np.ndarray
    seed_labels: np.ndarray
    true_labels: np.ndarray | None = None

    def __init__(self, adjacency=None, seed_labels=None, true_labels=None, *, packed=None):
        if (adjacency is None) == (packed is None):
            raise TypeError("give exactly one of adjacency and packed")
        if seed_labels is None:
            raise TypeError("seed_labels is required")
        if packed is None:
            adj = np.asarray(adjacency, dtype=bool)
            if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
                raise SizeMismatchError("adjacency must be square")
            packed = np.packbits(adj, axis=1)
        self._fill(packed, seed_labels, true_labels)
        # The graph is undirected: the spectral embedding's eigensolvers read
        # the adjacency as a symmetric matrix.
        if not _is_symmetric(self.packed):
            raise ValueError("adjacency must be symmetric")

    @classmethod
    def _symmetric(cls, packed, seed_labels, true_labels=None):
        """A graph from packed rows that are symmetric by construction, with
        every constructor check but the symmetry scan. Only for sample_sbm's
        output, which ORs each block's transpose into the rows, and for the
        np.ix_(order, order) gather of an already checked graph."""
        graph = cls.__new__(cls)
        graph._fill(packed, seed_labels, true_labels)
        return graph

    def _fill(self, packed, seed_labels, true_labels):
        """Check and freeze the fields; symmetry is left to the caller."""
        # Freeze a view, not the caller's own array, which stays writeable.
        # Row-major always: the matcher's BLAS products, and so its labels,
        # depend on the layout of the adjacency unpacked from these rows.
        packed = np.ascontiguousarray(packed).view()
        N = len(packed)
        if packed.dtype != np.uint8 or packed.shape != (N, -(-N // 8)):
            raise SizeMismatchError("packed rows must be an N x ceil(N/8) uint8 array")
        if N % 8 and (packed[:, -1] & (0xFF >> N % 8)).any():
            raise ValueError("the padding bits of packed rows must be zero")
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)
        seed = np.asarray(seed_labels, dtype=int).view()
        seed.setflags(write=False)
        object.__setattr__(self, "seed_labels", seed)
        truth = None
        if true_labels is not None:
            truth = np.asarray(true_labels, dtype=int).view()
            truth.setflags(write=False)
        object.__setattr__(self, "true_labels", truth)
        diagonal = np.arange(N)
        if (packed[diagonal, diagonal // 8] & (0x80 >> diagonal % 8)).any():
            raise ValueError("self-loops are not allowed (simple graph)")
        if seed.ndim != 1 or len(seed) > N:
            raise SizeMismatchError("seed_labels must cover a prefix of the vertices")
        if truth is not None and len(truth) != N - len(seed):
            raise SizeMismatchError("true_labels must cover exactly the ambiguous vertices")

    @property
    def adjacency(self):
        """The read-only N x N boolean adjacency, unpacked on each read."""
        adj = self.rows(slice(None))
        adj.setflags(write=False)
        return adj

    def rows(self, index):
        """Rows `index` (an int, a slice or an index array) of the
        adjacency as booleans."""
        return np.unpackbits(self.packed[index], axis=-1, count=self.num_vertices).view(bool)

    @property
    def num_vertices(self):
        return len(self.packed)

    @property
    def seed_count(self):
        return len(self.seed_labels)

    @property
    def ambiguous_count(self):
        return self.num_vertices - self.seed_count

    def ambiguous_vertices(self):
        return np.arange(self.seed_count, self.num_vertices)


@dataclass(frozen=True)
class BlockAssignment:
    """A full candidate block membership function on all vertices."""

    labels: np.ndarray

    def __post_init__(self):
        # Freeze a view, not the caller's own array.
        labels = np.asarray(self.labels, dtype=int).view()
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or len(labels) == 0:
            raise ValueError("labels must be a nonempty vector")
        if labels.min() < 1:
            raise ValueError("block labels are 1-based")

    def check_membership(self, model, seed_labels):
        """Verify agreement with the seeds and the ambiguous block sizes."""
        m = len(seed_labels)
        if len(self.labels) != model.num_vertices:
            raise SizeMismatchError("assignment length does not match the model")
        if not np.array_equal(self.labels[:m], seed_labels):
            raise ValueError("assignment must agree with the seed labels")
        counts = np.bincount(self.labels[m:], minlength=model.K + 1)[1:]
        if not np.array_equal(counts, np.asarray(model.n_sizes)):
            raise SizeMismatchError("ambiguous block sizes do not match n_sizes")


def contiguous_assignment(model):
    """The canonical assignment with seeds then ambiguous vertices labeled
    contiguously block by block (1's first, then 2's, ...)."""
    labels = []
    for k, cnt in enumerate(model.m_sizes, start=1):
        labels.extend([k] * cnt)
    for k, cnt in enumerate(model.n_sizes, start=1):
        labels.extend([k] * cnt)
    return BlockAssignment(np.array(labels, dtype=int))


def _checked_order(order, N, m):
    """order as an index array, after checking that it is a permutation of
    the N vertices that keeps the m seeds in the first m positions."""
    order = np.asarray(order, dtype=np.intp)
    if order.shape != (N,) or not np.array_equal(np.sort(order), np.arange(N)):
        raise ValueError("order must be a permutation of the vertices")
    if not (order[:m] < m).all():
        raise ValueError("order must keep the seeds in the first m positions")
    return order


# Rows per strip of sample_sbm. A strip is a reused _STRIP_ROWS x N boolean
# array of its rows' edges in output column order (314 KiB at N = 10,040),
# packed and written to the graph at once; each row's uniforms go through one
# reused length-N float64 buffer. Only the first strip, drawn in one call,
# holds _STRIP_ROWS x N float64 uniforms and probabilities (2.5 MiB each at
# N = 10,040), so the height sets the sampler's peak. Drawing
# configs/large.json's graphs while holding the one before (one thread,
# 3 draws; 3 processes per height up to 64 rows) peaked at 105.2-105.4,
# 106.6-107.0, 109.4-109.6, 115.0 and 126.1 MB RSS with 8-, 16-, 32-, 64- and
# 128-row strips. Each draw took 0.43-0.81 s of CPU at every height on a
# shared 2-core host, against 1.34-1.56 s for whole-row draws; 32 rows keep
# every model of up to 32 vertices in one call.
_STRIP_ROWS = 32


def sample_sbm(model, membership, rng_seed, order=None):
    """Realize a graph: each pair {w, w'} is an independent Bernoulli edge
    with parameter Lambda[b(w), b(w')]. Deterministic given rng_seed.

    Pair {i, j} with i < j is an edge when the uniform at (i, j) of one
    row-major N x N draw from PCG64 falls below its probability. Only the
    uniforms right of the diagonal are drawn: each double takes one 64-bit
    word of the stream, so row r steps over its first r + 1 words with
    PCG64.advance and draws the rest, and every uniform keeps its place. The
    first _STRIP_ROWS rows have nothing to skip outside their own square and
    are drawn in one call. The result has the same bits as a whole-matrix
    draw, and no N x N float array is made.

    With an order (a permutation of the vertices that keeps the seeds
    first), vertex order[i] of the drawn graph becomes vertex i of the
    result, and the labels follow: the result equals the order-free graph
    gathered through np.ix_(order, order). Each row is written straight to
    its output columns, and each strip to its rows, in that order, so no
    N x N copy is made.
    """
    membership.check_membership(model, membership.labels[: model.m])
    N = model.num_vertices
    labels = membership.labels
    if order is None:
        order = np.arange(N)
    else:
        order = _checked_order(order, N, model.m)
        labels = labels[order]
    pos = np.empty(N, dtype=np.intp)
    pos[order] = np.arange(N)
    labels0 = membership.labels - 1
    col_probs = model.lam[:, labels0]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng_seed)))
    # Each vertex pair is written once, on the row of its earlier vertex in
    # drawn order; the mirror half is filled in afterwards.
    packed = np.zeros((N, -(-N // 8)), dtype=np.uint8)
    strip = np.empty((min(_STRIP_ROWS, N), N), dtype=bool)
    uniforms = np.empty(N)
    for start in range(0, N, _STRIP_ROWS):
        stop = min(start + _STRIP_ROWS, N)
        rows = strip[: stop - start]
        if start == 0:
            rows[:, pos] = np.triu(rng.random((stop, N)) < col_probs[labels0[:stop]], k=1)
        else:
            rows[:] = False
            for row, r in zip(rows, range(start, stop)):
                rng.bit_generator.advance(r + 1)
                drawn = uniforms[: N - r - 1]
                rng.random(out=drawn)
                row[pos[r + 1 :]] = drawn < col_probs[labels0[r], r + 1 :]
        packed[pos[start:stop]] = np.packbits(rows, axis=1)
    for start in range(0, N, _TRANSPOSE_COLS):
        stop = min(start + _TRANSPOSE_COLS, N)
        packed[start:stop] |= np.packbits(_transposed_columns(packed, start, stop), axis=1)
    return LabeledGraph._symmetric(packed, labels[: model.m], labels[model.m :])


# Byte groups per chunk of packed_product's lookup tables: 32 tables of 256
# float64 sums (64 KiB), rebuilt in one reused buffer for each chunk. At
# N = 10,040 (one thread, fastest of 7 on configs/large.json's first graph,
# two runs) one product took 13.3-13.4 ms with 16 groups per chunk,
# 12.3-12.8 ms with 32, 12.4 ms with 64, and 12.3-12.4 ms with 128 or with
# one table per group of the whole graph (2.5 MiB). At N = 3,030 one product
# allocated at most 215 KB with 32 groups and 378 KB with 64 (tracemalloc).
_TABLE_GROUPS = 32


def packed_product(columns, x):
    """A·x in float64 for any 0/1 N x M matrix A and a float vector x of
    length M, without a float copy of A ("Four Russians" lookup tables).

    columns = np.ascontiguousarray(packed.T) is the byte transpose of A's
    np.packbits rows: row g holds byte g of every row of A, the bits of
    columns 8g..8g+7 (most significant bit first), and the padding bits
    past column M meet zeros of the padded x. For each byte group g a table
    of 256 sums holds, at entry v, the sum of x[8g + b] over the set bits b
    of v; it is built in 8 elementwise doubling steps, so its bits do not
    depend on BLAS. y then gathers each group's table through that group's
    bytes and adds the gathers up in group order.
    """
    x = np.asarray(x, dtype=np.float64)
    G, N = columns.shape
    padded = np.zeros((G, 8))
    padded.reshape(-1)[: len(x)] = x
    y = np.zeros(N)
    tables = np.empty((min(_TABLE_GROUPS, G), 256))
    tables[:, 0] = 0.0
    for start in range(0, G, _TABLE_GROUPS):
        stop = min(start + _TABLE_GROUPS, G)
        table = tables[: stop - start]
        for b in range(8):
            # entries 2^b..2^(b+1)-1 add bit 2^b, column 8g + 7 - b
            w = 1 << b
            np.add(table[:, :w], padded[start:stop, 7 - b, None], out=table[:, w : 2 * w])
        for sums, group in zip(table, columns[start:stop]):
            y += sums.take(group)
    return y


# Bytes of the uint8 temporary that block_edge_counts ANDs and popcounts per
# chunk of rows. Counting all rows of a random graph at N = 10,040 with 6
# blocks (one thread, fastest of 5) took 30.6, 27.7, 27.4 and 28.4 ms with
# 64 KiB, 256 KiB, 512 KiB and 1 MiB. 256 KiB keeps the traced peak of
# scoring and log_likelihood below the N²/8 bytes of the packed rows from
# N = 3,000 on.
_COUNT_BYTES = 1 << 18


def block_edge_counts(packed, labels, K):
    """E = A·H, the edge counts from each row vertex to each block.

    packed holds np.packbits rows of the adjacency, and labels gives the
    1-based block of each of the leading len(labels) columns; E[v, k]
    counts the set bits of row v among the columns labeled k+1 (labels
    outside 1..K count toward no block). The N x K int64 matrix E is the
    one kernel behind the block edge counts (H^T·E), the canonical scheme's
    seed terms and the likelihood scheme's matcher and swap ratios. Each
    entry is the popcount of the row ANDed with a packed mask of its
    block's columns, so it is exact and nothing is unpacked; rows go
    _COUNT_BYTES of temporary at a time.
    """
    labels = np.asarray(labels)
    masks = np.packbits(labels == np.arange(1, K + 1)[:, None], axis=1)
    rows = packed[:, : masks.shape[1]]
    counts = np.empty((len(rows), K), dtype=np.int64)
    step = max(1, _COUNT_BYTES // max(1, masks.size))
    for start in range(0, len(rows), step):
        both = rows[start : start + step, None, :] & masks
        np.bitwise_count(both, out=both).sum(axis=2, dtype=np.int64,
                                             out=counts[start : start + step])
    return counts


def block_pair_counts(packed, labels, K):
    """Ordered edge and vertex-pair counts per block pair of the vertices
    whose packed rows and columns carry the 1-based labels (one row per
    label, as in block_edge_counts).

    Returns the K x K int64 matrices (edges, pairs): edges = H^T·A·H counts
    the ordered vertex pairs (v, w) with an edge, v in block k+1 and w in
    block l+1, and pairs counts all ordered pairs of distinct vertices
    there, outer(sizes, sizes) - diag(sizes). A pair within a block counts
    twice.
    """
    onehot = (np.asarray(labels)[:, None] == np.arange(1, K + 1)).astype(np.int64)
    sizes = onehot.sum(axis=0)
    edges = onehot.T @ block_edge_counts(packed, labels, K)
    return edges, np.outer(sizes, sizes) - np.diag(sizes)


def log_likelihood(graph, assignment, model, eps=PROB_EPS):
    """log p(b, G) = sum over block pairs k <= l of e log(Lambda) +
    c log(1-Lambda), taken as half the sum over the ordered pairs."""
    if len(assignment.labels) != graph.num_vertices:
        raise SizeMismatchError("assignment must cover all vertices")
    if assignment.labels.max() > model.K:
        raise SizeMismatchError("assignment uses more blocks than the model")
    edges, pairs = block_pair_counts(graph.packed, assignment.labels, model.K)
    lam = model.clamped_lam(eps)
    return 0.5 * float(np.sum(edges * np.log(lam) + (pairs - edges) * np.log1p(-lam)))


def estimate_lambda(graph, K, eps=PROB_EPS):
    """Plug-in Lambda-hat from the seed-induced subgraph.

    Entry (k, l) is the number of edges between block-k and block-l seeds
    divided by the number of such pairs, then clamped to [eps, 1-eps].
    Seeds in blocks above K are ignored.
    """
    labels = graph.seed_labels
    sizes = np.bincount(labels[labels <= K], minlength=K + 1)[1:]
    for k in range(K):
        if sizes[k] < 2:
            raise ValueError(
                f"block {k + 1} has {sizes[k]} seed(s); need at least 2 to estimate "
                "the within-block density"
            )
        empty = np.flatnonzero(sizes[k + 1 :] == 0)
        if len(empty):
            raise ValueError(f"block {k + empty[0] + 2} has no seeds")
    edges, pairs = block_pair_counts(graph.packed[: graph.seed_count], labels, K)
    return clamp_probabilities(edges / pairs, eps)


def mix_lambda(base, theta):
    """Convex combination of base with the all-1/2 matrix: theta*base +
    (1-theta)*0.5."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    base = np.asarray(base, dtype=float)
    if base.min() < 0.0 or base.max() > 1.0 or not np.allclose(base, base.T):
        raise ValueError("base must be a symmetric matrix with entries in [0, 1]")
    return theta * base + (1.0 - theta) * 0.5


def _numbered_lines(path):
    """(line number, line) for each line of a UTF-8 text file; a file that
    is not UTF-8 is a ParseError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


# A line of an edge list that is not two ids of plain ASCII digits (few
# enough for int64) between blanks and tabs: blank lines, comments, headers,
# and anything malformed or unusual. Newlines are already "\n" in text mode.
_OTHER_LINE = re.compile(r"^(?![ \t]*[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*$).*$", re.M)


def load_edge_list(edges_path, labels_path=None, num_vertices=None):
    """Read a 1-based whitespace edge list plus an optional seed-labels file
    (load_labels), whose vertices 1..m become the seeds.

    Duplicate and reversed edges collapse; self-loops are rejected. The
    vertex universe comes from an optional '#vertices N' header (or the
    num_vertices argument); otherwise it is the largest id referenced.

    One regular-expression pass finds the lines that are not two plain
    ids; numpy parses and checks all the others at once, and these are
    read one by one. An error is reported at the first line that has one,
    in file order, with the message a line-by-line read gives.
    """
    declared = num_vertices
    try:
        with open(edges_path, "r", encoding="utf-8") as fh:
            text = "".join(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{edges_path}: not UTF-8 text ({exc})") from None
    others, plain, start, lineno = [], [], 0, 1
    for match in _OTHER_LINE.finditer(text):
        lineno += text.count("\n", start, match.start())
        others.append((lineno, match.group()))
        plain.append(text[start : match.start()])
        start = match.end()
    plain.append(text[start:])
    # stripped, since np.fromstring reads a text of whitespace alone as [0]
    ends = np.fromstring("".join(plain).strip(), dtype=np.intp, sep=" ").reshape(-1, 2)
    # the first plain line whose ids are not 1-based or form a self-loop
    wrong = np.flatnonzero((ends < 1).any(axis=1) | (ends[:, 0] == ends[:, 1]))[:1]
    stop = None
    if len(wrong):
        # its line number: its rank among the plain lines, moved down past
        # each other line before it
        stop = int(wrong[0]) + 1
        for other_lineno, _ in others:
            stop += other_lineno <= stop
    edges = []
    for lineno, line in others:
        if stop is not None and lineno > stop:
            break
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.lower().startswith("vertices"):
                try:
                    declared = int(body.split()[1])
                except (IndexError, ValueError):
                    declared = -1
                if declared < 0:
                    raise ParseError(f"{edges_path}:{lineno}: malformed '#vertices' header")
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"{edges_path}:{lineno}: expected two vertex ids")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{edges_path}:{lineno}: non-integer vertex id") from None
        if a < 1 or b < 1:
            raise ParseError(f"{edges_path}:{lineno}: vertex ids are 1-based")
        if a == b:
            raise ParseError(f"{edges_path}:{lineno}: self-loop on vertex {a}")
        edges.append((a, b))
    if stop is not None:
        a, b = ends[wrong[0]].tolist()
        problem = "vertex ids are 1-based" if min(a, b) < 1 else f"self-loop on vertex {a}"
        raise ParseError(f"{edges_path}:{stop}: {problem}")
    max_id = max([int(ends.max(initial=0)), *map(max, edges)])

    seed_labels = np.array([], dtype=int)
    if labels_path is not None:
        seed_labels = load_labels(labels_path)
        max_id = max(max_id, len(seed_labels))

    N = declared if declared is not None else max_id
    if N < max_id:
        raise ParseError(
            f"{edges_path}: vertex {max_id} referenced but only {N} declared"
        )
    if N == 0:
        raise ParseError(f"{edges_path}: empty graph with no declared vertices")
    # Each edge sets its bit in both rows of the packed adjacency; no N x N
    # boolean is made.
    ends = np.concatenate([ends, np.array(edges, dtype=np.intp).reshape(-1, 2)]) - 1
    rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
    packed = np.zeros((N, -(-N // 8)), dtype=np.uint8)
    np.bitwise_or.at(packed, (rows, cols // 8), (0x80 >> cols % 8).astype(np.uint8))
    return LabeledGraph(packed=packed, seed_labels=seed_labels)


def load_labels(path, K=None):
    """Read a labels file: one 'vertex block' pair of 1-based ids per line;
    blank lines and lines starting with '#' are skipped.

    Returns the blocks of vertices 1..M, which the file must list exactly
    once each; with K, blocks above K are rejected.
    """
    labels = {}
    for lineno, line in _numbered_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'vertex block'")
        try:
            v, blk = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer field") from None
        if v < 1:
            raise ParseError(f"{path}:{lineno}: vertex ids are 1-based")
        if blk < 1:
            raise ParseError(f"{path}:{lineno}: block ids are 1-based")
        if K is not None and blk > K:
            raise ParseError(f"{path}:{lineno}: block {blk} outside 1..{K}")
        if v in labels:
            raise ParseError(f"{path}:{lineno}: vertex {v} listed twice")
        labels[v] = blk
    # distinct ids from 1 up cover 1..M exactly when the largest is M
    M = max(labels, default=0)
    if M != len(labels):
        raise ParseError(f"{path}: labels must cover vertices 1..{M} exactly")
    return np.array([labels[v] for v in range(1, M + 1)], dtype=int)


def load_lambda(path):
    """Read a Lambda matrix from a JSON file with fields K and a row-major
    'lambda' array."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "K" not in data or "lambda" not in data:
        raise ParseError(f"{path}: expected JSON object with fields 'K' and 'lambda'")
    try:
        K = integral(data["K"])
    except (TypeError, ValueError):
        raise ParseError(f"{path}: 'K' must be an integer, got {data['K']!r}") from None
    try:
        flat = np.asarray(data["lambda"], dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: 'lambda' must be an array of numbers, "
                         f"got {data['lambda']!r}") from None
    if flat.size != K * K:
        raise ParseError(f"{path}: 'lambda' must contain {K * K} entries")
    lam = flat.reshape(K, K)
    if not np.allclose(lam, lam.T):
        raise ParseError(f"{path}: Lambda must be symmetric")
    if lam.min() < 0 or lam.max() > 1:
        raise ParseError(f"{path}: Lambda entries must lie in [0, 1]")
    return lam
