"""Seeded graph matching: LAP and transportation exactness, the block-form
relaxation, ascent quality, and the swap search against its dense
reference."""

import itertools
import math

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from conftest import replicate_graphs
from vnom import harness, sgm
from vnom.canonical import enumerate_partitions
from vnom.core import (
    BlockAssignment,
    BlockModel,
    LabeledGraph,
    block_edge_counts,
    contiguous_assignment,
    log_likelihood,
    sample_sbm,
)
from vnom.sgm import (
    TRANSPORT_PASSES,
    _balance,
    _best_blocks,
    _Transport,
    _gradient,
    _objective,
    _polish,
    _relaxation,
    sgm_match,
    solve_lap,
    solve_transport,
)


def brute_force_lap(cost, maximize):
    n = cost.shape[0]
    best_val = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n))
        better = best_val is None or (val > best_val if maximize else val < best_val)
        if better:
            best_val = val
            best_perm = perm
    return np.array(best_perm), best_val


def objective(adjacency, L, labels):
    """<A, H L H^T> for 1-based labels."""
    lab = np.asarray(labels) - 1
    return float(np.sum(adjacency * L[np.ix_(lab, lab)]))


def random_graph(rng, N, p=0.5, seed_labels=()):
    """A G(N, p) graph whose first len(seed_labels) vertices are seeds."""
    upper = np.triu(rng.random((N, N)) < p, 1)
    return LabeledGraph(upper | upper.T, seed_labels)


def random_logodds(rng, K):
    L = rng.normal(size=(K, K))
    return (L + L.T) / 2


def random_problem(rng, max_n=8, max_k=3, max_m=3):
    """A random seeded graph, log-odds matrix and ambiguous sizes."""
    K = int(rng.integers(1, max_k + 1))
    n_sizes = rng.multinomial(int(rng.integers(1, max_n + 1)), np.full(K, 1.0 / K))
    m = int(rng.integers(0, max_m + 1))
    seed_labels = rng.integers(1, K + 1, size=m)
    N = m + int(n_sizes.sum())
    return random_graph(rng, N, seed_labels=seed_labels), random_logodds(rng, K), n_sizes


def exhaustive_maximum(graph, L, n_sizes):
    return max(
        objective(graph.adjacency, L, np.concatenate([graph.seed_labels, part]))
        for part in enumerate_partitions(n_sizes)
    )


def transport_reference(cost, sizes):
    """Optimal value by linear_sum_assignment on the column-repeated cost."""
    cols = np.repeat(np.arange(len(sizes)), sizes)
    rows, picked = linear_sum_assignment(cost[:, cols], maximize=True)
    return float(cost[rows, cols[picked]].sum())


def reference_block_potentials(cost, sizes):
    """The transport potentials as computed over the n x K cost: a masked
    row maximum and a full stable sort per block. Reference for
    sgm._Transport.potentials."""
    n, K = cost.shape
    u = np.zeros(K)
    if K == 1:
        return u
    for _ in range(TRANSPORT_PASSES):
        for k in range(K):
            reduced = cost - u
            reduced[:, k] = -np.inf
            lead = cost[:, k] - reduced.max(axis=1)
            cut = n - sizes[k]
            low, high = np.sort(lead, kind="stable")[cut - 1 : cut + 1]
            u[k] = 0.5 * (low + high)
    return u


def reference_balance(columns, sizes, labels, u):
    """The successive-shortest-path repair with per-block mover searches
    and a numpy Bellman-Ford over K x K arrays, as solve_transport ran it
    before its repair moved to Python scalars. Reference for sgm._balance:
    labels and u are updated in place."""
    K, n = columns.shape
    rows, cols = np.arange(n), np.arange(K)
    counts = np.bincount(labels, minlength=K)
    while (counts != sizes).any():
        reduced = columns - u[:, None]
        margin = np.maximum(reduced[labels, rows] - reduced, 0.0)
        weight = np.full((K, K), np.inf)
        mover = np.zeros((K, K), dtype=np.intp)
        for a in np.flatnonzero(counts):
            members = np.flatnonzero(labels == a)
            mover[a] = members[np.argmin(margin[:, members], axis=1)]
            weight[a] = margin[cols, mover[a]]
        np.fill_diagonal(weight, np.inf)
        dist = np.where(counts > sizes, 0.0, np.inf)
        pred = np.full(K, -1)
        for _ in range(K - 1):
            through = dist[:, None] + weight
            via = np.argmin(through, axis=0)
            best = through[via, cols]
            shorter = best < dist
            if not shorter.any():
                break
            dist[shorter] = best[shorter]
            pred[shorter] = via[shorter]
        target = int(np.argmin(np.where(counts < sizes, dist, np.inf)))
        b = target
        while pred[b] >= 0:
            a = pred[b]
            labels[mover[a, b]] = b
            counts[a] -= 1
            counts[b] += 1
            b = a
        u -= np.minimum(dist, dist[target])
    return labels


def reference_transport(cost, sizes):
    """The transport labels from the references above: potentials, best
    blocks and balance over the nonempty blocks only, which are the ones
    sgm._Transport solves for."""
    blocks = np.flatnonzero(sizes)
    need, kept = sizes[blocks], cost[:, blocks]
    u = reference_block_potentials(kept, need)
    labels = np.argmax(kept - u, axis=1)
    reference_balance(np.ascontiguousarray(kept.T), need, labels, u)
    return blocks[labels]


def zero_size_blocks(rng):
    K = int(rng.integers(2, 6))
    weights = rng.dirichlet(np.full(K, 0.5))
    weights[rng.integers(K)] = 0.0
    sizes = rng.multinomial(int(rng.integers(1, 40)), weights / weights.sum())
    return sizes, rng.normal(size=(int(sizes.sum()), K))


def one_block(rng):
    # K = 1, or K > 1 with every row in one block
    K = int(rng.integers(1, 4))
    sizes = np.zeros(K, dtype=np.int64)
    sizes[rng.integers(K)] = rng.integers(1, 20)
    return sizes, rng.normal(size=(int(sizes.sum()), K))


def one_row(rng):
    K = int(rng.integers(1, 6))
    sizes = np.zeros(K, dtype=np.int64)
    sizes[rng.integers(K)] = 1
    return sizes, rng.normal(size=(1, K))


def tied_integer_costs(rng):
    K = int(rng.integers(2, 6))
    n = int(rng.integers(K, 40))
    sizes = 1 + rng.multinomial(n - K, np.full(K, 1.0 / K))
    return sizes, rng.integers(0, 3, size=(n, K)).astype(float)


def assert_balance_matches_reference(columns, sizes, u):
    """_balance from the rows' best blocks under u gives the reference's
    labels and bit-identical potentials. Returns the start and the
    balanced labels."""
    start = _best_blocks(columns - u[:, None])
    labels, potentials = start.copy(), u.copy()
    _balance(columns, sizes, labels, potentials)
    want, want_u = start.copy(), u.copy()
    reference_balance(columns, sizes, want, want_u)
    assert np.array_equal(labels, want)
    assert same_bits(potentials, want_u)
    return start, labels


def dense_polish(adjacency, labels, m, L, objective):
    """The polish as an exhaustive search: each block pair's full matrix of
    swap gains, np.argmax within a pair and a strict > across pairs, and
    the rank-one update read from columns of A. Reference for sgm._polish."""
    K = len(L)
    labels = np.array(labels)
    amb = labels[m:]
    A = adjacency[m:]
    F = (A.astype(np.int64) @ np.eye(K, dtype=np.int64)[labels - 1]) @ L
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
                gains = ((F[Ia, c] - F[Ia, a])[:, None] + (F[Ic, a] - F[Ic, c])[None, :]
                         - kappa[a, c] * A[np.ix_(Ia, m + Ic)])
                flat = int(np.argmax(gains))
                if gains.flat[flat] > half:
                    half = gains.flat[flat]
                    pick = (Ia[flat // len(Ic)], Ic[flat % len(Ic)], a, c)
        gain = 2.0 * half
        if pick is None or gain <= 1e-10 * max(1.0, abs(objective)):
            break
        v, w, a, c = pick
        amb[v], amb[w] = c + 1, a + 1
        F += np.subtract(A[:, m + v], A[:, m + w], dtype=float)[:, None] * (L[c] - L[a])
        objective += gain
        swaps.append((int(v), int(w), float(gain)))
    return labels, objective, swaps


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestSolveLap:
    def test_identity_dominant(self):
        cost = np.eye(4) * 10.0
        col, value = solve_lap(cost, maximize=True)
        assert col.tolist() == [0, 1, 2, 3]
        assert value == 40.0

    def test_two_by_two_antidiagonal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        col, value = solve_lap(cost, maximize=True)
        assert col.tolist() == [1, 0]
        assert value == 2.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            cost = rng.normal(size=(n, n))
            for maximize in (False, True):
                col, value = solve_lap(cost, maximize=maximize)
                _, best_val = brute_force_lap(cost, maximize)
                assert value == pytest.approx(best_val, abs=1e-9)

    def test_non_finite_rejected(self):
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ValueError):
            solve_lap(cost)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_lap(np.zeros((2, 3)))


class TestSolveTransport:
    def check(self, cost, sizes):
        labels, value = solve_transport(cost, sizes)
        assert np.bincount(labels, minlength=len(sizes)).tolist() == list(sizes)
        assert value == pytest.approx(cost[np.arange(len(labels)), labels].sum(), abs=1e-12)
        assert value == pytest.approx(transport_reference(cost, sizes), abs=1e-9)
        again, _ = solve_transport(cost.copy(), np.array(sizes))
        assert again.tolist() == labels.tolist()

    def test_random_costs(self, rng):
        for _ in range(300):
            K = int(rng.integers(1, 6))
            n = int(rng.integers(1, 60))
            sizes = rng.multinomial(n, rng.dirichlet(np.ones(K)))
            self.check(rng.normal(size=(n, K)), sizes)

    def test_integer_costs_with_ties(self, rng):
        for _ in range(300):
            K = int(rng.integers(2, 5))
            n = int(rng.integers(1, 40))
            sizes = rng.multinomial(n, np.full(K, 1.0 / K))
            self.check(rng.integers(0, 3, size=(n, K)).astype(float), sizes)
        # every assignment is co-optimal
        self.check(np.zeros((7, 3)), [2, 4, 1])

    def test_zero_size_blocks(self, rng):
        for sizes in ([0, 3, 2], [3, 0, 2], [3, 2, 0], [0, 0, 5], [0, 4, 0, 1]):
            cost = rng.normal(size=(sum(sizes), len(sizes)))
            # the empty blocks must stay empty however attractive they are
            cost[:, np.flatnonzero(np.array(sizes) == 0)] += 100.0
            self.check(cost, sizes)

    def test_one_and_two_blocks(self, rng):
        labels, value = solve_transport(np.array([[1.0], [2.0], [3.0]]), [3])
        assert labels.tolist() == [0, 0, 0] and value == 6.0
        labels, value = solve_transport(np.array([[0.0, 1.0], [0.0, 5.0], [0.0, 2.0]]), [2, 1])
        assert labels.tolist() == [0, 1, 0] and value == 5.0
        for _ in range(100):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(0, n + 1))
            self.check(rng.normal(size=(n, 2)), [s, n - s])

    @pytest.mark.parametrize("integer", [False, True])
    def test_potentials_match_dense_reference(self, rng, integer):
        # integer costs put ties at the threshold and in every row maximum
        for _ in range(300):
            K = int(rng.integers(1, 6))
            n = int(rng.integers(K, 60))
            sizes = 1 + rng.multinomial(n - K, np.full(K, 1.0 / K))
            cost = (rng.integers(0, 3, size=(n, K)).astype(float) if integer
                    else rng.normal(size=(n, K)))
            columns = np.ascontiguousarray(cost.T)
            u = _Transport(sizes).potentials(columns)
            assert same_bits(u, reference_block_potentials(cost, sizes))
            assert np.array_equal(_best_blocks(columns - u[:, None]),
                                  np.argmax(cost - u, axis=1))

    @pytest.mark.parametrize("draw", [zero_size_blocks, one_block, one_row,
                                      tied_integer_costs], ids=lambda f: f.__name__)
    def test_solver_matches_references_on_edge_cases(self, rng, draw):
        # one solver per size vector, reused across costs as sgm_match
        # reuses it across its Frank-Wolfe steps
        for _ in range(100):
            sizes, base = draw(rng)
            solver = _Transport(sizes)
            for cost in (base, -base, np.zeros_like(base), base):
                labels = solver(cost)
                assert np.array_equal(labels, reference_transport(cost, sizes))
                assert np.bincount(labels, minlength=len(sizes)).tolist() == sizes.tolist()

    def test_balance_matches_reference_on_integer_ties(self, rng):
        # integer costs tie rows' margins, path lengths and block distances
        for _ in range(300):
            K = int(rng.integers(2, 6))
            n = int(rng.integers(K, 61))
            sizes = 1 + rng.multinomial(n - K, np.full(K, 1.0 / K))
            columns = rng.integers(0, 3, size=(K, n)).astype(float)
            assert_balance_matches_reference(columns, sizes,
                                             _Transport(sizes).potentials(columns))

    def test_balance_multi_hop_path(self):
        # Block 0 holds two rows and block 2 none. Moving a row straight
        # from 0 to 2 loses 15; moving row 1 to block 1 and row 2 on to
        # block 2 loses 1.5, so the shortest path has two edges.
        columns = np.ascontiguousarray(np.array(
            [[5.0, 4.0, -10.0], [5.0, 4.5, -10.0], [0.0, 5.0, 4.0]]).T)
        start, labels = assert_balance_matches_reference(
            columns, np.array([1, 1, 1]), np.zeros(3))
        assert start.tolist() == [0, 0, 1] and labels.tolist() == [0, 1, 2]

    def test_balance_matches_reference_on_multi_hop_paths(self, rng):
        # Rows prefer low blocks and the sizes ask for high ones, with a
        # loss growing with the square of the distance moved, so excess
        # travels block by block. A row leaving a block that was not
        # over-full marks a path of two or more edges.
        multi_hop = 0
        for _ in range(200):
            K = int(rng.integers(3, 6))
            n = int(rng.integers(K, 40))
            prefer = rng.integers(0, K, size=n) // 2
            columns = (-(np.arange(K)[:, None] - prefer[None, :]) ** 2
                       + rng.integers(0, 2, size=(K, n))).astype(float)
            sizes = 1 + rng.multinomial(n - K, np.arange(1, K + 1) / (K * (K + 1) / 2))
            start, labels = assert_balance_matches_reference(columns, sizes, np.zeros(K))
            full = np.bincount(start, minlength=K) <= sizes
            multi_hop += bool((full[start] & (labels != start)).any())
        assert multi_hop >= 20

    def test_balance_matches_reference_on_long_tie_runs(self, rng):
        # Two blocks, rows tied between them in the hundreds and sizes
        # asking for hundreds of them to move: runs of zero-loss rows
        # interleave with paths of positive length that lower u.
        for _ in range(20):
            n = int(rng.integers(300, 600))
            columns = rng.integers(0, 3, size=(2, n)).astype(float)
            start = np.bincount(_best_blocks(columns), minlength=2)
            excess = int(rng.integers(100, start[0] + 1))
            sizes = np.array([start[0] - excess, start[1] + excess])
            _, labels = assert_balance_matches_reference(columns, sizes, np.zeros(2))
            assert np.bincount(labels, minlength=2).tolist() == sizes.tolist()
        # every row ties: all but the last row move, in index order
        n = 500
        _, labels = assert_balance_matches_reference(np.zeros((2, n)), np.array([1, n - 1]),
                                                     np.zeros(2))
        assert labels.tolist() == [1] * (n - 1) + [0]

    def test_balance_matches_reference_with_one_or_several_unbalanced_pairs(self, rng):
        # Starts with one over-full and one under-full block balance by
        # runs of tied rows; starts with several of either take the
        # one-unit rounds. Both must give the reference's labels and u.
        one_pair = several = 0
        for i in range(200):
            K = int(rng.integers(3, 6))
            n = int(rng.integers(2 * K, 80))
            columns = rng.integers(0, 3, size=(K, n)).astype(float)
            u = rng.integers(-1, 2, size=K).astype(float)
            start = np.bincount(_best_blocks(columns - u[:, None]), minlength=K)
            if i % 2 and start.max() > 0:
                # move some of a nonempty block's excess to one other block
                a = int(rng.choice(np.flatnonzero(start)))
                b = int(rng.choice([k for k in range(K) if k != a]))
                sizes = start.copy()
                moved = int(rng.integers(1, start[a] + 1))
                sizes[a] -= moved
                sizes[b] += moved
            else:
                sizes = rng.multinomial(n, np.full(K, 1.0 / K))
            _, labels = assert_balance_matches_reference(columns, sizes, u)
            assert np.bincount(labels, minlength=K).tolist() == sizes.tolist()
            over, under = (start > sizes).sum(), (start < sizes).sum()
            one_pair += bool(over == 1 and under == 1)
            several += bool(over > 1 or under > 1)
        assert one_pair >= 20 and several >= 20

    def test_balance_moves_a_tie_run_in_one_pass(self, monkeypatch):
        # 500 rows prefer block 0, 2,000 tie and 500 prefer block 1; from
        # the first-on-ties start block 0 holds 1,500 rows too many. The
        # one-unit rounds took one masked (K, K, n) np.where per row moved.
        prefer = np.repeat([0, 2, 1], [500, 2000, 500])
        columns = np.stack([(prefer != 1), (prefer != 0)]).astype(float)
        sizes = np.array([1000, 2000])
        labels, u = _best_blocks(columns), np.zeros(2)
        passes = []
        where = np.where

        def counted(*args):
            passes.append(len(args))
            return where(*args)

        monkeypatch.setattr(np, "where", counted)
        _balance(columns, sizes, labels, u)
        monkeypatch.undo()
        assert len(passes) <= 1
        want = np.repeat([0, 1, 0, 1], [500, 1500, 500, 500])
        assert np.array_equal(labels, want) and same_bits(u, np.zeros(2))

    def test_frank_wolfe_core_calls_match_solve_transport(self, monkeypatch):
        # Frank-Wolfe's steps and the projection share one solver per
        # match and skip solve_transport's checks and value; on their own
        # inputs a fresh solver returns the same labels.
        calls = []
        core = sgm._Transport.__call__

        def recorded(solver, cost):
            labels = core(solver, cost)
            calls.append((cost.copy(), labels.copy()))
            return labels

        monkeypatch.setattr(sgm._Transport, "__call__", recorded)
        _, model, graphs = replicate_graphs("medium", 20)
        for graph in graphs[:2]:
            sgm_match(graph, model.log_odds(), model.n_sizes, restarts=2)
        monkeypatch.undo()
        assert len(calls) > 10
        for cost, labels in calls:
            assert np.array_equal(solve_transport(cost, model.n_sizes)[0], labels)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            solve_transport(np.zeros((3, 2)), [1, 1])
        with pytest.raises(ValueError):
            solve_transport(np.zeros((3, 2)), [4, -1])
        with pytest.raises(ValueError):
            solve_transport(np.zeros((3, 2)), [3])
        with pytest.raises(ValueError):
            solve_transport(np.array([[0.0, np.nan]]), [1, 0])


class TestLogOdds:
    def test_entries(self):
        lam = np.array([[0.5, 0.8], [0.8, 1.0]])
        model = BlockModel(m_sizes=(1, 1), n_sizes=(1, 1), lam=lam)
        L = model.log_odds()
        assert L[0, 0] == 0.0
        assert L[0, 1] == pytest.approx(math.log(4))
        eps = 1e-6
        assert L[1, 1] == pytest.approx(math.log((1 - eps) / eps))
        assert L[1, 1] == pytest.approx(13.815509, abs=1e-5)

    def test_labels_keep_seeds_and_sizes(self, rng):
        # block 3 has no seeds; the seeds keep their labels and the
        # ambiguous vertices fill the blocks to n_sizes
        lam = np.full((3, 3), 0.5)
        model = BlockModel(m_sizes=(1, 1, 0), n_sizes=(2, 1, 1), lam=lam)
        graph = sample_sbm(model, contiguous_assignment(model), 3)
        result = sgm_match(graph, model.log_odds(), model.n_sizes)
        assert result.labels[:2].tolist() == [1, 2]
        assert np.bincount(result.labels[2:], minlength=4)[1:].tolist() == [2, 1, 1]

    def test_symmetric(self):
        lam = np.array([[0.3, 0.6], [0.6, 0.9]])
        model = BlockModel(m_sizes=(2, 1), n_sizes=(2, 2), lam=lam)
        L = model.log_odds()
        assert np.allclose(L, L.T)


def flat_objective_nxn(Q, adjacency, L, slot_labels, m):
    """The n x n relaxation <A, P B P^T> at P = diag(I, Q), with the
    matching's log-odds matrix B built explicitly from slot labels."""
    N = len(adjacency)
    lab = slot_labels - 1
    B = L[np.ix_(lab, lab)]
    P = np.zeros((N, N))
    P[:m, :m] = np.eye(m)
    P[m:, m:] = Q
    return float(np.sum(adjacency * (P @ B @ P.T)))


def gradient_nxn(Q, adjacency, L, slot_labels, m):
    lab = slot_labels - 1
    A = adjacency.astype(float)
    B = L[np.ix_(lab, lab)]
    linear = A[m:, :m] @ B[m:, :m].T + A[:m, m:].T @ B[:m, m:]
    A22, B22 = A[m:, m:], B[m:, m:]
    return linear + A22 @ Q @ B22.T + A22.T @ Q @ B22


def random_doubly_stochastic(rng, n, terms=6):
    weights = rng.dirichlet(np.ones(terms))
    return sum(w * np.eye(n)[rng.permutation(n)] for w in weights)


class TestSgmMatch:
    def test_single_ambiguous_vertex(self, rng):
        graph = random_graph(rng, 3, seed_labels=[1, 2])
        result = sgm_match(graph, random_logodds(rng, 2), (0, 1))
        assert result.labels.tolist() == [1, 2, 2]

    def test_attains_exhaustive_maximum(self, rng):
        # small generic instances: restarts and the polish reach the
        # global maximum of <A, H L H^T>
        for _ in range(10):
            graph, L, n_sizes = random_problem(rng, max_n=7)
            result = sgm_match(graph, L, n_sizes, restarts=10, rng_seed=1)
            best = exhaustive_maximum(graph, L, n_sizes)
            assert result.objective == pytest.approx(best, abs=1e-8)
            assert objective(graph.adjacency, L, result.labels) == pytest.approx(best, abs=1e-8)

    def test_monotone_relaxed_objective(self, rng):
        for _ in range(20):
            graph, L, n_sizes = random_problem(rng, max_n=9)
            result = sgm_match(graph, L, n_sizes)
            hist = result.relaxed_objectives
            for prev, nxt in zip(hist, hist[1:]):
                assert nxt >= prev - 1e-8 * max(1.0, abs(prev))

    def test_gradient_matches_finite_differences(self, rng):
        # central finite differences of the relaxed objective at a random
        # interior point of the transportation polytope
        graph, L = random_graph(rng, 10, seed_labels=[1, 3]), random_logodds(rng, 3)
        const, C, _ = _relaxation(graph.packed, L, graph.seed_labels)
        A22 = graph.adjacency[2:, 2:].astype(float)
        Y = random_doubly_stochastic(rng, 8) @ np.eye(3)[[0, 0, 0, 1, 1, 2, 2, 2]]
        grad = _gradient(A22 @ Y, C, L.T + L)
        h = 1e-5
        for _ in range(10):
            i, k = rng.integers(8), rng.integers(3)
            Yp, Ym = Y.copy(), Y.copy()
            Yp[i, k] += h
            Ym[i, k] -= h
            fd = (_objective(Yp, A22 @ Yp @ L.T, const, C)
                  - _objective(Ym, A22 @ Ym @ L.T, const, C)) / (2 * h)
            assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_block_form_equals_nxn_relaxation(self, rng):
        # f(Q S) and grad f(Q S) S^T reproduce the n x n objective and
        # gradient at any doubly stochastic Q
        for _ in range(20):
            graph, L, n_sizes = random_problem(rng, max_n=9, max_m=4)
            adjacency, seed_labels = graph.adjacency, graph.seed_labels
            m, K = len(seed_labels), len(L)
            slots = np.repeat(np.arange(1, K + 1), n_sizes)
            S = np.eye(K)[slots - 1]
            Q = random_doubly_stochastic(rng, len(slots))
            Y = Q @ S
            const, C, _ = _relaxation(graph.packed, L, seed_labels)
            AY = adjacency[m:, m:].astype(float) @ Y
            labels = np.concatenate([seed_labels, slots]).astype(int)
            assert _objective(Y, AY @ L.T, const, C) == pytest.approx(
                flat_objective_nxn(Q, adjacency, L, labels, m), abs=1e-9)
            np.testing.assert_allclose(
                _gradient(AY, C, L.T + L) @ S.T, gradient_nxn(Q, adjacency, L, labels, m),
                rtol=0, atol=1e-9)

    def test_objective_at_least_flat_projection(self, rng):
        # the returned labels must beat (or tie) projecting the flat start
        # directly
        for _ in range(10):
            graph, L, n_sizes = random_problem(rng, max_n=11, max_m=2)
            n = int(n_sizes.sum())
            flat = np.tile(n_sizes / n, (n, 1))
            base, _ = solve_transport(flat, n_sizes)
            base_labels = np.concatenate([graph.seed_labels, base + 1])
            result = sgm_match(graph, L, n_sizes)
            assert result.objective >= objective(graph.adjacency, L, base_labels) - 1e-9

    def test_dimension_mismatch_rejected(self):
        graph = LabeledGraph(np.zeros((3, 3), dtype=bool), [1])
        with pytest.raises(ValueError):
            sgm_match(graph, np.zeros((2, 2)), (1, 2))
        with pytest.raises(ValueError):
            sgm_match(graph, np.zeros((2, 2)), (2,))


class TestPolish:
    def test_gains_are_twice_log_likelihood_differences(self, rng):
        made = 0
        for _ in range(20):
            K = int(rng.integers(2, 4))
            n_sizes = tuple(int(x) for x in rng.integers(1, 5, size=K))
            m_sizes = tuple(int(x) for x in rng.integers(0, 3, size=K))
            raw = rng.uniform(0.05, 0.95, size=(K, K))
            model = BlockModel(m_sizes=m_sizes, n_sizes=n_sizes, lam=(raw + raw.T) / 2)
            graph = sample_sbm(model, contiguous_assignment(model), int(rng.integers(2**32)))
            start = np.concatenate(
                [graph.seed_labels, rng.permutation(np.repeat(np.arange(1, K + 1), n_sizes))]
            )
            L = model.log_odds()
            counts = block_edge_counts(graph.packed[model.m:], start, K)
            A22 = graph.adjacency[model.m:, model.m:].astype(float)
            labels, value, swaps = _polish(A22, start, model.m, L,
                                           objective(graph.adjacency, L, start), counts)
            assert value == pytest.approx(objective(graph.adjacency, L, labels), abs=1e-9)
            current = start.copy()
            for v, w, gain in swaps:
                before = log_likelihood(graph, BlockAssignment(current.copy()), model)
                i, j = model.m + v, model.m + w
                current[i], current[j] = current[j], current[i]
                after = log_likelihood(graph, BlockAssignment(current.copy()), model)
                assert gain == pytest.approx(2 * (after - before), abs=1e-9)
            assert current.tolist() == labels.tolist()
            made += len(swaps)
        assert made > 0


def polish_problem(rng, n_sizes, integer):
    """A random graph, log-odds matrix and shuffled start labels with the
    given ambiguous block sizes and up to 2 seeds per block. Integer-valued
    log-odds give integer F, so swap gains tie."""
    K = len(n_sizes)
    m_sizes = rng.integers(0, 3, size=K)
    seed_labels = np.repeat(np.arange(1, K + 1), m_sizes)
    N = len(seed_labels) + sum(n_sizes)
    L = (rng.integers(-3, 4, size=(K, K)).astype(float) if integer
         else rng.normal(size=(K, K)))
    L = np.triu(L) + np.triu(L, 1).T
    start = np.concatenate(
        [seed_labels, rng.permutation(np.repeat(np.arange(1, K + 1), n_sizes))])
    graph = random_graph(rng, N, p=float(rng.uniform(0.1, 0.9)))
    return graph.adjacency, L, start, len(seed_labels)


class TestPolishSearch:
    def assert_same_as_dense(self, adjacency, start, m, L):
        value = objective(adjacency, L, start)
        counts = block_edge_counts(np.packbits(adjacency[m:], axis=1), start, len(L))
        A22 = adjacency[m:, m:].astype(float)
        labels, final, swaps = _polish(A22, start, m, L, value, counts)
        want_labels, want_final, want_swaps = dense_polish(adjacency, start, m, L, value)
        assert swaps == want_swaps
        assert final == want_final
        assert labels.tolist() == want_labels.tolist()
        return swaps

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_dense_search(self, K, integer):
        rng = np.random.default_rng(100 * K + integer)
        swaps, kappa_signs = 0, set()
        for _ in range(40):
            n_sizes = 1 + rng.multinomial(int(rng.integers(0, 30)), np.full(K, 1.0 / K))
            adjacency, L, start, m = polish_problem(rng, n_sizes, integer)
            kappa = L.diagonal()[:, None] + L.diagonal()[None, :] - 2.0 * L
            kappa_signs |= set(np.sign(kappa[np.triu_indices(K, 1)]).tolist())
            swaps += len(self.assert_same_as_dense(adjacency, start, m, L))
        assert swaps > 40
        assert {-1.0, 1.0} <= kappa_signs

    def test_integer_gains_tie(self):
        # On the complete graph all vertices of a block have the same F, so
        # all gains of a block pair tie and the first row-major swap must
        # win; with L = I the gains are small integers that tie widely.
        rng = np.random.default_rng(7)
        swaps = 0
        for _ in range(20):
            n_sizes = rng.integers(2, 6, size=3)
            adjacency, L, start, m = polish_problem(rng, n_sizes, integer=True)
            complete = ~np.eye(len(adjacency), dtype=bool)
            swaps += len(self.assert_same_as_dense(complete, start, m, L))
            swaps += len(self.assert_same_as_dense(adjacency, start, m, np.eye(3)))
        assert swaps > 20

    def test_empty_block(self):
        rng = np.random.default_rng(11)
        swaps = 0
        for sizes in ([0, 6, 5], [6, 0, 5], [6, 5, 0], [0, 0, 9], [4, 0, 5, 0, 3]):
            for integer in (False, True):
                for _ in range(5):
                    adjacency, L, start, m = polish_problem(rng, np.array(sizes), integer)
                    swaps += len(self.assert_same_as_dense(adjacency, start, m, L))
        assert swaps > 0

    def test_matches_dense_search_on_medium_replicates(self, monkeypatch):
        # the polish of every replicate of configs/medium.json as the
        # likelihood scheme runs it
        config, model, graphs = replicate_graphs("medium", 20)
        hyper = config.hyper
        made, current = [], {}

        def both(A22, labels, m, L, value, counts):
            # the matcher's A22 and counts are the graph's, and the polish
            # agrees with the dense search that recounts
            graph = current["graph"]
            assert same_bits(A22, graph.adjacency[m:, m:].astype(float))
            assert np.array_equal(counts, block_edge_counts(graph.packed[m:], labels, len(L)))
            got = _polish(A22, labels, m, L, value, counts)
            want = dense_polish(graph.adjacency, labels, m, L, value)
            assert got[2] == want[2] and got[1] == want[1]
            assert got[0].tolist() == want[0].tolist()
            made.extend(got[2])
            return got

        monkeypatch.setattr(sgm, "_polish", both)
        for replicate, graph in enumerate(graphs):
            current["graph"] = graph
            sgm_match(graph, model.log_odds(hyper.eps), model.n_sizes,
                      max_iter=hyper.sgm_max_iter, tol=hyper.sgm_tol,
                      restarts=hyper.sgm_restarts,
                      rng_seed=harness._replicate_seed(config.master_seed, replicate, 1))
        assert len(made) > 0
