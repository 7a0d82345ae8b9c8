"""Output checks, run after the timed loop.

Each check compares the program's output with a computation written here
(brute-force sums, direct pair sums, the definition of average precision)
or with a property the method must have. None compares with a stored copy
of earlier output. Thresholds on a MAP are one-sided tests at the run's
replicate count: a run passes unless its MAP lies more than three
standard errors below the threshold.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np

# Paper values of the small-scale experiment (tests/test_acceptance.py).
PAPER_SMALL_MAP = {"canonical": 0.6958, "likelihood": 0.6725, "spectral": 0.3993}
# Allowance for the paper values' own Monte-Carlo error, the tolerance the
# acceptance test gives them at 2000 replicates.
PAPER_TOLERANCE = 0.03
MAP_FLOORS = {
    "medium-lik": {"likelihood": 0.90, "spectral": 0.65},
    "large-spec": {"spectral": 0.95},
}


class Report:
    """Named pass/fail results with a short detail each."""

    def __init__(self):
        self.items = []

    def add(self, name, passed, detail):
        self.items.append({"check": name, "passed": bool(passed), "detail": detail})

    @property
    def passed(self):
        return all(item["passed"] for item in self.items)


def _logsumexp(x):
    top = np.max(x)
    return float(top + np.log(np.sum(np.exp(x - top))))


def _log_terms(lam, eps):
    lam = np.clip(np.asarray(lam, dtype=float), eps, 1.0 - eps)
    return np.log(lam), np.log1p(-lam)


def alpha_weights(n, n1):
    """alpha_i = (1/n1) * sum_{j=i}^{n1} 1/j for i <= n1, else 0."""
    alpha = np.zeros(n)
    alpha[:n1] = np.cumsum(1.0 / np.arange(n1, 0, -1))[::-1] / n1
    return alpha


def check_map_identity(report, result):
    for scheme, outcome in result.schemes.items():
        weighted = float(alpha_weights(result.n, result.n1) @ outcome.curve)
        report.add(f"map_identity.{scheme}", abs(weighted - outcome.map) <= 1e-12,
                   f"map {outcome.map!r}, alpha-weighted curve {weighted!r}")


def check_rounds_repeat(report, rounds):
    """Rounds repeat the same replicates, so their MAPs must be equal."""
    maps = [[{s: o.map for s, o in r.schemes.items()} for r in results] for results in rounds]
    report.add("rounds_repeat", all(m == maps[0] for m in maps),
               f"{len(rounds)} rounds")


def _floor(report, result, scheme, floor):
    outcome = result.schemes[scheme]
    report.add(f"map_floor.{scheme}", outcome.map + 3 * outcome.se >= floor,
               f"map {outcome.map:.4f} (se {outcome.se:.4f}) against {floor}")


def _labelings(n_sizes):
    """Every 0-based block labeling of n = sum(n_sizes) vertices with the
    given block sizes, by choosing each block's members in turn."""
    n = sum(n_sizes)

    def rec(free, k):
        if k == len(n_sizes):
            yield ()
            return
        for members in itertools.combinations(free, n_sizes[k]):
            rest = tuple(v for v in free if v not in members)
            for tail in rec(rest, k + 1):
                yield ((k, members),) + tail

    for choice in rec(tuple(range(n)), 0):
        labels = np.empty(n, dtype=np.intp)
        for k, members in choice:
            labels[list(members)] = k
        yield labels


def brute_block1_probability(graph, model, eps):
    """P[b(v) = 1 | G] for each ambiguous vertex by summing the complete
    likelihood of every labeling over all vertex pairs."""
    log_lam, log_1m = _log_terms(model.lam, eps)
    seed = np.asarray(graph.seed_labels) - 1
    full = np.array([np.concatenate([seed, lab]) for lab in _labelings(model.n_sizes)])
    iu, ju = np.triu_indices(graph.num_vertices, k=1)
    edge = graph.adjacency[iu, ju]
    bi, bj = full[:, iu], full[:, ju]
    logw = np.where(edge[None, :], log_lam[bi, bj], log_1m[bi, bj]).sum(axis=1)
    total = _logsumexp(logw)
    m = graph.seed_count
    prob = np.array([math.exp(_logsumexp(logw[full[:, m + v] == 0]) - total)
                     for v in range(model.n)])
    return prob, len(full)


def check_small(report, result, captured, eps, statistical):
    from vnom.canonical import conditional_block1_probability

    worst, count = 0.0, 0
    for call in captured["canonical"]:
        graph, model = call["args"][:2]
        expected, count = brute_block1_probability(graph, model, eps)
        got = conditional_block1_probability(graph, model, eps=eps).prob
        worst = max(worst, float(np.max(np.abs(got - expected))))
    report.add("canonical_brute_force", worst <= 1e-9 and count > 0,
               f"{len(captured['canonical'])} graphs, {count} partitions each, "
               f"max |diff| {worst:.2e}")
    if not statistical:
        return
    canonical = result.schemes["canonical"]
    for other in ("likelihood", "spectral"):
        o = result.schemes[other]
        slack = 2 * math.hypot(canonical.se, o.se)
        report.add(f"bayes_optimal.{other}", canonical.map >= o.map - slack,
                   f"canonical {canonical.map:.4f} vs {other} {o.map:.4f}, 2 se {slack:.4f}")
    for scheme, target in PAPER_SMALL_MAP.items():
        o = result.schemes[scheme]
        tol = PAPER_TOLERANCE + 3 * o.se
        report.add(f"paper_map.{scheme}", abs(o.map - target) <= tol,
                   f"map {o.map:.4f} (se {o.se:.4f}) vs paper {target}, tol {tol:.4f}")


def direct_log_likelihood(adjacency, labels0, log_lam, log_1m):
    """log p(b, G) as a direct sum over all vertex pairs."""
    iu, ju = np.triu_indices(len(labels0), k=1)
    bi, bj = labels0[iu], labels0[ju]
    return float(np.sum(np.where(adjacency[iu, ju], log_lam[bi, bj], log_1m[bi, bj])))


def swap_log_ratios(adjacency, labels0, m, log_lam, log_1m):
    """log p(b with v, v' swapped) - log p(b) for every ambiguous v in
    block 1 (rows) and ambiguous v' outside it (columns), from per-vertex
    block edge counts."""
    K = log_lam.shape[0]
    onehot = np.eye(K)[labels0]
    edges = adjacency.astype(float) @ onehot
    nonedges = onehot.sum(axis=0)[None, :] - onehot - edges
    # score[u, k]: log-weight of u's pairs if u were in block k
    score = edges @ log_lam.T + nonedges @ log_1m.T
    amb = np.arange(m, len(labels0))
    rows = amb[labels0[amb] == 0]
    cols = amb[labels0[amb] != 0]
    k2 = labels0[cols]
    delta = (score[rows][:, k2] - score[rows, 0][:, None]
             + (score[cols, 0] - score[cols, k2])[None, :])
    # the (v, v') pair: its term counted in both vertex sums was never changed
    edge = adjacency[np.ix_(rows, cols)]
    on = log_lam[k2, k2] + log_lam[0, 0] - 2 * log_lam[0, k2]
    off = log_1m[k2, k2] + log_1m[0, 0] - 2 * log_1m[0, k2]
    return rows, cols, delta - np.where(edge, on[None, :], off[None, :])


def check_medium(report, captured, eps, seed):
    from vnom.likelihood import swap_log_ratio

    call = captured["bhat"][0]
    (graph, model), bhat = call["args"][:2], call["result"]
    log_lam, log_1m = _log_terms(model.lam, eps)
    labels0 = np.asarray(bhat.labels) - 1
    A = np.asarray(graph.adjacency)
    rows, cols, delta = swap_log_ratios(A, labels0, graph.seed_count, log_lam, log_1m)
    base = direct_log_likelihood(A, labels0, log_lam, log_1m)
    tol = 1e-9 + 1e-12 * abs(base)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC4EC)))
    worst_vec, worst_prog = 0.0, 0.0
    for _ in range(8):
        i, j = int(rng.integers(len(rows))), int(rng.integers(len(cols)))
        v, vp = rows[i], cols[j]
        swapped = labels0.copy()
        swapped[v], swapped[vp] = labels0[vp], labels0[v]
        direct = direct_log_likelihood(A, swapped, log_lam, log_1m) - base
        worst_vec = max(worst_vec, abs(delta[i, j] - direct))
        worst_prog = max(worst_prog, abs(swap_log_ratio(graph, bhat, model, v, vp, eps=eps) - direct))
    report.add("swap_vectorised_vs_direct", worst_vec <= tol,
               f"8 sampled swaps, max |diff| {worst_vec:.2e} (tol {tol:.1e})")
    report.add("swap_log_ratio_vs_direct", worst_prog <= tol,
               f"8 sampled swaps, max |diff| {worst_prog:.2e} (tol {tol:.1e})")
    best = float(delta.max())
    report.add("bhat_swap_optimal", best <= 1e-9 * max(1.0, abs(base)),
               f"largest block-1 swap log-ratio {best:.4g} over {delta.size} swaps")


def check_large(report, captured):
    """Eigenpair residuals of the embedding of the loop's last graph."""
    call = captured["embed"][0]
    A = call["args"][0].adjacency
    emb = call["result"]
    V = emb.X / np.linalg.norm(emb.X, axis=0)
    AV = np.empty_like(V)
    for start in range(0, len(V), 1024):
        AV[start:start + 1024] = A[start:start + 1024].astype(np.float64) @ V
    resid = np.linalg.norm(AV - V * emb.eigenvalues, axis=0) / np.abs(emb.eigenvalues)
    report.add("eigen_residual", bool(np.all(resid <= 1e-6)),
               f"N={len(V)}, relative residuals {[float(f'{r:.2e}') for r in resid]}")


def _pooled(outcomes, replicates):
    """Mean and standard error of all replicates of several equal-sized
    harness results, from each result's mean and standard error."""
    means = np.array([o.map for o in outcomes])
    within = sum((replicates - 1) * replicates * o.se ** 2 for o in outcomes)
    between = replicates * float(np.sum((means - means.mean()) ** 2))
    total = replicates * len(outcomes)
    return float(means.mean()), math.sqrt((within + between) / (total - 1) / total)


def check_realdata(report, results, workload, replicates, statistical):
    seeds = workload.seed_counts
    for g, (result, labels) in enumerate(zip(results, workload.labels)):
        n = len(labels) - sum(seeds)
        n1 = int(np.sum(labels == 1)) - seeds[0]
        report.add(f"chance.graph{g}", result.chance == n1 / n,
                   f"chance {result.chance!r}, n1/n {n1 / n!r}")
    if not statistical:
        return
    mean, se = _pooled([r.schemes["likelihood"] for r in results], replicates)
    chance = statistics.fmean(r.chance for r in results)
    report.add("likelihood_beats_chance", mean - chance >= 3 * se,
               f"map {mean:.4f} (se {se:.4f}) over {len(results)} graphs vs chance {chance:.4f}")


def run_all(workload, rounds, captured, eps, seed, statistical):
    """Every check of the workload; statistical=False skips the MAP
    thresholds, which toy-size inputs cannot meet."""
    report = Report()
    if not rounds:
        report.add("rounds", False, "no round finished")
        return report
    results = rounds[0]
    for result in results:
        check_map_identity(report, result)
    check_rounds_repeat(report, rounds)
    result = results[0]
    if workload.name == "small-mc":
        check_small(report, result, captured, eps, statistical)
    elif workload.name == "medium-lik":
        check_medium(report, captured, eps, seed)
    elif workload.name == "large-spec":
        check_large(report, captured)
    else:
        check_realdata(report, results, workload, workload.configs[0]["replicates"],
                       statistical)
    if statistical:
        for scheme, floor in MAP_FLOORS.get(workload.name, {}).items():
            _floor(report, result, scheme, floor)
    return report
