"""End-to-end acceptance suite.

One test per acceptance criterion, each at its stated tolerance:

1. small-scale three-scheme MAP reproduction (2000 replicates)
2. canonical-scheme optimality ordering within Monte-Carlo error
3. medium-scale likelihood/spectral lower bounds (20 replicates)
4. large-scale spectral lower bound (5 replicates)
5. canonical probabilities vs a rational brute-force oracle
6. graph-matching ascent quality vs an exhaustive assignment oracle
7. average precision as an alpha-weighted indicator sum
8. byte-identical outputs across worker counts and BLAS thread counts
9. no scheme beats chance under a constant connectivity matrix
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import BASE_LAMBDA, random_instance
from vnom.canonical import conditional_block1_probability, enumerate_partitions
from vnom.core import (
    BlockAssignment,
    BlockModel,
    clamp_probabilities,
    contiguous_assignment,
    log_likelihood,
    mix_lambda,
    sample_sbm,
)
from vnom.harness import emit_results, load_config, parse_config, run_simulation
from vnom.metrics import NominationList, alpha_weights, average_precision
from vnom.sgm import sgm_match, solve_transport

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


@pytest.fixture(scope="module")
def small_run():
    config = load_config(CONFIG_DIR / "small.json")
    start = time.perf_counter()
    result = run_simulation(config)
    return result, time.perf_counter() - start


def test_small_scale_map_reproduction(small_run):
    result, elapsed = small_run
    assert result.replicates == 2000
    assert result.chance == pytest.approx(0.4, abs=0)
    targets = {"canonical": 0.6958, "likelihood": 0.6725, "spectral": 0.3993}
    for scheme, target in targets.items():
        assert result.schemes[scheme].map == pytest.approx(target, abs=0.03), scheme
    assert elapsed <= 45 * 60


def test_optimality_ordering(small_run):
    # the exact scheme cannot do worse than either competitor beyond
    # Monte-Carlo noise
    result, _ = small_run
    canonical = result.schemes["canonical"]
    for other in ("likelihood", "spectral"):
        competitor = result.schemes[other]
        combined_se = math.hypot(canonical.se, competitor.se)
        assert canonical.map >= competitor.map - 2 * combined_se, other


def test_medium_scale_spot_check():
    config = load_config(CONFIG_DIR / "medium.json")
    start = time.perf_counter()
    result = run_simulation(config)
    elapsed = time.perf_counter() - start
    assert result.replicates == 20
    assert result.schemes["likelihood"].map >= 0.90
    assert result.schemes["spectral"].map >= 0.65
    assert elapsed <= 3 * 3600


def test_large_scale_spectral():
    config = load_config(CONFIG_DIR / "large.json")
    start = time.perf_counter()
    result = run_simulation(config)
    elapsed = time.perf_counter() - start
    assert result.replicates == 5
    assert result.schemes["spectral"].map >= 0.95
    assert elapsed <= 20 * 60


def rational_oracle(graph, model):
    """Exact conditional block-1 probabilities over all partitions using
    rational arithmetic on the clamped connectivity entries."""
    m, n = model.m, model.n
    lam = clamp_probabilities(model.lam)
    lam_frac = np.empty(lam.shape, dtype=object)
    for k in range(model.K):
        for l in range(model.K):
            lam_frac[k, l] = Fraction(lam[k, l])
    total = Fraction(0)
    numer = [Fraction(0)] * n
    for part in enumerate_partitions(model.n_sizes):
        labels = np.concatenate([graph.seed_labels, part]) - 1
        weight = Fraction(1)
        for i in range(m + n):
            for j in range(i + 1, m + n):
                p = lam_frac[labels[i], labels[j]]
                weight *= p if graph.adjacency[i, j] else 1 - p
        total += weight
        for v in range(n):
            if part[v] == 1:
                numer[v] += weight
    return np.array([float(nu / total) for nu in numer])


def test_canonical_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        graph, model = random_instance(rng, max_n=4, max_k=3)
        scores = conditional_block1_probability(graph, model)
        oracle = rational_oracle(graph, model)
        assert np.allclose(scores.prob, oracle, atol=1e-12, rtol=0)
        assert scores.prob.sum() == pytest.approx(model.n_sizes[0], abs=1e-9)


def partition_log_likelihoods(graph, model, partitions):
    """log p(b, G) for every row of a partition matrix, in one pass: a
    direct sum over all vertex pairs of log Lambda or log(1 - Lambda)."""
    lam = clamp_probabilities(model.lam)
    labels0 = np.concatenate(
        [np.broadcast_to(graph.seed_labels, (len(partitions), model.m)), partitions], axis=1
    ) - 1
    iu, ju = np.triu_indices(model.num_vertices, k=1)
    table = np.where(graph.adjacency[iu, ju], np.log(lam)[..., None], np.log1p(-lam)[..., None])
    return table[labels0[:, iu], labels0[:, ju], np.arange(len(iu))].sum(axis=1)


def test_sgm_quality():
    model = BlockModel(m_sizes=(4, 0, 0), n_sizes=(4, 3, 3), lam=BASE_LAMBDA)
    partitions = np.array([p.copy() for p in enumerate_partitions(model.n_sizes)])
    logodds = model.log_odds()
    hits = 0
    trials = 200
    for trial in range(trials):
        graph = sample_sbm(model, contiguous_assignment(model), 50_000 + trial)
        result = sgm_match(graph, logodds, model.n_sizes, restarts=20, rng_seed=trial)
        # the relaxed objective must never decrease across iterations
        hist = result.relaxed_objectives
        for prev, nxt in zip(hist, hist[1:]):
            assert nxt >= prev - 1e-8 * max(1.0, abs(prev))
        bhat = BlockAssignment(result.labels)
        achieved = log_likelihood(graph, bhat, model)
        everything = partition_log_likelihoods(graph, model, partitions)
        # the vectorised oracle agrees with log_likelihood on its maximum
        # and on a few fixed partitions
        for row in (int(np.argmax(everything)), 0, trial % len(partitions), len(partitions) - 1):
            full = BlockAssignment(np.concatenate([graph.seed_labels, partitions[row]]))
            assert everything[row] == pytest.approx(log_likelihood(graph, full, model), abs=1e-9)
        best = float(everything.max())
        if achieved >= best - 1e-9:
            hits += 1
    assert hits >= 0.95 * trials, f"exhaustive maximum attained in {hits}/{trials}"

    # the matcher's step and projection, solve_transport, against the same
    # enumeration over block labelings of fixed sizes
    rng = np.random.default_rng(78)
    for _ in range(60):
        K = int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        sizes = rng.multinomial(n, np.full(K, 1.0 / K))
        cost = rng.normal(size=(n, K))
        labels, value = solve_transport(cost, sizes)
        assert np.array_equal(np.bincount(labels, minlength=K), sizes)
        brute = max(
            float(cost[np.arange(n), part - 1].sum())
            for part in enumerate_partitions(sizes)
        )
        assert value == pytest.approx(brute, abs=1e-9)


def test_metric_identity():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        n1 = int(rng.integers(1, n + 1))
        truth = np.full(n, 2)
        truth[rng.choice(n, size=n1, replace=False)] = 1
        lst = NominationList(order=rng.permutation(n), seed_count=0)
        weights = alpha_weights(n, n1).alpha
        hits = (truth[lst.positions()] == 1).astype(float)
        assert average_precision(lst, truth, n1) == pytest.approx(
            float(weights @ hits), abs=1e-12
        )


def test_determinism_across_worker_counts(tmp_path):
    config = parse_config({
        "name": "determinism",
        "mode": "simulation",
        "schemes": ["canonical", "likelihood", "spectral"],
        "replicates": 6,
        "master_seed": 314159,
        "model": {
            "K": 3,
            "base_lambda": BASE_LAMBDA.tolist(),
            "theta": 1.0,
            "m_sizes": [4, 0, 0],
            "n_sizes": [4, 3, 3],
        },
    })
    blobs = []
    for workers in (1, 3):
        result = run_simulation(config, workers=workers, log_raw=True)
        csv_path = tmp_path / f"curve_{workers}.csv"
        json_path = tmp_path / f"summary_{workers}.json"
        emit_results(result, csv_path=str(csv_path), json_path=str(json_path))
        blobs.append((
            csv_path.read_bytes(),
            json_path.read_bytes(),
            (tmp_path / f"curve_{workers}.csv.raw.csv").read_bytes(),
        ))
    assert blobs[0] == blobs[1]


def _blas_threads_env(threads):
    """The environment of a subprocess that runs this tree's vnom with
    `threads` BLAS threads."""
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def test_determinism_across_blas_thread_counts(tmp_path):
    # configs/medium.json embeds through the Lanczos solver's BLAS
    # matrix-vector products and reorthogonalisation and matches graphs
    # through BLAS products; a canonical-only copy of configs/small.json at
    # n_sizes (6, 6, 5) scores its 5.7 million partitions through GEMMs of
    # inner width ceil(n/2)·K. The outputs must not depend on how many
    # threads BLAS uses, nor on how many workers run the replicates.
    medium = json.loads((CONFIG_DIR / "medium.json").read_text(encoding="utf-8"))
    medium["replicates"] = 4
    canonical = json.loads((CONFIG_DIR / "small.json").read_text(encoding="utf-8"))
    canonical.update(schemes=["canonical"], replicates=3)
    canonical["model"]["n_sizes"] = [6, 6, 5]
    for name, config in (("medium", medium), ("canonical", canonical)):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        blobs = []
        for threads, workers in (("1", "1"), ("2", "2")):
            csv_path = tmp_path / f"{name}_{threads}.csv"
            json_path = tmp_path / f"{name}_{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "vnom.cli", "experiment", "--config", str(config_path),
                 "--workers", workers, "--log-raw", "--csv-out", str(csv_path),
                 "--json-out", str(json_path)],
                env=_blas_threads_env(threads), check=True, capture_output=True,
            )
            blobs.append((
                csv_path.read_bytes(),
                json_path.read_bytes(),
                (tmp_path / f"{name}_{threads}.csv.raw.csv").read_bytes(),
            ))
        assert blobs[0] == blobs[1], name


def test_packed_embedding_same_bits_across_blas_thread_counts():
    # Above the float-copy bound the products use no BLAS, but the Lanczos
    # solver's reorthogonalisation and restarts do (matrix-vector and
    # matrix-matrix products over the N-long basis vectors).
    code = """
import hashlib
from vnom import spectral
from vnom.core import BlockModel, contiguous_assignment, sample_sbm
lam = [[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]]
model = BlockModel(m_sizes=(10, 0, 0), n_sizes=(1000, 1000, 1000), lam=lam)
graph = sample_sbm(model, contiguous_assignment(model), 3)
assert graph.num_vertices ** 2 * 8 > spectral._DENSE_COPY_BYTES
emb = spectral.embed(graph, 3)
print(hashlib.sha256(emb.X.tobytes() + emb.eigenvalues.tobytes()).hexdigest())
"""
    digests = [
        subprocess.run([sys.executable, "-c", code], env=_blas_threads_env(threads),
                       check=True, capture_output=True, text=True).stdout
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1]


def test_label_blind_null():
    # constant connectivity: labels carry no signal, so every scheme's MAP
    # must sit within Monte-Carlo noise of chance
    config = parse_config({
        "name": "null",
        "mode": "simulation",
        "schemes": ["canonical", "likelihood", "spectral"],
        "replicates": 500,
        "master_seed": 271828,
        "model": {
            "K": 3,
            "base_lambda": BASE_LAMBDA.tolist(),
            "theta": 0.0,
            "m_sizes": [4, 0, 0],
            "n_sizes": [4, 3, 3],
        },
    })
    result = run_simulation(config)
    chance = result.chance
    assert chance == pytest.approx(0.4)
    for scheme in ("canonical", "likelihood", "spectral"):
        outcome = result.schemes[scheme]
        assert abs(outcome.map - chance) <= 3 * outcome.se, scheme
