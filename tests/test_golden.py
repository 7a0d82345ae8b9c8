"""Golden digests of the nomination lists and of the matcher's output.

Each case runs a fixed subset of an experiment and hashes every
replicate's nomination order, scheme by scheme, with SHA-256. A change
that is meant to leave every list as it is must leave these digests as
they are; a change that moves lists on purpose updates them here and says
so in CHANGES.md. The matcher digests hash every sgm_match result of the
small, medium and sparse real-data cases bit for bit, Frank-Wolfe history
included, so a change to any iterate's rounding fails there even when no
list moves; the sparse case is where the transport step's tie runs move
most rows at once. The
canonical digest does the same for every canonical probability of the
small case."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vnom import canonical, harness, likelihood

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "small": {
        "canonical": "dbe7b6d3bea76e6d2d0ba39dd6756c269f521e027bc4b4cd4819f6ff2936d7b9",
        "likelihood": "553d76e3d750d470385f16799a26d6d89be444f4effaef72dfad55dfcf595f09",
        "spectral": "fea3654189713d572a578a8c922799154a8df7a192b80dce2c3a3b59baec3921",
    },
    "medium": {
        "likelihood": "e8cbef52f23d915cb9ea8b702425e45ffad2bde1b65920a4c39f3ee54c34b0d0",
        "spectral": "a4939f0f83fff90444b01831c031d5a7c8ec84442737b1a6caa2d97b831f0846",
    },
    "realdata": {
        "likelihood": "6c7b731f488f2284b462582afe8ff009f1d939d8e5b42ba07ddf89fc52143589",
        "spectral": "632c60081e42cdfd251889fa0a195b5d521b3e303fa2892e342c541cb475d0c5",
    },
    "realdata-sparse": {
        "likelihood": "6b6f0d609864c6aaea689bb902994badf196db4f883e1760eb4ff249e4e205a7",
    },
}

# SHA-256 over every sgm_match result of a case, in call order: labels as
# int64, objective and relaxed_objectives as float64, iterations as int64
# and converged as one byte, all little-endian.
GOLDEN_MATCHER = {
    "small": "9ebd66dfac7ec5655c0f2f72a81b51372113d9fd2fffdc6a40a86e0c955e3e8b",
    "medium": "f629654f3aa8ed54f314b8f36982d97f4e3eae85e05e29737738878e98b2c0aa",
    "realdata-sparse": "8e0d88d91fae9671c5ae03bc297ca7495ee65626c496abdf4a1792ee4a1510a8",
}

# SHA-256 over every conditional_block1_probability result of the small
# case, in call order: prob and log_denominator as little-endian float64.
GOLDEN_CANONICAL = "3ca57b88130a01df2e266d86f8b2241a904da41cca47c96122d9802515f05556"

# SHA-256 of the subsample procedure's CSV table on two_class_files' graph.
GOLDEN_SUBSAMPLE = "63781ad6582bdf2fac570d8b3f4fd341b31f9dbe4cd7a8a0a03d1d411f1b572d"


def two_class_files(directory, seed=20261019, sizes=(120, 180),
                    density=((0.08, 0.01), (0.01, 0.04))):
    """A generated two-class graph (by default 300 vertices, 120 of them in
    the denser class 1, ids shuffled against the classes) as edge-list and
    labels files."""
    rng = np.random.default_rng(seed)
    N = sum(sizes)
    classes = rng.permutation(np.repeat([1, 2], sizes))
    density = np.array(density)
    prob = density[classes[:, None] - 1, classes[None, :] - 1]
    u, v = np.nonzero(np.triu(rng.random(prob.shape) < prob, k=1))
    edges, labels = directory / "edges.txt", directory / "labels.txt"
    edges.write_text(f"#vertices {N}\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in zip(u, v)))
    labels.write_text("".join(f"{i + 1} {c}\n" for i, c in enumerate(classes)))
    return edges, labels


def config_for(case, directory):
    if case == "realdata":
        edges, labels = two_class_files(directory)
        return harness.parse_config({
            "name": "golden-realdata", "mode": "realdata",
            "schemes": ["likelihood", "spectral"], "replicates": 2, "master_seed": 5150,
            "data": {"edges": str(edges), "labels": str(labels), "K": 2,
                     "seed_counts": [20, 20]},
        })
    if case == "realdata-sparse":
        # mean degree about 3.3: many vertices share their edge counts, so
        # the transport step's costs tie in long runs
        edges, labels = two_class_files(directory, seed=20261020, sizes=(480, 720),
                                        density=((0.006, 0.0015), (0.0015, 0.003)))
        return harness.parse_config({
            "name": "golden-realdata-sparse", "mode": "realdata",
            "schemes": ["likelihood"], "replicates": 2, "master_seed": 6160,
            "data": {"edges": str(edges), "labels": str(labels), "K": 2,
                     "seed_counts": [20, 20]},
        })
    data = json.loads((CONFIG_DIR / f"{case}.json").read_text())
    data["replicates"] = {"small": 200, "medium": 3}[case]
    return harness.parse_config(data)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_nomination_lists_unchanged(case, monkeypatch, tmp_path):
    config = config_for(case, tmp_path)
    digests = {scheme: hashlib.sha256() for scheme in config.schemes}

    def recorded(scheme, nominate):
        def wrapper(*args, **kwargs):
            nomination = nominate(*args, **kwargs)
            digests[scheme].update(np.asarray(nomination.order, dtype="<i8").tobytes())
            return nomination
        return wrapper

    for scheme in config.schemes:
        name = f"{scheme}_nominate"
        monkeypatch.setattr(harness, name, recorded(scheme, getattr(harness, name)))
    run = harness.run_realdata if config.mode == "realdata" else harness.run_simulation
    run(config)
    assert {s: h.hexdigest() for s, h in digests.items()} == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_MATCHER))
def test_matcher_results_unchanged(case, monkeypatch, tmp_path):
    config = config_for(case, tmp_path)
    digest = hashlib.sha256()
    match = likelihood.sgm_match

    def recorded(*args, **kwargs):
        result = match(*args, **kwargs)
        digest.update(np.asarray(result.labels, dtype="<i8").tobytes())
        digest.update(np.asarray([result.objective, *result.relaxed_objectives],
                                 dtype="<f8").tobytes())
        digest.update(np.asarray(result.iterations, dtype="<i8").tobytes())
        digest.update(bytes([result.converged]))
        return result

    monkeypatch.setattr(likelihood, "sgm_match", recorded)
    run = harness.run_realdata if config.mode == "realdata" else harness.run_simulation
    run(config)
    assert digest.hexdigest() == GOLDEN_MATCHER[case]


def test_canonical_probabilities_unchanged(monkeypatch, tmp_path):
    config = config_for("small", tmp_path)
    digest = hashlib.sha256()
    probability = canonical.conditional_block1_probability

    def recorded(*args, **kwargs):
        scores = probability(*args, **kwargs)
        digest.update(np.asarray([*scores.prob, scores.log_denominator], dtype="<f8").tobytes())
        return scores

    monkeypatch.setattr(canonical, "conditional_block1_probability", recorded)
    harness.run_simulation(dataclasses.replace(config, schemes=("canonical",)))
    assert digest.hexdigest() == GOLDEN_CANONICAL


def test_subsample_table_unchanged(tmp_path):
    edges, labels = two_class_files(tmp_path)
    config = harness.parse_config({
        "name": "golden-subsample", "mode": "subsample", "replicates": 6, "master_seed": 7170,
        "data": {"edges": str(edges), "labels": str(labels), "K": 2,
                 "subsample_sizes": [40, 60], "seeds_per_class": [10, 15]},
    })
    table = harness.subsample_table_csv(harness.run_subsample_average(config))
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_SUBSAMPLE
