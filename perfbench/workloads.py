"""Workload definitions: the inputs each workload gives the harness.

Every workload is a closed loop of harness calls ("rounds") over one fixed
config, so every round does the same work on the same replicate indices.
All inputs derive from the benchmark seed; the program only sees the
generated config and, for realdata-sparse, the generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

# Scheme whose MAP is the workload's `map` metric.
HEADLINE = {
    "small-mc": "likelihood",
    "medium-lik": "likelihood",
    "large-spec": "spectral",
    "realdata-sparse": "likelihood",
}
WORKLOADS = tuple(HEADLINE)

# Replicates per harness call. A round is one harness call per config
# (per graph, for realdata-sparse); the loop repeats rounds until the run's
# seconds are used up. small-mc uses many cheap replicates so its MAP has
# a small Monte-Carlo error; the heavy workloads use a handful of distinct
# graphs so that one round outlasts a 10 s run by a wide margin, and the
# round count, and so the run time, does not flip with small changes in
# speed.
ROUND_REPLICATES = {"small-mc": 400, "medium-lik": 3, "large-spec": 2,
                    "realdata-sparse": 2}
# How the host factor scales each workload's loop times (hostclock.py):
# (exponent, whole_run). The kernel's speed tracks the host's state as the
# CPU-bound small-array and BLAS work of three workloads does, epoch by
# epoch. large-spec spends most of its time streaming its 800 MB dense
# copy through eigsh (55 matrix-vector products on every graph of the
# model) and copying the N x N graph, which the host's state moves about
# half as much, and its few long epochs each get one burst, which reads
# the state of a memory-bound epoch loosely; so it takes the run's mean
# factor to the power 0.5.
HOST_SCALING = {"small-mc": (1.0, False), "medium-lik": (1.0, False),
                "large-spec": (0.5, True), "realdata-sparse": (1.0, False)}
SMOKE_REPLICATES = {"small-mc": 20, "medium-lik": 2, "large-spec": 1,
                    "realdata-sparse": 1}

# realdata-sparse generator settings (full size, smoke size). Run time
# depends on the graph, so a run spreads its replicates over several
# generated graphs to keep its figures steady from seed to seed.
REALDATA = {
    False: {"graphs": 8, "N": 300, "n_class1": 120, "mean_degree": 7.0, "seeds": [20, 20]},
    True: {"graphs": 2, "N": 120, "n_class1": 48, "mean_degree": 7.0, "seeds": [10, 10]},
}
# Class connectivity before degree correction: class 1 is the denser one.
_CLASS_AFFINITY = np.array([[10.0, 1.0], [1.0, 5.0]])
_DEGREE_SIGMA = 0.5


@dataclass
class Workload:
    name: str
    configs: list  # one harness config per call in a round
    headline: str
    # realdata-sparse only: each graph's labels by file id, and seed counts
    labels: list | None = None
    seed_counts: list | None = None

    @property
    def mode(self):
        return self.configs[0]["mode"]


def _model_config(name, master_seed, replicates, smoke):
    base = {
        "small-mc": "small.json",
        "medium-lik": "medium.json",
        "large-spec": "large.json",
    }[name]
    with open(CONFIG_DIR / base, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if smoke:
        model = config["model"]
        if name == "medium-lik":
            model["m_sizes"], model["n_sizes"] = [6, 0, 0], [20, 15, 15]
        elif name == "large-spec":
            # still above the harness's blockwise-sampler and eigsh limits
            model["m_sizes"], model["n_sizes"] = [40, 0, 0], [800, 600, 600]
    config["name"] = f"perfbench-{name}"
    config["replicates"] = replicates
    config["master_seed"] = master_seed
    return config


def sparse_two_class_graph(seed, N, n_class1, mean_degree):
    """A degree-corrected two-class graph with uneven degrees, drawn from
    the tuple of integers `seed`.

    Returns (edges, labels): edges as an (E, 2) array of 1-based file ids
    with u < v, labels[i] the class of file id i + 1. File ids are a random
    permutation of the generator's class-sorted vertex order, so id order
    carries no class information.
    """
    rng = np.random.default_rng(np.random.SeedSequence((*seed, 0x5BA25E)))
    classes = np.repeat([0, 1], [n_class1, N - n_class1])
    weight = rng.lognormal(0.0, _DEGREE_SIGMA, size=N)
    for c in (0, 1):
        weight[classes == c] /= weight[classes == c].mean()
    raw = np.outer(weight, weight) * _CLASS_AFFINITY[classes[:, None], classes[None, :]]
    np.fill_diagonal(raw, 0.0)
    scale = mean_degree * N / raw.sum()
    prob = np.minimum(1.0, scale * raw)
    upper = np.triu(rng.random((N, N)) < prob, k=1)
    file_id = rng.permutation(N) + 1
    u, v = np.nonzero(upper)
    a, b = file_id[u], file_id[v]
    edges = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    labels = np.empty(N, dtype=int)
    labels[file_id - 1] = classes + 1
    return edges, labels


def write_realdata_files(out_dir, edges, labels):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    edges_path = out_dir / "edges.txt"
    labels_path = out_dir / "labels.txt"
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(f"#vertices {len(labels)}\n")
        fh.writelines(f"{a} {b}\n" for a, b in edges)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i + 1} {c}\n" for i, c in enumerate(labels))
    return edges_path, labels_path


def build(name, seed, smoke, out_dir, replicates=None):
    """The workload's configs (and files, for realdata-sparse)."""
    if name not in HEADLINE:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if replicates is None:
        replicates = (SMOKE_REPLICATES if smoke else ROUND_REPLICATES)[name]
    if name != "realdata-sparse":
        config = _model_config(name, seed, replicates, smoke)
        return Workload(name=name, configs=[config], headline=HEADLINE[name])
    spec = REALDATA[smoke]
    configs, labels = [], []
    for g in range(spec["graphs"]):
        edges, graph_labels = sparse_two_class_graph(
            (seed, g), spec["N"], spec["n_class1"], spec["mean_degree"])
        edges_path, labels_path = write_realdata_files(
            Path(out_dir) / f"graph{g}", edges, graph_labels)
        labels.append(graph_labels)
        configs.append({
            "name": f"perfbench-realdata-sparse-{g}",
            "mode": "realdata",
            "schemes": ["likelihood", "spectral"],
            "replicates": replicates,
            "master_seed": seed,
            "data": {"edges": str(edges_path), "labels": str(labels_path), "K": 2,
                     "seed_counts": list(spec["seeds"])},
        })
    return Workload(name=name, configs=configs, headline=HEADLINE[name],
                    labels=labels, seed_counts=list(spec["seeds"]))
