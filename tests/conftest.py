"""Shared fixtures and instance generators for the test suite."""

import functools
from pathlib import Path

import numpy as np
import pytest

from vnom import canonical, harness
from vnom.core import BlockModel, LabeledGraph, contiguous_assignment, mix_lambda, sample_sbm

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Base connectivity matrix used by the three simulation scales.
BASE_LAMBDA = np.array(
    [[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]]
)


def small_model(theta=1.0):
    """The 14-vertex benchmark model: 4 block-1 seeds, ambiguous sizes (4, 3, 3)."""
    return BlockModel(
        m_sizes=(4, 0, 0), n_sizes=(4, 3, 3), lam=mix_lambda(BASE_LAMBDA, theta)
    )


def sample_small(rng_seed, theta=1.0):
    model = small_model(theta)
    return sample_sbm(model, contiguous_assignment(model), rng_seed), model


def random_symmetric_lambda(rng, K, low=0.05, high=0.95):
    raw = rng.uniform(low, high, size=(K, K))
    return (raw + raw.T) / 2.0


def random_instance(rng, max_n=4, max_k=3, max_m=3):
    """A random model and sampled graph with a nonempty block of interest."""
    K = int(rng.integers(1, max_k + 1))
    while True:
        n_sizes = rng.multinomial(int(rng.integers(1, max_n + 1)), np.full(K, 1.0 / K))
        if n_sizes[0] >= 1:
            break
    m_sizes = rng.integers(0, max_m + 1, size=K)
    model = BlockModel(
        m_sizes=tuple(int(x) for x in m_sizes),
        n_sizes=tuple(int(x) for x in n_sizes),
        lam=random_symmetric_lambda(rng, K),
    )
    graph = sample_sbm(model, contiguous_assignment(model), int(rng.integers(2**32)))
    return graph, model


@functools.lru_cache(maxsize=None)
def replicate_graphs(name, count):
    """(config, model, graphs) for the first `count` replicates of
    configs/<name>.json, each graph drawn exactly as the harness draws it."""
    config = harness.load_config(CONFIG_DIR / f"{name}.json")
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_nominate_all", lambda graph, *args: seen.append(graph))
        simulation = harness._Simulation.of(config)
        for replicate in range(count):
            simulation.replicate(replicate)
    return config, harness.build_model(config), tuple(seen)


@pytest.fixture(autouse=True)
def cold_half_partitions():
    """Every test starts with no canonical half-partitions cached, so test
    order cannot change what a test builds or measures."""
    canonical._half_partitions.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
