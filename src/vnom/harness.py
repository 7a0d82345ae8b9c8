"""Configuration-driven Monte-Carlo experiment runner: simulation
experiments, the real-data seed-resampling protocol, and the
subsample-and-average-position procedure."""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vnom
from vnom import spectral
from vnom.canonical import DEFAULT_GUARD, canonical_nominate, check_enumeration
from vnom.core import (
    PROB_EPS,
    BlockAssignment,
    BlockModel,
    LabeledGraph,
    ParseError,
    contiguous_assignment,
    estimate_lambda,
    integral,
    load_edge_list,
    load_labels,
    mix_lambda,
    sample_sbm,
)
from vnom.likelihood import likelihood_nominate
from vnom.metrics import average_precision, mean_average_precision
from vnom.spectral import default_dimension, spectral_nominate

SCHEMES = ("canonical", "likelihood", "spectral")

# Kept for perfbench's timing hooks; it goes with them at the next benchmark change.
sample_sbm_blockwise = sample_sbm


class ConfigError(ValueError):
    """An invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class Hyperparameters:
    d: int | None = None
    kmeans_restarts: int = 10
    sgm_max_iter: int = 20
    sgm_tol: float = 1e-6
    sgm_restarts: int = 1
    eps: float = PROB_EPS
    enumeration_guard: int = DEFAULT_GUARD

    def __post_init__(self):
        def check(key, integer, valid, rule):
            value = getattr(self, key)
            kind = numbers.Integral if integer else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not valid(value):
                raise ConfigError(f"hyperparameters.{key} must be {rule}, got {value!r}")

        # eps = 0 would leave log(0) in every scheme that clamps Lambda
        check("eps", False, lambda x: 0 < x < 0.5, "a number strictly between 0 and 1/2")
        check("sgm_max_iter", True, lambda x: x >= 1, "an integer >= 1")
        check("sgm_tol", False, lambda x: x > 0, "a number > 0")
        check("kmeans_restarts", True, lambda x: x >= 1, "an integer >= 1")
        check("sgm_restarts", True, lambda x: x >= 1, "an integer >= 1")
        if self.d is not None:
            check("d", True, lambda x: x >= 1, "an integer >= 1 or null")
        check("enumeration_guard", True, lambda x: x >= 1, "an integer >= 1")

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown hyperparameter keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    mode: str
    schemes: tuple
    replicates: int
    master_seed: int
    model: dict | None = None
    data: dict | None = None
    hyper: Hyperparameters = field(default_factory=Hyperparameters)

    def __post_init__(self):
        if self.mode not in ("simulation", "realdata", "subsample"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.schemes and self.mode != "subsample":
            raise ConfigError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.mode == "simulation" and self.model is None:
            raise ConfigError("simulation mode requires a 'model' section")
        if self.mode in ("realdata", "subsample") and self.data is None:
            raise ConfigError(f"{self.mode} mode requires a 'data' section")


_TOP_KEYS = {"name", "mode", "schemes", "replicates", "master_seed",
             "model", "data", "hyperparameters"}
_MODEL_KEYS = {"K", "base_lambda", "theta", "m_sizes", "n_sizes"}
_DATA_KEYS = {"edges", "labels", "K", "seed_counts", "subsample_sizes",
              "seeds_per_class"}


def _converted(key, value, convert, rule):
    """convert(value), or a ConfigError that names the config key."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {rule}, got {value!r}") from None


def _natural(value):
    """integral(value), refusing a negative one."""
    n = integral(value)
    if n < 0:
        raise ValueError(f"negative: {value!r}")
    return n


def parse_config(data):
    """Validate a config dict (strict: unknown keys are errors)."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("mode", "replicates", "master_seed"):
        if key not in data:
            raise ConfigError(f"missing required config key {key!r}")
    model = data.get("model")
    if model is not None:
        bad = set(model) - _MODEL_KEYS
        if bad:
            raise ConfigError(f"unknown model keys: {sorted(bad)}")
        for key in ("K", "base_lambda", "m_sizes", "n_sizes"):
            if key not in model:
                raise ConfigError(f"missing model key {key!r}")
    section = data.get("data")
    if section is not None:
        bad = set(section) - _DATA_KEYS
        if bad:
            raise ConfigError(f"unknown data keys: {sorted(bad)}")
    return ExperimentConfig(
        name=str(data.get("name", "experiment")),
        mode=data["mode"],
        schemes=tuple(data.get("schemes", ())),
        replicates=_converted("replicates", data["replicates"], integral, "an integer"),
        master_seed=_converted("master_seed", data["master_seed"], _natural, "an integer >= 0"),
        model=model,
        data=section,
        hyper=Hyperparameters.from_dict(data.get("hyperparameters", {})),
    )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def build_model(config):
    spec = config.model
    K = _converted("model.K", spec["K"], integral, "an integer")
    base = _converted("model.base_lambda", spec["base_lambda"],
                      lambda v: np.asarray(v, dtype=float), "a K x K array of numbers")
    if base.shape != (K, K):
        raise ConfigError(f"model.base_lambda must be {K}x{K}")
    theta = _converted("model.theta", spec.get("theta", 1.0), float, "a number")
    sizes = {key: _converted(f"model.{key}", spec[key], lambda v: tuple(integral(x) for x in v),
                             "a list of integers")
             for key in ("m_sizes", "n_sizes")}
    return BlockModel(**sizes, lam=mix_lambda(base, theta))


@dataclass
class SchemeOutcome:
    curve: np.ndarray
    map: float
    se: float
    seconds_per_replicate: float


@dataclass
class ExperimentResult:
    name: str
    n: int
    n1: int
    chance: float
    replicates: int
    master_seed: int
    schemes: dict
    config_echo: dict
    raw_hits: dict | None = None


def _replicate_seed(master_seed, replicate, stream):
    return int(np.random.SeedSequence((master_seed, replicate, stream)).generate_state(1)[0])


def _spectral_dimension(config, model):
    """The spectral scheme's embedding dimension: the config's d, or the
    numerical rank of the model's Lambda."""
    return config.hyper.d if config.hyper.d is not None else default_dimension(model.lam)


def _nominate(scheme, graph, model, config, replicate, d, embedding=None):
    """Run one scheme on one realized graph with the config's
    hyperparameters; likelihood and spectral draw from the replicate's rng
    streams 1 and 2. The spectral scheme embeds in d dimensions
    (_spectral_dimension; the other schemes ignore d). `embedding`, if
    given, maps d to the graph's spectral embedding, which the spectral
    scheme then takes instead of computing it."""
    hyper = config.hyper
    if scheme == "canonical":
        return canonical_nominate(
            graph, model, guard=hyper.enumeration_guard, eps=hyper.eps
        )
    if scheme == "likelihood":
        return likelihood_nominate(
            graph, model, eps=hyper.eps, max_iter=hyper.sgm_max_iter,
            tol=hyper.sgm_tol, restarts=hyper.sgm_restarts,
            rng_seed=_replicate_seed(config.master_seed, replicate, 1),
        )
    return spectral_nominate(
        graph, model.K, d=d, restarts=hyper.kmeans_restarts,
        rng_seed=_replicate_seed(config.master_seed, replicate, 2),
        embedding=None if embedding is None else embedding(d),
    )


def _nominate_all(graph, model, config, replicate, d, embedding=None):
    """Run every requested scheme on one realized graph (d and `embedding`
    as in _nominate)."""
    results = {}
    for scheme in config.schemes:
        start = time.perf_counter()
        nomination = _nominate(scheme, graph, model, config, replicate, d, embedding)
        elapsed = time.perf_counter() - start
        truth = graph.true_labels
        hits = (truth[nomination.positions()] == 1).astype(np.int64)
        ap = average_precision(nomination, truth, model.n_sizes[0])
        results[scheme] = (hits, ap, elapsed)
    return results


@dataclass(frozen=True)
class _Simulation:
    """What every replicate of a simulation run shares, built once per
    run: the config, its model, the model's contiguous planted membership,
    the spectral scheme's d, and the run's n and n1. `replicate` is the
    run's only per-replicate code, as in every run object here; a worker
    unpickles the object once per chunk of replicates (_run_replicates)."""

    config: ExperimentConfig
    model: BlockModel
    membership: BlockAssignment
    d: int
    n: int
    n1: int

    @classmethod
    def of(cls, config):
        model = build_model(config)
        return cls(config, model, contiguous_assignment(model),
                   _spectral_dimension(config, model), model.n, model.n_sizes[0])

    def replicate(self, replicate):
        config, model = self.config, self.model
        seed = _replicate_seed(config.master_seed, replicate, 0)
        # The sampler draws the graph straight into this vertex order: the
        # seeds, then the ambiguous vertices in their shuffled order.
        order = np.concatenate([
            np.arange(model.m),
            model.m + _ambiguous_permutation(config, replicate, model.n),
        ])
        graph = sample_sbm(model, self.membership, seed, order=order)
        return _nominate_all(graph, model, config, replicate, self.d)


def _ambiguous_permutation(config, replicate, n):
    """The seeded order in which a replicate lists its n ambiguous vertices.

    Distributionally a no-op (the SBM is exchangeable given block sizes),
    but it keeps deterministic vertex-id tie-breaks from aligning with the
    contiguous planted membership, or with a class-sorted labels file,
    which would fake signal where schemes produce tied scores (isolated
    vertices, for one).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, replicate, 3))
    )
    return rng.permutation(n)


def _run_replicates(run, replicates, workers=1):
    """[run.replicate(r) for r in range(replicates)], in worker processes
    when workers > 1. The replicates go out in one chunk per worker, so a
    worker unpickles `run` once, and what the run object fills in on first
    use (a dataset's embeddings) stays for the rest of its chunk."""
    if workers <= 1:
        return [run.replicate(r) for r in range(replicates)]
    # imported here: the pool's modules cost a one-worker run about 9 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # order preserved by map, so aggregation stays deterministic
        return list(pool.map(run.replicate, range(replicates), chunksize=-(-replicates // workers)))


def _experiment_result(run, workers, log_raw):
    """Run the replicates of a simulation or real-data run object and
    aggregate per-position hit curves and MAP per scheme."""
    config = run.config
    per_replicate = _run_replicates(run, config.replicates, workers)
    schemes, raw = {}, {}
    for scheme in config.schemes:
        raw[scheme] = np.stack([rep[scheme][0] for rep in per_replicate])
        map_, se = mean_average_precision([rep[scheme][1] for rep in per_replicate])
        schemes[scheme] = SchemeOutcome(
            curve=raw[scheme].mean(axis=0),
            map=map_,
            se=se,
            seconds_per_replicate=float(np.mean([rep[scheme][2] for rep in per_replicate])),
        )
    return ExperimentResult(
        name=config.name,
        n=run.n,
        n1=run.n1,
        chance=run.n1 / run.n,
        replicates=config.replicates,
        master_seed=config.master_seed,
        schemes=schemes,
        config_echo=_config_echo(config),
        raw_hits=raw if log_raw else None,
    )


def _config_echo(config):
    """The config as the summary JSON echoes it: every field that is set,
    with the hyperparameters as a dict under their config key."""
    echo = {k: v for k, v in vars(config).items() if v is not None and k != "hyper"}
    echo["schemes"] = list(config.schemes)
    echo["hyperparameters"] = dict(vars(config.hyper))
    return echo


def run_simulation(config, workers=1, log_raw=False):
    """Realize, nominate, and score `replicates` SBM graphs; aggregate
    per-position hit curves and MAP per scheme."""
    simulation = _Simulation.of(config)
    if "canonical" in config.schemes:
        check_enumeration(simulation.model.n_sizes, config.hyper.enumeration_guard)
    return _experiment_result(simulation, workers, log_raw)


def _load_full_labels(path, K):
    """Labels file covering every vertex (core.load_labels with blocks
    1..K), with its errors as ConfigError."""
    try:
        labels = load_labels(path, K)
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    if not len(labels):
        raise ConfigError(f"{path}: no labels found")
    return labels


@dataclass
class _Dataset:
    """A labeled graph read from its files: `graph` holds its packed rows
    in file order and no seeds, `truth` the block of every vertex, and
    `files` the _file_digest triples of the labels file and the edge file.
    `embeddings` caches spectral.embed(graph, d) by d, filled on first use."""

    graph: LabeledGraph
    truth: np.ndarray
    K: int
    files: tuple
    embeddings: dict = field(default_factory=dict)

    def embedding(self, d, order):
        """The spectral embedding of the graph with its vertices in
        `order`, a permutation of them all: the rows `order` of the
        graph's own embedding, which is computed once per d."""
        if d not in self.embeddings:
            self.embeddings[d] = spectral.embed(self.graph, d)
        cached = self.embeddings[d]
        return spectral.Embedding(X=cached.X[order], eigenvalues=cached.eigenvalues)


# How far a file's stamps can lag the wall clock: a file written after a
# digest was taken never looks older than it by more than this. Linux stamps
# inode times from its coarse clock, which advances once a jiffy and so runs
# up to a jiffy (10 ms at HZ 100, the slowest tick it is built with) behind
# time.time_ns(); the filesystem then truncates the stamp to its own
# granularity, one second on ext3 and two on FAT. 2 s plus the jiffy,
# rounded up to 2.1 s.
_STAMP_TICK_NS = 2_100_000_000


def _file_digest(path, known=None):
    """(digest, taken_ns, stat) of the file at path: the BLAKE2b digest of
    its bytes, the wall time in ns at which it was taken (before the read),
    and the file's (st_ino, st_size, st_mtime_ns, st_ctime_ns) as stat saw
    it just before that. `known`, the file's triple from an earlier run, is
    returned without reading the file when the file's stat is unchanged and
    its mtime and ctime both lie more than _STAMP_TICK_NS before known's
    digest was taken (git's racy-clean rule): any write since then would
    have stamped the file later than that."""
    st = os.stat(path)
    stat = (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    if known is not None:
        _, taken_ns, known_stat = known
        if known_stat == stat and max(st.st_mtime_ns, st.st_ctime_ns) < taken_ns - _STAMP_TICK_NS:
            return known
    taken_ns = time.time_ns()
    return hashlib.blake2b(Path(path).read_bytes()).digest(), taken_ns, stat


# The dataset this process last read from each (edges path, labels path, K),
# served while the digests of its files' bytes are unchanged.
_dataset_cache = {}


def _load_dataset(config):
    section = config.data
    if "edges" not in section or "labels" not in section or "K" not in section:
        raise ConfigError("data section requires 'edges', 'labels', and 'K'")
    K = _converted("data.K", section["K"], integral, "an integer")
    edges, labels = section["edges"], section["labels"]
    key = (edges, labels, K)
    cached = _dataset_cache.get(key)
    # Hashed before the files are parsed, so a file rewritten during the
    # parse leaves a stale digest and is read again by the next run.
    files = tuple(map(_file_digest, (labels, edges),
                      cached.files if cached is not None else (None, None)))
    if cached is not None and [f[0] for f in files] == [f[0] for f in cached.files]:
        cached.files = files
        return cached
    truth = _load_full_labels(labels, K)
    graph = load_edge_list(edges, num_vertices=len(truth))
    # A '#vertices' header overrides num_vertices.
    if graph.num_vertices != len(truth):
        raise ConfigError(
            f"{edges} declares {graph.num_vertices} vertices, but {labels} labels {len(truth)}"
        )
    _dataset_cache[key] = _Dataset(graph, truth, K, files)
    return _dataset_cache[key]


def _counts(config, key, default=None):
    """The data section's list of vertex counts `key`, as ints, or
    ConfigError naming the key when an entry is not an integer >= 0."""
    value = config.data.get(key, default)
    if value is None:
        return None
    return _converted(f"data.{key}", value, lambda v: [_natural(x) for x in v],
                      "a list of integers >= 0")


# Unpacked bytes of the dataset's rows that _packed_submatrix holds at a time.
_STRIP_BYTES = 1 << 20


def _packed_submatrix(graph, order):
    """The packed rows of graph's adjacency at rows and columns `order`,
    gathered strip by strip: each strip unpacks at most _STRIP_BYTES of the
    rows (one row at least), so no len(order) x N boolean is made."""
    step = max(1, _STRIP_BYTES // graph.num_vertices)
    packed = np.empty((len(order), -(-len(order) // 8)), dtype=np.uint8)
    for start in range(0, len(order), step):
        rows = order[start : start + step]
        # The column gather returns an F-ordered strip (strides (1, n)),
        # which np.packbits along its rows walks slowly. Gathering and
        # packing a 300 x 300 strip took 557 us from the F-ordered strip
        # and 199 us through a contiguous copy (one thread, fastest of 7,
        # 2-core host); .take(order, axis=1), also C-ordered, took 227 us.
        strip = np.ascontiguousarray(graph.rows(rows)[:, order])
        packed[start : start + step] = np.packbits(strip, axis=1)
    return packed


def _labeled_instance(config, dataset, replicate, seed_counts, pool_sizes=None):
    """One replicate's instance of the config's dataset.

    Per block k, seed_counts[k-1] seeds are drawn from a pool: the whole
    block, or pool_sizes[k-1] of its vertices drawn first. The ambiguous
    vertices are the pools less the seeds, sorted by id and then shuffled
    by _ambiguous_permutation. Returns `order`, the dataset ids of the
    instance's vertices (the seeds, block by block, then the ambiguous
    vertices in that order), the LabeledGraph of those vertices in that
    order, and its BlockModel with Lambda-hat estimated from the
    seed-induced subgraph.
    """
    truth, K = dataset.truth, dataset.K
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, replicate, 0))
    )
    seed_ids, pools = [], []
    for k in range(1, K + 1):
        pool = np.flatnonzero(truth == k)
        if pool_sizes is not None:
            pool = rng.choice(pool, size=pool_sizes[k - 1], replace=False)
        seeds = rng.choice(pool, size=seed_counts[k - 1], replace=False)
        seed_ids.append(np.sort(seeds))
        pools.append(pool)
    seed_ids = np.concatenate(seed_ids)
    ambiguous = np.zeros(len(truth), dtype=bool)
    ambiguous[np.concatenate(pools)] = True
    ambiguous[seed_ids] = False
    ambiguous_ids = np.flatnonzero(ambiguous)
    ambiguous_ids = ambiguous_ids[
        _ambiguous_permutation(config, replicate, len(ambiguous_ids))
    ]
    order = np.concatenate([seed_ids, ambiguous_ids])
    # a principal submatrix of the checked dataset graph is symmetric
    graph = LabeledGraph._symmetric(
        _packed_submatrix(dataset.graph, order),
        seed_labels=truth[seed_ids],
        true_labels=truth[ambiguous_ids],
    )
    model = BlockModel(
        m_sizes=np.bincount(graph.seed_labels, minlength=K + 1)[1:],
        n_sizes=np.bincount(graph.true_labels, minlength=K + 1)[1:],
        lam=estimate_lambda(graph, K, eps=config.hyper.eps),
    )
    return order, graph, model


@dataclass(frozen=True)
class _RealData:
    """A real-data run object (see _Simulation). Every replicate seeds the
    same number of vertices per block, so n and n1 are the run's."""

    config: ExperimentConfig
    dataset: _Dataset
    seed_counts: list
    n: int
    n1: int

    @classmethod
    def of(cls, config):
        dataset = _load_dataset(config)
        truth = dataset.truth
        seed_counts = _counts(config, "seed_counts")
        if seed_counts is None or len(seed_counts) != dataset.K:
            raise ConfigError("realdata mode requires 'seed_counts' with one entry per block")
        for k, want in enumerate(seed_counts, start=1):
            have = int((truth == k).sum())
            if want > have:
                raise ConfigError(f"block {k} has {have} vertices; cannot seed {want}")
        return cls(config, dataset, seed_counts, len(truth) - sum(seed_counts),
                   int((truth == 1).sum()) - seed_counts[0])

    def replicate(self, replicate):
        config = self.config
        order, graph, model = _labeled_instance(config, self.dataset, replicate, self.seed_counts)
        # The instance is the whole dataset graph in a new vertex order, so its
        # embedding is the dataset's with the rows in that order.
        return _nominate_all(graph, model, config, replicate, _spectral_dimension(config, model),
                             lambda d: self.dataset.embedding(d, order))


def run_realdata(config, workers=1, log_raw=False):
    """Seed-resampling protocol on a user-supplied labeled graph: per
    replicate, sample seeds per block, estimate Lambda-hat from their
    induced densities, nominate, and score against the held-out labels.
    Every replicate holds all of the graph's vertices, so the spectral
    scheme embeds the graph once per d and reuses it."""
    return _experiment_result(_RealData.of(config), workers, log_raw)


@dataclass(frozen=True)
class _Subsample:
    """A subsample run object (see _Simulation): per class, the subsample
    size and the number of seeds drawn from it."""

    config: ExperimentConfig
    dataset: _Dataset
    sizes: list
    seeds_per_class: list

    @classmethod
    def of(cls, config):
        dataset = _load_dataset(config)
        if dataset.K != 2:
            raise ConfigError("subsample mode expects exactly two classes")
        sizes = _counts(config, "subsample_sizes", [125, 125])
        seeds_per = _counts(config, "seeds_per_class", [50, 50])
        if len(sizes) != 2 or len(seeds_per) != 2:
            raise ConfigError("subsample_sizes and seeds_per_class need two entries")
        for k in (1, 2):
            have = int((dataset.truth == k).sum())
            if sizes[k - 1] > have:
                raise ConfigError(f"class {k} has {have} vertices; cannot sample {sizes[k-1]}")
            if seeds_per[k - 1] >= sizes[k - 1]:
                raise ConfigError("seeds_per_class must be below subsample_sizes")
        return cls(config, dataset, sizes, seeds_per)

    def replicate(self, replicate):
        """The dataset ids of the replicate's ambiguous vertices, in the
        order the likelihood scheme nominates them."""
        order, graph, model = _labeled_instance(self.config, self.dataset, replicate,
                                                self.seeds_per_class, self.sizes)
        nomination = _nominate("likelihood", graph, model, self.config, replicate, d=None)
        return order[graph.seed_count:][nomination.positions()]


def run_subsample_average(config):
    """Subsample two classes repeatedly, nominate the ambiguous members
    with the likelihood scheme, and average each vertex's nomination
    position over its selections."""
    run = _Subsample.of(config)
    truth = run.dataset.truth
    position_sum = np.zeros(len(truth))
    selected = np.zeros(len(truth), dtype=np.int64)
    for picked in _run_replicates(run, config.replicates):
        position_sum[picked] += np.arange(1, len(picked) + 1)
        selected[picked] += 1

    mean_position = np.where(selected > 0, position_sum / np.maximum(selected, 1), np.nan)
    return {
        "vertex_class": truth,
        "times_selected": selected,
        "mean_position": mean_position,
    }


def _format_float(x):
    return f"{x:.10g}"


def emit_results(result, csv_path=None, json_path=None):
    """Write the per-position curve CSV and the deterministic JSON
    summary. Per-replicate timing goes to a separate sidecar so the main
    outputs are byte-identical across reruns."""
    if csv_path is not None:
        _write_file(csv_path, _curve_csv(result))
        if result.raw_hits is not None:
            _write_file(str(csv_path) + ".raw.csv", _raw_csv(result))
    if json_path is not None:
        _write_file(json_path, _summary_json(result))
        _write_file(str(json_path) + ".timing.json", _timing_json(result))


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _curve_csv(result):
    names = list(result.schemes)
    lines = ["position," + ",".join(names) + ",chance"]
    for i in range(result.n):
        row = [str(i + 1)]
        row.extend(_format_float(result.schemes[s].curve[i]) for s in names)
        row.append(_format_float(result.chance))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _raw_csv(result):
    lines = ["replicate,scheme," + ",".join(f"pos{i+1}" for i in range(result.n))]
    for scheme, hits in result.raw_hits.items():
        for r in range(hits.shape[0]):
            lines.append(f"{r},{scheme}," + ",".join(str(int(h)) for h in hits[r]))
    return "\n".join(lines) + "\n"


def _summary_json(result):
    payload = {
        "name": result.name,
        "version": vnom.__version__,
        "master_seed": result.master_seed,
        "replicates": result.replicates,
        "n": result.n,
        "n1": result.n1,
        "chance": result.chance,
        "schemes": {
            s: {"map": o.map, "se": o.se, "curve": [float(x) for x in o.curve]}
            for s, o in result.schemes.items()
        },
        "config": result.config_echo,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _timing_json(result):
    payload = {
        s: {"seconds_per_replicate": o.seconds_per_replicate}
        for s, o in result.schemes.items()
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def subsample_table_csv(table):
    """CSV for the per-vertex average nomination position table."""
    lines = ["vertex,class,times_selected,mean_position"]
    truth = table["vertex_class"]
    for v in range(len(truth)):
        cnt = int(table["times_selected"][v])
        mean = "" if cnt == 0 else _format_float(float(table["mean_position"][v]))
        lines.append(f"{v + 1},{int(truth[v])},{cnt},{mean}")
    return "\n".join(lines) + "\n"
