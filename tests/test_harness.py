"""Experiment harness: config parsing, simulation runs, serialization,
real-data protocol, and the subsample-average procedure."""

import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import BASE_LAMBDA, CONFIG_DIR
from test_golden import two_class_files
from vnom.canonical import (
    InfeasibleEnumerationError,
    canonical_nominate,
    conditional_block1_probability,
)
from vnom import core, harness, spectral
from vnom.core import BlockModel, contiguous_assignment, sample_sbm
from vnom.harness import (
    ConfigError,
    build_model,
    emit_results,
    load_config,
    parse_config,
    run_realdata,
    run_simulation,
    run_subsample_average,
    subsample_table_csv,
)
from vnom.likelihood import likelihood_nominate
from vnom.spectral import spectral_nominate

TINY_CONFIG = {
    "name": "tiny",
    "mode": "simulation",
    "schemes": ["canonical", "likelihood", "spectral"],
    "replicates": 4,
    "master_seed": 99,
    "model": {
        "K": 3,
        "base_lambda": BASE_LAMBDA.tolist(),
        "theta": 1.0,
        "m_sizes": [4, 0, 0],
        "n_sizes": [4, 3, 3],
    },
}


def write_dataset(tmp_path, adjacency, labels, tag=""):
    """Write edge-list and full-labels files for a graph."""
    edges_path = tmp_path / f"edges{tag}.txt"
    labels_path = tmp_path / f"labels{tag}.txt"
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(f"#vertices {len(labels)}\n")
        for a, b in np.argwhere(np.triu(adjacency, k=1)):
            fh.write(f"{a + 1} {b + 1}\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for v, blk in enumerate(labels, start=1):
            fh.write(f"{v} {blk}\n")
    return str(edges_path), str(labels_path)


def write_sbm_dataset(tmp_path, model, rng_seed):
    """Realize a graph and write edge-list and full-labels files."""
    graph = sample_sbm(model, contiguous_assignment(model), rng_seed)
    labels = np.concatenate([graph.seed_labels, graph.true_labels])
    return write_dataset(tmp_path, graph.adjacency, labels)


def count_calls(monkeypatch, names):
    """Wrap each named vnom.harness attribute so that its calls are counted
    in the returned dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return calls


def null_graph_with_isolates(rng_seed, N=300, p=0.06, isolated_share=0.4):
    """An Erdos-Renyi graph with a share of its vertices isolated, and
    class-sorted labels (the first half of the ids in class 1). Labels
    carry no signal, but the isolated vertices tie under every scheme."""
    rng = np.random.default_rng(rng_seed)
    upper = np.triu(rng.random((N, N)) < p, k=1)
    isolated = rng.choice(N, size=int(isolated_share * N), replace=False)
    upper[isolated, :] = False
    upper[:, isolated] = False
    labels = np.where(np.arange(N) < N // 2, 1, 2)
    return upper | upper.T, labels


class TestConfigParsing:
    def test_round_trip_of_shipped_configs(self):
        configs_dir = Path(__file__).resolve().parents[1] / "configs"
        for name in ("small", "medium", "large"):
            config = load_config(configs_dir / f"{name}.json")
            assert config.replicates >= 1
            assert config.schemes

    def test_integral_numbers_parse_as_integers(self):
        config = json.loads(json.dumps(TINY_CONFIG))
        config.update(replicates=4.0, master_seed=99.0)
        config["model"].update(K=3.0, m_sizes=[4.0, 0, 0], n_sizes=[4, 3.0, 3])
        parsed = parse_config(config)
        assert (parsed.replicates, parsed.master_seed) == (4, 99)
        assert type(parsed.replicates) is int and type(parsed.master_seed) is int
        model = build_model(parsed)
        assert (model.K, model.m_sizes, model.n_sizes) == (3, (4, 0, 0), (4, 3, 3))

    def test_unknown_top_level_key_rejected(self):
        bad = dict(TINY_CONFIG)
        bad["typo"] = 1
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_model_key_rejected(self):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["model"]["lamda"] = []
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_hyperparameter_rejected(self):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["hyperparameters"] = {"dd": 2}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_required_key_rejected(self):
        bad = {k: v for k, v in TINY_CONFIG.items() if k != "replicates"}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_scheme_rejected(self):
        bad = json.loads(json.dumps(TINY_CONFIG))
        bad["schemes"] = ["canonical", "mystery"]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_build_model_mixes_theta(self):
        config = parse_config(json.loads(json.dumps(TINY_CONFIG)))
        model = build_model(config)
        assert np.allclose(model.lam, BASE_LAMBDA)
        cfg2 = json.loads(json.dumps(TINY_CONFIG))
        cfg2["model"]["theta"] = 0.0
        model0 = build_model(parse_config(cfg2))
        assert np.allclose(model0.lam, 0.5)


# For each scheme function, the Hyperparameters field behind each of its
# parameters. `vn nominate` calls these functions with their own defaults,
# and experiments with a default Hyperparameters, so the two must agree.
# d has no default in either: both take the numerical rank of Lambda.
SCHEME_PARAMETERS = {
    likelihood_nominate: {"eps": "eps", "max_iter": "sgm_max_iter", "tol": "sgm_tol",
                          "restarts": "sgm_restarts"},
    spectral_nominate: {"restarts": "kmeans_restarts"},
    spectral.kmeans: {"restarts": "kmeans_restarts"},
    canonical_nominate: {"guard": "enumeration_guard", "eps": "eps"},
}


@pytest.mark.parametrize("function", SCHEME_PARAMETERS, ids=lambda f: f.__name__)
def test_hyperparameter_defaults_match_the_scheme_defaults(function):
    defaults = harness.Hyperparameters()
    parameters = inspect.signature(function).parameters
    for name, key in SCHEME_PARAMETERS[function].items():
        assert parameters[name].default == getattr(defaults, key), (name, key)


def test_every_hyperparameter_but_d_has_a_scheme_default():
    covered = {key for keys in SCHEME_PARAMETERS.values() for key in keys.values()}
    assert covered == set(harness.Hyperparameters.__dataclass_fields__) - {"d"}


@pytest.mark.parametrize("mode", ["simulation", "realdata"])
def test_config_echo_holds_every_set_field(mode):
    data = json.loads(json.dumps(TINY_CONFIG))
    if mode == "realdata":
        del data["model"]
        data.update(mode="realdata", data={"edges": "e.txt", "labels": "l.txt", "K": 3})
    data["hyperparameters"] = {"sgm_restarts": 3}
    echo = harness._config_echo(parse_config(data))
    assert echo == {
        **{k: v for k, v in data.items() if k != "hyperparameters"},
        "hyperparameters": {**vars(harness.Hyperparameters()), "sgm_restarts": 3},
    }
    assert type(echo["schemes"]) is list


class TestRunSimulation:
    def test_basic_run_shapes(self):
        config = parse_config(json.loads(json.dumps(TINY_CONFIG)))
        result = run_simulation(config, log_raw=True)
        assert result.n == 10
        assert result.n1 == 4
        assert result.chance == pytest.approx(0.4)
        for scheme in config.schemes:
            outcome = result.schemes[scheme]
            assert outcome.curve.shape == (10,)
            assert 0.0 <= outcome.map <= 1.0
            raw = result.raw_hits[scheme]
            assert raw.shape == (4, 10)
            assert np.allclose(raw.mean(axis=0), outcome.curve)

    def test_workers_do_not_change_results(self):
        config = parse_config(json.loads(json.dumps(TINY_CONFIG)))
        serial = run_simulation(config, workers=1)
        parallel = run_simulation(config, workers=2)
        for scheme in config.schemes:
            assert serial.schemes[scheme].map == parallel.schemes[scheme].map
            assert np.array_equal(
                serial.schemes[scheme].curve, parallel.schemes[scheme].curve
            )

    # N = 82, and N = 2,107, past the 2,000 vertices above which a second
    # sampler was once used
    @pytest.mark.parametrize("n_sizes", [[30, 20, 25], [900, 700, 500]])
    def test_replicate_graph_is_sample_then_shuffle(self, monkeypatch, n_sizes):
        # seeds in two blocks, so the seed prefix is not one block
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"]["m_sizes"] = [4, 0, 3]
        cfg["model"]["n_sizes"] = n_sizes
        config = parse_config(cfg)
        seen = []
        monkeypatch.setattr(harness, "_nominate_all",
                            lambda graph, *args: seen.append(graph))
        model = build_model(config)
        m = model.m
        simulation = harness._Simulation.of(config)
        for r in range(3):
            simulation.replicate(r)
            free = sample_sbm(model, contiguous_assignment(model),
                              harness._replicate_seed(config.master_seed, r, 0))
            perm = harness._ambiguous_permutation(config, r, model.n)
            order = np.concatenate([np.arange(m), m + perm])
            assert np.array_equal(seen[r].adjacency, free.adjacency[np.ix_(order, order)])
            assert np.array_equal(seen[r].seed_labels, free.seed_labels)
            assert np.array_equal(seen[r].true_labels, free.true_labels[perm])

    def test_canonical_guard(self):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"]["n_sizes"] = [20, 20, 20]
        cfg["hyperparameters"] = {"enumeration_guard": 1000}
        with pytest.raises(InfeasibleEnumerationError):
            run_simulation(parse_config(cfg))


# Runs each config at 1, 2 and 3 workers under the start method argv[1] and
# checks that the summaries agree.
_WORKER_RUNS = """
import json, multiprocessing, sys
from vnom import harness
multiprocessing.set_start_method(sys.argv[1])
for data in sys.argv[2:]:
    config = harness.parse_config(json.loads(data))
    run = harness.run_simulation if config.mode == "simulation" else harness.run_realdata
    summaries = [harness._summary_json(run(config, workers=w)) for w in (1, 2, 3)]
    assert summaries[1] == summaries[0] == summaries[2], config.name
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_agree_under_start_methods_that_pickle_the_run(method, tmp_path):
    # Under spawn and forkserver, as under fork, each chunk of replicates
    # reaches its worker as a pickled run.replicate. Five real-data
    # replicates split unevenly over the workers; two simulation replicates
    # are fewer than three workers.
    edges, labels = two_class_files(tmp_path)
    realdata = {"name": "realdata", "mode": "realdata", "schemes": ["likelihood", "spectral"],
                "replicates": 5, "master_seed": 5150,
                "data": {"edges": str(edges), "labels": str(labels), "K": 2,
                         "seed_counts": [20, 20]}}
    small = json.loads((CONFIG_DIR / "small.json").read_text(encoding="utf-8"))
    small["replicates"] = 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _WORKER_RUNS, method, json.dumps(realdata),
                           json.dumps(small)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestEmitResults:
    def test_csv_and_json_outputs(self, tmp_path):
        config = parse_config(json.loads(json.dumps(TINY_CONFIG)))
        result = run_simulation(config, log_raw=True)
        csv_path = tmp_path / "curve.csv"
        json_path = tmp_path / "summary.json"
        emit_results(result, csv_path=str(csv_path), json_path=str(json_path))
        lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 11  # header + one row per list position
        assert lines[0].split(",") == [
            "position", "canonical", "likelihood", "spectral", "chance",
        ]
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["master_seed"] == 99
        assert payload["n1"] == 4
        for scheme in config.schemes:
            assert payload["schemes"][scheme]["map"] == result.schemes[scheme].map
        raw_path = tmp_path / "curve.csv.raw.csv"
        assert raw_path.exists()
        timing_path = tmp_path / "summary.json.timing.json"
        assert timing_path.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        config = parse_config(json.loads(json.dumps(TINY_CONFIG)))
        blobs = []
        for tag in ("a", "b"):
            result = run_simulation(config)
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            emit_results(result, csv_path=str(csv_path), json_path=str(json_path))
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blobs[0] == blobs[1]


class TestRunRealdata:
    def test_protocol_runs_and_scores(self, tmp_path):
        lam = np.array([[0.7, 0.2], [0.2, 0.7]])
        model = BlockModel(m_sizes=(0, 0), n_sizes=(30, 30), lam=lam)
        edges, labels = write_sbm_dataset(tmp_path, model, 5)
        config = parse_config({
            "name": "realdata",
            "mode": "realdata",
            "schemes": ["likelihood", "spectral"],
            "replicates": 3,
            "master_seed": 17,
            "data": {"edges": edges, "labels": labels, "K": 2,
                     "seed_counts": [6, 6]},
            "hyperparameters": {"d": 2},
        })
        result = run_realdata(config)
        assert result.n == 48
        assert result.n1 == 24
        assert result.chance == pytest.approx(0.5)
        # strong two-block structure: both schemes clear chance easily
        assert result.schemes["likelihood"].map > 0.6
        assert result.schemes["spectral"].map > 0.6

    def test_instance_is_a_symmetric_gather_of_the_dataset(self, tmp_path):
        # The instance skips the constructor's symmetry scan: it is a
        # principal submatrix of the checked dataset graph.
        model = BlockModel(m_sizes=(0, 0), n_sizes=(20, 21), lam=[[0.6, 0.3], [0.3, 0.5]])
        dataset = sample_sbm(model, contiguous_assignment(model), 8)
        edges, labels = write_sbm_dataset(tmp_path, model, 8)
        config = parse_config({
            "mode": "realdata", "schemes": ["spectral"], "replicates": 1,
            "master_seed": 3, "data": {"edges": edges, "labels": labels, "K": 2},
        })
        for pool_sizes in (None, [15, 16]):
            order, graph, _ = harness._labeled_instance(config, harness._load_dataset(config),
                                                        0, [4, 5], pool_sizes)
            assert core._is_symmetric(graph.packed)
            assert graph.packed.flags.c_contiguous
            assert np.array_equal(graph.adjacency, dataset.adjacency[np.ix_(order, order)])

    def test_instance_gathered_in_strips(self, tmp_path, monkeypatch):
        # A strip budget of three rows' bytes splits the gather into
        # strips of three rows and a shorter last one.
        model = BlockModel(m_sizes=(0, 0), n_sizes=(20, 21), lam=[[0.6, 0.3], [0.3, 0.5]])
        dataset = sample_sbm(model, contiguous_assignment(model), 8)
        edges, labels = write_sbm_dataset(tmp_path, model, 8)
        config = parse_config({
            "mode": "realdata", "schemes": ["spectral"], "replicates": 1,
            "master_seed": 3, "data": {"edges": edges, "labels": labels, "K": 2},
        })
        monkeypatch.setattr(harness, "_STRIP_BYTES", 3 * 41 + 2)
        for pool_sizes in (None, [15, 16]):
            order, graph, _ = harness._labeled_instance(config, harness._load_dataset(config),
                                                        0, [4, 5], pool_sizes)
            assert np.array_equal(graph.adjacency, dataset.adjacency[np.ix_(order, order)])

    def test_instance_memory_is_bounded(self, tmp_path):
        # The instance's packed rows are N^2 / 8 bytes; unpacking all of
        # the rows would take N^2.
        N = 3000
        rng = np.random.default_rng(11)
        pairs = rng.integers(1, N + 1, size=(20000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
        edges.write_text(f"#vertices {N}\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        labels.write_text("".join(f"{v} {1 + v % 2}\n" for v in range(1, N + 1)))
        config = parse_config({
            "mode": "realdata", "schemes": ["spectral"], "replicates": 1, "master_seed": 3,
            "data": {"edges": str(edges), "labels": str(labels), "K": 2},
        })
        dataset = harness._load_dataset(config)
        harness._labeled_instance(config, dataset, 0, [20, 20])
        tracemalloc.start()
        try:
            order, graph, _ = harness._labeled_instance(config, dataset, 1, [20, 20])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.num_vertices == len(order) == N
        assert peak < N * N / 2

    def test_vertex_ids_do_not_leak_into_null_map(self, tmp_path):
        # Isolated vertices tie, so a tie-break by file id would list the
        # class-sorted file's class-1 vertices first. The same graph with
        # randomly permuted ids must score the same within Monte-Carlo
        # error. (Each graph's MAP sits off 0.5 by a graph-level amount
        # that the replicate SE does not cover, so the two files are
        # compared with each other, not with chance.)
        adjacency, labels = null_graph_with_isolates(2024)
        perm = np.random.default_rng(7).permutation(len(labels))
        inverse = np.argsort(perm)
        files = {
            "sorted": write_dataset(tmp_path, adjacency, labels),
            "permuted": write_dataset(
                tmp_path, adjacency[np.ix_(inverse, inverse)], labels[inverse], "_p"
            ),
        }
        results = {}
        for name, (edges, labels_path) in files.items():
            config = parse_config({
                "name": f"null-{name}",
                "mode": "realdata",
                "schemes": ["likelihood", "spectral"],
                "replicates": 20,
                "master_seed": 1,
                "data": {"edges": edges, "labels": labels_path, "K": 2,
                         "seed_counts": [20, 20]},
            })
            results[name] = run_realdata(config)
        assert results["sorted"].chance == pytest.approx(0.5)
        for scheme in ("likelihood", "spectral"):
            a = results["sorted"].schemes[scheme]
            b = results["permuted"].schemes[scheme]
            assert abs(a.map - b.map) <= 3 * np.hypot(a.se, b.se), scheme

    def test_non_integer_label_field_rejected(self, tmp_path):
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("# vertex block\n1 1\n2 x\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"labels\.txt:3: non-integer field"):
            harness._load_full_labels(str(labels_path), 2)

    @pytest.mark.parametrize("text, message", [
        ("1 1\n2 2 2\n", r"labels\.txt:2: expected 'vertex block'"),
        ("1 1\n2 3\n", r"labels\.txt:2: block 3 outside 1\.\.2"),
        ("0 1\n", r"labels\.txt:1: vertex ids are 1-based"),
        ("1 1\n2 0\n", r"labels\.txt:2: block ids are 1-based"),
        ("# vertex block\n\n", r"labels\.txt: no labels found"),
        ("1 1\n3 2\n", r"labels\.txt: labels must cover vertices 1\.\.3 exactly"),
        ("1 1\n2 2\n3 1\n2 1\n", r"labels\.txt:4: vertex 2 listed twice"),
    ])
    def test_malformed_labels_file_rejected(self, tmp_path, text, message):
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            harness._load_full_labels(str(labels_path), 2)

    def test_degenerate_lambda_hat_on_edgeless_graph(self, tmp_path, monkeypatch):
        # No seed pair has an edge, so every entry of Lambda-hat is clamped
        # to eps, every partition is equally likely, and the schemes must
        # still return valid lists.
        labels = np.repeat([1, 2], 10)
        edges, labels_path = write_dataset(tmp_path, np.zeros((20, 20), dtype=bool), labels)
        config = parse_config({
            "name": "edgeless",
            "mode": "realdata",
            "schemes": ["canonical", "likelihood", "spectral"],
            "replicates": 3,
            "master_seed": 4,
            "data": {"edges": edges, "labels": labels_path, "K": 2,
                     "seed_counts": [3, 3]},
        })

        def recording(fn, seen):
            def wrapper(*args, **kwargs):
                seen.append(fn(*args, **kwargs))
                return seen[-1]
            return wrapper

        lambdas, aps = [], []
        monkeypatch.setattr(harness, "estimate_lambda", recording(harness.estimate_lambda, lambdas))
        monkeypatch.setattr(harness, "average_precision", recording(harness.average_precision, aps))
        result = run_realdata(config)
        assert len(lambdas) == 3 and len(aps) == 9
        for lam in lambdas:
            assert np.all(lam == config.hyper.eps)
        assert all(0.0 <= ap <= 1.0 for ap in aps)
        assert (result.n, result.n1) == (14, 7)
        _, graph, model = harness._labeled_instance(config, harness._load_dataset(config),
                                                    0, [3, 3])
        prob = conditional_block1_probability(graph, model).prob
        assert np.allclose(prob, 7 / 14, atol=1e-12, rtol=0)

    def test_oversized_seed_request_rejected(self, tmp_path):
        lam = np.array([[0.7, 0.2], [0.2, 0.7]])
        model = BlockModel(m_sizes=(0, 0), n_sizes=(10, 10), lam=lam)
        edges, labels = write_sbm_dataset(tmp_path, model, 6)
        config = parse_config({
            "name": "realdata",
            "mode": "realdata",
            "schemes": ["spectral"],
            "replicates": 1,
            "master_seed": 1,
            "data": {"edges": edges, "labels": labels, "K": 2,
                     "seed_counts": [11, 2]},
            "hyperparameters": {"d": 2},
        })
        with pytest.raises(ConfigError):
            run_realdata(config)

    # A '#vertices' header below the label count used to fail with an
    # IndexError; one above it dropped the unlabeled vertices silently.
    @pytest.mark.parametrize("declared", [50, 70])
    def test_vertex_count_disagreeing_with_labels_rejected(self, tmp_path, declared):
        model = BlockModel(m_sizes=(0, 0), n_sizes=(30, 30), lam=[[0.3, 0.05], [0.05, 0.2]])
        graph = sample_sbm(model, contiguous_assignment(model), 4)
        # edges among the first 50 vertices only, so every header is valid
        edges, labels = write_dataset(tmp_path, graph.adjacency[:50, :50], graph.true_labels)
        text = Path(edges).read_text(encoding="utf-8")
        Path(edges).write_text(text.replace("#vertices 60", f"#vertices {declared}"),
                               encoding="utf-8")
        config = parse_config({
            "mode": "realdata", "schemes": ["spectral"], "replicates": 1, "master_seed": 1,
            "data": {"edges": edges, "labels": labels, "K": 2, "seed_counts": [5, 5]},
            "hyperparameters": {"d": 2},
        })
        with pytest.raises(ConfigError, match=rf"edges\.txt declares {declared} vertices, "
                                              r"but .*labels\.txt labels 60"):
            run_realdata(config)


class TestDatasetCache:
    """run_realdata reads each dataset once while its files are unchanged,
    embeds it once per d and gives every replicate the cached rows in its
    own vertex order."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(harness, "_dataset_cache", {})

    @staticmethod
    def realdata_config(tmp_path, n_sizes, d=2, schemes=("spectral",)):
        model = BlockModel(m_sizes=(0, 0), n_sizes=n_sizes, lam=[[0.3, 0.05], [0.05, 0.2]])
        edges, labels = write_sbm_dataset(tmp_path, model, 11)
        return parse_config({
            "name": "cache", "mode": "realdata", "schemes": list(schemes),
            "replicates": 5, "master_seed": 5,
            "data": {"edges": edges, "labels": labels, "K": 2, "seed_counts": [8, 8]},
            "hyperparameters": {"d": d},
        })

    @staticmethod
    def counting_embed(monkeypatch):
        calls = []
        embed = spectral.embed

        def counted(graph, d):
            calls.append((graph.num_vertices, d))
            return embed(graph, d)

        monkeypatch.setattr(spectral, "embed", counted)
        return calls

    def test_embed_runs_once_per_dataset_and_d(self, tmp_path, monkeypatch):
        calls = self.counting_embed(monkeypatch)
        for d in (2, 1, 2):
            run_realdata(self.realdata_config(tmp_path, (30, 40), d=d))
        assert calls == [(70, 2), (70, 1)]

    # N = 70 takes the dense eigensolver, N = 300 Lanczos
    @pytest.mark.parametrize("n_sizes", [(30, 40), (140, 160)])
    def test_cached_rows_match_a_fresh_embedding(self, tmp_path, n_sizes):
        config = self.realdata_config(tmp_path, n_sizes)
        dataset = harness._load_dataset(config)
        for replicate in range(config.replicates):
            order, graph, model = harness._labeled_instance(config, dataset, replicate, [8, 8])
            cached = dataset.embedding(2, order)
            fresh = spectral.embed(graph, 2)
            signs = np.sign(np.sum(cached.X * fresh.X, axis=0))
            assert np.max(np.abs(cached.X * signs - fresh.X)) <= 1e-10
            assert np.allclose(cached.eigenvalues, fresh.eigenvalues, rtol=0, atol=1e-10)
            lists = [spectral.spectral_nominate(graph, 2, d=2, rng_seed=replicate,
                                                embedding=embedding).order
                     for embedding in (cached, None)]
            assert np.array_equal(lists[0], lists[1])

    def test_embedding_of_another_shape_rejected(self, tmp_path):
        config = self.realdata_config(tmp_path, (30, 40))
        dataset = harness._load_dataset(config)
        order, graph, _ = harness._labeled_instance(config, dataset, 0, [8, 8])
        embedding = dataset.embedding(1, order)
        with pytest.raises(ValueError, match="embedding must be 70 x 2"):
            spectral.spectral_nominate(graph, 2, d=2, embedding=embedding)

    def test_outputs_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        config = self.realdata_config(tmp_path, (30, 40),
                                      schemes=("likelihood", "spectral"))
        blobs = []
        for workers in (1, 2):
            # an empty cache, so that each worker process embeds for itself
            monkeypatch.setattr(harness, "_dataset_cache", {})
            result = run_realdata(config, workers=workers, log_raw=True)
            csv_path, json_path = tmp_path / f"{workers}.csv", tmp_path / f"{workers}.json"
            emit_results(result, csv_path=str(csv_path), json_path=str(json_path))
            raw_path = Path(f"{csv_path}.raw.csv")
            blobs.append([path.read_bytes() for path in (csv_path, raw_path, json_path)])
        assert blobs[0] == blobs[1]

    def test_runs_read_and_resolve_the_dataset_once(self, tmp_path, monkeypatch):
        config = self.realdata_config(tmp_path, (30, 40))
        subsample = parse_config({
            "mode": "subsample", "replicates": 3, "master_seed": 5,
            "data": {**config.data, "subsample_sizes": [20, 20], "seeds_per_class": [5, 5]},
        })
        calls = count_calls(monkeypatch, ("load_edge_list", "_load_dataset"))
        for run in (run_realdata, run_realdata, run_subsample_average):
            run(config if run is run_realdata else subsample)
        # three runs of 5, 5 and 3 replicates on unchanged files
        assert calls == {"load_edge_list": 1, "_load_dataset": 3}

    def test_rewritten_edge_file_is_read_again(self, tmp_path):
        strong = BlockModel(m_sizes=(0, 0), n_sizes=(30, 30), lam=[[0.7, 0.1], [0.1, 0.7]])
        null = BlockModel(m_sizes=(0, 0), n_sizes=(30, 30), lam=[[0.3, 0.3], [0.3, 0.3]])
        edges, labels = write_sbm_dataset(tmp_path, strong, 3)
        data = {
            "name": "rewritten", "mode": "realdata", "schemes": ["likelihood", "spectral"],
            "replicates": 4, "master_seed": 8,
            "data": {"edges": edges, "labels": labels, "K": 2, "seed_counts": [6, 6]},
        }
        first = harness._summary_json(run_realdata(parse_config(data)))
        stat = os.stat(edges)
        assert write_sbm_dataset(tmp_path, null, 3) == (edges, labels)
        # the old modification time, so that a check of the time alone sees no change
        os.utime(edges, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        second = harness._summary_json(run_realdata(parse_config(data)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\nfrom vnom import harness\n"
             "config = harness.parse_config(json.loads(sys.argv[1]))\n"
             "sys.stdout.write(harness._summary_json(harness.run_realdata(config)))\n",
             json.dumps(data)],
            env=env, check=True, capture_output=True, text=True,
        )
        assert second == fresh.stdout != first

    def test_entry_holds_packed_rows(self, tmp_path):
        run_realdata(self.realdata_config(tmp_path, (30, 43)))
        (entry,) = harness._dataset_cache.values()
        N = 73
        assert entry.graph.packed.dtype == np.uint8
        assert entry.graph.packed.shape == (N, 10)
        arrays = [v for v in vars(entry).values() if isinstance(v, np.ndarray)]
        arrays += [entry.graph.packed, entry.graph.seed_labels]
        assert all(a.nbytes < N * N for a in arrays)


# The vnom.harness attributes that perfbench replaces with timing wrappers.
PERFBENCH_HOOKS = ("sample_sbm", "sample_sbm_blockwise", "load_edge_list", "estimate_lambda",
                   "canonical_nominate", "likelihood_nominate", "spectral_nominate",
                   "average_precision")


def test_perfbench_hooks_are_called_through_the_module(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, PERFBENCH_HOOKS)
    monkeypatch.setattr(harness, "_dataset_cache", {})
    model = BlockModel(m_sizes=(0, 0), n_sizes=(8, 8), lam=[[0.6, 0.2], [0.2, 0.5]])
    edges, labels = write_sbm_dataset(tmp_path, model, 2)
    run_simulation(parse_config({**TINY_CONFIG, "replicates": 1}))
    run_realdata(parse_config({
        "mode": "realdata", "schemes": list(harness.SCHEMES), "replicates": 1,
        "master_seed": 2, "data": {"edges": edges, "labels": labels, "K": 2,
                                   "seed_counts": [3, 3]},
    }))
    # perfbench still patches the blockwise alias, which the harness no longer calls
    assert {name for name, count in calls.items() if count == 0} == {"sample_sbm_blockwise"}


class TestRunSubsampleAverage:
    def test_classes_separate(self, tmp_path):
        lam = np.array([[0.8, 0.1], [0.1, 0.8]])
        model = BlockModel(m_sizes=(0, 0), n_sizes=(40, 40), lam=lam)
        edges, labels = write_sbm_dataset(tmp_path, model, 8)
        config = parse_config({
            "name": "subsample",
            "mode": "subsample",
            "schemes": [],
            "replicates": 8,
            "master_seed": 23,
            "data": {"edges": edges, "labels": labels, "K": 2,
                     "subsample_sizes": [20, 20], "seeds_per_class": [8, 8]},
        })
        table = run_subsample_average(config)
        truth = table["vertex_class"]
        mean_pos = table["mean_position"]
        picked = table["times_selected"] > 0
        class1 = np.nanmean(mean_pos[picked & (truth == 1)])
        class2 = np.nanmean(mean_pos[picked & (truth == 2)])
        assert class1 < class2
        csv_text = subsample_table_csv(table)
        assert csv_text.startswith("vertex,class,times_selected,mean_position")
        assert len(csv_text.strip().split("\n")) == 81

    def test_classes_do_not_separate_on_null_graph(self, tmp_path):
        # with class-sorted ids and tied isolated vertices, an id tie-break
        # would give class 1 the earlier positions
        adjacency, labels = null_graph_with_isolates(2024)
        edges, labels_path = write_dataset(tmp_path, adjacency, labels)
        config = parse_config({
            "name": "subsample-null",
            "mode": "subsample",
            "schemes": [],
            "replicates": 20,
            "master_seed": 1,
            "data": {"edges": edges, "labels": labels_path, "K": 2,
                     "subsample_sizes": [50, 50], "seeds_per_class": [10, 10]},
        })
        table = run_subsample_average(config)
        picked = table["times_selected"] > 0
        by_class = [
            table["mean_position"][picked & (table["vertex_class"] == k)]
            for k in (1, 2)
        ]
        se = np.hypot(*(np.std(x, ddof=1) / np.sqrt(len(x)) for x in by_class))
        assert abs(by_class[0].mean() - by_class[1].mean()) <= 3 * se

    def test_oversized_subsample_rejected(self, tmp_path):
        lam = np.array([[0.8, 0.1], [0.1, 0.8]])
        model = BlockModel(m_sizes=(0, 0), n_sizes=(10, 10), lam=lam)
        edges, labels = write_sbm_dataset(tmp_path, model, 9)
        config = parse_config({
            "name": "subsample",
            "mode": "subsample",
            "schemes": [],
            "replicates": 1,
            "master_seed": 1,
            "data": {"edges": edges, "labels": labels, "K": 2,
                     "subsample_sizes": [50, 50], "seeds_per_class": [5, 5]},
        })
        with pytest.raises(ConfigError):
            run_subsample_average(config)
