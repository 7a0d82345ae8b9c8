"""Command-line interface: subcommands and exit codes."""

import json

import numpy as np
import pytest

import vnom
from vnom.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, main
from vnom.core import BlockModel, contiguous_assignment, sample_sbm

SMALL_LAMBDA = {
    "K": 3,
    "lambda": [[0.5, 0.3, 0.4], [0.3, 0.8, 0.6], [0.4, 0.6, 0.3]],
}


@pytest.fixture
def lambda_file(tmp_path):
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps(SMALL_LAMBDA), encoding="utf-8")
    return str(path)


@pytest.fixture
def sampled_files(tmp_path, lambda_file):
    edges = tmp_path / "edges.txt"
    labels = tmp_path / "labels.txt"
    truth = tmp_path / "truth.txt"
    code = main([
        "sample", "--lambda", lambda_file,
        "--m-sizes", "4,0,0", "--n-sizes", "4,3,3",
        "--seed", "11",
        "--edges-out", str(edges), "--labels-out", str(labels),
        "--truth-out", str(truth),
    ])
    assert code == EXIT_OK
    return str(edges), str(labels)


def test_version(capsys):
    assert main(["version"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == vnom.__version__


def test_sample_writes_files(sampled_files):
    edges, labels = sampled_files
    header = open(edges, encoding="utf-8").readline()
    assert header.strip() == "#vertices 14"
    label_lines = open(labels, encoding="utf-8").read().strip().split("\n")
    assert label_lines == ["1 1", "2 1", "3 1", "4 1"]


def test_sample_edge_list_matches_whole_matrix_formula(tmp_path, lambda_file):
    # N = 150: more than two 64-row strips, and a multiple of neither 8 nor 64
    edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
    assert main(["sample", "--lambda", lambda_file, "--m-sizes", "6,0,4",
                 "--n-sizes", "60,45,35", "--seed", "3",
                 "--edges-out", str(edges), "--labels-out", str(labels)]) == EXIT_OK
    model = BlockModel(m_sizes=(6, 0, 4), n_sizes=(60, 45, 35), lam=SMALL_LAMBDA["lambda"])
    graph = sample_sbm(model, contiguous_assignment(model), 3)
    expected = "#vertices 150\n" + "".join(
        f"{a + 1} {b + 1}\n" for a, b in np.argwhere(np.triu(graph.adjacency, k=1)))
    assert edges.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("scheme", ["canonical", "likelihood", "spectral"])
def test_nominate_prints_one_based_ids(scheme, sampled_files, lambda_file, capsys):
    edges, labels = sampled_files
    argv = [
        "nominate", "--scheme", scheme, "--graph", edges, "--labels", labels,
        "--lambda", lambda_file,
    ]
    if scheme != "spectral":
        argv += ["--sizes", "4,3,3"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    ids = sorted(int(x) for x in out)
    assert ids == list(range(5, 15))


@pytest.mark.parametrize("scheme", ["canonical", "likelihood", "spectral"])
def test_nominate_rejects_seed_block_above_k(scheme, sampled_files, lambda_file, tmp_path,
                                              capsys):
    edges, _ = sampled_files
    labels = tmp_path / "bad_labels.txt"
    labels.write_text("1 1\n2 1\n3 1\n4 4\n", encoding="utf-8")
    argv = [
        "nominate", "--scheme", scheme, "--graph", edges, "--labels", str(labels),
        "--lambda", lambda_file, "--sizes", "4,3,3",
    ]
    assert main(argv) == EXIT_CONFIG
    assert "bad_labels.txt: vertex 4 has block 4 outside 1..3" in capsys.readouterr().err


def test_nominate_invalid_lambda_json_names_the_file(sampled_files, tmp_path, capsys):
    edges, labels = sampled_files
    empty = tmp_path / "empty_lambda.json"
    empty.write_text("", encoding="utf-8")
    code = main(["nominate", "--scheme", "spectral", "--graph", edges,
                 "--labels", labels, "--lambda", str(empty)])
    assert code == EXIT_CONFIG == 2
    assert f"error: {empty}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--graph", "--labels", "--lambda"])
def test_nominate_non_utf8_file_names_it(option, sampled_files, lambda_file, tmp_path, capsys):
    edges, labels = sampled_files
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    files = {"--graph": edges, "--labels": labels, "--lambda": lambda_file, option: str(binary)}
    argv = ["nominate", "--scheme", "spectral"] + [a for pair in files.items() for a in pair]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {binary}: " in capsys.readouterr().err


def test_nominate_requires_sizes(sampled_files, lambda_file, capsys):
    edges, labels = sampled_files
    code = main([
        "nominate", "--scheme", "canonical", "--graph", edges,
        "--labels", labels, "--lambda", lambda_file,
    ])
    assert code == EXIT_CONFIG


def test_experiment_runs_config(tmp_path, capsys):
    config = {
        "name": "cli-tiny",
        "mode": "simulation",
        "schemes": ["spectral"],
        "replicates": 2,
        "master_seed": 5,
        "model": {
            "K": 3,
            "base_lambda": SMALL_LAMBDA["lambda"],
            "theta": 1.0,
            "m_sizes": [4, 0, 0],
            "n_sizes": [4, 3, 3],
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    csv_out = tmp_path / "curve.csv"
    json_out = tmp_path / "summary.json"
    code = main([
        "experiment", "--config", str(path),
        "--csv-out", str(csv_out), "--json-out", str(json_out),
    ])
    assert code == EXIT_OK
    assert csv_out.exists() and json_out.exists()
    out = capsys.readouterr().out
    assert "spectral: MAP=" in out
    assert "chance: 0.4000" in out


def test_experiment_bad_config_exit(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"mode": "simulation"}', encoding="utf-8")
    assert main(["experiment", "--config", str(path)]) == EXIT_CONFIG


def test_experiment_non_utf8_config_names_it(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["experiment", "--config", str(path)]) == EXIT_CONFIG
    assert f"error: {path}: " in capsys.readouterr().err


def test_experiment_missing_config_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["experiment", "--config", str(missing)]) == EXIT_IO


def test_experiment_infeasible_canonical_exit(tmp_path, capsys):
    config = {
        "name": "too-big",
        "mode": "simulation",
        "schemes": ["canonical"],
        "replicates": 1,
        "master_seed": 5,
        "model": {
            "K": 3,
            "base_lambda": SMALL_LAMBDA["lambda"],
            "theta": 1.0,
            "m_sizes": [4, 0, 0],
            "n_sizes": [20, 20, 20],
        },
        "hyperparameters": {"enumeration_guard": 1000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", str(path)]) == EXIT_INFEASIBLE


BAD_HYPERPARAMETERS = [
    ("eps", 0), ("eps", 0.5), ("eps", "small"), ("sgm_max_iter", 0), ("sgm_tol", 0.0),
    ("kmeans_restarts", 0), ("sgm_restarts", 0), ("d", 0), ("d", 1.5),
    ("enumeration_guard", 0),
]


@pytest.mark.parametrize("key, value", BAD_HYPERPARAMETERS)
def test_experiment_rejects_bad_hyperparameter(key, value, tmp_path, capsys):
    config = {
        "name": "bad-hyper",
        "mode": "simulation",
        "schemes": ["canonical", "likelihood", "spectral"],
        "replicates": 1,
        "master_seed": 5,
        "model": {
            "K": 2,
            "base_lambda": [[1.0, 0.0], [0.0, 1.0]],
            "m_sizes": [1, 1],
            "n_sizes": [3, 3],
        },
        "hyperparameters": {key: value},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"hyperparameters.{key} must be" in captured.err
    assert captured.out == ""


def _field_config(key, value):
    """A small valid config with one field, named by its dotted key, set to value."""
    config = {
        "name": "bad-field",
        "mode": "simulation",
        "schemes": ["spectral"],
        "replicates": 1,
        "master_seed": 5,
        "model": {
            "K": 2,
            "base_lambda": [[0.5, 0.2], [0.2, 0.5]],
            "theta": 1.0,
            "m_sizes": [1, 1],
            "n_sizes": [3, 3],
        },
    }
    if key == "data.K":
        config["mode"] = "realdata"
        config["data"] = {"edges": "edges.txt", "labels": "labels.txt", "K": value,
                          "seed_counts": [1, 1]}
        return config
    section, _, name = key.rpartition(".")
    (config[section] if section else config)[name] = value
    return config


BAD_FIELDS = [
    ("replicates", "abc"), ("master_seed", "seed"), ("model.K", "three"),
    ("model.base_lambda", [[0.5, "x"], ["x", 0.5]]), ("model.theta", "high"),
    ("model.m_sizes", ["one", 1]), ("model.n_sizes", 3), ("data.K", "two"),
    # int() would truncate these silently
    ("replicates", 2.7), ("master_seed", 1.9), ("model.K", 3.6),
    ("model.m_sizes", [1.5, 1]), ("model.n_sizes", [3, 2.5]), ("data.K", 2.5),
    ("replicates", True), ("model.K", False), ("model.m_sizes", [True, 1]),
    ("data.K", True), ("master_seed", float("inf")), ("replicates", float("nan")),
    ("master_seed", -1),
]


@pytest.mark.parametrize("key, value", BAD_FIELDS)
def test_experiment_names_a_field_that_fails_conversion(key, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_field_config(key, value)), encoding="utf-8")
    assert main(["experiment", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"error: {key} must be" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, key, value", [
    ("experiment", "seed_counts", [12.7, 12.2]),
    ("subsample", "subsample_sizes", [20.5, 20]),
    ("subsample", "seeds_per_class", [8, 7.9]),
    ("experiment", "seed_counts", [12, -1]),
    ("subsample", "subsample_sizes", [-20, 20]),
    ("subsample", "seeds_per_class", [8, -8]),
])
def test_fractional_data_count_names_its_key(command, key, value, tmp_path, capsys):
    # int() would run [12.7, 12.2] as [12, 12]
    model = BlockModel(m_sizes=(0, 0), n_sizes=(30, 30), lam=[[0.6, 0.2], [0.2, 0.6]])
    graph = sample_sbm(model, contiguous_assignment(model), 4)
    edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
    edges.write_text("".join(f"{a + 1} {b + 1}\n"
                             for a, b in np.argwhere(np.triu(graph.adjacency, k=1))),
                     encoding="utf-8")
    labels.write_text("".join(f"{v} {k}\n" for v, k in enumerate(graph.true_labels, 1)),
                      encoding="utf-8")
    data = {"edges": str(edges), "labels": str(labels), "K": 2, "seed_counts": [12, 12],
            "subsample_sizes": [20, 20], "seeds_per_class": [8, 8], key: value}
    config = {"name": "fractional", "mode": "realdata" if command == "experiment" else "subsample",
              "schemes": ["spectral"], "replicates": 1, "master_seed": 3, "data": data}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"error: data.{key} must be a list of integers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("declared", [50, 70])
def test_experiment_rejects_vertex_count_disagreeing_with_labels(declared, tmp_path, capsys):
    model = BlockModel(m_sizes=(0, 0), n_sizes=(30, 30), lam=[[0.6, 0.2], [0.2, 0.6]])
    graph = sample_sbm(model, contiguous_assignment(model), 4)
    edges, labels = tmp_path / "edges.txt", tmp_path / "labels.txt"
    edges.write_text(f"#vertices {declared}\n" + "".join(
        f"{a + 1} {b + 1}\n" for a, b in np.argwhere(np.triu(graph.adjacency[:50, :50], k=1))),
        encoding="utf-8")
    labels.write_text("".join(f"{v} {k}\n" for v, k in enumerate(graph.true_labels, 1)),
                      encoding="utf-8")
    config = {"name": "mismatch", "mode": "realdata", "schemes": ["spectral"],
              "replicates": 1, "master_seed": 3,
              "data": {"edges": str(edges), "labels": str(labels), "K": 2,
                       "seed_counts": [5, 5]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"edges.txt declares {declared} vertices, but" in captured.err
    assert "labels.txt labels 60" in captured.err
    assert captured.out == ""


def test_subsample_command(tmp_path, capsys):
    # two-class dataset synthesized through the sample command is not
    # possible (it has three blocks), so write a small one directly
    import numpy as np

    from vnom.core import BlockModel, contiguous_assignment, sample_sbm

    lam = np.array([[0.8, 0.1], [0.1, 0.8]])
    model = BlockModel(m_sizes=(0, 0), n_sizes=(20, 20), lam=lam)
    graph = sample_sbm(model, contiguous_assignment(model), 2)
    edges = tmp_path / "edges.txt"
    labels = tmp_path / "labels.txt"
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write(f"#vertices {graph.num_vertices}\n")
        for a, b in np.argwhere(np.triu(graph.adjacency, k=1)):
            fh.write(f"{a + 1} {b + 1}\n")
    with open(labels, "w", encoding="utf-8") as fh:
        for v, blk in enumerate(graph.true_labels, start=1):
            fh.write(f"{v} {blk}\n")
    config = {
        "name": "cli-subsample",
        "mode": "subsample",
        "schemes": [],
        "replicates": 3,
        "master_seed": 7,
        "data": {
            "edges": str(edges), "labels": str(labels), "K": 2,
            "subsample_sizes": [10, 10], "seeds_per_class": [4, 4],
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    csv_out = tmp_path / "table.csv"
    assert main(["subsample", "--config", str(path), "--csv-out", str(csv_out)]) == EXIT_OK
    lines = csv_out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "vertex,class,times_selected,mean_position"
    assert len(lines) == 41


def test_subsample_rejects_simulation_config(tmp_path, capsys):
    config = {
        "name": "sim",
        "mode": "simulation",
        "schemes": ["spectral"],
        "replicates": 1,
        "master_seed": 5,
        "model": {
            "K": 3,
            "base_lambda": SMALL_LAMBDA["lambda"],
            "theta": 1.0,
            "m_sizes": [4, 0, 0],
            "n_sizes": [4, 3, 3],
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["subsample", "--config", str(path)]) == EXIT_CONFIG
