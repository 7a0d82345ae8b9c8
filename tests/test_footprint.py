"""Import footprint: no module of the package imports SciPy, no run of the
program loads it, a one-worker run loads no process pool, and a realdata
run loads no numpy.ma.

The static check reads the sources; each check of a run runs in a fresh
interpreter, since this test process may have loaded SciPy already (the
tests use it as a reference)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import two_class_files

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path):
    """Every module name that an import statement in `path` names, at any
    depth: in a function body or a branch as well as at the top."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def test_no_module_imports_scipy():
    sources = sorted((ROOT / "src" / "vnom").rglob("*.py"))
    assert sources
    found = [(path.name, name) for path in sources for name in _imported_modules(path)
             if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def _modules_after(code, packages=("scipy",)):
    """The sorted names of the modules of `packages` loaded after running
    `code` in a fresh interpreter with this tree's vnom on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code += (
        "\nimport json, sys\n"
        f"packages = {list(packages)!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if any(m == p or m.startswith(p + '.') for p in packages))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


SMALL_RUN = f"""
import dataclasses
import vnom, vnom.harness, vnom.cli
config = vnom.harness.load_config({str(ROOT / "configs" / "small.json")!r})
assert set(config.schemes) == set(vnom.harness.SCHEMES)
vnom.harness.run_simulation(dataclasses.replace(config, replicates=3))
"""


def test_small_experiment_loads_no_scipy():
    assert _modules_after(SMALL_RUN) == []


def test_one_worker_run_loads_no_process_pool():
    # only a run with workers > 1 needs concurrent.futures' process pool
    loaded = _modules_after(SMALL_RUN, ("multiprocessing", "concurrent.futures.process"))
    assert loaded == []


def test_lanczos_embedding_and_realdata_load_no_scipy(tmp_path):
    edges, labels = two_class_files(tmp_path)
    code = f"""
from vnom import harness, spectral
from vnom.core import BlockModel, contiguous_assignment, sample_sbm
model = BlockModel(m_sizes=(10, 10), n_sizes=(150, 150), lam=[[0.5, 0.2], [0.2, 0.4]])
graph = sample_sbm(model, contiguous_assignment(model), 1)
assert graph.num_vertices > spectral._DENSE_LIMIT
spectral.embed(graph, 2)
config = harness.parse_config({{
    "name": "footprint", "mode": "realdata", "schemes": ["likelihood", "spectral"],
    "replicates": 2, "master_seed": 1,
    "data": {{"edges": {str(edges)!r}, "labels": {str(labels)!r}, "K": 2,
             "seed_counts": [20, 20]}},
}})
harness.run_realdata(config)
"""
    assert _modules_after(code, ("scipy", "numpy.ma")) == []
