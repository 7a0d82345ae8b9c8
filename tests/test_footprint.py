"""Import footprint: no run of the program loads SciPy.

Each check runs in a fresh interpreter, since this test process may have
loaded SciPy already (the tests use it as a reference)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import two_class_files

ROOT = Path(__file__).resolve().parents[1]


def _scipy_modules_after(code):
    """The sorted names of the SciPy modules loaded after running `code`
    in a fresh interpreter with this tree's vnom on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_small_experiment_loads_no_scipy():
    code = f"""
import dataclasses
import vnom, vnom.harness, vnom.cli
config = vnom.harness.load_config({str(ROOT / "configs" / "small.json")!r})
assert set(config.schemes) == set(vnom.harness.SCHEMES)
vnom.harness.run_simulation(dataclasses.replace(config, replicates=3))
"""
    assert _scipy_modules_after(code) == []


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
    assert _scipy_modules_after(code) == []
