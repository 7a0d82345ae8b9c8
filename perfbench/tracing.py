"""Span tracing of vnom's layers from outside the package.

Each traced function is replaced, for the duration of a `patched` block,
by a wrapper on the module attribute through which its callers reach it
(for example `vnom.harness.sample_sbm`, not `vnom.core.sample_sbm`,
because the harness calls the name it imported). A wrapper records one
span (name, start, end, parent) and the counts read off the call's
arguments and result. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import resource
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics and their units, in report order.
PER_LAYER_UNITS = {
    "core.sample.s": "s",
    "core.sample.calls": "count",
    "core.load_edge_list.s": "s",
    "core.estimate_lambda.s": "s",
    "core.estimate_lambda.clamped": "count",
    "canonical.probability.s": "s",
    "canonical.partitions": "count",
    "sgm.lap.s": "s",
    "sgm.lap.calls": "count",
    "sgm.lap.small_calls": "count",
    "sgm.match.s": "s",
    "sgm.match.calls": "count",
    "sgm.fw_iterations": "count",
    "sgm.fw_unconverged": "count",
    "likelihood.mle.s": "s",
    "likelihood.scoring.s": "s",
    "likelihood.swap.s": "s",
    "likelihood.swap.calls": "count",
    "spectral.embed.s": "s",
    "spectral.embed.rss_rise_mb": "MB",
    "spectral.kmeans.s": "s",
    "spectral.nominate.s": "s",
    "metrics.ap.s": "s",
    "harness.self.s": "s",
}

# Largest LAP side that the program resolves with its lexicographic tie-break.
_SMALL_LAP = 30
_PAGE = resource.getpagesize()


def _current_rss_mb():
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _partitions(n_sizes):
    count = math.factorial(sum(n_sizes))
    for s in n_sizes:
        count //= math.factorial(s)
    return count


def _clamped_entries(lam, eps):
    upper = np.asarray(lam)[np.triu_indices(len(lam))]
    return int(np.sum((upper <= eps * (1 + 1e-9)) | (upper >= 1 - eps * (1 + 1e-9))))


class Tracer:
    """In-memory span recorder. `phase` tags spans as set-up or loop."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, phase, counts]
        self._stack = []
        self.phase = "setup"

    def _open(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                  time.perf_counter(), None, self.phase, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record):
        record[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counts=None):
        """A wrapper of fn recording a span; counts(args, kwargs, result)
        returns the span's counts."""
        watch_memory = name == "spectral.embed"

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                if watch_memory:
                    rss, peak = _current_rss_mb(), _peak_rss_mb()
                result = fn(*args, **kwargs)
                if counts is not None:
                    record[6].update(counts(args, kwargs, result))
                if watch_memory:
                    after = _peak_rss_mb()
                    # only a call that raised the process peak shows its own peak
                    record[6]["rss_rise_mb"] = after - rss if after > peak else 0.0
            finally:
                self._close(record)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, start, end, phase, counts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "phase": phase,
                                     **counts}, separators=(",", ":")) + "\n")

    def per_layer(self, replicates):
        """Per-replicate layer metrics from the loop spans; self times
        leave out the child spans (a leaf span's self time is its whole
        time). core.load_edge_list.s is the last set-up load, one of the
        workload's edge lists, since they are read before the loop."""
        duration = {}
        child_time = defaultdict(float)
        for sid, parent, name, start, end, phase, counts in self.spans:
            duration[sid] = end - start
            if parent >= 0:
                child_time[parent] += end - start
        selftime = defaultdict(float)
        calls = defaultdict(int)
        count = defaultdict(float)
        embed_rise = 0.0
        load = 0.0
        for sid, parent, name, start, end, phase, counts in self.spans:
            if phase == "setup":
                if name == "core.load_edge_list":
                    load = duration[sid]
                continue
            selftime[name] += duration[sid] - child_time[sid]
            calls[name] += 1
            for key, value in counts.items():
                if key == "rss_rise_mb":
                    embed_rise = max(embed_rise, value)
                else:
                    count[key] += value
        r = float(replicates)
        values = {
            "core.sample.s": selftime["core.sample"] / r,
            "core.sample.calls": calls["core.sample"] / r,
            "core.load_edge_list.s": load,
            "core.estimate_lambda.s": selftime["core.estimate_lambda"] / r,
            "core.estimate_lambda.clamped": count["clamped"] / r,
            "canonical.probability.s": selftime["canonical.probability"] / r,
            "canonical.partitions": count["partitions"] / r,
            "sgm.lap.s": selftime["sgm.lap"] / r,
            "sgm.lap.calls": calls["sgm.lap"] / r,
            "sgm.lap.small_calls": count["small"] / r,
            "sgm.match.s": selftime["sgm.match"] / r,
            "sgm.match.calls": calls["sgm.match"] / r,
            "sgm.fw_iterations": count["fw_iterations"] / r,
            "sgm.fw_unconverged": count["fw_unconverged"] / r,
            "likelihood.mle.s": selftime["likelihood.mle"] / r,
            "likelihood.scoring.s": selftime["likelihood.nominate"] / r,
            "likelihood.swap.s": selftime["likelihood.swap"] / r,
            "likelihood.swap.calls": calls["likelihood.swap"] / r,
            "spectral.embed.s": selftime["spectral.embed"] / r,
            "spectral.embed.rss_rise_mb": embed_rise,
            "spectral.kmeans.s": selftime["spectral.kmeans"] / r,
            "spectral.nominate.s": selftime["spectral.nominate"] / r,
            "metrics.ap.s": selftime["metrics.ap"] / r,
            "harness.self.s": selftime["harness.run"] / r,
        }
        return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}


def layer_patches(tracer):
    """(module, attribute, wrapper factory) for every traced call site of
    the imported vnom package, for `patched`."""
    from vnom import canonical, harness, likelihood, sgm, spectral
    from vnom.core import PROB_EPS

    def lambda_counts(args, kwargs, result):
        return {"clamped": _clamped_entries(result, kwargs.get("eps", PROB_EPS))}

    def partition_counts(args, kwargs, result):
        model = args[1] if len(args) > 1 else kwargs["model"]
        return {"partitions": _partitions(model.n_sizes)}

    def lap_counts(args, kwargs, result):
        cost = args[0] if args else kwargs["cost"]
        return {"small": int(np.shape(cost)[0] <= _SMALL_LAP)}

    def match_counts(args, kwargs, result):
        return {"fw_iterations": result.iterations,
                "fw_unconverged": int(not result.converged)}

    table = [
        (harness, "sample_sbm", "core.sample", None),
        (harness, "sample_sbm_blockwise", "core.sample", None),
        (harness, "load_edge_list", "core.load_edge_list", None),
        (harness, "estimate_lambda", "core.estimate_lambda", lambda_counts),
        (canonical, "conditional_block1_probability", "canonical.probability",
         partition_counts),
        (sgm, "solve_lap", "sgm.lap", lap_counts),
        (likelihood, "sgm_match", "sgm.match", match_counts),
        (likelihood, "mle_block_assignment", "likelihood.mle", None),
        (harness, "likelihood_nominate", "likelihood.nominate", None),
        (likelihood, "swap_log_ratio", "likelihood.swap", None),
        (harness, "spectral_nominate", "spectral.nominate", None),
        (spectral, "embed", "spectral.embed", None),
        (spectral, "kmeans", "spectral.kmeans", None),
        (harness, "average_precision", "metrics.ap", None),
    ]
    return [(module, attr, functools.partial(tracer.wrap, name, counts=counts))
            for module, attr, name, counts in table]


@contextlib.contextmanager
def patched(replacements):
    """For the block's duration, replace each module attribute by
    make(current value): replacements is a list of (module, attribute,
    make). Later entries wrap earlier ones on the same attribute."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, make in replacements:
            setattr(module, attr, make(getattr(module, attr)))
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
