"""One workload run in its own process: set-up, timed loop, checks.

Started by run.py with one BLAS thread in its environment. Writes a JSON
run record to --record. With --setup-only it stops after set-up, so that
run.py can time set-up more than once per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _steal_ticks():
    """System-wide CPU steal, in clock ticks, from /proc/stat."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def _keep_first(sink, limit):
    """Wrapper factory that keeps the arguments and result of the first
    `limit` calls."""

    def make(fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            if len(sink) < limit:
                sink.append({"args": args, "kwargs": kwargs, "result": result})
            return result
        return call
    return make


def _keep_last(sink):
    """Wrapper factory that keeps the arguments and result of the latest
    call. The previous call's are dropped when the next call starts, so at
    most one call's inputs outlive their caller."""

    def make(fn):
        def call(*args, **kwargs):
            sink.clear()
            result = fn(*args, **kwargs)
            sink.append({"args": args, "kwargs": kwargs, "result": result})
            return result
        return call
    return make


def _timed(sink, clock):
    """Wrapper factory that appends each call's (start, end) to `sink`; the
    clock's hooks on either side may close an epoch outside the call."""

    def make(fn):
        def call(*args, **kwargs):
            clock.tick()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            sink.append((start, time.perf_counter()))
            clock.tick()
            return result
        return call
    return make


def _ticking(clock):
    """Wrapper factory that calls the clock's hook before each call, so
    that epochs also close inside long scheme calls."""

    def make(fn):
        def call(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)
        return call
    return make


def _versions():
    import numpy
    import scipy

    def blas(show_config):
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)

    setup_start = time.perf_counter()
    import vnom
    from vnom import core, harness, likelihood, sgm, spectral

    src = Path(args.src).resolve()
    if Path(vnom.__file__).resolve().parent.parent != src:
        sys.exit(f"imported vnom from {vnom.__file__}, not from {src}")
    import checks
    import hostclock
    import tracing
    import workloads

    out_dir = Path(args.out)
    tracer = tracing.Tracer() if args.trace else None
    layer_patches = tracing.layer_patches(tracer) if tracer else []
    with tracing.patched(layer_patches):
        workload = workloads.build(args.workload, args.seed, args.smoke, out_dir)
        configs = [harness.parse_config(c) for c in workload.configs]
        run = harness.run_realdata if workload.mode == "realdata" else harness.run_simulation
        # Warm-up: one replicate of the workload's toy-size inputs pays the
        # lazy imports and first calls of every layer the loop uses.
        toy = workloads.build(args.workload, args.seed, True, out_dir / "warmup", replicates=1)
        for config in toy.configs:
            run(harness.parse_config(config), workers=1)
        if workload.mode == "realdata":
            # reads each of the workload's edge lists through the harness, once
            for config in workload.configs:
                run(harness.parse_config({**config, "replicates": 1,
                                          "schemes": ["spectral"]}), workers=1)
        setup_s = time.perf_counter() - setup_start
        if args.setup_only:
            _write(args.record, {"setup_s": setup_s})
            return 0
        # Traced runs report raw per-layer times and run no bursts.
        exponent, whole_run = workloads.HOST_SCALING[workload.name]
        clock = hostclock.HostClock(active=not tracer, exponent=exponent, whole_run=whole_run)

        scheme_calls = []
        captured = {"canonical": [], "bhat": [], "embed": []}
        schemes = configs[0].schemes
        per_round = sum(config.replicates for config in configs)
        loop_patches = [(harness, f"{s}_nominate", _timed(scheme_calls, clock)) for s in schemes]
        if clock.active:
            loop_patches += [(module, attr, _ticking(clock)) for module, attr in (
                (harness, "sample_sbm"), (harness, "sample_sbm_blockwise"),
                (sgm, "solve_lap"), (likelihood, "swap_log_ratio"))]
        loop_patches += {
            "small-mc": [(harness, "canonical_nominate", _keep_first(captured["canonical"], 3))],
            "medium-lik": [(likelihood, "mle_block_assignment", _keep_first(captured["bhat"], 1))],
            "large-spec": [(spectral, "embed", _keep_last(captured["embed"]))],
        }.get(workload.name, [])

        if tracer:
            tracer.phase = "loop"
            run = tracer.wrap("harness.run", run)
        rounds, errors = [], []
        attempted = failed = 0
        steal_before = _steal_ticks()
        start = time.perf_counter()
        clock.start()
        with tracing.patched(loop_patches):
            while True:
                done = len(scheme_calls)
                try:
                    rounds.append([run(config, workers=1) for config in configs])
                except Exception:  # a failed round counts as failed replicates
                    failed += per_round
                    errors.append(traceback.format_exc())
                    del scheme_calls[done:]
                attempted += per_round
                if time.perf_counter() - start >= args.seconds:
                    break
        end = time.perf_counter()
        clock.stop()
        steal_after = _steal_ticks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = checks.run_all(workload, rounds, captured, core.PROB_EPS, args.seed,
                            statistical=not args.smoke)
    replicate_calls = [scheme_calls[i:i + len(schemes)]
                       for i in range(0, len(scheme_calls), len(schemes))]
    per_replicate = [sum(clock.adjusted(*c) for c in calls) for calls in replicate_calls]
    per_replicate_wall = [sum(clock.wall(*c) for c in calls) for calls in replicate_calls]
    loop_wall = clock.wall(start, end)
    finished = attempted - failed
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": 1,
        "versions": _versions(),
        "replicates_per_round": per_round,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "elapsed_s": end - start,
        "burst_s": clock.burst_s,
        "host_factor": clock.mean_factor(),
        "host_exponent": clock.exponent,
        "epochs": len(clock.epochs),
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "setup_s": setup_s,
        "replicates_per_s": finished / clock.adjusted(start, end),
        "replicates_per_wall_s": finished / loop_wall,
        "nominate_s": statistics.median(per_replicate) if per_replicate else None,
        "nominate_wall_s": statistics.median(per_replicate_wall) if per_replicate else None,
        "nominate_samples_s": per_replicate,
        "nominate_wall_samples_s": per_replicate_wall,
        "peak_rss_mb": peak_rss_mb,
        # equal replicate counts per call, so this is the MAP over the round
        "map": (statistics.fmean(r.schemes[workload.headline].map for r in rounds[0])
                if rounds else None),
        "maps": ([{s: [o.map, o.se] for s, o in r.schemes.items()} for r in rounds[0]]
                 if rounds else []),
        "checks": report.items,
        "correct": report.passed and len(per_replicate) == finished,
    }
    if tracer:
        tracer.dump(out_dir / "spans.jsonl.gz")
        record["per_layer"] = tracer.per_layer(max(finished, 1))
    _write(args.record, record)
    return 0


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
