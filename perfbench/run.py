"""vnom benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload small-mc --seed 1 --seconds 10 --trace 0

Run from the root of a vnom source tree. The workload runs in a child
process (perfbench/worker.py) with one BLAS thread and workers=1. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: loop times are host-adjusted (perfbench/hostclock.py), and
set-up is timed in five fresh processes and the median is reported.
With --trace 1 one traced process runs instead and the metrics are per
layer, in wall time. Run records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "replicates_per_s": "1/s",
    "nominate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "map": "1",
}
# Set-up is timed in this many processes per run; the median is reported.
SETUP_RUNS = 5
# Every run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170


def _child(args, out_dir, record, setup_only, deadline):
    src = ROOT / "src"
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONPATH": str(src)})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(src), "--out", str(out_dir),
           "--record", str(record)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    # the child's output goes to stderr: stdout ends with the result line
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(record, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="small-mc, medium-lik, large-spec or realdata-sparse")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size inputs and one set-up, to test the benchmark itself")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "vnom" / "__init__.py").is_file():
        print(f"no vnom source tree at {ROOT / 'src'}; run from a vnom checkout",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    out_dir.mkdir(parents=True)

    setups = []
    try:
        if not args.trace and not args.smoke:
            for i in range(SETUP_RUNS - 1):
                probe = _child(args, out_dir, out_dir / f"setup{i}.json", True, deadline)
                setups.append(probe["setup_s"])
        record = _child(args, out_dir, out_dir / "record.json", False, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"workload process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    with open(out_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    if args.trace:
        metrics = record["per_layer"]
    else:
        values = {name: record[name] for name in END_TO_END_UNITS}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for item in record["checks"]:
        if not item["passed"]:
            print(f"check failed: {item['check']}: {item['detail']}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
