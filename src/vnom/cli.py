"""Command-line interface: `vn sample | nominate | experiment | subsample
| version`.

Exit codes: 0 success, 2 config error, 3 infeasibility (canonical
enumeration guard), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import vnom
from vnom.canonical import InfeasibleEnumerationError, canonical_nominate
from vnom.core import (
    BlockModel,
    ParseError,
    contiguous_assignment,
    load_edge_list,
    load_lambda,
    sample_sbm,
)
from vnom.harness import (
    SCHEMES,
    ConfigError,
    emit_results,
    load_config,
    run_realdata,
    run_simulation,
    run_subsample_average,
    subsample_table_csv,
)
from vnom.likelihood import likelihood_nominate
from vnom.spectral import default_dimension, spectral_nominate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

# Rows of the packed adjacency that `vn sample` unpacks at a time.
_EDGE_ROWS = 64


def _sizes(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(prog="vn", description="Vertex nomination toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="realize an SBM graph to edge-list files")
    p.add_argument("--lambda", dest="lambda_path", required=True, help="Lambda JSON file")
    p.add_argument("--m-sizes", type=_sizes, required=True)
    p.add_argument("--n-sizes", type=_sizes, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edges-out", required=True)
    p.add_argument("--labels-out", required=True)
    p.add_argument("--truth-out", help="also write the hidden ambiguous labels")

    p = sub.add_parser("nominate", help="run one scheme on a graph from files")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--labels", required=True, help="seed labels file")
    p.add_argument("--lambda", dest="lambda_path", required=True)
    p.add_argument("--sizes", type=_sizes, help="ambiguous block sizes n1,..,nK")
    p.add_argument("--d", type=int, help="embedding dimension (spectral)")
    p.add_argument("--rng-seed", type=int, default=0)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--log-raw", action="store_true")
    p.add_argument("--csv-out")
    p.add_argument("--json-out")

    p = sub.add_parser("subsample", help="subsample-and-average-position procedure")
    p.add_argument("--config", required=True)
    p.add_argument("--csv-out")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_sample(args):
    lam = load_lambda(args.lambda_path)
    model = BlockModel(m_sizes=args.m_sizes, n_sizes=args.n_sizes, lam=lam)
    graph = sample_sbm(model, contiguous_assignment(model), args.seed)
    N = graph.num_vertices
    with open(args.edges_out, "w", encoding="utf-8") as fh:
        fh.write(f"#vertices {N}\n")
        # each edge {a, b} with a < b once, in row-major order, from
        # _EDGE_ROWS unpacked rows at a time
        for start in range(0, N, _EDGE_ROWS):
            rows = graph.rows(slice(start, start + _EDGE_ROWS))
            for a, b in np.argwhere(np.triu(rows, k=start + 1)):
                fh.write(f"{start + a + 1} {b + 1}\n")
    with open(args.labels_out, "w", encoding="utf-8") as fh:
        for v, blk in enumerate(graph.seed_labels, start=1):
            fh.write(f"{v} {blk}\n")
    if args.truth_out:
        with open(args.truth_out, "w", encoding="utf-8") as fh:
            for i, blk in enumerate(graph.true_labels):
                fh.write(f"{graph.seed_count + i + 1} {blk}\n")
    return EXIT_OK


def _cmd_nominate(args):
    lam = load_lambda(args.lambda_path)
    graph = load_edge_list(args.graph, args.labels)
    K = lam.shape[0]
    above = np.flatnonzero(graph.seed_labels > K)
    if len(above):
        raise ConfigError(f"{args.labels}: vertex {above[0] + 1} has block "
                          f"{graph.seed_labels[above[0]]} outside 1..{K}")
    if args.scheme in ("canonical", "likelihood"):
        if args.sizes is None:
            raise ConfigError(f"--sizes is required for the {args.scheme} scheme")
        if len(args.sizes) != K:
            raise ConfigError(f"--sizes must have {K} entries")
        if sum(args.sizes) != graph.ambiguous_count:
            raise ConfigError(
                f"--sizes sums to {sum(args.sizes)} but the graph has "
                f"{graph.ambiguous_count} ambiguous vertices"
            )
        m_sizes = [int((graph.seed_labels == k).sum()) for k in range(1, K + 1)]
        model = BlockModel(m_sizes=m_sizes, n_sizes=args.sizes, lam=lam)
        if args.scheme == "canonical":
            nomination = canonical_nominate(graph, model)
        else:
            nomination = likelihood_nominate(graph, model, rng_seed=args.rng_seed)
    else:
        d = args.d if args.d is not None else default_dimension(lam)
        nomination = spectral_nominate(graph, K, d=d, rng_seed=args.rng_seed)
    for v in nomination.order:
        print(int(v) + 1)
    return EXIT_OK


def _cmd_experiment(args):
    config = load_config(args.config)
    if config.mode == "simulation":
        result = run_simulation(config, workers=args.workers, log_raw=args.log_raw)
    elif config.mode == "realdata":
        result = run_realdata(config, workers=args.workers, log_raw=args.log_raw)
    else:
        raise ConfigError("use 'vn subsample' for subsample-mode configs")
    emit_results(result, csv_path=args.csv_out, json_path=args.json_out)
    for name, outcome in result.schemes.items():
        print(f"{name}: MAP={outcome.map:.4f} SE={outcome.se:.4f} "
              f"({outcome.seconds_per_replicate:.3f}s/replicate)")
    print(f"chance: {result.chance:.4f}")
    return EXIT_OK


def _cmd_subsample(args):
    config = load_config(args.config)
    if config.mode != "subsample":
        raise ConfigError("'vn subsample' requires a subsample-mode config")
    table = run_subsample_average(config)
    text = subsample_table_csv(table)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(vnom.__version__)
            return EXIT_OK
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "nominate":
            return _cmd_nominate(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "subsample":
            return _cmd_subsample(args)
        raise AssertionError(f"unhandled command {args.command}")
    except InfeasibleEnumerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
