"""Vertex nomination on stochastic block model graphs.

Provides three nomination schemes (exact canonical, likelihood
maximization via seeded graph matching, spectral partitioning),
ranking metrics, and a Monte-Carlo experiment harness.
"""

from vnom.core import (
    BlockAssignment,
    BlockModel,
    LabeledGraph,
    clamp_probabilities,
    contiguous_assignment,
    estimate_lambda,
    load_edge_list,
    load_lambda,
    log_likelihood,
    mix_lambda,
    sample_sbm,
)
from vnom.metrics import (
    NominationList,
    alpha_weights,
    average_precision,
    mean_average_precision,
    precision_at_depth,
)
from vnom.canonical import (
    CanonicalScores,
    canonical_nominate,
    conditional_block1_probability,
    enumerate_partitions,
)
from vnom.sgm import sgm_match, solve_transport
from vnom.likelihood import (
    likelihood_nominate,
    mle_block_assignment,
    swap_log_ratio,
)
from vnom.spectral import embed, kmeans, spectral_nominate

__version__ = "0.1.0"

__all__ = [
    "BlockAssignment",
    "BlockModel",
    "CanonicalScores",
    "LabeledGraph",
    "NominationList",
    "alpha_weights",
    "average_precision",
    "canonical_nominate",
    "clamp_probabilities",
    "conditional_block1_probability",
    "contiguous_assignment",
    "embed",
    "enumerate_partitions",
    "estimate_lambda",
    "kmeans",
    "likelihood_nominate",
    "load_edge_list",
    "load_lambda",
    "log_likelihood",
    "mean_average_precision",
    "mix_lambda",
    "mle_block_assignment",
    "precision_at_depth",
    "sample_sbm",
    "sgm_match",
    "solve_transport",
    "spectral_nominate",
    "swap_log_ratio",
]
