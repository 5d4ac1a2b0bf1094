"""Graphon estimation from collections of unaligned, variable-size networks.

The core estimator sorts all nodes of all graphs jointly by normalized
degree, assigns equally spaced latent positions, and builds a global block
histogram of observed edge frequencies; optional total-variation smoothing,
two classical pooled baselines, evaluation metrics, and a benchmark CLI
round out the package.
"""
from .baselines import (
    estimate_sas_pool,
    estimate_usvt_pool,
    jacobi_eigh,
    pool_estimates,
    usvt_single,
)
from .bench import ExperimentConfig, ResultRecord, SizeSpec, collection_seed, run_benchmark
from .collection import (
    GraphCollection,
    graph_rng,
    load_collection,
    sample_collection,
    save_collection,
)
from .estimates import StepEstimate, load_estimate, resample_grid, save_estimate
from .evaluation import eta_bound, mae_latent, mise, rank_discrepancy
from .graphons import (
    ANALYTIC_IDS,
    Graphon,
    canonical_rearrangement,
    degree_function,
    graphon_eval,
)
from .jgs import (
    JointOrdering,
    estimate_jgs,
    jgs_histogram,
    joint_sort,
    normalized_degrees,
    select_k,
    smooth_estimate,
)
from .tv import TvParams, TvResult, rof_energy, tv_denoise, tv_smooth

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_IDS",
    "ExperimentConfig",
    "GraphCollection",
    "Graphon",
    "JointOrdering",
    "ResultRecord",
    "SizeSpec",
    "StepEstimate",
    "TvParams",
    "TvResult",
    "canonical_rearrangement",
    "collection_seed",
    "degree_function",
    "estimate_jgs",
    "estimate_sas_pool",
    "estimate_usvt_pool",
    "eta_bound",
    "graph_rng",
    "graphon_eval",
    "jacobi_eigh",
    "jgs_histogram",
    "joint_sort",
    "load_collection",
    "load_estimate",
    "mae_latent",
    "mise",
    "normalized_degrees",
    "pool_estimates",
    "rank_discrepancy",
    "resample_grid",
    "rof_energy",
    "run_benchmark",
    "sample_collection",
    "save_collection",
    "save_estimate",
    "select_k",
    "smooth_estimate",
    "tv_denoise",
    "tv_smooth",
    "usvt_single",
]
