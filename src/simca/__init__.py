"""Capacity-constrained matrix factorization with Sinkhorn transport steps.

Learns item embeddings from an observed optimal allocation of users to items,
where affinities combine latent inner products with geographic distances and
every item has a hard capacity. Ships the exact assignment solver, the
log-domain Sinkhorn scaler, the training loop with its closed-form gradient,
a synthetic benchmark generator and an experiment CLI.
"""
from .assignment import LapSolution, brute_force_lap, count_feasible_matchings, round_coupling, solve_lap
from .datagen import GenConfig, apply_gaussian_noise, apply_swap_noise, generate_dataset, sample_capacities
from .metrics import EvalReport, evaluate, f1_scores, mean_embedding_distance
from .model import AffinityParams, Dataset, compute_affinity, matching_matrix
from .sinkhorn import (
    OtInstance,
    SinkhornResult,
    cross_entropy_loss,
    entropy,
    extend_with_slack,
    ot_value,
    solve_ot,
)
from .training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainResult,
    adam_step,
    loss_gradient_items,
    loss_gradient_users,
    matching_with_slack,
    train,
)

__all__ = [
    "AdamState",
    "AffinityParams",
    "Dataset",
    "EpochRecord",
    "EvalReport",
    "GenConfig",
    "LapSolution",
    "OtInstance",
    "SinkhornResult",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "apply_gaussian_noise",
    "apply_swap_noise",
    "brute_force_lap",
    "compute_affinity",
    "count_feasible_matchings",
    "cross_entropy_loss",
    "entropy",
    "evaluate",
    "extend_with_slack",
    "f1_scores",
    "generate_dataset",
    "loss_gradient_items",
    "loss_gradient_users",
    "matching_matrix",
    "matching_with_slack",
    "mean_embedding_distance",
    "ot_value",
    "round_coupling",
    "sample_capacities",
    "solve_lap",
    "solve_ot",
    "train",
]

__version__ = "0.1.0"
