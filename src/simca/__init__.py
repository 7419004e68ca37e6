"""Capacity-constrained matrix factorization with Sinkhorn transport steps.

Learns item embeddings from an observed optimal allocation of users to items,
where affinities combine latent inner products with geographic distances and
every item has a hard capacity. Ships the exact assignment solver, the
log-domain Sinkhorn scaler, the training loop with its closed-form gradient,
a synthetic benchmark generator and an experiment CLI.

The package exports the pipeline: generate or load a ``Dataset``, ``train``
on it, ``evaluate`` the result. These entry points validate their inputs;
the kernels they call, importable from their own modules, assume validated
inputs.
"""
from .assignment import LapSolution, solve_lap
from .datagen import GenConfig, generate_dataset
from .metrics import EvalReport, evaluate
from .model import AffinityParams, Dataset
from .training import EpochRecord, TrainConfig, TrainResult, train

__all__ = [
    "AffinityParams",
    "Dataset",
    "EpochRecord",
    "EvalReport",
    "GenConfig",
    "LapSolution",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "generate_dataset",
    "solve_lap",
    "train",
]

__version__ = "0.1.0"
