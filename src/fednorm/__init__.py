"""Federated-learning simulator with latent-similarity contribution weighting."""

from .config import ConfigError, OptimizerSettings, RunConfig, StrategyConfig
from .contribution import (
    DegenerateLatent,
    contribution_factors,
    cosine,
    normalize_weights,
    similarity_matrix,
)
from .data import (
    Dataset,
    PartitionPlan,
    generate_synthetic,
    load_idx,
    partition_dirichlet,
    partition_label_split,
    train_test_split,
)
from .nn import ModelSpec, OptimizerState, TrainingDiverged, init_model
from .simulation import Federation, RoundReport, build
from .strategies import ClientUpdate

__version__ = "0.1.0"

__all__ = [
    "ClientUpdate",
    "ConfigError",
    "Dataset",
    "DegenerateLatent",
    "Federation",
    "ModelSpec",
    "OptimizerSettings",
    "OptimizerState",
    "PartitionPlan",
    "RoundReport",
    "RunConfig",
    "StrategyConfig",
    "TrainingDiverged",
    "build",
    "contribution_factors",
    "cosine",
    "generate_synthetic",
    "init_model",
    "load_idx",
    "normalize_weights",
    "partition_dirichlet",
    "partition_label_split",
    "similarity_matrix",
    "train_test_split",
]
