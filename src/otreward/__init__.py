"""Optimal-transport reward labeling for offline RL datasets."""

from .costs import CostKind, cosine_cost, pairwise_costs, squared_euclidean_cost
from .dataset_io import (
    EpisodicDataset,
    read_dataset,
    select_top_k_experts,
    write_dataset,
    write_diagnostics,
    write_labeled,
)
from .gridworld import (
    Gridworld,
    HarnessConfig,
    TabularQ,
    evaluate_policy,
    fit_offline_q,
    generate_dataset,
    ground_truth_rewards,
    load_harness_config,
    reference_config,
    run_demo,
)
from .labeler import (
    LabelConfig,
    LabeledTrajectory,
    PostScale,
    ScaleMode,
    aggregate_over_experts,
    label_dataset,
    ot_rewards_single,
    post_scale_rewards,
    squash,
    uds_rewards,
    uniform_plan_rewards,
)
from .measures import (
    FeatureMode,
    Trajectory,
    WeightedMeasure,
    pad_measure,
    trajectory_to_measure,
)
from .solver import Coupling, SinkhornParams, sinkhorn

__version__ = "0.1.0"

__all__ = [
    "CostKind",
    "Coupling",
    "EpisodicDataset",
    "FeatureMode",
    "Gridworld",
    "HarnessConfig",
    "LabelConfig",
    "LabeledTrajectory",
    "PostScale",
    "ScaleMode",
    "SinkhornParams",
    "TabularQ",
    "Trajectory",
    "WeightedMeasure",
    "aggregate_over_experts",
    "cosine_cost",
    "evaluate_policy",
    "fit_offline_q",
    "generate_dataset",
    "ground_truth_rewards",
    "label_dataset",
    "load_harness_config",
    "ot_rewards_single",
    "pad_measure",
    "pairwise_costs",
    "post_scale_rewards",
    "read_dataset",
    "reference_config",
    "run_demo",
    "select_top_k_experts",
    "sinkhorn",
    "squared_euclidean_cost",
    "squash",
    "trajectory_to_measure",
    "uds_rewards",
    "uniform_plan_rewards",
    "write_dataset",
    "write_diagnostics",
    "write_labeled",
]
