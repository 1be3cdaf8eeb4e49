"""Lifted classical planner: partial-space search with action-set heuristics,
plus the training pipeline for learned ranking heuristics."""

from .lifted import ROOT, PartialAction, apply, children, decompose, instantiations, is_applicable
from .pddl import Task, load_task, parse_domain, parse_instance
from .ranking import LinearModel, TrainConfig, load_model, save_model, train_model
from .relaxation import FFHeuristic, RestrictedFFHeuristic
from .search import Limits, gbfs_partial, gbfs_state

__version__ = "0.1.0"

__all__ = [
    "ROOT",
    "PartialAction",
    "Task",
    "apply",
    "children",
    "decompose",
    "instantiations",
    "is_applicable",
    "load_task",
    "parse_domain",
    "parse_instance",
    "LinearModel",
    "TrainConfig",
    "load_model",
    "save_model",
    "train_model",
    "FFHeuristic",
    "RestrictedFFHeuristic",
    "Limits",
    "gbfs_partial",
    "gbfs_state",
    "__version__",
]
