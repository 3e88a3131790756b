"""Experiment drivers: one per paper figure/claim (see docs/experiments.md)."""

from repro.eval.experiments import EXPERIMENTS, run_all, run_experiment
from repro.eval.report import ExperimentResult, ascii_plot, render_table

__all__ = [
    "EXPERIMENTS",
    "run_all",
    "run_experiment",
    "ExperimentResult",
    "render_table",
    "ascii_plot",
]
