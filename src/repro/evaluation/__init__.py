"""Cluster validity criteria and the paper's evaluation protocol (S17-S19)."""

from repro.evaluation.external import contingency_matrix, f_measure
from repro.evaluation.internal import InternalScores, internal_scores, quality_score
from repro.evaluation.protocol import (
    AveragedThetaResult,
    ThetaResult,
    evaluate_theta,
    evaluate_theta_multirun,
    multirun_stream_plan,
)

__all__ = [
    "contingency_matrix",
    "f_measure",
    "InternalScores",
    "internal_scores",
    "quality_score",
    "AveragedThetaResult",
    "ThetaResult",
    "evaluate_theta",
    "evaluate_theta_multirun",
    "multirun_stream_plan",
]
