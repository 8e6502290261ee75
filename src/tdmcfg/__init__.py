"""Minimal-allocation TDM schedule synthesis under latency-rate requirements."""

from .model import (
    ClientRequirement,
    ProblemInstance,
    Schedule,
)

__all__ = [
    "ClientRequirement",
    "ProblemInstance",
    "Schedule",
]

__version__ = "0.1.0"
