"""Minimal-allocation TDM schedule synthesis under latency-rate requirements."""

from .model import (
    ClientRequirement,
    Column,
    ProblemInstance,
    Schedule,
)

__all__ = [
    "ClientRequirement",
    "Column",
    "ProblemInstance",
    "Schedule",
]

__version__ = "0.1.0"
