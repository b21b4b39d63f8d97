"""Error taxonomy shared across modules.

Each class carries the exit code the CLI returns for it, so CI can assert
negative tests: configuration problems exit 2, numerical failures exit 3,
violated analytical hypotheses exit 4, any other package error exits 1.
"""
from __future__ import annotations


class LandauError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(LandauError):
    """Invalid or inconsistent configuration input."""

    exit_code = 2


class NumericError(LandauError):
    """Numerical failure during evolution (non-finite state, bad mass)."""

    exit_code = 3


class StiffnessError(NumericError):
    """The stable time step fell below the configured dt_min."""


class HypothesisError(LandauError):
    """An analytical hypothesis required by the requested check is not met."""

    exit_code = 4
