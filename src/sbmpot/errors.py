"""Exception taxonomy and the integer, seed and step-count rules shared by every module.

Callers can rely on the split: bad mathematical inputs raise DomainError,
bad knob settings raise ConfigError, and numerical machinery that fails to
deliver its requested accuracy raises QuadratureError or SolverError.
"""

import math
import numbers


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ConfigError(ValueError):
    """Inconsistent or unusable configuration values."""


class QuadratureError(RuntimeError):
    """An integral could not be computed to the requested tolerance.

    Carries ``err_est`` (the best available error estimate) when known.
    """

    def __init__(self, message, err_est=None):
        super().__init__(message)
        self.err_est = err_est


class SolverError(RuntimeError):
    """A dense linear-algebra step failed or produced unusable output."""


def check_integer(name, value, least):
    """Raise ConfigError unless ``value`` is an integer >= ``least`` (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")


def check_seed(seed):
    """Raise ConfigError unless ``seed`` is an integer in [0, 2^64)."""
    check_integer("seed", seed, 0)
    if seed >= 2**64:
        raise ConfigError(f"seed must be below 2^64, got {seed!r}")


def check_steps(t_max, dt):
    """Raise ConfigError unless a walk to horizon ``t_max`` at step ``dt`` has
    a finite step count t_max/dt."""
    if not math.isfinite(t_max / dt):
        raise ConfigError(f"t_max/dt must be a finite step count, got {t_max!r}/{dt!r}")
