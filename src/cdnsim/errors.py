"""Exception types shared across modules, and the rules for numbers and words from outside.

The three vocabularies live here, beside their one check, because this module
imports no numpy: the CLI's parser reads them without loading the library.
"""

import numbers
import sys

POLICIES = ("LRU", "LRU2", "LFU", "LIRS", "BELADY")
OPTIMIZERS = ("distance", "correlation")
SWEEP_AXES = ("server_count", "cache_size", "policy")


class ValidationError(ValueError):
    """Invalid input data or configuration."""


class InfeasibleError(ValueError):
    """Structurally valid request that cannot be satisfied (e.g. k > node count)."""


def _check_int(name: str, value, low: int | None = None):
    """A count or seed: an int, not a bool, >= `low` when given."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be an int{bound}, got {value!r}")
    return value


def _check_real(name: str, value, zero: bool = False):
    """A priority, weight or exponent: a finite real, not a bool, > 0 (>= 0 with `zero`)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (0 <= value if zero else 0 < value) or not value <= sys.float_info.max):
        bound = ">= 0" if zero else "> 0"
        raise ValidationError(f"{name} must be a finite real {bound}, got {value!r}")
    return value


def _check_choice(name: str, value, choices: tuple[str, ...]):
    """A word from one of the vocabularies above: one of `choices`."""
    if value not in choices:
        raise ValidationError(f"unknown {name} {value!r}; one of {choices}")
    return value
