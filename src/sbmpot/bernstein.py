"""Complete Bernstein functions of the admitted families: the spec, its
evaluation, and its exact scaling envelope.

Two families are supported: a single stable power phi(lam) = lam^delta and
finite positive mixtures phi(lam) = sum_i w_i lam^{delta_i}, each with
delta in (0, 1); no drift, no killing.  ``scaling_exponents`` reads the
global two-sided scaling of phi from the spec: delta1 = delta_min and
delta2 = delta_max, with prefactors 1.  Its ``delta1_above_half`` verdict
is the paper's standing hypothesis 1/2 < delta1, and ``delta2_warn`` flags
the upper edge where downstream estimates lose uniformity.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "PhiSpec",
    "ScalingReport",
    "phi_eval",
    "scaling_exponents",
]

_FAMILIES = ("stable", "mixture")


@dataclass(frozen=True)
class PhiSpec:
    """Parameter bundle for one admitted Bernstein function.

    family="stable" uses ``delta``; family="mixture" uses ``terms``, a
    sequence of (weight, delta) pairs with positive weights.  Instances are
    immutable, hashable, and JSON round-trippable.
    """

    family: str
    delta: float | None = None
    terms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.family == "stable":
            if self.terms is not None:
                raise ConfigError("stable family takes delta, not terms")
            if self.delta is None or not (0.0 < float(self.delta) < 1.0):
                raise ConfigError(f"stable exponent must lie in (0, 1), got {self.delta!r}")
            object.__setattr__(self, "delta", float(self.delta))
        else:
            if self.delta is not None:
                raise ConfigError("mixture family takes terms, not delta")
            if not self.terms:
                raise ConfigError("mixture needs at least one (weight, delta) term")
            clean = []
            for pair in self.terms:
                w, d = (float(pair[0]), float(pair[1]))
                if not (0.0 < w < math.inf):
                    raise ConfigError(f"mixture weight must be positive and finite, got {w}")
                if not (0.0 < d < 1.0):
                    raise ConfigError(f"mixture exponent must lie in (0, 1), got {d}")
                clean.append((w, d))
            clean.sort(key=lambda p: p[1])
            object.__setattr__(self, "terms", tuple(clean))

    @staticmethod
    def stable(delta):
        return PhiSpec(family="stable", delta=delta)

    @staticmethod
    def mixture(terms):
        return PhiSpec(family="mixture", terms=tuple(tuple(p) for p in terms))

    def exponents(self):
        if self.family == "stable":
            return (self.delta,)
        return tuple(d for _, d in self.terms)

    def weights(self):
        if self.family == "stable":
            return (1.0,)
        return tuple(w for w, _ in self.terms)

    @property
    def delta_min(self):
        return min(self.exponents())

    @property
    def delta_max(self):
        return max(self.exponents())

    def label(self):
        if self.family == "stable":
            return f"stable-{self.delta:g}"
        return "mix-" + "-".join(f"{d:g}" for d in self.exponents())

    def to_dict(self):
        if self.family == "stable":
            return {"family": "stable", "delta": self.delta}
        return {"family": "mixture", "terms": [list(p) for p in self.terms]}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """The spec ``to_dict`` wrote; ConfigError for any other input."""
        if not isinstance(d, dict):
            raise ConfigError(f"serialized PhiSpec must be an object, got {d!r}")
        family = d.get("family")
        key = {"stable": "delta", "mixture": "terms"}.get(family)
        if key is None:
            raise ConfigError(f"unknown family {family!r} in serialized form")
        if key not in d:
            raise ConfigError(f"serialized {family} spec needs {key!r}")
        try:
            return cls.stable(d[key]) if key == "delta" else cls.mixture(d[key])
        except ConfigError:
            raise
        except (IndexError, TypeError, ValueError) as e:
            raise ConfigError(f"bad {key} {d[key]!r} in serialized {family} spec") from e

    @classmethod
    def from_json(cls, s):
        try:
            d = json.loads(s)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON for PhiSpec: {e}") from e
        return cls.from_dict(d)


def _as_positive_array(x, what):
    arr = np.asarray(x, dtype=float)
    # min, not all(arr > 0): one reduction and no bool temporary of arr's
    # size, on every block of the generator's assembly; nan still fails
    if arr.size and not arr.min() > 0.0:
        raise DomainError(f"{what} must be strictly positive")
    return arr


def _float_if_0d(out):
    """``out`` as a float when it is 0-d (scalar input), else the array
    itself: a list or tuple input gives an array, as an ndarray does."""
    return float(out) if np.ndim(out) == 0 else out


def phi_eval(spec, lam):
    """phi(lam) for lam > 0, elementwise over arrays."""
    arr = _as_positive_array(lam, "lam")
    out = np.zeros_like(arr)
    for w, d in zip(spec.weights(), spec.exponents()):
        out += w * np.power(arr, d)
    return _float_if_0d(out)


@dataclass(frozen=True)
class ScalingReport:
    """Global scaling envelope lam^{delta1} <= phi(lam r)/phi(r) <= lam^{delta2}
    for every lam >= 1 and r > 0, read exactly from the spec.

    ``delta1_above_half`` is the paper's standing hypothesis 1/2 < delta1
    (under it 0 is also regular for itself), and ``delta2_warn`` flags the
    upper edge where downstream comparability constants blow up.
    """

    delta1: float
    delta2: float
    delta1_above_half: bool
    delta2_warn: bool

    def to_dict(self):
        return asdict(self)


# upper exponents above this edge degrade the comparability constants
_WARN_EDGE = 0.95


def scaling_exponents(spec):
    """The exact global scaling envelope of phi: delta1 = delta_min and
    delta2 = delta_max, each with prefactor 1.

    phi(lam r)/phi(r) is the average of lam^{delta_i} under the weights
    w_i r^{delta_i} / phi(r), so for lam >= 1 it lies in
    [lam^{delta_min}, lam^{delta_max}].  It tends to the lower end as
    r -> 0 and to the upper end as r -> inf, so no larger delta1, no
    smaller delta2 and no prefactor better than 1 holds globally.

    Emits a RuntimeWarning (and sets ``delta2_warn``) when delta2 is above
    0.95, close enough to its admissible edge that comparability constants
    downstream degrade.
    """
    d1, d2 = spec.delta_min, spec.delta_max
    warn = d2 > _WARN_EDGE
    if warn:
        warnings.warn(
            f"upper scaling exponent {d2:.4f} is near its admissible edge; "
            "comparability constants degrade in this regime",
            RuntimeWarning,
        )
    return ScalingReport(
        delta1=d1,
        delta2=d2,
        delta1_above_half=d1 > 0.5,
        delta2_warn=warn,
    )
