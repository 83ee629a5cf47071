"""Premium principles for nonnegative risks and treaty pricing.

The working form is the survival-gap sum: for a sorted support 0 <= v_1 < ...
< v_K with survival values S(v_i), the distorted premium is

    pi = (1 + theta) * sum_i (v_(i+1) - v_(i)) * g(S(v_(i)))

with the sum started from 0. This is the exact integral of g(survival) for a
piecewise-constant survival function, so no quadrature error enters. Expected
and proportional-hazard principles are the g = identity and g = u**gamma
specializations.

Premiums are monotone and normalized but deliberately not translation
invariant; none of the functions here assume otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, _apply_map, push_forward
from .errors import NegativeSupport, OutOfRange, ValidationError, _real, _refuse_unread
from .risk import _check_distortion, distortion_preset

_NEG_TOL = 1e-12

# the fields each kind reads; PremiumSpec refuses any other
_KINDS = {"expected": ("theta",), "ph": ("theta", "gamma"), "wang": ("theta", "distortion")}


@dataclass(frozen=True)
class PremiumSpec:
    """Reinsurance pricing rule: expected, ph, or wang. Each kind reads the
    fields _KINDS lists for it; a field it does not read is refused, naming it.
    """

    kind: str
    theta: float = 0.0
    gamma: float | None = None
    distortion: Callable | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"unknown premium kind {self.kind!r}", "kind")
        _refuse_unread(self, self.kind, _KINDS[self.kind])
        for key in ("theta", "gamma"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _real(getattr(self, key), key))
        if self.theta < 0.0:
            raise ValidationError("premium loading theta must be >= 0", "theta")
        if self.kind == "ph":
            if self.gamma is None or not (0.0 < self.gamma <= 1.0):
                raise ValidationError("ph premium needs gamma in (0, 1]", "gamma")
        if self.kind == "wang":
            if self.distortion is None:
                raise ValidationError("wang premium needs a distortion handle")
            _check_distortion(self.distortion)

    def handle(self) -> Callable:
        """The distortion applied to the survival function."""
        if self.kind == "expected":
            return distortion_preset("identity")
        if self.kind == "ph":
            return distortion_preset(f"ph:{self.gamma}")
        return self.distortion


def _require_nonneg(d: DiscreteDistribution) -> None:
    if d.values[0] < -_NEG_TOL:
        raise NegativeSupport("premium principles are defined on nonnegative risks")


def _survival_gap_sum(values: np.ndarray, probs: np.ndarray, g: Callable) -> float:
    # integral over [0, max) of g(S(t)); S is constant between sorted atoms
    pts = np.concatenate([[0.0], np.maximum(values, 0.0)])
    tail = 1.0 - np.concatenate([[0.0], np.cumsum(probs)])
    gs = _apply_map(g, np.clip(tail[:-1], 0.0, 1.0))
    return float(np.dot(np.diff(pts), gs))


def wang_premium(d: DiscreteDistribution, g: Callable, theta: float) -> float:
    """Distorted survival premium (1+theta) * integral of g(S_X)."""
    _require_nonneg(d)
    if theta < 0.0:
        raise ValidationError("premium loading theta must be >= 0")
    return (1.0 + theta) * _survival_gap_sum(d.values, d.probs, g)


def expected_premium(d: DiscreteDistribution, theta: float) -> float:
    """Loaded mean (1+theta) * E[X]."""
    _require_nonneg(d)
    if theta < 0.0:
        raise ValidationError("premium loading theta must be >= 0")
    return (1.0 + theta) * d.mean()


def premium(spec: PremiumSpec, d: DiscreteDistribution) -> float:
    if spec.kind == "expected":
        return expected_premium(d, spec.theta)
    return wang_premium(d, spec.handle(), spec.theta)


def treaty_premium(spec: PremiumSpec, dY: DiscreteDistribution, f) -> float:
    """Price of the ceded part Y - f(Y) under ``spec``."""
    ceded = push_forward(dY, f.ceded)
    return premium(spec, ceded)


def layer_premium_closed_form(
    dY: DiscreteDistribution, g: Callable, theta: float, a: float, v: float
) -> float:
    """Premium of the ceded layer between a and v, directly off S_Y.

    Equals (1+theta) * integral over [a, v] of g(S_Y(y)) dy, the price of the
    treaty retaining below a and above v. Exact for discrete Y: the integrand
    is constant between atoms.
    """
    if a < 0.0 or v < a:
        raise OutOfRange("layer needs 0 <= a <= v")
    pts = np.concatenate([[a], dY.values[(dY.values > a) & (dY.values < v)], [v]])
    tail = 1.0 - np.concatenate([[0.0], np.cumsum(dY.probs)])
    idx = np.searchsorted(dY.values, pts[:-1], side="right")
    gs = _apply_map(g, np.clip(tail[idx], 0.0, 1.0))
    return (1.0 + theta) * float(np.dot(np.diff(pts), gs))
