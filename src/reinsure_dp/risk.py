"""Monetary risk measures on finite-support distributions.

Supported kinds: expectation, value-at-risk, expected-shortfall, distortion
(given a distortion function g), spectral (given a spectrum density and its
antiderivative Phi; the distortion kind with g(u) = 1 - Phi(1 - u), Dhaene et
al. 2006), and entropic. All except the entropic one are "weight representable": on a
sorted support they reduce to a fixed probability-weight vector dotted with
the atom values, where the weights come from increments of the dual distortion
``g_dual(u) = 1 - g(1 - u)`` across the cumulative-probability cells. That
shared construction (:func:`atom_weights`) is exact on finite support and is
reused by the dynamic-programming layer.

Quantile convention: left-continuous generalized inverse, so value-at-risk as
a distortion measure (indicator distortion) agrees with the quantile exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, _apply_map, quantile
from .errors import InvalidDistortion, InvalidSpectrum, OutOfRange, ValidationError
from .errors import _real, _refuse_unread

_PROBE = np.linspace(0.0, 1.0, 1001)
# the fields each kind reads; RiskSpec refuses any other
_KINDS = {
    "expectation": (),
    "value-at-risk": ("alpha",),
    "expected-shortfall": ("alpha",),
    "distortion": ("distortion",),
    "spectral": ("spectrum",),
    "entropic": ("gamma",),
}


def _check_distortion(g: Callable) -> np.ndarray:
    """Probe g on a 1001-point grid: g(0)=0, g(1)=1, increasing."""
    vals = _apply_map(g, _PROBE)
    if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
        raise InvalidDistortion("distortion must satisfy g(0)=0 and g(1)=1")
    if np.any(np.diff(vals) < -1e-12):
        raise InvalidDistortion("distortion must be increasing on [0, 1]")
    return vals


@dataclass(frozen=True)
class Spectrum:
    """Spectral density on [0, 1] with its antiderivative.

    Attributes:
        density: the spectrum phi, increasing, nonnegative, unit mass.
        antiderivative: Phi, an antiderivative of phi; the atom weights are
            its increments across the cumulative-probability cells, so they
            are exact even where phi jumps.
        name: optional label for serialization.
    """

    density: Callable
    antiderivative: Callable
    name: str = ""


def _check_spectrum(s: Spectrum) -> None:
    if not callable(s.antiderivative):
        raise InvalidSpectrum(f"spectrum antiderivative {s.antiderivative!r} is not callable")
    vals = _apply_map(s.density, _PROBE)
    if np.any(vals < -1e-12):
        raise InvalidSpectrum("spectrum density must be nonnegative")
    if np.any(np.diff(vals) < -1e-9):
        raise InvalidSpectrum("spectrum density must be increasing")
    mass = float(s.antiderivative(1.0) - s.antiderivative(0.0))
    if abs(mass - 1.0) > 1e-6:
        raise InvalidSpectrum(f"spectrum mass is {mass!r}, not 1 within 1e-6")


@dataclass(frozen=True)
class RiskSpec:
    """Declarative description of a stage risk measure. Each kind reads the
    fields _KINDS lists for it; a field it does not read is refused, naming it.
    """

    kind: str
    alpha: float | None = None
    gamma: float | None = None
    distortion: Callable | None = None
    spectrum: Spectrum | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"unknown risk kind {self.kind!r}", "kind")
        _refuse_unread(self, self.kind, _KINDS[self.kind])
        for key in ("alpha", "gamma"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _real(getattr(self, key), key))
        if self.kind == "value-at-risk":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValidationError("value-at-risk needs alpha in (0, 1)", "alpha")
        elif self.kind == "expected-shortfall":
            if self.alpha is None or not (0.0 <= self.alpha < 1.0):
                raise ValidationError("expected-shortfall needs alpha in [0, 1)", "alpha")
        elif self.kind == "entropic":
            if self.gamma is None or self.gamma <= 0.0:
                raise ValidationError("entropic needs gamma > 0", "gamma")
        elif self.kind == "distortion":
            if self.distortion is None:
                raise ValidationError("distortion kind needs a distortion handle")
            _check_distortion(self.distortion)
        elif self.kind == "spectral":
            if self.spectrum is None:
                raise ValidationError("spectral kind needs a Spectrum")
            _check_spectrum(self.spectrum)


# ---------------------------------------------------------------------------
# distortion presets


@dataclass(frozen=True)
class Distortion:
    """Named distortion function handle (callable)."""

    fn: Callable
    name: str = ""

    def __call__(self, u):
        return self.fn(u)


def distortion_preset(name: str) -> Distortion:
    """Named presets: "identity", "ph:<gamma>", "es:<alpha>", "var:<alpha>"."""
    if name == "identity":
        return Distortion(lambda u: np.asarray(u, dtype=np.float64), name)
    kind, _, level = name.partition(":")
    try:
        level = float(level)
    except ValueError:
        kind = ""  # a malformed level names no preset
    if kind == "ph":
        if not (0.0 < level <= 1.0):
            raise ValidationError("ph exponent must lie in (0, 1]")
        return Distortion(lambda u: np.asarray(u, dtype=np.float64) ** level, name)
    if kind == "es":
        if not (0.0 <= level < 1.0):
            raise ValidationError("es level must lie in [0, 1)")
        return Distortion(
            lambda u: np.minimum(np.asarray(u, dtype=np.float64) / (1.0 - level), 1.0), name
        )
    if kind == "var":
        if not (0.0 < level < 1.0):
            raise ValidationError("var level must lie in (0, 1)")
        return Distortion(
            lambda u: (np.asarray(u, dtype=np.float64) > 1.0 - level).astype(np.float64), name
        )
    raise ValidationError(f"unknown distortion preset {name!r}")


def tabulated_distortion(pairs) -> Distortion:
    """Distortion from tabulated (u, g(u)) pairs with linear interpolation."""
    pts = sorted((float(u), float(gu)) for u, gu in pairs)
    us = np.array([p[0] for p in pts])
    gs = np.array([p[1] for p in pts])
    if us[0] != 0.0 or us[-1] != 1.0:
        raise InvalidDistortion("tabulated distortion must cover u=0 and u=1")
    handle = Distortion(lambda u: np.interp(u, us, gs), "tabulated")
    _check_distortion(handle)
    return handle


def es_spectrum(alpha: float) -> Spectrum:
    """Spectrum of expected shortfall: (1/(1-alpha)) on [alpha, 1]."""
    if not (0.0 <= alpha < 1.0):
        raise OutOfRange("es level must lie in [0, 1)")
    scale = 1.0 / (1.0 - alpha)

    def density(u):
        return np.where(np.asarray(u, dtype=np.float64) >= alpha, scale, 0.0)

    def antiderivative(u):
        return np.maximum(np.asarray(u, dtype=np.float64) - alpha, 0.0) * scale

    return Spectrum(density, antiderivative, name=f"es:{alpha}")


# ---------------------------------------------------------------------------
# weight construction shared by all quantile-based kinds


def _cell_bounds(probs: np.ndarray) -> np.ndarray:
    """Cumulative cell boundaries [0, F_1, ..., F_k] along the last axis, with
    the top forced to 1."""
    cum = np.cumsum(probs, axis=-1)
    F = np.concatenate([np.zeros(cum.shape[:-1] + (1,)), cum], axis=-1)
    F[..., -1] = 1.0
    return np.clip(F, 0.0, 1.0)


def atom_weights(spec: RiskSpec, probs: np.ndarray) -> np.ndarray | None:
    """Probability weights w such that rho(X) = sum_i w_i v_(i) on the sorted
    support with cell probabilities ``probs``.

    ``probs`` may carry leading batch axes; the support runs along the last
    one and every row is weighted exactly as a 1-D call on it would be.
    Returns None for the entropic kind, which is not weight representable.
    The weights depend only on the probabilities (not the values), which the
    solver exploits to evaluate whole batches of risks sharing one ordering.
    """
    kind = spec.kind
    if kind == "entropic":
        return None
    probs = np.asarray(probs, dtype=np.float64)
    if kind == "expectation":
        return probs
    F = _cell_bounds(probs)
    if kind == "value-at-risk":
        # first cell whose upper bound reaches alpha (F is sorted)
        idx = np.count_nonzero(F[..., 1:] < spec.alpha, axis=-1)
        w = np.zeros(probs.shape)
        np.put_along_axis(w, np.minimum(idx, probs.shape[-1] - 1)[..., None], 1.0, axis=-1)
        return w
    if kind == "expected-shortfall":
        dual = np.maximum(F - spec.alpha, 0.0) / (1.0 - spec.alpha)
        return np.diff(dual)
    if kind == "distortion":
        dual = 1.0 - _apply_map(spec.distortion, 1.0 - F)
        return np.diff(dual)
    if kind == "spectral":
        return np.diff(_apply_map(spec.spectrum.antiderivative, F))
    raise ValidationError(f"unknown risk kind {kind!r}")


# ---------------------------------------------------------------------------
# public evaluators


def var(d: DiscreteDistribution, alpha: float) -> float:
    """Value-at-risk: the alpha quantile, alpha in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise OutOfRange("value-at-risk level must lie in (0, 1)")
    return quantile(d, alpha)


def es(d: DiscreteDistribution, alpha: float) -> float:
    """Expected shortfall: average of the quantile function above alpha.

    Computed exactly as the clipped-cell integral of the piecewise-constant
    quantile: (1/(1-alpha)) * sum over cells above alpha of width * value.
    """
    if not (0.0 <= alpha < 1.0):
        raise OutOfRange("expected-shortfall level must lie in [0, 1)")
    F = _cell_bounds(d.probs)
    widths = np.maximum(F[1:] - np.maximum(F[:-1], alpha), 0.0)
    return float(np.dot(widths, d.values)) / (1.0 - alpha)


def distortion_rm(d: DiscreteDistribution, g: Callable) -> float:
    """Distortion risk measure via the dual distortion on the quantile cells."""
    return evaluate(RiskSpec("distortion", distortion=g), d)


def spectral_rm(d: DiscreteDistribution, s: Spectrum) -> float:
    """Spectral risk measure: integral of the quantile against the density."""
    return evaluate(RiskSpec("spectral", spectrum=s), d)


def _logsumexp(a, b):
    """log sum(b * exp(a)) over the last axis, for positive b.

    The maximum is shifted out and its terms summed apart (Blanchard, Higham
    & Higham, IMA J. Numer. Anal. 41(4), 2021), in the operations SciPy
    1.17's logsumexp runs, so the results are its bits; a row whose entries
    all overflowed to -inf gives -inf, as there.
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    top = a == a_max
    m = np.sum(b * top, axis=-1, keepdims=True)
    s = np.sum(b * np.exp(np.where(top, -np.inf, a - a_max)), axis=-1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[..., 0]


def entropic(d: DiscreteDistribution, gamma: float) -> float:
    """Entropic risk measure (1/gamma) log E[exp(gamma X)], overflow safe."""
    if gamma <= 0.0:
        raise OutOfRange("entropic risk aversion must be positive")
    return float(_logsumexp(gamma * d.values, d.probs)) / gamma


def evaluate(spec: RiskSpec, d: DiscreteDistribution) -> float:
    """Evaluate the risk measure described by ``spec`` on ``d``."""
    kind = spec.kind
    if kind == "expectation":
        return d.mean()
    if kind == "value-at-risk":
        return var(d, spec.alpha)
    if kind == "expected-shortfall":
        return es(d, spec.alpha)
    if kind in ("distortion", "spectral"):
        return float(np.dot(atom_weights(spec, d.probs), d.values))
    if kind == "entropic":
        return entropic(d, spec.gamma)
    raise ValidationError(f"unknown risk kind {kind!r}")


def is_coherent(spec: RiskSpec) -> bool:
    """Whether the spec is coherent (needed for infinite-horizon solves).

    Expectation and expected shortfall are; spectral measures are by
    construction (increasing density); a distortion measure is iff its
    distortion function is concave, probed on the grid; value-at-risk and
    entropic are not.
    """
    kind = spec.kind
    if kind in ("expectation", "expected-shortfall", "spectral"):
        return True
    if kind in ("value-at-risk", "entropic"):
        return False
    vals = _apply_map(spec.distortion, _PROBE)  # distortion: concave on the probe grid
    return bool(np.all(np.diff(vals, 2) <= 1e-9))
