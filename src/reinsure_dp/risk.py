"""Monetary risk measures on finite-support distributions.

Supported kinds: expectation, value-at-risk, expected-shortfall, distortion
(given a distortion function g), spectral (given a spectrum density), and
entropic. All except the entropic one are "weight representable": on a sorted
support they reduce to a fixed probability-weight vector dotted with the atom
values, where the weights come from increments of the dual distortion
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
from scipy.special import logsumexp

from .distributions import DiscreteDistribution, _apply_map, quantile
from .errors import InvalidDistortion, InvalidSpectrum, OutOfRange, ValidationError

_PROBE = np.linspace(0.0, 1.0, 1001)
_QUAD_NODES = 64  # Gauss-Legendre nodes per cell for spectra without antiderivative
_QUAD_POINTS = 1 << 20  # nodes per density call in one quadrature block
_KINDS = (
    "expectation",
    "value-at-risk",
    "expected-shortfall",
    "distortion",
    "spectral",
    "entropic",
)


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
    """Spectral density on [0, 1].

    Attributes:
        density: the spectrum phi, increasing, nonnegative, unit mass.
        antiderivative: optional exact antiderivative with Phi(0)=0; supply it
            for discontinuous densities, since the quadrature fallback cannot
            certify unit mass across a jump to the required 1e-6.
        name: optional label for serialization.
    """

    density: Callable
    antiderivative: Callable | None = None
    name: str = ""


def _spectrum_mass(s: Spectrum) -> float:
    if s.antiderivative is not None:
        return float(s.antiderivative(1.0) - s.antiderivative(0.0))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    panels = np.linspace(0.0, 1.0, 257)
    lo, hi = panels[:-1], panels[1:]
    half = 0.5 * (hi - lo)
    pts = lo[:, None] + half[:, None] * (nodes[None, :] + 1.0)
    vals = _apply_map(s.density, pts)
    return float(np.sum(half[:, None] * weights[None, :] * vals))


def _check_spectrum(s: Spectrum) -> None:
    vals = _apply_map(s.density, _PROBE)
    if np.any(vals < -1e-12):
        raise InvalidSpectrum("spectrum density must be nonnegative")
    if np.any(np.diff(vals) < -1e-9):
        raise InvalidSpectrum("spectrum density must be increasing")
    mass = _spectrum_mass(s)
    if abs(mass - 1.0) > 1e-6:
        raise InvalidSpectrum(f"spectrum mass is {mass!r}, not 1 within 1e-6")


@dataclass(frozen=True)
class RiskSpec:
    """Declarative description of a stage risk measure."""

    kind: str
    alpha: float | None = None
    gamma: float | None = None
    distortion: Callable | None = None
    spectrum: Spectrum | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown risk kind {self.kind!r}")
        if self.kind == "value-at-risk":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValidationError("value-at-risk needs alpha in (0, 1)")
        elif self.kind == "expected-shortfall":
            if self.alpha is None or not (0.0 <= self.alpha < 1.0):
                raise ValidationError("expected-shortfall needs alpha in [0, 1)")
        elif self.kind == "entropic":
            if self.gamma is None or self.gamma <= 0.0:
                raise ValidationError("entropic needs gamma > 0")
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
    if name.startswith("ph:"):
        gamma = float(name[3:])
        if not (0.0 < gamma <= 1.0):
            raise ValidationError("ph exponent must lie in (0, 1]")
        return Distortion(lambda u: np.asarray(u, dtype=np.float64) ** gamma, name)
    if name.startswith("es:"):
        alpha = float(name[3:])
        if not (0.0 <= alpha < 1.0):
            raise ValidationError("es level must lie in [0, 1)")
        return Distortion(
            lambda u: np.minimum(np.asarray(u, dtype=np.float64) / (1.0 - alpha), 1.0), name
        )
    if name.startswith("var:"):
        alpha = float(name[4:])
        if not (0.0 < alpha < 1.0):
            raise ValidationError("var level must lie in (0, 1)")
        return Distortion(
            lambda u: (np.asarray(u, dtype=np.float64) > 1.0 - alpha).astype(np.float64), name
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


def _quadrature_weights(density: Callable, F: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of the density over each cell of F.

    Leading rows go through in blocks of at most _QUAD_POINTS nodes, so the
    node array stays bounded however many rows a batch carries.
    """
    nodes, wts = np.polynomial.legendre.leggauss(_QUAD_NODES)
    k = F.shape[-1] - 1
    lo = F[..., :-1].reshape(-1, k)
    half = 0.5 * (F[..., 1:].reshape(-1, k) - lo)
    out = np.empty(half.shape)
    step = max(1, _QUAD_POINTS // (k * _QUAD_NODES))
    for r in range(0, half.shape[0], step):
        lo_b, half_b = lo[r : r + step, :, None], half[r : r + step, :, None]
        pts = lo_b + half_b * (nodes + 1.0)
        vals = _apply_map(density, pts)
        out[r : r + step] = np.sum(half_b * wts * vals, axis=-1)
    return out.reshape(F.shape[:-1] + (k,))


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
        s = spec.spectrum
        if s.antiderivative is not None:
            anti = _apply_map(s.antiderivative, F)
            return np.diff(anti)
        return _quadrature_weights(s.density, F)
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
    _check_distortion(g)
    F = _cell_bounds(d.probs)
    dual = 1.0 - _apply_map(g, 1.0 - F)
    return float(np.dot(np.diff(dual), d.values))


def spectral_rm(d: DiscreteDistribution, s: Spectrum) -> float:
    """Spectral risk measure: integral of the quantile against the density."""
    _check_spectrum(s)
    spec = RiskSpec("spectral", spectrum=s)
    return float(np.dot(atom_weights(spec, d.probs), d.values))


def entropic(d: DiscreteDistribution, gamma: float) -> float:
    """Entropic risk measure (1/gamma) log E[exp(gamma X)], overflow safe."""
    if gamma <= 0.0:
        raise OutOfRange("entropic risk aversion must be positive")
    return float(logsumexp(gamma * d.values, b=d.probs)) / gamma


def evaluate(spec: RiskSpec, d: DiscreteDistribution) -> float:
    """Evaluate the risk measure described by ``spec`` on ``d``."""
    kind = spec.kind
    if kind == "expectation":
        return d.mean()
    if kind == "value-at-risk":
        return var(d, spec.alpha)
    if kind == "expected-shortfall":
        return es(d, spec.alpha)
    if kind == "distortion":
        return float(np.dot(atom_weights(spec, d.probs), d.values))
    if kind == "spectral":
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
    if kind == "distortion":
        vals = _apply_map(spec.distortion, _PROBE)
        return bool(np.all(np.diff(vals, 2) <= 1e-9))
    return False
