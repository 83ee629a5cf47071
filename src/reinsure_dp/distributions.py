"""Finite-support probability distributions.

Every random quantity the solver touches (claims Y, premium income Z, and any
derived risk such as the retained loss or the one-period cost) is carried by a
:class:`DiscreteDistribution`: a sorted list of atoms with positive
probabilities summing to one. On this carrier, quantiles, survival
probabilities, risk measures, and premiums are all evaluated exactly, so the
only approximation in the whole pipeline is the initial discretization of a
continuous claim law.

Conventions, fixed once here and relied on everywhere else:

* ``quantile`` is the left-continuous generalized inverse,
  ``F^{-1}(u) = inf{x : F(x) >= u}``; ``quantile_index`` gives its atom.
* ``survival(t) = P(X > t)`` is right-continuous in ``t``.
* Atom values are strictly increasing; construction merges exact duplicates by
  summing their probabilities (no fuzzy merging, for reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import (
    MassNotOne,
    NonpositiveProb,
    OutOfRange,
    UnsupportedFamily,
    ValidationError,
)

MASS_TOL = 1e-12
_MAKE_MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteDistribution:
    """Sorted finite-support distribution.

    Attributes:
        values: strictly increasing atom values, shape (k,).
        probs: matching probabilities, all positive, summing to 1 within 1e-12.
    """

    values: np.ndarray
    probs: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or values.shape != probs.shape:
            raise ValidationError("values and probs must be 1-D arrays of equal length")
        if values.size == 0:
            raise ValidationError("distribution needs at least one atom")
        if not np.all(np.isfinite(values)):
            raise ValidationError("atom values must be finite")
        if np.any(probs <= 0.0):
            raise NonpositiveProb("every atom probability must be positive")
        if np.any(np.diff(values) <= 0.0):
            raise ValidationError("atom values must be strictly increasing")
        total = float(probs.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise MassNotOne(f"probabilities sum to {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def to_pairs(self) -> list[list[float]]:
        """JSON-friendly form: a list of [value, prob] pairs."""
        return [[float(v), float(p)] for v, p in zip(self.values, self.probs)]

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for discretizing a named family.

    Attributes:
        family: one of "uniform", "exponential", "lognormal", "empirical",
            "point-mass".
        params: family parameters - uniform (a, b); exponential (rate,);
            lognormal (mu, sigma); empirical (the raw sample values);
            point-mass (z,).
        truncation: upper bound at which unbounded supports are capped; the
            mass beyond is assigned to the bound atom. Required for
            exponential and lognormal.
        atoms: number of midpoint-quantile atoms (>= 2 except point-mass).
    """

    family: str
    params: tuple[float, ...]
    truncation: float | None = None
    atoms: int = 2

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.truncation is not None:
            t = float(self.truncation)
            if not np.isfinite(t) or t <= 0.0:
                raise ValidationError("truncation bound must be finite and positive")
            object.__setattr__(self, "truncation", t)
        if self.family != "point-mass" and int(self.atoms) < 2:
            raise ValidationError("atom count must be >= 2 for non-point-mass families")
        object.__setattr__(self, "atoms", int(self.atoms))


def _canonical(values: np.ndarray, probs: np.ndarray) -> DiscreteDistribution:
    """Sort atoms and merge exact-equal values; mass is taken as given."""
    values = np.asarray(values, dtype=np.float64).ravel()
    probs = np.asarray(probs, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    uniq, inverse = np.unique(values, return_inverse=True)
    if uniq.size != values.size:
        probs = np.bincount(inverse, weights=probs, minlength=uniq.size)
        values = uniq
    return DiscreteDistribution(values, probs)


def make_discrete(pairs) -> DiscreteDistribution:
    """Build a distribution from (value, prob) pairs.

    Pairs are sorted, exact-duplicate values merged, and probabilities
    normalized provided their sum is within 1e-9 of 1; a sum within MASS_TOL
    of 1 is kept as given, so a distribution's to_pairs() read back bitwise.

    Raises:
        NonpositiveProb: a probability is <= 0.
        MassNotOne: the probabilities sum further than 1e-9 from 1.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("need at least one (value, prob) pair")
    values = np.array([p[0] for p in pairs], dtype=np.float64)
    probs = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(probs <= 0.0):
        raise NonpositiveProb("every atom probability must be positive")
    total = float(probs.sum())
    if abs(total - 1.0) > _MAKE_MASS_TOL:
        raise MassNotOne(f"probabilities sum to {total!r}; deviation exceeds {_MAKE_MASS_TOL}")
    return _canonical(values, probs / total if abs(total - 1.0) > MASS_TOL else probs)


def discretize(spec: FamilySpec) -> DiscreteDistribution:
    """Discretize a named family by midpoint quantiles.

    Atom i takes the value F^{-1}((i + 0.5)/m) with probability 1/m. Values
    are capped at the truncation bound when one is given, which piles the
    exceeding mass onto the bound atom. The rule is mean-unbiased within each
    quantile cell for uniform families.
    """
    fam = spec.family
    if fam == "point-mass":
        (z,) = spec.params
        return DiscreteDistribution(np.array([z]), np.array([1.0]))

    m = spec.atoms
    u = (np.arange(m) + 0.5) / m
    if fam == "uniform":
        a, b = spec.params
        if b <= a:
            raise ValidationError("uniform family needs a < b")
        values = a + (b - a) * u
    elif fam == "exponential":
        (rate,) = spec.params
        if rate <= 0.0:
            raise ValidationError("exponential rate must be positive")
        if spec.truncation is None:
            raise ValidationError("exponential family requires a truncation bound")
        values = -np.log1p(-u) / rate
    elif fam == "lognormal":
        mu, sigma = spec.params
        if sigma <= 0.0:
            raise ValidationError("lognormal sigma must be positive")
        if spec.truncation is None:
            raise ValidationError("lognormal family requires a truncation bound")
        values = np.exp(mu + sigma * ndtri(u))
    elif fam == "empirical":
        data = np.sort(np.asarray(spec.params, dtype=np.float64))
        if data.size == 0:
            raise ValidationError("empirical family needs at least one sample value")
        n = data.size
        idx = np.minimum(np.ceil(u * n).astype(int) - 1, n - 1)
        values = data[np.maximum(idx, 0)]
    else:
        raise UnsupportedFamily(f"unknown family {fam!r}")

    if spec.truncation is not None:
        values = np.minimum(values, spec.truncation)
    return _canonical(values, np.full(m, 1.0 / m))


def quantile_index(d: DiscreteDistribution, u) -> np.ndarray:
    """Index of the smallest atom whose cumulative probability reaches u."""
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr > 1.0):
        raise OutOfRange("quantile level must lie in (0, 1]")
    return np.minimum(np.searchsorted(d._cum, u_arr, side="left"), len(d) - 1)


def quantile(d: DiscreteDistribution, u):
    """Left-continuous generalized inverse F^{-1}(u), u in (0, 1], at a scalar
    or an array of levels: the atoms at quantile_index."""
    out = d.values[quantile_index(d, u)]
    return float(out) if np.ndim(u) == 0 else out


def survival(d: DiscreteDistribution, t):
    """P(X > t), right-continuous in t. Accepts a scalar or an array."""
    t_arr = np.asarray(t, dtype=np.float64)
    k = np.searchsorted(d.values, t_arr, side="right")
    cdf = np.where(k > 0, d._cum[np.maximum(k - 1, 0)], 0.0)
    out = 1.0 - cdf
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _apply_map(phi, *arrays):
    """Apply phi to full arrays, falling back to elementwise evaluation."""
    try:
        out = np.asarray(phi(*arrays), dtype=np.float64)
        if out.shape == np.broadcast_shapes(*(a.shape for a in arrays)):
            return out
    except (TypeError, ValueError):
        pass
    flat = np.broadcast_arrays(*arrays)
    out = np.array(
        [phi(*vals) for vals in zip(*(a.ravel() for a in flat))], dtype=np.float64
    )
    return out.reshape(flat[0].shape)


def push_forward(d: DiscreteDistribution, phi) -> DiscreteDistribution:
    """Distribution of phi(X): atoms mapped, then re-sorted and merged."""
    return _canonical(_apply_map(phi, d.values), d.probs)


def independent_product(
    dY: DiscreteDistribution, dZ: DiscreteDistribution, phi
) -> DiscreteDistribution:
    """Distribution of phi(Y, Z) under independence of Y and Z.

    Forms the full product of atoms with probabilities p_i * q_j, then merges.
    Total mass is preserved within 1e-12.
    """
    yy = np.repeat(dY.values, len(dZ))
    zz = np.tile(dZ.values, len(dY))
    vals = _apply_map(phi, yy, zz)
    probs = np.outer(dY.probs, dZ.probs).ravel()
    return _canonical(vals, probs)


def ess_sup(d: DiscreteDistribution) -> float:
    """Largest atom value (essential supremum of the finite support)."""
    return float(d.values[-1])
