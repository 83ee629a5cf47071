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
* ``survival(t) = P(X > t)`` is right-continuous in ``t``, never negative, and
  exactly 0 at and above the top atom.
* Atom values are strictly increasing; construction merges exact duplicates by
  summing their probabilities (no fuzzy merging, for reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import (
    MassNotOne,
    NonpositiveProb,
    OutOfRange,
    UnsupportedFamily,
    ValidationError,
    _integer,
    _number,
    _real,
    _refuse_unread,
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
    # quantile_index's bucket guide (start, cut, wide), built on its first
    # guided call: most distributions are built for one risk or premium
    # evaluation and need none
    _guide: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or values.shape != probs.shape:
            raise ValidationError("values and probs must be 1-D arrays of equal length")
        if values.size == 0:
            raise ValidationError("distribution needs at least one atom")
        if not np.all(np.isfinite(values)):
            raise ValidationError("atom values must be finite")
        if not np.all(probs > 0.0):  # NaN fails too
            raise NonpositiveProb("every atom probability must be positive")
        if np.any(np.diff(values) <= 0.0):
            raise ValidationError("atom values must be strictly increasing")
        total = float(probs.sum())
        if not abs(total - 1.0) <= MASS_TOL:
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


# each family's parameter count (None: an empirical sample takes any number)
# and the rule its parameters meet, with the refusal when they do not
_FAMILIES = {
    "uniform": (2, lambda p: p[0] < p[1], "uniform family needs a < b"),
    "exponential": (1, lambda p: p[0] > 0.0, "exponential rate must be positive"),
    "lognormal": (2, lambda p: p[1] > 0.0, "lognormal sigma must be positive"),
    "empirical": (None, len, "empirical family needs at least one sample value"),
    "point-mass": (1, lambda p: True, ""),
}


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for discretizing a named family.

    Attributes:
        family: one of "uniform", "exponential", "lognormal", "empirical",
            "point-mass".
        params: family parameters - uniform (a, b), a < b; exponential
            (rate,), rate > 0; lognormal (mu, sigma), sigma > 0; empirical
            (the raw sample values, at least one); point-mass (z,).
        truncation: upper bound at which unbounded supports are capped; the
            mass beyond is assigned to the bound atom. Required for
            exponential and lognormal.
        atoms: number of midpoint-quantile atoms, at least 2; None reads as 2.

    A point mass reads neither truncation nor atoms. A field the family does
    not read is refused, naming it, and discretize checks nothing.
    """

    family: str
    params: tuple[float, ...]
    truncation: float | None = None
    atoms: int | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise UnsupportedFamily(f"unknown family {self.family!r}", "family")
        reads = ("params",) if self.family == "point-mass" else ("params", "truncation", "atoms")
        _refuse_unread(self, self.family, reads)
        try:
            params = tuple(_real(p, "params") for p in self.params)
        except TypeError:  # params is not iterable
            raise ValidationError(f"expected a list, got {self.params!r}", "params") from None
        n, rule, message = _FAMILIES[self.family]
        if n is not None and len(params) != n:
            raise ValidationError(
                f"{self.family} takes {n} parameter{'s' * (n > 1)}, got {len(params)}", "params"
            )
        if not rule(params):
            raise ValidationError(message, "params")
        object.__setattr__(self, "params", params)
        if self.family == "point-mass":
            return
        if self.truncation is not None:
            t = _real(self.truncation, "truncation")
            if t <= 0.0:
                raise ValidationError("truncation bound must be positive", "truncation")
            object.__setattr__(self, "truncation", t)
        elif self.family in ("exponential", "lognormal"):
            raise ValidationError(f"{self.family} family requires a truncation bound", "truncation")
        atoms = 2 if self.atoms is None else _integer(self.atoms, "atoms")
        if atoms < 2:
            raise ValidationError("atom count must be >= 2 for non-point-mass families", "atoms")
        object.__setattr__(self, "atoms", atoms)


def _canonical(values: np.ndarray, probs: np.ndarray) -> DiscreteDistribution:
    """Sort atoms and merge exact-equal values; mass is taken as given.

    Equal values are merged by summing their probabilities in stable sort
    order, the order np.unique's inverse would give them.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    probs = np.asarray(probs, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    if not new.all():
        probs = np.bincount(np.cumsum(new) - 1, weights=probs)
        values = values[new]
    return DiscreteDistribution(values, probs)


def make_discrete(pairs) -> DiscreteDistribution:
    """Build a distribution from (value, prob) pairs.

    Pairs are sorted, exact-duplicate values merged, and probabilities
    normalized provided their sum is within 1e-9 of 1; a sum within MASS_TOL
    of 1 is kept as given, so a distribution's to_pairs() read back bitwise.

    Raises:
        ValidationError: a cell is not a number (a quoted number or a
            boolean included), at field pairs.
        NonpositiveProb: a probability is <= 0.
        MassNotOne: the probabilities sum further than 1e-9 from 1.
    """
    try:
        cells = [(_number(v, "pairs"), _number(p, "pairs")) for v, p in pairs]
    except (TypeError, ValueError):  # pairs, or a pair, is not a sequence of two
        raise ValidationError("expected a list of (value, prob) pairs", "pairs") from None
    if not cells:
        raise ValidationError("need at least one (value, prob) pair")
    values, probs = (np.array(column, dtype=np.float64) for column in zip(*cells))
    if not np.all(probs > 0.0):  # NaN fails too
        raise NonpositiveProb("every atom probability must be positive")
    total = float(probs.sum())
    if not abs(total - 1.0) <= _MAKE_MASS_TOL:
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
        values = a + (b - a) * u
    elif fam == "exponential":
        (rate,) = spec.params
        values = -np.log1p(-u) / rate
    elif fam == "lognormal":
        mu, sigma = spec.params
        # the standard normal quantile by Wichura's AS 241 (Applied
        # Statistics 37(3), 1988), to about 1e-16 relative
        inv_cdf = NormalDist().inv_cdf
        z = np.array([inv_cdf(p) for p in u.tolist()])
        values = np.exp(mu + sigma * z)
    else:  # empirical
        data = np.sort(np.asarray(spec.params, dtype=np.float64))
        n = data.size
        idx = np.minimum(np.ceil(u * n).astype(int) - 1, n - 1)
        values = data[np.maximum(idx, 0)]

    if spec.truncation is not None:
        values = np.minimum(values, spec.truncation)
    return _canonical(values, np.full(m, 1.0 / m))


def quantile_index(d: DiscreteDistribution, u) -> np.ndarray:
    """Index of the smallest atom whose cumulative probability reaches u.

    A batch at least as large as the distribution reads a guide over the 2**p
    dyadic buckets of (0, 1], p = ceil(log2 len(d)) (Chen & Asau 1974; Devroye
    1986, III.2.4), built once per distribution. Bucket b, b/2**p < u <=
    (b+1)/2**p, stores start[b], the count of cumulative probabilities <=
    b/2**p, and cut[b], the one at start[b]; a level in it has its index
    between start[b] and start[b + 1]. So where the bucket holds at most one
    cumulative probability the index is start[b] + (cut[b] < u), and only
    levels in wider buckets are searched. Every step is exact: the result is
    np.searchsorted's.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    # a NaN level fails both comparisons
    if u_arr.size and not (u_arr.min() > 0.0 and u_arr.max() <= 1.0):
        raise OutOfRange("quantile level must lie in (0, 1]")
    cum = d._cum
    if u_arr.size < cum.size:
        idx = np.searchsorted(cum, u_arr, side="left")
    else:
        if d._guide is None:
            m = 1 << (cum.size - 1).bit_length()
            ends = np.searchsorted(cum, np.arange(m + 1) / m, side="right")
            # start[b] can be cum.size; its cut never lies below a level
            cut = np.append(cum, np.inf)[ends[:-1]]
            object.__setattr__(d, "_guide", (ends[:-1], cut, np.diff(ends) > 1))
        start, cut, wide = d._guide
        keys = u_arr.ravel()
        # u * 2**p is exact, so b/2**p < u <= (b+1)/2**p
        b = (np.ceil(keys * start.size) - 1.0).astype(np.intp)
        idx = start[b] + (cut[b] < keys)
        if wide.any():
            wide = wide[b]
            idx[wide] = np.searchsorted(cum, keys[wide])
        idx = idx.reshape(u_arr.shape)
    return np.minimum(idx, len(d) - 1)


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
    # the cumulative sum can end an ulp off 1; no mass lies above the top atom
    out = np.where(k < len(d), np.maximum(1.0 - cdf, 0.0), 0.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _apply_map(phi, *arrays):
    """Apply phi to full arrays, falling back to elementwise evaluation; every
    user function called on an array comes here, so scalar-only ones work."""
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
