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
    _real,
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
    # quantile_index's bucket guide, built on its first guided call: most
    # distributions are built for one risk or premium evaluation and need none
    _guide: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
            exponential and lognormal, refused for point-mass.
        atoms: number of midpoint-quantile atoms (>= 2 except point-mass).
    """

    family: str
    params: tuple[float, ...]
    truncation: float | None = None
    atoms: int = 2

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.truncation is not None:
            if self.family == "point-mass":
                raise ValidationError("a point mass takes no truncation bound")
            t = _real(self.truncation)
            if t <= 0.0:
                raise ValidationError("truncation bound must be positive")
            object.__setattr__(self, "truncation", t)
        atoms = _integer(self.atoms)
        if self.family != "point-mass" and atoms < 2:
            raise ValidationError("atom count must be >= 2 for non-point-mass families")
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
        NonpositiveProb: a probability is <= 0.
        MassNotOne: the probabilities sum further than 1e-9 from 1.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("need at least one (value, prob) pair")
    values = np.array([p[0] for p in pairs], dtype=np.float64)
    probs = np.array([p[1] for p in pairs], dtype=np.float64)
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
        # the standard normal quantile by Wichura's AS 241 (Applied
        # Statistics 37(3), 1988), to about 1e-16 relative
        inv_cdf = NormalDist().inv_cdf
        z = np.array([inv_cdf(p) for p in u.tolist()])
        values = np.exp(mu + sigma * z)
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


# brackets wider than this finish in np.searchsorted, not by bisection
_BISECT_WIDTH = 16


def _search_bracketed(table, keys, lo, hi, side="left"):
    """np.searchsorted(table, keys, side), exactly, given per-key bounds
    lo <= answer <= hi (guide-table search; Devroye 1986, III.2.4).

    Keys whose bracket is at most _BISECT_WIDTH wide finish by a vectorized
    bisection with as many steps as the widest of them needs; wider ones go
    to np.searchsorted.
    """
    width = hi - lo
    wide = width > _BISECT_WIDTH
    if wide.any():
        lo = lo.copy()
        lo[wide] = np.searchsorted(table, keys[wide], side=side)
        hi = np.where(wide, lo, hi)
        width = hi - lo
    # the answer can be table.size; its sentinel never lies below a key
    ext = np.append(table, np.inf)
    below = np.less if side == "left" else np.less_equal
    for _ in range(int(width.max()).bit_length()):
        mid = (lo + hi) >> 1
        go = below(ext[mid], keys)
        lo = np.where(go, mid + 1, lo)
        hi = np.where(go, hi, mid)
    return lo


def quantile_index(d: DiscreteDistribution, u) -> np.ndarray:
    """Index of the smallest atom whose cumulative probability reaches u.

    A batch at least as large as the distribution is bracketed by a guide
    over 2**p dyadic buckets of (0, 1], p = ceil(log2 len(d)): a level in
    bucket b, b/2**p < u <= (b+1)/2**p, has its index between the counts of
    cumulative probabilities <= b/2**p and <= (b+1)/2**p, both read off one
    search over the bucket edges, made once per distribution. Every step is
    exact, so the result is np.searchsorted's.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    # a NaN level fails both comparisons
    if u_arr.size and not (u_arr.min() > 0.0 and u_arr.max() <= 1.0):
        raise OutOfRange("quantile level must lie in (0, 1]")
    cum = d._cum
    if u_arr.size < cum.size:
        idx = np.searchsorted(cum, u_arr, side="left")
    else:
        ends = d._guide
        if ends is None:
            m = 1 << (cum.size - 1).bit_length()
            ends = np.searchsorted(cum, np.arange(m + 1) / m, side="right")
            object.__setattr__(d, "_guide", ends)
        m = ends.size - 1
        keys = u_arr.ravel()
        # u * m is exact, so b/m < u <= (b+1)/m
        b = (np.ceil(keys * m) - 1.0).astype(np.intp)
        lo, hi = ends[b], ends[b + 1]
        idx = _search_bracketed(cum, keys, lo, hi).reshape(u_arr.shape)
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
