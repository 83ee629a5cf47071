"""Closed-form reference solutions for configurations with known optima.

Three settings admit explicit or semi-explicit answers that the dynamic
solver is validated against: value-at-risk with deterministic premium income
(layer treaties, deductible from a one-dimensional kink equation), expected
shortfall on uniform claims (stop-loss with a fully explicit parameter
formula), and the unconstrained stationary problem under a positively
homogeneous risk measure (affine value functions driven by one static
optimization). `static_reinsurance` solves the generic one-period problem by
direct search and ties the three to the dynamic code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, independent_product, survival
from .dp import ModelConfig, SearchSpec
from .errors import InvalidDistortion, OutOfRange, ParameterRegime, ValidationError
from .premiums import PremiumSpec, layer_premium_closed_form, treaty_premium
from .risk import RiskSpec, _check_distortion, evaluate, var
from .treaties import feasible_retention_range

# bracket width for the bisections; parameters are only meaningful to the
# claim-atom resolution anyway
_BRACKET = 1e-10


@dataclass(frozen=True)
class VarLayerSolution:
    """Layer-deductible answer under value-at-risk.

    a_star is the deductible of the unconstrained static problem, a_of_x the
    budget-adjusted deductible as a function of surplus, var_level the claim
    quantile fixing the layer's upper edge.
    """

    a_star: float
    a_of_x: Callable[[float], float]
    var_level: float


def oracle_var_layer(
    dY: DiscreteDistribution,
    g: Callable,
    theta: float,
    alpha: float,
) -> VarLayerSolution:
    """Optimal layer deductible under value-at-risk, by the kink equation.

    The static objective a + pi(layer above a) is convex piecewise linear
    with slope 1 - (1+theta) g(S_Y(a)), so its minimum sits where the slope
    crosses zero (a claim atom) unless reinsurance is cheap enough that the
    slope never turns positive, in which case the whole layer up to the
    quantile is retained. a_of_x returns the smallest deductible at or above
    the unconstrained one whose premium fits the budget x+.
    """
    if not (0.0 < alpha < 1.0):
        raise OutOfRange("alpha must lie in (0, 1)")
    if theta < 0.0:
        raise OutOfRange("loading theta must be >= 0")
    if not callable(g):
        raise InvalidDistortion("distortion handle must be callable")
    _check_distortion(g)
    v = var(dY, alpha)

    def pi_of(a: float) -> float:
        return layer_premium_closed_form(dY, g, theta, a, v)

    def slope(a: float) -> float:
        return 1.0 - (1.0 + theta) * float(g(survival(dY, a)))

    if float(g(1.0 - alpha)) >= 1.0 / (1.0 + theta):
        a_star = v
    else:
        # slope is increasing and right-continuous; bisect for its first
        # nonnegative point, then settle the minimum among the atom kinks
        lo, hi = 0.0, v
        if slope(0.0) >= 0.0:
            hi = 0.0
        else:
            while hi - lo > _BRACKET:
                mid = 0.5 * (lo + hi)
                if slope(mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
        inside = dY.values[(dY.values > 0.0) & (dY.values < v)]
        cand = np.unique(np.concatenate([[0.0, hi, v], inside]))
        psi = np.array([float(a) + pi_of(float(a)) for a in cand])
        a_star = float(cand[int(np.argmin(psi))])

    pi_star = pi_of(a_star)

    def a_of_x(x: float) -> float:
        b = max(float(x), 0.0)
        if pi_star <= b:
            return a_star
        # premium decreases continuously in the deductible and hits zero at
        # the upper edge, so the feasibility boundary brackets cleanly
        lo, hi = a_star, v
        while hi - lo > _BRACKET:
            mid = 0.5 * (lo + hi)
            if pi_of(mid) <= b:
                hi = mid
            else:
                lo = mid
        return hi

    return VarLayerSolution(a_star=a_star, a_of_x=a_of_x, var_level=v)


def oracle_es_uniform(theta: float, alpha: float, x: float) -> float:
    """Optimal stop-loss retention for uniform(0,1) claims under expected
    shortfall and expected premium: the larger of the unconstrained retention
    theta/(1+theta) (capped at alpha) and the smallest retention the budget
    x+ can afford."""
    if not (0.0 < alpha < 1.0):
        raise OutOfRange("alpha must lie in (0, 1)")
    if theta < 0.0:
        raise OutOfRange("loading theta must be >= 0")
    if 1.0 / (1.0 - alpha) < 1.0 + theta:
        raise ParameterRegime(
            "the stop-loss reduction needs 1/(1-alpha) >= 1+theta"
        )
    floor = min(theta / (1.0 + theta), alpha)
    forced = max(1.0 - math.sqrt(2.0 * max(float(x), 0.0) / (1.0 + theta)), 0.0)
    return max(floor, forced)


def _zoom_scalar(objective, lo, hi, resolution, levels=3):
    # same ladder geometry as the dynamic solver's search: evenly spaced
    # probes, first minimum wins, recurse into the bracketing cells
    frac = np.linspace(0.0, 1.0, resolution + 1)
    best_val, best_par = math.inf, hi
    for _ in range(levels):
        params = np.clip(lo + (hi - lo) * frac, lo, hi)
        vals = np.array([objective(float(p)) for p in params])
        i = int(np.argmin(vals))
        if vals[i] < best_val or (vals[i] == best_val and params[i] < best_par):
            best_val, best_par = float(vals[i]), float(params[i])
        lo = float(params[max(i - 1, 0)])
        hi = float(params[min(i + 1, resolution)])
    return best_par, best_val


def oracle_unconstrained(config: ModelConfig):
    """Constant, treaty, and affine coefficients of the unconstrained problem.

    Returns (c, f_star, coeffs) where c is the static optimum of
    rho(f(Y) - Z) + pi(f), f_star its minimizer, and coeffs one (intercept,
    slope) pair per stage: stage n has intercept c * sum (k+1) beta^k and
    slope -sum beta^k over k < N-n; the stationary pair is (c/(1-beta)^2,
    -1/(1-beta)).
    """
    if len(config.stages) != 1:
        raise ValidationError("the affine construction needs one stationary stage")
    s = config.stage(0)
    if s.budget_constrained:
        raise ValidationError("the affine construction needs an unconstrained stage")
    if s.risk.kind == "entropic":
        raise ValidationError(
            "the affine construction needs a positively homogeneous risk measure"
        )
    search = config.search

    def objective(p: float) -> float:
        f = search.treaty(p)
        dist = independent_product(s.dY, s.dZ, lambda y, z: f.retained(y) - z)
        return evaluate(s.risk, dist) + treaty_premium(s.premium, s.dY, f)

    lo, hi = feasible_retention_range(search.curve(s.premium, s.dY), math.inf)
    par, c = _zoom_scalar(objective, lo, hi, search.resolution)
    f_star = search.treaty(par)

    beta = s.beta
    if config.is_infinite:
        gap = 1.0 - beta
        coeffs = ((c / gap**2, -1.0 / gap),)
    else:
        pairs = []
        for n in range(config.horizon + 1):
            ks = np.arange(config.horizon - n, dtype=np.float64)
            pw = beta**ks
            pairs.append((c * float(np.dot(ks + 1.0, pw)), -float(np.sum(pw))))
        coeffs = tuple(pairs)
    return c, f_star, coeffs


def static_reinsurance(
    risk: RiskSpec,
    premium_spec: PremiumSpec,
    dY: DiscreteDistribution,
    dZ: DiscreteDistribution,
    budget: float | None,
    search: SearchSpec,
):
    """One-period optimum of rho(f(Y) + pi(f) - Z) over the search family.

    budget None (or infinity) lifts the premium constraint; a negative or
    NaN budget is refused. With a point mass at zero for dZ this is the
    classical static problem; with the actual income distribution it equals
    the one-stage dynamic solve shifted by the surplus.
    """
    budget = math.inf if budget is None else float(budget)
    if not budget >= 0.0:  # NaN fails too
        raise OutOfRange("budget must be >= 0, or None when unconstrained")

    def objective(p: float) -> float:
        f = search.treaty(p)
        prem = treaty_premium(premium_spec, dY, f)
        dist = independent_product(dY, dZ, lambda y, z: f.retained(y) + prem - z)
        return evaluate(risk, dist)

    lo, hi = feasible_retention_range(search.curve(premium_spec, dY), budget)
    par, val = _zoom_scalar(objective, lo, hi, search.resolution)
    return search.treaty(par), val
