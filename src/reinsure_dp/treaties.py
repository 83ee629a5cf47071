"""Treaty families, their one table, and budget-feasible parameter ranges.

A treaty maps a claim y >= 0 to the retained part f(y); the ceded part
y - f(y) is what the reinsurer prices. Admissible treaties satisfy f(0) = 0
and 0 <= f(y2) - f(y1) <= y2 - y1. Every family is one way to parameterize
that class, and FAMILIES holds each family's facts in one place: parameter
names in policy.csv column order, which of them are vectors, the parameter
check, the retained map, and the one parameter a scalar search varies.

A piecewise-linear treaty retains the claim below its first knot in full
and the slope-weighted part of each segment above it, so all-ones slopes
are the identity treaty. Every constructor here produces an admissible
shape; `is_admissible` probes that numerically as the safety net for
user-supplied pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution
from .errors import InvalidTreaty, NegativeClaim, UnsupportedFamily
from .premiums import PremiumSpec, premium


@dataclass(frozen=True)
class Family:
    """One treaty family's entry in FAMILIES.

    fields: parameter names in policy.csv column order; None when the
        parameters are not numbers, so the family has no CSV form.
    check: validates raw parameters and returns the stored ones.
    retained: (params, y) -> retained part of nonnegative claims y; params
        may hold arrays that broadcast against y.
    scalar: the one parameter a scalar search varies, if any.
    curve: (pspec, dY, upper) -> premium_breakpoints table of the scalar
        parameter; upper is the layer's upper edge.
    vectors: the fields holding one number per knot.
    """

    fields: tuple[str, ...] | None
    check: Callable[[dict], dict]
    retained: Callable[[dict, np.ndarray], np.ndarray]
    scalar: str | None = None
    curve: Callable | None = None
    vectors: tuple[str, ...] = ()


def _check_proportional(p: dict) -> dict:
    c = float(p["c"])
    if not (0.0 <= c <= 1.0):
        raise InvalidTreaty("proportional share must lie in [0, 1]")
    return {"c": c}


def _check_stop_loss(p: dict) -> dict:
    a = float(p["a"])
    if a < 0.0:
        raise InvalidTreaty("stop-loss retention must be >= 0")
    return {"a": a}


def _check_layer(p: dict) -> dict:
    a, w = float(p["a"]), float(p["w"])
    if a < 0.0 or w < 0.0:
        raise InvalidTreaty("layer needs deductible >= 0 and width >= 0")
    return {"a": a, "w": w}


def _layer_retained(p: dict, y: np.ndarray) -> np.ndarray:
    a = p["a"]
    upper = a + p["w"]
    return np.maximum(np.minimum(a, y), y - upper + a)


def _check_piecewise(p: dict) -> dict:
    knots = np.asarray(p["knots"], dtype=np.float64)
    slopes = np.asarray(p["slopes"], dtype=np.float64)
    if knots.ndim != 1 or knots.shape != slopes.shape or len(knots) == 0:
        raise InvalidTreaty("knots and slopes must be equal-length vectors")
    if knots[0] < 0.0 or np.any(np.diff(knots) <= 0.0) or not np.all(np.isfinite(slopes)):
        raise InvalidTreaty("knots must be increasing and nonnegative, slopes finite")
    return {"knots": [float(t) for t in knots], "slopes": [float(s) for s in slopes]}


def _piecewise_retained(p: dict, y: np.ndarray) -> np.ndarray:
    knots = np.asarray(p["knots"], dtype=np.float64)
    slopes = np.asarray(p["slopes"], dtype=np.float64)
    widths = np.diff(np.concatenate([knots, [np.inf]]))
    segs = np.clip(y[..., None] - knots, 0.0, widths)
    # segment i cedes (1 - slope_i) of itself; the claim below the first
    # knot is retained in full, and all-ones slopes retain exactly y
    return y - segs @ (1.0 - slopes)


def _survival_steps(pspec: PremiumSpec, dY: DiscreteDistribution):
    # g(S_Y(y)) between consecutive atoms, from each atom to the next
    g = pspec.handle()
    tail = 1.0 - np.cumsum(dY.probs)
    return np.asarray(g(np.clip(tail, 0.0, 1.0)), dtype=np.float64)


def _retention_curve(pspec: PremiumSpec, dY: DiscreteDistribution, upper: float | None):
    # price of ceding everything between the retention and upper
    cut = float(dY.values[-1]) if upper is None else float(upper)
    pts = np.concatenate([[0.0], dY.values[(dY.values > 0.0) & (dY.values < cut)], [cut]])
    gs = _survival_steps(pspec, dY)
    idx = np.searchsorted(dY.values, pts[:-1], side="right")
    seg = np.diff(pts) * np.where(idx == 0, 1.0, gs[np.maximum(idx - 1, 0)])
    integral = np.concatenate([[0.0], np.cumsum(seg)])
    prems = (1.0 + pspec.theta) * (integral[-1] - integral)
    return pts, prems


def _check_custom(p: dict) -> dict:
    if not callable(p.get("fn")):
        raise InvalidTreaty("custom treaty needs a callable fn")
    return {"fn": p["fn"]}


FAMILIES: dict[str, Family] = {
    "identity": Family((), lambda p: {}, lambda p, y: y.copy()),
    "full-cession": Family((), lambda p: {}, lambda p, y: np.zeros_like(y)),
    "proportional": Family(
        ("c",), _check_proportional, lambda p, y: p["c"] * y, "c",
        lambda pspec, dY, upper: (np.array([0.0, 1.0]), np.array([premium(pspec, dY), 0.0])),
    ),
    "stop-loss": Family(
        ("a",), _check_stop_loss, lambda p, y: np.minimum(y, p["a"]), "a",
        lambda pspec, dY, upper: _retention_curve(pspec, dY, None),
    ),
    "layer": Family(("a", "w"), _check_layer, _layer_retained, "a", _retention_curve),
    "piecewise-linear": Family(
        ("knots", "slopes"), _check_piecewise, _piecewise_retained, vectors=("knots", "slopes")
    ),
    "custom": Family(None, _check_custom, lambda p, y: np.asarray(p["fn"](y), dtype=np.float64)),
}


class Treaty:
    """One retained-loss function; construct through make_treaty."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = params

    def retained(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < -1e-12):
            raise NegativeClaim("claims must be nonnegative")
        return FAMILIES[self.family].retained(self.params, np.maximum(y, 0.0))

    def ceded(self, y) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) - self.retained(y)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items() if k != "fn")
        return f"Treaty({self.family}, {inner})"


def make_treaty(family: str, params: dict) -> Treaty:
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown treaty family {family!r}")
    return Treaty(family, FAMILIES[family].check(params))


def is_admissible(f: Treaty, probe_grid) -> bool:
    """Probe 0 <= f <= id and 1-Lipschitz monotonicity on a sorted grid."""
    t = np.asarray(probe_grid, dtype=np.float64)
    vals = f.retained(t)
    slack = 1e-12
    if np.any(vals < -slack) or np.any(vals > t + slack):
        return False
    if np.any(np.diff(vals) < -slack):
        return False
    return not np.any(np.diff(t - vals) < -slack)


def premium_breakpoints(
    family: str,
    pspec: PremiumSpec,
    dY: DiscreteDistribution,
    upper: float | None = None,
):
    """Breakpoint table (params, premiums) of the treaty price as a function
    of the retention parameter.

    The price of a stop-loss or layer treaty is (1+theta) times the integral
    of g(S_Y) from the retention upward, so it is piecewise linear in the
    retention with kinks exactly at claim atoms; the table is exact and
    np.interp reproduces the price anywhere. Proportional cessions are linear
    by positive homogeneity. Premiums are decreasing along the table. Only
    the layer reads ``upper``, its upper edge (the top claim when None).
    """
    curve = FAMILIES[family].curve if family in FAMILIES else None
    if curve is None:
        raise UnsupportedFamily(f"no retention curve for family {family!r}")
    return curve(pspec, dY, upper)


def feasible_retention_range(
    family: str,
    pspec: PremiumSpec,
    dY: DiscreteDistribution,
    budget,
    upper: float | None = None,
):
    """Sub-interval of the retention parameter whose premium fits the budget.

    Covers the one-parameter families whose premium is continuous and
    decreasing in the parameter. Returns (lo, hi); hi is the full-retention
    end, which is always feasible (zero premium). ``budget`` is one budget
    (floats returned) or an array of them (arrays of its shape returned),
    all read off one breakpoint table; an infinite budget gives the range.
    """
    budget = np.maximum(0.0, np.asarray(budget, dtype=np.float64))
    params, prems = premium_breakpoints(family, pspec, dY, upper=upper)
    j = np.searchsorted(-prems, -budget, side="left") - 1
    j = np.clip(j, 0, len(params) - 2)
    run = prems[j] - prems[j + 1]
    frac = np.divide(prems[j] - budget, run, out=np.zeros(run.shape), where=run > 0.0)
    lo = np.where(prems[0] <= budget, params[0], params[j] + frac * (params[j + 1] - params[j]))
    hi = np.full(lo.shape, params[-1])
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)
