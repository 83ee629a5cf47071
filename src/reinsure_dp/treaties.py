"""Treaty families, their one table, and budget-feasible parameter ranges.

A treaty maps a claim y >= 0 to the retained part f(y); the ceded part
y - f(y) is what the reinsurer prices. Admissible treaties satisfy f(0) = 0
and 0 <= f(y2) - f(y1) <= y2 - y1. Every family is one way to parameterize
that class, and FAMILIES holds each family's facts in one place: parameter
names in policy.csv column order, which of them are vectors, the parameter
check, the retained map, the one parameter a scalar search varies, the
settings a search reads, and whether the map is monotone under rounding.

A piecewise-linear treaty retains the claim below its first knot in full
and the slope-weighted part of each segment above it, so all-ones slopes
are the identity treaty. Every constructor here produces an admissible
shape and refuses parameters outside the class, NaN included;
`is_admissible` probes that numerically as the safety net for custom
treaties, which a stored policy's table runs on the claim atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, _apply_map
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
    search: the SearchSpec settings a search over the family reads; None
        when the family cannot be searched.
    monotone: the retained map is nondecreasing under rounding, not only to a slack.
    """

    fields: tuple[str, ...] | None
    check: Callable[[dict], dict]
    retained: Callable[[dict, np.ndarray], np.ndarray]
    scalar: str | None = None
    curve: Callable | None = None
    vectors: tuple[str, ...] = ()
    search: tuple[str, ...] | None = None
    monotone: bool = True


def _check_proportional(p: dict) -> dict:
    c = float(p["c"])
    if not (0.0 <= c <= 1.0):
        raise InvalidTreaty("proportional share must lie in [0, 1]")
    return {"c": c}


def _check_stop_loss(p: dict) -> dict:
    a = float(p["a"])
    if not a >= 0.0:  # NaN fails too
        raise InvalidTreaty("stop-loss retention must be >= 0")
    return {"a": a}


def _check_layer(p: dict) -> dict:
    a, w = float(p["a"]), float(p["w"])
    # an infinite deductible would retain inf - inf
    if not (0.0 <= a < np.inf and w >= 0.0):
        raise InvalidTreaty("layer needs a finite deductible >= 0 and width >= 0")
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
    if not (knots[0] >= 0.0 and np.all(np.diff(knots) > 0.0) and knots[-1] < np.inf):
        raise InvalidTreaty("knots must be finite, increasing and nonnegative")
    if not np.all((slopes >= 0.0) & (slopes <= 1.0)):
        raise InvalidTreaty("slopes must lie in [0, 1]")
    return {"knots": [float(t) for t in knots], "slopes": [float(s) for s in slopes]}


def _knot_segments(knots, y: np.ndarray) -> np.ndarray:
    # each claim's part of each knot's segment, the last one unbounded
    widths = np.diff(np.concatenate([knots, [np.inf]]))
    return np.clip(y[..., None] - knots, 0.0, widths)


def _piecewise_retained(p: dict, y: np.ndarray) -> np.ndarray:
    slopes = np.asarray(p["slopes"], dtype=np.float64)
    # segment i cedes (1 - slope_i) of itself; the claim below the first
    # knot is retained in full, and all-ones slopes retain exactly y
    return y - _knot_segments(p["knots"], y) @ (1.0 - slopes)


def _survival_steps(pspec: PremiumSpec, dY: DiscreteDistribution):
    # g(S_Y(y)) between consecutive atoms, from each atom to the next
    tail = 1.0 - np.cumsum(dY.probs)
    return _apply_map(pspec.handle(), np.clip(tail, 0.0, 1.0))


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
        search=("resolution",),
    ),
    "stop-loss": Family(
        ("a",), _check_stop_loss, lambda p, y: np.minimum(y, p["a"]), "a",
        lambda pspec, dY, upper: _retention_curve(pspec, dY, None), search=("resolution",),
    ),
    "layer": Family(
        ("a", "w"), _check_layer, _layer_retained, "a", _retention_curve,
        search=("resolution", "layer_upper"),
    ),
    "piecewise-linear": Family(
        ("knots", "slopes"), _check_piecewise, _piecewise_retained, vectors=("knots", "slopes"),
        search=("resolution", "knots", "sweeps"), monotone=False,
    ),
    "custom": Family(None, _check_custom, lambda p, y: _apply_map(p["fn"], y), monotone=False),
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


def _family(name) -> Family | None:
    # name's FAMILIES entry; a name that is not a string has none
    return FAMILIES.get(name) if isinstance(name, str) else None


def make_treaty(family: str, params: dict) -> Treaty:
    if _family(family) is None:
        raise UnsupportedFamily(f"unknown treaty family {family!r}", "family")
    return Treaty(family, FAMILIES[family].check(params))


def is_admissible(f: Treaty, probe_grid) -> bool:
    """Probe 0 <= f <= id and 1-Lipschitz monotonicity on a sorted grid."""
    t = np.asarray(probe_grid, dtype=np.float64)
    return _admissible_values(t, f.retained(t))


def _admissible_values(t: np.ndarray, vals: np.ndarray) -> bool:
    # is_admissible's probe of retained values vals at the sorted grid t; NaN fails
    slack = 1e-12
    inside = np.all((vals >= -slack) & (vals <= t + slack))
    return bool(inside and np.all(np.diff(vals) >= -slack) and np.all(np.diff(t - vals) >= -slack))


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
    curve = getattr(_family(family), "curve", None)
    if curve is None:
        raise UnsupportedFamily(f"no retention curve for family {family!r}", "family")
    return curve(pspec, dY, upper)


def feasible_retention_range(table, budget):
    """Sub-interval of the retention parameter whose premium fits the budget.

    table is a premium_breakpoints table: the premium is continuous and
    decreasing along it. Returns (lo, hi); hi is the full-retention end,
    which is always feasible (zero premium). ``budget`` is one budget
    (floats returned) or an array of them (arrays of its shape returned);
    an infinite budget gives the whole table.
    """
    budget = np.maximum(0.0, np.asarray(budget, dtype=np.float64))
    params, prems = table
    j = np.searchsorted(-prems, -budget, side="left") - 1
    j = np.clip(j, 0, len(params) - 2)
    run = prems[j] - prems[j + 1]
    frac = np.divide(prems[j] - budget, run, out=np.zeros(run.shape), where=run > 0.0)
    lo = np.where(prems[0] <= budget, params[0], params[j] + frac * (params[j + 1] - params[j]))
    hi = np.full(lo.shape, params[-1])
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)
