"""Gridded Bellman machinery for the dynamic reinsurance problem.

Value functions live on a fixed surplus grid as piecewise-linear decreasing
functions with explicit tail slopes. The one-period cost of a treaty f at
surplus x is rho(-X' + beta v(X')) where X' = x + Z - f(Y) - pi(f) is the
next surplus. Because -x' + beta v(x') is strictly decreasing in x' whenever
v is decreasing, sorting the cost atoms is the same as sorting next-surplus
atoms in reverse, and the risk-measure weights depend only on that ordering.

One batched evaluator prices every (state, treaty) pair, whether a search
ladder's candidates or a stored policy's rows. How it orders and weighs the
(Y, Z) atoms depends only on the stage and the treaty families: _route
chooses that once per searched or replayed stage and lists the routes. The
zero terminal value is added as a constant, not interpolated; under it a
weight-based measure is cash invariant, so a state shifts its pairs' values
by -x sum(w) alone and a scalar search prices each distinct probe ladder
once, for every state that probes it. Pairs go through in cache-sized
slices, each reducing on its own: bounded temporaries, same bits.

Candidate search over one-parameter families runs a fixed three-level zoom:
scan an evenly spaced ladder over the feasible interval, then rescan inside
the bracketing cells. A one-point interval takes one probe. Every probe
ladder is a pure function of the feasible interval, and ties in the
objective break toward the smaller parameter, so reruns and equivalent
reformulations of the objective select identical parameters. The
piecewise-linear search descends knot by knot from the identity treaty, one
batched call scoring every state's slope candidates. Every searched and
replayed stage value is the evaluator's; apply_L checks it at three states.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, ess_sup, independent_product
from .errors import (
    EnvelopeViolation,
    GridMismatch,
    InfeasiblePolicyRow,
    InvalidTreaty,
    MaxIterations,
    MonotonicityViolation,
    NumericError,
    UnsupportedFamily,
    ValidationError,
    _integer,
    _real,
    _refuse_unread,
)
from .premiums import PremiumSpec, premium, treaty_premium
from .risk import RiskSpec, _logsumexp, atom_weights, evaluate, is_coherent
from .treaties import (
    FAMILIES,
    Treaty,
    _admissible_values,
    _family,
    _knot_segments,
    feasible_retention_range,
    make_treaty,
    premium_breakpoints,
)

# tolerated upward wiggle of a computed value function between neighboring
# grid states; anything larger signals a resolution problem, not noise
_MONO_TOL = 1e-6
_ZOOM_LEVELS = 3
# (pair, atom) cells evaluated at once: cache-sized, so the evaluator's
# temporaries stay small whatever the grid and candidate counts
_CHUNK_ELEMS = 1 << 14
# tolerated excess of a stored policy's premium over its state's budget
_BUDGET_SLACK = 1e-9


class ValueFunction:
    """Decreasing piecewise-linear function with linear tails.

    Inside the grid, evaluation interpolates; outside, it continues with the
    stored tail slopes. Construction rejects value rows that increase by more
    than a small tolerance between neighboring states.
    """

    __slots__ = ("grid", "values", "slope_left", "slope_right")

    def __init__(self, grid, values, slope_left=0.0, slope_right=0.0):
        grid = np.ascontiguousarray(grid, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ValidationError("grid and values must be 1-D arrays of equal length >= 2")
        if np.any(np.diff(grid) <= 0.0):
            raise ValidationError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values must be finite")
        rise = float(np.max(np.diff(values)))
        if rise > _MONO_TOL:
            raise MonotonicityViolation(
                f"values increase by {rise:.3g} between neighboring states; "
                "refine the state grid or the candidate search"
            )
        self.grid = grid
        self.values = values
        self.slope_left = float(slope_left)
        self.slope_right = float(slope_right)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.interp(x, self.grid, self.values)
        g0, g1 = self.grid[0], self.grid[-1]
        below = x < g0
        if np.any(below):
            out = np.where(below, self.values[0] + self.slope_left * (x - g0), out)
        above = x > g1
        if np.any(above):
            out = np.where(above, self.values[-1] + self.slope_right * (x - g1), out)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StageData:
    """Per-stage model data: claim, premium income, risk measure, pricing."""

    dY: DiscreteDistribution
    dZ: DiscreteDistribution
    risk: RiskSpec
    premium: PremiumSpec
    beta: float
    budget_constrained: bool = True

    def __post_init__(self):
        beta = _real(self.beta, "beta")
        if not (0.0 < beta <= 1.0):
            raise ValidationError("discount factor must lie in (0, 1]", "beta")
        object.__setattr__(self, "beta", beta)
        if not isinstance(self.budget_constrained, bool):
            got = self.budget_constrained
            raise ValidationError(f"expected true or false, got {got!r}", "budget_constrained")


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        lo, hi, count = _real(self.lo, "lo"), _real(self.hi, "hi"), _integer(self.count, "count")
        if not lo < hi:
            raise ValidationError("grid bounds must be finite with lo < hi", "hi")
        if count < 16:
            raise ValidationError("grid needs at least 16 points", "count")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "count", count)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SearchSpec:
    """Treaty family to optimize over, plus the search settings it reads.

    resolution: cells per zoom level (one-parameter families) or candidate
        count per coordinate (piecewise-linear).
    layer_upper: fixed upper edge of the ceded layer; required for the layer
        family, where the searched parameter is the lower edge.
    knots / sweeps: piecewise-linear family only; sweeps defaults to 3.

    The settings each family reads are its FAMILIES entry's ``search``; a
    setting the family does not read is refused, naming it, so a spec
    carries only settings that act. The methods hold the family's facts that
    only the search needs.
    """

    family: str
    resolution: int = 64
    layer_upper: float | None = None
    knots: tuple[float, ...] | None = None
    sweeps: int | None = None

    def __post_init__(self):
        reads = getattr(_family(self.family), "search", None)
        if reads is None:
            raise UnsupportedFamily(f"cannot search over family {self.family!r}", "family")
        _refuse_unread(self, f"{self.family} search", reads)
        resolution = _integer(self.resolution, "resolution")
        if resolution < 8:
            raise ValidationError("search resolution must be at least 8", "resolution")
        object.__setattr__(self, "resolution", resolution)
        if self.family == "layer":
            upper = None if self.layer_upper is None else _real(self.layer_upper, "layer_upper")
            if upper is None or not upper > 0.0:
                raise ValidationError("layer search needs a positive layer_upper", "layer_upper")
            object.__setattr__(self, "layer_upper", upper)
        if self.family == "piecewise-linear":
            if not self.knots:
                raise ValidationError("piecewise-linear search needs knots", "knots")
            ones = np.ones(len(self.knots))
            knots = FAMILIES[self.family].check({"knots": self.knots, "slopes": ones})["knots"]
            object.__setattr__(self, "knots", tuple(knots))
            sweeps = 3 if self.sweeps is None else _integer(self.sweeps, "sweeps")
            if sweeps < 1:
                raise ValidationError("sweeps must be >= 1", "sweeps")
            object.__setattr__(self, "sweeps", sweeps)

    @property
    def scalar(self) -> str | None:
        """The parameter a scalar search varies; None for coordinate descent."""
        return FAMILIES[self.family].scalar

    def curve(self, pspec: PremiumSpec, dY: DiscreteDistribution):
        """premium_breakpoints table of the searched parameter: the layer's
        curve ends at layer_upper. Its budget-feasible intervals are
        feasible_retention_range(curve, budget)."""
        return premium_breakpoints(self.family, pspec, dY, upper=self.layer_upper)

    def treaty(self, p) -> Treaty:
        """The treaty at search parameter p."""
        p = float(p)
        if self.family == "layer":
            return make_treaty(self.family, {"a": p, "w": self.layer_upper - p})
        return make_treaty(self.family, {self.scalar: p})

    def retained(self, params, y):
        """Retained claims y at every search parameter in params, broadcast."""
        if self.family == "layer":
            # one scalar upper edge off the atoms; Treaty's map, the
            # reference, subtracts a separate edge a + w per (state,
            # candidate) pair over every atom, which is slower
            return np.minimum(y, params) + np.maximum(y - self.layer_upper, 0.0)
        return FAMILIES[self.family].retained({self.scalar: params}, y)


@dataclass(frozen=True)
class ModelConfig:
    """Full solve description: horizon, stages, state grid, search, tolerance.

    horizon None means stationary infinite-horizon; stages then holds exactly
    one StageData, with beta < 1 and a coherent risk measure. A finite
    horizon accepts either one shared stage or one StageData per stage.
    """

    horizon: int | None
    stages: tuple[StageData, ...]
    grid: GridSpec
    search: SearchSpec
    tol: float = 1e-4

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValidationError("at least one stage is required", "stages")
        if self.horizon is None:
            if len(stages) != 1:
                raise ValidationError("infinite horizon takes a single stationary stage", "stages")
            if stages[0].beta >= 1.0:
                raise ValidationError(
                    "infinite horizon needs strict discounting (beta < 1)", "stages[0].beta"
                )
            if not is_coherent(stages[0].risk):
                raise ValidationError(
                    "infinite horizon: coherence required, but risk kind"
                    f" {stages[0].risk.kind!r} is not coherent", "stages[0].risk"
                )
        else:
            n = _integer(self.horizon, "horizon")
            if n < 1:
                raise ValidationError("horizon must be >= 1", "horizon")
            object.__setattr__(self, "horizon", n)
            if len(stages) not in (1, n):
                raise ValidationError(
                    "provide one shared stage or exactly one per stage", "stages"
                )
        tol = _real(self.tol, "tol")
        if not tol > 0.0:
            raise ValidationError("tolerance must be positive", "tol")
        object.__setattr__(self, "tol", tol)

    @property
    def is_infinite(self) -> bool:
        return self.horizon is None

    def stage(self, n: int) -> StageData:
        return self.stages[0] if len(self.stages) == 1 else self.stages[n]


@dataclass(frozen=True)
class PolicyTable:
    """One treaty per (stage, grid state)."""

    grid: np.ndarray
    rows: tuple[tuple[Treaty, ...], ...]

    def stage_params(self, n: int) -> np.ndarray:
        """Scalar search parameter per state; one-parameter families only."""
        out = []
        for f in self.rows[n]:
            name = FAMILIES[f.family].scalar
            if name is None:
                raise ValidationError(f"family {f.family!r} has no scalar parameter")
            out.append(f.params[name])
        return np.asarray(out, dtype=np.float64)


@dataclass(frozen=True)
class InfiniteSolution:
    value: ValueFunction
    policy: PolicyTable
    iterations: int
    certificate: float


# ---------------------------------------------------------------------------
# bounding envelopes and the weighted norm


def _stationary_eta(s: StageData) -> tuple[float, float, float]:
    return evaluate(s.risk, s.dY), premium(s.premium, s.dY), ess_sup(s.dZ)


def _finite_coeffs(config: ModelConfig):
    n = config.horizon
    a = np.zeros(n + 1)
    c_lo = np.zeros(n + 1)
    c_hi = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        s = config.stage(k)
        growth = 1.0 + s.beta * a[k + 1]
        scaled = DiscreteDistribution(growth * s.dY.values, s.dY.probs)
        a[k] = growth
        c_lo[k] = growth * ess_sup(s.dZ) + s.beta * c_lo[k + 1]
        c_hi[k] = evaluate(s.risk, scaled) + growth * premium(s.premium, s.dY) + s.beta * c_hi[k + 1]
    return a, c_lo, c_hi


def bounding_functions(config: ModelConfig, n: int):
    """Stage-n envelope (b_low, b_high) sandwiching every candidate value.

    Finite horizon: b_low(x) = -c_lo - a x+ and b_high(x) = c_hi + a x-,
    with the coefficients built backward from zero terminal values. The
    stationary envelope replaces the coefficients by their geometric limits.
    """
    if config.is_infinite:
        s = config.stage(0)
        rho_y, pi_y, zbar = _stationary_eta(s)
        gap = 1.0 - s.beta
        lo_off = zbar / gap**2
        hi_off = (rho_y + pi_y) / gap**2
        slope = 1.0 / gap
    else:
        if not 0 <= n <= config.horizon:
            raise ValidationError(f"stage index {n} outside 0..{config.horizon}")
        a, c_lo, c_hi = _finite_coeffs(config)
        lo_off, hi_off, slope = c_lo[n], c_hi[n], a[n]

    def b_low(x):
        x = np.asarray(x, dtype=np.float64)
        return -lo_off - slope * np.maximum(x, 0.0)

    def b_high(x):
        x = np.asarray(x, dtype=np.float64)
        return hi_off + slope * np.maximum(-x, 0.0)

    return b_low, b_high


def weighted_norm(v1: ValueFunction, v2: ValueFunction, config: ModelConfig) -> float:
    """Largest grid gap |v1 - v2| relative to the stationary weight b."""
    if not np.array_equal(v1.grid, v2.grid):
        raise GridMismatch("value functions live on different grids")
    s = config.stage(0)
    if s.beta >= 1.0:
        raise ValidationError("the weighted norm needs beta < 1")
    rho_y, pi_y, zbar = _stationary_eta(s)
    eta = rho_y + pi_y + zbar
    b = np.abs(v1.grid) / (1.0 - s.beta) + eta / (1.0 - s.beta) ** 2
    return float(np.max(np.abs(v1.values - v2.values) / b))


# ---------------------------------------------------------------------------
# one-treaty evaluation: the reference route


def apply_L(v: ValueFunction, x: float, f: Treaty, s: StageData) -> float:
    """One-period cost of treaty f at surplus x with continuation v.

    Builds the cost distribution explicitly over the (Y, Z) product and hands
    it to the risk measure; exact up to interpolation of v. The batched
    evaluator must agree with this route.
    """
    p = treaty_premium(s.premium, s.dY, f)
    x = float(x)

    def cost(y, z):
        h = f.retained(y)
        nxt = x + z - h - p
        return h + p - z - x + s.beta * v(nxt)

    return evaluate(s.risk, independent_product(s.dY, s.dZ, cost))


# ---------------------------------------------------------------------------
# batched evaluation


_Route = namedtuple("_Route", "name cols z probs w head")


def _route(s: StageData, families) -> _Route:
    """The evaluator route of stage s under families, and what its pairs share.

    cols, z and probs are the kept (Y, Z) atoms' claim columns, incomes and
    probabilities, z-major: a pair's row is kz descending runs, which a
    stable sort merges. w weighs each pair's offsets sorted descending (None:
    one row per pair), and head counts its leading zeros. The routes:

    - "entropic": w is probs, unordered; no sort.
    - "point": one income atom orders every treaty's atoms by claim; only
      those w weighs are kept.
    - "tail": equally likely atoms, so every order shares w. A monotone map
      puts atom (p, q) (p = ky - i, q = j + 1 for claim rank i, income rank
      j) at or above p q - 1 others, so only atoms with p q <= w.size - head
      reach the weighted tail; all are kept if a family is not monotone.
    - "per-pair": unequal probabilities: a stable argsort and weights per pair.
    """
    ky, kz = len(s.dY), len(s.dZ)
    cols = np.tile(np.arange(ky), kz)
    z = np.repeat(s.dZ.values, ky)
    probs = np.outer(s.dZ.probs, s.dY.probs).ravel()
    if s.risk.kind == "entropic":
        return _Route("entropic", cols, z, probs, probs, 0)
    if kz > 1 and not np.all(probs == probs[0]):
        return _Route("per-pair", cols, z, probs, None, 0)
    w = atom_weights(s.risk, probs)
    if kz == 1:
        act = np.flatnonzero(w)
        return _Route("point", cols[act], z[act], probs[act], w[act], 0)
    head = int(np.argmax(w != 0.0))
    m = w.size - head if all(FAMILIES[f].monotone for f in families) else w.size
    keep = (ky - cols) * np.repeat(np.arange(1, kz + 1), ky) <= m
    return _Route("tail", cols[keep], z[keep], probs[keep], w, head)


def _next_atoms(s: StageData, route: _Route, prem, retained):
    """Next-surplus atoms of flattened (state, treaty) pairs, slice by slice.

    prem holds each pair's premium, retained(sl, cols, y) the retained claims
    of pairs sl at claim atoms cols, whose values are y. Yields (sl, t, w):
    pair i of sl moves to its surplus plus t[i], laid out as _route says, and
    w weighs t. A slice holds _CHUNK_ELEMS cells of t, one pair or more.
    """
    prem, cols, head = np.ravel(prem), route.cols, route.head
    y = s.dY.values[cols]
    step = max(1, _CHUNK_ELEMS // (cols.size if route.w is None else route.w.size))
    for lo in range(0, prem.size, step):
        sl = slice(lo, lo + step)
        t = route.z - retained(sl, cols, y) - prem[sl, None]
        w = route.w
        if route.name == "tail":
            np.negative(t, out=t).sort(axis=-1, kind="stable")
            t, kept = np.zeros((t.shape[0], w.size)), t
            np.negative(kept[:, cols.size - w.size + head:], out=t[:, head:])
        elif route.name == "per-pair":
            order = np.argsort(-t, axis=-1, kind="stable")
            t = np.take_along_axis(t, order, axis=-1)
            w = atom_weights(s.risk, route.probs[order])
        yield sl, t, w


def _is_zero(v: ValueFunction) -> bool:
    # the zero terminal value: interpolating it gives +0.0 at every point
    return v.slope_left == 0.0 and v.slope_right == 0.0 and not np.any(v.values)


def _candidate_objectives(v: ValueFunction, s: StageData, route: _Route, x, prem, retained):
    """Objective value of every (state, treaty) pair.

    x is each pair's surplus, broadcast against the premiums prem; the
    result matches prem. route and retained are _next_atoms'. The entropic
    route takes a log-sum-exp over the atoms, the others a weighted sum.
    """
    shape = np.shape(prem)
    xp = np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel()
    out = np.empty(xp.size)
    # a zero continuation adds the +0.0 its interpolation would, so a row
    # summing to -0.0 keeps its sign
    zero, head = _is_zero(v), route.head
    for sl, t, w in _next_atoms(s, route, prem, retained):
        if route.name == "entropic":
            xt = xp[sl, None] + t
            g = s.risk.gamma
            cont = 0.0 if zero else v(xt)
            out[sl] = _logsumexp(g * (-xt + s.beta * cont), w) / g
            continue
        cont = 0.0
        if not zero:
            # v is read only where w weighs; a zeroed head keeps the grouping
            vt = v(xp[sl, None] + t[:, head:])
            vt = np.concatenate((np.zeros((vt.shape[0], head)), vt), axis=1) if head else vt
            cont = np.sum(vt * w, axis=-1)
        out[sl] = -xp[sl] * np.sum(w, axis=-1) - np.sum(t * w, axis=-1) + s.beta * cont
    return out.reshape(shape)


def _ladder_objectives(v: ValueFunction, s: StageData, route: _Route, x, params, price, retained):
    """Objective of every (state, probe) pair of a scalar search.

    x holds each state's surplus and params, one row per state, its probe
    ladder; price maps parameters to premiums and retained(p, y) gives the
    claims y retained at parameters p. Under the zero terminal value a
    weight-based measure is cash invariant: a state enters its pairs only
    as the shift -x sum(w), so each distinct ladder (rows equal bit for
    bit, -0.0 apart from +0.0) goes through the evaluator once.
    """
    if not _is_zero(v) or route.name == "entropic":
        flat = params.ravel()
        return _candidate_objectives(
            v, s, route, x[:, None], price(params), lambda sl, cols, y: retained(flat[sl, None], y)
        )
    # equal ladders come in runs of neighboring states: only a run's first
    # row is keyed, on its bytes
    rows = np.ascontiguousarray(params)
    bits = rows.view(np.uint64)
    head = np.ones(rows.shape[0], dtype=bool)
    head[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    rows = rows[head]
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    flat = rows[first].ravel()
    sums = np.empty((2, flat.size))
    atoms = _next_atoms(s, route, price(flat), lambda sl, cols, y: retained(flat[sl, None], y))
    for sl, t, w in atoms:
        sums[0, sl] = np.sum(w, axis=-1)
        sums[1, sl] = np.sum(t * w, axis=-1)
    sw, stw = sums.reshape(2, first.size, -1)
    ladder = inv.ravel()[np.cumsum(head) - 1]
    # _candidate_objectives' expression, the continuation's +0.0 included
    return -x[:, None] * sw[ladder] - stw[ladder] + s.beta * 0.0


def _budgets(s: StageData, grid: np.ndarray) -> np.ndarray:
    # the premium budget at each state: its surplus x+, or none at all
    return np.maximum(grid, 0.0) if s.budget_constrained else np.full(grid.size, np.inf)


def _scalar_family_search(v_next, s, route, grid, search):
    # one premium curve gives the feasible intervals and every zoom price
    bp, bv = search.curve(s.premium, s.dY)
    lo, hi = feasible_retention_range((bp, bv), _budgets(s, grid))

    def objectives(states, params):
        return _ladder_objectives(
            v_next, s, route, grid[states], params, lambda p: np.interp(p, bp, bv), search.retained
        )

    r = search.resolution
    best_val = np.empty(grid.size)
    best_par = hi.copy()
    # a one-point interval holds one treaty, at hi: probe it once, where the
    # zoom would probe it at every rung of every level
    point = _one_point(lo, hi)
    one, live = np.flatnonzero(point), np.flatnonzero(~point)
    if one.size:
        best_val[one] = objectives(one, hi[one, None])[:, 0]
    if live.size:
        best_val[live], best_par[live] = _zoom(objectives, live, lo[live], hi[live], r)
    row = [search.treaty(p) for p in best_par]
    return best_val, row, live.size * _ZOOM_LEVELS * (r + 1) + one.size


def _one_point(lo, hi):
    # the zoom's ladder on [lo, hi] clips every rung to hi when lo >= hi
    return lo >= hi


def _zoom(objectives, states, lo, hi, r):
    # (value, parameter) of the best probe at each state over _ZOOM_LEVELS
    # ladders of r cells, each inside the previous level's bracketing cells
    frac = np.linspace(0.0, 1.0, r + 1)
    sel = np.arange(states.size)
    best_val = np.full(states.size, np.inf)
    best_par = hi.copy()
    for _ in range(_ZOOM_LEVELS):
        params = lo[:, None] + (hi - lo)[:, None] * frac
        params = np.clip(params, lo[:, None], hi[:, None])
        obj = objectives(states, params)
        idx = np.argmin(obj, axis=1)
        val = obj[sel, idx]
        par = params[sel, idx]
        # ties break toward the smaller parameter, across levels as well
        better = (val < best_val) | ((val == best_val) & (par < best_par))
        best_val = np.where(better, val, best_val)
        best_par = np.where(better, par, best_par)
        lo = params[sel, np.maximum(idx - 1, 0)]
        hi = params[sel, np.minimum(idx + 1, r)]
    return best_val, best_par


def _segment_prices(s: StageData, knots: np.ndarray) -> np.ndarray:
    # price of ceding each knot segment in full, off the stage's stop-loss
    # curve; a distortion premium is comonotone additive, so a piecewise
    # treaty with slopes in [0, 1] costs segment_prices @ (1 - slopes)
    bp, bv = premium_breakpoints("stop-loss", s.premium, s.dY)
    edge = np.interp(knots, bp, bv)
    return edge - np.append(edge[1:], 0.0)


def _pw_search(v_next, s, route, grid, search):
    # coordinate descent over knot slopes from all-ones slopes: the identity
    # treaty, which cedes nothing and so is affordable at every state
    knots = np.asarray(search.knots)
    cand = np.linspace(0.0, 1.0, search.resolution + 1)
    start = make_treaty(search.family, {"knots": knots, "slopes": np.ones(knots.size)})
    assert treaty_premium(s.premium, s.dY, start) == 0.0, "piecewise start must cede nothing"
    seg = _segment_prices(s, knots)
    segs = _knot_segments(knots, s.dY.values)
    budget = _budgets(s, grid)[:, None] + 1e-12

    def objectives(slopes):
        # (state, candidate) slope vectors; only affordable ones are scored, the rest +inf
        prem = (1.0 - slopes) @ seg
        ok = prem <= budget
        flat, obj = (1.0 - slopes)[ok], np.full(prem.shape, np.inf)
        obj[ok] = _candidate_objectives(
            v_next, s, route, np.broadcast_to(grid[:, None], ok.shape)[ok], prem[ok],
            lambda sl, cols, y: y - flat[sl] @ segs[cols].T,
        )
        return obj

    slopes = np.ones((grid.size, knots.size))
    best = objectives(slopes[:, None])[:, 0]
    for _ in range(search.sweeps):
        for i in range(knots.size):
            trial = np.repeat(slopes[:, None], cand.size, axis=1)
            trial[:, :, i] = cand
            obj = objectives(trial)
            # the first minimum, kept only if strictly better, as a scan keeps
            idx, got = np.argmin(obj, axis=1), np.min(obj, axis=1)
            better = got < best
            best[better] = got[better]
            slopes[better] = trial[better, idx[better]]
    row = [make_treaty(search.family, {"knots": knots, "slopes": sl}) for sl in slopes]
    return best, row, grid.size * (1 + search.sweeps * knots.size * cand.size)


def bellman_step(v_next: ValueFunction, s: StageData, grid, search: SearchSpec, stats=None):
    """One backward step: minimize the one-period cost at every grid state.

    Returns the new value function (decreasing, enforced) and the minimizing
    treaty per state. Each value is the search's batched minimum; apply_L
    checks it at three states and raises NumericError on a gap. Tail slopes
    follow the recursion a -> 1 + beta a. When ``stats`` is a dict it
    receives the stage's _route name under "route" and, under
    "argmin_evaluations", the (state, candidate) pairs the search scored,
    for the piecewise search unaffordable candidates included. It counts
    pairs, not the rows the evaluator built: on a zero continuation a scalar
    search builds rows only for its distinct probe ladders. The step's own
    runtime goes under "runtime_seconds".
    """
    t0 = time.perf_counter()
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    route = _route(s, (search.family,))
    search_row = _pw_search if search.scalar is None else _scalar_family_search
    values, row, probes = search_row(v_next, s, route, grid, search)
    vf = _checked_stage(v_next, s, grid, values, row, "searched")
    if stats is not None:
        seconds = time.perf_counter() - t0
        stats.update(runtime_seconds=seconds, argmin_evaluations=probes, route=route.name)
    return vf, tuple(row)


def _checked_stage(v_next, s: StageData, grid, values, row, label):
    """Stage value function of batched values, tails by a -> 1 + beta a, once
    apply_L of row's treaties matches them at the first, middle and last state."""
    for j in (0, grid.size // 2, grid.size - 1):
        ref = apply_L(v_next, float(grid[j]), row[j], s)
        if abs(values[j] - ref) > 1e-9 * (1.0 + abs(ref)):
            raise NumericError(
                f"{label} value {values[j]:.12g} at x = {grid[j]:.6g}"
                f" differs from apply_L's {ref:.12g}"
            )
    tails = [-(1.0 - s.beta * a) for a in (v_next.slope_left, v_next.slope_right)]
    return ValueFunction(grid, values, *tails)


# ---------------------------------------------------------------------------
# solvers


def _check_envelope(values, lo, hi, label):
    slack_lo = 1e-6 * (1.0 + np.abs(lo))
    slack_hi = 1e-6 * (1.0 + np.abs(hi))
    if np.any(values < lo - slack_lo) or np.any(values > hi + slack_hi):
        worst = float(np.max(np.maximum(lo - values, values - hi)))
        raise EnvelopeViolation(f"{label}: value exits its envelope by {worst:.3g}")


def solve_finite(config: ModelConfig, stats: list | None = None):
    """Backward induction; returns ([J_0 .. J_N], PolicyTable).

    When ``stats`` is a list it receives one dict per stage, in solve order
    (last stage first): its runtime, evaluator route and objective-probe count.
    """
    if config.is_infinite:
        raise ValidationError("solve_finite needs a finite horizon")
    grid = config.grid.points()
    n = config.horizon
    values: list[ValueFunction] = [None] * (n + 1)
    values[n] = ValueFunction(grid, np.zeros(grid.size))
    rows = [None] * n
    for k in range(n - 1, -1, -1):
        record = {}
        vf, row = bellman_step(values[k + 1], config.stage(k), grid, config.search, record)
        b_low, b_high = bounding_functions(config, k)
        _check_envelope(vf.values, b_low(grid), b_high(grid), f"stage {k}")
        values[k] = vf
        rows[k] = row
        if stats is not None:
            stats.append({"stage": k, **record})
    return values, PolicyTable(grid, tuple(rows))


def _policy_values_solve(row, config: ModelConfig, grid: np.ndarray, tail: float):
    """Fixed point of the one-policy operator, via its affine representation:
    the value solve_infinite's next pass starts from.

    For a fixed treaty the atom ordering of the next surplus is known, so the
    stage operator is affine in the value row and the fixed point solves a
    linear system. Returns None if the system is singular.
    """
    s = config.stage(0)
    (prems,), (index,), (claims,) = _policy_table(PolicyTable(grid, (row,)), config)
    size = grid.size
    a_mat = np.eye(size)
    b_vec = np.empty(size)
    states = np.arange(size)
    route = _route(s, {f.family for f in row})
    for sl, t, w in _next_atoms(s, route, prems, lambda sl, cols, y: claims[index[sl, None], cols]):
        # v(x) = (1 - lam) v[cell] + lam v[cell + 1] + tail * off at every
        # next surplus x; off is its distance past the grid's nearer end; the
        # head's zero weights move no entry of a_mat
        xt = grid[sl, None] + t
        xc = np.clip(xt, grid[0], grid[-1])
        b_vec[sl] = np.sum(w * (s.beta * tail * (xt - xc) - xt), axis=-1)
        xc, bw = xc[:, route.head:], s.beta * w[..., route.head:]
        cell = np.minimum(np.searchsorted(grid, xc, side="right") - 1, size - 2)
        lam = (xc - grid[cell]) / (grid[cell + 1] - grid[cell])
        np.subtract.at(a_mat, (states[sl, None], cell), bw * (1.0 - lam))
        np.subtract.at(a_mat, (states[sl, None], cell + 1), bw * lam)
    try:
        return np.linalg.solve(a_mat, b_vec)
    except np.linalg.LinAlgError:
        return None


def solve_infinite(config: ModelConfig, max_iter=10_000, stats: list | None = None):
    """Howard's policy iteration to the stationary fixed point, certified.

    Each pass applies T once, from zero at first, and stops once q/(1-q)
    times the weighted step meets config.tol, q = 1 - (1-beta)^2. Otherwise
    the next pass starts from the exact value of the step's greedy row, or
    from the step where that value is None or not decreasing. max_iter
    bounds the applications of T; ``stats``, a list, gets one
    {"iteration": i, **bellman_step's stats} per application.
    """
    if not config.is_infinite:
        raise ValidationError("solve_infinite needs a stationary (infinite-horizon) config")
    s = config.stage(0)
    q = 1.0 - (1.0 - s.beta) ** 2
    thresh = config.tol * (1.0 - q) / q
    grid = config.grid.points()
    tail = -1.0 / (1.0 - s.beta)
    b_low, b_high = bounding_functions(config, 0)
    lo_g, hi_g = b_low(grid), b_high(grid)
    v = ValueFunction(grid, np.zeros(grid.size), tail, tail)
    for iteration in range(1, max_iter + 1):
        record = {}
        stepped, row = bellman_step(v, s, grid, config.search, record)
        if stats is not None:
            stats.append({"iteration": iteration, **record})
        v_new = ValueFunction(grid, stepped.values, tail, tail)
        _check_envelope(v_new.values, lo_g, hi_g, f"iterate {iteration}")
        delta = weighted_norm(v_new, v, config)
        if delta <= thresh:
            cert = q / (1.0 - q) * delta
            return InfiniteSolution(v_new, PolicyTable(grid, (row,)), iteration, cert)
        u_vals = _policy_values_solve(row, config, grid, tail)
        decreasing = u_vals is not None and float(np.max(np.diff(u_vals))) <= _MONO_TOL
        v = ValueFunction(grid, u_vals, tail, tail) if decreasing else v_new
    raise MaxIterations(
        f"no fixed point within {max_iter} operator applications (step target {thresh:.3g})"
    )


def _treaty_key(f: Treaty):
    # equal parameters price equally; a custom map is known only by identity
    if FAMILIES[f.family].fields is None:
        return id(f)
    items = sorted(f.params.items())
    return f.family, tuple((k, np.asarray(v, dtype=np.float64).tobytes()) for k, v in items)


def _policy_table(policy: PolicyTable, config: ModelConfig):
    """(premiums, index, claims) of a stored policy: at stage n and state j,
    the treaty's premium is premiums[n, j] and its retained part of every
    claim atom claims[n][index[n, j]].

    claims holds one (distinct treaties x claim atoms) table per stage data:
    when every stage shares one stage data, every entry of claims is the
    same array, and index points into it. Three passes: key every row, then
    apply, check and price each distinct treaty once per stage data, from
    the first row that holds it, then check each stage's gathered premiums
    against its budgets.

    The policy must live on the config grid (else GridMismatch) and hold one
    row per stage, one when stationary. Raises InvalidTreaty where a custom
    treaty fails is_admissible on the stage's claim atoms, else
    InfeasiblePolicyRow at the first (stage, state) where a budget-constrained
    stage's treaty costs more than the state's surplus.
    """
    grid = policy.grid
    if not np.array_equal(grid, config.grid.points()):
        raise GridMismatch("policy table grid differs from the config grid")
    stages = 1 if config.is_infinite else config.horizon
    if len(policy.rows) != stages:
        raise ValidationError(f"policy has {len(policy.rows)} rows, the config {stages} stages")
    group = [0 if len(config.stages) == 1 else n for n in range(stages)]
    index = np.empty((stages, grid.size), dtype=np.intp)
    # per stage data, each distinct treaty's (slot, stage, state) where it first appears
    firsts: dict = {}
    for n, row in enumerate(policy.rows):
        keys = firsts.setdefault(group[n], {})
        index[n] = [keys.setdefault(_treaty_key(f), (len(keys), n, j))[0]
                    for j, f in enumerate(row)]
    tables, prices = {}, {}
    for g, keys in firsts.items():
        s = config.stage(g)
        tables[g] = table = np.empty((len(keys), len(s.dY)))
        prices[g] = price = np.empty(len(keys))
        for k, n, j in keys.values():
            f = policy.rows[n][j]
            table[k] = f.retained(s.dY.values)
            if FAMILIES[f.family].fields is None and not _admissible_values(s.dY.values, table[k]):
                raise InvalidTreaty(
                    f"stage {n}: custom treaty at x = {grid[j]:.6g} fails is_admissible"
                )
            price[k] = treaty_premium(s.premium, s.dY, f)
    premiums = np.array([prices[g][index[n]] for n, g in enumerate(group)])
    for n, prem in enumerate(premiums):
        over = np.flatnonzero(prem > _budgets(config.stage(n), grid) + _BUDGET_SLACK)
        if over.size:
            j = over[0]
            raise InfeasiblePolicyRow(
                f"stage {n}: treaty premium {prem[j]:.6g} exceeds surplus at x = {grid[j]:.6g}"
            )
    return premiums, index, [tables[g] for g in group]


def _policy_values(policy: PolicyTable, config: ModelConfig, table, stats: list | None = None):
    """Cost-to-go [J_0 .. J_N] of a fixed Markov policy, one backward pass.

    J_n is the value of starting at stage n and following rows n..N-1, so
    it equals evaluating the policy's tail on the config's tail stages.
    table is the policy's _policy_table, which has checked it. The batched
    evaluator prices every row off the table, checked as a search is.
    When ``stats`` is a list it receives one dict per stage, in replay order
    (last stage first): its runtime and evaluator route.
    """
    premiums, index, claims = table
    grid = policy.grid
    n = config.horizon
    values: list[ValueFunction] = [None] * (n + 1)
    values[n] = v = ValueFunction(grid, np.zeros(grid.size))
    for k in range(n - 1, -1, -1):
        t0 = time.perf_counter()
        s = config.stage(k)
        route = _route(s, {f.family for f in policy.rows[k]})
        row_values = _candidate_objectives(
            v, s, route, grid, premiums[k],
            lambda sl, cols, y: claims[k][index[k, sl, None], cols],
        )
        label = f"stage {k}: replayed"
        values[k] = v = _checked_stage(v, s, grid, row_values, policy.rows[k], label)
        if stats is not None:
            stats.append(
                {"stage": k, "runtime_seconds": time.perf_counter() - t0, "route": route.name}
            )
    return values


def evaluate_policy(
    policy: PolicyTable, config: ModelConfig, stats: list | None = None
) -> ValueFunction:
    """Value of a fixed Markov policy by backward application of its rows;
    ``stats`` as in _policy_values."""
    if config.is_infinite:
        raise ValidationError("evaluate_policy needs a finite horizon")
    return _policy_values(policy, config, _policy_table(policy, config), stats)[0]
