"""Gridded Bellman machinery for the dynamic reinsurance problem.

Value functions live on a fixed surplus grid as piecewise-linear decreasing
functions with explicit tail slopes. The one-period cost of a treaty f at
surplus x is rho(-X' + beta v(X')) where X' = x + Z - f(Y) - pi(f) is the
next surplus. Because -x' + beta v(x') is strictly decreasing in x' whenever
v is decreasing, sorting the cost atoms is the same as sorting next-surplus
atoms in reverse, and the risk-measure weights depend only on that ordering.

One batched evaluator prices every (state, treaty) pair, whether a search
ladder's candidates or a stored policy's rows. With deterministic premium
income the ordering is claim-ascending for every admissible treaty, so one
weight vector per stage prices all of them; with stochastic income whose
product atoms are equally likely one weight vector serves too, and each
pair sorts only its values; otherwise one stable argsort orders every pair
at once; the entropic measure needs no order. The zero terminal value is
added as a constant, not interpolated. Pairs go through in cache-sized
slices and each reduces on its own, so the temporaries stay bounded and
slicing never changes a result bit.

Candidate search over one-parameter families runs a fixed three-level zoom:
scan an evenly spaced ladder over the feasible interval, then rescan inside
the bracketing cells. A one-point interval takes one probe. Every probe
ladder is a pure function of the feasible interval, and ties in the
objective break toward the smaller parameter, so reruns and equivalent
reformulations of the objective select identical parameters.
"""

from __future__ import annotations

import time
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
    UnsupportedFamily,
    ValidationError,
    _integer,
    _real,
)
from .premiums import PremiumSpec, premium, treaty_premium
from .risk import RiskSpec, _logsumexp, atom_weights, evaluate, is_coherent
from .treaties import (
    FAMILIES,
    Treaty,
    _admissible_values,
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
        beta = _real(self.beta)
        if not (0.0 < beta <= 1.0):
            raise ValidationError("discount factor must lie in (0, 1]")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        lo, hi, count = _real(self.lo), _real(self.hi), _integer(self.count)
        if not lo < hi:
            raise ValidationError("grid bounds must be finite with lo < hi")
        if count < 16:
            raise ValidationError("grid needs at least 16 points")
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
    setting the family does not read is refused, so a spec carries only
    settings that act. The methods hold the family's facts that only the
    search needs.
    """

    family: str
    resolution: int = 64
    layer_upper: float | None = None
    knots: tuple[float, ...] | None = None
    sweeps: int | None = None

    def __post_init__(self):
        reads = FAMILIES[self.family].search if self.family in FAMILIES else None
        if reads is None:
            raise UnsupportedFamily(f"cannot search over family {self.family!r}")
        unread = [k for k in ("layer_upper", "knots", "sweeps")
                  if k not in reads and getattr(self, k) is not None]
        if unread:
            raise ValidationError(f"{self.family} search reads no {', '.join(unread)}")
        resolution = _integer(self.resolution)
        if resolution < 8:
            raise ValidationError("search resolution must be at least 8")
        object.__setattr__(self, "resolution", resolution)
        if self.family == "layer":
            upper = None if self.layer_upper is None else _real(self.layer_upper)
            if upper is None or not upper > 0.0:
                raise ValidationError("layer search needs a positive layer_upper")
            object.__setattr__(self, "layer_upper", upper)
        if self.family == "piecewise-linear":
            if not self.knots:
                raise ValidationError("piecewise-linear search needs knots")
            ones = np.ones(len(self.knots))
            knots = FAMILIES[self.family].check({"knots": self.knots, "slopes": ones})["knots"]
            object.__setattr__(self, "knots", tuple(knots))
            sweeps = 3 if self.sweeps is None else _integer(self.sweeps)
            if sweeps < 1:
                raise ValidationError("sweeps must be >= 1")
            object.__setattr__(self, "sweeps", sweeps)

    def config(self) -> dict:
        """Config form: the family and every setting it reads."""
        doc = {"family": self.family}
        for key in FAMILIES[self.family].search:
            value = getattr(self, key)
            doc[key] = list(value) if key == "knots" else value
        return doc

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
    one StageData. A finite horizon accepts either one shared stage or one
    StageData per stage.
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
            raise ValidationError("at least one stage is required")
        if self.horizon is None:
            if len(stages) != 1:
                raise ValidationError("infinite horizon takes a single stationary stage")
            if stages[0].beta >= 1.0:
                raise ValidationError("infinite horizon needs strict discounting (beta < 1)")
        else:
            n = _integer(self.horizon)
            if n < 1:
                raise ValidationError("horizon must be >= 1")
            object.__setattr__(self, "horizon", n)
            if len(stages) not in (1, n):
                raise ValidationError("provide one shared stage or exactly one per stage")
        tol = _real(self.tol)
        if not tol > 0.0:
            raise ValidationError("tolerance must be positive")
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


def _next_atoms(s: StageData, prem, retained):
    """Next-surplus atoms of flattened (state, treaty) pairs, slice by slice.

    prem holds each pair's premium, retained(sl, cols, y) the retained claims
    of pairs sl at claim atoms cols, whose values are y. Yields (sl, t, w):
    pair i of sl moves to its surplus plus t[i], over the (Y, Z) product,
    and w weights t's atoms, shared or per pair; for the entropic kind w
    holds the probabilities, unordered. A slice holds _CHUNK_ELEMS (pair,
    atom) cells, at least one pair.
    """
    prem = np.ravel(prem)
    ky, kz = len(s.dY), len(s.dZ)
    # z-major: within each income atom the claims ascend, so with h
    # increasing a pair's row is kz descending runs, which the stable sort
    # merges rather than sorting from scratch
    cols = np.tile(np.arange(ky), kz)
    z = np.repeat(s.dZ.values, ky)
    probs = np.outer(s.dZ.probs, s.dY.probs).ravel()
    shared = None
    if s.risk.kind == "entropic":
        shared = probs
    elif kz == 1:
        w = atom_weights(s.risk, probs)
        act = np.flatnonzero(w)
        shared, cols, z = w[act], cols[act], z[act]
    # equal probabilities are those of every ordering, so one weight vector
    # serves every pair and a slice sorts only its values; the stable sort
    # keeps tied +-0.0 in the argsort's order
    values_only = shared is None and _equal_probs(probs)
    if values_only:
        shared = atom_weights(s.risk, probs)
    y = s.dY.values[cols]
    step = max(1, _CHUNK_ELEMS // cols.size)
    for lo in range(0, prem.size, step):
        sl = slice(lo, lo + step)
        t = z - retained(sl, cols, y) - prem[sl, None]
        w = shared
        if values_only:
            t = -np.sort(-t, axis=-1, kind="stable")
        elif w is None:
            order = np.argsort(-t, axis=-1, kind="stable")
            t = np.take_along_axis(t, order, axis=-1)
            w = atom_weights(s.risk, probs[order])
        yield sl, t, w


def _equal_probs(probs) -> bool:
    return bool(np.all(probs == probs[0]))


def _is_zero(v: ValueFunction) -> bool:
    # the zero terminal value: interpolating it gives +0.0 at every point
    return v.slope_left == 0.0 and v.slope_right == 0.0 and not np.any(v.values)


def _candidate_objectives(v: ValueFunction, s: StageData, x, prem, retained):
    """Objective value of every (state, treaty) pair.

    x is each pair's surplus, broadcast against the premiums prem; the
    result matches prem. retained is the claims source of _next_atoms. The
    entropic kind takes a log-sum-exp over the atoms, the other kinds a
    weighted sum.
    """
    shape = np.shape(prem)
    xp = np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel()
    out = np.empty(xp.size)
    # a zero continuation adds the +0.0 its interpolation would, so a row
    # summing to -0.0 keeps its sign
    zero = _is_zero(v)
    for sl, t, w in _next_atoms(s, prem, retained):
        if s.risk.kind == "entropic":
            xt = xp[sl, None] + t
            g = s.risk.gamma
            cont = 0.0 if zero else v(xt)
            out[sl] = _logsumexp(g * (-xt + s.beta * cont), w) / g
            continue
        cont = 0.0 if zero else np.sum(v(xp[sl, None] + t) * w, axis=-1)
        out[sl] = -xp[sl] * np.sum(w, axis=-1) - np.sum(t * w, axis=-1) + s.beta * cont
    return out.reshape(shape)


def _budgets(s: StageData, grid: np.ndarray) -> np.ndarray:
    # the premium budget at each state: its surplus x+, or none at all
    return np.maximum(grid, 0.0) if s.budget_constrained else np.full(grid.size, np.inf)


def _scalar_family_search(v_next, s, grid, search):
    # one premium curve gives the feasible intervals and every zoom price
    bp, bv = search.curve(s.premium, s.dY)
    lo, hi = feasible_retention_range((bp, bv), _budgets(s, grid))

    def objectives(states, params):
        flat = params.ravel()
        return _candidate_objectives(
            v_next, s, grid[states, None], np.interp(params, bp, bv),
            lambda sl, cols, y: search.retained(flat[sl, None], y),
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


def _pw_search(v_next, s, grid, search):
    # coordinate descent over knot slopes from all-ones slopes: the identity
    # treaty, which cedes nothing and so is affordable at every state
    knots = np.asarray(search.knots)
    cand = np.linspace(0.0, 1.0, search.resolution + 1)
    start = make_treaty(search.family, {"knots": knots, "slopes": np.ones(knots.size)})
    assert treaty_premium(s.premium, s.dY, start) == 0.0, "piecewise start must cede nothing"
    seg = _segment_prices(s, knots)
    values = np.empty(grid.size)
    row = []
    for j, (x, budget) in enumerate(zip(grid, _budgets(s, grid))):
        slopes = np.ones(knots.size)
        best_f = start
        best = apply_L(v_next, float(x), best_f, s)
        for _ in range(search.sweeps):
            for i in range(knots.size):
                for c in cand:
                    trial = slopes.copy()
                    trial[i] = c
                    if seg @ (1.0 - trial) > budget + 1e-12:
                        continue
                    f = make_treaty(search.family, {"knots": knots, "slopes": trial})
                    got = apply_L(v_next, float(x), f, s)
                    if got < best:
                        best, best_f, slopes = got, f, trial
        values[j] = best
        row.append(best_f)
    return values, row


def bellman_step(v_next: ValueFunction, s: StageData, grid, search: SearchSpec, stats=None):
    """One backward step: minimize the one-period cost at every grid state.

    Returns the new value function (decreasing, enforced) and the minimizing
    treaty per state. Tail slopes follow the recursion a -> 1 + beta a.
    When ``stats`` is a dict it receives the objective evaluations the
    search ran under "argmin_evaluations" (None for the piecewise search).
    """
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    if search.scalar is None:
        values, row = _pw_search(v_next, s, grid, search)
        probes = None
    else:
        values, row, probes = _scalar_family_search(v_next, s, grid, search)
    if stats is not None:
        stats["argmin_evaluations"] = probes
    out_left = -(1.0 - s.beta * v_next.slope_left)
    out_right = -(1.0 - s.beta * v_next.slope_right)
    return ValueFunction(grid, values, out_left, out_right), tuple(row)


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
    (last stage first), with the stage's runtime and objective-probe count.
    """
    if config.is_infinite:
        raise ValidationError("solve_finite needs a finite horizon")
    grid = config.grid.points()
    n = config.horizon
    values: list[ValueFunction] = [None] * (n + 1)
    values[n] = ValueFunction(grid, np.zeros(grid.size))
    rows = [None] * n
    for k in range(n - 1, -1, -1):
        t0 = time.perf_counter()
        probes = {}
        vf, row = bellman_step(values[k + 1], config.stage(k), grid, config.search, probes)
        b_low, b_high = bounding_functions(config, k)
        _check_envelope(vf.values, b_low(grid), b_high(grid), f"stage {k}")
        values[k] = vf
        rows[k] = row
        if stats is not None:
            stats.append({"stage": k, "runtime_seconds": time.perf_counter() - t0, **probes})
    return values, PolicyTable(grid, tuple(rows))


def _policy_values_solve(row, config: ModelConfig, grid: np.ndarray, tail: float):
    """Fixed point of the one-policy operator, via its affine representation.

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
    atoms = _next_atoms(s, prems, lambda sl, cols, y: claims[index[sl, None], cols])
    for sl, t, w in atoms:
        # v(x) = (1 - lam) v[cell] + lam v[cell + 1] + tail * off at every
        # next surplus x; off is its distance past the grid's nearer end
        xt = grid[sl, None] + t
        xc = np.clip(xt, grid[0], grid[-1])
        cell = np.minimum(np.searchsorted(grid, xc, side="right") - 1, size - 2)
        lam = (xc - grid[cell]) / (grid[cell + 1] - grid[cell])
        bw = s.beta * w
        np.subtract.at(a_mat, (states[sl, None], cell), bw * (1.0 - lam))
        np.subtract.at(a_mat, (states[sl, None], cell + 1), bw * lam)
        b_vec[sl] = np.sum(w * (s.beta * tail * (xt - xc) - xt), axis=-1)
    try:
        return np.linalg.solve(a_mat, b_vec)
    except np.linalg.LinAlgError:
        return None


def solve_infinite(config: ModelConfig, accelerate=True, max_iter=10_000):
    """Value iteration to the stationary fixed point, with an error bound.

    Iterates v <- T v from zero until the weighted step is small enough that
    q/(1-q) times it meets config.tol, q = 1 - (1-beta)^2. With accelerate,
    each plain step is followed by a policy-evaluation jump; the certificate
    always comes from a genuine application of T.
    """
    if not config.is_infinite:
        raise ValidationError("solve_infinite needs a stationary (infinite-horizon) config")
    s = config.stage(0)
    if not is_coherent(s.risk):
        raise ValidationError(
            f"infinite horizon: coherence required, but risk kind {s.risk.kind!r} is not coherent"
        )
    q = 1.0 - (1.0 - s.beta) ** 2
    thresh = config.tol * (1.0 - q) / q
    grid = config.grid.points()
    tail = -1.0 / (1.0 - s.beta)
    b_low, b_high = bounding_functions(config, 0)
    lo_g, hi_g = b_low(grid), b_high(grid)
    iterations = 0

    def step(v):
        # one application of T from v: the iterate, its policy row, and the
        # solution once the weighted step meets the target (else None)
        nonlocal iterations
        stepped, row = bellman_step(v, s, grid, config.search)
        iterations += 1
        v_new = ValueFunction(grid, stepped.values, tail, tail)
        _check_envelope(v_new.values, lo_g, hi_g, f"iterate {iterations}")
        delta = weighted_norm(v_new, v, config)
        if delta > thresh:
            return v_new, row, None
        cert = q / (1.0 - q) * delta
        return v_new, row, InfiniteSolution(v_new, PolicyTable(grid, (row,)), iterations, cert)

    v = ValueFunction(grid, np.zeros(grid.size), tail, tail)
    while True:
        if iterations >= max_iter:
            raise MaxIterations(
                f"no fixed point within {max_iter} operator applications "
                f"(step target {thresh:.3g})"
            )
        v, row, sol = step(v)
        if sol is not None:
            return sol
        if not accelerate:
            continue
        u_vals = _policy_values_solve(row, config, grid, tail)
        if u_vals is None or float(np.max(np.diff(u_vals))) > _MONO_TOL:
            continue
        v, row, sol = step(ValueFunction(grid, u_vals, tail, tail))
        if sol is not None:
            return sol


def _row_values(v_next: ValueFunction, s: StageData, grid: np.ndarray, row, prem, index, claims):
    # a one-family row whose scalar parameter is its only one goes through
    # the batched evaluator, with its premiums and retained claims off the
    # policy table; any other row through apply_L, state by state
    fam = FAMILIES[row[0].family]
    if fam.fields == (fam.scalar,) and all(f.family == row[0].family for f in row):
        return _candidate_objectives(
            v_next, s, grid, prem, lambda sl, cols, y: claims[index[sl, None], cols]
        )
    return np.asarray([apply_L(v_next, float(x), f, s) for x, f in zip(grid, row)])


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

    The policy must live on the config grid (else GridMismatch) and hold one
    row per stage, one when stationary. Each distinct treaty is priced and
    applied once per stage data. Raises InvalidTreaty where a custom treaty
    fails is_admissible on the stage's claim atoms, InfeasiblePolicyRow where
    a budget-constrained stage's treaty costs more than its state's surplus.
    """
    grid = policy.grid
    if not np.array_equal(grid, config.grid.points()):
        raise GridMismatch("policy table grid differs from the config grid")
    stages = 1 if config.is_infinite else config.horizon
    if len(policy.rows) != stages:
        raise ValidationError(f"policy has {len(policy.rows)} rows, the config {stages} stages")
    premiums = np.empty((len(policy.rows), grid.size))
    index = np.empty(premiums.shape, dtype=np.intp)
    claims = []
    shared = len(config.stages) == 1
    cache: dict = {}
    for n, row in enumerate(policy.rows):
        s = config.stage(n)
        local: dict = {}
        for j, f in enumerate(row):
            key = (0 if shared else n, _treaty_key(f))
            if key not in cache:
                kept = f.retained(s.dY.values)
                if FAMILIES[f.family].fields is None and not _admissible_values(s.dY.values, kept):
                    raise InvalidTreaty(
                        f"stage {n}: custom treaty at x = {grid[j]:.6g} fails is_admissible"
                    )
                cache[key] = treaty_premium(s.premium, s.dY, f), kept
            index[n, j] = local.setdefault(key, len(local))
            premiums[n, j] = prem = cache[key][0]
            if s.budget_constrained and prem > max(float(grid[j]), 0.0) + _BUDGET_SLACK:
                raise InfeasiblePolicyRow(
                    f"stage {n}: treaty premium {prem:.6g} exceeds surplus at x = {grid[j]:.6g}"
                )
        claims.append(np.array([cache[key][1] for key in local]))
    return premiums, index, claims


def _policy_values(policy: PolicyTable, config: ModelConfig, table):
    """Cost-to-go [J_0 .. J_N] of a fixed Markov policy, one backward pass.

    J_n is the value of starting at stage n and following rows n..N-1, so
    it equals evaluating the policy's tail on the config's tail stages.
    table is the policy's _policy_table, which has checked it.
    """
    if config.is_infinite:
        raise ValidationError("evaluate_policy needs a finite horizon")
    premiums, index, claims = table
    grid = policy.grid
    n = config.horizon
    values: list[ValueFunction] = [None] * (n + 1)
    values[n] = v = ValueFunction(grid, np.zeros(grid.size))
    for k in range(n - 1, -1, -1):
        s = config.stage(k)
        row_values = _row_values(v, s, grid, policy.rows[k], premiums[k], index[k], claims[k])
        out_left = -(1.0 - s.beta * v.slope_left)
        out_right = -(1.0 - s.beta * v.slope_right)
        values[k] = v = ValueFunction(grid, row_values, out_left, out_right)
    return values


def evaluate_policy(policy: PolicyTable, config: ModelConfig) -> ValueFunction:
    """Value of a fixed Markov policy by backward application of its rows."""
    return _policy_values(policy, config, _policy_table(policy, config))[0]
