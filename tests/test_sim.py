"""Tests for Monte Carlo surplus simulation and the per-period ruin bound."""

import math
import tracemalloc

import numpy as np
import pytest

from reinsure_dp import sim
from reinsure_dp.distributions import FamilySpec, discretize, ess_sup, quantile
from reinsure_dp.dp import (
    GridSpec,
    ModelConfig,
    PolicyTable,
    SearchSpec,
    StageData,
    _policy_table,
    _policy_values,
    solve_finite,
)
from reinsure_dp.errors import (
    InfeasiblePolicyRow,
    NotVaRConfig,
    ValidationError,
)
from reinsure_dp.premiums import PremiumSpec, treaty_premium
from reinsure_dp.risk import RiskSpec, var
from reinsure_dp.sim import ruin_bound_check, simulate_paths
from reinsure_dp.treaties import Treaty, make_treaty


def point(z):
    return discretize(FamilySpec("point-mass", (z,)))


def uniform01(m=101):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


def identity_policy(config):
    grid = config.grid.points()
    row = tuple(make_treaty("identity", {}) for _ in grid)
    return PolicyTable(grid, tuple(row for _ in range(config.horizon)))


def basic_config(dY, dZ, horizon, grid=None, *, beta=1.0, constrained=False,
                 risk=None, family="stop-loss", layer_upper=None):
    stage = StageData(
        dY=dY,
        dZ=dZ,
        risk=risk if risk is not None else RiskSpec("expected-shortfall", 0.9),
        premium=PremiumSpec("expected", theta=0.2),
        beta=beta,
        budget_constrained=constrained,
    )
    return ModelConfig(
        horizon=horizon,
        stages=(stage,),
        grid=grid if grid is not None else GridSpec(-1.0, 2.0, 33),
        search=SearchSpec(family=family, layer_upper=layer_upper),
    )


def var_layer_config(horizon, *, m=301, z=0.3, grid_count=65):
    dY = uniform01(m)
    upper = var(dY, 0.95)
    stage = StageData(
        dY=dY,
        dZ=point(z),
        risk=RiskSpec("value-at-risk", 0.95),
        premium=PremiumSpec("expected", theta=0.2),
        beta=1.0,
        budget_constrained=True,
    )
    return ModelConfig(
        horizon=horizon,
        stages=(stage,),
        grid=GridSpec(-0.5, 1.5, grid_count),
        search=SearchSpec(family="layer", layer_upper=upper),
    )


class TestDegenerateDynamics:
    # point-mass claims and income make every path identical, so the
    # estimate must be exactly 0 or 1 and everything is reproducible

    def test_all_paths_identical_no_ruin(self):
        config = basic_config(point(0.4), point(0.5), horizon=2)
        policy = identity_policy(config)
        res = simulate_paths(policy, config, 0.1, 500, seed=3)
        # x: 0.1 -> 0.2 -> 0.3, never negative
        assert res.paths == 500
        assert res.ruin_estimate == 0.0
        assert res.ci_half_width == 0.0
        assert res.period_ruin_counts == (0, 0)
        assert res.terminal_mean == pytest.approx(0.3, abs=1e-12)
        for _, q in res.terminal_quantiles:
            assert q == pytest.approx(0.3, abs=1e-12)

    def test_all_paths_identical_certain_ruin(self):
        config = basic_config(point(0.4), point(0.0), horizon=2)
        policy = identity_policy(config)
        res = simulate_paths(policy, config, 0.3, 400, seed=3)
        # x: 0.3 -> -0.1 -> -0.5, ruined from period one onward
        assert res.ruin_estimate == 1.0
        assert res.ci_half_width == 0.0
        assert res.period_ruin_counts == (400, 400)

    def test_income_dominates_claims(self):
        dY = uniform01(51)
        config = basic_config(dY, point(float(ess_sup(dY))), horizon=3)
        policy = identity_policy(config)
        res = simulate_paths(policy, config, 0.0, 4000, seed=11)
        # X_{n+1} - X_n = z - Y >= 0, so the surplus never drops below 0
        assert res.ruin_estimate == 0.0
        assert res.period_ruin_counts == (0, 0, 0)


class TestSamplingAndDeterminism:

    def test_same_seed_bitwise_identical(self):
        config = var_layer_config(3)
        _, policy = solve_finite(config)
        a = simulate_paths(policy, config, 0.8, 12_345, seed=99)
        b = simulate_paths(policy, config, 0.8, 12_345, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        config = var_layer_config(2)
        _, policy = solve_finite(config)
        a = simulate_paths(policy, config, 0.2, 5000, seed=1)
        b = simulate_paths(policy, config, 0.2, 5000, seed=2)
        assert a.terminal_mean != b.terminal_mean

    def test_identity_policy_terminal_mean(self):
        # E[X_N] = x0 + N*(E[Z] - E[Y]); the seeded estimate must land
        # within three standard errors of it
        dY = uniform01(101)
        config = basic_config(dY, point(0.55), horizon=3)
        policy = identity_policy(config)
        n = 20_000
        res = simulate_paths(policy, config, 0.2, n, seed=7)
        expected = 0.2 + 3 * (0.55 - dY.mean())
        # Var(X_N) = 3 Var(Y) = 3/12, so SE = 0.5/sqrt(n)
        se = 0.5 / math.sqrt(n)
        assert abs(res.terminal_mean - expected) <= 3 * se

    def test_ci_half_width_formula(self):
        config = var_layer_config(2)
        _, policy = solve_finite(config)
        res = simulate_paths(policy, config, 0.05, 8000, seed=21)
        p = res.ruin_estimate
        assert 0.0 <= p <= 1.0
        want = 1.96 * math.sqrt(p * (1.0 - p) / res.paths)
        assert res.ci_half_width == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_odd_path_count_spans_batches(self):
        config = basic_config(point(0.4), point(0.5), horizon=1)
        policy = identity_policy(config)
        res = simulate_paths(policy, config, 0.0, 10_077, seed=5)
        assert res.paths == 10_077
        assert res.period_ruin_counts == (0,)

    def test_peak_memory_one_terminal_array(self):
        # the terminal quantiles partition the surplus array in place: the
        # traced peak stays under 1.5 floats per path (2.16 with a copy)
        config = basic_config(point(0.4), point(0.5), horizon=1)
        policy = identity_policy(config)
        n = 400_000
        simulate_paths(policy, config, 0.0, 20_000, seed=3)
        tracemalloc.start()
        try:
            simulate_paths(policy, config, 0.0, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n


def sentinel_grid(grid):
    return np.concatenate([[-np.inf], grid, [np.inf]])


class TestGridIndex:
    """sim._grid_index is the clipped np.searchsorted lookup, bit for bit."""

    @pytest.mark.parametrize("lo,hi,count", [(-1.0, 2.0, 33), (-0.5, 1.5, 512), (0.1, 0.7, 17)])
    def test_matches_searchsorted(self, lo, hi, count):
        grid = GridSpec(lo, hi, count).points()
        rng = np.random.default_rng(11)
        x = np.concatenate([
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
            [1.0, 5e-324, -5e-324, 0.0, lo - 1.0, hi + 1.0, -1e300, 1e300],
            rng.uniform(lo - 0.5, hi + 0.5, 5000),
        ])
        want = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 1)
        assert np.array_equal(sim._grid_index(sentinel_grid(grid), x), want)

    @pytest.mark.parametrize("which", ["random", "on-grid", "off-grid", "mid-cell"])
    def test_each_kind_of_x_matches_searchsorted(self, monkeypatch, which):
        grid = GridSpec(-0.5, 1.5, 512).points()
        rng = np.random.default_rng(7)
        x = {
            "random": rng.uniform(-0.6, 1.6, 5000),
            "on-grid": grid,
            "off-grid": np.concatenate([rng.uniform(-1e3, -0.5, 500), rng.uniform(1.5, 1e3, 500)]),
            "mid-cell": 0.5 * (grid[1:] + grid[:-1]),
        }[which]
        want = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 1)
        searched = []
        search = np.searchsorted

        def counted(a, v, **kw):
            searched.append(np.size(v))
            return search(a, v, **kw)

        monkeypatch.setattr(sim.np, "searchsorted", counted)
        assert np.array_equal(sim._grid_index(sentinel_grid(grid), x), want)
        # at most one search, over the missed guesses only
        assert len(searched) <= 1 and sum(searched) < x.size
        if which in ("off-grid", "mid-cell"):
            # every guess holds: nothing is searched
            assert searched == []


class TestPolicyLookup:

    def test_below_grid_uses_lowest_row(self):
        # start below the grid: the clamped lookup must apply the state-0
        # treaty, here full cession, making every path deterministic
        dY = uniform01(21)
        grid = GridSpec(0.0, 1.0, 17)
        config = basic_config(dY, point(0.8), horizon=1, grid=grid)
        pts = grid.points()
        full_cession = make_treaty("stop-loss", {"a": 0.0})
        row = [make_treaty("identity", {}) for _ in pts]
        row[0] = full_cession
        policy = PolicyTable(pts, (tuple(row),))
        res = simulate_paths(policy, config, -0.5, 200, seed=13)
        prem = 1.2 * dY.mean()
        want = -0.5 - prem + 0.8
        assert res.terminal_mean == pytest.approx(want, abs=1e-12)
        for _, q in res.terminal_quantiles:
            assert q == pytest.approx(want, abs=1e-12)

    def test_scalar_only_custom_treaty(self):
        # min rejects arrays; the policy table calls it claim by claim
        config = basic_config(uniform01(51), point(0.3), horizon=2, grid=GridSpec(-0.5, 1.5, 17))
        pts = config.grid.points()

        def run(fn):
            f = make_treaty("custom", {"fn": fn})
            policy = PolicyTable(pts, ((f,) * pts.size,) * 2)
            return simulate_paths(policy, config, 0.4, 3000, seed=7)

        assert run(lambda y: min(y, 0.5)) == run(lambda y: np.minimum(y, 0.5))

    def test_infeasible_row_rejected(self):
        config = var_layer_config(1, grid_count=17)
        pts = config.grid.points()
        # full cession at a negative-surplus state costs more than x+
        row = tuple(make_treaty("stop-loss", {"a": 0.0}) for _ in pts)
        policy = PolicyTable(pts, (row,))
        with pytest.raises(InfeasiblePolicyRow):
            simulate_paths(policy, config, 0.5, 100, seed=1)


class TestImputedCounts:

    def test_present_only_with_values(self):
        config = var_layer_config(2)
        values, policy = solve_finite(config)
        plain = simulate_paths(policy, config, 0.8, 3000, seed=4)
        assert plain.imputed_ruin_counts is None
        res = simulate_paths(policy, config, 0.8, 3000, seed=4, values=values)
        assert res.imputed_ruin_counts is not None
        assert len(res.imputed_ruin_counts) == 2
        assert all(0 <= c <= res.paths for c in res.imputed_ruin_counts)
        # supplying values must not perturb the sampled paths
        assert res.terminal_mean == plain.terminal_mean
        assert res.period_ruin_counts == plain.period_ruin_counts

    def test_wrong_values_length_rejected(self):
        config = var_layer_config(2)
        values, policy = solve_finite(config)
        with pytest.raises(ValidationError):
            simulate_paths(policy, config, 0.8, 100, seed=4, values=values[:-1])


class TestValidation:

    def test_rejects_infinite_config(self):
        stage = StageData(
            dY=uniform01(31),
            dZ=point(0.3),
            risk=RiskSpec("expected-shortfall", 0.9),
            premium=PremiumSpec("expected", theta=0.2),
            beta=0.9,
        )
        config = ModelConfig(None, (stage,), GridSpec(-1.0, 1.0, 17),
                             SearchSpec(family="stop-loss"))
        _, policy = solve_finite(var_layer_config(1))
        with pytest.raises(ValidationError):
            simulate_paths(policy, config, 0.0, 10, seed=1)

    def test_rejects_bad_path_count(self):
        config = var_layer_config(1)
        _, policy = solve_finite(config)
        with pytest.raises(ValidationError):
            simulate_paths(policy, config, 0.0, 0, seed=1)

    @pytest.mark.parametrize("x0, n_paths, seed, message", [
        (0.0, 2.5, 1, "expected an integer, got 2.5"),
        (0.0, True, 1, "expected an integer, got True"),
        (0.0, 10, 1.5, "expected an integer, got 1.5"),
        (True, 10, 1, "expected a number, got True"),
        (math.inf, 10, 1, "expected a finite number, got inf"),
    ])
    def test_refuses_what_the_simulate_block_refuses(self, x0, n_paths, seed, message):
        # a library call would otherwise run 2 paths, seed 1 or start capital 1.0
        config = var_layer_config(1)
        _, policy = solve_finite(config)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            simulate_paths(policy, config, x0, n_paths, seed=seed)

    def test_rejects_row_count_mismatch(self):
        config = var_layer_config(2)
        one = var_layer_config(1)
        _, policy = solve_finite(one)
        with pytest.raises(ValidationError):
            simulate_paths(policy, config, 0.0, 10, seed=1)


class TestRuinBoundCheck:

    def test_bound_sums_tail_levels(self):
        config = var_layer_config(4)
        _, policy = solve_finite(config)
        bound, holds = ruin_bound_check(policy, config, 1.4)
        assert bound == pytest.approx(0.2, abs=1e-12)
        assert holds is True

    def test_single_period_bound(self):
        dY = uniform01(301)
        stage = StageData(
            dY=dY,
            dZ=point(0.3),
            risk=RiskSpec("value-at-risk", 0.99),
            premium=PremiumSpec("expected", theta=0.2),
            beta=1.0,
            budget_constrained=True,
        )
        config = ModelConfig(1, (stage,), GridSpec(-0.5, 1.5, 65),
                             SearchSpec(family="layer", layer_upper=var(dY, 0.99)))
        _, policy = solve_finite(config)
        bound, _ = ruin_bound_check(policy, config, 1.0)
        assert bound == pytest.approx(0.01, abs=1e-12)

    def test_precondition_fails_deep_in_deficit(self):
        config = var_layer_config(4)
        _, policy = solve_finite(config)
        bound, holds = ruin_bound_check(policy, config, -0.5)
        assert bound == pytest.approx(0.2, abs=1e-12)
        assert holds is False

    @pytest.mark.parametrize("x0", ["1.2", True, math.inf, math.nan])
    def test_start_capital_read_as_simulate_reads_it(self, x0):
        # a string, a boolean, an infinity and NaN are refused by both
        config = var_layer_config(1, m=51, grid_count=17)
        policy = identity_policy(config)
        with pytest.raises(ValidationError) as refused:
            ruin_bound_check(policy, config, x0)
        assert refused.value.field == "x0"
        with pytest.raises(ValidationError):
            simulate_paths(policy, config, x0, 10, seed=1)

    def test_requires_var_at_every_stage(self):
        config = basic_config(uniform01(31), point(0.3), horizon=2)
        policy = identity_policy(config)
        with pytest.raises(NotVaRConfig):
            ruin_bound_check(policy, config, 0.5)

    def test_bonferroni_bound_holds_empirically(self):
        # where the certified precondition holds, the empirical ruin
        # frequency minus its CI half-width must not exceed the bound
        config = var_layer_config(2)
        _, policy = solve_finite(config)
        x0 = 1.3
        bound, holds = ruin_bound_check(policy, config, x0)
        assert holds is True
        for seed in (11, 12, 13):
            res = simulate_paths(policy, config, x0, 20_000, seed=seed)
            assert res.ruin_estimate - res.ci_half_width <= bound

    def test_drift_path_leaving_the_grid_at_both_ends(self, monkeypatch):
        # the worst-case drift starts above the grid's top and ends below its
        # bottom; the end states hold treaties of their own, so a lookup off
        # either end that picked another row would change the walk
        config = basic_config(uniform01(31), point(0.3), horizon=8,
                              risk=RiskSpec("value-at-risk", 0.95), grid=GridSpec(-0.5, 1.5, 33))
        grid = config.grid.points()
        row = (
            (make_treaty("identity", {}),)
            + (make_treaty("proportional", {"c": 0.5}),) * (grid.size - 2)
            + (make_treaty("stop-loss", {"a": 0.2}),)
        )
        policy = PolicyTable(grid, (row,) * 8)
        walk = []

        def recording(policy, config, table):
            tails = _policy_values(policy, config, table)
            return [lambda x, v=v: walk.append(x) or v(x) for v in tails]

        monkeypatch.setattr(sim, "_policy_values", recording)
        assert ruin_bound_check(policy, config, 1.9) == (pytest.approx(0.4, abs=1e-12), False)
        # looked up twice above the top state and once below the bottom one
        assert walk[1] > grid[-1] and walk[-2] < grid[0]
        assert np.array_equal(walk, reference_ruin_walk(policy, config, 1.9)[0])


def mixed_policy_config(shared=True, atoms=None):
    # every treaty family in one policy. Blocks of states run from the
    # dearest one-period cost (identity) to the cheapest (stop-loss), so the
    # policy's own cost-to-go decreases and the ruin bound can evaluate it.
    # atoms, when given, holds each stage's own claim atom count.
    def stage(m):
        return StageData(
            dY=uniform01(m),
            dZ=discretize(FamilySpec("uniform", (0.2, 0.5), atoms=3)),
            risk=RiskSpec("value-at-risk", 0.95),
            premium=PremiumSpec("expected", theta=0.2),
            beta=0.5,
            budget_constrained=False,
        )

    if atoms is not None:
        stages = tuple(stage(m) for m in atoms)
    else:
        stages = (stage(301),) if shared else (stage(301),) * 3
    config = ModelConfig(3, stages, GridSpec(-0.5, 1.5, 65), SearchSpec("stop-loss"))
    custom = make_treaty("custom", {"fn": lambda y: 0.8 * np.minimum(y, 0.4)})
    blocks = (
        lambda: make_treaty("identity", {}),
        lambda: make_treaty("proportional", {"c": 0.6}),
        lambda: make_treaty("layer", {"a": 0.2, "w": 0.5}),
        lambda: make_treaty(
            "piecewise-linear", {"knots": [0.1, 0.4, 0.7], "slopes": [1.0, 0.3, 0.5]}
        ),
        lambda: custom,
        lambda: make_treaty("full-cession", {}),
        lambda: make_treaty("stop-loss", {"a": 0.3}),
    )
    grid = config.grid.points()
    row = tuple(blocks[j * len(blocks) // grid.size]() for j in range(grid.size))
    return config, PolicyTable(grid, (row,) * 3)


def reference_simulate(policy, config, x0, n_paths, seed, values=None):
    # the per-visited-state replay: Treaty.retained on each state's draws
    grid = config.grid.points()
    periods = config.horizon
    prem = [
        np.array([treaty_premium(config.stage(n).premium, config.stage(n).dY, f) for f in row])
        for n, row in enumerate(policy.rows)
    ]
    counts = np.zeros(periods, dtype=np.int64)
    imputed = np.zeros(periods, dtype=np.int64)
    terminal, ruined_total = [], 0
    for b, lo in enumerate(range(0, n_paths, sim._BATCH)):
        bs = min(sim._BATCH, n_paths - lo)
        u = np.random.Generator(np.random.Philox(key=seed).jumped(b)).random((bs, periods, 2))
        x = np.full(bs, float(x0))
        ruined = np.zeros(bs, dtype=bool)
        for n in range(periods):
            s = config.stage(n)
            y = quantile(s.dY, 1.0 - u[:, n, 0])
            z = quantile(s.dZ, 1.0 - u[:, n, 1])
            j = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 1)
            h = np.empty(bs)
            for jj in np.unique(j):
                sel = j == jj
                h[sel] = policy.rows[n][jj].retained(y[sel])
            x = x - h - prem[n][j] + z
            counts[n] += np.count_nonzero(x < 0.0)
            if values is not None:
                imputed[n] += np.count_nonzero(-x + s.beta * values[n + 1](x) > 0.0)
            ruined |= x < 0.0
        terminal.append(x)
        ruined_total += np.count_nonzero(ruined)
    return np.concatenate(terminal), counts, imputed, ruined_total


def reference_ruin_walk(policy, config, x0):
    # the worst-case drift walk, applying each visited treaty to the top claim
    grid = config.grid.points()
    tails = _policy_values(policy, config, _policy_table(policy, config))
    walk, holds, x = [], True, float(x0)
    for n in range(config.horizon):
        s = config.stage(n)
        walk.append(x)
        holds &= not tails[n](x) > 0.0
        j = int(np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 1))
        f = policy.rows[n][j]
        worst = float(f.retained(ess_sup(s.dY)))
        x = x - worst - treaty_premium(s.premium, s.dY, f) + float(s.dZ.values[0])
    return walk, holds


class TestReplayTable:

    @pytest.mark.parametrize("atoms", [None, (101, 301, 201)], ids=["shared", "own-atoms"])
    @pytest.mark.parametrize("with_values", [False, True])
    def test_simulate_matches_per_state_replay(self, with_values, atoms):
        # own-atoms: each stage's claims table has its own width, which sets
        # the stride of its flat gather
        config, policy = mixed_policy_config(atoms=atoms)
        values = (
            _policy_values(policy, config, _policy_table(policy, config)) if with_values else None
        )
        res = simulate_paths(policy, config, 0.3, 25_001, seed=5, values=values)
        terminal, counts, imputed, ruined = reference_simulate(
            policy, config, 0.3, 25_001, 5, values
        )
        assert np.array_equal(res.period_ruin_counts, counts)
        assert res.ruin_estimate == ruined / 25_001
        assert res.terminal_mean == terminal.mean()
        assert np.array_equal(
            [q for _, q in res.terminal_quantiles], np.quantile(terminal, sim._QUANTILE_LEVELS)
        )
        if with_values:
            assert np.array_equal(res.imputed_ruin_counts, imputed)
        else:
            assert res.imputed_ruin_counts is None

    def test_ruin_bound_matches_per_state_walk(self, monkeypatch):
        # the check evaluates its cost-to-go at every state it visits, so
        # wrapping the cost-to-go records the walk
        config, policy = mixed_policy_config()
        walk = []

        def recording(policy, config, table):
            tails = _policy_values(policy, config, table)
            return [lambda x, v=v: walk.append(x) or v(x) for v in tails]

        monkeypatch.setattr(sim, "_policy_values", recording)
        held = []
        for x0 in np.linspace(-0.6, 1.6, 12):
            walk.clear()
            bound, holds = ruin_bound_check(policy, config, x0)
            want_walk, want_holds = reference_ruin_walk(policy, config, x0)
            assert np.array_equal(walk, want_walk), x0
            assert holds == want_holds
            assert bound == pytest.approx(0.15, abs=1e-12)
            held.append(holds)
        assert any(held) and not all(held)

    def test_point_mass_income_is_not_looked_up(self, monkeypatch):
        # the one atom at every level: the bits of the run that looks it up
        config = var_layer_config(3)
        _, policy = solve_finite(config)
        looked_up = []
        monkeypatch.setattr(sim, "quantile", lambda d, u: looked_up.append(d) or quantile(d, u))
        res = simulate_paths(policy, config, 0.3, 25_001, seed=5)
        assert looked_up == []
        terminal, counts, _, ruined = reference_simulate(policy, config, 0.3, 25_001, 5)
        assert np.array_equal(res.period_ruin_counts, counts)
        assert res.ruin_estimate == ruined / 25_001
        assert res.terminal_mean == terminal.mean()
        assert np.array_equal(
            [q for _, q in res.terminal_quantiles], np.quantile(terminal, sim._QUANTILE_LEVELS)
        )

    def test_batch_peak_is_its_temporaries_and_one_table(self):
        # one 10k-path batch over 2001 atoms and three stages that share one
        # stage data: its per-batch arrays and the shared table. The arrays
        # trace at 1.29-1.33 MB (the draw buffer's 0.48 MB among them),
        # against 1.55-1.59 MB with a fresh draw array per batch and a
        # bisection loop on every guide bracket. A first run outside the
        # trace keeps one-time set-up, such as numpy's lazy imports, out of it.
        config = var_layer_config(3, m=2001, grid_count=257)
        _, policy = solve_finite(config)
        table = _policy_table(policy, config)[2][0]
        simulate_paths(policy, config, 0.3, 10, seed=1)
        tracemalloc.start()
        try:
            simulate_paths(policy, config, 0.3, 10_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.34e6 + table.nbytes

    @pytest.mark.parametrize("shared, distinct", [(True, 7), (False, 21)])
    def test_retained_once_per_treaty_and_stage_data(self, monkeypatch, shared, distinct):
        # pricing goes through ceded, which is kept out of the count
        config, policy = mixed_policy_config(shared)
        retained = Treaty.retained
        calls = []
        monkeypatch.setattr(Treaty, "ceded", lambda f, y: np.asarray(y) - retained(f, y))
        monkeypatch.setattr(Treaty, "retained", lambda f, y: calls.append(f) or retained(f, y))
        simulate_paths(policy, config, 0.3, 25_001, seed=5)
        assert len(calls) == distinct
