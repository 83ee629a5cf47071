"""Reference-solution checks.

The closed-form answers are themselves validated here before the solver is
measured against them: parameters against hand-solved equations, premium maps
against the independent treaty-pricing route, and searched constants against
brute-force lattice scans that include every claim atom (the objectives are
piecewise linear with kinks only at atoms, so an atom lattice contains the
true minimizer).
"""

import math

import numpy as np
import pytest

from reinsure_dp.distributions import (
    FamilySpec,
    discretize,
    independent_product,
)
from reinsure_dp.dp import GridSpec, ModelConfig, SearchSpec, StageData, solve_finite
from reinsure_dp.errors import (
    InvalidDistortion,
    OutOfRange,
    ParameterRegime,
    UnsupportedFamily,
    ValidationError,
)
from reinsure_dp.oracles import (
    oracle_es_uniform,
    oracle_unconstrained,
    oracle_var_layer,
    static_reinsurance,
)
from reinsure_dp.premiums import (
    PremiumSpec,
    layer_premium_closed_form,
    premium,
    treaty_premium,
)
from reinsure_dp.risk import RiskSpec, distortion_preset, evaluate, var
from reinsure_dp.treaties import make_treaty

IDENTITY = distortion_preset("identity")


def uniform01(m=2001):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


def point(z):
    return discretize(FamilySpec("point-mass", (z,)))


class TestVarLayerOracle:
    dY = uniform01()

    def solution(self):
        return oracle_var_layer(self.dY, IDENTITY, 0.2, 0.95)

    def test_uniform_identity_deductible(self):
        # 1 - 1.2 (1 - a) crosses zero at a = 1/6, an atom of the m=2001 grid
        sol = self.solution()
        assert sol.a_star == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert sol.var_level == var(self.dY, 0.95)
        assert 0.0 <= sol.a_star <= sol.var_level

    def test_cheap_reinsurance_keeps_whole_layer(self):
        # g(1-alpha) = 0.3 >= 1/(1+theta) = 0.25: objective decreasing, so the
        # deductible climbs to the layer's upper edge
        sol = oracle_var_layer(self.dY, IDENTITY, 3.0, 0.7)
        assert sol.a_star == var(self.dY, 0.7)

    def test_budget_slack_returns_unconstrained_deductible(self):
        sol = self.solution()
        pi_star = treaty_premium(
            PremiumSpec("expected", theta=0.2),
            self.dY,
            make_treaty("layer", {"a": sol.a_star, "w": sol.var_level - sol.a_star}),
        )
        assert sol.a_of_x(pi_star + 0.01) == sol.a_star
        assert sol.a_of_x(10.0) == sol.a_star

    def test_zero_budget_forces_full_layer_retention(self):
        sol = self.solution()
        assert sol.a_of_x(0.0) == pytest.approx(sol.var_level, abs=1e-8)
        assert sol.a_of_x(-3.0) == pytest.approx(sol.var_level, abs=1e-8)

    def test_deductible_decreasing_in_surplus(self):
        sol = self.solution()
        xs = np.linspace(-0.2, 0.6, 33)
        vals = np.array([sol.a_of_x(float(x)) for x in xs])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= sol.a_star - 1e-12)
        assert np.all(vals <= sol.var_level + 1e-12)

    def test_binding_budget_is_spent_exactly(self):
        sol = self.solution()
        pspec = PremiumSpec("expected", theta=0.2)
        for x in (0.005, 0.02, 0.05):
            a = sol.a_of_x(x)
            assert a > sol.a_star
            pi = treaty_premium(
                pspec, self.dY, make_treaty("layer", {"a": a, "w": sol.var_level - a})
            )
            assert pi <= x + 1e-9
            assert pi == pytest.approx(x, abs=1e-8)

    def test_deductible_matches_atom_scan(self):
        sol = self.solution()
        pspec = PremiumSpec("expected", theta=0.2)
        v = sol.var_level
        cand = np.concatenate([[0.0], self.dY.values[self.dY.values < v], [v]])
        psi = np.array(
            [
                a + treaty_premium(pspec, self.dY, make_treaty("layer", {"a": a, "w": v - a}))
                for a in cand
            ]
        )
        assert sol.a_star == pytest.approx(float(cand[int(np.argmin(psi))]), abs=1e-9)

    def test_ph_distortion_hand_value(self):
        # 1.2 (1-a)^0.8 = 1  =>  a = 1 - (1/1.2)^1.25, up to atom spacing
        sol = oracle_var_layer(self.dY, distortion_preset("ph:0.8"), 0.2, 0.95)
        assert sol.a_star == pytest.approx(1.0 - (1.0 / 1.2) ** 1.25, abs=1e-3)

    def test_premium_routes_agree(self):
        # direct survival integral vs pricing the pushed-forward ceded part
        v = var(self.dY, 0.95)
        pspec = PremiumSpec("expected", theta=0.2)
        for a in (0.0, 0.17, 0.4, v):
            direct = layer_premium_closed_form(self.dY, IDENTITY, 0.2, a, v)
            priced = treaty_premium(
                pspec, self.dY, make_treaty("layer", {"a": a, "w": v - a})
            )
            assert direct == pytest.approx(priced, rel=1e-10, abs=1e-13)

    def test_scalar_only_distortion(self):
        # math.sqrt rejects arrays; the layer premiums call it point by point
        got = oracle_var_layer(self.dY, lambda u: math.sqrt(u), 0.2, 0.9)
        want = oracle_var_layer(self.dY, np.sqrt, 0.2, 0.9)
        assert (got.a_star, got.var_level) == (want.a_star, want.var_level)
        for x in (-0.1, 0.0, 0.05, 0.2, 1.0):
            assert got.a_of_x(x) == want.a_of_x(x)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidDistortion):
            oracle_var_layer(self.dY, lambda u: 2.0 * np.asarray(u), 0.2, 0.95)
        with pytest.raises(InvalidDistortion):
            oracle_var_layer(self.dY, None, 0.2, 0.95)
        with pytest.raises(ValidationError):
            oracle_var_layer(self.dY, IDENTITY, 0.2, 1.0)
        with pytest.raises(ValidationError):
            oracle_var_layer(self.dY, IDENTITY, -0.1, 0.95)


class TestEsUniformOracle:
    def test_hand_values(self):
        assert oracle_es_uniform(0.2, 0.95, 0.6) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert oracle_es_uniform(0.2, 0.95, 0.0) == 1.0
        assert oracle_es_uniform(0.2, 0.95, -1.5) == 1.0
        # fair premium: ceding everything is free of loading, so retain nothing
        assert oracle_es_uniform(0.0, 0.9, 0.6) == 0.0

    def test_regime_guard(self):
        with pytest.raises(ParameterRegime):
            oracle_es_uniform(0.2, 0.05, 0.3)
        # the boundary 1/(1-alpha) == 1+theta is still inside the regime
        assert oracle_es_uniform(0.25, 0.2, 10.0) == pytest.approx(0.2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            oracle_es_uniform(0.2, 0.0, 0.3)
        with pytest.raises(ValidationError):
            oracle_es_uniform(-0.2, 0.9, 0.3)

    def test_decreasing_then_constant(self):
        xs = np.linspace(-0.5, 2.0, 101)
        vals = np.array([oracle_es_uniform(0.2, 0.95, float(x)) for x in xs])
        assert np.all(np.diff(vals) <= 1e-12)
        level = 0.2 / 1.2
        cut = 0.5 * 1.2 * (1.0 - level) ** 2
        for x, v in zip(xs, vals):
            if x >= cut + 1e-9:
                assert v == pytest.approx(level, abs=1e-12)
            elif 0.0 <= x <= cut - 1e-9:
                assert v > level


def unconstrained_config(horizon=3, beta=0.9, m=201):
    s = StageData(
        dY=discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m)),
        dZ=point(0.3),
        risk=RiskSpec("expected-shortfall", alpha=0.9),
        premium=PremiumSpec("expected", theta=0.1),
        beta=beta,
        budget_constrained=False,
    )
    return ModelConfig(horizon, (s,), GridSpec(-2.0, 2.0, 33), SearchSpec("stop-loss"))


class TestUnconstrainedOracle:
    def test_constant_matches_atom_lattice_scan(self):
        cfg = unconstrained_config()
        c, f_star, _ = oracle_unconstrained(cfg)
        s = cfg.stage(0)
        lattice = np.unique(
            np.concatenate([s.dY.values, np.linspace(0.0, float(s.dY.values[-1]), 4001)])
        )
        best = np.inf
        for a in lattice:
            f = make_treaty("stop-loss", {"a": float(a)})
            dist = independent_product(s.dY, s.dZ, lambda y, z: f.retained(y) - z)
            got = evaluate(s.risk, dist) + treaty_premium(s.premium, s.dY, f)
            best = min(best, got)
        assert best - 1e-9 <= c <= best + 1e-7
        assert f_star.family == "stop-loss"

    def test_coefficient_hand_values(self):
        c, _, coeffs = oracle_unconstrained(unconstrained_config(horizon=3, beta=0.9))
        assert len(coeffs) == 4
        intercept, slope = coeffs[0]
        assert slope == pytest.approx(-(1.0 + 0.9 + 0.81), rel=1e-12)
        assert intercept == pytest.approx(c * (1.0 + 2.0 * 0.9 + 3.0 * 0.81), rel=1e-12)
        assert coeffs[2][0] == pytest.approx(c, rel=1e-15)
        assert coeffs[2][1] == pytest.approx(-1.0)
        assert coeffs[3][0] == 0.0
        assert coeffs[3][1] == 0.0

    def test_single_period(self):
        c, _, coeffs = oracle_unconstrained(unconstrained_config(horizon=1))
        assert coeffs[0][0] == pytest.approx(c, rel=1e-15)
        assert coeffs[0][1] == pytest.approx(-1.0)

    def test_stationary_coefficients(self):
        c, _, coeffs = oracle_unconstrained(unconstrained_config(horizon=None))
        assert len(coeffs) == 1
        intercept, slope = coeffs[0]
        assert slope == pytest.approx(-10.0, rel=1e-12)
        assert intercept == pytest.approx(100.0 * c, rel=1e-12)

    def test_policy_matches_finite_solver(self):
        cfg = unconstrained_config(horizon=2)
        c, f_star, coeffs = oracle_unconstrained(cfg)
        values, policy = solve_finite(cfg)
        for n in range(2):
            gap = np.max(np.abs(policy.stage_params(n) - f_star.params["a"]))
            assert gap <= 1e-9
        assert values[0](0.0) == pytest.approx(coeffs[0][0], abs=1e-5)

    def test_rejects_bad_configs(self):
        cfg = unconstrained_config()
        s = cfg.stage(0)
        constrained = StageData(s.dY, s.dZ, s.risk, s.premium, s.beta)
        with pytest.raises(ValidationError):
            oracle_unconstrained(ModelConfig(3, (constrained,), cfg.grid, cfg.search))
        entropic = StageData(
            s.dY, s.dZ, RiskSpec("entropic", gamma=1.0), s.premium, s.beta,
            budget_constrained=False,
        )
        with pytest.raises(ValidationError):
            oracle_unconstrained(ModelConfig(3, (entropic,), cfg.grid, cfg.search))
        with pytest.raises(ValidationError):
            oracle_unconstrained(ModelConfig(2, (s, constrained), cfg.grid, cfg.search))


class TestStaticReinsurance:
    dY = discretize(FamilySpec("uniform", (0.0, 1.0), atoms=101))
    dZ = point(0.3)

    def test_endpoints_bracket_unconstrained_value(self):
        risk = RiskSpec("expected-shortfall", alpha=0.9)
        pspec = PremiumSpec("expected", theta=0.1)
        f, val = static_reinsurance(
            risk, pspec, self.dY, point(0.0), None, SearchSpec("stop-loss")
        )
        full_retention = evaluate(risk, self.dY)
        full_cession = premium(pspec, self.dY)
        assert val <= min(full_retention, full_cession) + 1e-12

    def test_matches_single_period_solver(self):
        grid = GridSpec(-0.5, 1.0, 31)
        xs = grid.points()
        combos = [
            (RiskSpec("value-at-risk", alpha=0.9), PremiumSpec("expected", theta=0.2)),
            (RiskSpec("value-at-risk", alpha=0.9), PremiumSpec("ph", theta=0.1, gamma=0.8)),
            (RiskSpec("expected-shortfall", alpha=0.9), PremiumSpec("expected", theta=0.2)),
            (RiskSpec("expected-shortfall", alpha=0.9), PremiumSpec("ph", theta=0.1, gamma=0.8)),
        ]
        search = SearchSpec("stop-loss")
        for risk, pspec in combos:
            cfg = ModelConfig(1, (StageData(self.dY, self.dZ, risk, pspec, 0.9),), grid, search)
            values, policy = solve_finite(cfg)
            for j in (0, 10, 20, 30):
                x = float(xs[j])
                f, val = static_reinsurance(
                    risk, pspec, self.dY, self.dZ, max(x, 0.0), search
                )
                assert val - x == pytest.approx(values[0].values[j], abs=1e-9)
                assert f.params["a"] == pytest.approx(
                    policy.rows[0][j].params["a"], abs=1e-9
                )

    def test_layer_family_matches_var_oracle(self):
        dY = uniform01()
        risk = RiskSpec("value-at-risk", alpha=0.95)
        pspec = PremiumSpec("expected", theta=0.2)
        sol = oracle_var_layer(dY, IDENTITY, 0.2, 0.95)
        search = SearchSpec("layer", layer_upper=sol.var_level)
        for x in (0.0, 0.01, 0.03, 0.5):
            f, _ = static_reinsurance(risk, pspec, dY, point(0.3), x, search)
            assert f.params["a"] == pytest.approx(sol.a_of_x(x), abs=1e-4)

    def test_stop_loss_matches_es_formula(self):
        dY = uniform01()
        risk = RiskSpec("expected-shortfall", alpha=0.95)
        pspec = PremiumSpec("expected", theta=0.2)
        search = SearchSpec("stop-loss")
        for x in (0.05, 0.2, 0.6):
            f, _ = static_reinsurance(risk, pspec, dY, point(0.3), x, search)
            assert f.params["a"] == pytest.approx(oracle_es_uniform(0.2, 0.95, x), abs=1e-3)

    def test_rejects_negative_budget_and_odd_family(self):
        risk = RiskSpec("expectation")
        pspec = PremiumSpec("expected", theta=0.1)
        with pytest.raises(ValidationError):
            static_reinsurance(risk, pspec, self.dY, self.dZ, -0.2, SearchSpec("stop-loss"))
        with pytest.raises(UnsupportedFamily):
            static_reinsurance(
                risk, pspec, self.dY, self.dZ, 0.5,
                SearchSpec("piecewise-linear", knots=(0.0, 0.5)),
            )

    def test_nan_budget_refused_and_infinite_budget_unconstrained(self):
        risk = RiskSpec("expected-shortfall", alpha=0.9)
        pspec = PremiumSpec("expected", theta=0.1)
        search = SearchSpec("stop-loss")
        with pytest.raises(OutOfRange):
            static_reinsurance(risk, pspec, self.dY, self.dZ, math.nan, search)
        f_none, val_none = static_reinsurance(risk, pspec, self.dY, self.dZ, None, search)
        f_inf, val_inf = static_reinsurance(risk, pspec, self.dY, self.dZ, math.inf, search)
        assert (f_inf.params, val_inf) == (f_none.params, val_none)
