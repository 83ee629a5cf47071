"""Treaty family tests: retained-loss shapes, admissibility, feasibility ranges."""

import numpy as np
import pytest

from reinsure_dp.distributions import discretize, make_discrete, FamilySpec
from reinsure_dp.errors import InvalidTreaty, NegativeClaim, UnsupportedFamily
from reinsure_dp.premiums import PremiumSpec, treaty_premium
from reinsure_dp.treaties import (
    feasible_retention_range,
    is_admissible,
    make_treaty,
    premium_breakpoints,
)

SEED = 16180


def uniform01(m=2001):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


PROBE = np.linspace(0.0, 1.0, 10_001)


class TestRetained:
    def test_identity(self):
        f = make_treaty("identity", {})
        y = np.array([0.0, 0.3, 2.0])
        assert np.array_equal(f.retained(y), y)

    def test_full_cession(self):
        f = make_treaty("full-cession", {})
        assert np.array_equal(f.retained(np.array([0.0, 1.5])), np.zeros(2))

    def test_proportional(self):
        f = make_treaty("proportional", {"c": 0.3})
        assert f.retained(np.array([2.0]))[0] == pytest.approx(0.6, abs=1e-15)

    def test_stop_loss(self):
        f = make_treaty("stop-loss", {"a": 0.4})
        got = f.retained(np.array([0.1, 0.4, 1.0]))
        assert np.allclose(got, [0.1, 0.4, 0.4], atol=1e-15)

    def test_layer_hand_values(self):
        # deductible 0.2, ceded layer of width 0.75 above it
        f = make_treaty("layer", {"a": 0.2, "w": 0.75})
        got = f.retained(np.array([0.1, 0.5, 1.0]))
        assert np.allclose(got, [0.1, 0.2, 0.25], atol=1e-15)

    def test_piecewise_linear_hand_values(self):
        f = make_treaty(
            "piecewise-linear", {"knots": [0.0, 1.0, 2.0], "slopes": [1.0, 0.5, 0.0]}
        )
        got = f.retained(np.array([0.5, 1.5, 3.0]))
        assert np.allclose(got, [0.5, 1.25, 1.5], atol=1e-15)

    def test_piecewise_linear_retains_below_first_knot(self):
        f = make_treaty("piecewise-linear", {"knots": [0.2, 0.6], "slopes": [0.5, 0.0]})
        got = f.retained(np.array([0.1, 0.2, 0.4, 0.6, 1.0]))
        assert np.allclose(got, [0.1, 0.2, 0.3, 0.4, 0.4], atol=1e-15)

    def test_piecewise_linear_all_ones_is_identity(self):
        # the piecewise-linear search starts here and relies on a zero premium
        f = make_treaty("piecewise-linear", {"knots": [0.2, 0.6], "slopes": [1, 1]})
        dY = uniform01()
        assert np.array_equal(f.retained(dY.values), dY.values)
        for spec in (PremiumSpec("expected", theta=0.2), PremiumSpec("ph", theta=0.2, gamma=0.8)):
            assert treaty_premium(spec, dY, f) == 0.0

    def test_negative_claim_rejected(self):
        f = make_treaty("stop-loss", {"a": 0.4})
        with pytest.raises(NegativeClaim):
            f.retained(np.array([0.5, -0.1]))

    def test_retained_plus_ceded_is_claim(self):
        y = np.linspace(0.0, 3.0, 301)
        for f in (
            make_treaty("identity", {}),
            make_treaty("proportional", {"c": 0.55}),
            make_treaty("stop-loss", {"a": 1.2}),
            make_treaty("layer", {"a": 0.5, "w": 1.0}),
        ):
            assert np.array_equal(f.retained(y) + f.ceded(y), y)


class TestAdmissibility:
    def test_constructors_pass_probe(self):
        treaties = [
            make_treaty("identity", {}),
            make_treaty("full-cession", {}),
            make_treaty("proportional", {"c": 0.4}),
            make_treaty("stop-loss", {"a": 0.3}),
            make_treaty("layer", {"a": 0.2, "w": 0.75}),
            make_treaty(
                "piecewise-linear", {"knots": [0.0, 0.4, 0.8], "slopes": [1.0, 0.0, 0.6]}
            ),
        ]
        for f in treaties:
            assert is_admissible(f, PROBE)

    def test_steep_slope_fails(self):
        f = make_treaty("piecewise-linear", {"knots": [0.0, 0.5], "slopes": [1.5, 0.0]})
        assert not is_admissible(f, PROBE)

    def test_user_map_above_identity_fails(self):
        f = make_treaty("custom", {"fn": lambda y: np.asarray(y) ** 2})
        assert not is_admissible(f, np.linspace(0.0, 2.0, 201))

    def test_user_map_within_class_passes(self):
        f = make_treaty("custom", {"fn": lambda y: 0.5 * np.asarray(y)})
        assert is_admissible(f, PROBE)

    def test_parameter_validation(self):
        with pytest.raises(InvalidTreaty):
            make_treaty("stop-loss", {"a": -0.1})
        with pytest.raises(InvalidTreaty):
            make_treaty("proportional", {"c": 1.2})
        with pytest.raises(InvalidTreaty):
            make_treaty("layer", {"a": 0.2, "w": -0.5})
        with pytest.raises(InvalidTreaty):
            make_treaty("piecewise-linear", {"knots": [0.5, 0.2], "slopes": [1.0, 1.0]})
        with pytest.raises(UnsupportedFamily):
            make_treaty("surplus-share", {})


class TestPremiumCurve:
    spec = PremiumSpec("expected", theta=0.2)

    def test_breakpoint_curve_matches_direct(self):
        # premium is piecewise linear in the retention with kinks at claim atoms,
        # so interpolating the breakpoint table must reproduce direct pricing
        rng = np.random.default_rng(SEED)
        d = uniform01(301)
        for spec in (self.spec, PremiumSpec("ph", theta=0.1, gamma=0.6)):
            params, prems = premium_breakpoints("stop-loss", spec, d)
            for a in rng.uniform(0.0, 1.0, size=50):
                direct = treaty_premium(spec, d, make_treaty("stop-loss", {"a": float(a)}))
                assert np.interp(a, params, prems) == pytest.approx(direct, abs=1e-10)

    def test_layer_curve_matches_direct(self):
        rng = np.random.default_rng(SEED + 1)
        d = uniform01(301)
        upper = 0.95
        params, prems = premium_breakpoints("layer", self.spec, d, upper=upper)
        for a in rng.uniform(0.0, upper, size=50):
            f = make_treaty("layer", {"a": float(a), "w": upper - float(a)})
            direct = treaty_premium(self.spec, d, f)
            assert np.interp(a, params, prems) == pytest.approx(direct, abs=1e-10)

    def test_curve_is_decreasing(self):
        d = uniform01(301)
        for family, kw in (("stop-loss", {}), ("layer", {"upper": 0.9})):
            params, prems = premium_breakpoints(family, self.spec, d, **kw)
            assert np.all(np.diff(prems) <= 1e-12)


class TestFeasibleRange:
    spec = PremiumSpec("expected", theta=0.2)

    def test_uniform_budget_hand_value(self):
        # budget 0.15: (1+theta)(1-a)^2/2 <= 0.15 iff a >= 0.5
        d = uniform01()
        lo, hi = feasible_retention_range("stop-loss", self.spec, d, 0.15)
        assert lo == pytest.approx(0.5, abs=1e-3)
        # hi is the top atom of the discretized claim, not the continuous 1.0
        assert hi == d.values[-1]

    def test_large_budget_gives_full_interval(self):
        d = uniform01(501)
        full = treaty_premium(self.spec, d, make_treaty("full-cession", {}))
        lo, hi = feasible_retention_range("stop-loss", self.spec, d, full + 0.01)
        assert lo == 0.0

    def test_zero_budget_pins_to_top(self):
        d = uniform01(501)
        lo, hi = feasible_retention_range("stop-loss", self.spec, d, 0.0)
        assert lo == pytest.approx(hi, abs=1e-9)
        assert hi == pytest.approx(float(d.values[-1]), abs=1e-12)

    def test_boundary_is_tight(self):
        rng = np.random.default_rng(SEED + 2)
        d = uniform01(301)
        for _ in range(20):
            budget = float(rng.uniform(0.005, 0.5))
            lo, hi = feasible_retention_range("stop-loss", self.spec, d, budget)
            at_lo = treaty_premium(self.spec, d, make_treaty("stop-loss", {"a": lo}))
            assert at_lo <= budget + 1e-9
            if lo > 1e-9:
                below = treaty_premium(
                    self.spec, d, make_treaty("stop-loss", {"a": lo - 1e-6})
                )
                assert below > budget - 1e-9

    def test_layer_with_fixed_upper(self):
        d = uniform01(501)
        upper = 0.95
        budget = 0.1
        lo, hi = feasible_retention_range("layer", self.spec, d, budget, upper=upper)
        assert hi == pytest.approx(upper, abs=1e-12)
        f = make_treaty("layer", {"a": lo, "w": upper - lo})
        assert treaty_premium(self.spec, d, f) <= budget + 1e-9

    @pytest.mark.parametrize("family,kw", [
        ("stop-loss", {}), ("layer", {"upper": 0.9}), ("proportional", {}),
    ])
    def test_budget_array_matches_scalar_calls(self, family, kw):
        d = uniform01(301)
        for spec in (self.spec, PremiumSpec("ph", theta=0.1, gamma=0.6)):
            _, prems = premium_breakpoints(family, spec, d, **kw)
            rng = np.random.default_rng(SEED + 3)
            budgets = np.concatenate([
                [-1.0, -0.0, 0.0, np.inf], prems, rng.uniform(-0.2, 1.2 * prems[0], 200),
            ])
            lo, hi = feasible_retention_range(family, spec, d, budgets, **kw)
            assert lo.shape == hi.shape == budgets.shape
            for b, got_lo, got_hi in zip(budgets, lo, hi):
                want = feasible_retention_range(family, spec, d, float(b), **kw)
                assert type(want[0]) is float and type(want[1]) is float
                assert (got_lo, got_hi) == want, b

    def test_multiparameter_families_unsupported(self):
        d = uniform01(101)
        with pytest.raises(UnsupportedFamily):
            feasible_retention_range("piecewise-linear", self.spec, d, 0.1)
