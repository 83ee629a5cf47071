"""Premium principle tests: hand oracles, analytic integrals, dual-route checks."""

import math

import numpy as np
import pytest

from reinsure_dp.distributions import DiscreteDistribution, discretize, make_discrete, FamilySpec
from reinsure_dp.errors import NegativeSupport, OutOfRange, ValidationError
from reinsure_dp.premiums import (
    PremiumSpec,
    expected_premium,
    layer_premium_closed_form,
    premium,
    treaty_premium,
    wang_premium,
)
from reinsure_dp.risk import distortion_preset, distortion_rm
from reinsure_dp.treaties import make_treaty

SEED = 27182


def uniform01(m=2001):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


def random_nonneg(rng, k=12):
    values = np.sort(rng.uniform(0.0, 5.0, size=k))
    probs = rng.dirichlet(np.ones(k))
    return DiscreteDistribution(values, probs)


identity_g = distortion_preset("identity")


class TestExpectedPremium:
    def test_point_mass(self):
        assert expected_premium(make_discrete([(1.0, 1.0)]), 0.1) == pytest.approx(1.1, abs=1e-15)

    def test_normalization(self):
        d0 = make_discrete([(0.0, 1.0)])
        for theta in (0.0, 0.2, 3.0):
            assert expected_premium(d0, theta) == 0.0

    def test_uniform(self):
        assert expected_premium(uniform01(), 0.2) == pytest.approx(0.6, abs=1e-4)

    def test_matches_wang_identity(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            d = random_nonneg(rng)
            theta = rng.uniform(0.0, 0.5)
            assert expected_premium(d, theta) == pytest.approx(
                wang_premium(d, identity_g, theta), abs=1e-12
            )

    def test_negative_support_rejected(self):
        d = make_discrete([(-0.5, 0.5), (1.0, 0.5)])
        with pytest.raises(NegativeSupport):
            expected_premium(d, 0.1)


class TestWangPremium:
    def test_constant(self):
        assert wang_premium(make_discrete([(2.5, 1.0)]), identity_g, 0.0) == pytest.approx(
            2.5, abs=1e-15
        )

    def test_two_point_identity(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        assert wang_premium(d, identity_g, 0.2) == pytest.approx(0.6, abs=1e-15)

    def test_ph_uniform_analytic(self):
        # integral of (1-x)^0.5 over [0,1] is 2/3
        got = wang_premium(uniform01(), distortion_preset("ph:0.5"), 0.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_bernoulli_hand_value(self):
        d = make_discrete([(0.0, 0.75), (2.0, 0.25)])
        got = wang_premium(d, distortion_preset("ph:0.5"), 0.1)
        assert got == pytest.approx(1.1 * 2.0 * 0.5, abs=1e-12)

    def test_agrees_with_distortion_dual_route(self):
        # survival-gap sum vs dual-distortion quantile weights
        rng = np.random.default_rng(SEED + 1)
        g = distortion_preset("ph:0.7")
        for _ in range(25):
            d = random_nonneg(rng)
            theta = rng.uniform(0.0, 0.4)
            assert wang_premium(d, g, theta) == pytest.approx(
                (1.0 + theta) * distortion_rm(d, g), abs=1e-10
            )

    def test_shift_adds_through(self):
        rng = np.random.default_rng(SEED + 2)
        d = random_nonneg(rng)
        shifted = DiscreteDistribution(d.values + 0.7, d.probs)
        g = distortion_preset("ph:0.6")
        assert wang_premium(shifted, g, 0.0) == pytest.approx(
            wang_premium(d, g, 0.0) + 0.7, abs=1e-10
        )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(SEED + 3)
        d = random_nonneg(rng)
        g = distortion_preset("ph:0.6")
        base = wang_premium(d, g, 0.15)
        for lam in (0.5, 2.0, 7.5):
            scaled = DiscreteDistribution(d.values * lam, d.probs)
            assert wang_premium(scaled, g, 0.15) == pytest.approx(lam * base, rel=1e-12)

    def test_negative_support_rejected(self):
        d = make_discrete([(-1.0, 0.3), (2.0, 0.7)])
        with pytest.raises(NegativeSupport):
            wang_premium(d, identity_g, 0.0)


class TestTreatyPremium:
    spec = PremiumSpec("expected", theta=0.2)

    def test_identity_is_free(self):
        assert treaty_premium(self.spec, uniform01(101), make_treaty("identity", {})) == 0.0

    def test_full_cession_prices_whole_claim(self):
        d = uniform01(101)
        got = treaty_premium(self.spec, d, make_treaty("full-cession", {}))
        assert got == pytest.approx(expected_premium(d, 0.2), abs=1e-14)

    def test_stop_loss_uniform_closed_form(self):
        d = uniform01()
        for a in (0.0, 0.25, 0.5, 0.9):
            got = treaty_premium(self.spec, d, make_treaty("stop-loss", {"a": a}))
            assert got == pytest.approx(1.2 * (1.0 - a) ** 2 / 2.0, abs=1e-3)

    def test_ceding_more_costs_more(self):
        rng = np.random.default_rng(SEED + 4)
        d = random_nonneg(rng)
        spec = PremiumSpec("ph", theta=0.1, gamma=0.8)
        prev = np.inf
        for a in np.linspace(0.0, float(d.values[-1]), 9):
            p = treaty_premium(spec, d, make_treaty("stop-loss", {"a": float(a)}))
            assert p <= prev + 1e-12
            prev = p

    def test_bounded_by_full_cession(self):
        rng = np.random.default_rng(SEED + 5)
        d = random_nonneg(rng)
        spec = PremiumSpec("ph", theta=0.3, gamma=0.5)
        cap = premium(spec, d)
        for c in (0.0, 0.3, 0.8, 1.0):
            p = treaty_premium(spec, d, make_treaty("proportional", {"c": float(c)}))
            assert p <= cap + 1e-12


class TestLayerClosedForm:
    def test_empty_layer(self):
        d = uniform01(501)
        v = 0.95
        assert layer_premium_closed_form(d, identity_g, 0.2, v, v) == 0.0

    def test_full_range_is_mean(self):
        d = uniform01(501)
        top = float(d.values[-1])
        got = layer_premium_closed_form(d, identity_g, 0.0, 0.0, top)
        assert got == pytest.approx(d.mean(), abs=1e-12)

    def test_uniform_analytic(self):
        got = layer_premium_closed_form(uniform01(), identity_g, 0.2, 0.2, 0.95)
        assert got == pytest.approx(0.3825, abs=1e-3)

    def test_agrees_with_engine(self):
        # closed form vs treaty_premium of the matching layer treaty
        rng = np.random.default_rng(SEED + 6)
        d = uniform01(301)
        g = distortion_preset("ph:0.7")
        spec = PremiumSpec("wang", theta=0.25, distortion=g)
        top = float(d.values[-1])
        for _ in range(50):
            a, v = np.sort(rng.uniform(0.0, top, size=2))
            direct = layer_premium_closed_form(d, g, 0.25, float(a), float(v))
            f = make_treaty("layer", {"a": float(a), "w": float(v - a)})
            assert direct == pytest.approx(treaty_premium(spec, d, f), abs=1e-9)

    def test_scalar_only_distortion(self):
        # math.sqrt rejects arrays, so the survival steps go point by point
        d = uniform01(301)
        got = layer_premium_closed_form(d, lambda u: math.sqrt(u), 0.1, 0.2, 0.9)
        assert got == layer_premium_closed_form(d, np.sqrt, 0.1, 0.2, 0.9)

    def test_rejects_bad_interval(self):
        d = uniform01(101)
        with pytest.raises(OutOfRange):
            layer_premium_closed_form(d, identity_g, 0.1, 0.5, 0.2)
        with pytest.raises(OutOfRange):
            layer_premium_closed_form(d, identity_g, 0.1, -0.1, 0.5)


class TestPremiumSpec:
    def test_dispatch_expected(self):
        d = uniform01(101)
        assert premium(PremiumSpec("expected", theta=0.2), d) == expected_premium(d, 0.2)

    def test_dispatch_ph(self):
        d = uniform01(101)
        spec = PremiumSpec("ph", theta=0.1, gamma=0.5)
        assert premium(spec, d) == pytest.approx(
            wang_premium(d, distortion_preset("ph:0.5"), 0.1), abs=1e-14
        )

    def test_dispatch_wang(self):
        d = uniform01(101)
        g = distortion_preset("es:0.8")
        spec = PremiumSpec("wang", theta=0.0, distortion=g)
        assert premium(spec, d) == pytest.approx(wang_premium(d, g, 0.0), abs=1e-14)

    def test_scalar_only_wang_distortion(self):
        d = uniform01(301)
        scalar = PremiumSpec("wang", theta=0.1, distortion=lambda u: math.sqrt(u))
        assert premium(scalar, d) == premium(PremiumSpec("wang", theta=0.1, distortion=np.sqrt), d)

    def test_normalized_on_zero(self):
        d0 = make_discrete([(0.0, 1.0)])
        specs = [
            PremiumSpec("expected", theta=0.5),
            PremiumSpec("ph", theta=0.2, gamma=0.7),
            PremiumSpec("wang", theta=0.1, distortion=identity_g),
        ]
        for spec in specs:
            assert premium(spec, d0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            PremiumSpec("expected", theta=-0.1)
        with pytest.raises(ValidationError):
            PremiumSpec("ph", theta=0.1, gamma=0.0)
        with pytest.raises(ValidationError):
            PremiumSpec("ph", theta=0.1, gamma=1.5)
        with pytest.raises(ValidationError):
            PremiumSpec("wang", theta=0.1)
        with pytest.raises(ValidationError):
            PremiumSpec("exponential", theta=0.1)
