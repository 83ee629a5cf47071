"""Tests for finite-support distributions: construction, queries, transforms."""

import math

import numpy as np
import pytest

from reinsure_dp import distributions as dist
from reinsure_dp.distributions import (
    DiscreteDistribution,
    FamilySpec,
    discretize,
    ess_sup,
    independent_product,
    make_discrete,
    push_forward,
    quantile,
    quantile_index,
    survival,
)
from reinsure_dp.errors import MassNotOne, NonpositiveProb, OutOfRange, UnsupportedFamily, ValidationError

TOL_MASS = 1e-12
SEED = 20260818


def uniform_grid(m):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


class TestMakeDiscrete:
    def test_canonical_input_preserved(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        assert np.array_equal(d.values, [0.0, 1.0])
        assert np.array_equal(d.probs, [0.5, 0.5])

    def test_merge_and_sort(self):
        d = make_discrete([(1.0, 0.5), (0.0, 0.25), (0.0, 0.25)])
        assert np.array_equal(d.values, [0.0, 1.0])
        assert np.array_equal(d.probs, [0.5, 0.5])

    def test_mass_not_one(self):
        with pytest.raises(MassNotOne):
            make_discrete([(0.0, 0.3), (1.0, 0.3)])

    def test_nonpositive_prob(self):
        with pytest.raises(NonpositiveProb):
            make_discrete([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(NonpositiveProb):
            make_discrete([(0.0, -0.5), (1.0, 1.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            make_discrete([])

    def test_near_one_mass_normalized(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5 + 3e-10)])
        assert abs(float(d.probs.sum()) - 1.0) <= TOL_MASS

    @pytest.mark.parametrize("m", [101, 201, 2001])
    def test_pairs_roundtrip_bitwise(self, m):
        # a mass already within TOL_MASS of 1 is not divided by its sum
        d = uniform_grid(m)
        back = make_discrete(d.to_pairs())
        assert np.array_equal(back.values, d.values)
        assert np.array_equal(back.probs, d.probs)


class TestDiscretize:
    def test_uniform_two_atoms(self):
        d = discretize(FamilySpec("uniform", (0.0, 1.0), atoms=2))
        assert np.allclose(d.values, [0.25, 0.75], atol=0, rtol=0)
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_point_mass(self):
        d = discretize(FamilySpec("point-mass", (0.3,)))
        assert np.array_equal(d.values, [0.3])
        assert np.array_equal(d.probs, [1.0])

    def test_exponential_midpoint_quantiles(self):
        # independent route: quantile of Exp(1) is -ln(1-u)
        d = discretize(FamilySpec("exponential", (1.0,), truncation=10.0, atoms=4))
        expected = [-math.log(1.0 - (i + 0.5) / 4) for i in range(4)]
        assert np.allclose(d.values, expected, atol=1e-15)
        assert np.allclose(d.probs, 0.25)

    def test_truncation_caps_and_merges(self):
        d = discretize(FamilySpec("exponential", (1.0,), truncation=1.0, atoms=8))
        assert ess_sup(d) == 1.0
        # mass beyond the bound collapses onto the bound atom
        tail_mass = float(d.probs[d.values == 1.0].sum())
        expected_tail = sum(1.0 / 8 for i in range(8) if -math.log(1 - (i + 0.5) / 8) >= 1.0)
        assert abs(tail_mass - expected_tail) < 1e-12

    def test_unbounded_family_needs_truncation(self):
        with pytest.raises(ValidationError):
            discretize(FamilySpec("exponential", (1.0,), atoms=4))

    def test_lognormal_median(self):
        d = discretize(FamilySpec("lognormal", (0.0, 0.5), truncation=50.0, atoms=1001))
        # median of LN(0, 0.5) is 1
        assert abs(quantile(d, 0.5) - 1.0) < 2e-3

    def test_empirical(self):
        d = discretize(FamilySpec("empirical", (3.0, 1.0, 2.0, 2.0), atoms=4))
        assert np.array_equal(d.values, [1.0, 2.0, 3.0])
        assert np.allclose(d.probs, [0.25, 0.5, 0.25])

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            discretize(FamilySpec("beta", (2.0, 2.0), atoms=4))

    def test_atom_count_floor(self):
        with pytest.raises(ValidationError):
            discretize(FamilySpec("uniform", (0.0, 1.0), atoms=1))

    def test_uniform_mean_exact(self):
        for m in (2, 17, 2001):
            d = uniform_grid(m)
            assert abs(d.mean() - 0.5) < 1e-13


class TestQuantile:
    def test_at_boundary_mass(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        assert quantile(d, 0.5) == 0.0
        assert quantile(d, 0.51) == 1.0
        assert quantile(d, 1.0) == 1.0

    def test_uniform_2001(self):
        d = uniform_grid(2001)
        assert abs(quantile(d, 0.95) - 0.95) <= 5e-4

    def test_out_of_range(self):
        d = make_discrete([(0.0, 1.0)])
        for u in (0.0, -0.1, 1.0 + 1e-9):
            with pytest.raises(OutOfRange):
                quantile(d, u)

    def test_increasing_left_continuous(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            k = rng.integers(1, 12)
            vals = np.sort(rng.normal(size=k) * 3)
            probs = rng.dirichlet(np.ones(k))
            d = make_discrete(list(zip(vals, probs)))
            us = np.sort(rng.uniform(1e-9, 1.0, size=30))
            qs = [quantile(d, u) for u in us]
            assert all(q1 <= q2 for q1, q2 in zip(qs, qs[1:]))
            # at each atom boundary the quantile returns the atom itself
            cum = np.cumsum(d.probs)
            for v, F in zip(d.values, cum):
                assert quantile(d, min(F, 1.0)) == v

    def test_vectorized_matches_scalar(self):
        d = uniform_grid(51)
        us = np.linspace(0.01, 1.0, 37)
        assert np.array_equal(quantile(d, us), [quantile(d, u) for u in us])
        assert np.array_equal(quantile(d, us), d.values[quantile_index(d, us)])


class TestSurvival:
    def test_point_values(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        assert survival(d, 0.0) == 0.5
        assert survival(d, -1.0) == 1.0
        assert survival(d, 1.0) == 0.0
        assert survival(d, 0.5) == 0.5

    def test_consistency_with_quantile(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            k = rng.integers(1, 10)
            vals = np.sort(rng.uniform(-2, 2, size=k))
            probs = rng.dirichlet(np.ones(k))
            d = make_discrete(list(zip(vals, probs)))
            for u in rng.uniform(0.01, 1.0, size=20):
                q = quantile(d, u)
                assert survival(d, q - 1e-9) >= 1.0 - u - 1e-12


class TestPushForward:
    def test_capping(self):
        d = make_discrete([(0.0, 0.5), (2.0, 0.5)])
        out = push_forward(d, lambda v: np.minimum(v, 1.0))
        assert np.array_equal(out.values, [0.0, 1.0])

    def test_constant_map_collapses(self):
        d = make_discrete([(0.0, 0.5), (2.0, 0.5)])
        out = push_forward(d, lambda v: np.full_like(v, 3.0))
        assert np.array_equal(out.values, [3.0])
        assert np.array_equal(out.probs, [1.0])

    def test_negation_resorts(self):
        d = make_discrete([(1.0, 0.3), (2.0, 0.7)])
        out = push_forward(d, lambda v: -v)
        assert np.array_equal(out.values, [-2.0, -1.0])
        assert np.array_equal(out.probs, [0.7, 0.3])

    def test_increasing_map_commutes_with_quantile(self):
        rng = np.random.default_rng(SEED + 2)
        d = uniform_grid(101)
        phi = lambda v: v**3 + 2.0 * v
        out = push_forward(d, phi)
        for u in rng.uniform(0.01, 1.0, size=40):
            assert quantile(out, u) == pytest.approx(phi(quantile(d, u)), abs=1e-14)


class TestIndependentProduct:
    def test_degenerate_z(self):
        dY = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        dZ = make_discrete([(0.3, 1.0)])
        out = independent_product(dY, dZ, lambda y, z: y - z)
        assert np.allclose(out.values, [-0.3, 0.7], atol=0)
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_convolution(self):
        dY = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        out = independent_product(dY, dY, lambda y, z: y + z)
        assert np.array_equal(out.values, [0.0, 1.0, 2.0])
        assert np.allclose(out.probs, [0.25, 0.5, 0.25])

    def test_cardinality_bound_and_mass(self):
        rng = np.random.default_rng(SEED + 3)
        dY = make_discrete(list(zip(np.sort(rng.uniform(0, 5, 100)), np.full(100, 0.01))))
        dZ = make_discrete(list(zip(np.sort(rng.uniform(0, 5, 10)), np.full(10, 0.1))))
        out = independent_product(dY, dZ, lambda y, z: y * z)
        assert len(out.values) <= 1000
        assert abs(float(out.probs.sum()) - 1.0) <= TOL_MASS


class TestEssSup:
    def test_point_mass(self):
        assert ess_sup(make_discrete([(0.3, 1.0)])) == 0.3

    def test_two_atoms(self):
        assert ess_sup(make_discrete([(0.0, 0.5), (1.0, 0.5)])) == 1.0

    def test_uniform_2001(self):
        # last midpoint quantile is (m - 0.5)/m
        assert ess_sup(uniform_grid(2001)) == pytest.approx(2000.5 / 2001, abs=1e-15)


class TestSerialization:
    def test_round_trip(self):
        d = make_discrete([(0.0, 0.25), (0.5, 0.5), (2.0, 0.25)])
        pairs = d.to_pairs()
        assert pairs == [[0.0, 0.25], [0.5, 0.5], [2.0, 0.25]]
        d2 = make_discrete(pairs)
        assert np.array_equal(d.values, d2.values)
        assert np.array_equal(d.probs, d2.probs)


class TestInvariants:
    def test_strictly_increasing_values(self):
        d = make_discrete([(1.0, 0.2), (1.0, 0.2), (0.0, 0.6)])
        assert np.all(np.diff(d.values) > 0)

    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(MassNotOne):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
