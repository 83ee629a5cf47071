"""Tests for finite-support distributions: construction, queries, transforms."""

import hashlib
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


# family: its settings, and the sha256 of values.tobytes() and probs.tobytes()
# (little-endian float64) that discretize gave while it still held the checks
# FamilySpec now makes
DISCRETIZE_DIGESTS = {
    "uniform": ({"params": (0.0, 1.0), "atoms": 11},
                "851023ee99d57788c1b802340a8a11ffe7d05197a323eb31f047f8a9e2970500",
                "d85878d63a88da6afca065078e8bac2dcef052b7463a609f2e34447443e388c7"),
    "exponential": ({"params": (1.5,), "truncation": 3.0, "atoms": 51},
                    "8f16a90c35115089ac4b9ba3bce1673e438ee3f1211b52a5a3a38cf9e84dd2e8",
                    "f0e5850d18b24c6ea24474f867c6ce84d531dd1c7aa68454addbd5bacb39aa09"),
    "lognormal": ({"params": (0.0, 0.5), "truncation": 4.0, "atoms": 101},
                  "b36c277ecc1b9c75bc995ea497d7841114dac3e3c3ddf29738182ec6cc6c025a",
                  "b8a4068412e3ad97183b012debf7b1732a77b3ba1dd668fc3296c50bfdf27bc3"),
    "empirical": ({"params": (3.0, 1.0, 2.0, 2.0, 5.5), "atoms": 7},
                  "8839a70efc6af9147f9613458cb8d12582eab5f8f57a6213cc997f91fc0fb9d2",
                  "3c7594a6a977d4be1356c48966d072422a2b1553143a37a79608234ec8a7e1a6"),
    "point-mass": ({"params": (0.3,)},
                   "785532c46fac2acf9272cc7399f550747206622e1d56fc7379f34628e071c80a",
                   "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
}


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

    def test_nan_prob_refused(self):
        # a NaN fails no `<=` comparison; the mean would read nan
        with pytest.raises(NonpositiveProb):
            make_discrete([(0.0, math.nan), (1.0, 1.0)])
        with pytest.raises(NonpositiveProb):
            DiscreteDistribution(np.array([0.0, 1.0]), np.array([math.nan, 0.5]))

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

    def test_point_mass_refuses_truncation(self):
        # one atom: a bound would be silently ignored
        with pytest.raises(ValidationError, match="^point-mass reads no truncation$"):
            FamilySpec("point-mass", (0.3,), truncation=0.1)

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

    @pytest.mark.parametrize(
        "mu, sigma, atoms", [(0.0, 0.5, 2001), (1.0, 1.5, 501), (-2.0, 2.0, 10001)]
    )
    def test_lognormal_atoms_match_the_ndtri_quantile(self, mu, sigma, atoms):
        scipy_special = pytest.importorskip("scipy.special")
        d = discretize(FamilySpec("lognormal", (mu, sigma), truncation=1e9, atoms=atoms))
        u = (np.arange(atoms) + 0.5) / atoms
        ref = np.exp(mu + sigma * scipy_special.ndtri(u))
        assert d.values.size == atoms
        assert np.max(np.abs(d.values - ref) / ref) <= 1e-14

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

    @pytest.mark.parametrize(
        "family, params, count",
        [
            ("uniform", (0.0, 1.0, 2.0), "2 parameters"),
            ("lognormal", (0.0,), "2 parameters"),
            ("exponential", (), "1 parameter,"),
            ("point-mass", (0.1, 0.2), "1 parameter,"),
        ],
    )
    def test_wrong_parameter_count_names_the_familys(self, family, params, count):
        with pytest.raises(ValidationError, match=f"{family} takes {count}"):
            FamilySpec(family, params)

    @pytest.mark.parametrize("family", sorted(DISCRETIZE_DIGESTS))
    def test_atoms_keep_their_bytes(self, family):
        settings, values, probs = DISCRETIZE_DIGESTS[family]
        d = discretize(FamilySpec(family, **settings))
        assert hashlib.sha256(d.values.tobytes()).hexdigest() == values
        assert hashlib.sha256(d.probs.tobytes()).hexdigest() == probs

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

    def test_nan_level_refused(self):
        # a NaN passes neither bound check; it used to read as the top atom
        d = uniform_grid(11)
        with pytest.raises(OutOfRange):
            quantile(d, math.nan)
        with pytest.raises(OutOfRange):
            quantile_index(d, np.array([0.5, math.nan] * 20))

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

    @pytest.mark.parametrize("m", [11, 101, 2001])
    def test_zero_at_and_above_top_atom(self, m):
        # the cumulative sum ends an ulp or more off 1 (-2.2e-16 at 11 atoms,
        # +1e-14 at 2001), which must not leak out as a tail probability
        d = uniform_grid(m)
        top = ess_sup(d)
        assert survival(d, top) == 0.0
        assert np.array_equal(survival(d, np.array([top, top + 1.0])), [0.0, 0.0])
        assert np.all(survival(d, d.values) >= 0.0)

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


def skewed_table():
    # 2441 atoms share the first of 4096 dyadic buckets, so their bracket
    # goes to np.searchsorted
    k, small = 2500, 1e-7
    probs = np.full(k, small)
    probs[2441:] = (1.0 - 2441 * small) / (k - 2441)
    return DiscreteDistribution(np.arange(k, dtype=np.float64), probs)


LOOKUP_TABLES = {
    "uniform-2001": lambda: uniform_grid(2001),
    "skewed": skewed_table,
    "point-mass": lambda: make_discrete([(0.4, 1.0)]),
    # 1e-300 leaves the cumulative sum where it is: equal consecutive entries
    "equal-cum": lambda: DiscreteDistribution(
        np.arange(6.0), np.array([0.25, 1e-300, 1e-300, 0.5, 1e-300, 0.25])
    ),
}


def lookup_keys(table, rng):
    # every table value, its neighbours, 1, the smallest subnormal, and
    # enough uniform levels that the batch outgrows the table
    keys = np.concatenate([
        table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf),
        [1.0, 5e-324], 1.0 - rng.random(table.size + 64),
    ])
    return keys[(keys > 0.0) & (keys <= 1.0)]


def guide_buckets(d, keys):
    # each key's dyadic bucket, the counts of cumulative probabilities <= each
    # bucket edge, and how many cumulative probabilities each key's bucket holds
    m = 1 << (len(d) - 1).bit_length()
    ends = np.searchsorted(d._cum, np.arange(m + 1) / m, side="right")
    b = (np.ceil(keys * m) - 1.0).astype(np.intp)
    return b, ends, np.diff(ends)[b]


def repeated_table():
    # 641 cumulative probabilities, 241 of them repeats of the one before (an
    # atom of 1e-300 leaves the sum where it is); entry 151 repeats 48 times
    # and is the only value in its bucket
    rng = np.random.default_rng(SEED + 6)
    cum = np.cumsum(rng.dirichlet(np.ones(400)))
    reps = rng.integers(1, 3, 400)
    reps[151] = 48
    probs = np.diff(np.repeat(cum, reps), prepend=0.0)
    probs[probs == 0.0] = 1e-300
    return DiscreteDistribution(np.arange(float(probs.size)), probs), rng


class TestGuideLookup:
    """quantile_index's guided lookup equals np.searchsorted."""

    @pytest.mark.parametrize("name", LOOKUP_TABLES)
    def test_quantile_index_is_searchsorted(self, name):
        d = LOOKUP_TABLES[name]()
        cum = d._cum
        keys = lookup_keys(cum, np.random.default_rng(SEED))
        assert keys.size >= len(d)  # the guide path, not the small-batch one
        want = np.minimum(np.searchsorted(cum, keys, side="left"), len(d) - 1)
        assert np.array_equal(quantile_index(d, keys), want)
        assert np.array_equal(quantile_index(d, keys.reshape(1, -1)), want.reshape(1, -1))

    @pytest.mark.parametrize("probs", ["equal", "random"])
    @pytest.mark.parametrize("k", [1, 2, 2001, 2048, 2049])
    def test_guide_is_built_once_and_exact_on_bucket_edges(self, k, probs):
        rng = np.random.default_rng(SEED + k)
        p = np.full(k, 1.0 / k) if probs == "equal" else rng.dirichlet(np.ones(k))
        d = DiscreteDistribution(np.arange(float(k)), p)
        m = 1 << (k - 1).bit_length()
        edges = np.arange(1, m + 1) / m
        keys = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            1.0 - rng.random(k),
        ])
        keys = keys[(keys > 0.0) & (keys <= 1.0)]
        want = np.minimum(np.searchsorted(d._cum, keys, side="left"), k - 1)
        assert d._guide is None
        assert np.array_equal(quantile_index(d, keys), want)
        guide = d._guide
        start, cut, wide = guide
        assert start.size == cut.size == wide.size == m
        ends = np.searchsorted(d._cum, np.arange(m + 1) / m, side="right")
        assert np.array_equal(start, ends[:-1])
        assert np.array_equal(cut, np.append(d._cum, np.inf)[start])
        assert np.array_equal(wide, np.diff(ends) > 1)
        assert np.array_equal(quantile_index(d, keys[::-1]), want[::-1])
        assert d._guide is guide

    @pytest.mark.parametrize("name", LOOKUP_TABLES)
    def test_bracketed_search_is_searchsorted(self, name):
        # a level in bucket b has its index between start[b] and start[b + 1];
        # in a bucket holding at most one cumulative probability it is start[b]
        # plus whether cut[b] lies below it
        d = LOOKUP_TABLES[name]()
        keys = lookup_keys(d._cum, np.random.default_rng(SEED + 5))
        want = np.searchsorted(d._cum, keys, side="left")
        got = quantile_index(d, keys)
        start, cut, wide = d._guide
        b, ends, _ = guide_buckets(d, keys)
        assert np.all(ends[b] <= want) and np.all(want <= ends[b + 1])
        narrow = ~wide[b]
        assert np.array_equal((start[b] + (cut[b] < keys))[narrow], want[narrow])
        assert np.array_equal(got, np.minimum(want, len(d) - 1))

    @pytest.mark.parametrize("top", [0, 1, 2, 48],
                             ids=["zero-wide", "at-most-one", "zero-to-two", "zero-to-48"])
    def test_bracketed_finish_is_searchsorted(self, top):
        # levels only in buckets holding at most `top` cumulative
        # probabilities: one comparison finishes a bucket holding at most one,
        # np.searchsorted a wider one, and one call can hold both. The table
        # repeats entries, so a level equal to one lands before its run.
        d, rng = repeated_table()
        assert (np.diff(d._cum) == 0.0).any()
        keys = np.concatenate([lookup_keys(d._cum, rng), 1.0 - rng.random(16 * len(d))])
        keys = keys[guide_buckets(d, keys)[2] <= top]
        assert keys.size >= len(d)  # the guide path, not the small-batch one
        held = guide_buckets(d, keys)[2]
        assert held.max() == top
        if top > 1:
            assert (held <= 1).any()
        want = np.minimum(np.searchsorted(d._cum, keys, side="left"), len(d) - 1)
        assert np.array_equal(quantile_index(d, keys), want)

    def test_guide_buckets_holding_several_levels(self):
        # Dirichlet(0.2) probabilities crowd many cumulative values into one
        # dyadic bucket, so the guided lookup sends the levels of some buckets
        # to np.searchsorted and finishes the rest in one comparison
        rng = np.random.default_rng(SEED + 7)
        k = 500
        d = DiscreteDistribution(np.arange(float(k)), rng.dirichlet(np.full(k, 0.2)))
        keys = lookup_keys(d._cum, rng)
        want = np.minimum(np.searchsorted(d._cum, keys, side="left"), k - 1)
        assert np.array_equal(quantile_index(d, keys), want)
        _, _, wide = d._guide
        b, _, held = guide_buckets(d, keys)
        assert held.max() > 2 and wide[b].any() and not wide[b].all()


def canonical_by_unique(values, probs):
    # _canonical as it was: a stable sort, then np.unique's inverse
    values = np.asarray(values, dtype=np.float64).ravel()
    probs = np.asarray(probs, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    uniq, inverse = np.unique(values, return_inverse=True)
    if uniq.size != values.size:
        probs = np.bincount(inverse, weights=probs, minlength=uniq.size)
        values = uniq
    return DiscreteDistribution(values, probs)


class TestCanonical:
    @pytest.mark.parametrize("case", ["random", "ties", "all-equal", "one-atom"])
    def test_bitwise_equal_to_unique_merge(self, case):
        rng = np.random.default_rng(SEED + 6)
        n = {"random": 3000, "ties": 3000, "all-equal": 500, "one-atom": 1}[case]
        values = {
            "random": lambda: rng.normal(size=n),
            "ties": lambda: rng.integers(0, 40, n) * 0.1,
            "all-equal": lambda: np.full(n, 0.7),
            "one-atom": lambda: np.array([2.5]),
        }[case]()
        probs = rng.dirichlet(np.ones(n))
        got, want = dist._canonical(values, probs), canonical_by_unique(values, probs)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_alike(self, bad):
        values, probs = np.array([0.3, bad, 0.1, bad]), np.full(4, 0.25)
        with pytest.raises(ValidationError, match="finite") as got:
            dist._canonical(values, probs)
        with pytest.raises(ValidationError) as want:
            canonical_by_unique(values, probs)
        assert str(got.value) == str(want.value)


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
