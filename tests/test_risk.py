"""Tests for risk-measure evaluation and the monetary/coherence axioms."""

import math

import numpy as np
import pytest

from reinsure_dp.distributions import (
    FamilySpec,
    discretize,
    independent_product,
    make_discrete,
    push_forward,
    quantile,
)
from reinsure_dp.errors import InvalidDistortion, InvalidSpectrum, OutOfRange, ValidationError
from reinsure_dp.risk import (
    RiskSpec,
    Spectrum,
    _cell_bounds,
    _logsumexp,
    atom_weights,
    distortion_preset,
    distortion_rm,
    entropic,
    es,
    es_spectrum,
    evaluate,
    is_coherent,
    spectral_rm,
    tabulated_distortion,
    var,
)

TOL_EXACT = 1e-9
SEED = 31415


# a full-support spectrum and one that jumps, each with its antiderivative
SPECTRA = {
    "linear": Spectrum(lambda u: 2.0 * np.asarray(u), lambda u: np.asarray(u) ** 2),
    "es-0.9": es_spectrum(0.9),
}


def uniform_grid(m=2001):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


def random_dist(rng, k_max=40, spread=4.0):
    k = int(rng.integers(1, k_max))
    vals = np.sort(rng.normal(scale=spread, size=k))
    vals = np.unique(vals)
    probs = rng.dirichlet(np.ones(len(vals)))
    return make_discrete(list(zip(vals, probs)))


def comonotone_pair(rng, k=64):
    """Two risks driven by the same uniform grid (atom-by-atom pairing)."""
    dX = random_dist(rng)
    dY = random_dist(rng)
    u = (np.arange(k) + 0.5) / k
    xs = quantile(dX, u)
    ys = quantile(dY, u)
    return xs, ys, np.full(k, 1.0 / k)


def dist_of(values, probs):
    return make_discrete(list(zip(np.asarray(values, float), probs)))


def es_reference(d, alpha):
    """Independent route: conditional-tail form of the quantile integral."""
    cum = np.concatenate([[0.0], np.cumsum(d.probs)])
    total = 0.0
    for v, lo, hi in zip(d.values, cum[:-1], cum[1:]):
        width = min(hi, 1.0) - max(lo, alpha)
        if width > 0:
            total += v * width
    return total / (1.0 - alpha)


class TestVar:
    def test_uniform(self):
        assert abs(var(uniform_grid(), 0.95) - 0.95) <= 5e-4

    def test_constant(self):
        d = make_discrete([(2.5, 1.0)])
        for a in (0.01, 0.5, 0.99):
            assert var(d, a) == 2.5

    def test_tail_atom(self):
        d = make_discrete([(0.0, 0.9), (10.0, 0.1)])
        assert var(d, 0.95) == 10.0

    def test_range(self):
        d = make_discrete([(0.0, 1.0)])
        for a in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(OutOfRange):
                var(d, a)


class TestEs:
    def test_constant(self):
        d = make_discrete([(1.5, 1.0)])
        for a in (0.0, 0.4, 0.95):
            assert es(d, a) == pytest.approx(1.5, abs=1e-15)

    def test_alpha_zero_is_mean(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            d = random_dist(rng)
            assert es(d, 0.0) == pytest.approx(d.mean(), abs=1e-10)

    def test_uniform(self):
        assert abs(es(uniform_grid(), 0.9) - 0.95) <= 1e-3

    def test_against_reference(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(30):
            d = random_dist(rng)
            a = float(rng.uniform(0.0, 0.99))
            assert es(d, a) == pytest.approx(es_reference(d, a), abs=1e-11)

    def test_range(self):
        d = make_discrete([(0.0, 1.0)])
        with pytest.raises(OutOfRange):
            es(d, 1.0)
        with pytest.raises(OutOfRange):
            es(d, -0.1)

    def test_dominates_var(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(20):
            d = random_dist(rng)
            a = float(rng.uniform(0.05, 0.95))
            assert es(d, a) >= var(d, a) - 1e-12


class TestDistortion:
    def test_identity_gives_mean(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(20):
            d = random_dist(rng)
            assert distortion_rm(d, distortion_preset("identity")) == pytest.approx(
                d.mean(), abs=1e-10
            )

    def test_var_as_distortion(self):
        rng = np.random.default_rng(SEED + 4)
        g = distortion_preset("var:0.95")
        for _ in range(40):
            d = random_dist(rng)
            assert distortion_rm(d, g) == pytest.approx(var(d, 0.95), abs=TOL_EXACT)

    def test_es_as_distortion(self):
        d = uniform_grid()
        g = distortion_preset("es:0.9")
        assert distortion_rm(d, g) == pytest.approx(es(d, 0.9), abs=TOL_EXACT)

    def test_ph_preset(self):
        # power distortion u^0.5 on a two-atom risk, by hand:
        # dual increments give 0*(1-sqrt(0.5)) + 1*sqrt(0.5)
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        g = distortion_preset("ph:0.5")
        assert distortion_rm(d, g) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_tabulated(self):
        pairs = [(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)]
        g = tabulated_distortion(pairs)
        assert g(0.25) == pytest.approx(0.35)
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        # dual: 1 - g(1-u); increment at the top cell is 1 - (1 - g(0.5))
        assert distortion_rm(d, g) == pytest.approx(0.7, abs=1e-12)

    def test_invalid_handles(self):
        d = make_discrete([(0.0, 1.0)])
        with pytest.raises(InvalidDistortion):
            distortion_rm(d, lambda u: u + 0.1)  # g(0) != 0
        with pytest.raises(InvalidDistortion):
            distortion_rm(d, lambda u: 1.0 - u)  # decreasing

    @pytest.mark.parametrize("name", ["ph:abc", "es:", "var:x", "ph", "es:0.5:0.6"])
    def test_malformed_preset_level_is_unknown(self, name):
        with pytest.raises(ValidationError, match="unknown distortion preset"):
            distortion_preset(name)


class TestSpectral:
    def test_flat_spectrum_gives_mean(self):
        rng = np.random.default_rng(SEED + 5)
        s = Spectrum(lambda u: np.ones_like(u), antiderivative=lambda u: u)
        for _ in range(10):
            d = random_dist(rng)
            assert spectral_rm(d, s) == pytest.approx(d.mean(), abs=1e-10)

    def test_es_spectrum(self):
        d = uniform_grid()
        for a in (0.5, 0.9, 0.95):
            assert spectral_rm(d, es_spectrum(a)) == pytest.approx(es(d, a), abs=TOL_EXACT)

    def test_linear_spectrum_hand_integral(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        s = Spectrum(lambda u: 2.0 * u, antiderivative=lambda u: u**2)
        assert spectral_rm(d, s) == pytest.approx(0.75, abs=1e-12)

    def test_antiderivative_is_required(self):
        with pytest.raises(TypeError):
            Spectrum(lambda u: 2.0 * u)
        d = make_discrete([(0.0, 1.0)])
        for antiderivative in (None, 2.0):
            s = Spectrum(lambda u: 2.0 * u, antiderivative)
            with pytest.raises(InvalidSpectrum, match="antiderivative"):
                RiskSpec("spectral", spectrum=s)
            with pytest.raises(InvalidSpectrum, match="antiderivative"):
                spectral_rm(d, s)

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_spectral_is_the_distortion_of_its_antiderivative(self, name):
        # g(u) = 1 - Phi(1 - u) (Dhaene et al., Stochastic Models 22(4), 2006)
        phi = SPECTRA[name].antiderivative
        spectral = RiskSpec("spectral", spectrum=SPECTRA[name])
        distortion = RiskSpec("distortion", distortion=lambda u: 1.0 - phi(1.0 - np.asarray(u)))
        rng = np.random.default_rng(SEED + 10)
        for _ in range(40):
            d = random_dist(rng)
            assert evaluate(spectral, d) == pytest.approx(evaluate(distortion, d), abs=1e-12)

    def test_weights_are_the_cell_increments_bitwise(self):
        # the exact cell formulas: increments of the dual distortion 1 - g(1 - F)
        # and of the antiderivative Phi(F) across the cumulative cells F
        rng = np.random.default_rng(SEED + 11)
        g = distortion_preset("ph:0.5")
        for _ in range(20):
            d = random_dist(rng)
            F = _cell_bounds(d.probs)
            assert distortion_rm(d, g) == float(np.dot(np.diff(1.0 - g(1.0 - F)), d.values))
            for s in SPECTRA.values():
                w = np.diff(s.antiderivative(F))
                assert np.array_equal(atom_weights(RiskSpec("spectral", spectrum=s), d.probs), w)
                assert spectral_rm(d, s) == float(np.dot(w, d.values))

    def test_invalid_spectra(self):
        d = make_discrete([(0.0, 1.0)])
        with pytest.raises(InvalidSpectrum):
            spectral_rm(d, Spectrum(lambda u: 2.0 - 2.0 * u, antiderivative=lambda u: 2 * u - u**2))
        with pytest.raises(InvalidSpectrum):
            spectral_rm(d, Spectrum(lambda u: 3.0 * u, antiderivative=lambda u: 1.5 * u**2))


class TestEntropic:
    def test_constant(self):
        d = make_discrete([(0.7, 1.0)])
        assert entropic(d, 2.0) == pytest.approx(0.7, abs=1e-12)

    def test_bernoulli_hand_value(self):
        d = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        assert entropic(d, 1.0) == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)

    def test_jensen(self):
        rng = np.random.default_rng(SEED + 7)
        for _ in range(20):
            d = random_dist(rng)
            g = float(rng.uniform(0.1, 3.0))
            assert entropic(d, g) >= d.mean() - 1e-10

    def test_gamma_positive(self):
        d = make_discrete([(0.0, 1.0)])
        with pytest.raises(OutOfRange):
            entropic(d, 0.0)

    def test_overflow_safe(self):
        d = make_discrete([(0.0, 0.5), (500.0, 0.5)])
        v = entropic(d, 10.0)
        assert np.isfinite(v)
        assert v == pytest.approx(500.0 + math.log(0.5) / 10.0, abs=1e-6)

    @pytest.mark.parametrize("rows", [None, 7], ids=["1-D", "2-D-shared-weights"])
    @pytest.mark.parametrize("scale", [1.0, 60.0, 700.0])
    @pytest.mark.parametrize("ties", [False, True])
    def test_logsumexp_is_scipys_bit_for_bit(self, rows, scale, ties):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(SEED + 9)
        for trial in range(50):
            k = int(rng.integers(1, 40))
            a = rng.uniform(-scale, scale, k if rows is None else (rows, k))
            if ties:
                # a few distinct values, so the maximum repeats
                a = np.round(a / scale * 2.0) * scale / 2.0
            b = np.full(k, 1.0 / k) if trial % 2 else rng.uniform(0.01, 1.0, k)
            got = np.asarray(_logsumexp(a, b))
            want = np.asarray(scipy_special.logsumexp(a, b=b, axis=-1))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_logsumexp_of_overflowed_entries_is_scipys(self):
        scipy_special = pytest.importorskip("scipy.special")
        a = np.array([[-np.inf, -np.inf], [-np.inf, 0.5], [np.inf, 0.5], [np.inf, np.inf]])
        b = np.array([0.25, 0.75])
        with np.errstate(invalid="ignore"):
            got = _logsumexp(a, b)
        want = scipy_special.logsumexp(a, b=b, axis=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestEvaluateDispatch:
    def test_kinds(self):
        # each kind against a route that shares no code with evaluate
        rng = np.random.default_rng(SEED + 8)
        d = random_dist(rng)
        assert evaluate(RiskSpec("expectation"), d) == pytest.approx(d.mean(), abs=1e-12)
        assert evaluate(RiskSpec("value-at-risk", alpha=0.95), d) == var(d, 0.95)
        assert evaluate(RiskSpec("expected-shortfall", alpha=0.9), d) == es(d, 0.9)
        # PH(0.5) by the sum over ascending atoms of v_(i) (g(S_{i-1}) - g(S_i)),
        # S_i = P(X > v_(i)); the survival after the top atom is exactly 0
        surv = np.append(np.cumsum(d.probs[::-1])[::-1], 0.0)
        ph = sum(v * (math.sqrt(surv[i]) - math.sqrt(surv[i + 1])) for i, v in enumerate(d.values))
        g = distortion_preset("ph:0.5")
        assert evaluate(RiskSpec("distortion", distortion=g), d) == pytest.approx(ph, abs=1e-12)
        es_by_spectrum = evaluate(RiskSpec("spectral", spectrum=es_spectrum(0.9)), d)
        assert es_by_spectrum == pytest.approx(es(d, 0.9), abs=1e-12)
        gamma = 1.5
        want = math.log(sum(p * math.exp(gamma * v) for v, p in zip(d.values, d.probs))) / gamma
        assert evaluate(RiskSpec("entropic", gamma=gamma), d) == pytest.approx(want, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            RiskSpec("value-at-risk", alpha=1.0)
        with pytest.raises(ValidationError):
            RiskSpec("expected-shortfall", alpha=1.0)
        with pytest.raises(ValidationError):
            RiskSpec("entropic", gamma=-1.0)
        with pytest.raises(ValidationError):
            RiskSpec("distortion")
        with pytest.raises(ValidationError):
            RiskSpec("no-such-kind")
        # ES at alpha=0 is legal (expectation)
        RiskSpec("expected-shortfall", alpha=0.0)

    def test_coherence_flags(self):
        assert is_coherent(RiskSpec("expected-shortfall", alpha=0.9))
        assert is_coherent(RiskSpec("expectation"))
        assert is_coherent(RiskSpec("distortion", distortion=distortion_preset("ph:0.5")))
        assert is_coherent(RiskSpec("spectral", spectrum=es_spectrum(0.9)))
        assert not is_coherent(RiskSpec("value-at-risk", alpha=0.9))
        assert not is_coherent(RiskSpec("entropic", gamma=1.0))
        # convex (var-type) distortion is not concave, hence not coherent
        assert not is_coherent(RiskSpec("distortion", distortion=distortion_preset("var:0.9")))


def all_specs():
    return [
        RiskSpec("expectation"),
        RiskSpec("value-at-risk", alpha=0.95),
        RiskSpec("expected-shortfall", alpha=0.9),
        RiskSpec("distortion", distortion=distortion_preset("ph:0.5")),
        RiskSpec("spectral", spectrum=es_spectrum(0.85)),
        RiskSpec("entropic", gamma=1.0),
    ]


class TestAxioms:
    def test_translation_invariance(self):
        rng = np.random.default_rng(SEED + 9)
        for _ in range(25):
            d = random_dist(rng)
            for spec in all_specs():
                base = evaluate(spec, d)
                for m in (-2.0, -0.5, 0.0, 1.0, 3.0):
                    shifted = push_forward(d, lambda v, m=m: v + m)
                    assert evaluate(spec, shifted) == pytest.approx(base + m, abs=TOL_EXACT)

    def test_monotonicity(self):
        rng = np.random.default_rng(SEED + 10)
        for _ in range(25):
            d1 = random_dist(rng)
            bump = rng.uniform(0.0, 1.0)
            d2 = push_forward(d1, lambda v: v + bump * np.abs(np.sin(v)))
            for spec in all_specs():
                assert evaluate(spec, d2) >= evaluate(spec, d1) - TOL_EXACT

    def test_normalization(self):
        zero = make_discrete([(0.0, 1.0)])
        for spec in all_specs():
            assert evaluate(spec, zero) == 0.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(SEED + 11)
        homog = [s for s in all_specs() if s.kind != "entropic"]
        for _ in range(25):
            d = random_dist(rng)
            for spec in homog:
                base = evaluate(spec, d)
                for lam in (0.0, 0.5, 2.0, 10.0):
                    scaled = push_forward(d, lambda v, lam=lam: lam * v)
                    assert evaluate(spec, scaled) == pytest.approx(lam * base, abs=TOL_EXACT * max(1, lam))

    def test_subadditivity_independent_pairs(self):
        rng = np.random.default_rng(SEED + 12)
        coherent = [
            RiskSpec("expected-shortfall", alpha=0.9),
            RiskSpec("distortion", distortion=distortion_preset("ph:0.5")),
        ]
        for _ in range(50):
            dX = random_dist(rng, k_max=20)
            dY = random_dist(rng, k_max=20)
            dXY = independent_product(dX, dY, lambda y, z: y + z)
            for spec in coherent:
                assert evaluate(spec, dXY) <= evaluate(spec, dX) + evaluate(spec, dY) + TOL_EXACT

    def test_triangular_inequality_comonotone(self):
        rng = np.random.default_rng(SEED + 13)
        spec = RiskSpec("expected-shortfall", alpha=0.9)
        for _ in range(50):
            xs, ys, probs = comonotone_pair(rng)
            dX = dist_of(xs, probs)
            dY = dist_of(ys, probs)
            dAbs = dist_of(np.abs(xs - ys), probs)
            lhs = abs(evaluate(spec, dX) - evaluate(spec, dY))
            assert lhs <= evaluate(spec, dAbs) + TOL_EXACT

    def test_complement_inequality_comonotone(self):
        rng = np.random.default_rng(SEED + 14)
        spec = RiskSpec("expected-shortfall", alpha=0.9)
        for _ in range(50):
            xs, ys, probs = comonotone_pair(rng)
            dSum = dist_of(xs + ys, probs)
            dX = dist_of(xs, probs)
            dNegY = dist_of(-ys, probs)
            assert evaluate(spec, dSum) >= evaluate(spec, dX) - evaluate(spec, dNegY) - TOL_EXACT

    def test_entropic_convexity(self):
        rng = np.random.default_rng(SEED + 15)
        for _ in range(30):
            xs, ys, probs = comonotone_pair(rng)
            for lam in (0.25, 0.5, 0.75):
                mix = dist_of(lam * xs + (1 - lam) * ys, probs)
                lhs = entropic(mix, 1.0)
                rhs = lam * entropic(dist_of(xs, probs), 1.0) + (1 - lam) * entropic(
                    dist_of(ys, probs), 1.0
                )
                assert lhs <= rhs + TOL_EXACT


class TestAtomWeights:
    def test_weights_reproduce_evaluate(self):
        rng = np.random.default_rng(SEED + 16)
        for _ in range(30):
            d = random_dist(rng)
            for spec in all_specs():
                w = atom_weights(spec, d.probs)
                if spec.kind == "entropic":
                    assert w is None
                else:
                    assert float(np.dot(w, d.values)) == pytest.approx(
                        evaluate(spec, d), abs=1e-11
                    )

    def test_weights_are_a_probability_vector(self):
        rng = np.random.default_rng(SEED + 17)
        for _ in range(30):
            d = random_dist(rng)
            for spec in all_specs():
                if spec.kind == "entropic":
                    continue
                w = atom_weights(spec, d.probs)
                assert np.all(w >= -1e-15)
                assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)
