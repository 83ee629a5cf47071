"""Backward induction and fixed-point iteration on gridded value functions.

The one-treaty evaluator (apply_L) is the reference route: it builds the
one-period cost distribution explicitly and hands it to the risk measure.
The batched candidate evaluator used inside bellman_step must agree with it
to near machine precision, for every risk kind and both with and without
premium income randomness. Structural checks (affine value functions,
myopia under value-at-risk, contraction rate, envelope membership) pin the
solver against independently computed closed forms.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import weight_price
from reinsure_dp import dp, treaties
from reinsure_dp.cli import _doc
from reinsure_dp.distributions import (
    FamilySpec,
    discretize,
    ess_sup,
    make_discrete,
)
from reinsure_dp.dp import (
    GridSpec,
    ModelConfig,
    SearchSpec,
    StageData,
    PolicyTable,
    ValueFunction,
    _candidate_objectives,
    _policy_values,
    apply_L,
    bellman_step,
    bounding_functions,
    evaluate_policy,
    solve_finite,
    solve_infinite,
    weighted_norm,
)
from reinsure_dp.errors import (
    GridMismatch,
    InfeasiblePolicyRow,
    InvalidTreaty,
    MaxIterations,
    MonotonicityViolation,
    NumericError,
    UnsupportedFamily,
    ValidationError,
)
from reinsure_dp.premiums import PremiumSpec, premium, treaty_premium
from reinsure_dp.risk import (
    RiskSpec,
    Spectrum,
    atom_weights,
    distortion_preset,
    es,
    es_spectrum,
    evaluate,
    var,
)
from reinsure_dp.treaties import (
    FAMILIES,
    Treaty,
    _knot_segments,
    make_treaty,
    premium_breakpoints,
)

SEED = 31415
# families a SearchSpec can search over
SEARCHABLE = sorted(name for name, fam in FAMILIES.items() if fam.search is not None)


def uniform01(m=201):
    return discretize(FamilySpec("uniform", (0.0, 1.0), atoms=m))


def point(z):
    return discretize(FamilySpec("point-mass", (z,)))


def es_stage(m=201, beta=0.9, alpha=0.95, theta=0.2, z=0.3, constrained=True):
    return StageData(
        dY=uniform01(m),
        dZ=point(z),
        risk=RiskSpec("expected-shortfall", alpha=alpha),
        premium=PremiumSpec("expected", theta=theta),
        beta=beta,
        budget_constrained=constrained,
    )


def zero_vf(grid):
    return ValueFunction(grid, np.zeros_like(grid))


def random_inside(rng, grid, b_low, b_high, slopes=(0.0, 0.0)):
    # decreasing piecewise-linear values between the envelopes: a fixed
    # mixing weight keeps monotonicity, the cumsum adds shape, the final
    # clip (against two decreasing bounds) cannot break it
    lo = b_low(grid)
    hi = b_high(grid)
    u = rng.uniform(0.15, 0.85)
    v = lo + u * (hi - lo) - np.cumsum(rng.uniform(0.0, 0.03, grid.size))
    v = np.minimum(np.maximum(v, lo), hi)
    return ValueFunction(grid, v, slope_left=slopes[0], slope_right=slopes[1])


class TestValueFunction:
    def test_interpolation_and_extrapolation(self):
        grid = np.array([0.0, 1.0, 2.0])
        v = ValueFunction(grid, np.array([4.0, 2.0, 1.0]), slope_left=-3.0, slope_right=-0.5)
        assert v(0.5) == pytest.approx(3.0)
        assert v(1.5) == pytest.approx(1.5)
        assert v(-1.0) == pytest.approx(4.0 + 3.0)
        assert v(4.0) == pytest.approx(1.0 - 1.0)

    def test_vectorized_call(self):
        grid = np.linspace(0.0, 1.0, 5)
        v = ValueFunction(grid, -grid)
        x = np.array([-0.5, 0.25, 2.0])
        out = v(x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(-0.25)

    def test_increasing_values_rejected(self):
        grid = np.array([0.0, 1.0])
        with pytest.raises(MonotonicityViolation):
            ValueFunction(grid, np.array([0.0, 1.0]))

    def test_tiny_noise_tolerated(self):
        grid = np.array([0.0, 1.0])
        ValueFunction(grid, np.array([0.0, 5e-7]))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValidationError):
            ValueFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))


class TestConfigValidation:
    def test_grid_too_coarse(self):
        with pytest.raises(ValidationError):
            GridSpec(-1.0, 1.0, 8)

    def test_horizon_zero(self):
        with pytest.raises(ValidationError):
            ModelConfig(0, (es_stage(),), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))

    def test_stage_count_mismatch(self):
        with pytest.raises(ValidationError):
            ModelConfig(3, (es_stage(), es_stage()), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))

    def test_infinite_needs_strict_discount(self):
        with pytest.raises(ValidationError):
            ModelConfig(None, (es_stage(beta=1.0),), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))

    def test_infinite_needs_single_stage(self):
        with pytest.raises(ValidationError):
            ModelConfig(None, (es_stage(), es_stage()), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))

    @pytest.mark.parametrize("family", SEARCHABLE)
    def test_search_refuses_settings_its_family_does_not_read(self, family):
        unread = {"layer_upper": 0.5, "knots": (0.1,), "sweeps": 7}
        read = {"resolution": 16, "layer_upper": 0.5, "knots": (0.1, 0.5), "sweeps": 2}
        reads = FAMILIES[family].search
        assert reads[0] == "resolution"
        spec = SearchSpec(family, **{k: read[k] for k in reads})
        assert list(_doc(spec)) == ["family", *reads]
        for key, value in unread.items():
            if key not in reads:
                with pytest.raises(ValidationError, match=f"reads no {key}"):
                    SearchSpec(family, **{k: read[k] for k in reads}, **{key: value})

    def test_sweeps_default_belongs_to_piecewise_linear(self):
        assert SearchSpec("piecewise-linear", knots=(0.2,)).sweeps == 3
        assert SearchSpec("stop-loss").sweeps is None
        assert _doc(SearchSpec("stop-loss")) == {"family": "stop-loss", "resolution": 64}

    @pytest.mark.parametrize("family", SEARCHABLE)
    def test_curve_is_the_family_premium_curve(self, family):
        # the search's one curve is the family's, ending at the layer's edge
        s = es_stage(m=101)
        settings = {"layer_upper": 0.9, "knots": (0.2, 0.6)}
        reads = FAMILIES[family].search
        spec = SearchSpec(family, **{k: v for k, v in settings.items() if k in reads})
        if FAMILIES[family].scalar is None:
            with pytest.raises(UnsupportedFamily):
                spec.curve(s.premium, s.dY)
            return
        got = spec.curve(s.premium, s.dY)
        want = premium_breakpoints(family, s.premium, s.dY, upper=spec.layer_upper)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_beta_out_of_range(self):
        with pytest.raises(ValidationError):
            es_stage(beta=1.5)

    # what the config parser refuses, the model types refuse to a library
    # caller too, by the same integer and real rules
    @pytest.mark.parametrize("make, message", [
        (lambda: ModelConfig(2.5, (es_stage(m=11),), GridSpec(-1.0, 1.0, 17),
                             SearchSpec("stop-loss")), "expected an integer, got 2.5"),
        (lambda: GridSpec(-1.0, 1.0, 16.9), "expected an integer, got 16.9"),
        (lambda: SearchSpec("stop-loss", resolution=64.5), "expected an integer, got 64.5"),
        (lambda: SearchSpec("piecewise-linear", knots=(0.2,), sweeps=2.5),
         "expected an integer, got 2.5"),
        (lambda: FamilySpec("uniform", (0.0, 1.0), atoms=10.5), "expected an integer, got 10.5"),
        (lambda: FamilySpec("exponential", (1.0,), truncation=True, atoms=4),
         "expected a number, got True"),
        (lambda: es_stage(m=11, beta=True), "expected a number, got True"),
        (lambda: PremiumSpec("expected", theta=math.nan), "expected a finite number, got nan"),
        (lambda: RiskSpec("entropic", gamma=math.nan), "expected a finite number, got nan"),
        (lambda: RiskSpec("expected-shortfall", alpha=False), "expected a number, got False"),
        (lambda: PremiumSpec("ph", theta=0.1, gamma=True), "expected a number, got True"),
        (lambda: PremiumSpec("expected", theta=math.inf), "expected a finite number, got inf"),
        (lambda: SearchSpec("layer", layer_upper=math.inf), "expected a finite number, got inf"),
        (lambda: ModelConfig(2, (es_stage(m=11),), GridSpec(-1.0, 1.0, 17),
                             SearchSpec("stop-loss"), tol=math.inf),
         "expected a finite number, got inf"),
    ], ids=[
        "horizon-fraction", "grid-count-fraction", "resolution-fraction", "sweeps-fraction",
        "atoms-fraction", "truncation-bool", "beta-bool", "theta-nan", "entropic-gamma-nan", "es-alpha-bool", "ph-gamma-bool", "theta-inf",
        "layer-upper-inf", "tol-inf",
    ])
    def test_model_types_refuse_what_the_config_parser_refuses(self, make, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make()

    # each refusal names the field it refuses, and its message is the one a
    # library caller reads; the config parser reports it at that field's path
    @pytest.mark.parametrize("make, field, message", [
        (lambda: GridSpec(-1.0, 1.0, "17"), "count", "expected a number, got '17'"),
        (lambda: GridSpec("x", 1.0, 17), "lo", "expected a number, got 'x'"),
        (lambda: GridSpec(1.0, 0.0, 17), "hi", "grid bounds must be finite with lo < hi"),
        (lambda: GridSpec(-1.0, 1.0, 8), "count", "grid needs at least 16 points"),
        (lambda: SearchSpec("stop-loss", resolution=4), "resolution",
         "search resolution must be at least 8"),
        (lambda: es_stage(m=11, beta=1.5), "beta", "discount factor must lie in (0, 1]"),
        (lambda: RiskSpec("expected-shortfall", alpha=1.5), "alpha",
         "expected-shortfall needs alpha in [0, 1)"),
        (lambda: RiskSpec("value-at-risk", alpha="0.95"), "alpha",
         "expected a number, got '0.95'"),
        (lambda: PremiumSpec("expected", theta=-1), "theta", "premium loading theta must be >= 0"),
        (lambda: FamilySpec("uniform", ("0", 1.0)), "params", "expected a number, got '0'"),
        (lambda: FamilySpec("uniform", 5), "params", "expected a list, got 5"),
        (lambda: FamilySpec("uniform", (0.0, 1.0), atoms=0), "atoms",
         "atom count must be >= 2 for non-point-mass families"),
        (lambda: FamilySpec("uniform", (1.0, 0.0)), "params", "uniform family needs a < b"),
        (lambda: ModelConfig(0, (es_stage(m=11),), GridSpec(-1.0, 1.0, 17),
                             SearchSpec("stop-loss")), "horizon", "horizon must be >= 1"),
        (lambda: ModelConfig(None, (es_stage(m=11, beta=1.0),), GridSpec(-1.0, 1.0, 17),
                             SearchSpec("stop-loss")), "stages[0].beta",
         "infinite horizon needs strict discounting (beta < 1)"),
        # a field the kind or family does not read, and the rules discretize held
        (lambda: RiskSpec("value-at-risk", alpha=0.9, gamma=2.0), "gamma",
         "value-at-risk reads no gamma"),
        (lambda: RiskSpec("expected-shortfall", alpha=0.9,
                          distortion=distortion_preset("identity")), "distortion",
         "expected-shortfall reads no distortion"),
        (lambda: PremiumSpec("expected", theta=0.1, gamma=0.5), "gamma",
         "expected reads no gamma"),
        (lambda: FamilySpec("point-mass", (0.3,), atoms=7), "atoms",
         "point-mass reads no atoms"),
        (lambda: SearchSpec("stop-loss", sweeps=3), "sweeps", "stop-loss search reads no sweeps"),
        (lambda: FamilySpec("gamma", (1.0, 2.0)), "family", "unknown family 'gamma'"),
        (lambda: FamilySpec("exponential", (1.0,)), "truncation",
         "exponential family requires a truncation bound"),
        # a kind that is not a string names no kind, hashable or not
        (lambda: RiskSpec(["entropic"], gamma=1.0), "kind", "unknown risk kind ['entropic']"),
        (lambda: FamilySpec(["uniform"], (0.0, 1.0)), "family", "unknown family ['uniform']"),
    ], ids=[
        "count-quoted", "lo-text", "hi-below-lo", "count-8", "resolution-4", "beta-1.5",
        "alpha-1.5", "alpha-quoted", "theta-negative", "params-quoted", "params-scalar",
        "atoms-0", "uniform-b-below-a", "horizon-0", "stationary-beta-1",
        "var-gamma", "es-distortion", "expected-gamma", "point-mass-atoms", "stop-loss-sweeps",
        "unknown-family", "exponential-untruncated", "risk-kind-list", "family-list",
    ])
    def test_refusals_name_their_field(self, make, field, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as info:
            make()
        assert info.value.field == field

    # a family that is not a string names no family, hashable or not
    @pytest.mark.parametrize("family", [["layer"], {"a": 1}, None, 1], ids=repr)
    @pytest.mark.parametrize("make", [
        SearchSpec,
        lambda family: make_treaty(family, {}),
        lambda family: premium_breakpoints(family, PremiumSpec("expected"), uniform01(11)),
    ], ids=["search", "make_treaty", "premium_breakpoints"])
    def test_non_string_family_is_unsupported(self, make, family):
        with pytest.raises(UnsupportedFamily) as info:
            make(family)
        assert info.value.field == "family"

    def test_integral_numbers_still_construct(self):
        config = ModelConfig(2.0, (es_stage(m=11),), GridSpec(-1, 1, 17.0),
                             SearchSpec("stop-loss", resolution=16.0), tol=1)
        assert (config.horizon, config.grid.count, config.search.resolution) == (2, 17, 16)
        assert (config.grid.lo, config.tol) == (-1.0, 1.0)
        assert type(config.grid.lo) is float and type(config.tol) is float


class TestBoundingFunctions:
    def test_terminal_stage_coefficients(self):
        # one stage to go: slope 1, lower offset ess sup Z, upper rho(Y)+pi(Y)
        s = es_stage(beta=0.9, z=0.3)
        cfg = ModelConfig(1, (s,), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))
        b_low, b_high = bounding_functions(cfg, 0)
        rho_y = es(s.dY, 0.95)
        pi_y = premium(s.premium, s.dY)
        assert b_low(0.0) == pytest.approx(-0.3, abs=1e-12)
        assert b_low(2.0) == pytest.approx(-0.3 - 2.0, abs=1e-12)
        assert b_high(0.0) == pytest.approx(rho_y + pi_y, abs=1e-12)
        assert b_high(-1.0) == pytest.approx(rho_y + pi_y + 1.0, abs=1e-12)

    def test_three_stage_recursion_hand_rolled(self):
        beta = 0.9
        s = es_stage(beta=beta, z=0.3)
        cfg = ModelConfig(3, (s,), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))
        zbar = 0.3
        rho_y = es(s.dY, 0.95)
        pi_y = premium(s.premium, s.dY)
        a = [0.0, 0.0, 0.0, 0.0]
        clo = [0.0, 0.0, 0.0, 0.0]
        chi = [0.0, 0.0, 0.0, 0.0]
        for n in (2, 1, 0):
            a[n] = 1.0 + beta * a[n + 1]
            clo[n] = (1.0 + beta * a[n + 1]) * zbar + beta * clo[n + 1]
            chi[n] = (1.0 + beta * a[n + 1]) * (rho_y + pi_y) + beta * chi[n + 1]
        for n in range(3):
            b_low, b_high = bounding_functions(cfg, n)
            x = np.array([-0.7, 0.0, 0.4, 1.0])
            want_low = -clo[n] - a[n] * np.maximum(x, 0.0)
            want_high = chi[n] + a[n] * np.maximum(-x, 0.0)
            np.testing.assert_allclose(b_low(x), want_low, atol=1e-12)
            np.testing.assert_allclose(b_high(x), want_high, atol=1e-12)

    def test_terminal_envelope_is_zero(self):
        cfg = ModelConfig(2, (es_stage(),), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))
        b_low, b_high = bounding_functions(cfg, 2)
        assert b_low(0.5) == 0.0
        assert b_high(-0.5) == 0.0

    def test_stationary_lower_at_zero(self):
        s = es_stage(beta=0.9, z=0.3)
        cfg = ModelConfig(None, (s,), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))
        b_low, _ = bounding_functions(cfg, 0)
        assert b_low(0.0) == pytest.approx(-0.3 / 0.01, abs=1e-9)

    def test_stationary_upper_hand_value(self):
        # point claim at 0.5: rho(Y) = 0.5, full-cession premium = 2.2 * 0.5,
        # so the stationary upper offset is 1.6 / (1 - 0.9)^2 = 160
        s = StageData(
            dY=point(0.5),
            dZ=point(0.3),
            risk=RiskSpec("expected-shortfall", alpha=0.95),
            premium=PremiumSpec("expected", theta=1.2),
            beta=0.9,
        )
        assert es(s.dY, 0.95) + premium(s.premium, s.dY) == pytest.approx(1.6, abs=1e-12)
        cfg = ModelConfig(None, (s,), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss"))
        _, b_high = bounding_functions(cfg, 0)
        assert b_high(0.0) == pytest.approx(160.0, rel=1e-9)

    def test_envelopes_ordered_and_decreasing(self):
        cfg = ModelConfig(4, (es_stage(beta=0.8),), GridSpec(-2.0, 2.0, 65), SearchSpec("stop-loss"))
        x = np.linspace(-3.0, 3.0, 101)
        for n in range(5):
            b_low, b_high = bounding_functions(cfg, n)
            lo, hi = b_low(x), b_high(x)
            assert np.all(lo <= hi + 1e-12)
            assert np.all(np.diff(lo) <= 1e-12)
            assert np.all(np.diff(hi) <= 1e-12)


class TestApplyL:
    def test_identity_zero_continuation(self):
        # v = 0, keep everything: rho(Y) - z - x, premium of empty cession is 0
        s = es_stage(beta=0.9, alpha=0.95, z=0.3)
        grid = np.linspace(-1.0, 1.0, 33)
        v0 = zero_vf(grid)
        f = make_treaty("identity", {})
        for x in (-0.4, 0.0, 0.7):
            want = es(s.dY, 0.95) - 0.3 - x
            assert apply_L(v0, x, f, s) == pytest.approx(want, abs=1e-10)

    def test_affine_continuation_closed_form(self):
        # v(x') = c - x' and deterministic z: the whole composite is an
        # affine push of the retained claim, so homogeneity gives
        # (1+b)(rho(f(Y)) + p) - (1+b)(x + z) + b c
        s = es_stage(m=301, beta=0.8, alpha=0.9, z=0.25)
        c = 2.0
        grid = np.linspace(-3.0, 3.0, 65)
        v = ValueFunction(grid, c - grid, slope_left=-1.0, slope_right=-1.0)
        f = make_treaty("stop-loss", {"a": 0.6})
        p = treaty_premium(s.premium, s.dY, f)
        retained = make_discrete(
            (min(y, 0.6), pr) for y, pr in zip(s.dY.values, s.dY.probs)
        )
        for x in (-1.0, 0.2, 1.4):
            want = 1.8 * (es(retained, 0.9) + p) - 1.8 * (x + 0.25) + 0.8 * c
            assert apply_L(v, x, f, s) == pytest.approx(want, abs=1e-9)

    def test_translation_in_x(self):
        s = es_stage(z=0.3)
        grid = np.linspace(-1.0, 1.0, 33)
        v0 = zero_vf(grid)
        f = make_treaty("stop-loss", {"a": 0.5})
        base = apply_L(v0, 0.1, f, s)
        assert apply_L(v0, 0.1 + 0.45, f, s) == pytest.approx(base - 0.45, abs=1e-12)

    def test_entropic_two_atom_hand_value(self):
        dY = make_discrete([(0.0, 0.5), (1.0, 0.5)])
        s = StageData(
            dY=dY,
            dZ=point(0.2),
            risk=RiskSpec("entropic", gamma=1.5),
            premium=PremiumSpec("expected", theta=0.1),
            beta=0.9,
        )
        grid = np.linspace(-1.0, 1.0, 33)
        f = make_treaty("identity", {})
        # U takes values -0.2 - x and 0.8 - x with probability 1/2 each
        x = 0.3
        want = np.log(0.5 * np.exp(1.5 * (-0.2 - x)) + 0.5 * np.exp(1.5 * (0.8 - x))) / 1.5
        assert apply_L(zero_vf(grid), x, f, s) == pytest.approx(want, abs=1e-12)

    def test_random_z_changes_answer(self):
        dZ = make_discrete([(0.1, 0.3), (0.3, 0.4), (0.6, 0.3)])
        s_point = es_stage(z=0.3)
        s_rand = StageData(s_point.dY, dZ, s_point.risk, s_point.premium, 0.9)
        grid = np.linspace(-1.0, 1.0, 33)
        rng = np.random.default_rng(SEED)
        b_low, b_high = bounding_functions(
            ModelConfig(1, (s_rand,), GridSpec(-1.0, 1.0, 33), SearchSpec("stop-loss")), 0
        )
        v = random_inside(rng, grid, b_low, b_high)
        f = make_treaty("stop-loss", {"a": 0.4})
        assert apply_L(v, 0.2, f, s_rand) != pytest.approx(apply_L(v, 0.2, f, s_point), abs=1e-6)


def _objectives(v, s, x, params, search):
    # the batched evaluator with its candidates priced off the family's curve
    # and retained by the search, as the scalar search prices them
    bp, bv = premium_breakpoints(search.family, s.premium, s.dY, upper=search.layer_upper)
    par = np.ravel(params)
    return _candidate_objectives(
        v, s, dp._route(s, (search.family,)), np.asarray(x)[:, None], np.interp(params, bp, bv),
        lambda sl, cols, y: search.retained(par[sl, None], y),
    )


def _ladder(rng, lo, hi, states, probes):
    base = rng.uniform(lo, hi, size=(states, probes))
    return np.sort(base, axis=1)


class TestBatchedAgainstScalar:
    """The solver's vectorized candidate evaluator against the reference route."""

    GRID = np.linspace(-0.8, 1.2, 17)

    def _check(self, s, search, families=("stop-loss",)):
        rng = np.random.default_rng(SEED)
        cfg = ModelConfig(1, (s,), GridSpec(-0.8, 1.2, 17), search)
        b_low, b_high = bounding_functions(cfg, 0)
        v = random_inside(rng, self.GRID, b_low, b_high)
        top = ess_sup(s.dY)
        hi = {"stop-loss": top, "layer": search.layer_upper or top, "proportional": 1.0}
        params = _ladder(rng, 0.0, hi[search.family], self.GRID.size, 7)
        got = _objectives(v, s, self.GRID, params, search)
        assert got.shape == params.shape
        for j in range(self.GRID.size):
            for k in range(params.shape[1]):
                f = _treaty_from(search, params[j, k])
                want = apply_L(v, self.GRID[j], f, s)
                assert got[j, k] == pytest.approx(want, abs=1e-10), (j, k)

    @pytest.mark.parametrize(
        "risk",
        [
            RiskSpec("expectation"),
            RiskSpec("value-at-risk", alpha=0.9),
            RiskSpec("expected-shortfall", alpha=0.9),
            RiskSpec("distortion", distortion=distortion_preset("ph:0.7")),
            RiskSpec("spectral", spectrum=es_spectrum(0.85)),
        ],
        ids=["mean", "var", "es", "distortion", "spectral"],
    )
    def test_deterministic_income(self, risk):
        s = StageData(uniform01(41), point(0.3), risk, PremiumSpec("expected", theta=0.2), 0.9)
        self._check(s, SearchSpec("stop-loss"))

    @pytest.mark.parametrize(
        "risk",
        [
            RiskSpec("expected-shortfall", alpha=0.9),
            RiskSpec("value-at-risk", alpha=0.9),
            RiskSpec("distortion", distortion=distortion_preset("ph:0.7")),
        ],
        ids=["es", "var", "distortion"],
    )
    def test_random_income(self, risk):
        dZ = make_discrete([(0.0, 0.25), (0.3, 0.5), (0.7, 0.25)])
        s = StageData(uniform01(41), dZ, risk, PremiumSpec("expected", theta=0.2), 0.9)
        self._check(s, SearchSpec("stop-loss"))

    def test_entropic_both_income_kinds(self):
        risk = RiskSpec("entropic", gamma=1.2)
        pr = PremiumSpec("expected", theta=0.2)
        s1 = StageData(uniform01(41), point(0.3), risk, pr, 0.9)
        dZ = make_discrete([(0.1, 0.5), (0.5, 0.5)])
        s2 = StageData(uniform01(41), dZ, risk, pr, 0.9)
        self._check(s1, SearchSpec("stop-loss"))
        self._check(s2, SearchSpec("stop-loss"))

    def test_layer_and_proportional_families(self):
        s = es_stage(m=41, alpha=0.9)
        q = var(s.dY, 0.9)
        self._check(s, SearchSpec("layer", layer_upper=q))
        self._check(s, SearchSpec("proportional"))

    def test_wang_premium_pricing(self):
        s = StageData(
            uniform01(41),
            point(0.3),
            RiskSpec("expected-shortfall", alpha=0.9),
            PremiumSpec("ph", theta=0.15, gamma=0.8),
            0.9,
        )
        self._check(s, SearchSpec("stop-loss"))


def _treaty_from(search, p):
    if search.family == "stop-loss":
        return make_treaty("stop-loss", {"a": float(p)})
    if search.family == "layer":
        return make_treaty("layer", {"a": float(p), "w": float(search.layer_upper) - float(p)})
    if search.family == "proportional":
        return make_treaty("proportional", {"c": float(p)})
    raise AssertionError(search.family)


# the evaluator's differential grid: risk kind x income law x family
RISKS = {
    "mean": RiskSpec("expectation"),
    "var": RiskSpec("value-at-risk", alpha=0.9),
    "es": RiskSpec("expected-shortfall", alpha=0.85),
    "ph": RiskSpec("distortion", distortion=distortion_preset("ph:0.7")),
    "spectral-anti": RiskSpec("spectral", spectrum=es_spectrum(0.8)),
    # full-support linear density 2u with its quadratic antiderivative u**2
    "spectral-quad": RiskSpec(
        "spectral", spectrum=Spectrum(lambda u: 2.0 * np.asarray(u), lambda u: np.asarray(u) ** 2)
    ),
    "entropic": RiskSpec("entropic", gamma=1.5),
}
INCOMES = {
    "point": lambda: point(0.3),
    "3-atom": lambda: make_discrete([(0.0, 0.25), (0.3, 0.5), (0.7, 0.25)]),
    "5-atom": lambda: discretize(FamilySpec("uniform", (0.1, 0.5), atoms=5)),
}


def _grid_stage(risk_id, income_id, m=31):
    return StageData(
        uniform01(m), INCOMES[income_id](), RISKS[risk_id], PremiumSpec("expected", theta=0.2), 0.9
    )


def _grid_search(family, dY):
    if family == "layer":
        return SearchSpec("layer", layer_upper=var(dY, 0.9))
    return SearchSpec(family)


def _ladder_for(rng, s, search, states, probes):
    hi = {"stop-loss": ess_sup(s.dY), "layer": search.layer_upper, "proportional": 1.0}
    return _ladder(rng, 0.0, hi[search.family], states, probes)


class TestEvaluatorGrid:
    """One evaluator, every risk kind, income law and family, against apply_L."""

    GRID = np.linspace(-0.8, 1.2, 9)

    @pytest.mark.parametrize("family", ["stop-loss", "layer", "proportional"])
    @pytest.mark.parametrize("income_id", list(INCOMES))
    @pytest.mark.parametrize("risk_id", list(RISKS))
    def test_against_apply_L(self, risk_id, income_id, family):
        rng = np.random.default_rng(SEED)
        s = _grid_stage(risk_id, income_id)
        search = _grid_search(family, s.dY)
        cfg = ModelConfig(1, (s,), GridSpec(-0.8, 1.2, 17), search)
        b_low, b_high = bounding_functions(cfg, 0)
        v = random_inside(rng, self.GRID, b_low, b_high, slopes=(-1.5, -0.5))
        params = _ladder_for(rng, s, search, self.GRID.size, 4)
        got = _objectives(v, s, self.GRID, params, search)
        assert got.shape == params.shape
        for j, k in np.ndindex(params.shape):
            want = apply_L(v, self.GRID[j], _treaty_from(search, params[j, k]), s)
            assert got[j, k] == pytest.approx(want, abs=1e-10), (j, k)


class TestTiedIncomeAtoms:
    """Next surpluses tied across income atoms: the z-major layout may put
    them in another order than a y-major one, but never moves a value."""

    @pytest.mark.parametrize("risk_id", list(RISKS))
    def test_tied_next_surpluses_against_apply_L(self, risk_id):
        rng = np.random.default_rng(SEED + 7)
        # dyadic claims, incomes and retentions keep z - h(y) exact, so it
        # repeats across income atoms (and within one, above the retention)
        dY = make_discrete(list(zip(np.arange(9) / 8, rng.dirichlet(np.ones(9)))))
        dZ = make_discrete(list(zip((0.0, 0.25, 0.5), rng.dirichlet(np.ones(3)))))
        s = StageData(dY, dZ, RISKS[risk_id], PremiumSpec("expected", theta=0.2), 0.9)
        search = SearchSpec("stop-loss")
        retentions = np.array([0.0, 0.25, 0.375, 0.5, 1.0])
        shift = dZ.values[:, None] - np.minimum(dY.values, 0.375)
        assert np.intersect1d(shift[0], shift[1]).size and np.intersect1d(shift[1], shift[2]).size
        grid = np.linspace(-0.5, 1.5, 9)
        v = ValueFunction(grid, -1.2 * grid - 0.1 * grid**2 * (grid > 0), -1.2, -1.6)
        params = np.tile(retentions, (grid.size, 1))
        got = _objectives(v, s, grid, params, search)
        for j, k in np.ndindex(params.shape):
            want = apply_L(v, grid[j], _treaty_from(search, params[j, k]), s)
            assert got[j, k] == pytest.approx(want, abs=1e-10), (j, k)


class TestEvaluatorChunking:
    """Slices of (state, candidate) pairs change memory, never a bit of the result."""

    @pytest.mark.parametrize(
        "risk_id, income_id, family",
        [
            ("ph", "point", "layer"),
            ("es", "5-atom", "stop-loss"),
            ("var", "3-atom", "proportional"),
            ("spectral-quad", "3-atom", "stop-loss"),
            ("entropic", "5-atom", "proportional"),
        ],
    )
    def test_chunked_equals_unchunked(self, monkeypatch, risk_id, income_id, family):
        rng = np.random.default_rng(SEED)
        s = _grid_stage(risk_id, income_id, m=41)
        search = _grid_search(family, s.dY)
        grid = np.linspace(-0.5, 1.5, 23)
        v = ValueFunction(grid, -1.2 * grid - 0.1 * grid**2 * (grid > 0), -1.2, -1.6)
        params = _ladder_for(rng, s, search, grid.size, 9)
        atoms = len(s.dY) * len(s.dZ)
        # the reference is one slice holding every (pair, atom) cell
        monkeypatch.setattr(dp, "_CHUNK_ELEMS", params.size * atoms)
        whole = _objectives(v, s, grid, params, search)
        # three whole states per slice, then one and two pairs, so slices cut
        # through a state's candidates; 23 states x 9 candidates leave a
        # short last slice for three states and for two pairs
        for cells in (3 * params.shape[1] * atoms, atoms, 2 * atoms):
            monkeypatch.setattr(dp, "_CHUNK_ELEMS", cells)
            sliced = _objectives(v, s, grid, params, search)
            assert np.array_equal(whole, sliced), cells

    def test_peak_memory_bounded(self):
        # 64 states x 65 candidates x 2001 atoms, full-support PH weights:
        # unsliced this needs several hundred MB of temporaries
        s = StageData(
            uniform01(2001),
            point(0.3),
            RISKS["ph"],
            PremiumSpec("expected", theta=0.2),
            1.0,
        )
        grid = np.linspace(-0.5, 1.5, 64)
        v = ValueFunction(grid, -grid)
        params = np.tile(np.linspace(0.0, 1.0, 65), (grid.size, 1))
        tracemalloc.start()
        try:
            _objectives(v, s, grid, params, SearchSpec("stop-loss"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_peak_memory_bounded_for_one_state(self):
        # one state x 1025 candidates x 2001 atoms: slicing by whole states
        # would hold every candidate's atoms at once, about 51 MB traced
        s = StageData(
            uniform01(2001),
            point(0.3),
            RISKS["ph"],
            PremiumSpec("expected", theta=0.2),
            1.0,
        )
        grid = np.array([0.5])
        v = ValueFunction(np.linspace(-0.5, 1.5, 64), -np.linspace(-0.5, 1.5, 64))
        params = np.linspace(0.0, 1.0, 1025)[None, :]
        tracemalloc.start()
        try:
            _objectives(v, s, grid, params, SearchSpec("stop-loss"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _bits(a):
    # float64 bit patterns: unlike ==, they tell -0.0 from +0.0
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _counting(monkeypatch, module, name, log):
    # wrap module.name so that each call appends its positional args to log
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        log.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


class _LoggedWeights(np.ndarray):
    # price weights that append the left operand of each product taken with
    # them, the ceded claim atoms of one treaty, to self.log
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(np.asarray(inputs[0]))
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


def _counting_prices(monkeypatch, log):
    # make dp._price_weights return weights that log each treaty they price
    real = dp._price_weights

    def logged(s):
        w = real(s).view(_LoggedWeights)
        w.log = log
        return w

    monkeypatch.setattr(dp, "_price_weights", logged)


# equal-probability income laws: with uniform claims every product atom
# carries the same probability
EQUAL_INCOMES = {
    "3-atom-uniform": lambda: discretize(FamilySpec("uniform", (0.0, 0.6), atoms=3)),
    "5-atom-uniform": INCOMES["5-atom"],
}


# ES at a low level: a zero head too short for the tail selection
EQUAL_RISKS = {**RISKS, "es-0.5": RiskSpec("expected-shortfall", alpha=0.5)}


def _dyadic_equal_stage(risk_id):
    # dyadic claims and incomes with equal probabilities: next surpluses tie
    # across income atoms, as in TestTiedIncomeAtoms
    dY = make_discrete([(k / 8, 1 / 9) for k in range(9)])
    dZ = make_discrete([(z, 1 / 3) for z in (0.0, 0.25, 0.5)])
    return StageData(dY, dZ, EQUAL_RISKS[risk_id], PremiumSpec("expected", theta=0.2), 0.9)


def _equal_income_stage(risk_id, income_id):
    return StageData(uniform01(31), EQUAL_INCOMES[income_id](), EQUAL_RISKS[risk_id],
                     PremiumSpec("expected", theta=0.2), 0.9)


STOP_LOSS = ("stop-loss",)


def _shared_head(s):
    # leading zero weights of an equal-probability stage's shared vector
    route = dp._route(s, STOP_LOSS)
    assert route.name == "tail"
    return route.head


def _unfiltered(s, route):
    # route over every z-major (Y, Z) atom, as _route lays them out before it
    # keeps only the atoms an increasing treaty can weigh
    ky, kz = len(s.dY), len(s.dZ)
    return route._replace(cols=np.tile(np.arange(ky), kz), z=np.repeat(s.dZ.values, ky),
                          probs=np.outer(s.dZ.probs, s.dY.probs).ravel())


def _full_sort_atoms(s, route, prem, retained):
    # the unfiltered reference for dp._next_atoms: every atom's offsets,
    # stably sorted descending, under the shared weights
    prem, cols = np.ravel(prem), route.cols
    y = s.dY.values[cols]
    step = max(1, dp._CHUNK_ELEMS // cols.size)
    for lo in range(0, prem.size, step):
        sl = slice(lo, lo + step)
        t = route.z - retained(sl, cols, y) - prem[sl, None]
        yield sl, -np.sort(-t, axis=-1, kind="stable"), route.w


def _forcing_route(monkeypatch, name):
    # wrap dp._route so that an equal-probability stage ("tail") takes route
    # name over every atom, unfiltered, with no zero head: "per-pair" drops
    # the shared weights, "full-sort" the kept atoms, the head's zeros and
    # its skipped reads for _full_sort_atoms' stable sort of the whole row;
    # other routes pass through. Returns the names it replaced, call by call
    real_route, real_atoms, forced = dp._route, dp._next_atoms, []

    def route(s, families):
        got = real_route(s, families)
        if got.name != "tail":
            return got
        forced.append(got.name)
        w = None if name == "per-pair" else got.w
        return _unfiltered(s, got)._replace(name=name, w=w, head=0)

    def atoms(s, route, prem, retained):
        if route.name == "full-sort":
            return _full_sort_atoms(s, route, prem, retained)
        return real_atoms(s, route, prem, retained)

    monkeypatch.setattr(dp, "_route", route)
    monkeypatch.setattr(dp, "_next_atoms", atoms)
    return forced


def _signed_zero_stage():
    # income -0.0 at claim 0 gives the offset -0.0, income 1.0 at claim 1.0
    # gives +0.0: under the identity treaty the stable full sort puts -0.0
    # first among the zeros, just before the weighted tail and +0.0 just
    # inside it. Incomes above the top claim add only positive offsets.
    # Returns the stage and its offsets, sorted descending
    dY = make_discrete([(k / 8, 1 / 9) for k in range(9)])
    dZ = make_discrete([(z, 1 / 6) for z in (-0.0, 1.0, 1.25, 1.5, 1.75, 2.0)])
    t = (dZ.values[:, None] - dY.values).ravel()
    offsets = -np.sort(-t, kind="stable")
    positive = int(np.count_nonzero(offsets > 0.0))
    # ES at this level weighs none of the first positive + 1 atoms
    alpha = (positive + 1.5) / t.size
    s = StageData(dY, dZ, RiskSpec("expected-shortfall", alpha=alpha),
                  PremiumSpec("expected", theta=0.2), 0.9)
    return s, offsets


def _edge_stage(alpha):
    # 5 x 2 equally likely atoms: ES 0.85 weighs the last 2 (head 8, exactly
    # four fifths of the row), ES 0.75 the last 3 (head 7)
    dY = make_discrete([(k / 4, 1 / 5) for k in range(5)])
    dZ = make_discrete([(0.0, 0.5), (0.5, 0.5)])
    return StageData(dY, dZ, RiskSpec("expected-shortfall", alpha=alpha),
                     PremiumSpec("expected", theta=0.2), 0.9)


# stage -> (route name, head): every route, a tail of a fifth of the row and
# one atom longer, and the signed-zero stage
ROUTE_CASES = {
    "entropic-point": (lambda: _grid_stage("entropic", "point"), "entropic", 0),
    "entropic-equal": (lambda: _equal_income_stage("entropic", "3-atom-uniform"), "entropic", 0),
    "es-point": (lambda: _grid_stage("es", "point"), "point", 0),
    "ph-point": (lambda: _grid_stage("ph", "point"), "point", 0),
    "es-equal": (lambda: _equal_income_stage("es", "3-atom-uniform"), "tail", 79),
    "es-0.5-equal": (lambda: _equal_income_stage("es-0.5", "5-atom-uniform"), "tail", 77),
    "ph-equal": (lambda: _grid_stage("ph", "5-atom"), "tail", 0),
    "spectral-quad-equal": (lambda: _dyadic_equal_stage("spectral-quad"), "tail", 0),
    "edge-at-four-fifths": (lambda: _edge_stage(0.85), "tail", 8),
    "edge-below-four-fifths": (lambda: _edge_stage(0.75), "tail", 7),
    "signed-zero": (lambda: _signed_zero_stage()[0], "tail", 45),
    "es-unequal": (lambda: _grid_stage("es", "3-atom"), "per-pair", 0),
    "ph-unequal": (lambda: _grid_stage("ph", "3-atom"), "per-pair", 0),
}


class TestRoute:
    """dp._route names each stage's evaluator route, once, from the stage and
    the treaty families it prices."""

    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    def test_route_of_each_stage(self, case):
        stage, name, head = ROUTE_CASES[case]
        s = stage()
        route = dp._route(s, STOP_LOSS)
        assert (route.name, route.head) == (name, head)
        size = len(s.dY) * len(s.dZ)
        if name == "tail":
            assert route.w.size == size and not np.any(route.w[:head]) and route.w[head] > 0
            # kept: the atoms that every increasing treaty puts at or above
            # at most m = size - head atoms, counted off the atom values
            full = _unfiltered(s, route)
            y, z = s.dY.values[full.cols], full.z
            below = np.sum((y >= y[:, None]) & (z <= z[:, None]), axis=1)
            keep = below <= size - head
            assert np.array_equal(route.cols, full.cols[keep])
            assert np.array_equal(route.z, full.z[keep])
            assert np.array_equal(route.probs, full.probs[keep])
        if name == "point":
            # only the weighed atoms are kept, with their claims and incomes
            assert np.all(route.w > 0) and route.cols.size == route.z.size == route.w.size
        if name == "entropic":
            assert route.w is route.probs and route.cols.size == size
        if name == "per-pair":
            assert route.w is None and route.probs.size == size

    def test_z_major_layout(self):
        s = _grid_stage("es", "3-atom", m=4)
        route = dp._route(s, STOP_LOSS)
        assert route.cols.tolist() == [0, 1, 2, 3] * 3
        assert np.array_equal(route.z, np.repeat(s.dZ.values, 4))
        assert np.array_equal(route.probs, np.outer(s.dZ.probs, s.dY.probs).ravel())

    @pytest.mark.parametrize(
        "risk_id, families, kept",
        [
            # 26 + 13 + 8 + 6 + 5 atoms, by income rank
            ("es-0.95", STOP_LOSS, 58),
            ("es-0.95", ("layer", "proportional", "identity", "full-cession"), 58),
            ("ph", STOP_LOSS, 505),
            # maps not monotone under rounding keep every atom, alone or mixed
            ("es-0.95", ("piecewise-linear",), 505),
            ("es-0.95", ("custom",), 505),
            ("es-0.95", ("stop-loss", "custom"), 505),
        ],
        ids=["es", "es-monotone-families", "ph", "es-piecewise", "es-custom", "es-mixed"],
    )
    def test_atoms_kept(self, risk_id, families, kept):
        # stochastic_income's shape: 101 claim atoms x 5 equally likely incomes
        risk = {"es-0.95": RiskSpec("expected-shortfall", alpha=0.95), "ph": RISKS["ph"]}[risk_id]
        s = StageData(uniform01(101), INCOMES["5-atom"](), risk,
                      PremiumSpec("expected", theta=0.2), 0.9)
        route = dp._route(s, families)
        assert route.name == "tail" and route.w.size == 505
        assert route.cols.size == route.z.size == route.probs.size == kept
        assert route.head == (0 if risk_id == "ph" else 479)

    @pytest.mark.parametrize(
        "search", [SearchSpec("piecewise-linear", knots=(0.2, 0.6), resolution=8),
                   SearchSpec("stop-loss")], ids=["piecewise-linear", "stop-loss"],
    )
    def test_replay_and_jump_read_their_rows_families(self, monkeypatch, search):
        # the stage's route is chosen for the families of the rows it prices
        s = StageData(uniform01(21), INCOMES["5-atom"](), RISKS["es"],
                      PremiumSpec("expected", theta=0.2), 0.9)
        family = search.family
        cfg = ModelConfig(1, (s,), GridSpec(-0.5, 1.5, 17), search)
        _, policy = solve_finite(cfg)
        calls = []
        _counting(monkeypatch, dp, "_route", calls)
        evaluate_policy(policy, cfg)
        stationary = ModelConfig(None, (s,), cfg.grid, search)
        dp._policy_values_solve(policy.rows[0], stationary, policy.grid, -10.0)
        assert [set(args[1]) for args in calls] == [{family}] * 2
        kept = dp._route(s, (family,)).cols.size
        assert (kept == 105) == (family == "piecewise-linear") and kept <= 105


class TestSharedComputations:
    """What a Bellman stage shares is computed once, and each reduction,
    turned off, gives the same bits by the route it replaces."""

    GRID = np.linspace(-0.5, 1.5, 17)

    def _continuation(self):
        grid = self.GRID
        return ValueFunction(grid, -1.2 * grid - 0.1 * grid**2 * (grid > 0), -1.2, -1.6)

    def _equal_stage(self, risk_id, income_id, search):
        # an equal-probability stage and a stop-loss ladder per grid state
        if income_id == "dyadic-tied":
            s = _dyadic_equal_stage(risk_id)
            return s, np.tile([0.0, 0.25, 0.375, 0.5, 1.0], (self.GRID.size, 1))
        s = _equal_income_stage(risk_id, income_id)
        return s, _ladder_for(np.random.default_rng(SEED), s, search, self.GRID.size, 9)

    @pytest.mark.parametrize("income_id", [*EQUAL_INCOMES, "dyadic-tied"])
    @pytest.mark.parametrize("risk_id", ["es", "var", "ph", "spectral-anti", "spectral-quad"])
    def test_equal_probabilities_share_one_weight_vector(self, monkeypatch, risk_id, income_id):
        search = SearchSpec("stop-loss")
        s, params = self._equal_stage(risk_id, income_id, search)
        v = self._continuation()
        # several slices, so the per-pair route weighs more than once
        monkeypatch.setattr(dp, "_CHUNK_ELEMS", 4 * len(s.dY) * len(s.dZ))
        calls = []
        _counting(monkeypatch, dp, "atom_weights", calls)
        shared = _objectives(v, s, self.GRID, params, search)
        assert [np.ndim(probs) for _, probs in calls] == [1]
        forced = _forcing_route(monkeypatch, "per-pair")
        calls.clear()
        per_pair = _objectives(v, s, self.GRID, params, search)
        assert forced == ["tail"]
        # the route's own 1-D call, then one 2-D call per slice of 4 pairs
        slices = -(-params.size // 4)
        assert [np.ndim(probs) for _, probs in calls] == [1] + [2] * slices
        assert np.array_equal(_bits(shared), _bits(per_pair))

    @pytest.mark.parametrize("income_id", [*EQUAL_INCOMES, "dyadic-tied"])
    @pytest.mark.parametrize("risk_id", ["es", "var", "es-0.5", "spectral-anti", "spectral-quad"])
    def test_tail_route_gives_the_full_sort_bits(self, monkeypatch, risk_id, income_id):
        search = SearchSpec("stop-loss")
        s, params = self._equal_stage(risk_id, income_id, search)
        head = _shared_head(s)
        # the tail kinds weigh no leading atom; the full-support spectrum
        # keeps the full sort
        assert (head == 0) == (risk_id == "spectral-quad")
        v, zero = self._continuation(), zero_vf(self.GRID)
        bp, bv = search.curve(s.premium, s.dY)

        def both():
            # a nonzero continuation, and the ladder route's full-row sums
            laddered = dp._ladder_objectives(
                zero, s, dp._route(s, STOP_LOSS), self.GRID, params, lambda p: np.interp(p, bp, bv),
                search.retained,
            )
            return _objectives(v, s, self.GRID, params, search), laddered

        # several slices, the last one short
        monkeypatch.setattr(dp, "_CHUNK_ELEMS", 4 * len(s.dY) * len(s.dZ))
        tail = both()
        forced = _forcing_route(monkeypatch, "full-sort")
        full = both()
        assert forced == ["tail"] * 2
        for got, want in zip(tail, full):
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("risk_id", ["es", "es-0.5", "var", "ph"])
    def test_rows_are_the_full_sorts_tail(self, risk_id):
        # from the kept atoms, each row is the unfiltered stable full sort's,
        # its head zeroed, at full length
        search = SearchSpec("stop-loss")
        s, params = self._equal_stage(risk_id, "5-atom-uniform", search)
        route = dp._route(s, STOP_LOSS)
        head, size = route.head, len(s.dY) * len(s.dZ)
        assert route.name == "tail" and (head > 0) == (risk_id != "ph")
        assert (route.cols.size < size) == (risk_id != "ph")
        prem = np.interp(params, *search.curve(s.premium, s.dY)).ravel()
        flat = params.ravel()

        def retained(sl, cols, y):
            return search.retained(flat[sl, None], y)

        atoms = list(dp._next_atoms(s, route, prem, retained))
        # every slice reads the route's one shared weight vector
        assert all(w is route.w for _, _, w in atoms)
        got = np.concatenate([t for _, t, _ in atoms])
        full = _full_sort_atoms(s, _unfiltered(s, route), prem, retained)
        want = np.concatenate([t for _, t, _ in full])
        want[:, :head] = 0.0
        assert got.shape == (prem.size, size)
        assert np.array_equal(_bits(got), _bits(want))

    # a tail of a fifth of the row and one atom longer
    @pytest.mark.parametrize("alpha", [0.85, 0.75], ids=["fifth", "fifth-plus-one"])
    def test_short_tails_give_the_unfiltered_bits(self, monkeypatch, alpha):
        s = _edge_stage(alpha)
        search = SearchSpec("stop-loss")
        params = _ladder_for(np.random.default_rng(SEED), s, search, self.GRID.size, 9)
        runs = []
        for off in (False, True):
            forced = _forcing_route(monkeypatch, "full-sort") if off else []
            runs.append([_objectives(v, s, self.GRID, params, search)
                         for v in (self._continuation(), zero_vf(self.GRID))])
        assert forced == ["tail", "tail"]
        for got, want in zip(*runs):
            assert np.array_equal(_bits(got), _bits(want))

    def test_signed_zero_tie_on_the_tail_edge(self, monkeypatch):
        s, offsets = _signed_zero_stage()
        head, positive = _shared_head(s), int(np.count_nonzero(offsets > 0.0))
        assert head == positive + 1
        assert offsets[head - 1] == 0.0 == offsets[head]
        assert np.signbit(offsets[head - 1]) and not np.signbit(offsets[head])
        # the identity treaty (retention 1.0, no premium) and retention 0.5,
        # at every state of a grid through x = 0
        search = SearchSpec("stop-loss")
        params = np.tile([0.5, 1.0], (self.GRID.size, 1))
        assert 0.0 in self.GRID and np.interp(1.0, *search.curve(s.premium, s.dY)) == 0.0
        monkeypatch.setattr(dp, "_CHUNK_ELEMS", 3 * offsets.size)
        runs = []
        for off in (False, True):
            forced = _forcing_route(monkeypatch, "full-sort") if off else []
            runs.append([_objectives(v, s, self.GRID, params, search)
                         for v in (self._continuation(), zero_vf(self.GRID))])
        assert forced == ["tail", "tail"]
        for got, want in zip(*runs):
            assert np.array_equal(_bits(got), _bits(want))

    def test_slices_hold_chunk_full_length_cells(self, monkeypatch):
        # 101 x 5 atoms under ES 0.95 keep 58, but each row is written 505
        # long: a slice of several pairs holds at most _CHUNK_ELEMS of those
        s = StageData(uniform01(101), INCOMES["5-atom"](),
                      RiskSpec("expected-shortfall", alpha=0.95),
                      PremiumSpec("expected", theta=0.2), 0.9)
        search = SearchSpec("stop-loss")
        grid = np.linspace(-0.5, 1.5, 64)
        params = _ladder_for(np.random.default_rng(SEED), s, search, grid.size, 65)
        real, shapes = dp._next_atoms, []

        def atoms(*args):
            for sl, t, w in real(*args):
                shapes.append(t.shape)
                yield sl, t, w

        monkeypatch.setattr(dp, "_next_atoms", atoms)
        _objectives(self._continuation(), s, grid, params, search)
        assert dp._route(s, STOP_LOSS).cols.size == 58
        assert len(shapes) > 1 and {width for _, width in shapes} == {505}
        assert all(1 < n and n * width <= dp._CHUNK_ELEMS for n, width in shapes[:-1])
        assert sum(n for n, _ in shapes) == params.size

    @pytest.mark.parametrize("risk_id", ["es", "es-0.5"])
    def test_continuation_read_only_in_the_tail(self, monkeypatch, risk_id):
        search = SearchSpec("stop-loss")
        s, params = self._equal_stage(risk_id, "5-atom-uniform", search)
        size, head = len(s.dY) * len(s.dZ), _shared_head(s)
        assert 0 < head < size
        calls = []
        _counting(monkeypatch, ValueFunction, "__call__", calls)
        _objectives(self._continuation(), s, self.GRID, params, search)
        assert {np.shape(args[1])[-1] for args in calls} == {size - head}
        assert sum(np.shape(args[1])[0] for args in calls) == params.size

    def test_unequal_probabilities_keep_the_per_pair_route(self, monkeypatch):
        dZ = make_discrete([(0.0, 0.2), (0.3, 0.5), (0.6, 0.3)])
        s = StageData(uniform01(31), dZ, RISKS["es"], PremiumSpec("expected", theta=0.2), 0.9)
        search = SearchSpec("stop-loss")
        params = _ladder_for(np.random.default_rng(SEED), s, search, self.GRID.size, 4)
        v = self._continuation()
        assert dp._route(s, STOP_LOSS).name == "per-pair"
        calls = []
        _counting(monkeypatch, dp, "atom_weights", calls)
        got = _objectives(v, s, self.GRID, params, search)
        assert calls and all(np.ndim(probs) == 2 for _, probs in calls)
        for j, k in np.ndindex(params.shape):
            want = apply_L(v, self.GRID[j], _treaty_from(search, params[j, k]), s)
            assert got[j, k] == pytest.approx(want, abs=1e-10), (j, k)

    @pytest.mark.parametrize("income_id", ["point", "3-atom-uniform", "3-atom"])
    @pytest.mark.parametrize("risk_id", list(RISKS))
    def test_zero_terminal_value_is_not_interpolated(self, monkeypatch, risk_id, income_id):
        income = {**INCOMES, **EQUAL_INCOMES}[income_id]
        s = StageData(uniform01(31), income(), RISKS[risk_id], PremiumSpec("expected", theta=0.2), 0.9)
        search = SearchSpec("stop-loss")
        params = _ladder_for(np.random.default_rng(SEED), s, search, self.GRID.size, 9)
        calls = []
        _counting(monkeypatch, ValueFunction, "__call__", calls)
        direct = _objectives(zero_vf(self.GRID), s, self.GRID, params, search)
        assert not calls
        monkeypatch.setattr(dp, "_is_zero", lambda v: False)
        interpolated = _objectives(zero_vf(self.GRID), s, self.GRID, params, search)
        assert calls
        assert np.array_equal(_bits(direct), _bits(interpolated))

    def test_zero_terminal_value_adds_plus_zero(self, monkeypatch):
        # no claims, no income, no premium: at x = 0 the row sums to -0.0
        # before the continuation's +0.0, which every route adds
        s = StageData(point(0.0), point(0.0), RISKS["es"], PremiumSpec("expected", theta=0.2), 0.9)
        search = SearchSpec("stop-loss")
        x, params = np.array([0.0]), np.array([[0.0]])
        got = _objectives(zero_vf(self.GRID), s, x, params, search)
        laddered = dp._ladder_objectives(
            zero_vf(self.GRID), s, dp._route(s, STOP_LOSS), x, params,
            lambda p: np.zeros(np.shape(p)),
            search.retained,
        )
        monkeypatch.setattr(dp, "_is_zero", lambda v: False)
        want = _objectives(zero_vf(self.GRID), s, x, params, search)
        assert np.array_equal(_bits(got), _bits(want)) and not np.signbit(got[0, 0])
        assert np.array_equal(_bits(laddered), _bits(want))

    @pytest.mark.parametrize("constrained", [True, False], ids=["budget", "free"])
    @pytest.mark.parametrize("family", ["stop-loss", "layer", "proportional"])
    @pytest.mark.parametrize("income_id", ["point", "3-atom-uniform", "3-atom"])
    @pytest.mark.parametrize("risk_id", [k for k in RISKS if k != "entropic"])
    def test_ladder_route_gives_the_per_pair_bits(self, monkeypatch, risk_id, income_id, family,
                                                   constrained):
        income = {**INCOMES, **EQUAL_INCOMES}[income_id]
        s = StageData(uniform01(31), income(), RISKS[risk_id], PremiumSpec("expected", theta=0.2),
                      0.9, constrained)
        search = _grid_search(family, s.dY)
        grid = self.GRID
        shared, row = bellman_step(zero_vf(grid), s, grid, search)
        monkeypatch.setattr(dp, "_is_zero", lambda v: False)
        per_pair, per_pair_row = bellman_step(zero_vf(grid), s, grid, search)
        assert np.array_equal(_bits(shared.values), _bits(per_pair.values))
        assert [f.params for f in row] == [f.params for f in per_pair_row]

    def test_ladders_apart_in_the_sign_of_a_zero_stay_apart(self, monkeypatch):
        s = es_stage(m=31)
        search = SearchSpec("stop-loss")
        bp, bv = search.curve(s.premium, s.dY)
        ladder = np.linspace(0.0, 1.0, 5)
        signed = ladder.copy()
        signed[0] = -0.0
        # a run of two, then each ladder again, apart from its first run
        params = np.array([ladder, ladder, signed, ladder, signed])
        x = np.linspace(-0.2, 0.6, len(params))
        built = []
        _counting(monkeypatch, dp, "_next_atoms", built)
        got = dp._ladder_objectives(
            zero_vf(self.GRID), s, dp._route(s, STOP_LOSS), x, params,
            lambda p: np.interp(p, bp, bv),
            search.retained,
        )
        assert [np.size(args[2]) for args in built] == [2 * ladder.size]
        want = _objectives(zero_vf(self.GRID), s, x, params, search)
        assert np.array_equal(_bits(got), _bits(want))

    def test_one_stage_solve_builds_rows_per_distinct_ladder(self, monkeypatch):
        size = 32
        cfg = ModelConfig(1, (es_stage(m=101, constrained=False),), GridSpec(-0.5, 1.5, size),
                          SearchSpec("stop-loss"))
        searched, built = [], []
        _counting(monkeypatch, dp, "_ladder_objectives", searched)
        _counting(monkeypatch, dp, "_next_atoms", built)
        stats = []
        solve_finite(cfg, stats)
        ladders = sum(len({row.tobytes() for row in args[4]}) for args in searched)
        assert [np.shape(args[4]) for args in searched] == [(size, 65)] * 3
        assert ladders < 3 * size
        assert sum(np.size(args[2]) for args in built) == ladders * 65
        assert stats[0]["argmin_evaluations"] == size * 3 * 65

    @pytest.mark.parametrize("family", ["stop-loss", "layer", "proportional"])
    @pytest.mark.parametrize(
        "risk_id, income_id",
        [("es", "point"), ("var", "5-atom"), ("ph", "3-atom"), ("entropic", "point")],
    )
    def test_one_point_interval_takes_one_probe(self, monkeypatch, risk_id, income_id, family):
        s = _grid_stage(risk_id, income_id)
        search = _grid_search(family, s.dY)
        grid = self.GRID
        lo, hi = treaties.feasible_retention_range(
            search.curve(s.premium, s.dY), np.maximum(grid, 0.0)
        )
        one = int(np.count_nonzero(lo >= hi))
        # the budget grid reaches x <= 0, where only the zero-premium end fits
        assert 0 < one < grid.size
        v = self._continuation()
        stats = {}
        fast, row = bellman_step(v, s, grid, search, stats)
        assert stats["argmin_evaluations"] == (grid.size - one) * 3 * 65 + one
        monkeypatch.setattr(dp, "_one_point", lambda lo, hi: np.zeros(lo.shape, dtype=bool))
        stats = {}
        zoomed, zoomed_row = bellman_step(v, s, grid, search, stats)
        assert stats["argmin_evaluations"] == grid.size * 3 * 65
        assert np.array_equal(_bits(fast.values), _bits(zoomed.values))
        assert [f.params for f in row] == [f.params for f in zoomed_row]

    # the full-support PH stage has no zero head, the ES stage does
    @pytest.mark.parametrize("risk_id", ["ph", "es"])
    def test_solve_and_policy_evaluation_unchanged_with_every_reduction_off(self, monkeypatch,
                                                                            risk_id):
        s = StageData(uniform01(31), EQUAL_INCOMES["3-atom-uniform"](), RISKS[risk_id],
                      PremiumSpec("expected", theta=0.2), 0.9)
        assert (_shared_head(s) > 0) == (risk_id == "es")
        cfg = ModelConfig(2, (s,), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        values, policy = solve_finite(cfg)
        evaluated = evaluate_policy(policy, cfg)
        forced = _forcing_route(monkeypatch, "per-pair")
        monkeypatch.setattr(dp, "_is_zero", lambda v: False)
        monkeypatch.setattr(dp, "_one_point", lambda lo, hi: np.zeros(lo.shape, dtype=bool))
        values_off, policy_off = solve_finite(cfg)
        assert forced == ["tail"] * 2
        for v, v_off in zip(values, values_off):
            assert np.array_equal(_bits(v.values), _bits(v_off.values))
        for row, row_off in zip(policy.rows, policy_off.rows):
            assert [f.params for f in row] == [f.params for f in row_off]
        assert np.array_equal(_bits(evaluated.values), _bits(evaluate_policy(policy, cfg).values))
        assert len(forced) == 4


def _staircase_cases():
    # seeded claim counts, income laws, budgets and levels, one level below
    # 0.5 and one from 0.5 to 0.95 per family x kind x equally likely income
    # atom count
    rng = np.random.default_rng(SEED)
    cases = []
    for family in ("stop-loss", "layer", "proportional"):
        for kind in ("expected-shortfall", "value-at-risk"):
            for kz in (3, 5, 9):
                for lo, hi in ((0.1, 0.5), (0.5, 0.95)):
                    alpha = round(float(rng.uniform(lo, hi)), 3)
                    cases.append((family, kind, alpha, kz, int(rng.integers(11, 42)),
                                  round(float(rng.uniform(0.0, 0.4)), 3), bool(rng.integers(2))))
    return cases


class TestStaircase:
    """Keeping only the atoms an increasing treaty can weigh gives the bits of
    the unfiltered stable full sort, in solves and replays."""

    @pytest.mark.parametrize(
        "family, kind, alpha, kz, ky, z_lo, constrained", _staircase_cases(),
        ids=lambda v: str(v) if not isinstance(v, bool) else ("budget" if v else "free"),
    )
    def test_solve_and_replay_keep_the_unfiltered_bits(self, monkeypatch, family, kind, alpha,
                                                        kz, ky, z_lo, constrained):
        dY = uniform01(ky)
        dZ = discretize(FamilySpec("uniform", (z_lo, z_lo + 0.4), atoms=kz))
        s = StageData(dY, dZ, RiskSpec(kind, alpha=alpha), PremiumSpec("expected", theta=0.2),
                      0.9, constrained)
        cfg = ModelConfig(2, (s,), GridSpec(-0.5, 1.5, 17), _grid_search(family, dY))
        runs = []
        for off in (False, True):
            forced = _forcing_route(monkeypatch, "full-sort") if off else []
            values, policy = solve_finite(cfg)
            runs.append((values, policy, evaluate_policy(policy, cfg)))
        # both searched stages and both replayed ones
        assert forced == ["tail"] * 4
        (values, policy, evaluated), (values_off, policy_off, evaluated_off) = runs
        for v, v_off in zip(values, values_off):
            assert np.array_equal(_bits(v.values), _bits(v_off.values))
        for row, row_off in zip(policy.rows, policy_off.rows):
            assert [f.params for f in row] == [f.params for f in row_off]
        assert np.array_equal(_bits(evaluated.values), _bits(evaluated_off.values))

    @pytest.mark.parametrize(
        "alpha, kind, knots, kz",
        [(0.95, "expected-shortfall", (0.2, 0.6), 3),
         (0.9, "value-at-risk", (0.1, 0.3, 0.5, 0.7, 0.9), 5)],
        ids=["es-two-knots", "var-five-knots"],
    )
    def test_piecewise_keeps_every_atom_and_the_unfiltered_bits(self, monkeypatch, alpha, kind,
                                                                 knots, kz):
        # the piecewise map can fall by an ulp between atoms: on these
        # stages keeping only the staircase's atoms moves solved bits
        dZ = discretize(FamilySpec("uniform", (0.1, 0.5), atoms=kz))
        s = StageData(uniform01(41), dZ, RiskSpec(kind, alpha=alpha),
                      PremiumSpec("expected", theta=0.2), 1.0)
        search = SearchSpec("piecewise-linear", knots=knots, resolution=8, sweeps=2)
        cfg = ModelConfig(2, (s,), GridSpec(-0.5, 1.5, 32), search)
        runs = []
        for off in (False, True):
            forced = _forcing_route(monkeypatch, "full-sort") if off else []
            values, policy = solve_finite(cfg)
            runs.append((values, policy, evaluate_policy(policy, cfg)))
        assert forced == ["tail"] * 4
        (values, policy, evaluated), (values_off, policy_off, evaluated_off) = runs
        for v, v_off in zip(values, values_off):
            assert np.array_equal(_bits(v.values), _bits(v_off.values))
        for row, row_off in zip(policy.rows, policy_off.rows):
            assert [f.params for f in row] == [f.params for f in row_off]
        assert np.array_equal(_bits(evaluated.values), _bits(evaluated_off.values))


class TestPolicyValuesSolve:
    """The solve-infinite jump's affine solve is the fixed point of apply_L."""

    @pytest.mark.parametrize("constrained", [True, False], ids=["budget", "free"])
    @pytest.mark.parametrize("family", ["stop-loss", "proportional", "layer"])
    @pytest.mark.parametrize("income_id", ["point", "3-atom"])
    @pytest.mark.parametrize("risk_id", ["mean", "es", "ph", "spectral-anti"])
    def test_fixed_point_of_apply_L(self, risk_id, income_id, family, constrained):
        s = _grid_stage(risk_id, income_id)
        s = StageData(s.dY, s.dZ, s.risk, s.premium, s.beta, constrained)
        search = _grid_search(family, s.dY)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 17), search)
        grid = cfg.grid.points()
        tail = -1.0 / (1.0 - s.beta)
        # a seeded, affordable row: the minimizers from a random continuation
        b_low, b_high = bounding_functions(cfg, 0)
        v0 = random_inside(np.random.default_rng(SEED), grid, b_low, b_high, (tail, tail))
        _, row = bellman_step(v0, s, grid, search)
        u = dp._policy_values_solve(row, cfg, grid, tail)
        v = ValueFunction(grid, u, tail, tail)
        scale = float(np.max(np.abs(u)))
        for j, (x, f) in enumerate(zip(grid, row)):
            assert apply_L(v, x, f, s) == pytest.approx(u[j], rel=1e-9, abs=1e-9 * scale), j

    @pytest.mark.parametrize("family", ["stop-loss", "layer"])
    def test_tail_route_gives_the_full_sort_fixed_point(self, monkeypatch, family):
        # equally likely income under ES: the jump scatters only the
        # weighted tail of each row
        s = StageData(uniform01(31), EQUAL_INCOMES["3-atom-uniform"](), RISKS["es"],
                      PremiumSpec("expected", theta=0.2), 0.9)
        assert _shared_head(s) > 0
        search = _grid_search(family, s.dY)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 17), search)
        grid = cfg.grid.points()
        tail = -1.0 / (1.0 - s.beta)
        b_low, b_high = bounding_functions(cfg, 0)
        v0 = random_inside(np.random.default_rng(SEED), grid, b_low, b_high, (tail, tail))
        _, row = bellman_step(v0, s, grid, search)
        u = dp._policy_values_solve(row, cfg, grid, tail)
        forced = _forcing_route(monkeypatch, "full-sort")
        assert np.array_equal(_bits(u), _bits(dp._policy_values_solve(row, cfg, grid, tail)))
        assert forced == ["tail"]
        v = ValueFunction(grid, u, tail, tail)
        scale = float(np.max(np.abs(u)))
        for j, (x, f) in enumerate(zip(grid, row)):
            assert apply_L(v, x, f, s) == pytest.approx(u[j], rel=1e-9, abs=1e-9 * scale), j


class TestBatchedAtomWeights:
    """Rows of a batched atom_weights call are bitwise the 1-D calls."""

    @pytest.mark.parametrize("risk_id", [r for r in RISKS if r != "entropic"])
    def test_rows_bitwise_equal(self, risk_id):
        rng = np.random.default_rng(SEED)
        probs = rng.uniform(0.0, 1.0, size=(3, 4, 17))
        probs[0, 1, 5] = 0.0
        probs /= probs.sum(axis=-1, keepdims=True)
        spec = RISKS[risk_id]
        got = atom_weights(spec, probs)
        assert got.shape == probs.shape
        for idx in np.ndindex(probs.shape[:-1]):
            assert np.array_equal(got[idx], atom_weights(spec, probs[idx])), idx

    def test_scalar_only_handle(self):
        # math.sqrt rejects arrays, so the handle is called point by point
        spec = RiskSpec("distortion", distortion=lambda u: math.sqrt(u))
        probs = np.full((2, 5), 0.2)
        probs[1] = [0.1, 0.4, 0.2, 0.2, 0.1]
        got = atom_weights(spec, probs)
        for r in range(2):
            assert np.array_equal(got[r], atom_weights(spec, probs[r]))


class TestBellmanStep:
    def test_unconstrained_terminal_is_affine(self):
        s = es_stage(m=401, beta=0.9, alpha=0.9, theta=0.1, z=0.3, constrained=False)
        grid = np.linspace(-2.0, 2.0, 65)
        v, row = bellman_step(zero_vf(grid), s, grid, SearchSpec("stop-loss"))
        params = np.array([f.params["a"] for f in row])
        assert np.all(params == params[0])
        # affine with slope -1
        slopes = np.diff(v.values) / np.diff(grid)
        np.testing.assert_allclose(slopes, -1.0, atol=1e-9)
        # the attained constant against a brute scan of the reference route
        scan = np.linspace(0.0, ess_sup(s.dY), 3001)
        vals = [apply_L(zero_vf(grid), 0.0, make_treaty("stop-loss", {"a": a}), s) for a in scan]
        assert v(0.0) == pytest.approx(min(vals), abs=2e-4)
        assert v(0.0) <= min(vals) + 1e-12

    def test_zero_budget_forces_identity(self):
        s = es_stage(m=101)
        grid = np.linspace(-0.5, 1.0, 31)
        v, row = bellman_step(zero_vf(grid), s, grid, SearchSpec("stop-loss"))
        checked = 0
        for x, f in zip(grid, row):
            if x > 1e-12:
                continue
            checked += 1
            assert f.params["a"] == pytest.approx(ess_sup(s.dY), abs=1e-12)
            assert treaty_premium(s.premium, s.dY, f) == pytest.approx(0.0, abs=1e-12)
        assert checked >= 10

    def test_budget_feasibility_of_rows(self):
        s = es_stage(m=201)
        grid = np.linspace(-0.5, 1.5, 65)
        _, row = bellman_step(zero_vf(grid), s, grid, SearchSpec("stop-loss"))
        for x, f in zip(grid, row):
            assert treaty_premium(s.premium, s.dY, f) <= max(x, 0.0) + 1e-9

    def test_var_row_ignores_continuation(self):
        # deterministic income + value-at-risk: the minimizer must not move
        # when the continuation value changes, and parameters match exactly
        s = StageData(
            uniform01(301),
            point(0.25),
            RiskSpec("value-at-risk", alpha=0.95),
            PremiumSpec("expected", theta=0.2),
            1.0,
        )
        q = var(s.dY, 0.95)
        grid = np.linspace(-0.25, 1.0, 65)
        search = SearchSpec("layer", layer_upper=q)
        cfg = ModelConfig(1, (s,), GridSpec(-0.25, 1.0, 65), search)
        b_low, b_high = bounding_functions(cfg, 0)
        rng = np.random.default_rng(SEED)
        _, row0 = bellman_step(zero_vf(grid), s, grid, search)
        for _ in range(3):
            v = random_inside(rng, grid, b_low, b_high)
            _, row = bellman_step(v, s, grid, search)
            p0 = np.array([f.params["a"] for f in row0])
            p1 = np.array([f.params["a"] for f in row])
            assert np.array_equal(p0, p1)

    def test_monotone_in_continuation(self):
        s = es_stage(m=101, beta=0.85)
        grid = np.linspace(-0.5, 1.5, 33)
        cfg = ModelConfig(1, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
        b_low, b_high = bounding_functions(cfg, 0)
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            v1 = random_inside(rng, grid, b_low, b_high)
            v2 = ValueFunction(grid, v1.values + rng.uniform(0.1, 0.5))
            t1, _ = bellman_step(v1, s, grid, SearchSpec("stop-loss"))
            t2, _ = bellman_step(v2, s, grid, SearchSpec("stop-loss"))
            assert np.all(t1.values <= t2.values + 1e-9)

    def test_output_slope_recursion(self):
        s = es_stage(beta=0.8)
        grid = np.linspace(-0.5, 1.5, 33)
        v0 = zero_vf(grid)
        v1, _ = bellman_step(v0, s, grid, SearchSpec("stop-loss"))
        assert v1.slope_right == pytest.approx(-1.0)
        v2, _ = bellman_step(v1, s, grid, SearchSpec("stop-loss"))
        assert v2.slope_right == pytest.approx(-1.8)

    def test_deterministic_rerun(self):
        s = es_stage(m=151)
        grid = np.linspace(-0.5, 1.5, 49)
        va, ra = bellman_step(zero_vf(grid), s, grid, SearchSpec("stop-loss"))
        vb, rb = bellman_step(zero_vf(grid), s, grid, SearchSpec("stop-loss"))
        assert np.array_equal(va.values, vb.values)
        assert [f.params for f in ra] == [f.params for f in rb]

    def test_piecewise_linear_family(self):
        s = es_stage(m=61, alpha=0.9, constrained=False)
        grid = np.linspace(-0.5, 1.0, 17)
        search = SearchSpec("piecewise-linear", knots=(0.0, 0.4, 0.8), resolution=16)
        v, row = bellman_step(zero_vf(grid), s, grid, search)
        ident = evaluate(s.risk, s.dY)  # keep-everything cost at x=0, z folded below
        f0 = row[0]
        got = apply_L(zero_vf(grid), grid[0], f0, s)
        assert v.values[0] == pytest.approx(got, abs=1e-9)
        # no worse than keeping everything
        keep = apply_L(zero_vf(grid), grid[0], make_treaty("identity", {}), s)
        assert v.values[0] <= keep + 1e-9
        assert ident == pytest.approx(es(s.dY, 0.9), abs=1e-12)

    def test_piecewise_linear_budget_respected_above_zero_knot(self):
        # with the first knot above zero, every returned treaty must still fit
        # the budget x+, down to the states that can afford nothing
        s = es_stage(m=101)
        grid = np.linspace(-0.5, 1.5, 32)
        search = SearchSpec("piecewise-linear", knots=(0.2, 0.6), resolution=8, sweeps=1)
        v, row = bellman_step(zero_vf(grid), s, grid, search)
        for x, f, val in zip(grid, row, v.values):
            assert treaty_premium(s.premium, s.dY, f) <= max(x, 0.0) + 1e-12, x
            ref = apply_L(zero_vf(grid), x, f, s)
            assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref)), x
        again, _ = bellman_step(zero_vf(grid), s, grid, search)
        assert np.array_equal(_bits(v.values), _bits(again.values))

    @pytest.mark.parametrize("pspec", [
        PremiumSpec("expected", theta=0.2),
        PremiumSpec("ph", theta=0.1, gamma=0.6),
        PremiumSpec("wang", theta=0.3, distortion=distortion_preset("es:0.5")),
    ], ids=["expected", "ph", "wang"])
    def test_segment_prices_match_treaty_premium(self, pspec):
        # a piecewise treaty's price is its segment prices weighted by 1 - slopes
        rng = np.random.default_rng(SEED)
        claims = (
            uniform01(101),
            make_discrete([(0.0, 0.2), (0.3, 0.5), (0.9, 0.3)]),
            discretize(FamilySpec("exponential", (2.0,), truncation=3.0, atoms=64)),
        )
        for dY in claims:
            s = StageData(dY, point(0.3), RiskSpec("expected-shortfall", alpha=0.9), pspec, 1.0)
            top = ess_sup(dY)
            for knots in ((0.0,), (0.2, 0.6), (0.0, 0.4, 0.8), (0.5, top + 0.5), (top + 0.1,)):
                seg = dp._price_weights(s) @ _knot_segments(np.asarray(knots), dY.values)
                for _ in range(5):
                    slopes = rng.uniform(0.0, 1.0, len(knots))
                    f = make_treaty("piecewise-linear", {"knots": knots, "slopes": slopes})
                    want = treaty_premium(pspec, dY, f)
                    assert seg @ (1.0 - slopes) == pytest.approx(want, abs=1e-12), knots

    def test_budget_step_reads_one_curve(self, monkeypatch):
        # the feasible intervals of all states and the candidates of every
        # zoom level are read off one premium curve
        s = es_stage(m=201)
        grid = np.linspace(-0.5, 1.5, 512)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return premium_breakpoints(*args, **kwargs)

        monkeypatch.setattr(dp, "premium_breakpoints", counting)
        monkeypatch.setattr(treaties, "premium_breakpoints", counting)
        bellman_step(zero_vf(grid), s, grid, SearchSpec("stop-loss"))
        assert len(calls) == 1


def _sequential_pw_search(v_next, s, grid, search):
    # the reference piecewise-linear search: coordinate descent from the
    # identity treaty, state by state, each affordable candidate scored by
    # apply_L and kept if strictly better than the best so far
    knots = np.asarray(search.knots)
    cand = np.linspace(0.0, 1.0, search.resolution + 1)
    seg = dp._price_weights(s) @ _knot_segments(knots, s.dY.values)
    budgets = np.maximum(grid, 0.0) if s.budget_constrained else np.full(grid.size, np.inf)
    values, rows = [], []
    for x, budget in zip(grid, budgets):
        slopes = np.ones(knots.size)
        best_f = make_treaty(search.family, {"knots": knots, "slopes": slopes})
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
        values.append(best)
        rows.append(best_f)
    return np.asarray(values), rows


PW_RISKS = {k: RISKS[k] for k in ("es", "var", "ph", "entropic")}
PW_INCOMES = {"point": INCOMES["point"], "equal": INCOMES["5-atom"], "unequal": INCOMES["3-atom"]}
# with 0, a single knot, an interior pair, and one knot above the top claim
PW_KNOTS = {"zero": (0.0, 0.4, 0.8), "single": (0.3,), "pair": (0.2, 0.6), "above": (0.5, 1.5)}


class TestPiecewiseSearch:
    """The batched coordinate descent against the sequential apply_L scan."""

    GRID = np.linspace(-0.5, 1.5, 24)

    @pytest.mark.parametrize("constrained", [True, False], ids=["budget", "free"])
    @pytest.mark.parametrize("knots_id", list(PW_KNOTS))
    @pytest.mark.parametrize("income_id", list(PW_INCOMES))
    @pytest.mark.parametrize("risk_id", list(PW_RISKS))
    def test_same_slopes_as_the_sequential_scan(self, risk_id, income_id, knots_id, constrained):
        s = StageData(
            uniform01(21), PW_INCOMES[income_id](), PW_RISKS[risk_id],
            PremiumSpec("expected", theta=0.2), 0.9, constrained,
        )
        grid = self.GRID
        v = ValueFunction(grid, -1.2 * grid - 0.1 * grid**2 * (grid > 0), -1.2, -1.6)
        search = SearchSpec("piecewise-linear", knots=PW_KNOTS[knots_id], resolution=8, sweeps=2)
        got, row = bellman_step(v, s, grid, search)
        want, ref_row = _sequential_pw_search(v, s, grid, search)
        for j, (x, f, g) in enumerate(zip(grid, row, ref_row)):
            if f.params["slopes"] != g.params["slopes"]:
                gap = apply_L(v, x, f, s) - apply_L(v, x, g, s)
                pytest.fail(f"state {j}: slopes {f.params['slopes']} against"
                            f" {g.params['slopes']}, objective gap {gap:.3g}")
        # the same treaties, whose batched scores are apply_L's to rounding
        gap = np.abs(got.values - want) / (1.0 + np.abs(want))
        assert np.max(gap) <= 1e-12, int(np.argmax(gap))
        again, _ = bellman_step(v, s, grid, search)
        assert np.array_equal(_bits(got.values), _bits(again.values))

    @pytest.mark.parametrize("knots_id", ["zero", "pair"])
    @pytest.mark.parametrize("income_id", list(PW_INCOMES))
    @pytest.mark.parametrize("risk_id", list(PW_RISKS))
    def test_only_affordable_pairs_are_scored(self, monkeypatch, risk_id, income_id, knots_id):
        s = StageData(uniform01(21), PW_INCOMES[income_id](), PW_RISKS[risk_id],
                      PremiumSpec("expected", theta=0.2), 0.9)
        grid = self.GRID
        v = ValueFunction(grid, -1.2 * grid - 0.1 * grid**2 * (grid > 0), -1.2, -1.6)
        search = SearchSpec("piecewise-linear", knots=PW_KNOTS[knots_id], resolution=8, sweeps=2)
        # reference: every pair scored, the unaffordable ones masked after
        with monkeypatch.context() as m:
            affordable = _scoring_every_pair(m, s)
            want, want_row, _ = dp._pw_search(v, s, dp._route(s, (search.family,)), grid, search)
        scored = []
        _counting(monkeypatch, dp, "_candidate_objectives", scored)
        got, row, _ = dp._pw_search(v, s, dp._route(s, (search.family,)), grid, search)
        # the budget grid reaches x <= 0, where only slopes near one fit
        assert sum(np.size(args[4]) for args in scored) == affordable[0]
        assert affordable[0] < grid.size * (1 + search.sweeps * len(search.knots) * 9)
        assert np.array_equal(_bits(got), _bits(want))
        assert [f.params["slopes"] for f in row] == [f.params["slopes"] for f in want_row]
        # the count still holds every pair the search ranked
        stats = {}
        bellman_step(v, s, grid, search, stats)
        assert stats["argmin_evaluations"] == grid.size * (1 + 2 * len(search.knots) * 9)


def _scoring_every_pair(monkeypatch, s):
    # lift the search's budget so every (state, candidate) pair is scored,
    # then mask the unaffordable ones to +inf; returns [affordable pairs]
    budgets, score, affordable = dp._budgets, dp._candidate_objectives, [0]

    def masked(v, s, route, x, prem, retained):
        over = prem > budgets(s, np.ravel(x)) + 1e-12
        affordable[0] += int(np.count_nonzero(~over))
        return np.where(over, np.inf, score(v, s, route, x, prem, retained))

    monkeypatch.setattr(dp, "_budgets", lambda s, grid: np.full(grid.size, np.inf))
    monkeypatch.setattr(dp, "_candidate_objectives", masked)
    return affordable


# a search of each family, and the objective evaluations it runs on a
# 32-state grid: the zoom's 3 levels x 17 rungs per state with an interval,
# or the piecewise start then 2 sweeps x 2 knots x 17 slope candidates
CHECKED_SEARCHES = {
    "stop-loss": (SearchSpec("stop-loss", resolution=16), 3 * 17),
    "layer": (SearchSpec("layer", resolution=16, layer_upper=0.9), 3 * 17),
    "proportional": (SearchSpec("proportional", resolution=16), 3 * 17),
    "piecewise-linear": (
        SearchSpec("piecewise-linear", knots=(0.2, 0.6), resolution=16, sweeps=2),
        1 + 2 * 2 * 17,
    ),
}


class TestSearchCheckedAgainstApplyL:
    """Every searched stage value is the batched evaluator's, and apply_L
    checks it at the first, middle and last state of every step."""

    GRID = np.linspace(-0.5, 1.5, 32)

    @pytest.mark.parametrize("family", list(CHECKED_SEARCHES))
    def test_three_apply_L_calls_per_step(self, monkeypatch, family):
        search, per_state = CHECKED_SEARCHES[family]
        grid = self.GRID
        log = []
        _counting(monkeypatch, dp, "apply_L", log)
        stats = {}
        bellman_step(zero_vf(grid), es_stage(m=101, constrained=False), grid, search, stats)
        assert [float(args[1]) for args in log] == [grid[0], grid[grid.size // 2], grid[-1]]
        assert stats["argmin_evaluations"] == grid.size * per_state

    # the evaluator each search scores through: on the zero terminal value a
    # scalar search prices each distinct ladder once, by _ladder_objectives
    @pytest.mark.parametrize(
        "family, seam",
        [("stop-loss", "_ladder_objectives"), ("piecewise-linear", "_candidate_objectives")],
        ids=["stop-loss", "piecewise-linear"],
    )
    def test_batched_value_off_apply_L_raises(self, monkeypatch, family, seam):
        search, _ = CHECKED_SEARCHES[family]
        grid = self.GRID
        real = getattr(dp, seam)

        def shifted(*args):
            # without a budget every state searches: shift every candidate of
            # the middle state, the rows or pairs whose surplus x is its own
            out = real(*args).copy()
            out[np.asarray(args[3]) == grid[grid.size // 2]] += 1e-6
            return out

        monkeypatch.setattr(dp, seam, shifted)
        s = es_stage(m=101, constrained=False)
        middle = grid[grid.size // 2]
        with pytest.raises(NumericError, match=rf"^searched value .* x = {middle:.6g} "):
            bellman_step(zero_vf(grid), s, grid, search)


class TestWeightedNorm:
    def make_cfg(self, beta=0.5):
        # eta = rho(Y) + pi(Y) + ess sup Z = 0.4 + 0.4 + 0.2 = 1 with theta=0
        s = StageData(
            dY=point(0.4),
            dZ=point(0.2),
            risk=RiskSpec("expected-shortfall", alpha=0.5),
            premium=PremiumSpec("expected", theta=0.0),
            beta=beta,
        )
        return ModelConfig(None, (s,), GridSpec(-1.0, 1.0, 17), SearchSpec("stop-loss"))

    def test_zero_for_equal(self):
        cfg = self.make_cfg()
        grid = cfg.grid.points()
        v = zero_vf(grid)
        assert weighted_norm(v, v, cfg) == 0.0

    def test_unit_gap_hand_value(self):
        # beta = 0.5, eta = 1: b(0) = 1 / (1-beta)^2 = 4, so a constant unit
        # gap has norm 1/4 (grid contains 0)
        cfg = self.make_cfg()
        grid = cfg.grid.points()
        v1 = zero_vf(grid)
        v2 = ValueFunction(grid, -np.ones_like(grid))
        assert weighted_norm(v1, v2, cfg) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self):
        cfg = self.make_cfg()
        grid = cfg.grid.points()
        rng = np.random.default_rng(SEED)
        v1 = ValueFunction(grid, -np.cumsum(rng.uniform(0.0, 0.1, grid.size)))
        v2 = ValueFunction(grid, -np.cumsum(rng.uniform(0.0, 0.1, grid.size)))
        assert weighted_norm(v1, v2, cfg) == weighted_norm(v2, v1, cfg)

    def test_grid_mismatch(self):
        cfg = self.make_cfg()
        grid = cfg.grid.points()
        other = np.linspace(-1.0, 1.0, 16)
        with pytest.raises(GridMismatch):
            weighted_norm(zero_vf(grid), zero_vf(other), cfg)


def affine_cfg(n=5, m=201, count=257, constrained=False, horizon_beta=0.9):
    s = StageData(
        dY=uniform01(m),
        dZ=point(0.3),
        risk=RiskSpec("expected-shortfall", alpha=0.9),
        premium=PremiumSpec("expected", theta=0.1),
        beta=horizon_beta,
        budget_constrained=constrained,
    )
    return ModelConfig(n, (s,), GridSpec(-2.0, 2.0, count), SearchSpec("stop-loss"))


class TestSolveFinite:
    def test_shapes_and_terminal(self):
        cfg = affine_cfg(n=3, m=101, count=33)
        values, policy = solve_finite(cfg)
        assert len(values) == 4
        assert np.all(values[3].values == 0.0)
        assert len(policy.rows) == 3

    def test_single_stage_equals_direct_step(self):
        cfg = affine_cfg(n=1, m=101, count=33)
        values, policy = solve_finite(cfg)
        grid = cfg.grid.points()
        v, row = bellman_step(zero_vf(grid), cfg.stage(0), grid, cfg.search)
        assert np.array_equal(values[0].values, v.values)
        assert [f.params for f in policy.rows[0]] == [f.params for f in row]

    def test_affine_structure(self):
        # unconstrained: J_n(x) = i_n - s_n x with s_n = sum_{k<N-n} beta^k
        # and i_n = s_n c + beta i_{n+1} for one scalar c
        beta = 0.9
        cfg = affine_cfg(n=5, m=201, count=257)
        values, policy = solve_finite(cfg)
        grid = cfg.grid.points()
        c_ref = None
        for n in range(5):
            want_slope = -sum(beta**k for k in range(5 - n))
            fit = np.polyfit(grid, values[n].values, 1)
            assert fit[0] == pytest.approx(want_slope, rel=1e-9)
            resid = values[n].values - (fit[0] * grid + fit[1])
            assert np.max(np.abs(resid)) < 1e-9
            params = np.array([f.params["a"] for f in policy.rows[n]])
            assert np.max(params) - np.min(params) < 1e-12
        # intercept recursion pinned by the stage-independent scalar
        c_ref = values[4](0.0)
        for n in range(4, -1, -1):
            s_n = sum(beta**k for k in range(5 - n))
            i_next = 0.0 if n == 4 else values[n + 1](0.0)
            assert values[n](0.0) == pytest.approx(s_n * c_ref + beta * i_next, abs=1e-9)
        # the scalar itself against a brute scan of the reference route
        s = cfg.stage(0)
        scan = np.linspace(0.0, ess_sup(s.dY), 4001)
        vals = [
            apply_L(zero_vf(grid), 0.0, make_treaty("stop-loss", {"a": a}), s) for a in scan
        ]
        assert c_ref == pytest.approx(min(vals), abs=5e-4)

    def test_values_decreasing_and_in_envelope(self):
        cfg = ModelConfig(
            3, (es_stage(m=151, beta=0.85),), GridSpec(-0.5, 1.5, 65), SearchSpec("stop-loss")
        )
        values, _ = solve_finite(cfg)
        grid = cfg.grid.points()
        for n, v in enumerate(values):
            assert np.all(np.diff(v.values) <= 1e-9)
            b_low, b_high = bounding_functions(cfg, n)
            lo, hi = b_low(grid), b_high(grid)
            assert np.all(v.values >= lo - 1e-6 * (1.0 + np.abs(lo)))
            assert np.all(v.values <= hi + 1e-6 * (1.0 + np.abs(hi)))

    def test_constrained_rows_feasible(self):
        cfg = ModelConfig(
            2, (es_stage(m=151),), GridSpec(-0.5, 1.5, 65), SearchSpec("stop-loss")
        )
        _, policy = solve_finite(cfg)
        s = cfg.stage(0)
        grid = cfg.grid.points()
        for row in policy.rows:
            for x, f in zip(grid, row):
                assert treaty_premium(s.premium, s.dY, f) <= max(x, 0.0) + 1e-9

    def test_per_stage_heterogeneous(self):
        s1 = es_stage(m=101, beta=0.9, alpha=0.9)
        s2 = es_stage(m=101, beta=0.9, alpha=0.95)
        cfg = ModelConfig(2, (s1, s2), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
        values, policy = solve_finite(cfg)
        assert len(values) == 3
        assert len(policy.rows) == 2

    def test_deterministic_rerun(self):
        cfg = affine_cfg(n=2, m=151, count=65, constrained=True)
        va, pa = solve_finite(cfg)
        vb, pb = solve_finite(cfg)
        for x, y in zip(va, vb):
            assert np.array_equal(x.values, y.values)
        for ra, rb in zip(pa.rows, pb.rows):
            assert [f.params for f in ra] == [f.params for f in rb]

    @pytest.mark.parametrize(
        "spectrum", [RISKS["spectral-quad"].spectrum, es_spectrum(0.9)], ids=["linear", "es-0.9"]
    )
    def test_spectral_solve_is_its_distortion_solve(self, spectrum):
        # g(u) = 1 - Phi(1 - u) (Dhaene et al., Stochastic Models 22(4), 2006)
        phi = spectrum.antiderivative
        risks = (
            RiskSpec("spectral", spectrum=spectrum),
            RiskSpec("distortion", distortion=lambda u: 1.0 - phi(1.0 - np.asarray(u))),
        )
        stage0 = []
        for risk in risks:
            s = StageData(uniform01(101), point(0.3), risk, PremiumSpec("expected", theta=0.2), 0.9)
            cfg = ModelConfig(2, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
            stage0.append(solve_finite(cfg)[0][0].values)
        np.testing.assert_allclose(stage0[0], stage0[1], rtol=0, atol=1e-9)


class TestEvaluatePolicy:
    def test_optimal_policy_reproduces_value(self):
        cfg = ModelConfig(
            2, (es_stage(m=151),), GridSpec(-0.5, 1.5, 65), SearchSpec("stop-loss")
        )
        values, policy = solve_finite(cfg)
        j_pi = evaluate_policy(policy, cfg)
        np.testing.assert_allclose(j_pi.values, values[0].values, atol=1e-12)

    def test_identity_policy_upper_bounds(self):
        cfg = ModelConfig(
            2, (es_stage(m=151),), GridSpec(-0.5, 1.5, 65), SearchSpec("stop-loss")
        )
        values, _ = solve_finite(cfg)
        grid = cfg.grid.points()
        ident = make_treaty("identity", {})
        rows = tuple(tuple(ident for _ in grid) for _ in range(2))
        table = PolicyTable(grid, rows)
        j_pi = evaluate_policy(table, cfg)
        assert np.all(j_pi.values >= values[0].values - 1e-9)

    def test_single_stage_formula(self):
        cfg = ModelConfig(
            1, (es_stage(m=151),), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss")
        )
        grid = cfg.grid.points()
        s = cfg.stage(0)
        f = make_treaty("stop-loss", {"a": ess_sup(s.dY)})
        table = PolicyTable(grid, (tuple(f for _ in grid),))
        j_pi = evaluate_policy(table, cfg)
        for j, x in enumerate(grid):
            assert j_pi.values[j] == pytest.approx(apply_L(zero_vf(grid), x, f, s), abs=1e-10)

    def test_infeasible_row_rejected(self):
        cfg = ModelConfig(
            1, (es_stage(m=151),), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss")
        )
        grid = cfg.grid.points()
        cheap_nothing = make_treaty("stop-loss", {"a": 0.0})  # full cession, costly
        table = PolicyTable(grid, (tuple(cheap_nothing for _ in grid),))
        with pytest.raises(InfeasiblePolicyRow):
            evaluate_policy(table, cfg)

    def test_rising_cost_to_go_refused_as_input(self):
        # one state of stage 1 retains every claim while its neighbours cede:
        # the policy's cost-to-go rises there, which no value function holds,
        # so the policy is refused as input, not as a numeric failure
        cfg = ModelConfig(2, (es_stage(m=21),), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        _, solved = solve_finite(cfg)
        row = solved.rows[1][:15] + (make_treaty("stop-loss", {"a": 5.0}),) + solved.rows[1][16:]
        policy = PolicyTable(solved.grid, (solved.rows[0], row))
        with pytest.raises(ValidationError, match=r"^stage 1: the policy's cost-to-go rises by "):
            evaluate_policy(policy, cfg)

    def test_inadmissible_custom_treaty_refused_before_pricing(self, monkeypatch):
        # y**2 stays below y on [0, 1] but cedes less as claims grow
        cfg = ModelConfig(2, (es_stage(m=101),), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        ok = make_treaty("identity", {})
        bad = make_treaty("custom", {"fn": lambda y: np.asarray(y) ** 2})
        row = (ok,) * 5 + (bad,) * (grid.size - 5)
        # the identity is applied and priced, the custom map applied and refused
        priced, applied = [], []
        _counting_prices(monkeypatch, priced)
        retained = Treaty.retained
        monkeypatch.setattr(Treaty, "retained", lambda f, y: applied.append(f) or retained(f, y))
        with pytest.raises(InvalidTreaty, match=rf"stage 1: .* x = {grid[5]:.6g} "):
            dp._policy_table(PolicyTable(grid, ((ok,) * grid.size, row)), cfg)
        assert applied == [ok, bad]
        assert len(priced) == 1 and not np.any(priced[0])
        monkeypatch.undo()
        with pytest.raises(InvalidTreaty):
            evaluate_policy(PolicyTable(grid, (row, row)), cfg)


    def test_policy_table_checks_policy_against_config(self):
        cfg = ModelConfig(2, (es_stage(m=51),), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        stationary = ModelConfig(None, cfg.stages, cfg.grid, cfg.search)
        grid = cfg.grid.points()
        row = tuple(make_treaty("identity", {}) for _ in grid)
        with pytest.raises(GridMismatch):
            dp._policy_table(PolicyTable(grid + 0.01, (row, row)), cfg)
        with pytest.raises(ValidationError, match="rows"):
            dp._policy_table(PolicyTable(grid, (row,)), cfg)
        with pytest.raises(ValidationError, match="rows"):
            dp._policy_table(PolicyTable(grid, (row, row), stationary=True), stationary)
        # a one-row policy of the other horizon kind is refused, naming its kind
        with pytest.raises(ValidationError, match="a finite policy replays only on a finite"):
            dp._policy_table(PolicyTable(grid, (row,)), stationary)
        table = PolicyTable(grid, (row,), stationary=True)
        premiums, index, claims = dp._policy_table(table, stationary)
        assert np.array_equal(premiums, [0 * grid])
        assert np.array_equal(index[0], np.zeros(grid.size))
        assert np.array_equal(claims[0], [cfg.stage(0).dY.values])

    def test_stationary_policy_replays_only_on_a_stationary_config(self):
        grid, search = GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss")
        policy = solve_infinite(ModelConfig(None, (es_stage(m=51),), grid, search)).policy
        assert policy.stationary and len(policy.rows) == 1
        # one row, as a horizon-1 config reads, but of the other kind: refused
        one_stage = ModelConfig(1, (es_stage(m=51),), grid, search)
        with pytest.raises(ValidationError, match="a stationary policy"):
            evaluate_policy(policy, one_stage)
        # the same row as a finite policy replays
        evaluate_policy(PolicyTable(policy.grid, policy.rows), one_stage)

    def test_policy_table_prices_each_treaty_once(self, monkeypatch):
        # one table per stage data: a stage data that every stage shares
        # holds each distinct treaty of every row once, a stage data per
        # stage each distinct treaty of its own row
        s = es_stage(m=151)
        grid, search = GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss")
        _, solved = solve_finite(ModelConfig(2, (s,), grid, search))
        # a treaty of each row's own: the solved rows hold the same ones
        policy = PolicyTable(solved.grid, tuple(
            row[:-1] + (make_treaty("stop-loss", {"a": a}),)
            for row, a in zip(solved.rows, (0.123, 0.456))
        ))
        per_row = [{f.params["a"] for f in row} for row in policy.rows]
        every = set.union(*per_row)
        assert len(every) > max(map(len, per_row))
        # each treaty is applied once and priced off the claims row it gave,
        # never by the reference pricer
        priced, applied = [], []
        _counting(monkeypatch, dp, "treaty_premium", priced)
        retained = Treaty.retained
        monkeypatch.setattr(Treaty, "retained", lambda f, y: applied.append(f) or retained(f, y))
        for stages in ((s,), (s, s)):
            applied.clear()
            cfg = ModelConfig(2, stages, grid, search)
            premiums, index, claims = dp._policy_table(policy, cfg)
            assert priced == []
            if len(stages) == 1:
                assert claims[0] is claims[1]
                assert len(applied) == len(claims[0]) == len(every)
            else:
                assert [len(c) for c in claims] == [len(a) for a in per_row]
                assert len(applied) == sum(map(len, per_row))
            for n, row in enumerate(policy.rows):
                for j, f in enumerate(row):
                    assert premiums[n, j] == weight_price(s, f)
                    assert premiums[n, j] == pytest.approx(
                        treaty_premium(s.premium, s.dY, f), rel=1e-12, abs=1e-12
                    )
                    assert np.array_equal(claims[n][index[n][j]], retained(f, s.dY.values))

    def test_replay_price_off_the_reference_is_a_numeric_error(self, monkeypatch):
        # the replay's prices and apply_L's come by different routes, so a
        # stored treaty priced 1e-6 dear fails the replay's three-state check
        cfg = ModelConfig(2, (es_stage(m=51, constrained=False),), GridSpec(-0.5, 1.5, 17),
                          SearchSpec("stop-loss"))
        row = (make_treaty("proportional", {"c": 0.5}),) * 17
        policy = PolicyTable(cfg.grid.points(), (row, row))
        evaluate_policy(policy, cfg)
        weights = dp._price_weights
        monkeypatch.setattr(dp, "_price_weights", lambda s: weights(s) * (1.0 + 1e-6))
        with pytest.raises(NumericError, match="stage 1: replayed value"):
            evaluate_policy(policy, cfg)

    def test_policy_table_shared_stage_holds_one_table(self):
        # three stages share one stage data over 2001 atoms: one table of the
        # distinct treaties, written in place; a table per stage, or a row
        # per treaty kept besides the table, would double the traced peak
        dY = uniform01(2001)
        s = StageData(
            dY, point(0.3), RiskSpec("value-at-risk", 0.95),
            PremiumSpec("expected", theta=0.2), 1.0, True,
        )
        cfg = ModelConfig(
            3, (s,), GridSpec(-0.5, 1.5, 257), SearchSpec("layer", layer_upper=var(dY, 0.95))
        )
        _, policy = solve_finite(cfg)
        tracemalloc.start()
        try:
            premiums, index, claims = dp._policy_table(policy, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert claims[0] is claims[1] is claims[2]
        distinct = len({f.params["a"] for row in policy.rows for f in row})
        assert claims[0].shape == (distinct, 2001)
        assert peak <= 1.25 * distinct * 2001 * 8 + 256 * 1024
        for n, row in enumerate(policy.rows):
            for j in (0, 100, 256):
                assert np.array_equal(claims[n][index[n, j]], row[j].retained(dY.values))

    def test_one_pass_tails_equal_per_start_evaluation(self):
        stages = (
            es_stage(m=101, alpha=0.9),
            _grid_stage("var", "3-atom", m=101),
            es_stage(m=101, alpha=0.95),
        )
        cfg = ModelConfig(3, stages, GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
        _, policy = solve_finite(cfg)
        tails = _policy_values(policy, cfg, dp._policy_table(policy, cfg))
        assert len(tails) == 4
        assert np.array_equal(tails[3].values, np.zeros(33))
        for n in range(3):
            sub = ModelConfig(3 - n, stages[n:], cfg.grid, cfg.search)
            want = evaluate_policy(PolicyTable(policy.grid, policy.rows[n:]), sub)
            assert np.array_equal(tails[n].values, want.values), n
            assert (tails[n].slope_left, tails[n].slope_right) == (
                want.slope_left,
                want.slope_right,
            )

    @pytest.mark.parametrize("rows", [1, 2])
    def test_stationary_config_refused_before_compile(self, monkeypatch, rows):
        # the horizon is refused first, whatever the row count
        cfg = ModelConfig(None, (es_stage(m=51),), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        row = tuple(make_treaty("stop-loss", {"a": a}) for a in np.linspace(0.0, 1.0, grid.size))
        priced = []
        _counting(monkeypatch, dp, "_price_weights", priced)
        with pytest.raises(ValidationError, match="finite horizon"):
            evaluate_policy(PolicyTable(grid, (row,) * rows), cfg)
        assert priced == []


SWEEP_FAMILIES = ("stop-loss", "layer", "proportional", "piecewise-linear")
SWEEP_RISKS = {
    "es": RiskSpec("expected-shortfall", alpha=0.9),
    "var": RiskSpec("value-at-risk", alpha=0.9),
    "ph": RiskSpec("distortion", distortion=distortion_preset("ph:0.7")),
    "entropic": RiskSpec("entropic", gamma=1.5),
}
SWEEP_INCOMES = {
    "point": lambda: point(0.3),
    "uniform-3": lambda: discretize(FamilySpec("uniform", (0.1, 0.5), atoms=3)),
    "pairs": lambda: make_discrete([(0.0, 0.2), (0.3, 0.5), (0.6, 0.3)]),
}


def _sweep_config(i):
    # a small config drawn from the seeded sweep: 16-33 states, 21-41 claim
    # atoms, horizon 1-3
    rng = np.random.default_rng(SEED + i)
    family = SWEEP_FAMILIES[rng.integers(len(SWEEP_FAMILIES))]
    risk = list(SWEEP_RISKS.values())[rng.integers(len(SWEEP_RISKS))]
    income = list(SWEEP_INCOMES.values())[rng.integers(len(SWEEP_INCOMES))]
    dY = uniform01(int(rng.integers(21, 42)))
    s = StageData(dY, income(), risk, PremiumSpec("expected", theta=0.2), 0.9,
                  budget_constrained=bool(rng.integers(2)))
    if family == "piecewise-linear":
        search = SearchSpec(family, knots=(0.2, 0.6), resolution=8)
    else:
        search = _grid_search(family, dY)
    grid = GridSpec(-0.5, 1.5, int(rng.integers(16, 34)))
    return ModelConfig(int(rng.integers(1, 4)), (s,), grid, search)


def _assert_table_is_per_row(policy, cfg):
    # the compiled table against a per-row weight price and retained, bit for bit
    premiums, index, claims = dp._policy_table(policy, cfg)
    for n, row in enumerate(policy.rows):
        s = cfg.stage(n)
        want = [weight_price(s, f) for f in row]
        assert np.array_equal(_bits(premiums[n]), _bits(np.array(want))), n
        for j, f in enumerate(row):
            got = claims[n][index[n, j]]
            assert np.array_equal(_bits(got), _bits(f.retained(s.dY.values))), (n, j)


def _mixed_policy(rng, grid, horizon):
    # every kind of row a policy can hold, each drawn from a few parameter
    # values so that treaties repeat within and across rows; the two custom
    # maps are shared objects, known by identity
    customs = [make_treaty("custom", {"fn": lambda y, c=c: y - c * np.asarray(y) ** 2 / 2})
               for c in (0.1, 0.3)]

    def draw(j):
        kind = j % 7
        if kind == 0:
            return make_treaty("identity", {})
        if kind == 1:
            return make_treaty("full-cession", {})
        if kind == 2:
            return make_treaty("stop-loss", {"a": rng.choice([0.3, 0.6])})
        if kind == 3:
            return make_treaty("layer", {"a": rng.choice([0.2, 0.4]), "w": 0.3})
        if kind == 4:
            return make_treaty("proportional", {"c": rng.choice([0.5, 0.8])})
        if kind == 5:
            slopes = [1.0, rng.choice([0.5, 0.75])]
            return make_treaty("piecewise-linear", {"knots": [0.2, 0.6], "slopes": slopes})
        return customs[rng.integers(2)]

    return PolicyTable(grid, tuple(tuple(draw(j) for j in range(grid.size))
                                   for _ in range(horizon)))


class TestPolicyTableCompile:
    """_policy_table keys every row, compiles each distinct treaty once per
    stage data and checks budgets last: its table is the per-row one."""

    @pytest.mark.parametrize("i", range(24))
    def test_sweep_table_is_per_row_and_replays_the_solve(self, i):
        cfg = _sweep_config(i)
        values, policy = solve_finite(cfg)
        _assert_table_is_per_row(policy, cfg)
        got, want = evaluate_policy(policy, cfg).values, values[0].values
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("per_period", [False, True], ids=["shared", "per-period"])
    def test_mixed_policy_table_is_per_row(self, per_period):
        rng = np.random.default_rng(SEED)
        first = StageData(uniform01(31), point(0.3), RISKS["es"],
                          PremiumSpec("expected", theta=0.2), 0.9, budget_constrained=False)
        second = StageData(uniform01(21), point(0.3), RISKS["ph"],
                           PremiumSpec("expected", theta=0.3), 0.9, budget_constrained=False)
        stages = (first, second, first) if per_period else (first,)
        cfg = ModelConfig(3, stages, GridSpec(-0.5, 1.5, 29), SearchSpec("stop-loss"))
        policy = _mixed_policy(rng, cfg.grid.points(), 3)
        _assert_table_is_per_row(policy, cfg)
        _, _, claims = dp._policy_table(policy, cfg)
        distinct = {dp._treaty_key(f) for row in policy.rows for f in row}
        if per_period:
            assert [c.shape[1] for c in claims] == [31, 21, 31]
        else:
            assert claims[0] is claims[1] is claims[2]
            assert len(claims[0]) == len(distinct) < 3 * cfg.grid.count

    @pytest.mark.parametrize("pspec", [
        PremiumSpec("expected", theta=0.2),
        PremiumSpec("ph", theta=0.1, gamma=0.6),
        PremiumSpec("wang", theta=0.3, distortion=distortion_preset("es:0.5")),
        PremiumSpec("wang", theta=0.05, distortion=distortion_preset("ph:0.4")),
    ], ids=["expected", "ph", "wang-es", "wang-ph"])
    @pytest.mark.parametrize("law", [
        lambda: uniform01(2001),
        lambda: discretize(FamilySpec("lognormal", (0.0, 0.5), truncation=4.0, atoms=201)),
        lambda: discretize(FamilySpec("exponential", (2.0,), truncation=3.0, atoms=64)),
        lambda: make_discrete([(0.0, 0.2), (0.3, 0.5), (0.9, 0.3)]),
    ], ids=["uniform-2001", "lognormal", "exponential", "pairs-with-0"])
    def test_weight_price_pins_treaty_premium(self, pspec, law):
        # every family's treaty, priced by the table's weights, against the
        # reference pricer; a treaty that cedes nothing prices exactly 0.0
        dY = law()
        top = float(dY.values[-1])
        rng = np.random.default_rng(SEED)
        nothing = [
            make_treaty("identity", {}),
            make_treaty("proportional", {"c": 1.0}),
            make_treaty("stop-loss", {"a": top}),
            make_treaty("stop-loss", {"a": top + 0.5}),
            make_treaty("piecewise-linear", {"knots": [0.1, 0.5], "slopes": [1.0, 1.0]}),
        ]
        # a zero-width layer retains max(min(a, y), (y - a) + a): a claim's own
        # bits or an ulp off them, so it cedes nothing or a few ulps either way
        row = nothing + [make_treaty("layer", {"a": a, "w": 0.0}) for a in rng.uniform(0, top, 6)]
        row.append(make_treaty("full-cession", {}))
        for _ in range(4):
            knots = np.sort(rng.uniform(0.0, 1.2 * top, 3))
            c = rng.uniform(0.1, 0.9)
            row += [
                make_treaty("proportional", {"c": rng.uniform()}),
                make_treaty("stop-loss", {"a": rng.uniform(0.0, top)}),
                make_treaty("layer", {"a": rng.uniform(0.0, top), "w": rng.uniform(0.0, top)}),
                make_treaty("piecewise-linear", {"knots": knots, "slopes": rng.uniform(size=3)}),
                make_treaty("custom", {"fn": lambda y, c=c: y - c * np.sqrt(1.0 + y) + c}),
            ]
        s = StageData(dY, point(0.3), RISKS["es"], pspec, 0.9, budget_constrained=False)
        cfg = ModelConfig(1, (s,), GridSpec(-0.5, 1.5, len(row)), SearchSpec("stop-loss"))
        (got,), _, _ = dp._policy_table(PolicyTable(cfg.grid.points(), (tuple(row),)), cfg)
        want = np.array([treaty_premium(pspec, dY, f) for f in row])
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        cedes_nothing = np.array([np.all(f.ceded(dY.values) <= 0.0) for f in row])
        assert np.all(cedes_nothing[:len(nothing)])
        assert np.all(got[cedes_nothing] == 0.0) and np.all(got >= 0.0)

    def test_inadmissible_custom_row_precedes_budget(self):
        cfg = ModelConfig(2, (es_stage(m=51),), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        ident = make_treaty("identity", {})
        over = (make_treaty("full-cession", {}),) + (ident,) * (grid.size - 1)
        bad = (ident,) * (grid.size - 1) + (make_treaty("custom", {"fn": np.square}),)
        with pytest.raises(InvalidTreaty, match="stage 1: "):
            evaluate_policy(PolicyTable(grid, (over, bad)), cfg)

    def test_over_budget_names_first_row_in_order(self):
        # full cession costs 0.6 here: over budget at every state with x < 0.6
        cfg = ModelConfig(2, (es_stage(m=51),), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        ident, full = make_treaty("identity", {}), make_treaty("full-cession", {})
        late = tuple(full if j == 4 else ident for j in range(grid.size))
        early = tuple(full if j in (1, 3) else ident for j in range(grid.size))
        with pytest.raises(InfeasiblePolicyRow, match=rf"^stage 0: .* x = {grid[4]:.6g}$"):
            evaluate_policy(PolicyTable(grid, (late, early)), cfg)
        with pytest.raises(InfeasiblePolicyRow, match=rf"^stage 1: .* x = {grid[1]:.6g}$"):
            evaluate_policy(PolicyTable(grid, ((ident,) * grid.size, early)), cfg)

    @pytest.mark.parametrize("excess, refused", [(1e-6, True), (1e-10, False)])
    def test_budget_check_allows_only_its_slack(self, excess, refused):
        # full cession priced just above the surplus 0.625 of state 9
        dY = uniform01(51)
        theta = (0.625 + excess) / dY.mean() - 1.0
        s = StageData(dY, point(0.3), RISKS["es"], PremiumSpec("expected", theta=theta), 0.9)
        cfg = ModelConfig(1, (s,), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        row = tuple(make_treaty("full-cession" if j == 9 else "identity", {})
                    for j in range(grid.size))
        if refused:
            with pytest.raises(InfeasiblePolicyRow, match="x = 0.625$"):
                dp._policy_table(PolicyTable(grid, (row,)), cfg)
        else:
            dp._policy_table(PolicyTable(grid, (row,)), cfg)


# a replayed row of each kind: every state's treaty drawn from narrow ranges,
# so that neighbouring states' values stay decreasing across the grid
def _replay_treaty(rng, family):
    if family == "layer":
        return make_treaty("layer", {"a": rng.uniform(0.35, 0.45), "w": rng.uniform(0.25, 0.35)})
    if family == "piecewise-linear":
        slopes = rng.uniform(0.7, 1.0, size=2)
        return make_treaty(family, {"knots": [0.2, 0.6], "slopes": slopes})
    if family == "stop-loss":
        return make_treaty(family, {"a": rng.uniform(0.55, 0.65)})
    if family == "proportional":
        return make_treaty(family, {"c": rng.uniform(0.75, 0.85)})
    if family == "custom":
        # h' = 1 - c y lies in [0, 1] on the claims' support: admissible
        c = rng.uniform(0.0, 0.4)
        return make_treaty(family, {"fn": lambda y: y - c * np.asarray(y) ** 2 / 2})
    return make_treaty(family, {})


def _replay_row(rng, row_id, size):
    if row_id == "mixed":
        kinds = ("layer", "piecewise-linear", "stop-loss", "proportional", "custom")
        return tuple(_replay_treaty(rng, kinds[j % len(kinds)]) for j in range(size))
    return tuple(_replay_treaty(rng, row_id) for _ in range(size))


REPLAY_ROWS = ("layer", "piecewise-linear", "identity", "full-cession", "mixed", "custom")
REPLAY_RISKS = ("mean", "var", "es", "ph", "entropic")
REPLAY_INCOMES = {
    "point": INCOMES["point"],
    "equal-3": EQUAL_INCOMES["3-atom-uniform"],
    "unequal-3": INCOMES["3-atom"],
}


def _replay_case(risk_id, income_id, horizon=2):
    s = StageData(uniform01(31), REPLAY_INCOMES[income_id](), RISKS[risk_id],
                  PremiumSpec("expected", theta=0.2), 0.9, budget_constrained=False)
    return ModelConfig(horizon, (s,), GridSpec(-1.0, 2.2, 17), SearchSpec("stop-loss"))


class TestReplayAgainstApplyL:
    """Every stored row, whatever its family, replays through the batched
    evaluator: its values are apply_L's, state by state, to rounding."""

    @pytest.mark.parametrize("row_id", REPLAY_ROWS)
    @pytest.mark.parametrize("income_id", list(REPLAY_INCOMES))
    @pytest.mark.parametrize("risk_id", REPLAY_RISKS)
    def test_rows_match_apply_L(self, risk_id, income_id, row_id):
        rng = np.random.default_rng(SEED)
        cfg = _replay_case(risk_id, income_id)
        grid, s = cfg.grid.points(), cfg.stage(0)
        policy = PolicyTable(grid, tuple(_replay_row(rng, row_id, grid.size) for _ in range(2)))
        got = evaluate_policy(policy, cfg)
        v = zero_vf(grid)
        for row in reversed(policy.rows):
            want = np.array([apply_L(v, x, f, s) for x, f in zip(grid, row)])
            v = ValueFunction(grid, want, -(1.0 - s.beta * v.slope_left),
                              -(1.0 - s.beta * v.slope_right))
        gap = np.abs(got.values - want) / (1.0 + np.abs(want))
        assert np.max(gap) <= 1e-12, int(np.argmax(gap))
        assert np.array_equal(_bits(got.values), _bits(evaluate_policy(policy, cfg).values))

    def test_apply_L_checks_three_states_per_stage(self, monkeypatch):
        cfg = _replay_case("es", "unequal-3", horizon=3)
        grid = cfg.grid.points()
        policy = PolicyTable(grid, (_replay_row(np.random.default_rng(SEED), "mixed", 17),) * 3)
        log = []
        _counting(monkeypatch, dp, "apply_L", log)
        evaluate_policy(policy, cfg)
        assert [float(args[1]) for args in log] == [grid[0], grid[8], grid[16]] * 3

    def test_batched_value_off_apply_L_raises(self, monkeypatch):
        cfg = _replay_case("var", "point")
        grid = cfg.grid.points()
        policy = PolicyTable(grid, (_replay_row(np.random.default_rng(SEED), "layer", 17),) * 2)
        real = dp._candidate_objectives

        def shifted(*args):
            out = real(*args).copy()
            out[out.size // 2] += 1e-6
            return out

        monkeypatch.setattr(dp, "_candidate_objectives", shifted)
        with pytest.raises(NumericError, match=rf"stage 1: .* x = {grid[8]:.6g} "):
            evaluate_policy(policy, cfg)


class TestScalarOnlyHandles:
    """A user function that takes only scalars gives, on every route, the
    bits of its vectorized twin (math.sqrt and min reject arrays)."""

    def test_wang_premium_solve(self):
        def solve(g):
            s = es_stage(m=101)
            wang = PremiumSpec("wang", theta=0.1, distortion=g)
            s = StageData(s.dY, s.dZ, s.risk, wang, s.beta)
            grid = GridSpec(-0.5, 1.5, 33)
            return solve_finite(ModelConfig(1, (s,), grid, SearchSpec("stop-loss")))

        (got_v, got_p), (want_v, want_p) = solve(lambda u: math.sqrt(u)), solve(np.sqrt)
        assert np.array_equal(got_v[0].values, want_v[0].values)
        assert np.array_equal(got_p.stage_params(0), want_p.stage_params(0))

    def test_custom_treaty_policy(self):
        s = es_stage(m=51, constrained=False)
        cfg = ModelConfig(2, (s,), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
        grid = cfg.grid.points()

        def policy(fn):
            f = make_treaty("custom", {"fn": fn})
            return PolicyTable(grid, ((f,) * grid.size,) * 2)

        scalar, vector = policy(lambda y: min(y, 0.5)), policy(lambda y: np.minimum(y, 0.5))
        got, want = dp._policy_table(scalar, cfg), dp._policy_table(vector, cfg)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert all(np.array_equal(g, w) for g, w in zip(got[2], want[2]))
        got_v = evaluate_policy(scalar, cfg).values
        assert np.array_equal(got_v, evaluate_policy(vector, cfg).values)
        # every stage's row against the reference route
        tails = _policy_values(scalar, cfg, got)
        f = scalar.rows[0][0]
        for n in range(2):
            for j, x in enumerate(grid):
                want_j = apply_L(tails[n + 1], x, f, s)
                assert tails[n].values[j] == pytest.approx(want_j, abs=1e-12), (n, j)


class TestContractionAndIteration:
    def small_cfg(self, beta=0.5, count=33):
        s = es_stage(m=101, beta=beta, constrained=True)
        return ModelConfig(None, (s,), GridSpec(-0.5, 1.5, count), SearchSpec("stop-loss"))

    def test_contraction_on_random_pairs(self):
        beta = 0.9
        s = es_stage(m=101, beta=beta)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        b_low, b_high = bounding_functions(cfg, 0)
        q = 1.0 - (1.0 - beta) ** 2
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            v1 = random_inside(rng, grid, b_low, b_high)
            v2 = random_inside(rng, grid, b_low, b_high)
            t1, _ = bellman_step(v1, s, grid, cfg.search)
            t2, _ = bellman_step(v2, s, grid, cfg.search)
            lhs = weighted_norm(t1, t2, cfg)
            rhs = q * weighted_norm(v1, v2, cfg) + 1e-8
            assert lhs <= rhs

    def test_geometric_decay_of_differences(self):
        # slopes pinned to the stationary tail so consecutive iterates are
        # comparable off the grid as well
        cfg = self.small_cfg(beta=0.5)
        grid = cfg.grid.points()
        s = cfg.stage(0)
        q = 1.0 - 0.25
        tail = -1.0 / (1.0 - 0.5)
        v = ValueFunction(grid, np.zeros_like(grid), slope_left=tail, slope_right=tail)
        prev_norm = None
        for _ in range(12):
            stepped, _ = bellman_step(v, s, grid, cfg.search)
            v_next = ValueFunction(grid, stepped.values, slope_left=tail, slope_right=tail)
            step = weighted_norm(v_next, v, cfg)
            if prev_norm is not None and prev_norm > 1e-12:
                assert step <= q * prev_norm + 1e-10
            prev_norm = step
            v = v_next

    def test_weak_increase_of_iterates(self):
        # later iterates may only dip below earlier ones by the residual
        # envelope tail: v_K >= v_m + b_low * q^m / (1-q)
        cfg = self.small_cfg(beta=0.5)
        grid = cfg.grid.points()
        s = cfg.stage(0)
        b_low, _ = bounding_functions(cfg, 0)
        q = 0.75
        tail = -1.0 / (1.0 - 0.5)
        iterates = [ValueFunction(grid, np.zeros_like(grid), slope_left=tail, slope_right=tail)]
        for _ in range(12):
            nv, _ = bellman_step(iterates[-1], s, grid, cfg.search)
            iterates.append(ValueFunction(grid, nv.values, slope_left=tail, slope_right=tail))
        tail = b_low(grid)  # negative, decreasing
        last = iterates[-1].values
        for m, vm in enumerate(iterates[:-1]):
            delta = tail * q**m / (1.0 - q)
            assert np.all(last >= vm.values + delta - 1e-9)


def _plain_value_iteration(cfg):
    # v <- T v from zero with the stationary tails, stopped and certified as
    # solve_infinite is: (value, iterations, certificate)
    s = cfg.stage(0)
    grid = cfg.grid.points()
    q = 1.0 - (1.0 - s.beta) ** 2
    thresh = cfg.tol * (1.0 - q) / q
    tail = -1.0 / (1.0 - s.beta)
    v = ValueFunction(grid, np.zeros(grid.size), tail, tail)
    for iterations in range(1, 10_001):
        stepped, _ = bellman_step(v, s, grid, cfg.search)
        v_new = ValueFunction(grid, stepped.values, tail, tail)
        delta = weighted_norm(v_new, v, cfg)
        if delta <= thresh:
            return v_new, iterations, q / (1.0 - q) * delta
        v = v_new
    raise AssertionError("plain value iteration did not meet its target")


class TestSolveInfinite:
    def test_rejects_noncoherent(self):
        # refused when the stationary config is built, at the stage's risk
        prem = PremiumSpec("expected", theta=0.2)
        for risk in (RiskSpec("value-at-risk", alpha=0.95), RiskSpec("entropic", gamma=1.0)):
            s = StageData(uniform01(101), point(0.3), risk, prem, 0.9)
            with pytest.raises(ValidationError, match="coheren") as info:
                ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
            assert info.value.field == "stages[0].risk"

    def test_rejects_finite_config(self):
        cfg = affine_cfg(n=2, m=101, count=33)
        with pytest.raises(ValidationError):
            solve_infinite(cfg)

    def test_small_beta_fixed_point(self):
        s = es_stage(m=101, beta=0.5)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"), tol=1e-8)
        sol = solve_infinite(cfg)
        grid = cfg.grid.points()
        # certified distance to the fixed point, then one more application
        # moves the iterate by less than the certificate scale
        v_again, _ = bellman_step(sol.value, s, grid, cfg.search)
        resid = weighted_norm(v_again, sol.value, cfg)
        assert resid <= sol.certificate + 1e-10
        assert sol.iterations >= 2
        assert sol.certificate >= 0.0

    def test_affine_stationary_closed_form(self):
        beta = 0.9
        s = StageData(
            uniform01(201), point(0.3), RiskSpec("expected-shortfall", alpha=0.9),
            PremiumSpec("expected", theta=0.1), beta, budget_constrained=False,
        )
        cfg = ModelConfig(None, (s,), GridSpec(-2.0, 2.0, 129), SearchSpec("stop-loss"), tol=1e-6)
        sol = solve_infinite(cfg)
        grid = cfg.grid.points()
        fit = np.polyfit(grid, sol.value.values, 1)
        assert fit[0] == pytest.approx(-1.0 / (1.0 - beta), rel=1e-7)
        resid = sol.value.values - (fit[0] * grid + fit[1])
        assert np.max(np.abs(resid)) < 1e-6
        params = np.array([f.params["a"] for f in sol.policy.rows[0]])
        assert np.max(params) - np.min(params) < 1e-9
        # brute static scalar: J(0) should be close to c / (1-beta)^2
        scan = np.linspace(0.0, 1.0, 4001)
        vals = [
            apply_L(zero_vf(grid), 0.0, make_treaty("stop-loss", {"a": a}), s) for a in scan
        ]
        c_scan = min(vals)
        assert sol.value(0.0) == pytest.approx(c_scan / (1.0 - beta) ** 2, abs=0.05)

    def test_plain_iteration_agrees(self):
        s = es_stage(m=101, beta=0.5)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"), tol=1e-9)
        fast = solve_infinite(cfg)
        slow, _, slow_cert = _plain_value_iteration(cfg)
        gap = weighted_norm(fast.value, slow, cfg)
        assert gap <= fast.certificate + slow_cert + 1e-12

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
    def test_max_iter_bounds_the_bellman_steps(self, monkeypatch, max_iter):
        s = es_stage(m=101, beta=0.9)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"), tol=1e-300)
        steps = []
        _counting(monkeypatch, dp, "bellman_step", steps)
        with pytest.raises(MaxIterations):
            solve_infinite(cfg, max_iter=max_iter)
        assert len(steps) == max_iter

    def test_one_jump_per_short_step(self, monkeypatch):
        # every pass whose step misses the target jumps to its row's value,
        # with no plain step in between
        s = StageData(uniform01(101), discretize(FamilySpec("uniform", (0.1, 0.5), atoms=3)),
                      RiskSpec("expected-shortfall", alpha=0.5),
                      PremiumSpec("expected", theta=0.2), 0.5)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"), tol=1e-6)
        steps, jumps = [], []
        _counting(monkeypatch, dp, "bellman_step", steps)
        _counting(monkeypatch, dp, "_policy_values_solve", jumps)
        sol = solve_infinite(cfg)
        assert sol.iterations == len(steps) == 3
        assert len(jumps) == sol.iterations - 1
        assert sol.certificate <= cfg.tol

    @pytest.mark.parametrize("jump", ["singular", "increasing"])
    def test_refused_jump_is_a_plain_step(self, monkeypatch, jump):
        # a jump that is None or not decreasing leaves the pass's step as
        # the next start, so the solve is plain value iteration bit for bit
        s = es_stage(m=101, beta=0.5)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"), tol=1e-6)
        want, iterations, cert = _plain_value_iteration(cfg)
        refused = {"singular": None, "increasing": np.arange(float(cfg.grid.count))}[jump]
        jumps = []
        monkeypatch.setattr(dp, "_policy_values_solve", lambda *a: jumps.append(a) or refused)
        sol = solve_infinite(cfg)
        assert sol.iterations == iterations > 1
        assert len(jumps) == iterations - 1
        assert np.array_equal(_bits(sol.value.values), _bits(want.values))
        assert sol.certificate == cert

    def test_first_step_norm_finite(self):
        s = es_stage(m=101, beta=0.5)
        cfg = ModelConfig(None, (s,), GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss"))
        grid = cfg.grid.points()
        v0 = zero_vf(grid)
        v1, _ = bellman_step(v0, s, grid, cfg.search)
        assert np.isfinite(weighted_norm(v1, v0, cfg))


class TestFiniteHorizonsConverge:
    """The paper's infinite-horizon theorem as a check: J_n, the optimal
    value with n periods to go, approaches the stationary fixed point V*.

    From J_0 = 0 the contraction gives ||J_n - V*|| <= q^n ||V*|| in the
    weighted norm, q = 1 - (1 - beta)^2, and the stationary solve's
    certificate bounds its own distance to V*. The finite solve extrapolates
    with its own tail slopes a_n, so for the gridded solver the bound is a
    check, not a theorem.
    """

    HORIZON = 40
    ES = RiskSpec("expected-shortfall", alpha=0.95)
    PH = RiskSpec("distortion", distortion=distortion_preset("ph:0.7"))

    @pytest.mark.parametrize("risk, income", [
        (ES, point(0.3)),
        (PH, point(0.3)),
        (ES, make_discrete([(0.0, 0.2), (0.3, 0.5), (0.6, 0.3)])),
    ], ids=["point-es", "point-ph", "unequal-es"])
    def test_gap_to_the_stationary_value_within_the_contraction_bound(self, risk, income):
        s = StageData(uniform01(51), income, risk, PremiumSpec("expected", theta=0.2), 0.9)
        grid, search = GridSpec(-0.5, 1.5, 33), SearchSpec("stop-loss")
        stationary = ModelConfig(None, (s,), grid, search, tol=1e-8)
        sol = solve_infinite(stationary)
        # values[k] has HORIZON - k periods to go
        values, _ = solve_finite(ModelConfig(self.HORIZON, (s,), grid, search))
        q = 1.0 - (1.0 - s.beta) ** 2
        v_norm = weighted_norm(sol.value, zero_vf(sol.value.grid), stationary)
        gaps = {n: weighted_norm(values[self.HORIZON - n], sol.value, stationary)
                for n in range(1, self.HORIZON + 1)}
        for n, gap in gaps.items():
            assert gap <= q**n * v_norm + sol.certificate, n
        assert gaps[self.HORIZON] < gaps[1]
