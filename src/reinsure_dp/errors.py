"""Exception taxonomy for the solver.

Two branches matter to callers: :class:`ValidationError` covers bad inputs
(configs, parameters, malformed distributions) and maps to CLI exit code 1;
:class:`NumericError` covers failures of the numeric machinery itself
(resolution too coarse, iteration budgets exhausted) and maps to exit code 2.

The rules for a config integer and a config real live here too, where the
model types and the config parser can share them.
"""

import math


class ReinsureError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ReinsureError):
    """Invalid input: configuration, parameters, or data."""


class ParseError(ValidationError):
    """Config file missing or not well-formed JSON."""


class OutOfRange(ValidationError):
    """A scalar argument lies outside its documented domain."""


class NonpositiveProb(ValidationError):
    """A probability atom is zero or negative."""


class MassNotOne(ValidationError):
    """Probabilities deviate from total mass 1 by more than 1e-9."""


class UnsupportedFamily(ValidationError):
    """Family tag not recognized, or operation undefined for this family."""


class InvalidDistortion(ValidationError):
    """Distortion handle fails g(0)=0, g(1)=1, or monotonicity on the probe grid."""


class InvalidSpectrum(ValidationError):
    """Spectrum has no callable antiderivative, or fails nonnegativity,
    monotonicity, or unit mass."""


class NegativeSupport(ValidationError):
    """Premium principle applied to a distribution with negative support."""


class NegativeClaim(ValidationError):
    """Retained-loss function evaluated at a negative claim."""


class InvalidTreaty(ValidationError):
    """Treaty parameters violate the admissible-class constraints."""


class GridMismatch(ValidationError):
    """Two value functions do not share the same state grid."""


class NotVaRConfig(ValidationError):
    """Operation requires value-at-risk specs at every stage."""


class ParameterRegime(ValidationError):
    """Parameters outside the regime where the closed form is valid."""


class InfeasiblePolicyRow(ValidationError):
    """A policy entry's premium exceeds the state's budget."""


class NumericError(ReinsureError):
    """Numeric failure of the solver machinery."""


class MonotonicityViolation(NumericError):
    """A computed value function increases beyond tolerance; grid or search too coarse."""


class EnvelopeViolation(NumericError):
    """A computed value function escapes its bounding envelope beyond tolerance."""


class MaxIterations(NumericError):
    """Fixed-point iteration exhausted its budget before meeting tolerance."""


def _integer(value) -> int:
    """A config integer; a boolean or a number with a fraction is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A finite config number; a boolean, NaN or an infinity is refused."""
    if isinstance(value, bool):
        raise ValidationError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValidationError(f"expected a finite number, got {value!r}")
    return x
