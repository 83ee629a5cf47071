"""Exception taxonomy for the solver.

Two branches matter to callers: :class:`ValidationError` covers bad inputs
(configs, parameters, malformed distributions) and maps to CLI exit code 1;
:class:`NumericError` covers failures of the numeric machinery itself
(resolution too coarse, iteration budgets exhausted) and maps to exit code 2.

The rules for a config integer and a config real live here too, where every
model type reads them, and so does the refusal of a field a kind does not read.
"""

import math
from dataclasses import fields


class ReinsureError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ReinsureError):
    """Invalid input: configuration, parameters, or data.

    field, when set, names the refused value within the object that refused
    it (``alpha``, ``count``, ``stages[0].beta``); the config parser prefixes
    the section's path to report it at its config field.
    """

    def __init__(self, message="", field=None):
        super().__init__(message)
        self.field = field


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


def _integer(value, field=None) -> int:
    """A config integer; a string, a boolean or a number with a fraction is
    refused, naming field."""
    if isinstance(value, bool) or not _real(value, field).is_integer():
        raise ValidationError(f"expected an integer, got {value!r}", field)
    return int(value)


def _number(value, field=None) -> float:
    """A config number, NaN included; a string or a boolean is refused."""
    try:
        # float() would read a boolean as 0 or 1 and parse a string
        if isinstance(value, (bool, str, bytes)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"expected a number, got {value!r}", field) from None
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _real(value, field=None) -> float:
    """A finite config number; a string, a boolean, NaN or an infinity is
    refused, naming field."""
    x = _number(value, field)
    if not math.isfinite(x):
        raise ValidationError(f"expected a finite number, got {value!r}", field)
    return x


def _refuse_unread(spec, kind, reads) -> None:
    """Refuse a field of dataclass spec, past its first (the kind or family
    that selects what it reads), that is set though kind reads no such field."""
    for f in fields(spec)[1:]:
        if f.name not in reads and getattr(spec, f.name) is not None:
            raise ValidationError(f"{kind} reads no {f.name}", f.name)
