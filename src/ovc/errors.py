"""Exception types shared across the engine.

Every error that can escape an engine operation derives from OvcError and
carries a stable ``code`` used by the CLI to report module-qualified errors.
"""


class OvcError(Exception):
    code = "engine.error"


class PrimeError(OvcError):
    """Rejected a non-prime modulus or mixed primes."""

    code = "scalar.prime"


class NonUnitError(OvcError):
    """Inversion of a scalar with no finite valuation."""

    code = "scalar.non-unit"


class PrecisionError(OvcError):
    """Working precision exhausted before a result could be certified."""

    code = "engine.precision-exhausted"


class DescriptorMismatchError(OvcError):
    code = "series.descriptor-mismatch"


class WindowError(OvcError):
    code = "series.window"


class NotARecognizedUnitError(OvcError):
    """No contraction certificate found; this is a representability limit,
    not a proof that the element is a non-unit."""

    code = "series.not-a-recognized-unit"


class ResidueObstructionError(OvcError):
    """Antiderivative requested for a series with nonzero dlog residue."""

    code = "series.residue-obstruction"


class AmbiguousResidueError(OvcError):
    """The obstructing coefficient is a precision-limited zero."""

    code = "series.ambiguous-residue"


class MembershipError(OvcError):
    """Ideal-membership certificate failed at working precision."""

    code = "groebner.membership"


class UnsupportedShapeError(OvcError):
    """Input outside the implemented reduction (needs external conditioning)."""

    code = "factor.unsupported-shape"


class FullRankError(OvcError):
    """Mod-p reduction already has full rank; nothing to reduce."""

    code = "factor.full-rank"


class BadCertificateError(OvcError):
    """A supplied structure certificate (unipotent filtration, fiber
    splitting, ...) does not hold for the input."""

    code = "engine.bad-certificate"


class ParseError(OvcError):
    code = "cli.parse"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RangeError(ParseError):
    code = "cli.range"


class UndefinedNameError(ParseError):
    code = "cli.undefined-name"
