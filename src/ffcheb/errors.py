"""Error hierarchy.

Class names double as the error names that the CLI prints on stderr, so they
follow the domain vocabulary rather than the usual *Error suffix convention.
DomainError maps to exit code 2, ResourceError to exit code 3.
InvariantViolated is neither: it marks a bug in the package, not bad input,
so the CLI lets it end in a traceback.
"""


class FfchebError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FfchebError):
    """A mathematically invalid request (bad input, undefined operation)."""


class ResourceError(FfchebError):
    """A configured size or enumeration bound was exceeded."""


class InvariantViolated(FfchebError):
    """An internal invariant failed (explicit, so `python -O` keeps it)."""


# finite-field / polynomial layer
class NotPrime(DomainError):
    pass


class DegreeTooLarge(ResourceError):
    pass


class DivisionByZero(DomainError):
    pass


class ContextMismatch(DomainError):
    pass


class ZeroElement(DomainError):
    pass


class DNotDividingQMinus1(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


class ConstantPolynomial(DomainError):
    pass


class PoleAtPrime(DomainError):
    pass


class NotIrreducible(DomainError):
    pass


class PolyParseError(DomainError):
    pass


# covers
class NotGeometric(DomainError):
    pass


class WildAtInfinity(DomainError):
    pass


class AmbiguousCycleType(DomainError):
    pass


class NotDividing(DomainError):
    pass


class RamifiedPrime(DomainError):
    pass


class RamifiedSplittingCover(DomainError):
    pass


class UserGenusRequired(DomainError):
    pass


class NotComponentwise(DomainError):
    pass


class NotAConjugacyClass(DomainError):
    pass


class NotAbelian(DomainError):
    pass


# harness / combinatorics
class TooLarge(ResourceError):
    pass


class IntervalDegenerate(DomainError):
    pass


class DegreeBoundViolated(DomainError):
    pass


class CoverFileError(DomainError):
    pass


class OutputFileError(DomainError):
    pass
