"""Shared exception types.

Every failure mode that callers are expected to distinguish gets its own
class; generic misuse raises ValueError/TypeError as usual.
"""


class WorkbenchError(Exception):
    """Base class for all package-specific errors."""


class NotAMultiple(WorkbenchError):
    """Target cyclotomic modulus is not a multiple of the source modulus."""


class TooLarge(WorkbenchError):
    """Requested object exceeds the hard size budget."""


class NotPrime(WorkbenchError):
    pass


class ZeroInput(WorkbenchError):
    """Multiplicative-character machinery applied to zero."""


class BadN(WorkbenchError):
    """Character order does not divide the unit group order."""


class TrivialAdditive(WorkbenchError):
    """Gauss sum requested against the trivial additive character."""


class SizeMismatch(WorkbenchError):
    """Paired multisets of characters have different sizes."""


class BadParams(WorkbenchError):
    """Parameter combination outside the supported shape."""


class Infeasible(WorkbenchError):
    """Exact computation would exceed the cost budget."""


class BadT(WorkbenchError):
    """Parameter value lands outside the open locus of the family."""


class NotSignDefinite(WorkbenchError):
    """Pairing matrix is neither symmetric nor antisymmetric."""


class MissingLambda(WorkbenchError):
    """No reference point with a nonzero comparison trace exists."""


class AllRatiosUndefined(WorkbenchError):
    """Every candidate ratio in a comparison run was 0/0."""


class ConfigError(WorkbenchError):
    """Malformed campaign configuration."""
