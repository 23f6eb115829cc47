"""Exception types shared across the package.

Everything derives from OligorepError so callers can catch broadly; the CLI
maps subclasses onto exit codes (usage/data errors -> 1, resource limits -> 2,
violated internal invariants -> 3).  A broken certificate of any kind, a
free action with a fixed point included, is an InvariantViolation: the CLI
exits 3 on it and the acceptance suite reports it as a failed criterion.
"""


class OligorepError(Exception):
    pass


class MalformedStructure(OligorepError, ValueError):
    """Structure payload does not satisfy the class axioms."""


class SizeLimitExceeded(OligorepError, ValueError):
    """A requested computation exceeds the configured desk-scale limits."""


class InvalidLimits(OligorepError, ValueError):
    """The limits configuration is malformed or holds a non-positive limit."""


class InvalidPermutation(OligorepError, ValueError):
    """Not a permutation of the expected domain."""


class NotASubgroup(OligorepError, ValueError):
    """Given generators do not lie in the ambient group."""


class NotACharacter(OligorepError, ValueError):
    """Class function is not a nonnegative integer combination of irreducibles."""


class BaseNotAclClosed(OligorepError, ValueError):
    """Base structure is not algebraically closed in its class."""


class SupportOutsideEnumeration(OligorepError, ValueError):
    """Distribution support is not contained in the enumerated prefix."""


class NoAlgebraicityRequired(OligorepError, ValueError):
    """Operation only applies to classes without algebraicity."""


class UndecidedComparison(OligorepError, ValueError):
    """Order comparison did not resolve within the configured degree."""


class InvariantViolation(OligorepError, RuntimeError):
    """An internal mathematical invariant failed; this is always a bug."""


class FreenessViolation(InvariantViolation):
    """A group action certificate found a point with nontrivial stabilizer."""
