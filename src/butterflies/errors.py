"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ButterflyError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAGroup(ButterflyError):
    """A multiplication table fails the group axioms."""


class NotNormal(ButterflyError):
    """A subgroup used as a quotient kernel is not normal."""


class CodomainMismatch(ButterflyError):
    """Two homomorphisms expected to share a codomain do not."""


class BoundExceeded(ButterflyError):
    """A search was requested past the configured size bound."""

    def __init__(self, what: str, size: int, bound: int):
        super().__init__(f"{what}: size {size} exceeds bound {bound}")


class NotComposable(ButterflyError):
    """Butterflies (or a morphism and a butterfly) do not share the middle object."""


class NotFlippable(ButterflyError):
    """flip() was called on a butterfly whose other diagonal is not exact."""


class SectionInvalid(ButterflyError):
    """A set-theoretic section does not hit the right fibers or is not normalized."""


class GroupLawSearchFailed(ButterflyError):
    """The reconstructed multiplication on a limit object is not a group law."""


class TwistLeavesCocycles(ButterflyError, KeyError):
    """A change of section takes a factor set outside the enumerated cocycles.

    Raised by the factor-set oracle on non-abelian kernels; it is also a
    ``KeyError``, the failed lookup it reports."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class FractorConditionFailed(ButterflyError):
    """One of the three groupoid-level conditions of a fractor fails."""

    def __init__(self, condition: int, detail: str):
        self.condition = condition
        self.detail = detail
        super().__init__(f"fractor condition {condition} failed: {detail}")


class ConstructionError(ButterflyError):
    """A condition that a construction checks fails (``butterfly_morphism``,
    ``compose``), or a lookup on operands off the axioms fails (a pair off a
    pullback, an arrow off iota's image).  Constructions assume valid operands
    and do not re-validate their results, so callers validate untrusted ones first."""


class UnknownSuite(ButterflyError):
    """The requested law suite name does not exist."""


class ParseError(ButterflyError):
    """Input JSON could not be parsed or decoded into an object."""


class UnknownKind(ButterflyError):
    """Input JSON does not describe any known object kind."""
