"""Exception hierarchy.

Three verdict families matter for callers (and fix the CLI exit codes):
``NegativeVerdict`` (a definite "no"), ``Inconclusive`` (resource bounds hit
before a verdict), and ``UsageError`` (malformed input or violated
precondition).  Every exception carries a short machine-readable ``code`` and
a ``details`` dict so reports can be serialized without parsing messages.
"""

from __future__ import annotations


class PermutoidLabError(Exception):
    code = "Error"

    def __init__(self, message: str = "", **details):
        super().__init__(message or self.code)
        self.details = details


class NegativeVerdict(PermutoidLabError):
    """A definite negative answer (invalid object, rigidity failure, ...)."""


class Inconclusive(PermutoidLabError):
    """A resource bound was exhausted before reaching a verdict."""


class UsageError(PermutoidLabError):
    """Bad input: parse errors, schema violations, violated preconditions."""


def require_int(value, what: str) -> None:
    """Raise UsageError unless ``value`` is an int, which a bool is not."""
    if type(value) is not int:
        raise UsageError(f"{what} must be an int, got {value!r}")


class _Coded:
    """Mixin for errors whose ``code`` is given per instance."""

    def __init__(self, code: str, message: str = "", **details):
        self.code = code
        super().__init__(message or code, **details)


# -- negative verdicts -------------------------------------------------------

class ValidationError(_Coded, NegativeVerdict):
    """A candidate permutoid violates one of its defining clauses."""


class MorphismError(_Coded, NegativeVerdict):
    """A candidate morphism violates one of the three morphism clauses."""


class DevelopmentError(_Coded, NegativeVerdict):
    """A claimed development fails independent re-verification."""


class PseudogroupError(_Coded, NegativeVerdict):
    """A claimed pseudogroup fails its well-formedness checks."""


class NotRigid(NegativeVerdict):
    code = "NotRigid"


class RelatorNotKilled(NegativeVerdict):
    code = "RelatorNotKilled"


class NotFree(NegativeVerdict):
    code = "NotFree"


class NotAnAction(NegativeVerdict):
    code = "NotAnAction"


# -- inconclusive outcomes ---------------------------------------------------

class OutOfBounds(Inconclusive):
    """Coset enumeration hit its bound.  Never evidence of infiniteness."""

    code = "OutOfBounds"


class ClosureCapExceeded(Inconclusive):
    code = "ClosureCapExceeded"


# -- usage errors ------------------------------------------------------------

class ParseError(_Coded, UsageError):
    """A presentation does not parse."""


class FormatError(UsageError):
    """A data file does not match its documented schema."""

    code = "FormatError"


class GroundSetMismatch(UsageError):
    code = "GroundSetMismatch"


class GroundSetTooLarge(UsageError):
    code = "GroundSetTooLarge"


class PreconditionRadius(UsageError):
    code = "PreconditionRadius"
