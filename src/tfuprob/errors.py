"""Exception hierarchy.

Kept deliberately flat: one base class, plus the four failure families the
command line distinguishes by exit code (parse, validation, undefined
conditional, property failure).
"""


class TfuProbError(Exception):
    """Base class for every error raised by this package."""


class ProblemFileError(TfuProbError):
    """Problem file is malformed: bad JSON, missing or unknown fields."""


class ValidationError(TfuProbError):
    """A domain object violates one of its construction invariants."""


class UndefinedConditionalError(TfuProbError):
    """A probability ratio has no decided mass in its denominator.

    Covers conditioning on a null proposition, conditioning on an
    everywhere-undecidable proposition, and any derived quantity that
    silently depends on such a ratio. These are hard errors by design:
    a defaulted 0 or NaN would corrupt downstream identities.
    """
