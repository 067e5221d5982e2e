"""Exception types shared across the package."""


class MbsError(Exception):
    """Base class for all library errors."""


class UnknownIdError(MbsError, KeyError):
    """A region, locus or circle identifier does not exist in the surface."""

    __str__ = Exception.__str__  # the plain message, which KeyError would quote


class ModeError(MbsError, ValueError):
    """An operation was applied to a surface in the wrong validity mode."""


class FixtureError(MbsError, ValueError):
    """Unknown fixture name or invalid fixture parameters."""


class IneligibleMoveError(MbsError, ValueError):
    """The requested move or reduction is not applicable at the given site."""


class ReplayError(MbsError, ValueError):
    """A move record failed to replay against the given surface."""


class TheoremViolationError(MbsError, RuntimeError):
    """An internal consistency check that should hold for every valid input
    failed.  This aborts loudly instead of producing a wrong result."""


class SchemaError(MbsError, ValueError):
    """A document violated the interchange schema.

    ``path`` is a JSON-pointer-style location ("$.loci[1].wrapping"),
    ``rule`` names the violated constraint.  ``line``/``column`` are set for
    JSON syntax errors.
    """

    def __init__(self, rule, path="$", line=None, column=None):
        self.rule = rule
        self.path = path
        self.line = line
        self.column = column
        where = path if line is None else f"line {line} column {column}"
        super().__init__(f"{where}: {rule}")
