"""Exception hierarchy shared across the package.

Every error the library raises deliberately derives from ``HiliteError`` so
callers can catch one base class at process boundaries (the CLI maps
subclasses onto exit codes).
"""


class HiliteError(Exception):
    """Base class for all library errors."""


class StructureError(HiliteError):
    """Structurally invalid input: length mismatch, overlapping spans,
    duplicate ids, dimension mismatch."""


class BudgetError(HiliteError):
    """A selection count k exceeds the available index set."""


class IntegrityError(HiliteError):
    """Markup or checkpoint content fails an integrity check
    (unbalanced markers, corrupt/garbled checkpoint)."""


class ProtocolError(HiliteError):
    """A solver endpoint returned an off-contract payload."""


class ParseError(HiliteError):
    """Solver output did not contain the expected structured payload."""


class TemplateError(HiliteError):
    """A prompt template is missing a required placeholder."""


class ConfigError(HiliteError):
    """Invalid run or training configuration."""


class DataError(HiliteError):
    """Dataset file is missing, malformed, or violates the schema."""


class SolverUnavailableError(HiliteError):
    """All transport attempts to a solver endpoint failed."""
