"""Exception hierarchy shared across the package, and the JSON-type rule
that config values are checked by.

Every error the library raises deliberately derives from ``HiliteError`` so
callers can catch one base class at process boundaries (the CLI maps
subclasses onto exit codes).
"""

import json
import sys


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


JSON_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
                   str: "a string", dict: "a JSON object"}


def json_typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``, a float kind's number as a
    float; ConfigError naming ``what`` otherwise.  Neither ``true`` nor
    ``false`` is a number, and a number must fit a float: NaN and Infinity
    do not."""
    fits = (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            if kind is float else isinstance(value, kind))
    if fits and isinstance(value, bool) == (kind is bool):
        return float(value) if kind is float else value
    raise ConfigError(f"{what} must be {JSON_TYPE_NAMES[kind]}, "
                      f"not {json.dumps(value, default=repr)}")
