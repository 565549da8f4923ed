"""Exact arithmetic substrate: exactness and index guards, factorials, and
canonical text forms.

Integers are plain ``int`` and rationals ``fractions.Fraction``, exact at any
size. The package's only exactness tests are :func:`check_int` (a plain int,
not a bool or other subclass) and :func:`check_rational` (what ``Fraction``
accepts, not a float). On top come a configurable cap on index-like arguments
(a rail against typo-sized requests allocating forever, not a correctness
bound) and the canonical string and JSON forms used by all machine output.
:class:`FrozenValue` is the base of the package's immutable result records.
"""

import json
import math
import sys
from fractions import Fraction

DEFAULT_INDEX_CAP = 10_000

# CPython's int<->str conversion rail (default 4300 digits) sits far below
# the values this library legitimately serializes; raise it once, without
# ever lowering a more generous or unlimited setting.
_MIN_STR_DIGITS = 2_000_000
if hasattr(sys, "set_int_max_str_digits"):
    _current = sys.get_int_max_str_digits()
    if _current != 0 and _current < _MIN_STR_DIGITS:
        sys.set_int_max_str_digits(_MIN_STR_DIGITS)


class ResourceLimitError(Exception):
    """A guard rail was hit: an index cap or an enumeration budget."""


class IndexLimitError(ResourceLimitError):
    """An index argument exceeded the configured cap."""

    def __init__(self, name: str, value: int, cap: int):
        super().__init__(f"{name}={value} exceeds the index cap of {cap}")
        self.name = name
        self.value = value
        self.cap = cap


class FrozenValue:
    """Base of an immutable record whose fields are its ``__slots__``, in order.

    A subclass's ``__init__`` sets each field once with ``object.__setattr__``;
    after that, assigning or deleting any attribute raises
    ``FrozenInstanceError``, an ``AttributeError``. Two records are equal when
    they are of the same class with equal fields, and hash as the tuple of
    their fields.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise _frozen_error("assign to", name)

    def __delattr__(self, name):
        raise _frozen_error("delete", name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _frozen_error(verb: str, name: str) -> AttributeError:
    # imported here, not at the top: its module pulls in inspect and ast, several
    # ms of every CLI call's start-up
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


def check_int(value, name: str) -> int:
    """Return value if it is a plain int; a bool or other int subclass is not."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


def check_rational(value) -> Fraction:
    """value as a Fraction: anything Fraction accepts except a float. A
    Fraction itself comes back as the same object; a subclass is converted."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; use Fraction, int, or a 'p/q' string")
    return Fraction(value)


def check_limit(value: int, name: str) -> int:
    """Validate a non-negative, uncapped int (a cap, a budget, a power, a row); return it."""
    if check_int(value, name) < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_index(value: int, cap: int = DEFAULT_INDEX_CAP, name: str = "index") -> int:
    """Validate one non-negative, capped index argument and return it."""
    if check_limit(value, name) > cap:
        raise IndexLimitError(name, value, cap)
    return value


def factorial(n: int) -> int:
    """n!, exactly, with 0! = 1."""
    check_index(n, name="n")
    return math.factorial(n)


def _ascii_minus(text: str) -> str:
    # tolerate a typographic minus on input; output is always ASCII '-'
    return text.replace("−", "-")


def format_int(value: int) -> str:
    """Exact decimal form with ASCII minus sign."""
    return str(check_int(value, "value"))


def parse_int(text: str) -> int:
    """Inverse of :func:`format_int`; accepts a typographic minus too."""
    return int(_ascii_minus(text.strip()))


def format_rational(value) -> str:
    """Exact "p/q" form, with "/q" omitted when the denominator is 1."""
    f = check_rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a normalized Fraction."""
    return Fraction(_ascii_minus(text.strip()))


def dump_json(data) -> str:
    """Canonical JSON text: two-space indent, insertion key order, ASCII only.

    Nothing we emit contains floats, so parsing the output and dumping it
    again through this function is byte-identical.
    """
    return json.dumps(data, indent=2, ensure_ascii=True)
