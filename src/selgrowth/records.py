"""Immutable records, the reduction kinds and their Tamagawa rule, and the refusal marker.

Plain value records in this package are ``typing.NamedTuple`` classes. A
NamedTuple cannot have its own constructor, so a record that checks its
fields when built (``Family``, ``LocalClass``, ``WeierstrassModel``) derives
from ``Record`` instead. Neither kind imports ``dataclasses``, whose import
(with ``inspect``) and generated methods every CLI call would pay for.

The module imports nothing, so any layer can import it without loading
another: the four reduction kinds and ``tamagawa``, Tate's rule that switches
on them, live here for ``curves`` and ``quotients``, which read them without
loading each other, and ``Refused`` marks the errors that the CLI reports as
a refused computation (exit 2).
"""

# reduction kinds of a curve at a prime (ReductionData.kind)
GOOD = "good"
SPLIT_MULT = "split_mult"
NONSPLIT_MULT = "nonsplit_mult"
ADDITIVE = "additive"


def tamagawa(kind: str, e: int, f: int, m: int) -> int | None:
    """Tamagawa number at a place with ramification e and residue degree f above v.

    kind is the reduction at v and m = ord_v(delta_min). Over the place the
    fiber is I_{em} (J. Tate, LNM 476, 1975), split when the reduction at v is
    or f is even. None for additive reduction, which would need Tate's
    algorithm.
    """
    if kind == GOOD:
        return 1
    if kind == SPLIT_MULT or kind == NONSPLIT_MULT and f % 2 == 0:
        return e * m
    if kind == NONSPLIT_MULT:
        return 2 if (e * m) % 2 == 0 else 1
    return None


class Refused(Exception):
    """Marker base of the errors that refuse a computation on well-formed input.

    Each such error keeps its own standard base (ValueError, LookupError or
    ArithmeticError) and adds this one; ``cli.main`` exits 2 on it.
    """


class Record:
    """Base of an immutable record whose fields are its ``__slots__``.

    ``__init__`` stores the fields with ``_set`` and then checks them; after
    that, assigning or deleting a field raises AttributeError. Records of the
    same class are equal, with equal hashes, when their fields are equal.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so the checks run again
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
