"""Immutable records that check their fields when they are built.

Plain value records in this package are ``typing.NamedTuple`` classes. A
NamedTuple cannot have its own constructor, so a record that checks its
fields when built (``Family``, ``LocalClass``, ``WeierstrassModel``) derives
from ``Record`` instead. Neither kind imports ``dataclasses``, whose import
(with ``inspect``) and generated methods every CLI call would pay for.
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
