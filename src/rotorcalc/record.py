"""Immutable value records, the base of every rotorcalc record type.

A record class names its compared fields in `_fields`, declares its
`__slots__` and writes its own `__init__`, which sets each slot with
`object.__setattr__`.  Equality, hashing and repr read `_fields` in order,
exactly as a frozen dataclass's do; any other assignment or deletion raises
AttributeError.
"""
from operator import attrgetter


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # the compared values as a tuple, also for a single field
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {self.__class__.__name__}")
