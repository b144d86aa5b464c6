"""Immutable value records, the base of every rotorcalc record type.

A record class declares its `__slots__` and names its compared fields in
`_fields`.  `Record.__init__`, the one place a field is stored, takes their
values in order, by position or keyword; a missing, extra or unknown argument
raises TypeError.  A record that validates, computes or defaults a value has
a short `__init__` that passes its final values to `super().__init__`.
Equality, hashing and repr read `_fields` in order, as a frozen dataclass's
do; any other assignment or deletion raises AttributeError.  `copy` and
`pickle` restore every set slot, computed and cached ones included.
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

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes ({', '.join(fields)}), each "
                            f"once, by position or keyword")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

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

    def __setstate__(self, state):
        _, slots = state  # object.__reduce_ex__'s (None, {slot: value}) of a slotted record
        for name, value in slots.items():
            object.__setattr__(self, name, value)
