"""Immutable value classes, without the dataclasses module.

A subclass names its fields in __slots__ and sets them in its own __init__
with _set(self, name, value). Value gives it what a frozen dataclass had:
== and hash over the fields in order, the same repr text
(Atom(name='A')), copy and pickle support, __match_args__, and an
assignment guard that raises AttributeError. A slot whose name starts
with "_" is private state, not a field: it takes no part in ==, hash,
repr or copying.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(s for s in slots if s[0] != "_")
        cls.__match_args__ = cls._fields
        # The key leads with the class name, so that classes with equal
        # fields (And, Or) hash apart, and it is a tuple, whose items are
        # tested for identity before ==.
        cls._name = cls.__qualname__
        cls._key = attrgetter("_name", *cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
