"""Immutable value classes, without the dataclasses module.

A subclass names its fields in __slots__, and Value.__init__ binds them:
one value per field, in __slots__ order (a base class's fields first),
given by position or by keyword. Every field is required; there are no
defaults. A class writes its own __init__ only to validate or normalise
its arguments, and then ends in Value.__init__(self, ...). Value gives
what a frozen dataclass had: == and hash over the fields in order, the
same repr text (Atom(name='A')), copy and pickle support,
__match_args__, and an assignment guard that raises AttributeError. A
slot whose name starts with "_" is private state, not a field: it takes
no part in construction, ==, hash, repr or copying.
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

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(self._name, fields, args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

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


def _bind(name, fields, args, kwargs):
    """The values of fields, in order, from positional args and keywords;
    TypeError, with the message a Python function gives, for too many
    positional arguments, an unknown keyword, a field given twice or a
    missing field."""
    if len(args) > len(fields):
        raise TypeError(
            f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
        )
    bound = dict(zip(fields, args))
    for key in kwargs:
        if key in bound:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
    bound.update(kwargs)
    missing = [f for f in fields if f not in bound]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
    return [bound[f] for f in fields]
