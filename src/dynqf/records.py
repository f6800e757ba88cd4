"""Plain records: the package's value classes, as classes with `__slots__`.

A record names its fields in `__slots__`, in order, after those of the record
it extends; slots whose names start with an underscore are private and not
fields.  Its `__init__` is written out, takes the fields in that order and
sets them, with `_set_fields` or one by one where construction is hot; no
method is generated from source text, so defining a record costs no more
than defining a class.  `Record` derives the rest from the fields: two
records are equal when they are of the same class and their fields are
equal, the repr is `Cls(field=value!r, ...)`, and pickling and copying
rebuild a record from its fields.  A `Record` is mutable and unhashable.  A
`Frozen` record refuses assignment once built, so it sets its fields with
`setfield`, and it hashes as the tuple of its fields.  Classes with other
rules (`State`, `Schema`, `Modification`) define `__eq__` and `__hash__`
themselves.
"""
from __future__ import annotations

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = super(cls, cls)._fields + tuple(
                name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))

    def _set_fields(self, *values) -> None:
        """Set the fields, in order; for `__init__` only."""
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:  # what comparing the field tuples, item by identical item, gives
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
