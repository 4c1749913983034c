"""The one base of the value classes: equality, repr and, when frozen, hash
and immutability, all read off the class's tuple of field names."""

from operator import attrgetter


class Record:
    """Equal to an instance of its own class whose fields are equal, shown
    as `Name(field=value, ...)`; mutable, so unhashable.  The fields are the
    positional parameters of the class's own `__init__`, unless the class
    names them in `_fields` itself."""

    _fields = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls) and "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]
        if cls._fields:  # the field values: a tuple, or a lone field's value
            cls._values = property(attrgetter(*cls._fields))

    def _set(self, **fields):
        """Store fields as plain attributes, past a frozen `__setattr__`."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


class Frozen(Record):
    """An immutable Record, hashed by its fields."""

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")
