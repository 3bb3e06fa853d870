"""Immutable value records.

A record class names its fields in __slots__ and the defaults of its
trailing fields in the dict _defaults; it is not subclassed further,
since a subclass's own __slots__ would name its fields.  Record gives it
a constructor that takes the fields positionally or by keyword, equality
and hashing on the tuple of fields (equal only to a record of the same
class), the repr Name(field=value, ...), and a pickle/copy reduction
that calls the constructor again.  Assigning or deleting a field raises
AttributeError.  A class validates its fields in __post_init__, which the
constructor calls last; it may normalise a field through
object.__setattr__.

Record generates no code when a class is defined, so defining one costs no
more than a plain class.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values, in field order, of a call with these
        arguments; TypeError as for a function with that signature."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[f] if f in values else cls._defaults[f] for f in fields]

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
