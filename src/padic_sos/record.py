"""Frozen value records without generated code.

A ``Record`` subclass keeps what the library used of
``@dataclass(frozen=True)``: positional and keyword construction with
class-level defaults, equality only between instances of one type, a
hash of the field tuple, the dataclass ``repr``, ``replace``,
``AttributeError`` on assignment or deletion, and the class-definition
check for a default before a required field.  A call that does not
bind each field at most once and every required field is one
``TypeError`` naming the class and its fields.  The fields are the
names annotated in the class body, in order, after those of a record
base; unannotated class attributes (``kind`` tags) and properties are
not fields.  A field left at its default is not copied into the
instance: reading it finds the class attribute.

One generic set of methods serves every class.  A dataclass compiles
six functions per class when its module loads, and ``import
dataclasses`` loads ``inspect`` and ``ast``; on a short CLI call that
was most of the process's time above the bare interpreter.  This
module imports nothing.
"""


class Record:
    _fields: tuple[str, ...] = ()
    _required = 0  # the leading fields, those without a default

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(f for f in own if f not in cls._fields)
        cls._required = required = next(
            (i for i, f in enumerate(fields) if hasattr(cls, f)), len(fields))
        for name in fields[required:]:
            if not hasattr(cls, name):
                raise TypeError(f"non-default argument {name!r} follows default argument")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or not self._required <= len(args) <= len(fields):
            args = self._bind(args, kwargs)
        # write the instance dict: __setattr__ refuses every write
        d = self.__dict__
        for name, value in zip(fields, args):
            d[name] = value

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """All field values in order from a call with keywords or a
        wrong number of positional values."""
        fields = cls._fields
        values = dict(zip(fields, args), **kwargs)
        # fewer values than arguments: a positional value past the last
        # field, or a keyword that repeats a positional one
        if (len(values) < len(args) + len(kwargs)
                or any(name not in fields for name in kwargs)
                or any(f not in values for f in fields[:cls._required])):
            raise TypeError(f"{cls.__qualname__} takes the fields ({', '.join(fields)}), "
                            f"each at most once, the first {cls._required} required")
        return [values[f] if f in values else getattr(cls, f) for f in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, /, **changes) -> Record:
    """A new record of ``obj``'s type with the named fields changed, as
    ``dataclasses.replace`` builds it (an unknown name is a TypeError)."""
    values = [changes.pop(f) if f in changes else getattr(obj, f) for f in obj._fields]
    # a name left in ``changes`` is no field: the constructor refuses it
    return type(obj)(*values, **changes)
