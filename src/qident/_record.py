"""The immutable record that every value type of the package derives from.

A record's fields are its class's annotations after those it inherits, a value
set on the class being a default.  Records of one class are equal, and hash
alike, when their fields not in ``_uncompared`` are; repr omits those in
``_unshown``.  No source is generated, nor ``dataclasses`` or ``inspect`` loaded.
"""

from operator import attrgetter


class _Signature:
    """A record class's fields as ``inspect.signature`` reports them, on demand."""

    def __get__(self, record, cls):
        from inspect import Parameter, Signature
        kind, empty, defaults = Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty, cls._defaults
        return Signature([Parameter(f, kind, default=defaults.get(f, empty)) for f in cls._fields])


class Record:
    _fields, _defaults = (), {}  # each record class's own, set as it is made
    _uncompared = _unshown = frozenset()
    __signature__ = _Signature()

    def __init_subclass__(cls) -> None:
        own = cls.__annotations__
        cls._fields = fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = defaults = cls._defaults | {f: v for f, v in vars(cls).items() if f in own}
        # the fields a positional call must give; the class supplies the rest
        cls._required = max((i + 1 for i, f in enumerate(fields) if f not in defaults), default=0)
        cls._key = staticmethod(attrgetter(*(f for f in fields if f not in cls._uncompared)))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or not self._required <= len(args) <= len(fields):
            rest, values = fields[len(args):], self._defaults | kwargs
            if len(args) > len(fields) or not kwargs.keys() <= set(rest) <= values.keys():
                raise TypeError(f"{type(self).__name__} takes each of {fields} once or by default")
            args = (*args, *map(values.__getitem__, rest))
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields or set derived attributes; nothing by default."""

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._unshown)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"
