"""Slotted record bases: field equality and a ``Name(field=value, ...)`` repr
over ``_fields``.  Subclasses set their fields in a positional ``__init__``;
a :class:`FrozenRecord` is hashable, refuses assignment and so sets them
through :data:`set_field`."""

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _ConstType(type):
    def __iter__(cls):
        return (v for v in vars(cls).values() if type(v) is cls)


class Const(metaclass=_ConstType):
    """Named constants in place of an Enum.  Each upper-case attribute of
    a subclass becomes a member with ``.name`` and ``.value`` (passed
    unpacked to the subclass ``__init__``, if any), iterated in order,
    shown as ``<Class.NAME: value>`` and kept by copy and pickle."""

    def __init_subclass__(cls):
        for name, value in list(vars(cls).items()):
            if name.isupper():
                member = object.__new__(cls)
                member.name, member.value = name, value
                if "__init__" in vars(cls):
                    member.__init__(*value)
                setattr(cls, name, member)

    def __repr__(self):
        return f"<{self.__class__.__name__}.{self.name}: {self.value!r}>"

    def __reduce__(self):
        return getattr, (self.__class__, self.name)
