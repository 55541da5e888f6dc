"""The base class of the package's `__slots__` records.

Plain value records are `typing.NamedTuple`s. A record that has a size
or can be iterated, checks its fields, or changes after construction
cannot be a tuple, so it derives from `Record`. Records compare as
values: two records of one class are equal when their fields are, and
a frozen record (the default) hashes as the tuple of its fields and
refuses assignment. A subclass declared with `frozen=False` can be
assigned to and is unhashable.

A record's fields are the public names in `__slots__`, base classes
first. Slots whose names start with an underscore hold derived state
and take no part in comparison, hashing or repr.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(s for s in own if not s.startswith("_"))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def _assign(self, **values: object) -> None:
        """Set fields in __init__, where a frozen record refuses setattr."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        # Copy and pickle rebuild a record through __init__, since a
        # frozen record refuses the setattr they would otherwise use.
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
