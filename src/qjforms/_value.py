"""Immutable value classes without ``dataclasses``.

``dataclasses`` compiles the generated methods of every class when the
class is created, a cost no bytecode cache removes; on a one-shot ``qjalg``
query it outweighed the query's own work.  A subclass names its fields in
``__slots__``.  Two values are equal when they have the same type and equal
fields, so ``Sum(t) != Product(t)``.
"""


class Value:
    __slots__ = ()

    def __init__(self, *fields) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(fields)}")
        for name, field in zip(self.__slots__, fields):
            object.__setattr__(self, name, field)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
