"""Frozen record classes, built without ``dataclasses``.

``@dataclass`` writes the methods of each class as source text and
compiles it, and importing ``dataclasses`` loads ``inspect``: milliseconds
of every process that imports the package.  ``record`` installs the same
behaviour from a few shared functions and compiles nothing.
"""

_set = object.__setattr__


def record(cls=None, *, hidden=()):
    """Make ``cls`` a frozen record of the fields it annotates, or of its
    ``__slots__`` when it declares them, as ``@dataclass(frozen=True)``
    would.

    Where the class does not define its own, this installs an
    ``__init__`` taking the fields in order, by position or keyword, with
    the class attributes of the same names as defaults, then calling
    ``__post_init__`` if the class has one; ``==`` and ``hash()`` of the
    tuple of the fields not named in ``hidden``; and a ``repr`` that shows
    those fields.  Assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.  A slot class also gets the state
    methods that let ``pickle`` and ``copy`` refill its slots past the
    frozen ``__setattr__``.
    """
    if cls is None:
        return lambda cls: record(cls, hidden=hidden)
    own = vars(cls)
    names = tuple(own.get("__slots__") or own.get("__annotations__", ()))
    shown = tuple(name for name in names if name not in hidden)

    def values(self):
        return tuple([getattr(self, name) for name in shown])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in shown])
        return f"{self.__class__.__qualname__}({body})"

    if "__init__" not in own:
        cls.__init__ = _initializer(cls, names)
    if "__eq__" not in own:
        cls.__eq__ = __eq__
    if "__repr__" not in own:
        cls.__repr__ = __repr__
    # a class body that defines __eq__ alone gets __hash__ = None
    if own.get("__hash__") is None:
        cls.__hash__ = __hash__
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    if "__slots__" in own:
        cls.__getstate__ = _slot_values
        cls.__setstate__ = _fill_slots
    return cls


def _initializer(cls, names):
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The field values of a call with these arguments, in field order;
    TypeError for the calls a dataclass ``__init__`` refuses."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(
            f"{where} takes {len(names) + 1} positional arguments but {len(args) + 1} were given"
        )
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        given[name] = value
    given = {**defaults, **given}
    missing = [name for name in names if name not in given]
    if missing:
        raise TypeError(f"{where} missing required arguments: {', '.join(map(repr, missing))}")
    return [given[name] for name in names]


def _refuse_assignment(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _slot_values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__slots__])


def _fill_slots(self, state):
    for name, value in zip(self.__slots__, state):
        _set(self, name, value)
