"""Record classes: `dataclass` and `field`, without the `dataclasses` module.

Every record class of the package (terms, types, proofs, derivations,
statements and results) is declared with the standard library's spelling:
`@dataclass`, `@dataclass(frozen=True)` or `@dataclass(frozen=True,
slots=True)` over annotated fields, each with an optional
`field(default=..., default_factory=..., init=..., repr=..., compare=...)`.
`dataclass` writes the class's `__init__`, `__repr__`, `__eq__` and
`__hash__` as one source text and compiles it with a single `exec`; all
frozen classes share one `__setattr__` and one `__delattr__`, which only
raise. The standard library runs one `exec` per method and loads
`inspect` to write a docstring: compiling from source on Python 3.11, that
was about 40 % of importing the package.

The generated methods behave as the standard library's do for the options
above:
- `__init__` takes the `init=True` fields in order, with their defaults; a
  frozen class sets them with `object.__setattr__`, and each call to a
  `default_factory` makes a fresh value;
- `__repr__` prints `Name(field=value!r, ...)` over the `repr=True` fields;
- `__eq__` compares the tuples of `compare=True` fields when both operands
  have the same class, and returns `NotImplemented` otherwise;
- `__hash__` hashes that same tuple on a frozen class, and is `None` on a
  mutable one;
- `__match_args__` names the `init=True` fields;
- a frozen record raises `FrozenInstanceError`, an `AttributeError`, on
  assignment and deletion with the standard library's message;
- `slots=True` rebuilds the class with `__slots__` naming its fields.

A method the class body defines itself (as `Bound`, `Lam` and `App` define
`__init__`) is kept. The fields are the class's own annotations: no record
class inherits from another. Unlike the standard library, `__repr__` has no
guard against a record that contains itself; record classes hold trees.
"""

from __future__ import annotations

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class Field:
    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, default, default_factory, init, repr, compare):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True):
    return Field(default, default_factory, init, repr, compare)


def dataclass(cls=None, /, *, frozen=False, slots=False):
    def wrap(cls):
        return _process(cls, frozen, slots)

    return wrap if cls is None else wrap(cls)


def _process(cls, frozen, slots):
    fields = []
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            f = value
            # as in `dataclasses`: a default stays a class attribute
            if f.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(value, _MISSING, True, True, True)
        f.name = name
        fields.append(f)
    if slots:
        names = tuple(f.name for f in fields)
        body = dict(cls.__dict__)
        body["__slots__"] = names
        for name in names + ("__dict__", "__weakref__"):
            body.pop(name, None)
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        cls.__qualname__ = qualname

    # The methods are nested in `__create__`, so what they use besides
    # builtins is a closure variable, not a global.
    env = {"_set": object.__setattr__, "_MISSING": _MISSING}
    params, init = [], []
    for f in fields:
        if f.default_factory is not _MISSING:
            env[f"_f_{f.name}"] = f.default_factory
            value = f"_f_{f.name}()"
            if f.init:
                params.append(f"{f.name}=_MISSING")
                value = f"{value} if {f.name} is _MISSING else {f.name}"
        elif f.default is not _MISSING:
            env[f"_d_{f.name}"] = f.default
            value = f"_d_{f.name}"
            if f.init:
                params.append(f"{f.name}={value}")
                value = f.name
        elif f.init:
            params.append(f.name)
            value = f.name
        else:
            continue  # a field without default that `__init__` does not take
        set_field = f"_set(self, {f.name!r}, {value})" if frozen else f"self.{f.name} = {value}"
        init.append(f"  {set_field}")
    shown = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields if f.repr)
    compared = [f.name for f in fields if f.compare]
    own = "".join(f"self.{n}," for n in compared)
    other = "".join(f"other.{n}," for n in compared)
    methods = {
        "__init__": f" def __init__(self, {', '.join(params)}):\n{chr(10).join(init) or '  pass'}",
        "__repr__": f' def __repr__(self):\n  return self.__class__.__qualname__ + f"({shown})"',
        "__eq__": (
            " def __eq__(self, other):\n"
            "  if other.__class__ is self.__class__:\n"
            f"   return ({own}) == ({other})\n"
            "  return NotImplemented"
        ),
    }
    if frozen:
        methods["__hash__"] = f" def __hash__(self):\n  return hash(({own}))"
    methods = {name: text for name, text in methods.items() if name not in cls.__dict__}
    source = (
        f"def __create__({', '.join(env)}):\n"
        + "\n".join(methods.values())
        + f"\n return [{', '.join(methods)}]"
    )
    scope = {"__name__": cls.__module__}
    exec(source, scope)
    for name, fn in zip(methods, scope["__create__"](**env)):
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    elif "__hash__" not in cls.__dict__:
        cls.__hash__ = None
    if "__match_args__" not in cls.__dict__:
        cls.__match_args__ = tuple(f.name for f in fields if f.init)
    return cls



# No record class has a subclass, so a frozen record refuses every assignment
# and deletion; only these reach the methods, which need no compiling.
def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
