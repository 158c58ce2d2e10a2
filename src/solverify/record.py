"""Record classes: the part of `dataclasses.dataclass` this package uses.

`@record` reads a class's own annotations, after the fields of the records
it derives from, and gives it an `__init__` generated from one source string
and one `exec` (construction is hot), and `__repr__` (the `Cls(f=...)`
form), `__eq__` and (frozen records) `__hash__` built from the field names
without compiling anything.  A method the class body defines itself is
kept.  Options:

- `frozen=True`: assigning or deleting an attribute raises
  `AttributeError`; with `eq`, the record hashes by its compared fields.
- `eq=False`: no `__eq__`, no `__hash__`; equality is inherited (identity,
  or what the class defines).  With `eq` and not frozen, `__hash__` is None.
- `field(default=..., default_factory=..., compare=...)`: a default value,
  a callable called per instance, and exclusion from `==` and `hash`.

Two records are equal only if they are of the same class and their compared
fields are equal as tuples, as with dataclasses.  Building the classes this
way avoids importing `dataclasses` (and with it `inspect`) and most of its
per-class cost, which is paid at every start of the verifier.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_FACTORY = object()  # the `__init__` default of a field with a factory


class Field:
    __slots__ = ("default", "default_factory", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 compare: bool = True):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


field = Field


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}"
                      for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({shown})"


def _eq_and_hash(names: list[str]):
    """`__eq__` and `__hash__` over the tuple of the named fields."""
    if len(names) == 1:
        get = attrgetter(names[0])

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    """Class decorator, bare (`@record`) or with options
    (`@record(frozen=True)`)."""
    def wrap(cls):
        return _build(cls, frozen, eq)
    return wrap if cls is None else wrap(cls)


def _build(cls, frozen: bool, eq: bool):
    fields: dict[str, Field] = {}
    for base in cls.__mro__[-1:0:-1]:
        fields.update(base.__dict__.get("__record_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            f = value
            if f.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(default=value)
        fields[name] = f
    cls.__record_fields__ = fields

    env = {"_FACTORY": _FACTORY}
    params, body = ["self"], []
    for name, f in fields.items():
        value = name
        if f.default_factory is not _MISSING:
            env[f"_f_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_f_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            env[f"_d_{name}"] = f.default
            params.append(f"{name}=_d_{name}")
        else:  # after a default: a SyntaxError in the exec below
            params.append(name)
        body.append(f"_d[{name!r}] = {value}" if frozen else f"self.{name} = {value}")
    if frozen and body:  # past the __setattr__ that refuses assignment
        body.insert(0, "_d = self.__dict__")
    exec("\n".join([f"def __init__({', '.join(params)}):",
                     *(f"    {line}" for line in body or ["pass"])]), env)
    methods = {"__init__": env["__init__"], "__repr__": _repr}
    if eq:
        methods["__eq__"], hash_ = _eq_and_hash(
            [n for n, f in fields.items() if f.compare])
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    # a class body that defines __eq__ gets __hash__ = None from Python
    if eq and cls.__dict__.get("__hash__") is None:
        cls.__hash__ = hash_ if frozen else None
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    return cls
