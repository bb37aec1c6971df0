"""Record classes: `__init__`, `__repr__`, `==` and `hash` from annotations.

`record` gives a class the methods `@dataclass(frozen=True)` would give it,
and `record(frozen=False)` those of a plain `@dataclass`, for the field forms
this package uses: annotated fields, plain defaults, inherited fields first
and `__post_init__`.

Every record class is rebuilt with its fields as slots, beside any
`__slots__` it declares itself, so its instances have no `__dict__` (a
base class that is not a record declares `__slots__` for this).  A frozen
record also gets a `_hash` slot, which `__init__` sets to None and the
first `hash` fills: term nodes, types and symbols are hashed many times,
and their generated hash would rehash every field down to the leaves on
each call.  A frozen record's `__init__` sets each slot through the slot's
own setter, which its refusing `__setattr__` does not guard and which is
faster than `object.__setattr__`.  `==` answers True at once for the same
object, before it compares fields; the parser builds one `Base` per type
name, so most type comparisons stop there.

Every command-line run starts a fresh interpreter.  `dataclasses` imports
`inspect` (and with it `ast`, `dis` and `tokenize`) and compiles each
generated method with its own `exec`; for the package's record classes
that was over a third of `import afsterm`.  `record` imports nothing and
compiles the methods of a class with one `exec`.
"""

from __future__ import annotations

_MISSING = object()


def record(cls=None, *, frozen: bool = True, uncompared: tuple[str, ...] = ()):
    """Decorate a class as a record.  Fields named in `uncompared` take no
    part in `==` and `hash`.  A mutable record is unhashable; a frozen one
    raises AttributeError on assignment and deletion."""
    if cls is None:
        return lambda c: record(c, frozen=frozen, uncompared=uncompared)
    fields = dict(getattr(cls, "__record_fields__", {}))  # name -> default
    own = tuple(cls.__dict__.get("__annotations__", {}))
    for name in own:
        fields[name] = cls.__dict__.get(name, _MISSING)
    cls = _with_slots(cls, own + (("_hash",) if frozen and not hasattr(cls, "_hash") else ()))
    cls.__record_fields__ = fields
    params = ", ".join(n if d is _MISSING else f"{n}=_d_{n}" for n, d in fields.items())
    if frozen:
        body = [f"_set_{n}(self, {n})" for n in fields] + ["_set__hash(self, None)"]
    else:
        body = [f"self.{n} = {n}" for n in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in fields)
    compared = [n for n in fields if n not in uncompared]
    mine = "".join(f"self.{n}," for n in compared)
    theirs = "".join(f"other.{n}," for n in compared)
    src = f"""
def __init__(self, {params}):
    {"; ".join(body) or "pass"}
def __repr__(self):
    return self.__class__.__qualname__ + f"({shown})"
def __eq__(self, other):
    if other is self:
        return True
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
"""
    ns = {f"_d_{n}": d for n, d in fields.items()}
    if frozen:
        ns.update({f"_set_{n}": getattr(cls, n).__set__ for n in (*fields, "_hash")})
        src += f"""
def __hash__(self):
    h = self._hash
    if h is None:
        _set__hash(self, h := hash(({mine})))
    return h
"""
        ns.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        ns["__hash__"] = None
    exec(src, ns)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        if name in ns:
            setattr(cls, name, ns[name])
    return cls


def _with_slots(cls, slots: tuple[str, ...]):
    """`cls` created again with `slots` added to its own `__slots__`; the
    fields' defaults leave the class body, which slots do not allow."""
    declared = tuple(cls.__dict__.get("__slots__", ()))
    ns = {k: v for k, v in cls.__dict__.items()
          if k not in slots and k not in declared and k not in ("__dict__", "__weakref__")}
    ns["__slots__"] = declared + slots
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    new.__qualname__ = cls.__qualname__
    return new


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def replace(obj, **changes):
    """A copy of the record `obj` with the given fields changed; like the
    constructor, it runs `__post_init__`."""
    for name in obj.__record_fields__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
