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
that was over a third of `import afsterm`.  `record` imports nothing, and
it compiles a method once per *shape*: the method's name, its number of
fields and, for `__init__`, whether the record is frozen and has a
`__post_init__`.  The template of a shape is written over the field names
`_p0`, `_p1`, ..., and a class's new shapes are compiled with one `exec`.
A class gets each method as a copy of its template's code with the
class's own field names (and `__repr__`'s labels) in place of the
placeholders, run with the class's slot setters as globals and with its
defaults.  So each class runs the bytecode a method compiled for it alone
would, while the package's 39 classes compile 34 short templates, a fifth
of the source that one `exec` per class compiled.  `_TEMPLATES` is a
module-level table but no result cache: it holds code objects, never a
value of the prover, and `import afsterm` fills it completely, so proving
and checking add nothing to it.
"""

from __future__ import annotations

_MISSING = object()
_TEMPLATES: dict[tuple, object] = {}  # shape -> code of the method's template
_Function = type(lambda: None)


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
    names = tuple(fields)
    compared = tuple(n for n in names if n not in uncompared)
    defaults = tuple(d for d in fields.values() if d is not _MISSING)
    if _MISSING in tuple(fields.values())[len(names) - len(defaults):]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    fills = {used: _filler(used) for used in {names, compared}}
    env: dict = {}  # the methods' globals: a frozen record's slot setters, once its slots exist
    made = [(("__init__", len(names), frozen, hasattr(cls, "__post_init__")), names),
            (("__repr__", len(names)), names), (("__eq__", len(compared)), compared)]
    if frozen:
        made.append((("__hash__", len(compared)), compared))
    missing = [shape for shape, _ in made if shape not in _TEMPLATES]
    if missing:  # one `exec` for the class's new shapes: their method names differ
        exec("\n".join(_source(*shape) for shape in missing), ns := {})
        _TEMPLATES.update((shape, ns[shape[0]].__code__) for shape in missing)
    methods = {"__record_fields__": fields, "__hash__": None}
    for shape, used in made:
        methods[shape[0]] = _method(cls, shape[0], _TEMPLATES[shape], fills[used], env)
    methods["__init__"].__defaults__ = defaults or None
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    slots = own + (("_hash",) if frozen and not hasattr(cls, "_hash") else ())
    cls = _with_slots(cls, slots, methods)
    if frozen:
        env.update({f"_set_{n}": getattr(cls, n).__set__ for n in (*names, "_hash")})
    return cls


def _filler(names):
    """A function that puts the fields `names` in place of the placeholders
    in a tuple of a template's names or constants: a field's name, its
    setter's name or its `__repr__` label."""
    sub = {}
    for i, n in enumerate(names):
        sep = ", " if i else "("
        sub.update({f"_p{i}": n, f"_set__p{i}": f"_set_{n}", f"{sep}_p{i}=": f"{sep}{n}="})
    return lambda xs: tuple(map(sub.get, xs, xs))


def _method(cls, name, code, fill, env):
    """The method `name` of `cls`: the template `code` with `fill`'s field
    names in place of the placeholders, and `env` as its globals."""
    fn = _Function(code.replace(co_varnames=fill(code.co_varnames), co_names=fill(code.co_names),
                                co_consts=fill(code.co_consts)), env)
    fn.__qualname__ = f"{cls.__qualname__}.{name}"
    return fn


def _source(name, n, frozen=False, post=False):
    """The source of the template of the method `name` over the fields `_p0`
    .. `_p<n-1>`; `frozen` and `post` (a `__post_init__` to call) shape
    `__init__` alone."""
    p = [f"_p{i}" for i in range(n)]
    mine = "".join(f"self.{x}," for x in p)
    if name == "__init__":
        body = [f"_set_{x}(self, {x})" for x in p] + ["_set__hash(self, None)"] if frozen \
            else [f"self.{x} = {x}" for x in p]
        body += ["self.__post_init__()"] * post
        return f"def __init__(self, {', '.join(p)}):\n {'; '.join(body) or 'pass'}"
    if name == "__repr__":
        shown = ", ".join(f"{x}={{self.{x}!r}}" for x in p)
        return f'def __repr__(self):\n return self.__class__.__qualname__ + f"({shown})"'
    if name == "__eq__":
        theirs = "".join(f"other.{x}," for x in p)
        return (f"def __eq__(self, other):\n if other is self:\n  return True\n"
                f" if other.__class__ is self.__class__:\n  return ({mine}) == ({theirs})\n"
                " return NotImplemented")
    return (f"def __hash__(self):\n h = self._hash\n if h is None:\n"
            f"  _set__hash(self, h := hash(({mine})))\n return h")


def _with_slots(cls, slots: tuple[str, ...], methods: dict):
    """`cls` created again with `slots` added to its own `__slots__` and
    with `methods`; the fields' defaults leave the class body, which slots
    do not allow."""
    declared = tuple(cls.__dict__.get("__slots__", ()))
    ns = {k: v for k, v in cls.__dict__.items()
          if k not in slots and k not in declared and k not in ("__dict__", "__weakref__")}
    ns.update(methods, __slots__=declared + slots, __qualname__=cls.__qualname__)
    return type(cls)(cls.__name__, cls.__bases__, ns)


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
