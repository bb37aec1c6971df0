"""The record helper against `dataclasses`: every record class of the package
must behave like a dataclass with the same fields, which is what the package
used before, and what the proof text (`repr` sort keys) and the set and dict
orders (`hash`) were built on."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import afsterm
from afsterm.orderings.poly import Const, SlotRef
from afsterm.afs import Rule
from afsterm.record import _MISSING, _TEMPLATES, record, replace
from afsterm.terms import Arrow, Base, FunApp, FunctionSymbol, TypeDecl, Var, Variable

RECORDS = sorted(
    (cls for m in pkgutil.walk_packages(afsterm.__path__, "afsterm.")
     for cls in vars(importlib.import_module(m.name)).values()
     if isinstance(cls, type) and cls.__module__ == m.name and "__record_fields__" in vars(cls)),
    key=lambda cls: cls.__name__)
MUTABLE = {"Config", "Proof", "CorpusEntry", "Exploration", "SFun"}
UNCOMPARED = {"Abs": "hint"}
# field values for the records whose __post_init__ validates them: a valid
# instance, one more valid value for each field, and invalid instances
VALIDATED = {
    "Config": ((2.0, ("poly",)), (3.0, ("subterm", "rpo")),
               [(0,), (float("nan"),), (1.0, ("magic",))]),
    "PolyFun": (((Base("o"),), SlotRef(0)), ((Base("n"),), Const(1)),
                [((), SlotRef(0)), ((Base("o"),), Const(-1))]),
}
# term nodes work out their type and bound-variable range from their
# children when they are built, and an AFS checks its rules and works out
# its defined names and flags from them, so they are built from well-formed
# values
_nat, _o = Base("nat"), Base("o")
_x, _y = Variable("x", _nat), Variable("y", _o)
_f, _g = FunctionSymbol("f", TypeDecl((_nat,), _o)), FunctionSymbol("g", TypeDecl((_o,), _nat))
WELL_FORMED = {
    "Var": ((_x,), (_y,)),
    "BVar": ((0, _nat), (1, _o)),
    "Abs": ((_nat, Var(_x), "x"), (_o, Var(_y), "y")),
    "App": ((Var(Variable("F", Arrow(_nat, _o))), Var(_x)),
            (Var(Variable("G", Arrow(_o, _nat))), Var(_y))),
    "FunApp": ((_f, (Var(_x),)), (_g, (Var(_y),))),
    "AFS": (((_f,), (Rule(FunApp(_f, (Var(_x),)), FunApp(_f, (Var(_x),))),)),
            ((_g,), (Rule(FunApp(_g, (Var(_y),)), FunApp(_g, (Var(_y),))),))),
}


def record_sources() -> dict[tuple[str, str], ast.ClassDef]:
    """(module, class) -> class definition, for every class that carries
    `@record` in the package's sources."""
    root = Path(afsterm.__file__).parent
    out = {}
    for path in root.rglob("*.py"):
        module = ".".join(("afsterm",) + path.relative_to(root).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record"
                    or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                    and d.func.id == "record" for d in node.decorator_list):
                out[module.removesuffix(".__init__"), node.name] = node
    return out


SOURCES = record_sources()


def written_defaults(cls) -> dict[str, object]:
    """The defaults of `cls`'s own fields as its source writes them, each
    evaluated in its module: what the class body held before `record`
    turned the fields into slots, and independent of what `record` keeps."""
    module = vars(importlib.import_module(cls.__module__))
    return {s.target.id: eval(compile(ast.Expression(s.value), cls.__module__, "eval"), module)
            for s in SOURCES[cls.__module__, cls.__name__].body
            if isinstance(s, ast.AnnAssign) and s.value is not None}


def twin(cls):
    """A dataclass with `cls`'s fields, the defaults its source writes, its
    `__post_init__` and its bases that are not records (a term node's
    `__post_init__` sets `Term`'s slots).  The twin of a mutable record has
    slots, like the record: neither takes an attribute outside its fields."""
    fields = {}  # name -> default, base classes first
    for klass in reversed(cls.__mro__):
        if "__record_fields__" in vars(klass):
            written = written_defaults(klass)
            for name in vars(klass).get("__annotations__", {}):
                fields[name] = written.get(name, dataclasses.MISSING)
    ns = {"__annotations__": dict.fromkeys(fields, object), "__qualname__": cls.__qualname__}
    for name, default in fields.items():
        if name == UNCOMPARED.get(cls.__name__):
            ns[name] = dataclasses.field(default=default, compare=False)
        elif default is not dataclasses.MISSING:
            ns[name] = default
    if hasattr(cls, "__post_init__"):
        ns["__post_init__"] = cls.__post_init__
    bases = tuple(b for b in cls.__bases__ if b is not object and "__record_fields__" not in vars(b))
    shell = type(cls.__name__, bases, ns)
    frozen = cls.__name__ not in MUTABLE
    return dataclasses.dataclass(frozen=frozen, slots=not frozen)(shell)


TWINS = {cls: twin(cls) for cls in RECORDS}


def names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(TWINS[cls])]


def samples(cls) -> tuple[tuple, tuple]:
    """Two tuples of field values, differing in every field."""
    if cls.__name__ in VALIDATED:
        return VALIDATED[cls.__name__][:2]
    if cls.__name__ in WELL_FORMED:
        return WELL_FORMED[cls.__name__]
    n = len(names(cls))
    return (tuple(("a", i) for i in range(n)), tuple(("b", i) for i in range(n)))


def outcome(f):
    """What f() returns, or the kind of error it raises."""
    try:
        return ("value", f())
    except (AttributeError, TypeError, ValueError) as exc:
        return ("raises", AttributeError if isinstance(exc, AttributeError) else type(exc))


def test_every_record_class_is_found():
    assert {(cls.__module__, cls.__name__) for cls in RECORDS} == SOURCES.keys()
    assert {cls.__name__ for cls in RECORDS if cls.__hash__ is None} == MUTABLE


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_like_its_dataclass_twin(cls):
    ref = TWINS[cls]
    fields = names(cls)
    vals, other = samples(cls)
    a, b = cls(*vals), ref(*vals)
    assert repr(a) == repr(b)
    assert (a == cls(*vals)) and (b == ref(*vals))
    assert (a == a) is (b == b) is True and (a != a) is (b != b) is False
    for i, name in enumerate(fields):
        changed = vals[:i] + (other[i],) + vals[i + 1:]
        # == and hash see every field but Abs.hint
        assert (a == cls(*changed)) == (b == ref(*changed)), name
        assert (a == cls(*changed)) == (name == UNCOMPARED.get(cls.__name__)), name
        assert repr(replace(a, **{name: other[i]})) == repr(dataclasses.replace(b, **{name: other[i]}))
    assert outcome(lambda: replace(a, nonfield=1)) == outcome(lambda: dataclasses.replace(b, nonfield=1))
    if cls.__name__ in MUTABLE:
        assert cls.__hash__ is None and ref.__hash__ is None
    else:
        assert hash(a) == hash(b)
    # defaults: the fields that may be left out, and their values
    required = [f.name for f in dataclasses.fields(ref) if f.default is dataclasses.MISSING]
    assert [n for n, d in cls.__record_fields__.items() if d is not _MISSING] \
        == fields[len(required):]
    assert repr(cls(*vals[:len(required)])) == repr(ref(*vals[:len(required)]))
    if required:
        fewer = vals[:len(required) - 1]
        assert outcome(lambda: cls(*fewer)) == outcome(lambda: ref(*fewer)) == ("raises", TypeError)
    # the frozen guard, on fields and on other names
    for name in ["other"] + fields[:1]:
        assert outcome(lambda: setattr(a, name, 1)) == outcome(lambda: setattr(b, name, 1)), name
        assert repr(a) == repr(b)
        assert outcome(lambda: delattr(a, name)) == outcome(lambda: delattr(b, name)), name


def builds(cls, vals) -> bool:
    return outcome(lambda: cls(*vals))[0] == "value"


def test_equality_across_classes_like_dataclasses():
    # records of two classes are never equal, even with the same fields:
    # Add(p) != Mul(p), where typing.NamedTuple would compare tuples.  A
    # pair is compared on the first sample that both classes accept.
    compared = set()
    generic = [cls for cls in RECORDS if cls.__name__ not in VALIDATED]
    for x in generic:
        for y in generic:
            if x is y or len(names(x)) != len(names(y)):
                continue
            vals = next((v for v in (samples(x)[0], samples(y)[0])
                         if builds(x, v) and builds(y, v)), None)
            if vals is not None:
                assert (x(*vals) == y(*vals)) is False
                assert (TWINS[x](*vals) == TWINS[y](*vals)) is False
                compared.add((x, y))
    assert len(compared) > 100
    # every term node and AFS is compared
    assert {cls.__name__ for pair in compared for cls in pair} >= WELL_FORMED.keys()


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_post_init_validates_like_dataclasses(name):
    cls = next(cls for cls in RECORDS if cls.__name__ == name)
    ref = TWINS[cls]
    for vals in VALIDATED[name][2]:
        assert outcome(lambda: cls(*vals)) == outcome(lambda: ref(*vals)) == ("raises", ValueError)
    valid = VALIDATED[name][0]
    assert outcome(lambda: replace(cls(*valid), **{names(cls)[0]: VALIDATED[name][2][0][0]})) \
        == ("raises", ValueError)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_slotted_and_keep_their_hash(cls):
    a = cls(*samples(cls)[0])
    assert not hasattr(a, "__dict__")
    if cls.__name__ not in MUTABLE:
        # `__init__` sets `_hash` to None, and the first call fills it
        assert a._hash is None
        assert hash(a) == a._hash == hash(TWINS[cls](*samples(cls)[0]))


def per_class_methods(cls) -> dict[str, object]:
    """The methods the per-class generator that `record` used before its
    templates emitted for `cls`: the source of all of them, written out
    with the class's own field names and compiled with one `exec`.  Kept
    as the reference for the templates' bytecode."""
    fields = cls.__record_fields__
    frozen = cls.__name__ not in MUTABLE
    params = ", ".join(n if d is _MISSING else f"{n}=_d_{n}" for n, d in fields.items())
    if frozen:
        body = [f"_set_{n}(self, {n})" for n in fields] + ["_set__hash(self, None)"]
    else:
        body = [f"self.{n} = {n}" for n in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in fields)
    compared = [n for n in fields if n != UNCOMPARED.get(cls.__name__)]
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
    if frozen:
        src += f"""
def __hash__(self):
    h = self._hash
    if h is None:
        _set__hash(self, h := hash(({mine})))
    return h
"""
    ns = {f"_d_{n}": d for n, d in fields.items()}
    exec(src, ns)
    return {name: ns[name] for name in METHODS if name in ns}


METHODS = ("__init__", "__repr__", "__eq__", "__hash__")


def shapes(cls) -> dict[str, tuple]:
    """The template shape of each method `record` gave `cls`."""
    n = len(cls.__record_fields__)
    m = n - (cls.__name__ in UNCOMPARED)
    out = {"__init__": ("__init__", n, cls.__name__ not in MUTABLE, hasattr(cls, "__post_init__")),
           "__repr__": ("__repr__", n), "__eq__": ("__eq__", m)}
    if cls.__name__ not in MUTABLE:
        out["__hash__"] = ("__hash__", m)
    return out


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_methods_run_the_per_class_generators_bytecode(cls):
    # construction, ==, hash and repr keep their speed: each method is the
    # code a method compiled for the class alone would be, names and
    # constants included, with the same defaults
    reference = per_class_methods(cls)
    assert reference.keys() == shapes(cls).keys()
    for name, ref in reference.items():
        got = vars(cls)[name]
        for attr in ("co_code", "co_consts", "co_names", "co_varnames", "co_argcount"):
            assert getattr(got.__code__, attr) == getattr(ref.__code__, attr), (name, attr)
        assert got.__defaults__ == ref.__defaults__, name
        assert got.__qualname__ == f"{cls.__qualname__}.{name}"


def test_classes_of_one_shape_share_one_template():
    # one template per shape, and each method's code is its shape's
    # template's code (only names and constants differ)
    methods = [(shape, vars(cls)[name].__code__)
               for cls in RECORDS for name, shape in shapes(cls).items()]
    assert set(_TEMPLATES) == {shape for shape, _ in methods}
    assert len(_TEMPLATES) < len(methods)
    for shape, code in methods:
        assert code.co_code == _TEMPLATES[shape].co_code, shape


def test_keywords_defaults_uncompared_and_qualname():
    # a record built in a function: fields by keyword, a default, an
    # uncompared field, and the class's qualified name in its repr; both
    # classes have shapes the package's own records have
    @record(uncompared=("note",))
    class Point:
        x: int
        y: int = 0
        note: str = ""

    p = Point(y=2, x=1, note="a")
    assert (p.x, p.y, p.note) == (1, 2, "a")
    assert Point(5).y == 0
    assert p == Point(1, 2, "b") and hash(p) == hash(Point(1, 2, "b"))
    assert p != Point(1, 3, "a")
    assert repr(p) == ("test_keywords_defaults_uncompared_and_qualname.<locals>."
                       "Point(x=1, y=2, note='a')")
    assert Point.__init__.__qualname__.endswith("<locals>.Point.__init__")
    with pytest.raises(TypeError):
        Point(1, z=3)

    @record(frozen=False)
    class Box:
        items: list
        label: str = "box"

    b = Box(items=[1])
    b.items = [2]
    assert b == Box([2], "box") != Box([2], "bag")
    assert Box.__hash__ is None


def test_a_required_field_after_a_default_is_refused():
    class Base_:
        a: int = 0
        b: int

    with pytest.raises(TypeError):
        record(Base_)
