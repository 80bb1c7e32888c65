"""The record generator (`reltt.records`) against the standard library.

Every record class of the package is made a second time from its own class
body, with `dataclasses.dataclass` and `dataclasses.field` in place of the
package's: a twin with the same field spec, the same bases and the same
methods written in the body. The instances that the corpus, the negative
files, a script of pragmas and commands, the library, kernel derivations,
F derivations and self-witnesses reach are each rebuilt as twins, and the two
must agree on `repr`, `==`, `hash`, `__match_args__`, slots, frozen
assignment and deletion, defaults and fresh `default_factory` values.
"""

from __future__ import annotations

import __future__
import ast
import dataclasses
import importlib
import inspect
import random
from pathlib import Path

import pytest

from reltt import records
from reltt.kernel import to_relpf
from reltt.prelude import stdlib
from reltt.reduction import normalize
from reltt.script import prelude_env, run_script
from reltt.surface import TermDef, parse
from reltt.systemf import project_derivation, self_witness

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("syntax", "kernel", "reduction", "systemf", "surface", "script", "prelude")
COMMANDS = "\n".join(
    [
        "proof p : [u : a [R] b] |- a [R] b := u",
        "#fuel 50",
        "#normalize (\\x. x) y",
        "#analyze all X. X -> X",
        "#check p",
        "#dump judgments",
        "#check nothing",
    ]
)


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _record_classes():
    """{package class: (twin, defines its own __init__)} for every record class."""
    found = {}
    flags = __future__.annotations.compiler_flag
    for name in MODULES:
        module = importlib.import_module(f"reltt.{name}")
        for node in ast.parse(inspect.getsource(module)).body:
            if not (isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))):
                continue
            namespace = dict(vars(module), dataclass=dataclasses.dataclass, field=dataclasses.field)
            tree = ast.Module([node], [])
            exec(compile(tree, module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
            own_init = any(isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body)
            found[getattr(module, node.name)] = (namespace[node.name], own_init)
    return found


RECORDS = _record_classes()
TWINS = {cls: twin for cls, (twin, _) in RECORDS.items()}


def _rebuild(x, make, memo):
    """`x` with every record rebuilt by `make(cls, values)`, through tuples, lists and dicts."""
    key = id(x)
    if key in memo:
        return memo[key][1]
    cls = type(x)
    if cls in TWINS:
        values = {
            f.name: _rebuild(getattr(x, f.name), make, memo)
            for f in dataclasses.fields(TWINS[cls])
            if f.init
        }
        y = make(cls, values)
    elif cls is tuple or cls is list:
        y = cls(_rebuild(v, make, memo) for v in x)
    elif cls is dict:
        y = {k: _rebuild(v, make, memo) for k, v in x.items()}
    else:
        return x
    memo[key] = (x, y)  # keeps `x` alive, so its id is not reused
    return y


def _twin(cls, values):
    return TWINS[cls](**values)


def _copy(cls, values):
    return cls(**values)


def _variant(cls, values):
    # Change every field that equality ignores: hints, binder names, spans.
    changed = dict(values)
    for f in dataclasses.fields(TWINS[cls]):
        if f.init and not f.compare:
            v = values[f.name]
            if isinstance(v, str):
                changed[f.name] = v + "'"
            elif v is None or isinstance(v, tuple):
                changed[f.name] = (-1, -1)
    return cls(**changed)


def _reachable(roots):
    """Every record reachable from `roots`, by class, in the order first met."""
    seen, pool, stack = set(), {}, list(reversed(roots))
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        cls = type(x)
        if cls in TWINS:
            pool.setdefault(cls, []).append(x)
            stack.extend(getattr(x, f.name) for f in reversed(dataclasses.fields(TWINS[cls])))
        elif cls is tuple or cls is list:
            stack.extend(reversed(x))
        elif cls is dict:
            stack.extend(reversed(list(x.values())))
    return pool


@pytest.fixture(scope="module")
def pool():
    roots = []
    sources = sorted((ROOT / "corpus").rglob("*.rtt"))
    texts = [p.read_text() for p in sources] + [COMMANDS]
    env = prelude_env()
    for text in texts:
        script = parse(text)
        result = run_script(script, env=env, trace=True)
        roots += [script, result]
        for c in result.checked:
            roots.append(to_relpf(c.ctx, c.proof, c.fuel))
            roots.append(project_derivation(c.ctx, c.proof, c.judgment, c.fuel))
            roots.append(self_witness(c.ctx, c.proof, c.fuel))
        for stmt in script.statements:
            if isinstance(stmt, TermDef):
                roots.append(normalize(stmt.term, 50))
    roots.append(env)
    roots.append(list(stdlib().values()))
    return _reachable(roots)


def _sample(instances, k, rng):
    return instances if len(instances) <= k else rng.sample(instances, k)


def test_the_package_has_43_record_classes():
    assert len(TWINS) == 43


def test_the_pool_reaches_every_record_class(pool):
    assert set(pool) == set(TWINS)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__qualname__)
def test_class_attributes_match_the_dataclass_twin(cls):
    twin = TWINS[cls]
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__dict__.get("__slots__") == twin.__dict__.get("__slots__")
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    for f in dataclasses.fields(twin):
        mine, theirs = cls.__dict__.get(f.name, None), twin.__dict__.get(f.name, None)
        if "__slots__" in twin.__dict__:
            assert type(mine) is type(theirs)
        else:
            assert mine == theirs


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__qualname__)
def test_instances_match_their_dataclass_twins(cls, pool):
    rng = random.Random(1201)
    twins, copies, variants = {}, {}, {}
    sample = _sample(pool[cls], 40, rng)
    hashable = cls.__hash__ is not None
    for x in sample:
        tx = _rebuild(x, _twin, twins)
        assert type(tx) is TWINS[cls]
        assert repr(x) == repr(tx)
        for f in dataclasses.fields(TWINS[cls]):
            if not f.init:
                assert getattr(x, f.name) == getattr(tx, f.name)
        # an equal record built afresh, and one that differs only where
        # equality does not look
        for y in (_rebuild(x, _copy, copies), _rebuild(x, _variant, variants)):
            ty = _rebuild(y, _twin, twins)
            assert y is not x and repr(y) == repr(ty)
            assert (x == y, x != y) == (tx == ty, tx != ty) == (True, False)
            if hashable:
                assert hash(x) == hash(tx) == hash(y) == hash(ty)
        assert x.__eq__(object()) is NotImplemented
    for a in sample:
        for b in sample:
            ta, tb = twins[id(a)][1], twins[id(b)][1]
            assert (a == b, a != b) == (ta == tb, ta != tb)
    if hashable:
        # sets of records iterate in the same order as sets of their twins
        twin_set = {twins[id(x)][1] for x in sample}
        assert [repr(x) for x in set(sample)] == [repr(t) for t in twin_set]


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__qualname__)
def test_records_of_different_classes_with_equal_fields_differ(cls, pool):
    x = pool[cls][0]
    tx = _rebuild(x, _twin, {})
    values = [getattr(x, f.name) for f in dataclasses.fields(TWINS[cls]) if f.init]
    twin_values = [getattr(tx, f.name) for f in dataclasses.fields(TWINS[cls]) if f.init]
    others = [
        other
        for other, (twin, own_init) in RECORDS.items()
        if other is not cls
        and not own_init
        and len([f for f in dataclasses.fields(twin) if f.init]) == len(values)
    ]
    assert others
    for other in others:
        y, ty = other(*values), TWINS[other](*twin_values)
        assert (x == y, x != y, x.__eq__(y)) == (tx == ty, tx != ty, tx.__eq__(ty))
        assert x.__eq__(y) is NotImplemented and x != y
        if cls.__hash__ is not None and other.__hash__ is not None:
            assert (hash(x) == hash(y)) == (hash(tx) == hash(ty))


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__qualname__)
def test_assignment_and_deletion_match_the_dataclass_twin(cls, pool):
    frozen = TWINS[cls].__dataclass_params__.frozen
    x = _rebuild(pool[cls][0], _copy, {})
    tx = _rebuild(x, _twin, {})
    names = [f.name for f in dataclasses.fields(TWINS[cls])]
    if "__slots__" not in TWINS[cls].__dict__:
        names.append("not_a_field")
    for name in names:
        for obj in (x, tx):
            value = getattr(obj, name, None)
            if frozen:
                with pytest.raises(AttributeError) as assigned:
                    setattr(obj, name, value)
                with pytest.raises(AttributeError) as deleted:
                    delattr(obj, name)
                assert str(assigned.value) == f"cannot assign to field {name!r}"
                assert str(deleted.value) == f"cannot delete field {name!r}"
            else:
                setattr(obj, name, value)
                assert getattr(obj, name) is value
                delattr(obj, name)
                assert not hasattr(obj, name) or name in type(obj).__dict__
    if frozen:
        with pytest.raises(records.FrozenInstanceError):
            setattr(x, names[0], None)


@pytest.mark.parametrize(
    "cls",
    [c for c, twin in TWINS.items() if any(
        f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        for f in dataclasses.fields(twin) if f.init
    )],
    ids=lambda c: c.__qualname__,
)
def test_defaults_and_fresh_default_factories_match_the_dataclass_twin(cls, pool):
    x = pool[cls][0]
    fields = [f for f in dataclasses.fields(TWINS[cls]) if f.init]
    required = {
        f.name: getattr(x, f.name)
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    first, second, twin = cls(**required), cls(**required), TWINS[cls](**required)
    assert repr(first) == repr(twin)
    for f in fields:
        if f.name in required:
            continue
        assert getattr(first, f.name) == getattr(twin, f.name)
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(first, f.name) == f.default_factory()
            assert getattr(first, f.name) is not getattr(second, f.name)


def test_core_records_have_no_instance_dict(pool):
    # Terms, types, judgments, proofs, kernel derivations and F derivations
    # are made by the thousand per check, so each is a slots record; a record
    # class added to these modules without slots fails here.
    modules = ("reltt.syntax", "reltt.kernel", "reltt.systemf")
    for cls in (cls for cls in pool if cls.__module__ in modules):
        assert not any(hasattr(x, "__dict__") for x in pool[cls]), cls.__qualname__
