"""The eight value classes: constructors, equality, hashing, repr, immutability, copies and pickles.

They share one small base, `objects._Value`, in place of frozen
dataclasses, so that importing the package loads neither `dataclasses`
nor `typing`.
"""

from __future__ import annotations

import ast
import copy
import inspect
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fishburn as fb
from fishburn.objects import _checked, _trusted, _Value

SOURCE = Path(__file__).resolve().parents[1] / "src"

x = fb.AscentSequence((0, 1, 0, 2))
SAMPLES = {
    "AscentSequence(entries=(0, 1, 0, 2))": x,
    "ModifiedAscentSequence(entries=(0, 1, 0, 2))": fb.to_modified(x),
    "Permutation(entries=(3, 1, 2, 4))": fb.sequence_to_perm(x),
    "Poset(n=4, levels=(0, 1, 0, 2), entry=(1, 2, 2, 3))": fb.sequence_to_poset(x),
    "RelationMatrix(n=3, pairs=((1, 2),))":
        fb.poset_to_relations(fb.sequence_to_poset(fb.AscentSequence((0, 1, 0)))),
    "ChordInvolution(partner=(3, 5, 1, 6, 2, 4, 8, 7))":
        fb.poset_to_involution(fb.sequence_to_poset(x)),
    "BivincularPattern(sigma=Permutation(entries=(2, 3, 1)), X=frozenset({1}), Y=frozenset({1}))":
        fb.R_PATTERN,
    "StatRecord(size=4, minimals=2, srank=2, rank=2, maximals=1, components=2, "
    "level_counts=(2, 1, 1), max_level_counts=(0, 0, 1))": fb.stats_of_sequence(x),
}
VALUES = list(SAMPLES.values())
IDS = [type(v).__name__ for v in VALUES]


def rebuilt(obj):
    """An equal value built again through the public constructor."""
    return type(obj)(*(getattr(obj, name) for name in obj._fields))


def test_the_samples_cover_every_value_class():
    classes = {type(v) for v in VALUES}
    assert len(classes) == 8 and all(issubclass(cls, _Value) for cls in classes)


def test_import_loads_neither_dataclasses_nor_typing():
    # diff against the modules loaded before the import: a site hook may preload typing
    script = ("import sys; before = set(sys.modules); import fishburn, fishburn.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SOURCE)}
    loaded = set(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing"}
    # and nothing is deferred: every module of the package is loaded
    modules = {f"fishburn.{path.stem}" for path in (SOURCE / "fishburn").glob("*.py")
               if path.stem != "__init__"}
    assert modules <= loaded


@pytest.mark.parametrize("text", list(SAMPLES))
def test_repr(text):
    assert repr(SAMPLES[text]) == text


def test_no_two_classes_compare_equal():
    assert fb.AscentSequence((0,)) != fb.ModifiedAscentSequence((0,))
    assert fb.ModifiedAscentSequence((0,)) != fb.AscentSequence((0,))
    for a, b in itertools.permutations(VALUES, 2):
        assert a != b and not a == b
        assert a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_equal_values_have_equal_hashes(obj):
    other = rebuilt(obj)
    assert other is not obj and other == obj and not other != obj
    assert hash(other) == hash(obj) == hash(tuple(getattr(obj, name) for name in obj._fields))
    assert len({obj, other}) == 1


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(obj):
    for name in obj._fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_no_value_class_writes_its_own_constructor():
    # each __init__ is compiled from the class's __slots__ (`_Value.__init_subclass__`), which
    # would replace one written in a class body, so the source is read for one
    names = {base.__name__ for v in VALUES for base in type(v).__mro__[:-1]}
    written = [(path.name, node.name) for path in sorted((SOURCE / "fishburn").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and node.name in names
               and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body)]
    assert written == []
    assert all(type(v).__init__.__code__.co_filename == "<string>" for v in VALUES)


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_built_by_position_and_by_keyword(obj):
    cls = type(obj)
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__) == list(obj._fields)
    by_keyword = cls(**{name: getattr(obj, name) for name in obj._fields})
    assert by_keyword == rebuilt(obj) == obj and repr(by_keyword) == repr(obj)


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_a_wrong_call_names_the_class(obj):
    cls, fields = type(obj), obj._fields
    values = [getattr(obj, name) for name in fields]
    with pytest.raises(TypeError) as missing:
        cls(*values[:-1])
    assert str(missing.value) == (f"{cls.__name__}.__init__() missing 1 required positional "
                                  f"argument: '{fields[-1]}'")
    with pytest.raises(TypeError) as unknown:
        cls(*values, bogus=1)
    # Python 3.13 may append a suggestion of a field name
    assert str(unknown.value).startswith(f"{cls.__name__}.__init__() got an unexpected keyword "
                                         "argument 'bogus'")


BAD_FIELDS = {
    fb.AscentSequence: ((1,),),
    fb.ModifiedAscentSequence: ((0, 2),),
    fb.Permutation: ((2,),),
    fb.Poset: (1, (0,), (0,)),
    fb.RelationMatrix: (2, ((1, 3),)),
    fb.ChordInvolution: ((1,),),
    fb.BivincularPattern: (fb.Permutation((1, 2)), frozenset({3}), frozenset()),
}


@pytest.mark.parametrize("cls", list(BAD_FIELDS), ids=lambda cls: cls.__name__)
def test_a_bad_field_still_raises(cls):
    fields = BAD_FIELDS[cls]
    with pytest.raises(ValueError):
        cls(*fields)
    with pytest.raises(ValueError):
        cls(**dict(zip(cls._fields, fields)))
    # and the one unchecked route still runs no check: the fields are kept as given
    obj = _trusted(cls, *fields)
    assert [getattr(obj, name) for name in cls._fields] == list(fields)


@pytest.mark.parametrize("cls", list(BAD_FIELDS), ids=lambda cls: cls.__name__)
def test_a_bad_field_raises_the_package_error(cls):
    # every rejection is the package's own error type, by position and by keyword
    fields = BAD_FIELDS[cls]
    for build in (lambda: cls(*fields), lambda: cls(**dict(zip(cls._fields, fields)))):
        with pytest.raises(fb.FishburnError) as info:
            build()
        assert isinstance(info.value, ValueError)


# fields that `int` cannot read, or relation members that are not two values
NON_INT_FIELDS = {
    fb.AscentSequence: [(("x",),), ((None,),)],
    fb.ModifiedAscentSequence: [((0, None),)],
    fb.Permutation: [((1, "two"),)],
    fb.Poset: [(None, (0,), (1,)), (1, ("x",), (1,)), (1, (0,), (None,))],
    fb.RelationMatrix: [(None, ()), (2, [(1,)]), (2, [(1, 2, 3)]), (2, [1]), (2, [(1, None)])],
    fb.ChordInvolution: [((2, "one"),)],
    fb.BivincularPattern: [((1, 2), {None}, ()), ((1, 2), (), {"y"})],
}


@pytest.mark.parametrize("cls", list(NON_INT_FIELDS), ids=lambda cls: cls.__name__)
def test_a_field_that_is_no_int_raises_the_package_error(cls):
    # by position and by keyword; the message is int()'s or the unpacking's own
    for fields in NON_INT_FIELDS[cls]:
        for build in (lambda: cls(*fields), lambda: cls(**dict(zip(cls._fields, fields)))):
            with pytest.raises(fb.FishburnError) as info:
                build()
            assert type(info.value) is fb.FishburnError and str(info.value), (cls, fields)
    with pytest.raises(fb.FishburnError, match=r"^invalid literal for int\(\) with base 10: 'x'$"):
        fb.AscentSequence(("x",))


# a scalar or None in place of a sequence field, with the message of `iter` on it
NOT_ITERABLE_FIELDS = {
    fb.AscentSequence: [((5,), "'int' object is not iterable")],
    fb.ModifiedAscentSequence: [((None,), "'NoneType' object is not iterable")],
    fb.Permutation: [((3,), "'int' object is not iterable")],
    fb.Poset: [((1, None, (1,)), "'NoneType' object is not iterable"),
               ((1, (0,), 1), "'int' object is not iterable")],
    fb.RelationMatrix: [((2, 7), "'int' object is not iterable")],
    fb.ChordInvolution: [((None,), "'NoneType' object is not iterable")],
    fb.BivincularPattern: [(((1, 2), 5, ()), "'int' object is not iterable"),
                           ((None, (), ()), "'NoneType' object is not iterable")],
}


@pytest.mark.parametrize("cls", list(NOT_ITERABLE_FIELDS), ids=lambda cls: cls.__name__)
def test_a_field_that_is_not_iterable_raises_the_package_error(cls):
    for fields, message in NOT_ITERABLE_FIELDS[cls]:
        for build in (lambda: cls(*fields), lambda: cls(**dict(zip(cls._fields, fields)))):
            with pytest.raises(fb.FishburnError) as info:
                build()
            assert type(info.value) is fb.FishburnError and str(info.value) == message, fields


def test_the_classes_without_checks_keep_the_base_hook():
    checked = set(BAD_FIELDS)
    assert set(NON_INT_FIELDS) == set(NOT_ITERABLE_FIELDS) == checked
    assert {type(v) for v in VALUES} - checked == {fb.StatRecord}
    for cls in {type(v) for v in VALUES}:
        assert (cls.__post_init__ is _Value.__post_init__) == (cls not in checked)
        assert hasattr(cls, "_normalize") == (cls in checked)


def test_stat_record_by_keyword():
    record = fb.StatRecord(size=4, minimals=2, srank=2, rank=2, maximals=1, components=2,
                           level_counts=(2, 1, 1), max_level_counts=(0, 0, 1))
    assert record == fb.stats_of_sequence(x)


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_copies_and_pickles(obj):
    for clone in [copy.copy(obj), copy.deepcopy(obj),
                  *(pickle.loads(pickle.dumps(obj, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]:
        assert type(clone) is type(obj) and clone == obj and repr(clone) == repr(obj)


def test_a_pickle_goes_back_through_the_constructor():
    # so an unpickled value is checked like any other public-constructor input
    assert fb.Poset.chain(2).__reduce__() == (fb.Poset, (2, (0, 1), (1, 2)))


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_the_trusted_builder_stores_what_the_constructor_stores(obj):
    cls = type(obj)
    fields = [getattr(obj, name) for name in obj._fields]
    built = _trusted(cls, *fields)
    assert type(built) is cls and built == cls(*fields) and repr(built) == repr(obj)


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_the_trusted_builder_needs_every_field(obj):
    cls = type(obj)
    fields = [getattr(obj, name) for name in obj._fields]
    with pytest.raises(TypeError):
        _trusted(cls, *fields[:-1])
    with pytest.raises(TypeError):
        _trusted(cls, *fields, fields[0])


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_the_trusted_builder_runs_no_checks(obj, monkeypatch):
    cls = type(obj)
    fields = [getattr(obj, name) for name in obj._fields]

    def refuse(self):
        raise RuntimeError("checked")

    monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(RuntimeError, match="checked"):
        cls(*fields)
    assert _trusted(cls, *fields) == obj


@pytest.mark.parametrize("obj", VALUES, ids=IDS)
def test_the_checked_builder_skips_only_the_typing(obj, monkeypatch):
    # the constructor types, then checks; `_checked` only checks; a class without
    # typing (`StatRecord`) has no call to it compiled into its constructor
    cls = type(obj)
    fields = [getattr(obj, name) for name in obj._fields]
    calls = []
    monkeypatch.setattr(cls, "_normalize", lambda self: calls.append("typed"), raising=False)
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append("checked"))
    assert cls(*fields) == obj
    assert calls == (["typed", "checked"] if cls in BAD_FIELDS else ["checked"])
    calls.clear()
    assert _checked(cls, *fields) == obj and calls == ["checked"]
