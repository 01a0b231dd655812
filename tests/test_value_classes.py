"""The nine value classes: equality, hashing, repr, immutability, copies and pickles.

They share one small base, `objects._Value`, in place of frozen
dataclasses, so that importing the package loads neither `dataclasses`
nor `typing`.
"""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fishburn as fb
from fishburn.objects import _Value

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
    "ActiveSiteProfile(sites=(0, 2, 3, 4), b=2)": fb.active_sites(fb.sequence_to_perm(x)),
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
    assert len(classes) == 9 and all(issubclass(cls, _Value) for cls in classes)


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
