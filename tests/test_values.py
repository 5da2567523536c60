"""Value semantics of the package's record classes: reprs, equality over
the fields (and only them), hashing, refusal of assignment to the immutable
ones, and pickling. A repr names the class and each field as name=repr,
except where a class writes its own."""

import os
import pickle
import subprocess
import sys

import pytest

from monlat import lattice_of_semilattice
from monlat.checks import CheckReport, CheckWitness, dpn_check
from monlat.context import SesHom
from monlat.monoid import (
    AxiomFailure,
    FinMonoid,
    MonoidHom,
    Subset,
    _hom_unchecked,
    _monoid_unchecked,
    identity_hom,
)
from monlat.nsub import LatticeWitness, NSubLattice, enumerate_nsub, is_distributive, is_modular, make_ses
from monlat.scenarios import ScenarioResult
from monlat.semilattice import CoverGraph, chain, diamond, pentagon

TWO = ((0, 1), (1, 1))


def ses_hom(key):
    S = make_ses(chain(2), frozenset(key))
    return SesHom(S, S, identity_hom(chain(2)))


# (make, fields): make() builds a fresh value on every call, fields its
# field names in declaration order
VALUES = {
    "AxiomFailure": (lambda: AxiomFailure("NonAssociative", (1, 2, 3)), ("kind", "witness")),
    "FinMonoid": (lambda: FinMonoid(TWO, ("e", "a")), ("table", "labels")),
    "MonoidHom": (lambda: MonoidHom(chain(2), chain(2), (0, 1)), ("dom", "cod", "mapping")),
    "Subset": (lambda: Subset(chain(2), frozenset({0, 1})), ("of", "members")),
    "LatticeWitness": (
        lambda: is_modular(enumerate_nsub(pentagon()))[1], ("kind", "elements", "names")
    ),
    "NSubLattice": (
        lambda: lattice_of_semilattice(chain(2)),
        ("join", "meet", "top", "bottom", "names", "keys"),
    ),
    "CheckWitness": (lambda: CheckWitness((), ("a",), "n"), ("keys", "names", "note")),
    "CoverGraph": (lambda: CoverGraph(2, ((0, 1),), ("a", "b")), ("size", "covers", "labels")),
    "SesHom": (lambda: ses_hom({0}), ("src", "dst", "base")),
    "CheckReport": (
        lambda: CheckReport("dpn", "x", 0, True, (), 1),
        ("prop", "obj", "depth", "passed", "witnesses", "cases"),
    ),
    "ScenarioResult": (lambda: ScenarioResult("x", True, "d"), ("name", "ok", "detail", "skipped")),
}
FROZEN = [name for name in VALUES if name not in ("CheckReport", "ScenarioResult")]

# each value next to one that differs from it in a single field
UNEQUAL = [
    (AxiomFailure("NonAssociative", (1, 2, 3)), AxiomFailure("NonAssociative", (1, 2, 4))),
    (FinMonoid(TWO), FinMonoid(TWO, ("0", "1"))),
    (MonoidHom(chain(2), chain(2), (0, 1)), MonoidHom(chain(2), chain(2), (0, 0))),
    (Subset(chain(2), frozenset({0})), Subset(chain(2), frozenset({0, 1}))),
    (LatticeWitness("pentagon", (0,), ("a",)), LatticeWitness("diamond", (0,), ("a",))),
    (enumerate_nsub(chain(2)), lattice_of_semilattice(chain(2))),
    (CheckWitness((), ("a",)), CheckWitness((), ("a",), "n")),
    (CoverGraph(2, ((0, 1),)), CoverGraph(2, ((0, 1),), ("a", "b"))),
    (ses_hom({0}), ses_hom({0, 1})),
    (CheckReport("dpn", "x", 0, True, (), 1), CheckReport("dpn", "x", 0, True, (), 2)),
    (ScenarioResult("x", True, "d"), ScenarioResult("x", True, "d", skipped=True)),
]


@pytest.mark.parametrize(
    "value, expected",
    [
        (AxiomFailure("NonAssociative", (1, 2, 3)),
         "AxiomFailure(kind='NonAssociative', witness=(1, 2, 3))"),
        (FinMonoid(TWO, ("e", "a")), "FinMonoid(n=2)"),
        (MonoidHom(chain(2), chain(2), (0, 1)), "MonoidHom(2->2, (0, 1))"),
        (Subset(chain(2), frozenset({0, 1})),
         "Subset(of=FinMonoid(n=2), members=frozenset({0, 1}))"),
        (is_modular(enumerate_nsub(pentagon()))[1],
         "LatticeWitness(kind='pentagon', elements=(0, 1, 2, 3, 4), "
         "names=('{0}', '{0,C}', '{0,D}', '{0,C,B}', '{0,C,D,B,A}'))"),
        (is_distributive(enumerate_nsub(diamond()))[1],
         "LatticeWitness(kind='diamond', elements=(0, 1, 2, 3, 4), "
         "names=('{0}', '{0,a}', '{0,b}', '{0,c}', '{0,a,b,c,1}'))"),
        (enumerate_nsub(chain(2)),
         "NSubLattice(join=((0, 1), (1, 1)), meet=((0, 0), (0, 1)), top=1, bottom=0, "
         "names=('{0}', '{0,1}'), keys=(frozenset({0}), frozenset({0, 1})))"),
        (lattice_of_semilattice(chain(2)),
         "NSubLattice(join=((0, 1), (1, 1)), meet=((0, 0), (0, 1)), top=1, bottom=0, "
         "names=('0', '1'), keys=())"),
        (CheckWitness((), ("a",)), "CheckWitness(keys=(), names=('a',), note='')"),
        (dpn_check(pentagon(), "N5"),
         "CheckReport(prop='dpn', obj='N5', depth=0, passed=False, witnesses=("
         "CheckWitness(keys=(frozenset({0, 1}), frozenset({0, 2})), "
         "names=('{0,C}', '{0,D}'), note='dinverse-normal'), "
         "CheckWitness(keys=(frozenset({0, 2}), frozenset({0, 1})), "
         "names=('{0,D}', '{0,C}'), note='map-normal'), "
         "CheckWitness(keys=(frozenset({0, 2}), frozenset({0, 1, 3})), "
         "names=('{0,D}', '{0,C,B}'), note='dinverse-normal'), "
         "CheckWitness(keys=(frozenset({0, 1, 3}), frozenset({0, 2})), "
         "names=('{0,C,B}', '{0,D}'), note='map-normal')), cases=25)"),
        (CoverGraph(2, ((0, 1),), ("a", "b")),
         "CoverGraph(size=2, covers=((0, 1),), labels=('a', 'b'))"),
        (CoverGraph(1, ()), "CoverGraph(size=1, covers=(), labels=None)"),
        (ScenarioResult("x", False, "d", skipped=True),
         "ScenarioResult(name='x', ok=False, detail='d', skipped=True)"),
        (ses_hom({0}),
         "SesHom(src=SesObject(monoid=FinMonoid(n=2), marks=(frozenset({0}),)), "
         "dst=SesObject(monoid=FinMonoid(n=2), marks=(frozenset({0}),)), "
         "base=MonoidHom(2->2, (0, 1)))"),
    ],
)
def test_repr(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_by_their_fields(name):
    make, fields = VALUES[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert a.__eq__(tuple(getattr(a, f) for f in fields)) is NotImplemented
    if name in FROZEN:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


@pytest.mark.parametrize("a, b", UNEQUAL, ids=[type(a).__name__ for a, _ in UNEQUAL])
def test_values_differing_in_one_field_are_unequal(a, b):
    assert a != b and not a == b
    if type(a).__name__ in FROZEN:
        assert len({a, b}) == 2


def test_values_of_different_classes_are_unequal():
    assert CheckWitness((), ("a",), "n") != LatticeWitness((), ("a",), "n")


def test_monoid_equality_includes_labels():
    assert FinMonoid(TWO) != FinMonoid(TWO, ("0", "1"))
    assert FinMonoid(TWO, ("e", "a")) == FinMonoid(TWO, ["e", "a"])
    assert FinMonoid([[0, 1], [1, 1]]) == _monoid_unchecked(TWO, None)
    assert hash(FinMonoid(TWO)) == hash(_monoid_unchecked(TWO, None))


def test_unchecked_hom_equals_the_checked_one():
    M = chain(2)
    assert _hom_unchecked(M, M, (0, 1)) == MonoidHom(M, M, [0, 1]) == identity_hom(M)
    assert hash(_hom_unchecked(M, M, (0, 1))) == hash(MonoidHom(M, M, (0, 1)))


def test_lattice_equality_and_repr_ignore_up_and_down():
    lat = enumerate_nsub(chain(3))
    assert (lat.up, lat.down) == ((7, 6, 4), (1, 3, 7))
    other = NSubLattice(lat.join, lat.meet, lat.top, lat.bottom, lat.names, lat.keys, (1, 2, 3), (4,))
    assert (other.up, other.down) == ((1, 2, 3), (4,))
    assert other == lat and hash(other) == hash(lat) and repr(other) == repr(lat)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment(name):
    make, fields = VALUES[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert value == make()


@pytest.mark.parametrize("name", ["CheckReport", "ScenarioResult"])
def test_mutable_values_take_assignment_and_do_not_hash(name):
    make, fields = VALUES[name]
    value = make()
    with pytest.raises(TypeError):
        hash(value)
    setattr(value, fields[1], "changed")
    assert getattr(value, fields[1]) == "changed" and value != make()


@pytest.mark.parametrize("name", VALUES)
def test_values_pickle(name):
    value = VALUES[name][0]()
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_pickled_monoid_hashes_like_an_equal_one_where_it_is_loaded():
    # labels hash differently in every process, so a pickle that carried
    # the cached hash would make two equal monoids hash apart
    code = (
        "import pickle, sys; from monlat.semilattice import pentagon; "
        "L = pentagon(); hash(L); sys.stdout.buffer.write(pickle.dumps(L))"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    loaded = pickle.loads(proc.stdout)
    assert loaded == pentagon() and hash(loaded) == hash(pentagon())
