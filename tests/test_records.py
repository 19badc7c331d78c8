"""The record classes behave as the frozen dataclasses they replaced.

``record_oracle`` keeps the ``@dataclass(frozen=True)`` declaration of
every record class.  Hypothesis draws field values, and each library
class must agree with its declaration on construction by position,
keyword and default, the ``PrimeContext`` refusal, ``==``, ``hash()`` and
``repr()``, assignment and deletion, and ``pickle`` and
``copy.deepcopy`` round trips.  A class that writes its own ``__init__``
is filled field by field instead, so that any values reach its ``==``
and ``hash()``.
"""

import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import given, strategies as st

import record_oracle as oracle
from schottky.proj import INFINITY, Homography

MODULES = {
    "padic": ("PrimeContext",),
    "proj": ("Homography", "QuadPoint", "FixedPointPair"),
    "disks": ("Disk", "Affinoid"),
    "groups": (
        "AxiomCheck", "AxiomReport", "LimitCover", "DeltaGammaBound", "Membership", "ProperFit",
        "TranslateScan",
    ),
    "geodesy": (
        "Free", "Fixed", "Linked", "FlatSpec", "NormalizedFlat", "StabilizerResult",
        "CommensurabilityReport", "GeodesicReport",
    ),
    "heights": ("CountRow", "CountingScan"),
}
RECORDS = sorted(name for names in MODULES.values() for name in names)
OWN_INIT = {"Homography", "Disk", "Affinoid", "FlatSpec"}
GENERATED_INIT = sorted(set(RECORDS) - OWN_INIT)

# a small pool, so that drawn records are often equal; the nan is one
# object, equal to itself inside a tuple, and the list is unhashable
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([Fraction(1, 2), Fraction(-3, 4), "", "a", float("nan"), float("-inf")]),
    st.sampled_from([INFINITY, Homography(1, 2, 3, 5)]),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.lists(st.integers(0, 1), max_size=2),
)
# PrimeContext refuses what is not prime, and a record of it holds a prime
FIELD_VALUES = {"PrimeContext": st.integers(-3, 12)}
# Homography's own repr prints four entries
RECORD_VALUES = {
    "PrimeContext": st.sampled_from((2, 3, 5, 7, 11)),
    "Homography": st.tuples(*[st.integers(-1, 1)] * 4),
}


def classes(name):
    home = next(module for module, names in MODULES.items() if name in names)
    return getattr(import_module(f"schottky.{home}"), name), getattr(oracle, name)


def field_names(name) -> tuple:
    return tuple(f.name for f in dataclasses.fields(getattr(oracle, name)))


def outcome(f, *args, **kwargs):
    """The value of the call, or the type and message of what it raised."""
    try:
        return ("value", f(*args, **kwargs))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def make(name, field_values):
    """(library record, declared record) over the same field values."""
    new, old = classes(name)
    if name in OWN_INIT:
        made = object.__new__(new)
        for field, value in zip(field_names(name), field_values):
            object.__setattr__(made, field, value)
    else:
        made = new(*field_values)
    return made, old(*field_values)


def draw_values(data, name, choices):
    return tuple(data.draw(choices.get(name, values)) for _ in field_names(name))


def field_reprs(record, name) -> list:
    return [repr(getattr(record, field)) for field in field_names(name)]


def test_every_record_is_declared_with_the_same_fields():
    assert len(RECORDS) == 23
    for name in RECORDS:
        new, _ = classes(name)
        own = vars(new)
        assert tuple(own.get("__slots__") or own.get("__annotations__", ())) == field_names(name)


@pytest.mark.parametrize("name", GENERATED_INIT)
@given(data=st.data())
def test_construction_agrees(name, data):
    """Positional, keyword and default arguments build the same record,
    and PrimeContext refuses a non-prime with the same error."""
    new, old = classes(name)
    names = field_names(name)
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(old))
    given_count = data.draw(st.integers(required, len(names)))
    positional = data.draw(st.integers(0, given_count))
    field_values = draw_values(data, name, FIELD_VALUES)[:given_count]
    args = field_values[:positional]
    kwargs = dict(zip(names[positional:], field_values[positional:]))
    got, want = outcome(new, *args, **kwargs), outcome(old, *args, **kwargs)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    made, declared = got[1], want[1]
    assert repr(made) == repr(declared)
    for field in names:
        assert getattr(made, field) is getattr(declared, field)


@pytest.mark.parametrize("name", GENERATED_INIT)
def test_bad_calls_are_type_errors(name):
    new, old = classes(name)
    names = field_names(name)
    filler = [7] * len(names)  # 7 is prime, for PrimeContext
    calls = [(filler + [7], {}), (filler, {"not_a_field": 7})]
    if names:
        calls.append((filler, {names[0]: 7}))
        calls.append(([], {}))
    for args, kwargs in calls:
        for cls in (new, old):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_prime_context_refuses_a_non_prime_as_declared():
    new, old = classes("PrimeContext")
    for p in (-7, 0, 1, 4, 91):
        assert outcome(new, p)[0] == "raised"
        assert outcome(new, p) == outcome(old, p)
        assert outcome(new, p=p) == outcome(old, p=p)


@pytest.mark.parametrize("name", RECORDS)
@given(data=st.data())
def test_records_agree(name, data):
    """==, hash(), repr(), the frozen refusals and the pickle and deepcopy
    round trips, on a record and on one that differs in at most one field,
    hidden fields included."""
    names = field_names(name)
    first = draw_values(data, name, RECORD_VALUES)
    second = list(first)
    changed = data.draw(st.none() | st.sampled_from(range(len(names))) if names else st.none())
    if changed is not None:
        second[changed] = data.draw(RECORD_VALUES.get(name, values))
    (a, o), (b, q), (a2, o2) = make(name, first), make(name, second), make(name, first)

    assert repr(a) == repr(o) and repr(b) == repr(q)
    assert outcome(hash, a) == outcome(hash, o)
    assert outcome(hash, b) == outcome(hash, q)
    assert (a == b, a != b, a == a2, b == a) == (o == q, o != q, o == o2, q == o)
    assert a.__eq__(first) is NotImplemented and o.__eq__(first) is NotImplemented

    slots = "__slots__" in vars(type(a))
    for field in names + ("not_a_field",):
        for refused in (lambda r: setattr(r, field, 0), lambda r: delattr(r, field)):
            got = outcome(refused, a)
            assert got[:2] == ("raised", FrozenInstanceError)
            # a slot dataclass refuses other names with a TypeError on some versions
            if field in names or not slots:
                assert got == outcome(refused, o)
    assert field_reprs(a, name) == field_reprs(o, name)

    for round_trip in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy):
        ra, ro = round_trip(a), round_trip(o)
        assert type(ra) is type(a)
        assert repr(ra) == repr(ro) and field_reprs(ra, name) == field_reprs(ro, name)
        assert (ra == a) == (ro == o)
        if ra == a:  # a pickled nan is a new object, with another hash
            assert outcome(hash, ra) == outcome(hash, a)
