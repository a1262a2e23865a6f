"""``Record`` against ``@dataclass(frozen=True)``, the decorator it replaced.

Each check builds the same class body both ways and requires the same
outcome: the same repr, equality and hash, a ``TypeError`` for a call
the dataclass refuses (the record's text is its own: it names the
class and its fields), the same ``AttributeError`` text for a write and
the same message for a default before a required field.  The library's
own record classes are compared with dataclass twins built from their
class bodies.
"""

import dataclasses
import importlib

import pytest

import padic_sos
from padic_sos.padic import PadicApprox
from padic_sos.record import Record, replace


def _body():
    return {"__annotations__": {"a": "int", "b": "str", "c": "tuple", "d": "int"},
            "c": (), "d": 4, "kind": "point",
            "total": property(lambda self: self.a + self.d)}


DATA = dataclasses.dataclass(frozen=True)(type("Point", (), _body()))
RECORD = type("Point", (Record,), _body())
EMPTY_DATA = dataclasses.dataclass(frozen=True)(type("Empty", (), {"kind": "empty"}))
EMPTY_RECORD = type("Empty", (Record,), {"kind": "empty"})
ONE_DATA = dataclasses.dataclass(frozen=True)(
    type("One", (), {"__annotations__": {"a": "int"}}))
ONE_RECORD = type("One", (Record,), {"__annotations__": {"a": "int"}})


def _outcome(call):
    try:
        return "ok", repr(call())
    except Exception as exc:  # the exception's type is the outcome under test
        return type(exc).__name__


CALLS = [
    ((1, "x"), {}), ((1, "x", (2,), 5), {}), ((1, "x", (2,)), {}),
    ((1,), {"b": "y"}), ((), {"b": "y", "a": 1, "d": 0}), ((1, "x"), {"d": 7}),
    ((), {}), ((1,), {}), ((), {"c": 1}), ((), {"a": 1, "c": 1}),
    ((1, 2, 3, 4, 5), {}), ((1, 2, 3, 4, 5, 6), {}),
    ((1, "x"), {"z": 3}), ((1, "x"), {"a": 3}), ((1, 2, 3, 4, 5), {"z": 1}),
    ((1, 2, 3, 4, 5), {"a": 1}),
]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_construction_matches_dataclass(args, kwargs):
    expected = _outcome(lambda: DATA(*args, **kwargs))
    assert _outcome(lambda: RECORD(*args, **kwargs)) == expected


@pytest.mark.parametrize("args, kwargs", [((), {}), ((1,), {}), ((1, 2), {}),
                                          ((), {"x": 1}), ((), {"a": 1}),
                                          ((1,), {"a": 2})])
def test_small_classes_match_dataclass(args, kwargs):
    for data, record in ((EMPTY_DATA, EMPTY_RECORD), (ONE_DATA, ONE_RECORD)):
        expected = _outcome(lambda: data(*args, **kwargs))
        assert _outcome(lambda: record(*args, **kwargs)) == expected


@pytest.mark.parametrize("args, kwargs", [((1, 2, 3, 4, 5), {}), ((1,), {"a": 1}),
                                          ((1, "x"), {"z": 3}), ((), {"b": "y"})])
def test_a_bad_call_names_the_class_and_its_fields(args, kwargs):
    with pytest.raises(TypeError, match=r"^Point takes the fields \(a, b, c, d\), "
                                        r"each at most once, the first 2 required$"):
        RECORD(*args, **kwargs)


def test_fields_are_the_annotated_names():
    assert RECORD._fields == tuple(f.name for f in dataclasses.fields(DATA))
    r = RECORD(1, "x")
    assert (r.kind, r.total, r.c, r.d) == ("point", 5, (), 4)
    assert EMPTY_RECORD._fields == ()


def test_equality_and_hash_match_dataclass():
    values = [(1, "x"), (1, "x", ()), (1, "x", (), 4), (1, "y"), (2, "x", (1,)),
              (1, "x", (), 5)]
    for u in values:
        for v in values:
            assert (RECORD(*u) == RECORD(*v)) == (DATA(*u) == DATA(*v))
            assert (RECORD(*u) != RECORD(*v)) == (DATA(*u) != DATA(*v))
        assert hash(RECORD(*u)) == hash(DATA(*u))
    assert hash(EMPTY_RECORD()) == hash(EMPTY_DATA()) == hash(())
    assert EMPTY_RECORD() == EMPTY_RECORD()


def test_no_equality_across_types():
    r = RECORD(1, "x")
    other = type("Point", (Record,), _body())(1, "x")
    for stranger in (DATA(1, "x"), other, (1, "x", (), 4), None):
        assert r != stranger
        assert not r == stranger
        assert r.__eq__(stranger) is NotImplemented
    assert DATA(1, "x").__eq__(r) is NotImplemented
    with pytest.raises(TypeError):
        hash(RECORD([1], "x"))


def test_replace_matches_dataclass():
    r, d = RECORD(1, "x"), DATA(1, "x")
    for changes in ({}, {"b": "y"}, {"d": 0, "a": 2}, {"c": (3,)}):
        assert repr(replace(r, **changes)) == repr(dataclasses.replace(d, **changes))
    assert replace(r) is not r and replace(r) == r
    assert repr(r) == "Point(a=1, b='x', c=(), d=4)"
    assert (_outcome(lambda: replace(r, z=1))
            == _outcome(lambda: dataclasses.replace(d, z=1)))


def test_writes_raise_attribute_error():
    for obj in (RECORD(1, "x"), DATA(1, "x"), EMPTY_RECORD(), EMPTY_DATA()):
        for write in (lambda: setattr(obj, "a", 2), lambda: setattr(obj, "new", 2),
                      lambda: delattr(obj, "a"), lambda: delattr(obj, "kind")):
            with pytest.raises(AttributeError) as info:
                write()
            assert str(info.value).startswith("cannot ")
    r = RECORD(1, "x")
    with pytest.raises(AttributeError, match="cannot assign to field 'b'"):
        r.b = "y"
    with pytest.raises(AttributeError, match="cannot delete field 'a'"):
        del r.a
    assert r == RECORD(1, "x")


@pytest.mark.parametrize("names", ["ab", "abc", "xabc"])
def test_default_before_required_field_is_rejected(names):
    body = {"__annotations__": dict.fromkeys(names, "int"), "a": 0}
    with pytest.raises(TypeError) as dataclass_error:
        dataclasses.dataclass(frozen=True)(type("Bad", (), dict(body)))
    with pytest.raises(TypeError) as record_error:
        type("Bad", (Record,), dict(body))
    assert str(record_error.value) == str(dataclass_error.value)


def _library_records():
    for module in padic_sos._EXPORTS:
        importlib.import_module(f"padic_sos.{module}")
    return sorted((c for c in Record.__subclasses__()
                   if c.__module__.startswith("padic_sos.")),
                  key=lambda c: (c.__module__, c.__name__))


def test_library_records_match_their_dataclass_twins():
    classes = _library_records()
    assert len(classes) == 24
    for cls in classes:
        annotations = cls.__dict__.get("__annotations__", {})
        body = {k: v for k, v in vars(cls).items() if k in annotations}
        twin = dataclasses.dataclass(frozen=True)(
            type(cls.__name__, (), {"__annotations__": annotations, **body}))
        assert cls._fields == tuple(f.name for f in dataclasses.fields(twin)), cls
        if cls is PadicApprox:
            continue  # its values are range-checked; see below
        for n in range(cls._required, len(cls._fields) + 1):
            values = [(i, str(i)) for i in range(n)]
            rec, dat = cls(*values), twin(*values)
            assert repr(rec) == repr(dat)
            assert hash(rec) == hash(dat)
            assert rec == cls(*values) and rec != twin(*values)
        for args in ((), tuple(range(len(cls._fields) + 1))):
            assert _outcome(lambda: cls(*args)) == _outcome(lambda: twin(*args))


def test_padic_approx_keeps_its_range_checks():
    assert repr(PadicApprox()) == ("PadicApprox(prime=2, valuation=0, unit_residue=1, "
                                   "precision=64, is_zero=False)")
    assert PadicApprox(2, 1, 3, 4) == PadicApprox(valuation=1, unit_residue=3, precision=4)
    assert PadicApprox(unit_residue=0, precision=0, is_zero=True).is_zero
    for kwargs, message in ((dict(precision=0), "precision must be positive"),
                            (dict(unit_residue=0), "unit residue out of range"),
                            (dict(unit_residue=16, precision=4), "unit residue out of range"),
                            (dict(unit_residue=6, precision=4),
                             "unit residue must be coprime to the prime")):
        with pytest.raises(ValueError, match=message):
            PadicApprox(**kwargs)
    with pytest.raises(TypeError):
        PadicApprox(precision=4, bogus=1)
    with pytest.raises(AttributeError):
        PadicApprox().precision = 3
