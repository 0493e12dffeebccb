"""The value semantics of the package's types, and what importing it loads.

NumberField, FieldElement and ModuleBasis are collections.namedtuple records,
as the results are: equal fields mean == and equal hashes, a value is == to
the plain tuple of its fields, assignment raises AttributeError, and their
constructors refuse bad input with fixed messages, also when _make or
_replace builds the value. Arithmetic on a
FieldElement stays field arithmetic and never reaches tuple repetition or
concatenation. Result records compare equal exactly when every field does, a
matrix field as a tuple of row tuples.
Importing the CLI loads neither dataclasses nor inspect: the first generates
and compiles code for every class it decorates, and pulls in the second,
which loads ast, dis and tokenize.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import normlds
from normlds.basisforge import LdsConstruction, SnfCriterion
from normlds.coordseq import LdsVerdict, SequenceReport
from normlds.dkseq import DkMatchReport, DkSequence, SparseScanReport
from normlds.exactlinalg import HnfDecomposition, SnfDecomposition
from normlds.numberfield import FieldElement, ModuleBasis, NumberField


def sqrt2():
    return NumberField((-2, 0, 1))


def quartic():
    return NumberField((1, 0, -10, 0, 1))


def basis(field, *vectors):
    return ModuleBasis(field, tuple(field.element(v) for v in vectors))


# each factory builds a new object on every call; equal calls give equal values
VALUES = {
    "NumberField": lambda: NumberField((1, 0, -10, 0, 1)),
    "FieldElement": lambda: sqrt2().element([Fraction(3, 4), Fraction(-1, 2)]),
    "ModuleBasis": lambda: basis(sqrt2(), [1, 0], [Fraction(1, 2), Fraction(1, 2)]),
}
OTHERS = {
    "NumberField": lambda: NumberField((-2, 0, 1)),
    "FieldElement": lambda: sqrt2().element([Fraction(3, 4), Fraction(1, 2)]),
    "ModuleBasis": lambda: basis(sqrt2(), [1, 0], [0, 1]),
}
FIELDS = {
    "NumberField": ["coeffs"],
    "FieldElement": ["field", "num", "den"],
    "ModuleBasis": ["field", "vectors", "inverse"],
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    other = OTHERS[name]()
    assert a != other and not a == other
    assert a != "x" and a is not None
    assert a == tuple(getattr(a, field) for field in FIELDS[name])


def test_a_field_element_equals_the_same_value_however_built():
    field = sqrt2()
    a = field.element([Fraction(1, 2), 1])
    b = field.element([1, 2]).scale(Fraction(1, 2))
    c = field.from_int(1).scale(Fraction(1, 2)) + field.generator
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert (a.num, a.den) == ((1, 2), 2)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment_raises_attribute_error(name):
    value = VALUES[name]()
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    assert value == VALUES[name]()


def test_arithmetic_stays_field_arithmetic():
    field = sqrt2()
    a = field.element([Fraction(3, 4), -1])
    results = [
        (2 * a, a.scale(2)),
        (a * 2, a.scale(2)),
        (a * Fraction(1, 2), a.scale(Fraction(1, 2))),
        (a + a, a.scale(2)),
        (a - a, field.from_int(0)),
        (-a, a.scale(-1)),
    ]
    for value, expected in results:
        # a repeated or concatenated tuple is a plain tuple, of another length
        assert type(value) is FieldElement and value == expected
    assert (a + a).coords == (Fraction(3, 2), -2)
    assert FieldElement(field, (1, 0)).den == 1
    assert FieldElement(field, (1, 0)) == field.one


def test_the_stored_inverse_is_one_object_and_solves_coordinates():
    w = basis(sqrt2(), [1, 0], [Fraction(1, 2), Fraction(1, 2)])
    assert w.inverse is w.inverse
    assert w.int_coords(sqrt2().element([0, 1])) == ((-1, 2), 1)


def test_replace_and_make_build_through_the_constructor():
    field = sqrt2()
    t = field.generator
    # the inverse is that of the new vectors: t = 1/2 (2t), not 1 (2t)
    w = field.power_basis()._replace(vectors=(field.one, t + t))
    assert w == basis(field, [1, 0], [0, 2])
    assert w.int_coords(t) == ((0, 1), 2)
    assert ModuleBasis._make(tuple(w)) == w
    assert NumberField._make([(-3, 0, 1)]) == NumberField((-3, 0, 1))
    with pytest.raises(ValueError, match=r"^x\^2 - 4 is reducible over Q$"):
        NumberField._make([(-4, 0, 1)])
    with pytest.raises(ValueError, match=r"^x\^2 - 4 is reducible over Q$"):
        field._replace(coeffs=(-4, 0, 1))


def test_reprs():
    assert repr(sqrt2()) == "NumberField(x^2 - 2)"
    assert repr(sqrt2().element([Fraction(3, 4), -1])) == "<3/4 - t>"
    assert repr(sqrt2().power_basis()) == "ModuleBasis(field=NumberField(x^2 - 2), vectors=(<1>, <t>))"
    assert repr(LdsVerdict(False, (2, 4))) == "LdsVerdict(ok=False, witness=(2, 4))"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NumberField((-4, 0, 1)), "x^2 - 4 is reducible over Q"),
        (lambda: NumberField((1, 0, -6, 0, 1)), "x^4 - 6*x^2 + 1 is reducible over Q"),
        (lambda: NumberField((-2, 0, 2)), "defining polynomial must be monic"),
        (lambda: NumberField((-2, 1)), "defining polynomial must have degree 2, 3 or 4"),
        (lambda: NumberField((Fraction(1, 2), 0, 1)),
         "defining polynomial must have integer coefficients"),
        (lambda: basis(sqrt2(), [1, 2], [2, 4]), "basis vectors are linearly dependent"),
        (lambda: basis(sqrt2(), [1, 0]), "basis needs 2 vectors, got 1"),
        (lambda: ModuleBasis(sqrt2(), (sqrt2().one, quartic().generator)),
         "basis vector from a different field"),
    ],
)
def test_refusals_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


M = ((2, 0), (0, 3))
I2 = ((1, 0), (0, 1))

# (record, factory of its fields, a different value for each field)
RECORDS = [
    (LdsConstruction,
     lambda: dict(basis=sqrt2().power_basis(), scale=2, t_trace=6),
     dict(basis=basis(sqrt2(), [1, 0], [1, 1]), scale=3, t_trace=7)),
    (SnfCriterion,
     lambda: dict(chi=(0, 1, 1, 7), deltas=(1, 1, 2, 6), t_trace=6, scale=3,
                  lift_column=(0, 3, 1, 4), y=I2),
     dict(chi=(0, 1, 1, 8), deltas=(1, 1, 1, 6), t_trace=5, scale=4,
          lift_column=(1, 3, 1, 4), y=M)),
    (SequenceReport,
     lambda: dict(terms=[[1, 0], [2, 1]], charpoly=(1, -4, 1)),
     dict(terms=[[1, 0], [2, 2]], charpoly=(1, -6, 1))),
    (LdsVerdict,
     lambda: dict(ok=False, witness=(2, 4)),
     dict(ok=True, witness=(2, 6))),
    (DkSequence,
     lambda: dict(kmax=3, terms=[1, 2, 3], recurrence_ok=True,
                  head=SequenceReport([[0, 1, 2, 5]], (1, 0, -4, 0, 1)), step=1),
     dict(kmax=4, terms=[1, 2, 4], recurrence_ok=None,
          head=SequenceReport([[0, 1, 1, 11]], (1, 0, -10, 0, 1)), step=2)),
    (DkMatchReport,
     lambda: dict(head=SequenceReport([[0, 1, 2, 5]], (1, 0, -4, 0, 1)), basis=None),
     dict(head=SequenceReport([[0, 2, 4, 14]], (1, 0, -6, 0, 1)), basis=quartic().power_basis())),
    (SparseScanReport,
     lambda: dict(disc=2304, n=range(1, 4, 2), y1=[0, 0], d_tilde=[1, 1]),
     dict(disc=-23, n=range(1, 2), y1=[0, 1], d_tilde=[1, 2])),
    (HnfDecomposition,
     lambda: dict(h=((2, 0), (0, 3)), c=I2),
     dict(h=I2, c=M)),
    (SnfDecomposition,
     lambda: dict(x=I2, d=(1, 6), y=((1, 0), (0, 1))),
     dict(x=M, d=(2, 3), y=M)),
]


@pytest.mark.parametrize("record, fields, changed", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_field_by_field(record, fields, changed):
    a, b = record(**fields()), record(**fields())
    assert a is not b and a == b
    for name, value in fields().items():
        assert getattr(a, name) == value
    for name in fields():
        assert record(**{**fields(), name: changed[name]}) != a, name


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    src = Path(normlds.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys, normlds.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60,
        check=True,
    )
    assert result.stdout.split() == []
