"""The immutable record that every value type derives from, checked on the
shipped types: fields, equality and hash, immutability, construction,
ordering and repr."""

import inspect
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident._record import Record
from qident.bijections import BijectionRecord, CertificationReport
from qident.partitions import ChainConstraint, Partition
from qident.profiles import (
    CatalogEntry,
    PiecewiseCase,
    default_catalog,
    validate_profile,
)
from qident.series import ResidueClass, TruncatedSeries
from qident.verify import (
    Check,
    Finding,
    SuiteSummary,
    VerificationReport,
    _Input,
)

ENTRY = default_catalog().lookup("P2")
REPORT = VerificationReport("rr2", "analytic", 30, "pass", elapsed=0.25)
INPUT = _Input(("euler", 5), partial(tuple, (1, -1)))

# one value of every record type the package ships
SAMPLES = (
    TruncatedSeries((1, 1, 2)),
    ResidueClass(5, frozenset({1, 4})),
    Partition((3, 1)),
    ChainConstraint((2,), 1),
    PiecewiseCase("otherwise", "0"),
    ENTRY.profile.branches[0],
    ENTRY.profile,
    validate_profile(ENTRY.profile, 5),
    ENTRY,
    BijectionRecord((2, 1), (3,), 1, 3, 3),
    CertificationReport(3, 3, None),
    REPORT,
    Finding("coefficients differ", exponent=4, lhs=1, rhs=2),
    SuiteSummary((REPORT,), (0.5,)),
    INPUT,
    Check("rr2", "analytic", "", 30, partial(print), (INPUT,)),
)

# each shipped type with a field outside == and hash, and another value for it
UNCOMPARED = (
    (REPORT, "elapsed", 9.0),
    (SuiteSummary((REPORT,), (0.5,)), "build_times", (1.0, 2.0)),
    (INPUT, "build", partial(tuple, ())),
    (INPUT, "needs", (INPUT,)),
    (SAMPLES[-1], "call", partial(len)),
    (SAMPLES[-1], "inputs", ()),
)


def fields(record: Record) -> dict:
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


def subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}


def test_every_value_type_is_a_record_with_a_sample():
    shipped = {c for c in subclasses(Record) if c.__module__.startswith("qident.")}
    assert shipped == {type(s) for s in SAMPLES}
    assert len(shipped) == 16


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_copy_from_the_fields_is_equal_and_hashes_alike(record):
    copy = type(record)(**fields(record))
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)
    assert type(record)(*fields(record).values()) == record


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_a_record_of_another_class_with_the_same_fields_is_not_equal(record):
    other = type("Other", (type(record),), {})(**fields(record))
    assert other != record and record != other
    assert not other == record


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(record):
    before = fields(record)
    for name in before:
        with pytest.raises(AttributeError):
            setattr(record, name, object())
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields(record) == before and not hasattr(record, "extra")


@pytest.mark.parametrize(
    "record, name, value", UNCOMPARED, ids=[f"{type(r).__name__}.{n}" for r, n, _ in UNCOMPARED]
)
def test_uncompared_fields_change_neither_equality_nor_hash(record, name, value):
    changed = type(record)(**{**fields(record), name: value})
    assert getattr(changed, name) is value
    assert changed == record and hash(changed) == hash(record)


def test_a_compared_field_changes_equality():
    assert VerificationReport("rr2", "analytic", 31, "pass") != REPORT
    assert _Input(("euler", 6), INPUT.build) != INPUT
    assert SuiteSummary(()) != SuiteSummary((REPORT,))


def test_a_missing_field_or_an_unknown_or_repeated_keyword_is_refused():
    for call in (
        lambda: Finding(),
        lambda: Finding(exponent=3),
        lambda: Finding("note", bogus=1),
        lambda: Finding("note", note="again"),
        lambda: ChainConstraint((2,), 1, 0),
        lambda: VerificationReport("rr2", "analytic"),
        lambda: Partition((3, 1), weight=4),
    ):
        with pytest.raises(TypeError):
            call()


def test_defaults_apply_positionally_and_by_keyword():
    assert Finding("note") == Finding("note", None, None, None, False)
    assert Finding(lhs=1, note="note") == Finding("note", None, 1)
    entry = CatalogEntry(ENTRY.profile, ENTRY.product, "source")
    assert (entry.aliases, entry.identity) == ((), None)
    assert VerificationReport("rr2", "analytic", 30, "pass").elapsed == 0.0


def test_post_init_checks_run_on_every_construction():
    with pytest.raises(ValueError):
        ResidueClass(modulus=1, residues=frozenset({1}))
    with pytest.raises(ValueError):
        Partition(parts=(1, 2))
    with pytest.raises(ValueError):
        BijectionRecord((2, 1), (3,), 1, 4, 3)


def test_signature_lists_the_fields_and_their_defaults():
    signature = "(note, exponent=None, lhs=None, rhs=None, error=False)"
    assert str(inspect.signature(Finding)) == signature
    assert str(inspect.signature(Partition)) == "(parts)"


def test_repr_shows_what_the_dataclass_repr_showed():
    assert repr(Partition((3, 1))) == "Partition(parts=(3, 1))"
    assert repr(ChainConstraint((2,), 1)) == "ChainConstraint(gaps=(2,), terminal=1)"
    assert repr(REPORT) == (
        "VerificationReport(identity='rr2', mode='analytic', bound=30, outcome='pass', "
        "subject='', exponent=None, lhs=None, rhs=None, note='', elapsed=0.25)"
    )
    assert repr(INPUT) == "_Input(key=('euler', 5))"
    assert repr(SAMPLES[-1]) == "Check(identity='rr2', mode='analytic', subject='', bound=30)"


def test_partition_weight_is_derived_and_outside_the_fields():
    p, q = Partition((3, 1)), Partition._ordered((3, 1))
    assert p.weight == q.weight == 4
    assert p == q and hash(p) == hash(q)
    assert list(fields(p)) == ["parts"]


def test_partitions_order_by_their_parts():
    a, b, c = Partition((2, 2)), Partition((3, 1)), Partition((3, 1, 1))
    assert a < b < c and a <= a < c and c > b > a and c >= c > a
    assert not b < a and not b <= a and not a > b and not a >= b
    assert sorted([c, Partition(()), b, a]) == [Partition(()), a, b, c]
    with pytest.raises(TypeError):
        a < (3, 1)


def test_no_other_record_orders():
    rc = ResidueClass(5, frozenset({1, 4}))
    with pytest.raises(TypeError):
        rc < ResidueClass(5, frozenset({2, 3}))
    with pytest.raises(TypeError):
        sorted([ChainConstraint((), 1), ChainConstraint((), 0)])


residue_classes = st.integers(2, 7).flatmap(
    lambda m: st.builds(
        ResidueClass, st.just(m), st.frozensets(st.integers(1, m - 1), min_size=1)
    )
)
partitions = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


@given(st.one_of(st.tuples(residue_classes, residue_classes), st.tuples(partitions, partitions)))
def test_equal_exactly_when_the_fields_are_then_hash_alike(pair):
    a, b = pair
    assert (a == b) == (fields(a) == fields(b)) == (not a != b)
    if a == b:
        assert hash(a) == hash(b)
    if isinstance(a, Partition):
        assert (a < b) == (a.parts < b.parts)
