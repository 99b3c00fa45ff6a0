"""The record classes: immutable fields, equality by value or by identity,
their reprs, and pickling and copying."""
import copy
import importlib
import pickle
import pkgutil
import re

import numpy as np
import pytest

import taxica
from taxica import (
    Axis,
    CheckResult,
    ContingencyTable,
    ContributionTable,
    CorrespondenceModel,
    Decomposition,
    MergeStep,
    ReductionTrace,
    SimilarityReport,
    SparsityClass,
    SparsityLevel,
    SparsitySummary,
    TcaAxisSolution,
    VerificationReport,
    build_model,
)
from taxica.record import Record, ValueRecord

TABLE = ContingencyTable(("a", "b"), ("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
MODEL = build_model(TABLE)
SIGNS = np.array([1.0, -1.0])
AXIS = Axis(np.array([1.0, -1.0]), np.array([0.5, -0.5]), 0.25, SIGNS, SIGNS)
CHECK = CheckResult("centering", 0.0, 1e-9, True)
STEP = MergeStep("row", (0, 2), "r1+r3")
GROUPS = ((0,), (1,))

#: Each record class: constructor arguments, the field that assignment is
#: tried on, and whether equality and hash go by value (else by identity).
RECORDS = {
    ContingencyTable: ((TABLE.row_labels, TABLE.col_labels, TABLE.counts), "n", False),
    CorrespondenceModel: ((TABLE, MODEL.P, MODEL.r, MODEL.c, MODEL.R0), "P", False),
    Axis: ((AXIS.f, AXIS.g, 0.25, SIGNS, SIGNS), "sigma", False),
    Decomposition: (("CA", (AXIS,), MODEL), "axes", False),
    TcaAxisSolution: ((SIGNS, np.ones(2), 0.5, "exact", 2, True), "objective", False),
    ContributionTable: (("CA", np.ones((2, 1)), np.ones((2, 1))), "row_values", False),
    ReductionTrace: ((TABLE, TABLE, (), GROUPS, GROUPS), "steps", False),
    CheckResult: (("centering", 0.0, 1e-9, True), "passed", True),
    VerificationReport: (("CA", (CHECK,)), "checks", True),
    SimilarityReport: (((0.95, 0.5), (0, 1), "partial", 0.9), "verdict", True),
    MergeStep: (("row", (0, 2), "r1+r3"), "new_label", True),
    SparsityClass: ((SparsityLevel.SPARSE, "many zeros"), "level", True),
    SparsitySummary: ((3.5, 25.0, (1.0, 2.0, 3.0, 4.0, 5.0), 50.0, (2, 2)), "size", True),
}
IDS = [cls.__name__ for cls in RECORDS]
#: The record classes built by ``Record.__init__``, which binds their fields.
BOUND = [cls for cls in RECORDS if cls is not ContingencyTable]


def _package_records() -> set[type]:
    """Every ``Record`` subclass defined in the package, once all of its
    modules are imported."""
    for module in pkgutil.iter_modules(taxica.__path__):
        if module.name != "__main__":
            importlib.import_module(f"taxica.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("taxica.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_only_the_table_has_its_own_constructor():
    records = _package_records()
    assert records - {ValueRecord} == set(RECORDS)
    assert [cls for cls in records if "__init__" in vars(cls)] == [ContingencyTable]


def _full_args(cls) -> tuple:
    """The constructor arguments of ``cls`` in RECORDS, completed by its defaults."""
    args = RECORDS[cls][0]
    return args + tuple(cls._defaults[name] for name in cls.__slots__[len(args) :])


@pytest.mark.parametrize("cls", BOUND, ids=[cls.__name__ for cls in BOUND])
def test_fields_bind_by_position_name_or_default(cls):
    args, full = RECORDS[cls][0], _full_args(cls)
    names = cls.__slots__
    by_name = dict(zip(names, full))
    records = (
        cls(*full),
        cls(**by_name),
        cls(*full[:1], **{name: by_name[name] for name in names[1:]}),
        cls(*args),
    )
    for record in records:
        assert all(getattr(record, name) is value for name, value in by_name.items())


@pytest.mark.parametrize("cls", BOUND, ids=[cls.__name__ for cls in BOUND])
def test_bad_fields_raise_type_error(cls):
    full = _full_args(cls)
    names = cls.__slots__
    first = names[0]
    by_name = dict(zip(names, full))
    del by_name[first]
    calls = [
        (lambda: cls(**by_name), f"missing field '{first}'"),
        (lambda: cls(*full, colour=1), "field 'colour' unknown"),
        (lambda: cls(*full, **{first: full[0]}), f"field '{first}' given twice"),
        (lambda: cls(*full, None), re.escape(f"({', '.join(names)}), got {len(names) + 1} values")),
    ]
    for call, message in calls:
        with pytest.raises(TypeError, match=f"^{cls.__qualname__} .*{message}"):
            call()


def test_value_records_of_other_classes_are_unequal():
    summary = SparsityClass(SparsityLevel.SPARSE, "many zeros")
    assert CHECK != STEP and not CHECK == summary
    assert CHECK.__eq__(STEP) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls):
    args, field, _ = RECORDS[cls]
    record = cls(*args)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_and_hash(cls):
    args, _, by_value = RECORDS[cls]
    record, twin = cls(*args), cls(*args)  # the same field objects
    assert record == record
    if by_value:
        assert twin == record and hash(twin) == hash(record)
        assert cls(*args[:-1], "other") != record
    else:
        assert twin != record
        assert hash(record) == object.__hash__(record)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_pickle_round_trip(cls):
    args, _, by_value = RECORDS[cls]
    record = cls(*args)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is cls
        assert repr(clone) == repr(record)
        if by_value:
            assert clone == record
        for name in cls.__slots__:
            value = getattr(clone, name)
            if isinstance(value, np.ndarray):
                assert value.flags.writeable is False, name


def test_reprs():
    assert repr(TABLE) == "ContingencyTable(2x2, n=10)"
    assert repr(MODEL) == "CorrespondenceModel(2x2, n=10)"
    assert repr(Decomposition("CA", (AXIS,), MODEL)) == "Decomposition(CA, rank=1)"
    assert repr(CHECK) == (
        "CheckResult(name='centering', max_residual=0.0, tolerance=1e-09, passed=True, "
        "applicable=True, note='')"
    )
    assert repr(STEP) == "MergeStep(axis='row', merged_indices=(0, 2), new_label='r1+r3')"


def test_defaults():
    assert (CHECK.applicable, CHECK.note) == (True, "")
    decomp = Decomposition("CA", (AXIS,), MODEL)
    assert (decomp.is_full_rank, decomp.solutions) == (True, None)
    assert TABLE.n == 10.0
