"""The record classes: immutable fields, equality by value or by identity,
their reprs, and pickling and copying."""
import copy
import pickle

import numpy as np
import pytest

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
