"""The result records are immutable named tuples: keyword construction with
their defaults, the `Name(field=value, ...)` repr, equality and hashing by
value within one type, and the methods and properties that the CLI reads."""

import pytest

from hsc.construct import build_gamma_families
from hsc.parity import AdmissibilityReport
from hsc.search import OrbitDecomposition, SearchSummary
from hsc.verify import AntimorphismCheck, RegularityReport


def records():
    """One record of each type, built by keyword, with its repr."""
    families = build_gamma_families(6)
    return [
        (
            RegularityReport(t=2, valence=2),
            "RegularityReport(t=2, valence=2, witness=None, witness_count=None,"
            " first_count=None)",
        ),
        (
            RegularityReport(
                t=2, valence=None, witness=(0, 2), witness_count=1, first_count=2
            ),
            "RegularityReport(t=2, valence=None, witness=(0, 2), witness_count=1,"
            " first_count=2)",
        ),
        (AntimorphismCheck(ok=True), "AntimorphismCheck(ok=True, witness=None)"),
        (
            AntimorphismCheck(ok=False, witness=(0, 1, 3)),
            "AntimorphismCheck(ok=False, witness=(0, 1, 3))",
        ),
        (
            OrbitDecomposition(n=4, k=2, orbits=((0, 5), (1, 4), (2, 3))),
            "OrbitDecomposition(n=4, k=2, orbits=((0, 5), (1, 4), (2, 3)))",
        ),
        (
            SearchSummary(orbit_count=3, regular=()),
            "SearchSummary(orbit_count=3, regular=())",
        ),
        (
            AdmissibilityReport(n=6, k=3, t=2, parities=(0, 0, 0)),
            "AdmissibilityReport(n=6, k=3, t=2, parities=(0, 0, 0))",
        ),
        (
            families,
            f"EdgeFamilies(n=6, m=3, side0={families.side0!r},"
            f" midpoint={families.midpoint!r}, off_midpoint={families.off_midpoint!r})",
        ),
    ]


def test_records_repr_as_keyword_calls():
    for record, text in records():
        assert repr(record) == text


def test_records_defaults():
    report = RegularityReport(t=1, valence=3)
    assert (report.witness, report.witness_count, report.first_count) == (None,) * 3
    assert AntimorphismCheck(ok=True).witness is None
    for record_type, given in (
        (RegularityReport, dict(t=1)),
        (RegularityReport, dict(valence=3)),
        (AntimorphismCheck, dict(witness=None)),
        (OrbitDecomposition, dict(n=4, k=2)),
        (SearchSummary, dict(orbit_count=1)),
        (AdmissibilityReport, dict(n=6, k=3, t=2)),
    ):
        with pytest.raises(TypeError):
            record_type(**given)


def test_records_are_immutable():
    for record, _ in records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert not hasattr(record, "__dict__")


def test_records_truth():
    assert bool(RegularityReport(t=2, valence=0))
    assert not RegularityReport(t=2, valence=None, witness=(0, 1))
    assert bool(AntimorphismCheck(ok=True))
    assert not AntimorphismCheck(ok=False, witness=(0, 1, 2))
    # The other records define no truth of their own: they are always true.
    assert bool(SearchSummary(orbit_count=0, regular=()))
    assert bool(OrbitDecomposition(n=3, k=3, orbits=()))
    assert bool(AdmissibilityReport(n=5, k=3, t=2, parities=(1, 1, 1)))


def test_records_compare_and_hash_by_value_within_a_type():
    for (record, _), (again, _) in zip(records(), records()):
        assert record == again and not record != again
        assert hash(record) == hash(again)
        changed = record._replace(**{record._fields[-1]: "other"})
        assert record != changed and not record == changed
    # Like any named tuple, a record also equals the plain tuple of its values.
    assert AntimorphismCheck(ok=True) == (True, None)


def test_record_properties_and_methods():
    decomposition = OrbitDecomposition(n=4, k=2, orbits=((0, 5), (1, 4), (2, 3)))
    assert decomposition.orbit_count == 3
    summary = SearchSummary(orbit_count=3, regular=())
    assert summary.candidate_total == summary.examined == 8
    assert summary.summary_line() == "orbits=3 candidates=8 regular=0"
    report = AdmissibilityReport(n=6, k=3, t=2, parities=(0, 0, 0))
    assert report.admissible
    assert report.to_lines() == [
        "i=0 C(6,3) even",
        "i=1 C(5,2) even",
        "i=2 C(4,1) even",
        "admissible true",
    ]
    assert not AdmissibilityReport(n=5, k=3, t=2, parities=(0, 0, 1)).admissible
