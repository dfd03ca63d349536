"""The package's records: equality and hashing over the fields each one
compares, the other fields ignored; frozen fields; no record equal to a
tuple or to a record of another class."""

import copy
import pickle

import pytest

from arfold.affine import (
    DoreyEntry,
    FundamentalModuleLabel,
    Report,
    SpectralParameter,
    denominator,
    dorey_triples,
)
from arfold.arquiver import ARQuiver, DynkinQuiver, all_quivers, gamma_q
from arfold.rootsys import DiagramAutomorphism, folding_to, root_system
from arfold.seqorder import RootedPolynomial
from arfold.twistfold import FoldedQuiver, twisted_folded_quivers
from arfold.words import CommutationClass, commutation_class, reflect

FOLDING_FIELDS = (
    "source", "target", "h_dual", "symmetrizer", "sign_convention",
    "twisted_coxeter_word", "automorphism",
)


def _rebuilt(record, fields, **changed):
    """A record of the same class built from ``fields`` of ``record``, some
    of them changed."""
    return type(record)(**{name: getattr(record, name) for name in fields} | changed)


def _cases():
    """{name: (record, an equal record built apart from it, the compared
    fields in order, records that differ from it in one compared field)}.
    The equal record differs from the first in every field the class
    does not compare."""
    b3 = folding_to("B", 3)
    aut = b3.automorphism
    steps_changed = _rebuilt(b3, FOLDING_FIELDS)
    object.__setattr__(steps_changed, "steps", {})

    rs = root_system("A", 5)
    seed = commutation_class(rs, rs.longest_word())
    moved = reflect(seed, seed.canonical_word[0])

    point = twisted_folded_quivers("A", 5)
    first, second = sorted(point, key=lambda c: c.canonical_word)[:2]
    fq = point[first]
    untwisted = _rebuilt(fq.folding, FOLDING_FIELDS, automorphism=DiagramAutomorphism(
        {i: i for i in aut.perm}, aut.orbit_label))
    other_folding = FoldedQuiver(fq.rs, fq.cells, fq.source_class, untwisted)
    object.__setattr__(other_folding, "sinks", ())
    shifted = tuple((res, p + 1) for res, p in fq.cells)

    q, q2 = all_quivers(root_system("A", 3))[:2]
    g = gamma_q(q)
    entry = dorey_triples("B", 3)[0]
    entry_fields = ("i", "j", "k", "y_over_z", "x_over_z", "branch")
    entry_changes = {
        "i": entry.i + 1, "j": entry.j + 1, "k": entry.k + 1,
        "y_over_z": entry.y_over_z * SpectralParameter(1, 0),
        "x_over_z": entry.x_over_z * SpectralParameter(0, 1), "branch": entry.branch + "'",
    }
    report = Report("counts", 6, ["m"], ["n"])
    report_fields = ("name", "checked", "mismatches", "notes")
    report_changes = {"name": "count", "checked": 5, "mismatches": [], "notes": []}
    label = FundamentalModuleLabel(1, SpectralParameter(2, 3))

    return {
        "DiagramAutomorphism": (
            aut, DiagramAutomorphism(dict(aut.perm), dict(aut.orbit_label)),
            ("perm", "orbit_label"),
            [DiagramAutomorphism({i: i for i in aut.perm}, aut.orbit_label),
             DiagramAutomorphism(aut.perm, {i: i for i in aut.perm})],
        ),
        "Folding": (
            b3, steps_changed, FOLDING_FIELDS,
            [_rebuilt(b3, FOLDING_FIELDS, **{name: value}) for name, value in (
                ("source", ("A", 6)), ("target", ("B", 4)), ("h_dual", 6),
                ("symmetrizer", {1: 2, 2: 2, 3: 2}), ("sign_convention", "D"),
                ("twisted_coxeter_word", (3, 2, 1)),
                ("automorphism", DiagramAutomorphism(aut.perm, {})),
            )],
        ),
        "CommutationClass": (
            moved, CommutationClass(rs, moved.canonical_word), ("rs", "canonical_word"),
            [seed, CommutationClass(root_system("A", 4), moved.canonical_word)],
        ),
        "FoldedQuiver": (
            fq, other_folding, ("rs", "cells", "source_class"),
            [FoldedQuiver(fq.rs, shifted, first, fq.folding),
             FoldedQuiver(fq.rs, fq.cells, second, fq.folding)],
        ),
        "DynkinQuiver": (
            q, DynkinQuiver(q.rs, frozenset(q.orientation)), ("rs", "orientation"), [q2],
        ),
        "ARQuiver": (
            g, ARQuiver(g.rs, tuple(g.coords), frozenset(g.arrows)), ("rs", "coords", "arrows"),
            [ARQuiver(root_system("A", 4), g.coords, g.arrows),
             ARQuiver(g.rs, g.coords[::-1], g.arrows),
             ARQuiver(g.rs, g.coords, frozenset())],
        ),
        "RootedPolynomial": (
            denominator("B", 3, 1, 2), RootedPolynomial(denominator("B", 3, 2, 1).factors),
            ("factors",), [denominator("B", 3, 1, 1)],
        ),
        "SpectralParameter": (
            SpectralParameter(5, 1), SpectralParameter(1, 1), ("phase", "exp"),
            [SpectralParameter(2, 1), SpectralParameter(1, 2)],
        ),
        "FundamentalModuleLabel": (
            label, FundamentalModuleLabel(1, SpectralParameter(6, 3)), ("node", "parameter"),
            [FundamentalModuleLabel(2, label.parameter),
             FundamentalModuleLabel(1, SpectralParameter(2, 4))],
        ),
        "DoreyEntry": (
            entry, _rebuilt(entry, entry_fields), entry_fields,
            [_rebuilt(entry, entry_fields, **{name: value})
             for name, value in entry_changes.items()],
        ),
        "Report": (
            report, _rebuilt(report, report_fields), report_fields,
            [_rebuilt(report, report_fields, **{name: value})
             for name, value in report_changes.items()],
        ),
    }


CASES = _cases()
UNHASHABLE = {"DiagramAutomorphism", "Folding", "Report"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_reads_the_compared_fields_alone(name):
    record, same, compared, others = CASES[name]
    assert type(record).__name__ == type(same).__name__ == name
    assert record is not same and record == same and not record != same
    for other in others:
        assert type(other) is type(record)
        assert record != other and other != record
    fields = tuple(getattr(record, f) for f in compared)
    assert record != fields and fields != record
    assert record != list(fields)


@pytest.mark.parametrize("name", sorted(CASES))
def test_hash_reads_the_compared_fields_alone(name):
    record, same, compared, others = CASES[name]
    if name in UNHASHABLE:
        # a record holding a dict, or a mutable report, is unhashable
        for r in (record, same):
            with pytest.raises(TypeError, match="unhashable"):
                hash(r)
        return
    # the hash of the compared fields as a tuple, so sets and dicts of
    # records keep their order
    assert hash(record) == hash(same) == hash(tuple(getattr(record, f) for f in compared))
    assert {record: 1}[same] == 1
    assert len({record, same, *others}) == 1 + len(set(others))


@pytest.mark.parametrize("name", sorted(CASES.keys() - {"Report"}))
def test_a_frozen_record_refuses_assignment(name):
    record = CASES[name][0]
    assert not hasattr(record, "__dict__")
    for field in type(record).__slots__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.new_field = 1


def test_a_record_of_another_class_with_equal_fields_is_unequal():
    # SpectralParameter(1, 2) and FundamentalModuleLabel(1, 2) compare (1, 2)
    a, b = SpectralParameter(1, 2), FundamentalModuleLabel(1, 2)
    assert a != b and b != a
    assert hash(a) == hash(b) and len({a, b}) == 2


def test_a_spectral_parameter_reduces_its_phase_mod_4():
    assert SpectralParameter(5, 1).phase == 1
    assert SpectralParameter(-1, 0).phase == 3
    assert SpectralParameter(3, 2) * SpectralParameter(3, 2) == SpectralParameter(2, 4)
    assert repr(SpectralParameter(6, -2)) == "SpectralParameter(phase=2, exp=-2)"


def test_each_report_has_its_own_lists():
    a, b = Report("a", 0), Report("b", 0)
    a.mismatches.append(1)
    a.notes.append("n")
    assert b.mismatches == [] and b.notes == [] and a.mismatches is not b.mismatches
    assert a.ok is False and b.ok is True
    b.checked = 3  # a report is filled in as its suite runs
    assert b.as_dict() == {"name": "b", "ok": True, "checked": 3, "mismatches": [], "notes": []}
    assert repr(a) == "Report(name='a', checked=0, mismatches=[1], notes=['n'])"


def test_the_excluded_fields_stay_out_of_the_repr():
    record, same, *_ = CASES["CommutationClass"]
    assert record.parent is not None and repr(record) == repr(same)
    assert "parent" not in repr(record)
    fq = CASES["FoldedQuiver"][0]
    assert "sinks" not in repr(fq) and ", folding=Folding(" in repr(fq)
    assert "steps" not in repr(CASES["Folding"][0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_copies_and_pickles_are_equal_records(name):
    record = CASES[name][0]
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
