"""Checks one rank beyond the stated criteria, as generality insurance."""

from arfold.words import twisted_adapted_point
from arfold.twistfold import twisted_folded_quivers
from arfold.affine import verify_den_dist, verify_dorey


def test_b4_constructions_cover_point():
    fqs = twisted_folded_quivers("A", 7)
    assert len(fqs) == 64
    assert set(fqs) == set(twisted_adapted_point("A", 7))


def test_b4_den_dist():
    rep = verify_den_dist("B", 4)
    assert rep.ok and rep.checked == 64 * 10


def test_b4_dorey():
    rep = verify_dorey("B", 4)
    assert rep.ok
    assert any("suspected typos" in n for n in rep.notes)


def test_c5_den_dist():
    rep = verify_den_dist("C", 5)
    assert rep.ok and rep.checked == 32 * 15


def test_c5_dorey():
    rep = verify_dorey("C", 5)
    assert rep.ok and rep.checked == 4480
