"""Checks one rank beyond the stated criteria, as generality insurance."""

from arfold.rootsys import folding_from, root_system
from arfold.words import cluster_point, commutation_class
from arfold.twistfold import twisted_folded_quivers
from arfold.affine import verify_den_dist, verify_dorey


def test_b4_constructions_cover_point():
    fqs = twisted_folded_quivers("A", 7)
    assert len(fqs) == 64
    word = folding_from("A", 7).twisted_longest_word()
    assert set(fqs) == cluster_point(commutation_class(root_system("A", 7), word))


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
