import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arfold import affine, cli, seqorder
from arfold.arquiver import all_quivers, gamma_q
from arfold.cli import main, quiver_from_json, quiver_to_json
from arfold.rootsys import root_system
from arfold.words import commutation_class

# a class of A_4 that is neither adapted nor twisted (A_4 has no folding)
A4_LAYERED_WORD = "1,2,1,3,2,4,3,2,1,2"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classes_twisted_a5(capsys):
    code, out = run(capsys, "classes", "--type", "A", "--rank", "5",
                    "--cluster", "twisted")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "total 16"
    assert len(lines) == 17


def test_classes_adapted_a4(capsys):
    code, out = run(capsys, "classes", "--type", "A", "--rank", "4",
                    "--cluster", "adapted")
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1] == "total 8"


def test_classes_twisted_e6(capsys):
    code, out = run(capsys, "classes", "--type", "E", "--rank", "6",
                    "--cluster", "twisted")
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1] == "total 32" and len(lines) == 33


def test_classes_deterministic(capsys):
    _, out1 = run(capsys, "classes", "--type", "D", "--rank", "4",
                  "--cluster", "twisted")
    _, out2 = run(capsys, "classes", "--type", "D", "--rank", "4",
                  "--cluster", "twisted")
    assert out1 == out2


def test_quiver_ascii_matches_printed_table(capsys):
    code, out = run(capsys, "quiver", "--type", "A", "--rank", "4",
                    "--class", "4,1,3,2,4,1,3,2,4,3")
    assert code == 0
    # the printed example grid: [2,4] at (1,-2), [4] at (4,1)
    lines = out.splitlines()
    head = lines[0].split()
    assert head[0] == "(i,p)"
    row1 = next(l for l in lines if l.strip().startswith("1 ") or l.strip() == "1" or l.lstrip().startswith("1"))
    assert "[2,4]" in row1
    row4 = lines[-1]
    assert "[4]" in row4


def test_quiver_dot(capsys):
    code, out = run(capsys, "quiver", "--type", "A", "--rank", "2",
                    "--class", "1,2,1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 2  # chain [1] <- [1,2] -> ... total order has 2 covers


def test_quiver_json_round_trip(capsys):
    code, out = run(capsys, "quiver", "--type", "A", "--rank", "5",
                    "--class", "1,3,5,4,3,2,1,3,5,4,3,2,3,5,4",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "arfold/1"
    assert doc["position_denominator"] == 2
    assert len(doc["vertices"]) == 15
    q = quiver_from_json(doc)
    doc2 = quiver_to_json(q)
    for key in ("vertices", "arrows", "type", "rank"):
        assert doc[key] == doc2[key]


def test_quiver_json_e6_folded_count(capsys):
    from arfold.rootsys import folding_from

    word = ",".join(map(str, folding_from("E", 6).twisted_longest_word()))
    code, out = run(capsys, "quiver", "--type", "E", "--rank", "6",
                    "--class", word, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 36


def test_quiver_rejects_bad_word(capsys):
    with pytest.raises(SystemExit):
        main(["quiver", "--type", "A", "--rank", "2", "--class", "1,1,1"])


def test_verify_den_dist_exit_zero(capsys):
    code, out = run(capsys, "verify", "den-dist", "--target", "B", "--n", "2")
    assert code == 0
    assert "[PASS]" in out


def test_verify_counts_exit_zero(capsys):
    code, out = run(capsys, "verify", "counts")
    assert code == 0


def test_verify_socle_dist_small(capsys):
    code, out = run(capsys, "verify", "socle-dist", "--type", "A", "--rank", "3")
    assert code == 0
    assert "[PASS]" in out


def test_socle_dist_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "socle-dist", "--type", "A", "--rank", "3", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, 2])
def test_verify_socle_dist_refuses_jobs_other_than_one(jobs):
    with pytest.raises(cli.UsageError, match="one thread"):
        cli.verify_socle_dist("A", 3, jobs=jobs)


def test_verify_report_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run(capsys, "verify", "den-dist", "--target", "B", "--n", "2",
                  "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc[0]["ok"] is True


def test_verify_needs_target(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "den-dist"])


@pytest.mark.parametrize("argv, message", [
    (["classes", "--type", "A", "--rank", "4", "--cluster", "twisted"],
     "A_4 has no printed folding"),
    (["classes", "--type", "D", "--rank", "3", "--cluster", "adapted"],
     "rank 3 of type D is not supported"),
    (["verify", "socle-dist", "--type", "A", "--rank", "4"],
     "A_4 has no printed folding"),
    (["verify", "den-dist", "--target", "B", "--n", "1"],
     "no printed folding onto B_1"),
    (["verify", "dorey", "--target", "B", "--n", "1"],
     "no printed folding onto B_1"),
    (["verify", "socle-dist", "--type", "E", "--rank", "6"],
     "proved for A and D only, not E"),
    (["quiver", "--type", "A", "--rank", "3", "--class", ","],
     "cannot parse word ','"),
    (["quiver", "--type", "A", "--rank", "3", "--class", "1,2,1,2,1,2"],
     "not a reduced word of w_0: word is not reduced at position 4"),
    (["quiver", "--type", "A", "--rank", "3", "--class", "1,2,3,1,2,7"],
     "letter 7 outside the index set"),
    (["quiver", "--type", "A", "--rank", "3", "--class", "1,2,1"],
     "word of length 3 is not a reduced word of w_0"),
    (["verify", "dorey", "--target", "B"], "suite 'dorey' needs --n"),
    (["verify", "socle-dist"], "suite 'socle-dist' needs --type"),
    (["verify", "socle-dist", "--type", "D"], "suite 'socle-dist' needs --rank"),
], ids=["classes-no-folding", "classes-bad-rank", "socle-dist", "den-dist", "dorey",
        "socle-dist-e", "quiver-unparsable", "quiver-not-reduced",
        "quiver-letter-outside", "quiver-wrong-length", "verify-needs-n",
        "socle-dist-needs-type", "socle-dist-needs-rank"])
def test_bad_type_or_target_is_a_one_line_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("arfold: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ["verify", "counts"],
    ["classes", "--type", "A", "--rank", "3", "--cluster", "twisted"],
    ["quiver", "--type", "A", "--rank", "2", "--class", "1,2,1"],
], ids=["verify", "classes", "quiver"])
def test_unwritable_out_is_a_one_line_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"arfold: error: cannot write --out {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_unwritable_out_is_refused_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    def suite():
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(affine, "verify_counts", suite)
    out = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "counts", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_socle_dist_fails_when_every_sequence_is_simple(monkeypatch):
    monkeypatch.setattr(seqorder, "is_simple", lambda cls, m: True)
    rep = cli.verify_socle_dist("A", 5)
    assert not rep.ok and rep.mismatches
    word, a, b, d, s = rep.mismatches[0]
    cls = commutation_class(root_system("A", 5), word)
    assert a != b and d > 0 and s is None
    assert len(seqorder.pair_below(cls, a, b)) > 1


def test_socle_dist_builds_no_sequence_for_a_pair_it_passes(monkeypatch):
    built = []
    sequence_from_roots = seqorder.sequence_from_roots
    monkeypatch.setattr(
        seqorder, "sequence_from_roots",
        lambda rs, roots: built.append(roots) or sequence_from_roots(rs, roots),
    )
    assert cli.verify_socle_dist("A", 5).ok
    assert built == []


def test_dorey_refuses_an_unsupported_rank_before_any_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("a Dorey table was built")

    monkeypatch.setattr(cli.affine, "dorey_triples", no_table)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "dorey", "--target", "B", "--n", "400"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("arfold: error: ") and err.count("\n") == 1
    assert "B_400: rank 799 of type A is not supported" in err


def test_byte_identical_json(capsys):
    args = ["quiver", "--type", "A", "--rank", "4",
            "--class", "4,1,3,2,4,1,3,2,4,3", "--format", "json"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_quiver_non_adapted_a4_is_layered(capsys):
    code, out = run(capsys, "quiver", "--type", "A", "--rank", "4",
                    "--class", A4_LAYERED_WORD, "--format", "json")
    assert code == 0
    assert json.loads(out)["layout"] == "layered"


def test_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "arfold.cli", "verify", "counts"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


def test_quiver_twisted_construction_errors_propagate(monkeypatch):
    def broken(type_tag, rank):
        raise AssertionError("construction is broken")

    monkeypatch.setattr(cli, "twisted_folded_quivers", broken)
    with pytest.raises(AssertionError, match="construction is broken"):
        main(["quiver", "--type", "A", "--rank", "4", "--class", A4_LAYERED_WORD])


def test_quiver_class_errors_propagate(monkeypatch):
    def broken(rs, word):
        raise AssertionError("canonicalisation is broken")

    monkeypatch.setattr(cli, "commutation_class", broken)
    with pytest.raises(AssertionError, match="canonicalisation is broken"):
        main(["quiver", "--type", "A", "--rank", "4", "--class", A4_LAYERED_WORD])


def _a5_doc():
    rs = root_system("A", 5)
    return quiver_to_json(gamma_q(all_quivers(rs)[0]))


@pytest.mark.parametrize("mutate, names", [
    (lambda d: d["vertices"][3].update(root=[9, 9, 0, 0, 0]), "vertex 3"),
    (lambda d: operator.delitem(d["vertices"][2], "residue"), "vertex 2"),
    (lambda d: d["vertices"][4].update(residue=6), "vertex 4"),
    (lambda d: d["vertices"].append(dict(d["vertices"][0])), "vertex 15"),
    (lambda d: d["arrows"].append([0, 15]), "arrow"),
    (lambda d: d["arrows"].append([-1, 0]), "arrow"),
    (lambda d: d["arrows"].append([0, 1, 2]), "arrow"),
    (lambda d: operator.delitem(d, "vertices"), "vertices"),
    (lambda d: d.update(rank="5"), "rank"),
    (lambda d: d.update(rank=True), "rank"),
    (lambda d: d.update(rank=10**9), "rank"),
    (lambda d: d.update(rank=0), "rank"),
    (lambda d: d.update(type="B"), "type"),
    (lambda d: d.update(type=["A"]), "type"),
    (lambda d: [d], "document must be a dict"),
    (lambda d: d.update(vertices=5), "vertices must be a list"),
    (lambda d: d.update(arrows=5), "arrows must be a list"),
], ids=["unknown-root", "missing-residue", "residue-out-of-range", "repeated-root",
        "arrow-out-of-range", "negative-arrow", "arrow-triple", "no-vertices",
        "string-rank", "bool-rank", "huge-rank", "zero-rank", "unknown-type",
        "unhashable-type", "not-a-dict", "vertices-not-a-list", "arrows-not-a-list"])
def test_quiver_from_json_names_the_bad_entry(mutate, names):
    # a mutation edits the document in place or returns a replacement
    doc = _a5_doc()
    doc = mutate(doc) or doc
    with pytest.raises(ValueError, match=names):
        quiver_from_json(doc)


@pytest.mark.parametrize("field, value", [
    ("rank", "3"), ("rank", True), ("rank", 10**9), ("type", "B"),
])
def test_quiver_from_json_checks_type_and_rank_before_building(monkeypatch, field, value):
    def refuse(type_tag, rank):
        raise AssertionError("a root system was built")

    doc = _a5_doc()
    doc[field] = value
    monkeypatch.setattr(cli, "root_system", refuse)
    with pytest.raises(ValueError, match=field):
        quiver_from_json(doc)


@st.composite
def mutated_docs(draw):
    doc = _a5_doc()
    verts, arrows = doc["vertices"], doc["arrows"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["root", "residue", "position", "drop_key", "duplicate", "arrow",
             "rank", "type"]
        ))
        k = draw(st.integers(0, len(verts) - 1))
        if kind == "rank":
            doc["rank"] = draw(st.one_of(
                st.integers(-2, 40), st.just("5"), st.just(True), st.just(5.0)
            ))
        elif kind == "type":
            doc["type"] = draw(st.sampled_from(["A", "D", "E", "B", "a", 5, None]))
        elif kind == "root":
            verts[k]["root"] = draw(st.lists(st.integers(-1, 2), min_size=4, max_size=6))
        elif kind == "residue":
            verts[k]["residue"] = draw(st.integers(-1, 7))
        elif kind == "position":
            verts[k]["position"] = draw(st.one_of(st.integers(-30, 30), st.just("x")))
        elif kind == "drop_key":
            del verts[k][draw(st.sampled_from(sorted(verts[k])))]
        elif kind == "duplicate":
            verts.append(dict(verts[k]))
        else:
            a = draw(st.integers(0, len(arrows) - 1))
            arrows[a] = [draw(st.integers(-3, len(verts) + 3)) for _ in range(2)]
    return doc


@given(mutated_docs())
@settings(max_examples=150, deadline=None)
def test_quiver_from_json_fuzz_round_trips_or_raises_value_error(doc):
    try:
        quiver = quiver_from_json(doc)
    except ValueError:
        return
    assert quiver_from_json(quiver_to_json(quiver)) == quiver
