import hashlib
import json
import operator
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arfold import affine, cli, seqorder, twistfold
from arfold.arquiver import all_quivers, gamma_q
from arfold.cli import main, quiver_from_json, quiver_to_json
from arfold.rootsys import root_system
from arfold.words import commutation_class

# a class of A_4 that is neither adapted nor twisted (A_4 has no folding)
A4_LAYERED_WORD = "1,2,1,3,2,4,3,2,1,2"
# the seed class of the twisted point of A_5, its twisted longest word
A5_TWISTED_WORD = "1,2,1,3,5,4,3,2,1,3,5,4,3,2,3"


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
    (["verify", "socle-dist", "--type", "A", "--rank", "99"],
     "rank 99 of type A is not supported"),
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
], ids=["classes-no-folding", "classes-bad-rank", "socle-dist", "socle-dist-rank",
        "den-dist", "dorey",
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


@pytest.mark.parametrize("suite, flag", [
    *[(suite, flag) for suite in ("counts", "f4", "socle-dist")
      for flag in ("--target", "--n")],
    *[(suite, flag) for suite in ("den-dist", "dorey", "counts", "f4")
      for flag in ("--type", "--rank")],
])
def test_a_flag_the_suite_does_not_read_is_a_one_line_error(capsys, monkeypatch, suite, flag):
    def no_suite(*args):
        raise AssertionError("the suite ran")

    for name in ("verify_counts", "verify_f4_conjecture", "verify_den_dist", "verify_dorey"):
        monkeypatch.setattr(affine, name, no_suite)
    monkeypatch.setattr(cli, "verify_socle_dist", no_suite)
    values = {"--target": "B", "--n": "2", "--type": "A", "--rank": "3"}
    argv = ["verify", suite]
    for f in [*(f"--{name}" for name in cli.SUITES[suite][0]), flag]:
        argv += [f, values[f]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"arfold: error: suite {suite!r} does not read {flag}\n"


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
    # every sequence of a below-list minimal: each one is at depth 0
    monkeypatch.setattr(
        seqorder, "_chain_depths", lambda cls, elems: dict.fromkeys(elems, 0)
    )
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
        main(["quiver", "--type", "A", "--rank", "5", "--class", A5_TWISTED_WORD])


def test_quiver_twisted_walk_errors_are_not_a_missing_folding(monkeypatch, capsys):
    # a FoldingError raised inside the walk, here a moving letter that is
    # no folded sink, is an error: not a type without a folding, drawn layered
    folded_sinks = twistfold.folded_sinks
    monkeypatch.setattr(twistfold, "folded_sinks", lambda fq: folded_sinks(fq)[1:])
    cold = lru_cache(maxsize=None)(twistfold.twisted_folded_quivers.__wrapped__)
    monkeypatch.setattr(cli, "twisted_folded_quivers", cold)
    with pytest.raises(SystemExit) as exc:
        main(["quiver", "--type", "A", "--rank", "5", "--class", A5_TWISTED_WORD,
              "--format", "dot"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("arfold: error: ")


# sha256 of `arfold quiver` output for the seed class and the class r_1
# moves it to, the first two classes of each twisted point
TWISTED_RENDERINGS = {
    ("A", 5, A5_TWISTED_WORD): (
        "3e8f78f1165111be7341bc2af7b8636845c19f85e9840799b4a7ea9630a7473d",
        "c8f1c6881dc2e158599de9c995762b8b5217ce6137d9a31c842ae5bcfc864d11",
        "c9b41fe720ef9a038ebe099e05c6bb8e8c27a37f3333695edf49fa76ef8d1a72",
    ),
    ("A", 5, "2,1,3,5,4,3,2,1,3,5,4,3,2,3,5"): (
        "017052ff97269b51da4b518c0042d695b43fe3ccda6bdd8ce80f69be4c563ef7",
        "8b3335c4aa5f18aa1b419f6d0a11c79778e62d3d5ad85ad75427b754b9bd70d8",
        "54660809e7a00f2d20edbdbae3a92902753b360989008ff9b66d8da33ed3bec7",
    ),
    ("D", 5, "1,2,1,3,2,1,4,3,2,1,5,3,2,1,4,3,2,5,3,4"): (
        "d74a92262f025918fdb20769cc0ce7474e6e01eb03ad2b5f00ae312f4d71d04c",
        "a6e3bb09a5fba6fb9d813168fd37117ae8a66babcbf925a75ac3fd06df70c391",
        "594f36dee9c038240d42a35d4b6887a12e837eca3a8a4afaf5cc259f397c463e",
    ),
    ("D", 5, "2,1,3,2,1,4,3,2,1,5,3,2,1,4,3,2,1,5,3,4"): (
        "5e0f3663aa2fda179041419423b1e1f29e1d10bc8b37bbbfa2c01995014e19aa",
        "6de738c65cb854919fffefcb1125b9b4f4b46fcca6d1f5441d70033c0a3f7599",
        "333f16943b9d961a3ed3c34a2a96fb1b1645b6ae54142a689767bfb74d78e240",
    ),
    ("E", 6, "1,2,1,5,6,3,4,5,6,3,2,1,6,3,4,5,6,3,2,1,6,3,4,5,6,3,2,1,6,3,4,6,3,2,6,3"): (
        "5e12b23adfe0c8480326816e1990c6e3694b4a1fd301a42b4efa9902a4f4e451",
        "93f9b79a327da78dc3b4069196648c4330b5cf09f637fb90f38d74feb75067c2",
        "88128499f6a0d2722516bd4f33b33ccd0bb97da27d1c0b04ffc10bc6fddacb1a",
    ),
    ("E", 6, "2,1,5,6,3,4,5,6,3,2,1,6,3,4,5,6,3,2,1,6,3,4,5,6,3,2,1,6,3,4,5,6,3,2,6,3"): (
        "8a20655c12d86e729f119ca901cbf12ea6de257e4edfb74681f1d7fb8f79e7d2",
        "736d44257c76788e2226b18fce0d34b38d9741cb5b9ccbee20640505aa7ddc0a",
        "0d7099eb3d7386072fc23a83c4b5c739e2ba3db57a715382665867227d21c62b",
    ),
}


@pytest.mark.parametrize("fmt", ["json", "dot", "ascii"])
@pytest.mark.parametrize(
    "key", TWISTED_RENDERINGS, ids=lambda k: f"{k[0]}{k[1]}-{k[2].split(',')[0]}"
)
def test_twisted_renderings_are_pinned(capsys, key, fmt):
    # the one production reader of a folded quiver's arrows: `unfolded`
    type_tag, rank, word = key
    code, out = run(capsys, "quiver", "--type", type_tag, "--rank", str(rank),
                    "--class", word, "--format", fmt)
    assert code == 0
    assert (fmt != "json") or json.loads(out)["layout"] == "twisted"
    want = TWISTED_RENDERINGS[key][("json", "dot", "ascii").index(fmt)]
    assert hashlib.sha256(out.encode()).hexdigest() == want


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
    (lambda d: d.update(position_denominator=7), "position_denominator must be 2, not 7"),
    (lambda d: operator.delitem(d, "position_denominator"),
     "position_denominator must be 2, not None"),
], ids=["unknown-root", "missing-residue", "residue-out-of-range", "repeated-root",
        "arrow-out-of-range", "negative-arrow", "arrow-triple", "no-vertices",
        "string-rank", "bool-rank", "huge-rank", "zero-rank", "unknown-type",
        "unhashable-type", "not-a-dict", "vertices-not-a-list", "arrows-not-a-list",
        "other-denominator", "no-denominator"])
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
