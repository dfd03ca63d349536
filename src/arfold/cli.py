"""Command-line surface: enumerate classes, render quivers, run verifiers."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .rootsys import (
    UnsupportedTypeError,
    check_type_rank,
    folding_to,
    root_system,
)
from .words import adapted_point, commutation_class, twisted_adapted_point
from .arquiver import ARQuiver, adapted_quiver_of, gamma_q, hasse_quiver
from .twistfold import FoldingError, twisted_folded_quivers
from .seqorder import point_socle_records
from . import affine

SCHEMA = "arfold/1"


class UsageError(ValueError):
    """Bad command-line input; main prints it as one line with exit status 2."""


def _root_label(rs, r) -> str:
    v = rs.positive_roots[r]
    if rs.type_tag == "A":
        nz = [i + 1 for i, c in enumerate(v) if c]
        return f"[{nz[0]},{nz[-1]}]" if len(nz) > 1 else f"[{nz[0]}]"
    return "".join(str(c) for c in v)


def _parse_word(text: str):
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise UsageError(f"cannot parse word {text!r}; expected e.g. 1,2,1") from None


def _resolve_quiver(rs, cls):
    """Coordinates for a class: adapted, twisted, or layered fallback."""
    word = cls.canonical_word
    q = adapted_quiver_of(rs, word)
    if q is not None:
        g = gamma_q(q)
        return hasse_quiver(cls, g), "adapted"
    try:
        folded = twisted_folded_quivers(rs.type_tag, rs.rank)
    except FoldingError:
        folded = {}
    if cls in folded:
        return hasse_quiver(cls, folded[cls].unfolded()), "twisted"
    return hasse_quiver(cls), "layered"


def quiver_to_json(quiver: ARQuiver) -> dict:
    rs = quiver.rs
    verts = sorted(quiver.coords, key=lambda t: (t[2], t[1], t[0]))
    index = {r: k for k, (r, _, _) in enumerate(verts)}
    return {
        "schema": SCHEMA,
        "type": rs.type_tag,
        "rank": rs.rank,
        "position_denominator": 2,
        "vertices": [
            {
                "root": list(rs.positive_roots[r]),
                "residue": i,
                "position": p2,
            }
            for r, i, p2 in verts
        ],
        "arrows": sorted(
            [index[a], index[b]] for a, b in quiver.arrows
        ),
    }


def quiver_from_json(doc: dict) -> ARQuiver:
    """Inverse of quiver_to_json; a ValueError names the bad field, vertex or arrow."""
    if not isinstance(doc, dict):
        raise ValueError(f"the document must be a dict, not {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    missing = [k for k in ("type", "rank", "vertices", "arrows") if k not in doc]
    if missing:
        raise ValueError(f"document lacks {missing}")
    check_type_rank(doc["type"], doc["rank"])
    for key in ("vertices", "arrows"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list, not {type(doc[key]).__name__}")
    rs = root_system(doc["type"], doc["rank"])
    coords = []
    verts = []
    for k, v in enumerate(doc["vertices"]):
        try:
            r = rs.root_index[tuple(v["root"])]
            i, p2 = v["residue"], v["position"]
        except (KeyError, TypeError):
            raise ValueError(
                f"vertex {k} {v!r} needs a positive root of {rs}, "
                "a residue and a position"
            ) from None
        if type(i) is not int or i not in rs.nodes or type(p2) is not int:
            raise ValueError(f"vertex {k} {v!r} has a bad residue or position")
        if r in verts:
            raise ValueError(f"vertex {k} repeats the root {v['root']}")
        coords.append((r, i, p2))
        verts.append(r)
    arrows = set()
    for k, ends in enumerate(doc["arrows"]):
        if not (
            isinstance(ends, (list, tuple)) and len(ends) == 2
            and all(type(e) is int and 0 <= e < len(verts) for e in ends)
        ):
            raise ValueError(f"arrow {k} {ends!r} is not a pair of vertex indices")
        arrows.add((verts[ends[0]], verts[ends[1]]))
    return ARQuiver(rs, tuple(sorted(coords)), frozenset(arrows))


def quiver_to_dot(quiver: ARQuiver) -> str:
    rs = quiver.rs
    lines = ["digraph arquiver {", "  rankdir=RL;"]
    names = {}
    for r, i, p2 in sorted(quiver.coords, key=lambda t: (t[2], t[1])):
        names[r] = f"v{r}"
        pos = Fraction(p2, 2)
        lines.append(
            f'  v{r} [label="{_root_label(rs, r)}\\n({i},{pos})"];'
        )
    for a, b in sorted(quiver.arrows):
        lines.append(f"  {names[a]} -> {names[b]};")
    lines.append("}")
    return "\n".join(lines)


def quiver_to_ascii(quiver: ARQuiver) -> str:
    rs = quiver.rs
    rows: dict[int, dict[int, str]] = {}
    positions = sorted({p2 for _, _, p2 in quiver.coords})
    for r, i, p2 in quiver.coords:
        rows.setdefault(i, {})[p2] = _root_label(rs, r)
    width = max(
        [len(lab) for row in rows.values() for lab in row.values()]
        + [len(str(Fraction(p, 2))) for p in positions]
    ) + 1
    out = []
    header = ["(i,p)".rjust(6)]
    header += [str(Fraction(p, 2)).rjust(width) for p in positions]
    out.append("".join(header))
    for i in sorted(rows):
        cells = [f"{i}".rjust(6)]
        for p in positions:
            cells.append(rows[i].get(p, "").rjust(width))
        out.append("".join(cells))
    return "\n".join(out)


def _open_out(out_path: str, mode: str = "w"):
    """``out_path`` opened in ``mode``; an OSError there is a UsageError."""
    try:
        return open(out_path, mode)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _emit(text: str, out_path: str | None):
    """Print ``text``, or write it to ``out_path``."""
    if not out_path:
        print(text)
        return
    with _open_out(out_path) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def cmd_classes(args) -> int:
    rs = root_system(args.type, args.rank)
    if args.cluster == "adapted":
        point = adapted_point(args.type, args.rank)
    else:
        point = twisted_adapted_point(args.type, args.rank)
    lines = [
        ",".join(map(str, cls.canonical_word))
        for cls in sorted(point, key=lambda c: c.canonical_word)
    ]
    lines.append(f"total {len(point)}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_quiver(args) -> int:
    rs = root_system(args.type, args.rank)
    word = _parse_word(args.cls)
    try:
        cls = commutation_class(rs, word)
    except ValueError as exc:
        raise UsageError(f"not a reduced word of w_0: {exc}") from None
    quiver, kind = _resolve_quiver(rs, cls)
    if args.format == "json":
        doc = quiver_to_json(quiver)
        doc["class"] = list(cls.canonical_word)
        doc["layout"] = kind
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    elif args.format == "dot":
        _emit(quiver_to_dot(quiver), args.out)
    else:
        _emit(quiver_to_ascii(quiver), args.out)
    return 0


def _report_lines(rep) -> str:
    lines = [f"[{'PASS' if rep.ok else 'FAIL'}] {rep.name} ({rep.checked} checks)"]
    for note in rep.notes:
        lines.append(f"  note: {note}")
    for m in rep.mismatches:
        lines.append(f"  mismatch: {m}")
    return "\n".join(lines)


# the options each suite reads and needs; giving it any other is a UsageError
SUITE_OPTIONS = {
    "den-dist": ("target", "n"),
    "dorey": ("target", "n"),
    "socle-dist": ("type", "rank"),
    "counts": (),
    "f4": (),
}


def cmd_verify(args) -> int:
    reports = []
    reads = SUITE_OPTIONS[args.suite]
    for name in ("target", "n", "type", "rank"):
        if name not in reads and getattr(args, name) is not None:
            raise UsageError(f"suite {args.suite!r} does not read --{name}")
    for name in reads:
        if getattr(args, name) is None:
            raise UsageError(f"suite {args.suite!r} needs --{name}")
    if "target" in reads:
        folding_to(args.target, args.n)
    if args.out:
        # refuse an unwritable path before the suite runs; appending
        # leaves an existing file as it is
        _open_out(args.out, "a").close()
    if args.suite == "den-dist":
        reports.append(affine.verify_den_dist(args.target, args.n))
        reports.append(affine.verify_class_invariance(args.target, args.n))
    elif args.suite == "dorey":
        reports.append(affine.verify_dorey(args.target, args.n))
    elif args.suite == "socle-dist":
        reports.append(verify_socle_dist(args.type, args.rank))
    elif args.suite == "counts":
        reports.append(affine.verify_counts())
    elif args.suite == "f4":
        reports.append(affine.verify_f4_conjecture())
    text = "\n".join(_report_lines(r) for r in reports)
    print(text)
    if args.out:
        _emit(json.dumps([r.as_dict() for r in reports], indent=2), args.out)
    return 0 if all(r.ok for r in reports) else 1


def verify_socle_dist(type_tag: str, rank: int, jobs: int = 1):
    """Socle existence/uniqueness and dist bounds over a twisted point of A or D.

    One walk over the point's BFS tree: the seed class checks each
    comparable pair, every other class carries its parent's records along
    the folded reflection and checks only the pairs at the moved root.
    ``checked`` counts every pair of every class; mismatches come sorted
    by canonical word, then by pair.  The check runs in one thread:
    ``jobs`` is kept only because `perfbench/passes.py` passes ``jobs=1``,
    and any other value is a UsageError.
    """
    if jobs != 1:
        raise UsageError(f"socle-dist runs in one thread; jobs={jobs!r} is not supported")
    if type_tag not in ("A", "D"):
        raise UnsupportedTypeError(f"socle-dist is proved for A and D only, not {type_tag}")
    point = twisted_folded_quivers(type_tag, rank)
    n = root_system(type_tag, rank).num_positive
    rep = affine.Report(f"socle-dist {type_tag}{rank}", True, 0)
    for fq, records in point_socle_records(point):
        rep.checked += n * (n - 1) // 2
        word = fq.source_class.canonical_word
        rep.mismatches.extend((word, *rec) for rec in records)
    rep.mismatches.sort(key=lambda m: m[:3])
    rep.ok = not rep.mismatches
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arfold",
        description="folded AR quivers of longest-element commutation classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="list a cluster point")
    p.add_argument("--type", required=True, choices=["A", "D", "E"])
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--cluster", required=True, choices=["adapted", "twisted"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("quiver", help="render the quiver of a class")
    p.add_argument("--type", required=True, choices=["A", "D", "E"])
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--class", dest="cls", required=True,
                   help="canonical word as a comma list")
    p.add_argument("--format", default="ascii", choices=["ascii", "dot", "json"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(SUITE_OPTIONS))
    p.add_argument("--target", choices=["B", "C"])
    p.add_argument("--n", type=int)
    p.add_argument("--type", choices=["A", "D", "E"])
    p.add_argument("--rank", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (FoldingError, UnsupportedTypeError, UsageError) as exc:
        parser.exit(2, f"arfold: error: {exc}\n")
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`): send what is still
        # buffered to devnull, or the flush at exit raises again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
