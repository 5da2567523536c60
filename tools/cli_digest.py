"""Digest the output of a fixed set of 313 CLI calls, one line per call.

Each line is ``md5<TAB>exit<TAB>argv``: the md5 of the call's stdout, a NUL
byte and its stderr, the exit code, and the arguments. Two checkouts print
the same lines exactly when every call gives the same bytes and exit code.
``tools/cli_digest.tsv`` holds the lines of the committed CLI, so a change
that must keep the CLI output is checked with

    python3 tools/cli_digest.py | diff tools/cli_digest.tsv -

and only a change that alters CLI bytes on purpose records the file anew.
``--src`` digests another checkout's sources instead.

The calls: ``check`` of every property at depths 0-3 on bool2 and chain4
(``stability`` at depth 0 only) and at depths 0-2 on N5, V4 and L6;
``hsd``, ``secondiso``, ``dpn`` and ``diexact`` at depth 3 on N5, V4 and
L6; ``stability`` on N5, V4 and L6; ``nsub`` on the nine named fixtures;
``paper-examples`` at depths 0-3; ``enumerate --max-size 8``, also
with ``--filter nonmodular``, with ``--filter nondistributive`` and with
``--format tsv``; ``nsub``,
``modular`` and ``distributive`` on Z2^3, Z2xZ4, Z3^3, Z2^4 and Z6xZ2^2;
``nsub`` on Z2^5;
every depth-1 check and ``stability`` on Z2^3 and Z2xZ4; ``hsd``,
``secondiso``, ``dpn`` and ``diexact`` at depth 2 on Z2^3 and at depths 1
and 2 on two commutative monoids that are neither semilattices nor groups,
(Z12, *) and {0..4} under truncated addition; ``validate`` on
the nine named fixtures and the five groups; ``validate``, ``nsub`` and
``check --property dpn --ses-depth 1`` on cover files of L6 and of a
7-element lattice with their elements and covers shuffled, and
``validate`` on N5's ``nsub`` export; ``validate``, ``nsub`` and
``check --property distributive`` on a monoid file of L6's join table with
its elements shuffled, so the labelling is not a linear extension; ``secondiso``, ``dpn`` and
``diexact`` at depths 0 and 1 on cover files of two 8-element census
lattices; four input errors (exit 2): ``nsub``
on a non-commutative monoid file, an unknown fixture, a ``--ses-depth`` of
4 and ``enumerate --max-size 9``; and ``validate`` on four malformed cover
files (exit 2): a non-Hasse cover, two minimal elements, a pair with two
minimal upper bounds and a 2-cycle; and 14 calls that argparse answers
with help (exit 0) or a usage error (exit 2): ``--help``, ``check --help``,
``enumerate --help``, no arguments, a missing or invalid ``--property``,
an unknown option, an abbreviated option, ``--opt=value``, an option after
the input, a negative or non-integer number, a repeated option and an
abbreviated ``--format``; and ``stability`` on Z3^3, Z2^4, Z6xZ2^2,
(Z12, *), truncated {0..4}, the two census lattices and L6's join table;
``validate`` on 27 malformed files (exit 2), one per message of the two
readers: 16 monoid files (header, size, rows, entries, label lines, and a
non-associative table with more than five failures, a broken identity
and an out-of-range entry), 9 semilattice files (header, size, cover
lines, label lines and an unknown line), an unknown header and an empty
file; ``validate`` and ``nsub`` on chain12; and ``validate`` on a cover
file of the Boolean lattice 2^5 with its elements renumbered; ``nsub``
and ``check --property distributive`` on (Z12, *), truncated {0..4} and
(Z3, *) x (Z4, *); ``validate`` on chain256 and chain257, one on each
side of the largest chain fixture; ``validate`` on a 40-element cover
file that lists no cover (exit 2); and ``hsd`` and ``dpn`` at depths 1
and 2 on Z2^4, whose 67-element lattice is modular and not distributive;
and ``secondiso`` and ``diexact`` at depth 0 on Z2^5 and on
(Z3, *) x (Z4, *), whose tables count the classes of a cokernel for every
normal submonoid; ``secondiso`` and ``diexact`` at depth 1 on Z2^4, where
65 of the 67 objects fail; and ``hsd``, ``modular`` and ``distributive`` at
depth 1 on the two census lattices, which are not modular; and
``modular`` and ``distributive`` on monoid files of N5 x 3^2 and N5 x 3^3
(45 and 135 elements), whose witnesses are the first pentagon of a larger
lattice; ``validate`` on a renumbered cover file with no join, whose
first joinless pair in row-major order of the file's own numbering is
(0,1) while in height order it is (3,4); and ``stability`` at depth 1 on
N5, which the CLI refuses (exit 2).
Every call runs in a fresh interpreter with
``COLUMNS=80``, so help wraps alike on every terminal; the input files are
written to a temporary directory that is the calls' working directory, so
no path shows in the output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHECKS = ("hsd", "secondiso", "dpn", "diexact", "modular", "distributive")
SES_CHECKS = CHECKS[:4]
FIXTURES = ("triv", "chain2", "chain3", "chain4", "bool2", "N5", "M3", "L6", "V4")
GROUPS = {
    "Z2x2x2": (2, 2, 2),
    "Z2x4": (2, 4),
    "Z3x3x3": (3, 3, 3),
    "Z2x2x2x2": (2, 2, 2, 2),
    "Z6x2x2": (6, 2, 2),
}
# the identity adjoined to the two-element left-zero band: x*y = x for x, y > 0
NONCOMMUTATIVE = "monoid 3\n0 1 2\n1 1 1\n2 2 2\n"
# cover files: L6 and the 7-element lattice 0<1, 0<3, 1<2, 1<4, 2<6, 3<4,
# 3<5, 4<6, 5<6 renumbered, with their covers in no particular order; N5's
# ``nsub`` export; and one malformed file per way a cover graph can fail
COVER_FILES = {
    "L6shuffled": "semilattice 6\ncover 3 0\ncover 4 2\ncover 1 5\ncover 0 2\ncover 5 0\n"
    "cover 1 3\ncover 5 4\nlabel 0 C\nlabel 1 0\nlabel 2 A\nlabel 3 E\nlabel 4 B\nlabel 5 D\n",
    "c7shuffled": "semilattice 7\ncover 2 5\ncover 1 3\ncover 4 6\ncover 0 3\ncover 6 5\n"
    "cover 2 1\ncover 4 2\ncover 5 3\ncover 6 0\n",
    "N5nsub": "lattice 5\ncover 0 1\ncover 0 2\ncover 1 3\ncover 2 4\ncover 3 4\n"
    "label 0 {0}\nlabel 1 {0,C}\nlabel 2 {0,D}\nlabel 3 {0,C,B}\nlabel 4 {0,C,D,B,A}\n",
    "nothasse": "semilattice 3\ncover 0 1\ncover 1 2\ncover 0 2\n",
    "nobottom": "semilattice 3\ncover 0 2\ncover 1 2\n",
    "nojoin": "semilattice 5\ncover 0 1\ncover 0 2\ncover 1 3\ncover 2 3\ncover 1 4\ncover 2 4\n",
    "cycle": "semilattice 2\ncover 0 1\ncover 1 0\n",
    # the no-join file renumbered: 2 is the bottom, 0 and 1 the two upper
    # bounds of 3 and 4
    "nojoinrenumbered": "semilattice 5\ncover 2 3\ncover 2 4\ncover 3 0\ncover 4 0\n"
    "cover 3 1\ncover 4 1\n",
}
# one malformed file per message of the two readers (exit 2); the monoid
# files break the header, the rows, the label lines and each monoid axiom,
# the semilattice files the header, the cover lines and the label lines
MALFORMED = {
    "m_header": "monoid 3 4\n",
    "m_sizeword": "monoid x\n",
    "m_sizezero": "monoid 0\n",
    "m_longrow": "monoid 2\n0 1 0\n1 0\n",
    "m_entryword": "monoid 2\n0 1\n1 a\n",
    "m_extrarow": "monoid 2\n0 1\n1 0\n0 1\n",
    "m_missingrow": "monoid 2\n0 1\n",
    "m_labelargs": "monoid 1\n0\nlabel 0\n",
    "m_labelword": "monoid 1\n0\nlabel x a\n",
    "m_labelrange": "monoid 2\n0 1\n1 0\nlabel 2 a\n",
    "m_labeltwice": "monoid 2\n0 1\n1 0\nlabel 0 a\nlabel 0 b\n",
    "m_labelclash": "monoid 2\n0 1\n1 0\nlabel 0 1\n",
    "m_labeldelim": "monoid 2\n0 1\n1 0\nlabel 1 a;b\n",
    "m_nonassoc": "monoid 3\n0 1 2\n1 2 2\n2 1 1\n",
    "m_identity": "monoid 2\n0 0\n1 1\n",
    "m_outofrange": "monoid 2\n0 1\n1 2\n",
    "s_header": "lattice 3 4\n",
    "s_sizeword": "semilattice x\n",
    "s_sizezero": "semilattice 0\n",
    "s_coverword": "semilattice 2\ncover 0 x\n",
    "s_coverrange": "semilattice 2\ncover 0 2\n",
    "s_coverloop": "semilattice 2\ncover 1 1\n",
    "s_labelword": "semilattice 2\ncover 0 1\nlabel x a\n",
    "s_labelargs": "semilattice 2\ncover 0 1\nlabel 0\n",
    "s_edge": "semilattice 2\nedge 0 1\n",
    "poset": "poset 3\n",
    "empty": "",
}
# a cover file of 40 elements that lists no cover, so every element is minimal
HEADER_ONLY = "semilattice 40\n"
# L6's join table as a monoid file, elements renumbered so that the identity
# (the bottom) stays 0 but the top is 1 and D (4) lies below C (3)
L6TABLE = (
    "monoid 6\n0 1 2 3 4 5\n1 1 1 1 1 1\n2 1 2 3 3 1\n3 1 3 3 3 1\n4 1 3 3 4 5\n"
    "5 1 1 1 5 5\nlabel 1 A\nlabel 2 E\nlabel 3 C\nlabel 4 D\nlabel 5 B\n"
)
# two 8-element census lattices as cover files: on c8_153 diexact's first
# witness is "induced map not injective", on c8_22 dpn's is "map-normal" and
# secondiso's "primal"
CENSUS_FILES = {
    "c8_153": "0<1 0<3 1<2 1<4 2<5 3<4 3<6 4<5 5<7 6<7",
    "c8_22": "0<1 1<2 1<5 2<3 2<6 3<4 4<7 5<6 6<7",
}


def cover_text(covers: str) -> str:
    """The cover file of an 8-element lattice from its ``a<b`` covers."""
    lines = ["semilattice 8"] + [f"cover {c.replace('<', ' ')}" for c in covers.split()]
    return "\n".join(lines) + "\n"


def boolean_cover_text(k: int) -> str:
    """The cover file of the Boolean lattice 2^k with subset s numbered
    (13 s + 5) mod 2^k, so the bottom is not element 0, and the covers
    listed in reverse order of their upper element."""
    n = 1 << k
    name = [(13 * s + 5) % n for s in range(n)]
    pairs = [(name[s], name[s | 1 << i]) for s in range(n) for i in range(k) if not s >> i & 1]
    covers = sorted(pairs, key=lambda c: (-c[1], c[0]))
    return f"semilattice {n}\n" + "".join(f"cover {a} {b}\n" for a, b in covers)


def group_text(orders: tuple[int, ...]) -> str:
    """The monoid file of Z_m1 x ... x Z_mk, elements in lexicographic order
    of their coordinates (the identity first)."""
    elems = list(product(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(elems)}
    rows = [
        " ".join(
            str(index[tuple((x + y) % m for x, y, m in zip(a, b, orders))]) for b in elems
        )
        for a in elems
    ]
    return f"monoid {len(elems)}\n" + "\n".join(rows) + "\n"


def multiplicative_text(n: int) -> str:
    """The monoid file of (Z_n, *): element i is the residue (i + 1) mod n,
    so the identity 1 comes first, and each element is labelled with its
    residue."""
    rows = [
        " ".join(str((((a + 1) * (b + 1)) % n - 1) % n) for b in range(n)) for a in range(n)
    ]
    labels = [f"label {i} {(i + 1) % n}" for i in range(n)]
    return f"monoid {n}\n" + "\n".join(rows + labels) + "\n"


def multiplicative_product_text(m: int, n: int) -> str:
    """The monoid file of (Z_m, *) x (Z_n, *), pairs in lexicographic order
    of ``multiplicative_text``'s numbering, so the identity (1, 1) comes
    first, each labelled with its residues as ``r.s``."""
    pairs = list(product(range(m), range(n)))
    index = {p: i for i, p in enumerate(pairs)}

    def mul(a, b, k):
        return ((a + 1) * (b + 1) % k - 1) % k

    rows = [
        " ".join(str(index[mul(a, c, m), mul(b, d, n)]) for c, d in pairs) for a, b in pairs
    ]
    labels = [f"label {i} {(a + 1) % m}.{(b + 1) % n}" for i, (a, b) in enumerate(pairs)]
    return f"monoid {m * n}\n" + "\n".join(rows + labels) + "\n"


def truncated_text(n: int) -> str:
    """The monoid file of {0..n} under min(a + b, n)."""
    rows = [" ".join(str(min(a + b, n)) for b in range(n + 1)) for a in range(n + 1)]
    return f"monoid {n + 1}\n" + "\n".join(rows) + "\n"


def n5_chains_text(k: int) -> str:
    """The monoid file of N5 x 3^k: the ``N5`` fixture's join table
    (elements 0, A, B, C, D) times k copies of the 3-element chain under
    max, elements in lexicographic order of their coordinates (the identity
    first)."""
    n5 = ((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), (2, 1, 2, 2, 1), (3, 1, 2, 3, 1), (4, 1, 1, 1, 4))
    elems = list(product(range(5), *[range(3)] * k))
    index = {e: i for i, e in enumerate(elems)}
    rows = [
        " ".join(str(index[(n5[a[0]][b[0]], *map(max, a[1:], b[1:]))]) for b in elems)
        for a in elems
    ]
    return f"monoid {len(elems)}\n" + "\n".join(rows) + "\n"


# commutative monoids that are neither semilattices nor groups
MIXED = {"Z12mul": multiplicative_text(12), "trunc4": truncated_text(4)}


def calls() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for name, top in (("bool2", 3), ("chain4", 3), ("N5", 2), ("V4", 2), ("L6", 2)):
        for depth in range(top + 1):
            for prop in CHECKS + (("stability",) if depth == 0 else ()):
                if prop == "stability" and name not in ("bool2", "chain4"):
                    continue
                out.append(("check", "--property", prop, "--ses-depth", str(depth), name))
    for name in ("N5", "V4", "L6"):
        out += [("check", "--property", prop, "--ses-depth", "3", name) for prop in SES_CHECKS]
    out += [("check", "--property", "stability", name) for name in ("N5", "V4", "L6")]
    out += [("nsub", name) for name in FIXTURES]
    out += [("paper-examples", "--ses-depth", str(d)) for d in range(4)]
    out.append(("enumerate", "--max-size", "8"))
    out += [("enumerate", "--max-size", "8", "--filter", f) for f in ("nonmodular", "nondistributive")]
    out.append(("--format", "tsv", "enumerate", "--max-size", "8"))
    for group in GROUPS:
        path = f"{group}.txt"
        out.append(("nsub", path))
        out += [("check", "--property", prop, path) for prop in ("modular", "distributive")]
    out.append(("nsub", "Z2x2x2x2x2.txt"))
    for group in ("Z2x2x2", "Z2x4"):
        path = f"{group}.txt"
        out += [("check", "--property", prop, "--ses-depth", "1", path) for prop in CHECKS]
        out.append(("check", "--property", "stability", path))
    out += [("check", "--property", prop, "--ses-depth", "2", "Z2x2x2.txt") for prop in SES_CHECKS]
    for name, depth in product(MIXED, ("1", "2")):
        path = f"{name}.txt"
        out += [("check", "--property", prop, "--ses-depth", depth, path) for prop in SES_CHECKS]
    out += [("validate", name) for name in FIXTURES]
    out += [("validate", f"{group}.txt") for group in GROUPS]
    for name in ("L6shuffled", "c7shuffled"):
        path = f"{name}.txt"
        out += [("validate", path), ("nsub", path)]
        out.append(("check", "--property", "dpn", "--ses-depth", "1", path))
    for name, depth in product(CENSUS_FILES, ("0", "1")):
        path = f"{name}.txt"
        out += [
            ("check", "--property", prop, "--ses-depth", depth, path)
            for prop in ("secondiso", "dpn", "diexact")
        ]
    out.append(("validate", "N5nsub.txt"))
    out += [("validate", "L6table.txt"), ("nsub", "L6table.txt")]
    out.append(("check", "--property", "distributive", "L6table.txt"))
    out += [
        ("nsub", "noncommutative.txt"),
        ("nsub", "nosuch"),
        ("check", "--property", "hsd", "--ses-depth", "4", "bool2"),
        ("enumerate", "--max-size", "9"),
    ]
    out += [("validate", f"{name}.txt") for name in ("nothasse", "nobottom", "nojoin", "cycle")]
    out += [("--help",), ("check", "--help"), ("enumerate", "--help"), ()]
    out += [
        ("check", "N5"),
        ("check", "--property", "bogus", "N5"),
        ("--jobs", "2", "check", "--property", "dpn", "N5"),
        ("check", "--prop", "dpn", "N5"),
        ("check", "--property=dpn", "--ses-depth=1", "N5"),
        ("check", "N5", "--property", "dpn"),
        ("check", "--property", "dpn", "--ses-depth", "-1", "N5"),
        ("check", "--property", "dpn", "--property", "hsd", "N5"),
        ("enumerate", "--max-size", "x"),
        ("--form", "tsv", "check", "--property", "dpn", "N5"),
    ]
    others = ("Z3x3x3", "Z2x2x2x2", "Z6x2x2", *MIXED, *CENSUS_FILES, "L6table")
    out += [("check", "--property", "stability", f"{name}.txt") for name in others]
    out += [("validate", f"{name}.txt") for name in MALFORMED]
    out += [("validate", "chain12"), ("nsub", "chain12"), ("validate", "bool5.txt")]
    for name in ("Z12mul", "trunc4", "Z3mulxZ4mul"):
        path = f"{name}.txt"
        out += [("nsub", path), ("check", "--property", "distributive", path)]
    out += [("validate", "chain256"), ("validate", "chain257"), ("validate", "headeronly.txt")]
    for depth, prop in product(("1", "2"), ("hsd", "dpn")):
        out.append(("check", "--property", prop, "--ses-depth", depth, "Z2x2x2x2.txt"))
    for path, prop in product(("Z2x2x2x2x2.txt", "Z3mulxZ4mul.txt"), ("secondiso", "diexact")):
        out.append(("check", "--property", prop, "--ses-depth", "0", path))
    for prop in ("secondiso", "diexact"):
        out.append(("check", "--property", prop, "--ses-depth", "1", "Z2x2x2x2.txt"))
    for name, prop in product(CENSUS_FILES, ("hsd", "modular", "distributive")):
        out.append(("check", "--property", prop, "--ses-depth", "1", f"{name}.txt"))
    for name, prop in product(("N5x3x3", "N5x3x3x3"), ("modular", "distributive")):
        out.append(("check", "--property", prop, f"{name}.txt"))
    out.append(("validate", "nojoinrenumbered.txt"))
    out.append(("check", "--property", "stability", "--ses-depth", "1", "N5"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="the src directory to import monlat from")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()), COLUMNS="80")
    with tempfile.TemporaryDirectory() as work:
        for group, orders in GROUPS.items():
            Path(work, f"{group}.txt").write_text(group_text(orders))
        Path(work, "Z2x2x2x2x2.txt").write_text(group_text((2,) * 5))
        Path(work, "L6table.txt").write_text(L6TABLE)
        for name, text in {**MIXED, **COVER_FILES, **MALFORMED}.items():
            Path(work, f"{name}.txt").write_text(text)
        for name, covers in CENSUS_FILES.items():
            Path(work, f"{name}.txt").write_text(cover_text(covers))
        Path(work, "noncommutative.txt").write_text(NONCOMMUTATIVE)
        Path(work, "bool5.txt").write_text(boolean_cover_text(5))
        Path(work, "Z3mulxZ4mul.txt").write_text(multiplicative_product_text(3, 4))
        Path(work, "headeronly.txt").write_text(HEADER_ONLY)
        for k in (2, 3):
            Path(work, f"N5{'x3' * k}.txt").write_text(n5_chains_text(k))
        for call in calls():
            proc = subprocess.run(
                [sys.executable, "-m", "monlat", *call], cwd=work, env=env, capture_output=True
            )
            digest = hashlib.md5(proc.stdout + b"\0" + proc.stderr).hexdigest()
            sys.stdout.write(f"{digest}\t{proc.returncode}\t{' '.join(call)}\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
