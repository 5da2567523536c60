"""Plain-text formats for monoids, semilattices and exported lattices.

Monoid files:       optional '#' comments, a `monoid <n>` header, n rows of
                    n whitespace-separated entries, optional `label <i> <name>`
                    lines.
Semilattice files:  `semilattice <n>` (or `lattice <n>`, so exported
                    subobject lattices re-parse as first-class inputs),
                    `cover <a> <b>` lines, optional labels. Joins are
                    inferred; the canonical form numbers elements by
                    height, ties by original index.
"""

from __future__ import annotations

from .monoid import FinMonoid, MonoidError, validate_monoid
from .nsub import NSubLattice, lattice_of_semilattice
from .semilattice import CoverGraph, semilattice_from_covers


class ParseError(Exception):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read(text: str, keywords: tuple[str, ...], size: str):
    """A file's content lines, the first a header ``<keyword> <n>``, and n;
    ``size`` names n in the header's errors."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in keywords:
        expected = " or ".join(f"'{word} <n>'" for word in keywords)
        raise ParseError(lineno, f"expected header {expected}")
    (n,) = _ints(lineno, parts[1:], f"{size} must be an integer")
    if n < 1:
        raise ParseError(lineno, f"{size} must be positive")
    return lines, n


def _ints(lineno: int, words, message: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, words))
    except ValueError:
        raise ParseError(lineno, message) from None


def _label(lineno: int, parts):
    """A ``label <i> <name>`` line as (lineno, i, name)."""
    if len(parts) != 3:
        raise ParseError(lineno, "expected 'label <i> <name>'")
    (idx,) = _ints(lineno, parts[1:2], "label index must be an integer")
    return lineno, idx, parts[2]


def _parse_labels(entries, n):
    if not entries:
        return None
    labels = [None] * n
    for lineno, idx, name in entries:
        if not 0 <= idx < n:
            raise ParseError(lineno, f"label index {idx} out of range")
        if labels[idx] is not None:
            raise ParseError(lineno, f"duplicate label for element {idx}")
        labels[idx] = name
    # names render subsets in witnesses, (A;B):note and (A;B;C;D;E):pentagon,
    # so no two elements may share one and none may hold a delimiter (braces
    # and commas stay allowed: exported lattices name elements {0,A})
    taken = {str(i) for i, lab in enumerate(labels) if lab is None}
    for lineno, _, name in entries:
        if name in taken:
            raise ParseError(lineno, f"label {name!r} names two elements")
        if any(c in name for c in ";[]:"):
            raise ParseError(lineno, f"label {name!r} contains a witness delimiter")
        taken.add(name)
    return tuple(str(i) if lab is None else lab for i, lab in enumerate(labels))


def parse_monoid_text(text: str) -> FinMonoid:
    lines, n = _read(text, ("monoid",), "monoid size")
    rows = []
    labels = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "label":
            labels.append(_label(lineno, parts))
            continue
        if len(rows) == n:
            raise ParseError(lineno, "more table rows than declared")
        row = _ints(lineno, parts, "table entries must be integers")
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, found {len(row)}")
        rows.append(row)
    if len(rows) != n:
        raise ParseError(lines[-1][0], f"expected {n} table rows, found {len(rows)}")
    try:
        return validate_monoid(rows, _parse_labels(labels, n))
    except MonoidError as exc:
        raise ParseError(lines[0][0], str(exc)) from exc


def parse_semilattice_text(text: str) -> FinMonoid:
    lines, n = _read(text, ("semilattice", "lattice"), "size")
    covers = []
    labels = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "cover" and len(parts) == 3:
            a, b = _ints(lineno, parts[1:], "cover endpoints must be integers")
            if not (0 <= a < n and 0 <= b < n):
                raise ParseError(lineno, f"cover ({a},{b}) out of range")
            covers.append((a, b))
        elif parts[0] == "label" and len(parts) == 3:
            labels.append(_label(lineno, parts))
        else:
            raise ParseError(lineno, f"unrecognized line {line!r}")
    try:
        graph = CoverGraph(n, tuple(covers), _parse_labels(labels, n))
        return semilattice_from_covers(graph)
    except MonoidError as exc:
        raise ParseError(lines[0][0], str(exc)) from exc


def parse_structure(text: str) -> FinMonoid:
    """Dispatch on the header keyword."""
    for lineno, line in _content_lines(text):
        word = line.split()[0]
        if word == "monoid":
            return parse_monoid_text(text)
        if word in ("semilattice", "lattice"):
            return parse_semilattice_text(text)
        raise ParseError(lineno, f"unrecognized header {word!r}")
    raise ParseError(1, "empty input")


def _text(header: str, body, labels) -> str:
    """A file's text: the header line, the body lines, and a ``label <i>
    <name>`` line per element when there are labels."""
    labels = [f"label {i} {name}" for i, name in enumerate(labels or ())]
    return "\n".join([header, *body, *labels]) + "\n"


def emit_monoid_text(M: FinMonoid) -> str:
    return _text(f"monoid {M.size}", (" ".join(map(str, row)) for row in M.table), M.labels)


def emit_semilattice_text(M: FinMonoid) -> str:
    covers = lattice_of_semilattice(M).covers
    return _text(f"semilattice {M.size}", (f"cover {a} {b}" for a, b in covers), M.labels)


def emit_lattice_text(lat: NSubLattice) -> str:
    """Subobject-lattice export in the semilattice format, re-parseable."""
    return _text(f"lattice {lat.size}", (f"cover {a} {b}" for a, b in lat.covers), lat.names)
