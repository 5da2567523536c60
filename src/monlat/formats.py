"""Plain-text formats for monoids, semilattices and exported lattices.

Monoid files:       optional '#' comments, a `monoid <n>` header, n rows of
                    n whitespace-separated entries, optional `label <i> <name>`
                    lines.
Semilattice files:  `semilattice <n>` (or `lattice <n>`, so exported
                    subobject lattices re-parse as first-class inputs),
                    `cover <a> <b>` lines, optional labels. Joins are
                    inferred; the canonical form lists elements in the
                    deterministic linear extension.
"""

from __future__ import annotations

from .monoid import FinMonoid, InvalidMonoid, MonoidError, validate_monoid
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
    # names render subsets in witnesses, (A;B):note and pentagon[A;B;...],
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
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "monoid":
        raise ParseError(lineno, "expected header 'monoid <n>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, "monoid size must be an integer") from None
    if n < 1:
        raise ParseError(lineno, "monoid size must be positive")
    rows = []
    labels = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "label":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'label <i> <name>'")
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(lineno, "label index must be an integer") from None
            labels.append((lineno, idx, parts[2]))
            continue
        if len(rows) == n:
            raise ParseError(lineno, "more table rows than declared")
        try:
            row = tuple(int(x) for x in parts)
        except ValueError:
            raise ParseError(lineno, "table entries must be integers") from None
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, found {len(row)}")
        rows.append(row)
    if len(rows) != n:
        raise ParseError(lines[-1][0], f"expected {n} table rows, found {len(rows)}")
    try:
        return validate_monoid(rows, _parse_labels(labels, n))
    except (InvalidMonoid, MonoidError) as exc:
        raise ParseError(lines[0][0], str(exc)) from exc


def parse_semilattice_text(text: str) -> FinMonoid:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("semilattice", "lattice"):
        raise ParseError(lineno, "expected header 'semilattice <n>' or 'lattice <n>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, "size must be an integer") from None
    if n < 1:
        raise ParseError(lineno, "size must be positive")
    covers = []
    labels = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if parts[0] == "cover" and len(parts) == 3:
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "cover endpoints must be integers") from None
            if not (0 <= a < n and 0 <= b < n):
                raise ParseError(lineno, f"cover ({a},{b}) out of range")
            covers.append((a, b))
        elif parts[0] == "label" and len(parts) == 3:
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(lineno, "label index must be an integer") from None
            labels.append((lineno, idx, parts[2]))
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


def _label_lines(M: FinMonoid) -> list[str]:
    if M.labels is None:
        return []
    return [f"label {i} {M.label(i)}" for i in range(M.size)]


def emit_monoid_text(M: FinMonoid) -> str:
    lines = [f"monoid {M.size}"]
    lines += [" ".join(str(v) for v in row) for row in M.table]
    lines += _label_lines(M)
    return "\n".join(lines) + "\n"


def emit_semilattice_text(M: FinMonoid) -> str:
    lines = [f"semilattice {M.size}"]
    lines += [f"cover {a} {b}" for a, b in lattice_of_semilattice(M).covers]
    lines += _label_lines(M)
    return "\n".join(lines) + "\n"


def emit_lattice_text(lat: NSubLattice) -> str:
    """Subobject-lattice export in the semilattice format, re-parseable."""
    lines = [f"lattice {lat.size}"]
    lines += [f"cover {a} {b}" for a, b in lat.covers]
    lines += [f"label {i} {lat.names[i]}" for i in range(lat.size)]
    return "\n".join(lines) + "\n"
