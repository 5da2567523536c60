import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monlat.census import lattices_of_size
from monlat.formats import (
    ParseError,
    emit_lattice_text,
    emit_monoid_text,
    emit_semilattice_text,
    parse_monoid_text,
    parse_semilattice_text,
    parse_structure,
)
from monlat.monoid import FinMonoid
from monlat.nsub import enumerate_nsub, lattice_of_semilattice

from conftest import abelian_group, named_commutative_monoids
from oracles import lattices_isomorphic


L6_TEXT = """\
# six-element example
semilattice 6
cover 0 1
cover 0 2
cover 1 3
cover 1 4
cover 2 4
cover 3 5
cover 4 5
label 0 0
label 1 D
label 2 E
label 3 B
label 4 C
label 5 A
"""


class TestMonoidFormat:
    def test_roundtrip(self, V4):
        text = emit_monoid_text(V4)
        again = parse_monoid_text(text)
        assert again.table == V4.table and again.labels == V4.labels

    def test_comments_and_whitespace(self):
        text = "# comment\nmonoid 2\n\n0 1  # trailing\n1 0\n"
        M = parse_monoid_text(text)
        assert M.size == 2

    def test_invalid_table_diagnosed_with_line(self):
        text = "monoid 2\n0 1\n1 2\n"
        with pytest.raises(ParseError) as err:
            parse_monoid_text(text)
        assert "OutOfRange" in str(err.value)

    def test_non_associative_diagnosed(self):
        text = "monoid 3\n0 1 2\n1 2 2\n2 1 1\n"
        with pytest.raises(ParseError) as err:
            parse_monoid_text(text)
        assert "NonAssociative" in str(err.value)

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError) as err:
            parse_monoid_text("monoid 3\n0 1 2\n1 2 0\n")
        assert err.value.lineno == 3

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_monoid_text("monoid 2\n0 1\n1 0\nlabel 0 e\nlabel 0 f\n")
        assert "duplicate" in str(err.value)

    def test_label_names_are_unique(self):
        with pytest.raises(ParseError) as err:
            parse_monoid_text("monoid 2\n0 1\n1 0\nlabel 0 a\nlabel 1 a\n")
        assert err.value.lineno == 5
        # a name may not repeat the index that names an unlabelled element
        with pytest.raises(ParseError) as err:
            parse_semilattice_text("semilattice 2\ncover 0 1\nlabel 1 0\n")
        assert err.value.lineno == 3

    def test_subset_names_are_accepted_as_labels(self):
        # exported lattices name their elements by member sets
        M = parse_semilattice_text("lattice 2\ncover 0 1\nlabel 0 {0}\nlabel 1 {0,A}\n")
        assert M.labels == ("{0}", "{0,A}")

    def test_partial_labels_fill_with_indices(self):
        M = parse_monoid_text("monoid 2\n0 1\n1 0\nlabel 1 g\n")
        assert M.labels == ("0", "g")


class TestSemilatticeFormat:
    def test_parse_l6(self, L6):
        M = parse_semilattice_text(L6_TEXT)
        assert M.table == L6.table and M.labels == L6.labels

    def test_roundtrip_canonical(self, L6):
        text = emit_semilattice_text(L6)
        again = parse_semilattice_text(text)
        assert again.table == L6.table and again.labels == L6.labels
        assert emit_semilattice_text(again) == text

    def test_no_bottom_diagnostic(self):
        text = "semilattice 3\ncover 0 2\ncover 1 2\n"
        with pytest.raises(ParseError) as err:
            parse_semilattice_text(text)
        assert "minimal" in str(err.value)

    def test_lattice_header_accepted(self):
        assert parse_semilattice_text("lattice 1\n").size == 1

    def test_unknown_line_rejected(self):
        with pytest.raises(ParseError):
            parse_semilattice_text("semilattice 2\nedge 0 1\n")


class TestDispatch:
    def test_dispatch_on_header(self, V4, L6):
        assert parse_structure(emit_monoid_text(V4)).table == V4.table
        assert parse_structure(emit_semilattice_text(L6)).table == L6.table

    def test_unknown_header(self):
        with pytest.raises(ParseError):
            parse_structure("poset 3\n")


# one malformed file per message of the two readers, with the line number
# and message each has always been reported with
MALFORMED = [
    ("monoid-header", "monoid 3 4\n", 1, "expected header 'monoid <n>'"),
    ("monoid-size-word", "monoid x\n", 1, "monoid size must be an integer"),
    ("monoid-size-zero", "monoid 0\n", 1, "monoid size must be positive"),
    ("long-row", "monoid 2\n0 1 0\n1 0\n", 2, "expected 2 entries, found 3"),
    ("entry-word", "monoid 2\n0 1\n1 a\n", 3, "table entries must be integers"),
    ("extra-row", "monoid 2\n0 1\n1 0\n0 1\n", 4, "more table rows than declared"),
    ("missing-row", "monoid 2\n0 1\n", 2, "expected 2 table rows, found 1"),
    ("monoid-label-args", "monoid 1\n0\nlabel 0\n", 3, "expected 'label <i> <name>'"),
    ("monoid-label-word", "monoid 1\n0\nlabel x a\n", 3, "label index must be an integer"),
    ("label-range", "monoid 2\n0 1\n1 0\nlabel 2 a\n", 4, "label index 2 out of range"),
    (
        "label-twice",
        "monoid 2\n0 1\n1 0\nlabel 0 a\nlabel 0 b\n",
        5,
        "duplicate label for element 0",
    ),
    ("label-clash", "monoid 2\n0 1\n1 0\nlabel 0 1\n", 4, "label '1' names two elements"),
    (
        "label-delimiter",
        "monoid 2\n0 1\n1 0\nlabel 1 a;b\n",
        4,
        "label 'a;b' contains a witness delimiter",
    ),
    (
        "non-associative",
        "monoid 3\n0 1 2\n1 2 2\n2 1 1\n",
        1,
        "NonAssociative(1,1,1); NonAssociative(1,1,2); NonAssociative(1,2,1); "
        "NonAssociative(1,2,2); NonAssociative(2,1,1) (3 more)",
    ),
    ("identity", "monoid 2\n0 0\n1 1\n", 1, "IdentityViolation(1)"),
    ("out-of-range", "monoid 2\n0 1\n1 2\n", 1, "OutOfRange(1,1)"),
    ("lattice-header", "lattice 3 4\n", 1, "expected header 'semilattice <n>' or 'lattice <n>'"),
    ("size-word", "semilattice x\n", 1, "size must be an integer"),
    ("size-zero", "semilattice 0\n", 1, "size must be positive"),
    ("cover-word", "semilattice 2\ncover 0 x\n", 2, "cover endpoints must be integers"),
    ("cover-range", "semilattice 2\ncover 0 2\n", 2, "cover (0,2) out of range"),
    ("cover-loop", "semilattice 2\ncover 1 1\n", 1, "bad cover pair (1,1)"),
    (
        "semilattice-label-word",
        "semilattice 2\ncover 0 1\nlabel x a\n",
        3,
        "label index must be an integer",
    ),
    ("semilattice-label-args", "semilattice 2\ncover 0 1\nlabel 0\n", 3, "unrecognized line 'label 0'"),
    ("edge", "semilattice 2\nedge 0 1\n", 2, "unrecognized line 'edge 0 1'"),
    ("poset", "poset 3\n", 1, "unrecognized header 'poset'"),
    ("empty", "", 1, "empty input"),
]


class TestMalformed:
    @pytest.mark.parametrize(
        "text, lineno, message", [pytest.param(*case[1:], id=case[0]) for case in MALFORMED]
    )
    def test_line_and_message(self, text, lineno, message):
        with pytest.raises(ParseError) as err:
            parse_structure(text)
        assert (err.value.lineno, err.value.message) == (lineno, message)


def _round_trip_monoids():
    """The named fixtures, every census lattice up to size 7 and the abelian
    groups of order at most 16 with cyclic factors of order 2-4."""
    monoids = list(named_commutative_monoids().values())
    monoids += [L for n in range(1, 8) for L in lattices_of_size(n)]
    for orders in ((2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (4, 4), (2, 2, 4), (2, 2, 2, 2)):
        monoids.append(abelian_group(*orders))
    return monoids


class TestRoundTrip:
    @given(M=st.sampled_from(_round_trip_monoids()))
    @settings(max_examples=100, deadline=None)
    def test_monoid_format(self, M):
        assert parse_structure(emit_monoid_text(M)) == M

    @given(M=st.sampled_from([M for M in _round_trip_monoids() if M.is_semilattice]))
    @settings(max_examples=100, deadline=None)
    def test_semilattice_format(self, M):
        # the format lists elements in its own linear extension of the
        # order, so a semilattice numbered otherwise comes back renumbered:
        # with every element labelled, the parse is M with its elements
        # permuted along their labels, and it round-trips exactly
        if M.labels is None:
            M = FinMonoid(M.table, tuple(f"x{i}" for i in range(M.size)))
        again = parse_structure(emit_semilattice_text(M))
        assert sorted(again.labels) == sorted(M.labels)
        old = [M.element(again.label(i)) for i in range(again.size)]
        for a in range(again.size):
            for b in range(again.size):
                assert old[again.op(a, b)] == M.op(old[a], old[b])
        assert parse_structure(emit_semilattice_text(again)) == again

    def test_fixtures_come_back_exactly(self):
        for M in named_commutative_monoids().values():
            if M.is_semilattice:
                assert parse_structure(emit_semilattice_text(M)) == M


class TestLatticeExport:
    def test_nsub_export_reparses_isomorphic(self, N5):
        lat = enumerate_nsub(N5)
        text = emit_lattice_text(lat)
        again = parse_structure(text)
        assert lattices_isomorphic(lattice_of_semilattice(again), lat)

    def test_export_carries_subset_labels(self, V4):
        text = emit_lattice_text(enumerate_nsub(V4))
        assert "label 0 {0}" in text
        assert "label 4 {0,g,h,k}" in text
