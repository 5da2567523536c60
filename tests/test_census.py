import hashlib

import pytest

from monlat.census import (
    _natural_tables,
    _relabellings,
    _swaps,
    census_lattices,
    lattices_of_size,
    lattices_up_to,
)
from monlat.monoid import FinMonoid, are_isomorphic, find_isomorphism
from monlat.nsub import is_distributive, is_modular, lattice_of_semilattice, lattice_verdicts

from oracles import (
    brute_force_lattices,
    canonical_join_table,
    census_oracle,
    relabellings_by_extensions,
)


def _flat(L) -> bytes:
    return bytes(x for row in L.table for x in row)


class TestCounts:
    def test_small_counts_match_brute_force(self):
        for n in range(1, 6):
            assert len(lattices_of_size(n)) == len(brute_force_lattices(n))

    def test_known_small_counts(self):
        assert [len(lattices_of_size(n)) for n in range(1, 6)] == [1, 1, 1, 2, 5]

    def test_known_counts_to_eight(self):
        # OEIS A006966, and the modular and distributive lattices among them
        counts = [len(lattices_of_size(n)) for n in range(1, 9)]
        assert counts == [1, 1, 1, 2, 5, 15, 53, 222]
        lats = [lattice_of_semilattice(L) for L in lattices_up_to(8)]
        assert sum(is_modular(lat)[0] for lat in lats) == 67
        assert sum(is_distributive(lat)[0] for lat in lats) == 36

    def test_size_nine(self):
        # OEIS A006966, A006981 and A006982; the md5 of the canonical tables
        # was recorded from the census that packed each table into one int
        lats = lattices_of_size(9)
        verdicts = [lattice_verdicts(lattice_of_semilattice(L)) for L in lats]
        assert len(lats) == 1078
        assert sum(modular for modular, _ in verdicts) == 72
        assert sum(distributive for _, distributive in verdicts) == 26
        digest = hashlib.md5(b"".join(map(_flat, lats))).hexdigest()
        assert digest == "5155b30475f97e1c24c6ab0237e8ff92"

    def test_sizes_below_one_are_empty(self):
        assert lattices_of_size(0) == ()
        assert lattices_of_size(-1) == ()
        assert lattices_up_to(0) == []

    def test_sizes_past_one_byte_are_refused(self):
        with pytest.raises(ValueError, match="n <= 15"):
            lattices_of_size(16)

    def test_brute_force_classes_match_one_to_one(self):
        for n in range(1, 6):
            generated = list(lattices_of_size(n))
            brute = list(brute_force_lattices(n))
            for L in generated:
                matches = [B for B in brute if find_isomorphism(L, B)]
                assert len(matches) == 1


class TestEmittedStructures:
    def test_all_valid_semilattices(self):
        for L in lattices_up_to(6):
            assert L.is_semilattice

    def test_representatives_pass_the_axiom_scan(self):
        # the census builds its monoids without the O(n^3) scan
        for L in lattices_up_to(8):
            assert FinMonoid(L.table) == L

    def test_pairwise_non_isomorphic_up_to_six(self):
        by_size = {}
        for L in lattices_up_to(6):
            by_size.setdefault(L.size, []).append(L)
        for group in by_size.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert not are_isomorphic(a, b)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_match_isomorphism_search_oracle(self, n):
        assert [L.table for L in lattices_of_size(n)] == census_oracle(n)

    def test_lattices_match_the_lattice_of_each_monoid(self):
        # the census keeps the lattice it checked; the oracle builds the
        # lattice of each monoid afresh from its table
        for n in range(1, 9):
            lats, monoids = census_lattices(n), lattices_of_size(n)
            assert [lat.join for lat in lats] == [L.table for L in monoids]
            assert list(lats) == [lattice_of_semilattice(L) for L in monoids]

    def test_canonical_tables_are_fixed_points(self):
        for L in lattices_up_to(6):
            assert canonical_join_table(L.table) == L.table

    def test_deterministic_order(self):
        census_lattices.cache_clear()
        first = [L.table for L in lattices_up_to(5)]
        census_lattices.cache_clear()
        second = [L.table for L in lattices_up_to(5)]
        assert first == second


class TestSwapWalk:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_reaches_exactly_the_linear_extensions(self, n):
        swaps = _swaps(n)
        for L in lattices_of_size(n):
            assert _relabellings(_flat(L), swaps) == relabellings_by_extensions(_flat(L))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reaches_the_whole_class_from_any_natural_labelling(self, n):
        # the walk never steps back along the swap that reached a table, so
        # it must still reach every relabelling from wherever it starts
        swaps = _swaps(n)
        for t in _natural_tables(n):
            assert _relabellings(t, swaps) == relabellings_by_extensions(t)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_classes_partition_the_natural_tables(self, n):
        swaps = _swaps(n)
        classes = [_relabellings(_flat(L), swaps) for L in lattices_of_size(n)]
        tables = _natural_tables(n)
        union = set().union(*classes)
        assert sum(map(len, classes)) == len(union) == len(set(tables)) == len(tables)
        assert union == set(tables)

    def test_size_eight_has_3637_natural_tables(self):
        assert len(_natural_tables(8)) == 3637


class TestClassification:
    def test_unique_nonmodular_five_lattice_is_the_pentagon(self, N5):
        nonmodular = [
            L
            for L in lattices_of_size(5)
            if not is_modular(lattice_of_semilattice(L))[0]
        ]
        assert len(nonmodular) == 1
        assert are_isomorphic(nonmodular[0], N5)

    def test_all_lattices_up_to_four_are_modular(self):
        for n in range(1, 5):
            for L in lattices_of_size(n):
                assert is_modular(lattice_of_semilattice(L))[0]
