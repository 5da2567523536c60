import pytest

from monlat.census import lattices_of_size, lattices_up_to
from monlat.monoid import are_isomorphic, find_isomorphism
from monlat.nsub import is_distributive, is_modular, lattice_of_semilattice

from oracles import brute_force_lattices, canonical_join_table, census_oracle


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

    def test_pairwise_non_isomorphic_up_to_six(self):
        by_size = {}
        for L in lattices_up_to(6):
            by_size.setdefault(L.size, []).append(L)
        for group in by_size.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert not are_isomorphic(a, b)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tables_match_isomorphism_search_oracle(self, n):
        assert [L.table for L in lattices_of_size(n)] == census_oracle(n)

    def test_canonical_tables_are_fixed_points(self):
        for L in lattices_up_to(6):
            assert canonical_join_table(L.table) == L.table

    def test_deterministic_order(self):
        lattices_of_size.cache_clear()
        first = [L.table for L in lattices_up_to(5)]
        lattices_of_size.cache_clear()
        second = [L.table for L in lattices_up_to(5)]
        assert first == second


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
