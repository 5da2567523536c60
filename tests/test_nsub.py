from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monlat import monoid
from monlat.census import census_lattices, lattices_up_to
from monlat.monoid import FinMonoid, normal_closure, normal_submonoids
from monlat.nsub import (
    NSubLattice,
    _find_sublattice,
    _lattice_from_order,
    enumerate_nsub,
    is_distributive,
    is_modular,
    lattice_from_join_table,
    lattice_of_semilattice,
    lattice_verdicts,
)
from monlat.semilattice import chain, pentagon

from conftest import (
    abelian_group,
    closure_oracle_families,
    down,
    drawn_submonoids,
    mixed_monoids,
    named_commutative_monoids,
    product_monoid,
    products_and_quotients,
)
from lemmas import cokersquare_check, join_agreement_check, join_via_uniinter, phi_psi
from oracles import (
    _sublattice_shape,
    categorical_lattice,
    find_lattice_isomorphism,
    first_distributive_law_violation,
    first_modular_law_violation,
    first_sublattice_by_subsets,
    fixpoint_normal_closure,
    inclusion_order,
    lattice_axiom_failure,
    lattice_by_closures,
    lattice_method_disagreements,
    lattices_isomorphic,
    normal_submonoids_by_filter,
    normal_submonoids_by_rounds,
    table_order,
)

ORACLE_FAMILIES = closure_oracle_families()
NSUB_POOL = {
    **named_commutative_monoids(),
    "Z2x2x2": abelian_group(2, 2, 2),
    "Z2xZ4": abelian_group(2, 4),
    "Z3x3x3": abelian_group(3, 3, 3),
    "Z2x2x2x2": abelian_group(2, 2, 2, 2),
    "Z6xZ2x2": abelian_group(6, 2, 2),
}


class TestEnumerate:
    def test_nsub_of_pentagon_is_pentagon(self, N5):
        lat = enumerate_nsub(N5)
        assert lat.size == 5
        assert lattices_isomorphic(lat, lattice_of_semilattice(N5))

    def test_nsub_of_trivial(self):
        from monlat.semilattice import trivial

        lat = enumerate_nsub(trivial())
        assert lat.size == 1 and lat.top == lat.bottom

    def test_nsub_of_klein_four_is_diamond(self, V4, M3):
        lat = enumerate_nsub(V4)
        assert lat.size == 5
        assert lattices_isomorphic(lat, lattice_of_semilattice(M3))

    def test_semilattice_self_description(self, commutative_fixtures):
        # the map a -> down(a) is an isomorphism onto the subobject lattice
        for L in commutative_fixtures.values():
            if not L.is_semilattice:
                continue
            lat = enumerate_nsub(L)
            assert lat.size == L.size
            from monlat.semilattice import principal_downset

            down_keys = {a: principal_downset(L, a).members for a in range(L.size)}
            index = {key: i for i, key in enumerate(lat.keys)}
            for a in range(L.size):
                for b in range(L.size):
                    assert (
                        lat.join[index[down_keys[a]]][index[down_keys[b]]]
                        == index[down_keys[L.op(a, b)]]
                    )


class TestSharedLattice:
    """The lattice built from the enumeration's own intersections and normal
    closures against the one built by pullbacks and kernels of cokernels;
    criterion 08 compares them on the ses objects at depths 1..3."""

    def test_matches_categorical_lattice_at_depth_zero(self, cmon, commutative_fixtures):
        from monlat.census import lattices_up_to

        pool = list(commutative_fixtures.values()) + lattices_up_to(7)
        pool += [abelian_group(2, 2, 2), abelian_group(2, 4), abelian_group(3, 3, 3)]
        for M in pool:
            assert enumerate_nsub(M) == categorical_lattice(cmon, M)


class TestJoinViaUniinter:
    def test_pentagon_join(self, cmon, N5):
        y = cmon.subobject_mono(N5, down(N5, "C"))
        z = cmon.subobject_mono(N5, down(N5, "D"))
        j = join_via_uniinter(cmon, N5, y, z)
        assert cmon.mono_key(j) == frozenset(range(5))

    def test_join_with_zero_is_identity(self, cmon, L6):
        zero = cmon.subobject_mono(L6, frozenset({0}))
        for m in cmon.normal_subobject_monos(L6):
            j = join_via_uniinter(cmon, L6, m, zero)
            assert cmon.mono_key(j) == cmon.mono_key(m)

    def test_klein_four_atoms_join_to_top(self, cmon, V4):
        g = cmon.subobject_mono(V4, frozenset({0, 1}))
        h = cmon.subobject_mono(V4, frozenset({0, 2}))
        assert cmon.mono_key(join_via_uniinter(cmon, V4, g, h)) == frozenset(range(4))

    def test_matches_normal_closure_oracle(self, cmon, commutative_fixtures):
        for L in commutative_fixtures.values():
            monos = cmon.normal_subobject_monos(L)
            for a in monos:
                for b in monos:
                    j = join_via_uniinter(cmon, L, a, b)
                    assert cmon.mono_key(j) == normal_closure(L, a.image | b.image)


class TestClosureOracles:
    """The closure formula, the one-pass enumeration and the lattice built
    from up-set bitmasks, against the fixpoint closure, the all-pairs
    rounds and the closure-table lattice."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_enumeration_matches_all_pairs_rounds(self, family):
        for M in ORACLE_FAMILIES[family]:
            assert normal_submonoids(M) == normal_submonoids_by_rounds(M)

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_closure_matches_fixpoint_on_pairs(self, family):
        for M in ORACLE_FAMILIES[family]:
            for x in range(M.size):
                for y in range(x, M.size):
                    seed = frozenset({x, y})
                    assert normal_closure(M, seed) == fixpoint_normal_closure(M, seed)

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_lattice_matches_closure_tables(self, family):
        for M in ORACLE_FAMILIES[family]:
            lat, ref = enumerate_nsub(M), lattice_by_closures(M)
            assert _tables(lat) == _tables(ref)
            assert lattice_axiom_failure(lat, inclusion_order(lat.keys)) is None

    @given(M=products_and_quotients())
    @settings(max_examples=60, deadline=None)
    def test_lattice_matches_closure_lattice_on_products_and_quotients(self, M):
        assert enumerate_nsub(M) == lattice_by_closures(M)

    @given(S=drawn_submonoids())
    @settings(max_examples=150, deadline=None)
    def test_submonoids_match_the_exhaustive_oracles(self, S):
        found = sorted(normal_submonoids(S), key=sorted)
        assert found == sorted(normal_submonoids_by_filter(S), key=sorted)
        assert enumerate_nsub(S) == lattice_by_closures(S)


def _galois_number(p, n):
    """The number of subspaces of GF(p)^n: the sum over k of the Gaussian
    binomials [n k]_p = prod_{i<k} (p^(n-i) - 1) / (p^(i+1) - 1)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


class TestEnumerationCounts:
    """The enumeration against the subgroup counts of elementary abelian
    groups, and the number of saturations it runs."""

    @pytest.mark.parametrize(
        "p, n, count", [(2, 1, 2), (2, 2, 5), (2, 3, 16), (2, 4, 67), (2, 5, 374), (3, 3, 28)]
    )
    def test_subgroups_of_elementary_abelian_groups(self, p, n, count):
        assert _galois_number(p, n) == count
        assert len(normal_submonoids(abelian_group(*[p] * n))) == count

    @pytest.mark.parametrize("orders", [(2,) * 4, (2,) * 5, (3,) * 3])
    def test_each_new_sum_set_is_saturated_once(self, orders, monkeypatch):
        # the closures saturate once per element, the joins at most once per key
        calls = []
        saturation = monoid._saturation

        def recording(t, S):
            calls.append(S)
            return saturation(t, S)

        monkeypatch.setattr(monoid, "_saturation", recording)
        normal_closure.cache_clear()
        M = abelian_group(*orders)
        keys = normal_submonoids(M)
        assert len(calls) <= M.size + len(keys)


def _tables(lat):
    return (lat.keys, lat.names, lat.join, lat.meet, lat.top, lat.bottom)


class TestModularity:
    def test_pentagon_not_modular_with_witness(self, N5):
        lat = enumerate_nsub(N5)
        ok, witness = is_modular(lat)
        assert not ok
        assert witness.kind == "pentagon"
        assert set(witness.names) == {"{0}", "{0,C}", "{0,D}", "{0,C,B}", "{0,C,D,B,A}"}

    def test_diamond_is_modular(self, M3):
        ok, witness = is_modular(enumerate_nsub(M3))
        assert ok and witness is None

    def test_chains_are_modular(self, commutative_fixtures):
        for name in ("chain2", "chain3", "chain4"):
            ok, _ = is_modular(enumerate_nsub(commutative_fixtures[name]))
            assert ok

    def test_methods_agree_on_census(self):
        from monlat.census import lattices_up_to

        for L in lattices_up_to(6):
            lat = lattice_of_semilattice(L)
            assert lattice_method_disagreements(lat) == []
            # a failing verdict carries a sublattice of the named shape
            for ok, witness in (is_modular(lat), is_distributive(lat)):
                assert ok == (witness is None)
                if witness is not None:
                    assert _sublattice_shape(lat, witness.elements) == witness.kind

    def test_disagreement_trap_fires_on_corrupt_tables(self):
        # corrupting the meet table of a 3-chain breaks the modular-law scan,
        # so is_modular fails without a pentagon, while the pentagon search
        # (needing 5 elements) still reports modular; the oracle comparison
        # must report exactly that
        from monlat.semilattice import chain

        lat = lattice_of_semilattice(chain(3))
        assert lattice_method_disagreements(lat) == []
        broken = [list(row) for row in lat.meet]
        broken[2][2] = 0
        broken_meet = tuple(tuple(row) for row in broken)
        lat = NSubLattice(lat.join, broken_meet, lat.top, lat.bottom, lat.names, lat.keys)
        found = lattice_method_disagreements(lat)
        assert found and found[0].startswith("pentagon search: True, is_modular: False")


class TestDistributivity:
    def test_diamond_fails_with_diamond_witness(self, M3):
        ok, witness = is_distributive(enumerate_nsub(M3))
        assert not ok and witness.kind == "diamond"

    def test_pentagon_fails(self, N5):
        ok, witness = is_distributive(enumerate_nsub(N5))
        assert not ok and witness.kind == "pentagon"

    def test_bool2_is_distributive(self, commutative_fixtures):
        ok, _ = is_distributive(enumerate_nsub(commutative_fixtures["bool2"]))
        assert ok

    def test_distributive_implies_modular_on_census(self):
        from monlat.census import lattices_up_to

        for L in lattices_up_to(6):
            lat = lattice_of_semilattice(L)
            if is_distributive(lat)[0]:
                assert is_modular(lat)[0]


N5x3 = product_monoid(pentagon(), chain(3))
WITNESS_POOL = {
    **NSUB_POOL,
    **mixed_monoids(),
    "N5x3": N5x3,
    "N5x3x3": product_monoid(N5x3, chain(3)),
}


class TestSublatticeWitness:
    """``_find_sublattice`` reads the first pentagon or diamond off a pair and
    a third element; the reference tests every 5-subset in order."""

    @staticmethod
    def assert_matches_subset_search(lat):
        for kind in ("pentagon", "diamond"):
            assert _find_sublattice(lat, kind) == first_sublattice_by_subsets(lat, kind), kind

    @pytest.mark.parametrize("n", range(1, 9))
    def test_census_matches_the_subset_search(self, n):
        for lat in census_lattices(n):
            self.assert_matches_subset_search(lat)

    @pytest.mark.parametrize("name", WITNESS_POOL)
    def test_nsub_lattice_matches_the_subset_search(self, name):
        self.assert_matches_subset_search(enumerate_nsub(WITNESS_POOL[name]))

    def test_relabelled_lattice_matches_the_subset_search(self):
        # N5 x 3 with its elements shuffled, so the labelling is not natural
        n = N5x3.size
        p = list(range(n))
        Random(28).shuffle(p)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[p[a]][p[b]] = p[N5x3.op(a, b)]
        lat = lattice_from_join_table(table)
        assert lat.bottom != 0 and _find_sublattice(lat, "pentagon") is not None
        self.assert_matches_subset_search(lat)


def _law_scan_verdicts(lat):
    return (
        first_modular_law_violation(lat) is None,
        first_distributive_law_violation(lat) is None,
    )


class TestVerdictsMatchLawScans:
    """The height and join-irreducible tests of ``lattice_verdicts`` against
    the modular- and distributive-law scans over all triples."""

    def test_census_through_eight(self):
        from monlat.census import lattices_up_to

        lats = [lattice_of_semilattice(L) for L in lattices_up_to(8)]
        assert len(lats) == 300
        for lat in lats:
            assert lattice_verdicts(lat) == _law_scan_verdicts(lat)
        # every combination of verdicts occurs: (modular, distributive)
        assert {lattice_verdicts(lat) for lat in lats} == {
            (False, False), (True, False), (True, True)
        }

    @pytest.mark.parametrize("name", NSUB_POOL)
    def test_nsub_lattices(self, name):
        lat = enumerate_nsub(NSUB_POOL[name])
        assert lattice_verdicts(lat) == _law_scan_verdicts(lat)

    def test_products_of_census_pairs(self):
        from itertools import combinations_with_replacement

        from monlat.census import lattices_up_to

        small = lattices_up_to(5)
        seen = set()
        for A, B in combinations_with_replacement(small, 2):
            lat = lattice_of_semilattice(product_monoid(A, B))
            seen.add(verdicts := lattice_verdicts(lat))
            assert verdicts == _law_scan_verdicts(lat), (A.table, B.table)
        assert seen == {(False, False), (True, False), (True, True)}


class TestJoinAgreement:
    def test_join_with_zero_inside_subobject(self, cmon, N5):
        x = cmon.subobject_mono(N5, down(N5, "B"))
        X1 = cmon.dom(x)
        y = cmon.subobject_mono(X1, down(X1, "C"))
        z = cmon.subobject_mono(X1, frozenset({0}))
        assert join_agreement_check(cmon, N5, x, y, z)

    def test_l6_inside_down_c(self, cmon, L6):
        x = cmon.subobject_mono(L6, down(L6, "C"))
        X1 = cmon.dom(x)
        y = cmon.subobject_mono(X1, down(X1, "E"))
        z = cmon.subobject_mono(X1, down(X1, "D"))
        assert join_agreement_check(cmon, L6, x, y, z)

    def test_group_case(self, cmon, V4):
        x = cmon.subobject_mono(V4, frozenset({0, 1}))
        X1 = cmon.dom(x)
        y = cmon.subobject_mono(X1, frozenset({0, 1}))
        z = cmon.subobject_mono(X1, frozenset({0}))
        assert join_agreement_check(cmon, V4, x, y, z)

    def test_all_nested_configurations(self, cmon, commutative_fixtures):
        for L in (commutative_fixtures["N5"], commutative_fixtures["L6"]):
            for x in cmon.normal_subobject_monos(L):
                X1 = cmon.dom(x)
                inner_monos = cmon.normal_subobject_monos(X1)
                for y in inner_monos:
                    for z in inner_monos:
                        if cmon.is_normal_mono(cmon.compose(x, y)) and cmon.is_normal_mono(cmon.compose(x, z)):
                            assert join_agreement_check(cmon, L, x, y, z)


class TestCokerSquare:
    def test_pentagon_square(self, cmon, N5):
        assert cokersquare_check(
            cmon, N5, frozenset({0}), down(N5, "B"), down(N5, "D")
        )

    def test_degenerate_square(self, cmon, N5):
        k = down(N5, "C")
        assert cokersquare_check(cmon, N5, k, k, k)

    def test_l6_square(self, cmon, L6):
        assert cokersquare_check(
            cmon, L6, frozenset({0}), down(L6, "E"), down(L6, "D")
        )

    def test_exhaustive_over_fixture_squares(self, cmon, commutative_fixtures):
        for L in (commutative_fixtures["bool2"], commutative_fixtures["N5"], commutative_fixtures["V4"]):
            lat = enumerate_nsub(L)
            for iw in range(lat.size):
                for ix in range(lat.size):
                    for iy in range(lat.size):
                        if lat.join[iw][ix] == ix and lat.join[iw][iy] == iy:
                            assert cokersquare_check(
                                cmon, L, lat.keys[iw], lat.keys[ix], lat.keys[iy]
                            )


class TestPhiPsi:
    def test_pentagon_mod_down_d(self, cmon, N5):
        report = phi_psi(cmon, cmon.subobject_mono(N5, down(N5, "D")))
        assert report.ok
        # both sides of the correspondence are 2-chains: the quotient up(D)
        # has two subobjects, and only downD and N5 itself contain downD
        q = cmon.cokernel(cmon.subobject_mono(N5, down(N5, "D")))
        assert enumerate_nsub(cmon.cod(q)).size == 2
        lat = enumerate_nsub(N5)
        d_idx = lat.index_of_key(down(N5, "D"))
        assert sum(1 for i in range(lat.size) if lat.join[d_idx][i] == i) == 2

    def test_trivial_sub_gives_identities(self, cmon, N5):
        report = phi_psi(cmon, cmon.subobject_mono(N5, frozenset({0})))
        assert report.ok

    def test_klein_four_mod_g(self, cmon, V4):
        report = phi_psi(cmon, cmon.subobject_mono(V4, frozenset({0, 1})))
        assert report.ok

    def test_every_normal_mono_of_every_fixture(self, cmon, commutative_fixtures):
        for L in commutative_fixtures.values():
            for m in cmon.normal_subobject_monos(L):
                assert phi_psi(cmon, m).ok


class TestLatticeTables:
    def test_built_lattices_pass_the_axiom_scan(self, cmon, commutative_fixtures):
        # every lattice this module builds from a fixture: its subobject
        # lattice, the subobject lattice of each of its quotients (phi_psi),
        # and the lattice of its own join table
        for L in commutative_fixtures.values():
            lats = [enumerate_nsub(L)]
            lats += [
                enumerate_nsub(cmon.cod(cmon.cokernel(m)))
                for m in cmon.normal_subobject_monos(L)
            ]
            for lat in lats:
                assert lattice_axiom_failure(lat, inclusion_order(lat.keys)) is None
            if L.is_semilattice:
                assert lattice_axiom_failure(lattice_of_semilattice(L), table_order(L.table)) is None

    def test_from_join_table_rejects_unbounded(self):
        with pytest.raises(RuntimeError):
            lattice_from_join_table(((0, 1), (1, 0)))  # Z2 is not a semilattice order

    @pytest.mark.parametrize(
        "covers",
        [
            # the bowtie: 0 and 1 below both 2 and 3
            ((0, 2), (0, 3), (1, 2), (1, 3)),
            # a bottom and a top, with 3 and 4 both minimal above 1 and 2
            ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)),
        ],
        ids=["bowtie", "two-minimal-upper-bounds"],
    )
    def test_builder_rejects_a_non_lattice_order(self, covers):
        n = 1 + max(b for _, b in covers)
        up = [1 << a for a in range(n)]
        # every cover above b comes after (a, b), so up[b] is complete when read
        for a, b in reversed(covers):
            up[a] |= up[b]
        with pytest.raises(RuntimeError, match="order is not a lattice"):
            _lattice_from_order(up, map(str, range(n)))

    def test_covers_of_pentagon(self, N5):
        lat = lattice_of_semilattice(N5)
        names = {(lat.names[a], lat.names[b]) for a, b in lat.covers}
        assert names == {("0", "C"), ("0", "D"), ("C", "B"), ("B", "A"), ("D", "A")}

    def test_isomorphism_search(self, N5, M3):
        assert find_lattice_isomorphism(
            lattice_of_semilattice(N5), lattice_of_semilattice(M3)
        ) is None


@st.composite
def relabelled_census_lattices(draw):
    """A census lattice of size <= 7 and a permutation of its elements, which
    may move the bottom off 0 and put labels below the elements under them."""
    L = draw(st.sampled_from(lattices_up_to(7)))
    return L, draw(st.permutations(range(L.size)))


class TestBuilderLabelling:
    """The lattice builder reads bounds off masks, so it must not depend on
    the labelling: relabelling a join table relabels the lattice."""

    @given(case=relabelled_census_lattices())
    @settings(max_examples=200, deadline=None)
    def test_relabelled_join_table_gives_the_relabelled_lattice(self, case):
        L, p = case
        n = L.size
        ref = lattice_of_semilattice(L)
        table = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[p[a]][p[b]] = p[L.op(a, b)]
                meet[p[a]][p[b]] = p[ref.meet[a][b]]
        lat = lattice_from_join_table(table)
        assert lat.join == tuple(map(tuple, table))
        assert lat.meet == tuple(map(tuple, meet))
        assert (lat.top, lat.bottom) == (p[ref.top], p[ref.bottom])
        assert lat.covers == tuple(sorted((p[a], p[b]) for a, b in ref.covers))
        assert lattice_verdicts(lat) == lattice_verdicts(ref)
        if p[0] == 0:  # a monoid keeps its identity, the bottom, at 0
            assert lattice_of_semilattice(FinMonoid(table)) == lat
