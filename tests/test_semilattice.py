import random
import re
from itertools import product

import pytest

from monlat.census import lattices_up_to
from monlat.monoid import (
    FinMonoid,
    MonoidError,
    are_isomorphic,
    cokernel_by_submonoid,
    table_axiom_failures,
)
from monlat.nsub import enumerate_nsub, lattice_of_semilattice
from monlat.semilattice import (
    CHAIN_FIXTURE_MAX,
    CoverGraph,
    NoBottom,
    NoJoin,
    NotAPartialOrder,
    NotHasse,
    SemilatticeError,
    _chain_digits,
    chain,
    heights,
    pentagon,
    principal_downset,
    semilattice_from_covers,
    fixture,
)

from conftest import abelian_group, down
from oracles import (
    all_normal_subobjects_semilattice,
    inclusion_order,
    matrix_covers_of,
    matrix_heights,
    matrix_semilattice_from_covers,
    principal_upset,
    quotient_by_downset,
    table_order,
)


def generic_quotient_partition(L, k) -> set[frozenset[int]]:
    """Class partition of the congruence quotient by the down-set of k."""
    _, proj = cokernel_by_submonoid(L, principal_downset(L, k).members)
    classes: dict[int, set[int]] = {}
    for x in range(L.size):
        classes.setdefault(proj(x), set()).add(x)
    return {frozenset(c) for c in classes.values()}


class TestFromCovers:
    def test_l6_join_table(self, L6):
        # spot joins read off the cover diagram
        B, C, D, E, A = (L6.element(x) for x in "BCDEA")
        assert L6.op(D, E) == C
        assert L6.op(B, C) == A
        assert L6.op(B, E) == A
        assert L6.is_semilattice

    def test_chain_is_max_table(self):
        C = chain(3)
        assert C.table == ((0, 1, 2), (1, 1, 2), (2, 2, 2))

    def test_no_bottom(self):
        with pytest.raises(NoBottom):
            semilattice_from_covers(CoverGraph(3, ((0, 2), (1, 2))))

    def test_no_bottom_names_five_and_counts_the_rest(self):
        # a header-only file of 4000 elements: no cover, so nothing to walk
        with pytest.raises(NoBottom) as caught:
            semilattice_from_covers(CoverGraph(4000, ()))
        assert str(caught.value) == "minimal elements: [0, 1, 2, 3, 4] (3995 more)"

    def test_no_join(self):
        # two maximal elements above a bottom: the pair has no least upper bound
        with pytest.raises(NoJoin):
            semilattice_from_covers(CoverGraph(3, ((0, 1), (0, 2))))

    def test_not_hasse(self):
        with pytest.raises(NotHasse):
            semilattice_from_covers(CoverGraph(3, ((0, 1), (1, 2), (0, 2))))

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            semilattice_from_covers(CoverGraph(3, ((0, 1), (1, 2), (2, 0))))

    def test_bottom_lands_at_zero(self, N5):
        assert all(N5.op(0, j) == j for j in range(N5.size))

    def test_relabelling_is_deterministic(self):
        a = pentagon()
        b = pentagon()
        assert a.table == b.table and a.labels == b.labels


class TestJoinTablesPassTheAxiomScan:
    """``semilattice_from_covers`` and ``chain`` skip the axiom scan, as a
    join table with a least element is a monoid by construction; the scan
    is the oracle."""

    @staticmethod
    def assert_monoid(M):
        assert next(table_axiom_failures(M.table), None) is None, M.table
        assert M.is_semilattice

    def test_census_lattices_renumbered(self):
        rng = random.Random(20)
        for L in lattices_up_to(7):
            perm = list(range(L.size))
            rng.shuffle(perm)
            covers = tuple((perm[a], perm[b]) for a, b in lattice_of_semilattice(L).covers)
            M = semilattice_from_covers(CoverGraph(L.size, covers))
            self.assert_monoid(M)
            assert are_isomorphic(M, L)

    @pytest.mark.parametrize("name", ["N5", "M3", "L6", "bool2"])
    def test_named_fixtures(self, name):
        self.assert_monoid(fixture(name))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_chains(self, n):
        self.assert_monoid(chain(n))

    def test_labels_come_back_as_strings(self):
        M = semilattice_from_covers(CoverGraph(2, ((0, 1),), (7, 8)))
        assert M.labels == ("7", "8")


class TestUpDownSets:
    def test_pentagon_downsets(self, N5):
        assert principal_downset(N5, N5.element("D")).members == down(N5, "D")
        assert principal_downset(N5, 0).members == frozenset({0})

    def test_l6_upset(self, L6):
        up_e = principal_upset(L6, L6.element("E")).members
        assert {L6.label(i) for i in up_e} == {"E", "C", "A"}

    def test_downsets_are_normal(self, commutative_fixtures):
        from monlat.monoid import is_normal_submonoid

        for name, L in commutative_fixtures.items():
            if not L.is_semilattice:
                continue
            for a in range(L.size):
                assert is_normal_submonoid(L, principal_downset(L, a).members)[0]


class TestHeights:
    """``heights`` against the longest chains of a relation matrix built
    outside the lattice under test, and its lower covers against the
    lattice's covers and the matrix's betweenness covers."""

    @staticmethod
    def _check(lat, leq):
        height, lower = heights(lat.down, lat.covers)
        assert height == matrix_heights(leq)
        assert lower == [[a for a, b in lat.covers if b == x] for x in range(lat.size)]
        pairs = sorted((a, b) for b, below in enumerate(lower) for a in below)
        assert pairs == matrix_covers_of(leq)

    def test_census_lattices_up_to_eight(self):
        for L in lattices_up_to(8):
            self._check(lattice_of_semilattice(L), table_order(L.table))

    def test_named_fixtures(self, commutative_fixtures):
        for name, L in commutative_fixtures.items():
            lat = enumerate_nsub(L)
            self._check(lat, inclusion_order(lat.keys))
            if L.is_semilattice:
                self._check(lattice_of_semilattice(L), table_order(L.table))

    def test_z2_fourth_power(self):
        lat = enumerate_nsub(abelian_group(2, 2, 2, 2))
        assert lat.size == 67
        self._check(lat, inclusion_order(lat.keys))
        assert max(heights(lat.down, lat.covers)[0]) == 4


class TestQuotientByDownset:
    def test_l6_fast_path_matches_generic(self, L6):
        for k in range(L6.size):
            Q, proj = quotient_by_downset(L6, k)
            fast = {
                frozenset(x for x in range(L6.size) if proj(x) == c)
                for c in range(Q.size)
            }
            assert fast == generic_quotient_partition(L6, k)
            generic_Q, _ = cokernel_by_submonoid(L6, principal_downset(L6, k).members)
            assert are_isomorphic(Q, generic_Q)

    def test_fast_path_matches_generic_everywhere(self, commutative_fixtures):
        for L in commutative_fixtures.values():
            if not L.is_semilattice or L.size > 7:
                continue
            for k in range(L.size):
                Q, proj = quotient_by_downset(L, k)
                parts = {
                    frozenset(x for x in range(L.size) if proj(x) == c)
                    for c in range(Q.size)
                }
                assert parts == generic_quotient_partition(L, k)

    def test_bottom_gives_identity(self, N5):
        Q, proj = quotient_by_downset(N5, 0)
        assert proj.is_bijective()

    def test_pentagon_quotient_by_d(self, N5):
        # the projection sends 0 to D and both B, C to A
        Q, proj = quotient_by_downset(N5, N5.element("D"))
        assert Q.size == 2
        labelled = {L: Q.label(proj(N5.element(L))) for L in "0CBDA"}
        assert labelled == {"0": "D", "C": "A", "B": "A", "D": "D", "A": "A"}


class TestLatticeStructure:
    def test_every_fixture_has_top_and_meets(self, commutative_fixtures):
        # the lattice built from a join table has the top and the meets of
        # a brute-force scan of the order
        from monlat.nsub import lattice_of_semilattice

        for L in commutative_fixtures.values():
            if not L.is_semilattice:
                continue
            lat = lattice_of_semilattice(L)
            assert all(L.op(x, lat.top) == lat.top for x in range(L.size))
            for a in range(L.size):
                for b in range(L.size):
                    m = lat.meet[a][b]
                    lbs = [
                        c
                        for c in range(L.size)
                        if L.op(c, a) == a and L.op(c, b) == b
                    ]
                    assert m in lbs and all(L.op(c, m) == m for c in lbs)

    def test_covers_roundtrip(self, L6):
        got = semilattice_from_covers(
            CoverGraph(L6.size, lattice_of_semilattice(L6).covers, L6.labels)
        )
        assert got.table == L6.table and got.labels == L6.labels


def _outcome(build, graph):
    """The table and labels a cover-graph builder gives, or the class and
    message of the error it raises."""
    try:
        M = build(graph)
    except MonoidError as exc:
        return type(exc), str(exc)
    return M.table, M.labels


def _shuffled_and_mutated_census_graphs(max_size, seed):
    """Cover graphs of every census lattice up to max_size with the elements
    renumbered and the covers reordered at random, each followed by four
    mutations of it: a cover dropped, a cover reversed, a random pair added
    and the composite of two covers added."""
    rng = random.Random(seed)
    for L in lattices_up_to(max_size):
        n = L.size
        covers = matrix_covers_of(table_order(L.table))
        labels = tuple(f"x{i}" for i in range(n))
        for _ in range(2):
            perm = rng.sample(range(n), n)
            pairs = [(perm[a], perm[b]) for a, b in covers]
            rng.shuffle(pairs)
            yield CoverGraph(n, tuple(pairs), labels)
            if not pairs:
                continue
            i = rng.randrange(len(pairs))
            a, b = pairs[i]
            yield CoverGraph(n, tuple(pairs[:i] + pairs[i + 1 :]), labels)
            yield CoverGraph(n, tuple(pairs[:i] + [(b, a)] + pairs[i + 1 :]), labels)
            extra = rng.choice([(x, y) for x in range(n) for y in range(n) if x != y])
            yield CoverGraph(n, tuple(pairs + [extra]), labels)
            chains = [(x, z) for x, y in pairs for y2, z in pairs if y == y2]
            if chains:
                yield CoverGraph(n, tuple(pairs + [rng.choice(chains)]), labels)


class TestBitmaskOrderMatchesMatrixReference:
    """The bitmask order construction against the relation-matrix one it
    replaced (``oracles.matrix_semilattice_from_covers``): the same table
    and labels, or the same error class and message."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_cover_list_up_to_four_elements(self, n):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        labels = tuple("pqrs"[:n])
        for mask in range(1 << len(pairs)):
            covers = tuple(pair for i, pair in enumerate(pairs) if mask >> i & 1)
            g = CoverGraph(n, covers, labels)
            expected = _outcome(matrix_semilattice_from_covers, g)
            assert _outcome(semilattice_from_covers, g) == expected, covers

    def test_shuffled_and_mutated_census_graphs(self):
        kinds = set()
        for g in _shuffled_and_mutated_census_graphs(7, seed=13):
            expected = _outcome(matrix_semilattice_from_covers, g)
            assert _outcome(semilattice_from_covers, g) == expected, g
            kinds.add(expected[0] if isinstance(expected[0], type) else FinMonoid)
        assert kinds == {FinMonoid, NotAPartialOrder, NotHasse, NoBottom, NoJoin}

    def test_census_graphs_among_isolated_elements(self):
        # a census lattice's covers on k of n elements, numbered at random:
        # the other n - k elements are isolated, so minimal
        rng = random.Random(21)
        for L in lattices_up_to(5):
            covers = lattice_of_semilattice(L).covers
            for n in (L.size, L.size + 1, L.size + 4):
                name = rng.sample(range(n), L.size)
                g = CoverGraph(n, tuple((name[a], name[b]) for a, b in covers))
                expected = _outcome(matrix_semilattice_from_covers, g)
                assert _outcome(semilattice_from_covers, g) == expected, g

    def test_covers_of_census_lattices_match_betweenness(self):
        for L in lattices_up_to(8):
            covers = lattice_of_semilattice(L).covers
            assert list(covers) == matrix_covers_of(table_order(L.table)), L.table

    def test_covers_of_fixture_lattices_match_betweenness(self, commutative_fixtures):
        for name, L in commutative_fixtures.items():
            lat = enumerate_nsub(L)
            assert list(lat.covers) == matrix_covers_of(inclusion_order(lat.keys)), name


class TestNormalSubobjectsFastPath:
    def test_matches_exhaustive_filter(self, cmon, commutative_fixtures):
        for L in commutative_fixtures.values():
            if not L.is_semilattice:
                continue
            fast = {s.members for s in all_normal_subobjects_semilattice(L)}
            generic = {m.image for m in cmon.normal_subobject_monos(L)}
            assert fast == generic

    def test_counts_one_per_element(self, N5, L6):
        assert len(all_normal_subobjects_semilattice(N5)) == 5
        assert len(all_normal_subobjects_semilattice(L6)) == 6

    def test_trivial(self):
        assert len(all_normal_subobjects_semilattice(chain(1))) == 1


class TestFixtures:
    def test_registry(self):
        assert fixture("N5").size == 5
        assert fixture("chain4").size == 4
        assert fixture("chain(4)").size == 4
        with pytest.raises(KeyError):
            fixture("nope")

    def test_chain_fixtures_are_capped(self):
        assert fixture(f"chain{CHAIN_FIXTURE_MAX}").size == CHAIN_FIXTURE_MAX
        assert fixture(f"chain00{CHAIN_FIXTURE_MAX}").size == CHAIN_FIXTURE_MAX
        # too long for int(), so the digits are compared before conversion
        for name in (f"chain{CHAIN_FIXTURE_MAX + 1}", "chain" + "9" * 5000):
            with pytest.raises(SemilatticeError, match=f"up to chain{CHAIN_FIXTURE_MAX}$"):
                fixture(name)

    def test_chain_names_match_the_regular_expression(self):
        # every string of up to 5 tokens, ASCII and Arabic-Indic digits and
        # whitespace included, against the pattern the names are spelled by
        pattern = re.compile(r"chain\(?(\d+)\)?")
        tokens = ("chain", "(", ")", "0", "5", "x", "\u0663", "\n", " ")
        for n in range(6):
            for parts in product(tokens, repeat=n):
                name = "".join(parts)
                match = pattern.fullmatch(name)
                assert _chain_digits(name) == (match and match.group(1)), name

    def test_klein_four_is_a_group_not_semilattice(self, V4):
        assert V4.commutative and not V4.idempotent
        assert all(any(V4.op(a, b) == 0 for b in range(4)) for a in range(4))
