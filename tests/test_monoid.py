from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monlat.census import lattices_of_size
from monlat.monoid import (
    FinMonoid,
    InvalidMonoid,
    MonoidHom,
    NotASubmonoid,
    NotCommutative,
    Subset,
    are_isomorphic,
    cokernel_by_submonoid,
    compose,
    find_isomorphism,
    identity_hom,
    inclusion_hom,
    is_normal_epi,
    is_normal_submonoid,
    kernel_subset,
    normal_closure,
    submonoid,
    table_axiom_failures,
    validate_monoid,
    zero_hom,
)

from conftest import (
    abelian_group,
    closure_oracle_families,
    down,
    mixed_monoids,
    named_commutative_monoids,
    truncated_monoid,
)
from oracles import (
    NormalDecomposition,
    NotNormal,
    NotNormalSubmonoid,
    _quotient_by_classes,
    all_homs,
    fixpoint_normal_closure,
    normal_decomposition,
    normal_epi_by_fibres,
    quotient_by_downset,
    syntactic_quotient,
)


Z2 = ((0, 1), (1, 0))
Z4 = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))


class TestValidation:
    def test_trivial_monoid(self):
        assert validate_monoid(((0,),)).size == 1

    def test_z2(self):
        M = validate_monoid(Z2)
        assert M.commutative and not M.idempotent

    def test_l6_is_valid_commutative(self, L6):
        # the 6-element join table built from covers re-validates as a monoid
        assert validate_monoid(L6.table).commutative

    def test_identity_violation_reported(self):
        with pytest.raises(InvalidMonoid) as err:
            validate_monoid(((1, 1), (1, 1)))
        kinds = {f.kind for f in err.value.failures}
        assert "IdentityViolation" in kinds

    def test_non_associative_witness(self):
        # 0 is an identity but (1*1)*2 = 2 while 1*(1*2) = 1
        table = ((0, 1, 2), (1, 2, 2), (2, 1, 1))
        with pytest.raises(InvalidMonoid) as err:
            validate_monoid(table)
        failures = [f for f in err.value.failures if f.kind == "NonAssociative"]
        assert failures
        i, j, k = failures[0].witness
        t = table
        assert t[t[i][j]][k] != t[i][t[j][k]]

    def test_out_of_range(self):
        with pytest.raises(InvalidMonoid) as err:
            validate_monoid(((0, 1), (1, 7)))
        assert err.value.failures[0].kind == "OutOfRange"
        assert err.value.failures[0].witness == (1, 1)

    def test_str_of_failure(self):
        with pytest.raises(InvalidMonoid) as err:
            validate_monoid(((0, 1), (1, 9)))
        assert str(err.value.failures[0]) == "OutOfRange(1,1)"

    def test_large_bad_table_keeps_the_shown_failures_and_counts_the_rest(self):
        # 0 is an identity and i*j = i-j mod 60 otherwise: associativity
        # breaks in O(n^3) ways, of which the error keeps only the first few
        n = 60
        t = [[j if i == 0 else i if j == 0 else (i - j) % n for j in range(n)] for i in range(n)]
        count = sum(t[0][i] != i or t[i][0] != i for i in range(n))
        count += sum(
            t[t[i][j]][k] != t[i][t[j][k]] for i in range(n) for j in range(n) for k in range(n)
        )
        with pytest.raises(InvalidMonoid) as err:
            validate_monoid(t)
        assert len(err.value.failures) <= InvalidMonoid.SHOWN
        assert err.value.count == count
        assert str(err.value).endswith(f" ({count - InvalidMonoid.SHOWN} more)")


class TestHoms:
    def test_hom_law_enforced(self, N5):
        with pytest.raises(Exception):
            MonoidHom(N5, N5, (0, 2, 1, 3, 4))  # swaps C and D but not their joins

    def test_identity_preservation_enforced(self):
        M = validate_monoid(Z2)
        with pytest.raises(Exception):
            MonoidHom(M, M, (1, 0))

    def test_compose_and_identity(self, N5):
        f = identity_hom(N5)
        assert compose(f, f) == f

    def test_zero_hom(self, N5, V4):
        z = zero_hom(N5, V4)
        assert z.image == frozenset({0})


class TestNormality:
    def test_principal_downset_is_normal(self, N5):
        ok, witness = is_normal_submonoid(N5, down(N5, "D"))
        assert ok and witness is None

    def test_non_downclosed_fails_with_witness(self, N5):
        # {0, B} is a submonoid but not down-closed: C v B = B yet C is outside
        members = frozenset({0, N5.element("B")})
        ok, witness = is_normal_submonoid(N5, members)
        assert not ok
        x, k, y = witness
        assert x == N5.element("C") and k == N5.element("B")
        assert N5.op(N5.op(x, k), y) in members and N5.op(x, y) not in members

    def test_subgroup_of_abelian_group_is_normal(self):
        M = validate_monoid(Z4)
        ok, _ = is_normal_submonoid(M, frozenset({0, 2}))
        assert ok

    def test_not_a_submonoid_raises(self, N5):
        with pytest.raises(NotASubmonoid):
            is_normal_submonoid(N5, frozenset({0, N5.element("C"), N5.element("D")}))

    def test_pin_condition_on_noncommutative_monoid(self):
        # two-element right-zero band with adjoined identity: e, a, b with
        # xa = a, xb = b; the submonoid {e, a} fails the two-sided condition
        table = ((0, 1, 2), (1, 1, 2), (2, 1, 2))
        M = validate_monoid(table)
        assert not M.commutative
        ok, witness = is_normal_submonoid(M, frozenset({0, 1}))
        assert not ok and witness is not None
        x, k, y = witness
        assert (M.op(M.op(x, k), y) in {0, 1}) != (M.op(x, y) in {0, 1})


class TestKernelsAndCokernels:
    def test_kernel_of_upset_projection(self, L6):
        _, proj = quotient_by_downset(L6, L6.element("E"))
        assert kernel_subset(proj) == down(L6, "E")

    def test_kernel_of_identity_and_zero(self, N5):
        assert kernel_subset(identity_hom(N5)) == frozenset({0})
        assert kernel_subset(zero_hom(N5, validate_monoid(((0,),)))) == frozenset(range(5))

    def test_kernels_are_normal(self, commutative_fixtures):
        for M in commutative_fixtures.values():
            for N in (M,):
                for f in all_homs(M, N):
                    assert is_normal_submonoid(M, kernel_subset(f))[0]

    def test_l6_quotient_classes(self, L6):
        Q, proj = cokernel_by_submonoid(L6, down(L6, "E"))
        classes = {}
        for x in range(L6.size):
            classes.setdefault(proj(x), set()).add(L6.label(x))
        assert sorted(classes.values(), key=sorted) == [
            {"0", "E"},
            {"A", "B"},
            {"C", "D"},
        ]
        assert Q.size == 3

    def test_quotient_by_zero_is_iso(self, N5):
        Q, proj = cokernel_by_submonoid(N5, frozenset({0}))
        assert proj.is_bijective()

    def test_z4_quotient_is_parity(self):
        # independent oracle: group quotient Z4 / {0,2} is the 2-element group
        M = validate_monoid(Z4)
        Q, proj = cokernel_by_submonoid(M, frozenset({0, 2}))
        assert Q.size == 2
        assert tuple(proj(x) for x in range(4)) == (0, 1, 0, 1)

    def test_cokernel_requires_commutative(self):
        table = ((0, 1, 2), (1, 1, 2), (2, 1, 2))
        with pytest.raises(NotCommutative):
            cokernel_by_submonoid(validate_monoid(table), frozenset({0}))

    def test_kernel_of_projection_is_normal_closure(self, N5):
        # projection by a non-normal submonoid: kernel is the closure
        members = frozenset({0, N5.element("B")})
        _, proj = cokernel_by_submonoid(N5, members)
        assert kernel_subset(proj) == normal_closure(N5, members)

    def test_kernel_pullback_formula(self, commutative_fixtures):
        # ker(g . f) = preimage of ker(g) under f, over composable hom pairs
        for M in (commutative_fixtures["chain3"], commutative_fixtures["N5"]):
            homs = all_homs(M, M)
            for f in homs:
                for g in homs:
                    lhs = kernel_subset(compose(g, f))
                    rhs = frozenset(x for x in range(M.size) if f(x) in kernel_subset(g))
                    assert lhs == rhs


class TestSyntacticQuotient:
    def test_identity_class_is_exactly_the_submonoid(self, commutative_fixtures):
        # the defining property: the syntactic projection has kernel K
        for M in commutative_fixtures.values():
            if M.size > 6:
                continue
            for a in range(M.size):
                members = normal_closure(M, frozenset({a}))
                _, proj = syntactic_quotient(M, members)
                assert kernel_subset(proj) == members

    def test_agrees_with_cokernel_on_groups(self, V4):
        # on groups the largest and smallest congruences with identity class K
        # coincide, so the syntactic quotient is the cokernel
        for M in (validate_monoid(Z4), V4):
            for members in ({0}, set(range(M.size))):
                members = normal_closure(M, frozenset(members))
                Q1, _ = syntactic_quotient(M, members)
                Q2, _ = cokernel_by_submonoid(M, members)
                assert are_isomorphic(Q1, Q2)

    def test_coarser_than_cokernel_on_semilattices(self, L6):
        # the syntactic congruence is the largest with identity class K and
        # the cokernel congruence the smallest; on L6 / downE they differ
        # (2 classes against 3), so no isomorphism can exist in general
        members = frozenset({0, L6.element("E")})
        Q1, p1 = syntactic_quotient(L6, members)
        Q2, p2 = cokernel_by_submonoid(L6, members)
        assert (Q1.size, Q2.size) == (2, 3)
        # every syntactic class is a union of cokernel classes
        for x in range(L6.size):
            for y in range(L6.size):
                if p2(x) == p2(y):
                    assert p1(x) == p1(y)

    def test_quotient_by_everything_is_trivial(self, N5):
        Q, _ = syntactic_quotient(N5, frozenset(range(N5.size)))
        assert Q.size == 1

    def test_quotient_by_zero_in_group(self):
        M = validate_monoid(Z4)
        Q, proj = syntactic_quotient(M, frozenset({0}))
        assert proj.is_bijective()

    def test_rejects_non_normal(self, N5):
        with pytest.raises(NotNormalSubmonoid):
            syntactic_quotient(N5, frozenset({0, N5.element("B")}))


class TestNormalClosure:
    def test_pentagon_example(self, N5):
        # C v D = A forces the top, then B <= A is pulled in downward
        seed = frozenset({N5.element("C"), N5.element("D")})
        assert normal_closure(N5, seed) == frozenset(range(5))

    def test_empty_seed(self, N5):
        assert normal_closure(N5, frozenset()) == frozenset({0})

    def test_fixpoint_on_normal_submonoid(self, N5):
        k = down(N5, "B")
        assert normal_closure(N5, k) == k

    @given(seed=st.sets(st.integers(min_value=0, max_value=4)))
    @settings(max_examples=60, deadline=None)
    def test_closure_operator_laws(self, N5, seed):
        seed = frozenset(seed)
        closed = normal_closure(N5, seed)
        assert seed <= closed
        assert normal_closure(N5, closed) == closed

    @given(
        seed=st.sets(st.integers(min_value=0, max_value=4)),
        extra=st.sets(st.integers(min_value=0, max_value=4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_closure_monotone(self, N5, seed, extra):
        small = frozenset(seed)
        assert normal_closure(N5, small) <= normal_closure(N5, small | frozenset(extra))

    @given(
        case=st.sampled_from(
            [M for family in closure_oracle_families().values() for M in family]
        ).flatmap(
            lambda M: st.tuples(st.just(M), st.frozensets(st.integers(0, M.size - 1)))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_fixpoint_oracle(self, case):
        M, seed = case
        assert normal_closure(M, seed) == fixpoint_normal_closure(M, seed)


class TestNormalMonosAndEpis:
    def test_downset_inclusion_is_normal_mono(self, cmon, N5):
        assert cmon.is_normal_mono(inclusion_hom(N5, down(N5, "D")))

    def test_non_downclosed_inclusion_is_not(self, cmon, N5):
        assert not cmon.is_normal_mono(inclusion_hom(N5, frozenset({0, N5.element("B")})))

    def test_identity_is_normal_mono_and_epi(self, cmon, N5):
        assert cmon.is_normal_mono(identity_hom(N5))
        assert is_normal_epi(identity_hom(N5))

    def test_upset_projection_is_normal_epi(self, L6):
        _, proj = quotient_by_downset(L6, L6.element("E"))
        assert is_normal_epi(proj)

    def test_non_surjective_is_not_normal_epi(self, N5):
        assert not is_normal_epi(inclusion_hom(N5, down(N5, "D")))

    def test_cokernel_projections_are_normal_epis(self, commutative_fixtures):
        # and their kernels recover the normal submonoid exactly
        for M in commutative_fixtures.values():
            for a in range(M.size):
                members = normal_closure(M, frozenset({a}))
                _, proj = cokernel_by_submonoid(M, members)
                assert is_normal_epi(proj)
                assert kernel_subset(proj) == members

    def test_normal_epis_match_the_fibre_walk(self, V4):
        # every homomorphism among the census lattices of size <= 4, the
        # groups Z2, Z3, Z4 and V4, and truncated addition on {0..2} and
        # {0..3}, normal epis and not
        monoids = [L for n in range(1, 5) for L in lattices_of_size(n)]
        monoids += [abelian_group(m) for m in (2, 3, 4)] + [V4]
        monoids += [truncated_monoid(2), truncated_monoid(3)]
        homs = [f for M, N in product(monoids, repeat=2) for f in all_homs(M, N)]
        verdicts = [normal_epi_by_fibres(f) for f in homs]
        assert [is_normal_epi(f) for f in homs] == verdicts
        assert len(homs) == 321 and 0 < sum(verdicts) < len(homs)

    def test_normal_mono_composition_lemma(self, cmon, commutative_fixtures):
        # if v.u is a normal mono and v is injective then u is a normal mono
        for M in (commutative_fixtures["chain3"], commutative_fixtures["bool2"], commutative_fixtures["N5"]):
            homs = all_homs(M, M)
            for u in homs:
                for v in homs:
                    if v.is_injective() and cmon.is_normal_mono(compose(v, u)):
                        assert cmon.is_normal_mono(u)


class TestNormalDecomposition:
    def test_iso_composite_is_normal(self, N5, cmon):
        # downD >-> N5 ->> N5/downB is an isomorphism
        from monlat.context import antinormal_composite

        f = antinormal_composite(cmon, N5, down(N5, "D"), down(N5, "B"))
        dec = normal_decomposition(f)
        assert isinstance(dec, NormalDecomposition)
        assert compose(dec.mono, dec.epi) == f

    def test_pentagon_antinormal_is_not_normal(self, N5, cmon):
        from monlat.context import antinormal_composite

        f = antinormal_composite(cmon, N5, down(N5, "B"), down(N5, "D"))
        res = normal_decomposition(f)
        assert isinstance(res, NotNormal)
        assert res.reason == "induced map not injective"

    def test_zero_map_is_normal(self, N5, V4):
        res = normal_decomposition(zero_hom(N5, V4))
        assert isinstance(res, NormalDecomposition)
        assert res.epi.cod.size == 1

    def test_matches_exhaustive_factorization_search(self, commutative_fixtures, cmon):
        # independent oracle: search all pairs (kernel K, normal image I) and
        # ask whether the class map [x] -> f(x) is a well-defined bijection
        for M in (commutative_fixtures["chain3"], commutative_fixtures["N5"], commutative_fixtures["V4"]):
            candidates = [m.image for m in cmon.normal_subobject_monos(M)]
            for f in all_homs(M, M):
                canonical = isinstance(normal_decomposition(f), NormalDecomposition)
                found = False
                for K in candidates:
                    Q, proj = cokernel_by_submonoid(M, K)
                    for I in candidates:
                        if len(I) != Q.size:
                            continue
                        mapping = {}
                        ok = True
                        for x in range(M.size):
                            if f(x) not in I:
                                ok = False
                                break
                            if proj(x) in mapping and mapping[proj(x)] != f(x):
                                ok = False
                                break
                            mapping[proj(x)] = f(x)
                        if ok and len(set(mapping.values())) == Q.size:
                            # verify it is multiplicative on class representatives
                            order = sorted(I)
                            pos = {v: i for i, v in enumerate(order)}
                            try:
                                MonoidHom(Q, inclusion_hom(M, frozenset(I)).dom,
                                          tuple(pos[mapping[q]] for q in range(Q.size)))
                            except Exception:
                                continue
                            found = True
                    if found:
                        break
                assert canonical == found


class TestIsomorphism:
    def test_self_isomorphic(self, N5):
        assert are_isomorphic(N5, N5)

    def test_label_blind(self, N5):
        assert are_isomorphic(N5, FinMonoid(N5.table))

    def test_chain_not_isomorphic_to_bool2(self, commutative_fixtures):
        assert not are_isomorphic(
            commutative_fixtures["chain4"], commutative_fixtures["bool2"]
        )

    def test_z4_not_isomorphic_to_v4(self, V4):
        assert not are_isomorphic(validate_monoid(Z4), V4)

    def test_isomorphism_is_a_hom(self, M3):
        phi = find_isomorphism(M3, FinMonoid(M3.table))
        # re-validate through the checking constructor
        MonoidHom(M3, FinMonoid(M3.table), phi.mapping)


def _generated(M, seed):
    """The submonoid of M generated by the seed."""
    t = M.table
    out, todo = {0}, list(seed)
    while todo:
        a = todo.pop()
        if a not in out:
            out.add(a)
            todo += [t[a][b] for b in out] + [t[b][a] for b in out]
    return frozenset(out)


def _all_submonoids(M):
    """Every submonoid of M: grown from {0} one generator at a time."""
    found = {frozenset({0})}
    frontier = list(found)
    while frontier:
        S = frontier.pop()
        for x in range(M.size):
            T = _generated(M, S | {x})
            if T not in found:
                found.add(T)
                frontier.append(T)
    return found


class TestCokernelPartition:
    def test_matches_the_brute_force_congruence(self, commutative_fixtures):
        # every submonoid K generated by at most two elements, normal or
        # not (cokernel_of_hom passes images), of every commutative fixture
        # and mixed monoid of at most 12 elements. The reference relates m
        # and n when m+k = n+l for some k, l in K, and the oracle quotient
        # re-checks that its classes single out the identity, cover the
        # monoid and form a congruence.
        monoids = (*commutative_fixtures.values(), *mixed_monoids().values())
        monoids = [M for M in monoids if M.size <= 12]
        cases = 0
        for M in monoids:
            t = M.table
            pairs = combinations_with_replacement(range(M.size), 2)
            for K in {_generated(M, pair) for pair in pairs}:
                classes = {
                    tuple(n for n in range(M.size) if any(t[m][k] == t[n][l] for k in K for l in K))
                    for m in range(M.size)
                }
                assert sum(map(len, classes)) == M.size, (M, sorted(K))  # disjoint
                Q, proj = _quotient_by_classes(M, list(classes))
                got, got_proj = cokernel_by_submonoid(M, K)
                assert (got.table, got.labels) == (Q.table, Q.labels), (M, sorted(K))
                assert got_proj.mapping == proj.mapping, (M, sorted(K))
                cases += 1
        assert (len(monoids), cases) == (29, 440)


class TestUncheckedTables:
    def test_subquotients_satisfy_the_axioms(self):
        # submonoid() and the quotients skip the axiom scan: a restriction
        # of a monoid table to a submonoid, and a table on the classes of a
        # congruence, are monoids by construction. Every submonoid and
        # quotient reached from the fixtures, Z2^4 and Z6xZ2^2 (and from
        # those, until no new table appears) must pass the scan.
        queue = list(named_commutative_monoids().values())
        queue += [abelian_group(2, 2, 2, 2), abelian_group(6, 2, 2)]
        seen = {M.table for M in queue}
        bases = len(seen)
        while queue:
            M = queue.pop()
            for S in _all_submonoids(M):
                for child in (submonoid(M, S), cokernel_by_submonoid(M, S)[0]):
                    assert list(table_axiom_failures(child.table)) == [], (M, sorted(S))
                    if child.table not in seen:
                        seen.add(child.table)
                        queue.append(child)
        assert len(seen) > bases


class TestSubset:
    def test_submonoid_detection(self, N5):
        assert Subset(N5, frozenset({0, N5.element("C")})).is_submonoid()
        assert not Subset(N5, frozenset({N5.element("C")})).is_submonoid()

    def test_render_uses_labels(self, N5):
        assert Subset(N5, down(N5, "D")).render() == "{0,D}"
