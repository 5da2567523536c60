from collections import Counter

import pytest

from monlat.census import lattices_up_to
from monlat.checks import run_check
from monlat.context import (
    SesContext,
    SesHom,
    antinormal_composite,
    cmon_context,
    generic_pullback_of_monos,
    ses_context,
)
from monlat.nsub import SesInvariantError, SesObject, enumerate_nsub, make_ses
from monlat.monoid import (
    MonoidError,
    MonoidHom,
    identity_hom,
    inclusion_hom,
)
from monlat.semilattice import bool2, chain, pentagon

from conftest import abelian_group, down
from lemmas import (
    are_isomorphic,
    generic_pullback_epi_along_mono,
    isomorphisms,
    pullback_epi_along_mono,
)
from oracles import (
    NestedHom,
    NormalDecomposition,
    NotNormal,
    all_homs,
    categorical_check,
    flat_hom,
    flat_object,
    nested_context,
    nested_hom,
    nested_objects_at_depth,
    normal_decomposition,
    normal_decomposition_in,
    normal_submonoids_by_filter,
    objects_at_depth,
    recursive_normal_epi_failure,
    recursive_normal_mono_failure,
    restrict_mono,
)


def preimage_mono(ctx, m, f):
    """Pullback of a normal mono m along an arbitrary map f, as a normal
    mono into dom(f). This is the kernel of coker(m) . f."""
    return ctx.kernel(ctx.compose(ctx.cokernel(m), f))


def quotient_by_subobject(ctx, X, key):
    """The quotient object X / (subobject named by key), with its projection."""
    q = ctx.cokernel(ctx.subobject_mono(X, key))
    return ctx.cod(q), q


class TestCmonContextBasics:
    def test_zero_object(self, cmon):
        assert cmon.is_zero_object(cmon.zero_object())

    def test_kernel_of_upset_projection(self, cmon, N5):
        _, proj = quotient_by_subobject(cmon, N5, down(N5, "D"))
        k = cmon.kernel(proj)
        assert cmon.mono_key(k) == down(N5, "D")

    def test_cokernel_of_identity_is_zero(self, cmon, N5):
        q = cmon.cokernel(cmon.identity(N5))
        assert cmon.is_zero_object(cmon.cod(q))

    def test_kernel_composed_with_map_is_zero(self, cmon, commutative_fixtures):
        for M in (commutative_fixtures["N5"], commutative_fixtures["V4"]):
            for f in all_homs(M, M):
                k = cmon.kernel(f)
                assert cmon.is_zero_hom(cmon.compose(f, k))
                q = cmon.cokernel(f)
                assert cmon.is_zero_hom(cmon.compose(q, f))

    def test_normal_subobjects_match_exhaustive_filter(self, cmon, commutative_fixtures):
        # the join-closure generation finds exactly the normal submonoids
        # that a filter over all subsets finds
        for L in list(commutative_fixtures.values()) + lattices_up_to(7):
            found = {cmon.mono_key(m) for m in cmon.normal_subobject_monos(L)}
            assert found == normal_submonoids_by_filter(L)

    def test_normal_mono_is_injective_kernel_of_its_cokernel(self, cmon, commutative_fixtures):
        # the recognizer's two clauses (injective, normal image) against the
        # definition: injective and the kernel of its own cokernel, on
        # every hom between the fixtures
        fixtures = list(commutative_fixtures.values())
        verdicts = Counter()
        for M in fixtures:
            for N in fixtures:
                for f in all_homs(M, N):
                    kernel_of_cokernel = cmon.mono_key(cmon.kernel(cmon.cokernel(f)))
                    definition = f.is_injective() and kernel_of_cokernel == f.image
                    assert (cmon.normal_mono_failure(f) is None) == definition, f
                    verdicts[definition] += 1
        assert verdicts[True] and verdicts[False]

    def test_ker_coker_idempotence(self, cmon, N5):
        for m in cmon.normal_subobject_monos(N5):
            again = cmon.kernel(cmon.cokernel(m))
            assert cmon.mono_key(again) == cmon.mono_key(m)

    def test_factor_through_kernel_succeeds_and_fails(self, cmon, N5):
        down_b = cmon.subobject_mono(N5, down(N5, "B"))
        down_c = cmon.subobject_mono(N5, down(N5, "C"))
        u = cmon.factor_through_kernel(down_c, down_b)  # downC <= downB
        assert cmon.hom_equal(cmon.compose(down_b, u), down_c)
        down_d = cmon.subobject_mono(N5, down(N5, "D"))
        with pytest.raises(MonoidError):
            cmon.factor_through_kernel(down_d, down_b)  # D is not below B

    def test_factor_through_cokernel(self, cmon, N5):
        q_b = cmon.cokernel(cmon.subobject_mono(N5, down(N5, "B")))
        q_a = cmon.cokernel(cmon.subobject_mono(N5, down(N5, "A")))
        u = cmon.factor_through_cokernel(q_b, q_a)  # X/downB ->> X/downA
        assert cmon.hom_equal(cmon.compose(u, q_b), q_a)
        with pytest.raises(MonoidError):
            cmon.factor_through_cokernel(q_a, q_b)  # finer does not factor


class TestPullbacks:
    def test_pentagon_corner_is_zero(self, cmon, N5):
        b = cmon.subobject_mono(N5, down(N5, "B"))
        d = cmon.subobject_mono(N5, down(N5, "D"))
        span = cmon.pullback_of_monos(b, d)
        assert cmon.is_zero_object(span.apex)

    def test_idempotent(self, cmon, N5):
        m = cmon.subobject_mono(N5, down(N5, "B"))
        span = cmon.pullback_of_monos(m, m)
        assert cmon.mono_key(cmon.compose(m, span.to_first)) == down(N5, "B")

    def test_klein_four_distinct_atoms_meet_trivially(self, cmon, V4):
        g = cmon.subobject_mono(V4, frozenset({0, 1}))
        h = cmon.subobject_mono(V4, frozenset({0, 2}))
        span = cmon.pullback_of_monos(g, h)
        assert cmon.is_zero_object(span.apex)

    def test_pullback_legs_and_diagonal_are_normal_monos(self, cmon, L6):
        monos = cmon.normal_subobject_monos(L6)
        for m1 in monos:
            for m2 in monos:
                span = cmon.pullback_of_monos(m1, m2)
                assert cmon.is_normal_mono(span.to_first)
                assert cmon.is_normal_mono(span.to_second)
                assert cmon.is_normal_mono(cmon.compose(m1, span.to_first))

    def test_epi_pullback_along_identity(self, cmon, N5):
        q = cmon.cokernel(cmon.subobject_mono(N5, down(N5, "D")))
        Q = cmon.cod(q)
        pb = pullback_epi_along_mono(cmon, q, cmon.identity(Q))
        assert pb.apex.size == N5.size
        assert cmon.is_normal_epi(pb.onto_sub)

    def test_epi_pullback_along_zero_subobject_is_kernel(self, cmon, N5):
        q = cmon.cokernel(cmon.subobject_mono(N5, down(N5, "D")))
        Q = cmon.cod(q)
        zero_sub = cmon.subobject_mono(Q, frozenset({0}))
        pb = pullback_epi_along_mono(cmon, q, zero_sub)
        assert cmon.mono_key(pb.into_total) == down(N5, "D")
        assert cmon.is_zero_hom(cmon.compose(zero_sub, pb.onto_sub))

    def test_epi_pullback_on_group(self, cmon, V4):
        g = frozenset({0, 1})
        q = cmon.cokernel(cmon.subobject_mono(V4, g))
        Q = cmon.cod(q)
        pb = pullback_epi_along_mono(cmon, q, cmon.subobject_mono(Q, frozenset({0})))
        assert cmon.mono_key(pb.into_total) == g

    def test_generic_matches_concrete(self, cmon, L6):
        # the kernel-based construction agrees with the concrete preimage
        for km in cmon.normal_subobject_monos(L6):
            e = cmon.cokernel(km)
            for tm in cmon.normal_subobject_monos(cmon.cod(e)):
                concrete = pullback_epi_along_mono(cmon, e, tm)
                generic = generic_pullback_epi_along_mono(cmon, e, tm)
                assert cmon.mono_key(concrete.into_total) == cmon.mono_key(generic.into_total)

    def test_preimage_matches_kernel_of_composite(self, cmon, N5):
        # ker(g . f) equals the pullback of ker(g) along f
        for f in all_homs(N5, N5):
            for km in cmon.normal_subobject_monos(N5):
                g = cmon.cokernel(km)
                lhs = cmon.mono_key(cmon.kernel(cmon.compose(g, f)))
                rhs = cmon.mono_key(preimage_mono(cmon, cmon.kernel(g), f))
                assert lhs == rhs


class TestSesObjects:
    def test_make_ses_canonicalizes(self, cmon, N5):
        # any mono onto the down-set names the same sequence: N5 with the
        # one mark downD
        down_d = cmon.subobject_mono(N5, down(N5, "D"))
        S = make_ses(N5, cmon.mono_key(cmon.compose(down_d, cmon.identity(cmon.dom(down_d)))))
        assert S == SesObject(N5, (down(N5, "D"),))
        assert cmon.mono_key(cmon.kernel(cmon.cokernel(down_d))) == down(N5, "D")
        T = make_ses(S, down(N5, "C"))
        assert T == SesObject(N5, (down(N5, "D"), down(N5, "C")))

    def test_make_ses_rejects_non_normal(self, cmon, N5):
        from monlat.monoid import inclusion_hom

        bad = inclusion_hom(N5, frozenset({0, N5.element("B")}))
        with pytest.raises(SesInvariantError):
            make_ses(N5, cmon.mono_key(bad))

    @pytest.mark.parametrize("fixture", ["N5", "V4", "L6"])
    def test_make_ses_keeps_the_context_checks(self, commutative_fixtures, fixture):
        # make_ses decides on the innermost monoid; on every key a context
        # lists, the sub it builds is a normal mono and the kernel of its
        # cokernel, at each depth up to 2
        X0 = commutative_fixtures[fixture]
        for depth in (0, 1, 2):
            for ctx, X, _ in objects_at_depth(X0, depth, fixture):
                marks = X.marks if ctx.depth else ()
                for m in ctx.normal_subobject_monos(X):
                    key = ctx.mono_key(m)
                    sub = ctx.subobject_mono(X, key)
                    assert ctx.normal_mono_failure(sub) is None
                    assert ctx.mono_key(ctx.kernel(ctx.cokernel(sub))) == key
                    assert make_ses(X, key).marks == marks + (key,)

    def test_equality_ignores_quo(self, N5):
        a = make_ses(N5, down(N5, "D"))
        b = make_ses(N5, down(N5, "D"))
        assert a == b and hash(a) == hash(b)

    def test_ses_hom_validates_squares(self, cmon, N5, ses1):
        S0 = make_ses(N5, frozenset({0}))
        S = make_ses(N5, down(N5, "D"))
        # the checking constructor accepts a map that carries the sub into
        # the target's (the left square commutes) and rejects one that
        # does not
        SesHom(S0, S, identity_hom(N5))
        with pytest.raises(MonoidError):
            SesHom(S, S0, identity_hom(N5))
        # the nested construction's explicit triple: a zero alpha breaks
        # the left square against the identity beta
        f = nested_hom(ses1.identity(S))
        NestedHom(f.src, f.dst, f.alpha, f.beta, f.gamma)
        with pytest.raises(MonoidError):
            NestedHom(f.src, f.dst, cmon.zero_hom(f.src.sub_object, f.src.sub_object), f.beta, f.gamma)


class TestSesKernelsCokernels:
    def _sub(self, L, *names):
        return make_ses(L, down(L, *names))

    def test_quotient_of_pentagon_ses(self, cmon, ses1, N5):
        # ((A,D) modded by (C,0)) has base N5/downC with sub everything;
        # N5/downC is the 3-chain with classes {0,C} < {B} < {D,A}, since
        # D v C = A = A v 0 merges D with A
        S = self._sub(N5, "D")
        down_c = cmon.subobject_mono(N5, down(N5, "C"))
        C0 = make_ses(down_c.dom, frozenset({0}))
        emb = SesHom(C0, S, down_c)
        q = ses1.cokernel(emb)
        Q = ses1.cod(q)
        assert Q.monoid.size == 3
        assert sorted(Q.monoid.labels) == ["{0,C}", "{B}", "{D,A}"]
        assert Q.marks == (frozenset(range(3)),)  # sub is everything

    def test_quotient_of_chain_ses(self, cmon, ses1, N5):
        # ((B,0) modded by (C,0)) has base downB/downC with trivial sub
        down_b_obj = cmon.subobject_mono(N5, down(N5, "B")).dom
        B0 = make_ses(down_b_obj, frozenset({0}))
        down_c_in_b = restrict_mono(
            cmon, cmon.subobject_mono(N5, down(N5, "C")), cmon.subobject_mono(N5, down(N5, "B"))
        )
        C_obj = cmon.dom(down_c_in_b)
        C0 = make_ses(C_obj, frozenset({0}))
        emb = SesHom(C0, B0, down_c_in_b)
        q = ses1.cokernel(emb)
        Q = ses1.cod(q)
        assert Q.monoid.size == 2
        assert Q.marks == (frozenset({0}),)

    def test_kernel_of_identity_is_zero(self, cmon, ses1, N5):
        S = self._sub(N5, "D")
        k = ses1.kernel(ses1.identity(S))
        assert ses1.is_zero_object(ses1.dom(k))

    def test_kernel_cokernel_laws_at_ses_level(self, cmon, ses1, N5):
        S = self._sub(N5, "D")
        for m in ses1.normal_subobject_monos(S):
            q = ses1.cokernel(m)
            assert ses1.is_zero_hom(ses1.compose(q, m))
            again = ses1.kernel(q)
            assert ses1.mono_key(again) == ses1.mono_key(m)
            e = ses1.cokernel(ses1.kernel(q))
            assert ses1.mono_key(ses1.kernel(e)) == ses1.mono_key(ses1.kernel(q))

    def test_iterated_contexts_idempotence(self, cmon, N5):
        # Ker(Coker(m)) = m for sampled normal monos at depths 1..3
        ctx = cmon
        obj = N5
        for _ in range(3):
            up = ses_context(ctx)
            monos = up.normal_subobject_monos(
                make_ses(obj, ctx.mono_key(ctx.normal_subobject_monos(obj)[0]))
            )
            for m in monos:
                assert up.mono_key(up.kernel(up.cokernel(m))) == up.mono_key(m)
            obj = make_ses(obj, ctx.mono_key(ctx.normal_subobject_monos(obj)[-1]))
            ctx = up

    def test_pullbacknoyau_at_ses_level(self, cmon, ses1, N5):
        # kernel of a composite equals the preimage of the kernel
        S = self._sub(N5, "D")
        monos = ses1.normal_subobject_monos(S)
        for f in monos:
            for km in monos:
                g = ses1.cokernel(km)
                lhs = ses1.mono_key(ses1.kernel(ses1.compose(g, f)))
                rhs = ses1.mono_key(preimage_mono(ses1, ses1.kernel(g), f))
                assert lhs == rhs


class TestSesNormality:
    def _ses_over(self, L, sub_names):
        key = down(L, *sub_names) if sub_names else frozenset({0})
        return make_ses(L, key)

    def test_reference_triple_monos(self, cmon, ses1, N5):
        # (C,0) >-> (A,D) is a normal mono: the pullback of downC and downD is 0
        S = self._ses_over(N5, ("D",))
        sub_c = ses1.subobject_mono(S, down(N5, "C"))
        assert ses1.is_normal_mono(sub_c)

    def test_gamma_comparison_fails_pullback(self, cmon, ses1, N5):
        # the induced (B,0)/(C,0) -> (A,D)/(C,0) is not a normal mono, and
        # the failure is exactly that the left square is not a pullback
        S = self._ses_over(N5, ("D",))
        c = ses1.subobject_mono(S, down(N5, "C"))
        b = ses1.subobject_mono(S, down(N5, "B"))
        u = restrict_mono(ses1, c, b)
        e = ses1.cokernel(u)
        g = ses1.factor_through_cokernel(e, ses1.compose(ses1.cokernel(c), b))
        assert ses1.normal_mono_failure(g) == "left-square-not-pullback"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_transferred_subobjects_are_normal_monos(self, commutative_fixtures, depth):
        # one subobject per normal subobject of the base, each a normal mono
        for name, L in commutative_fixtures.items():
            for ctx, S, _ in objects_at_depth(L, depth, name):
                monos = ctx.normal_subobject_monos(S)
                assert len(monos) == len(cmon_context().normal_subobject_monos(S.monoid))
                for m in monos:
                    assert ctx.normal_mono_failure(m) is None

    def test_identity_ses_hom_is_normal_mono_and_epi(self, cmon, ses1, N5):
        S = self._ses_over(N5, ("D",))
        assert ses1.is_normal_mono(ses1.identity(S))
        assert ses1.is_normal_epi(ses1.identity(S))

    def test_cokernel_projections_are_normal_epis(self, ses1, V4):
        S = make_ses(V4, frozenset({0, 1}))
        for m in ses1.normal_subobject_monos(S):
            assert ses1.is_normal_epi(ses1.cokernel(m))

    def test_exvect_composite_not_normal(self, ses1, V4):
        # over (V4, G): the antinormal composite through subs H, K is not
        # normal although its middle comparison is mono and epi
        S = make_ses(V4, frozenset({0, 1}))
        f = antinormal_composite(ses1, S, frozenset({0, 3}), frozenset({0, 2}))
        res = normal_decomposition_in(ses1, f)
        assert isinstance(res, NotNormal)
        assert res.reason == "induced map not invertible"

    def test_normal_decomposition_generic_matches_concrete(self, cmon, N5, V4):
        for M in (N5, V4):
            for f in all_homs(M, M):
                generic = normal_decomposition_in(cmon, f)
                concrete = normal_decomposition(f)
                assert isinstance(generic, NormalDecomposition) == isinstance(
                    concrete, NormalDecomposition
                )


class TestSesNormalEpis:
    def test_cokernel_homs_pass_the_pushout_test(self, ses1, N5):
        S = make_ses(N5, down(N5, "D"))
        b = ses1.subobject_mono(S, down(N5, "B"))
        q = ses1.cokernel(b)
        assert ses1.normal_epi_failure(q) is None

    def test_non_pushout_square_detected(self, cmon, ses1, N5):
        # (N5, 0) -> (N5, downD) over the identity base map is a valid
        # morphism with epi components, but the right square is not a
        # pushout: the pushed-forward sub is trivial while the target sub
        # is downD, so it is not a normal epi
        S0 = make_ses(N5, frozenset({0}))
        SD = make_ses(N5, down(N5, "D"))
        f = SesHom(S0, SD, cmon.identity(N5))
        legs = nested_hom(f)
        assert cmon.is_epi(legs.beta) and cmon.is_epi(legs.gamma)
        assert ses1.normal_epi_failure(f) == "right-square-not-pushout"

    def test_beta_failure_reported_first(self, ses1, N5):
        # an inclusion is not epi at the base level
        S = make_ses(N5, frozenset({0}))
        m = ses1.subobject_mono(S, down(N5, "B"))
        assert ses1.normal_epi_failure(m) == "beta-not-normal-epi"


class TestSesIsomorphisms:
    def test_same_sub_isomorphic(self, ses1, N5):
        a = make_ses(N5, down(N5, "D"))
        b = make_ses(N5, down(N5, "D"))
        assert are_isomorphic(ses1, a, b)

    def test_different_sub_sizes_not_isomorphic(self, ses1, N5):
        a = make_ses(N5, down(N5, "D"))
        b = make_ses(N5, down(N5, "B"))
        assert not are_isomorphic(ses1, a, b)

    def test_sub_carried_by_base_iso_required(self, ses1, V4):
        # (V4, G) and (V4, H) are isomorphic: an automorphism swaps the atoms
        a = make_ses(V4, frozenset({0, 1}))
        b = make_ses(V4, frozenset({0, 2}))
        assert are_isomorphic(ses1, a, b)

    def test_chain_sub_position_matters(self, ses1):
        from monlat.semilattice import chain

        C = chain(3)
        a = make_ses(C, frozenset({0}))
        b = make_ses(C, frozenset({0, 1}))
        assert not are_isomorphic(ses1, a, b)


class TestNormalityCharacterizations:
    def _sample_homs(self, ctx, X):
        """Subobject monos, quotient epis, their composites, identity, zero."""
        out = [ctx.identity(X)]
        monos = ctx.normal_subobject_monos(X)
        out.extend(monos)
        epis = [ctx.cokernel(m) for m in monos]
        out.extend(epis)
        for m in monos:
            for e in epis:
                out.append(ctx.compose(e, m))  # antinormal composites
        out.append(ctx.zero_hom(X, X))
        return out

    def _agree(self, ctx, f):
        # mono recognizer vs "f equals the kernel of its cokernel"
        direct_mono = ctx.is_normal_mono(f)
        generic_mono = False
        if ctx.is_mono(f):
            try:
                cmp = ctx.factor_through_kernel(f, ctx.kernel(ctx.cokernel(f)))
                generic_mono = ctx.is_iso(cmp)
            except MonoidError:
                generic_mono = False
        assert direct_mono == generic_mono
        # epi recognizer vs "f equals the cokernel of its kernel"
        direct_epi = ctx.is_normal_epi(f)
        generic_epi = False
        if ctx.is_epi(f):
            try:
                cmp = ctx.factor_through_cokernel(ctx.cokernel(ctx.kernel(f)), f)
                generic_epi = ctx.is_iso(cmp)
            except MonoidError:
                generic_epi = False
        assert direct_epi == generic_epi

    def test_base_level(self, cmon, N5, V4):
        for X in (N5, V4):
            for f in self._sample_homs(cmon, X):
                self._agree(cmon, f)

    def test_ses_levels(self, cmon, ses1, N5, V4):
        for X in (N5, V4):
            for m in cmon.normal_subobject_monos(X):
                S = make_ses(X, cmon.mono_key(m))
                for f in self._sample_homs(ses1, S):
                    self._agree(ses1, f)


class TestLemmaInstances:
    def test_pullbackiso_instances(self, cmon, L6):
        # pulling a normal epi back along a mono induces an iso on kernels
        for km in cmon.normal_subobject_monos(L6):
            e = cmon.cokernel(km)
            Q = cmon.cod(e)
            for tm in cmon.normal_subobject_monos(Q):
                pb = pullback_epi_along_mono(cmon, e, tm)
                gamma_dom = cmon.kernel(pb.onto_sub)
                gamma = cmon.factor_through_kernel(
                    cmon.compose(pb.into_total, gamma_dom), cmon.kernel(e)
                )
                assert cmon.is_iso(gamma)

    def test_cokernel_of_composite_with_epi(self, cmon, N5, L6):
        # dual composite law: precomposing with an epi leaves the cokernel
        # unchanged, and the cokernel of g.f is the cokernel of g restricted
        # to the image of f
        for Z in (N5, L6):
            for km in cmon.normal_subobject_monos(Z):
                e = cmon.cokernel(km)  # epi Z ->> Q
                for tm in cmon.normal_subobject_monos(cmon.cod(e)):
                    g = cmon.cokernel(tm)  # Q ->> R
                    lhs = cmon.kernel(cmon.cokernel(cmon.compose(g, e)))
                    rhs = cmon.kernel(cmon.cokernel(g))
                    assert cmon.mono_key(lhs) == cmon.mono_key(rhs)

    def test_pullbackiso_instances_at_ses_level(self, ses1, N5):
        # pulling a normal epi of sequences back along a normal mono induces
        # an isomorphism on kernels, one level up
        S = make_ses(N5, down(N5, "D"))
        for km in ses1.normal_subobject_monos(S):
            e = ses1.cokernel(km)
            Q = ses1.cod(e)
            for tm in ses1.normal_subobject_monos(Q):
                pb = generic_pullback_epi_along_mono(ses1, e, tm)
                gamma_dom = ses1.kernel(pb.onto_sub)
                gamma = ses1.factor_through_kernel(
                    ses1.compose(pb.into_total, gamma_dom), ses1.kernel(e)
                )
                assert ses1.is_iso(gamma)

    def test_pullbackreco_instances(self, cmon, N5, L6):
        # rows (Y >-> Z ->> Z/Y) and (K >-> Z/X ->> Z/Y) with a monic
        # comparison on quotients: Y must be the full preimage of K
        for Z in (N5, L6):
            lat = cmon.normal_subobject_monos(Z)
            for x in lat:
                for y in lat:
                    if not set(x.image) <= set(y.image):
                        continue
                    qx = cmon.cokernel(x)
                    qy = cmon.cokernel(y)
                    u = cmon.factor_through_cokernel(qx, qy)  # Z/X ->> Z/Y
                    k = cmon.kernel(u)
                    preimage = frozenset(
                        i for i in range(Z.size) if qx(i) in k.image
                    )
                    assert preimage == y.image


# ---------------------------------------------------------------------------
# flat morphisms: a ses hom is stored as its innermost monoid map and every
# operation works on member sets; the nested construction of
# tests/oracles.py decides the same questions leg by leg


def _rebuild(f):
    """Re-validate a nested morphism leg by leg at every level: the hom law
    on the monoid maps, both commuting squares above them."""
    if isinstance(f, MonoidHom):
        return MonoidHom(f.dom, f.cod, f.mapping)
    return NestedHom(f.src, f.dst, _rebuild(f.alpha), _rebuild(f.beta), _rebuild(f.gamma))


def _lift(S, T, F):
    """The morphism S -> T with innermost map F; None when F does not carry
    every mark of S into T's."""
    try:
        return SesHom(S, T, F)
    except MonoidError:
        return None


def _produced(ctx, X):
    """The morphisms the context produces on X: its normal subobject monos,
    their cokernels and the kernels of those, and the two factorizations
    the third-iso check makes for every pair of nested subobjects. Returns
    them with the (m, u, f) triples of m . u = f and the (e, u, f) triples
    of u . e = f."""
    lat = enumerate_nsub(X)
    monos = ctx.normal_subobject_monos(X)
    homs = list(monos)
    through_kernel, through_cokernel = [], []
    for ix, x in enumerate(monos):
        qx = ctx.cokernel(x)
        homs += [qx, ctx.kernel(qx)]
        for iy, y in enumerate(monos):
            if lat.join[ix][iy] != iy:
                continue
            u = ctx.factor_through_kernel(x, y)
            e = ctx.cokernel(u)
            f = ctx.compose(qx, y)
            g = ctx.factor_through_cokernel(e, f)
            through_kernel.append((y, u, x))
            through_cokernel.append((e, g, f))
            homs += [u, e, f, g]
    return homs, through_kernel, through_cokernel


class TestThinMorphisms:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("fixture", ["N5", "V4", "L6"])
    def test_derived_legs_agree_with_legwise_definitions(self, commutative_fixtures, fixture, depth):
        X = commutative_fixtures[fixture]
        nested = nested_context(depth)
        for ctx, S, _ in objects_at_depth(X, depth, fixture):
            homs, through_kernel, through_cokernel = _produced(ctx, S)
            # compare the pairs that share their ends or their base mapping
            groups = {}
            for f in homs:
                legs = nested_hom(f)
                assert SesHom(f.src, f.dst, MonoidHom(f.base.dom, f.base.cod, f.base.mapping)) == f
                assert _rebuild(legs) == legs
                assert ctx.is_mono(f) == nested.is_mono(legs)
                assert ctx.is_epi(f) == nested.is_epi(legs)
                groups.setdefault((f.src, f.dst), set()).add(f)
                groups.setdefault(f.base.mapping, set()).add(f)
            for m, u, f in through_kernel:
                assert ctx.compose(m, u) == f
            for e, u, f in through_cokernel:
                assert ctx.compose(u, e) == f
            for group in groups.values():
                for f in group:
                    for g in group:
                        assert ctx.hom_equal(f, g) == nested.hom_equal(nested_hom(f), nested_hom(g))

    @pytest.mark.parametrize(
        "fixture, depth",
        [(name, d) for name in ("bool2", "chain4") for d in (1, 2, 3)]
        + [(name, d) for name in ("N5", "V4", "L6") for d in (1, 2)],
    )
    def test_is_iso_agrees_with_legwise_definition(self, commutative_fixtures, monkeypatch, fixture, depth):
        # on every middle comparison u that normal_decomposition_in tests,
        # every isomorphism the context enumerates between two objects, and
        # every morphism between two objects whose base map is the identity
        # (bijective, but an iso only when it carries each sub onto the other)
        cases = []
        is_iso = SesContext.is_iso

        def recording(self, f):
            cases.append(f)
            return is_iso(self, f)

        X = commutative_fixtures[fixture]
        objects = list(objects_at_depth(X, depth, fixture))
        ctx = objects[0][0]
        monkeypatch.setattr(SesContext, "is_iso", recording)
        for _, S, _ in objects:
            keys = [ctx.mono_key(m) for m in ctx.normal_subobject_monos(S)]
            for y in keys:
                for z in keys:
                    normal_decomposition_in(ctx, antinormal_composite(ctx, S, y, z))
        monkeypatch.undo()
        for _, S, _ in objects:
            for _, T, _ in objects:
                cases += isomorphisms(ctx, S, T)
                identity = _lift(S, T, identity_hom(X))
                if identity is not None:
                    cases.append(identity)
        verdicts = [ctx.is_iso(f) for f in cases]
        assert set(verdicts) == {True, False}
        nested = nested_context(depth)
        assert verdicts == [nested.is_iso(nested_hom(f)) for f in cases]

    def test_per_level_validation_rejects_broken_inner_sub(self, ses1):
        # depth-2 objects A = (chain3, ({0,1}, {0})) and C = (chain3, ({0},
        # {0})); the identity of chain3 carries the top-level mark ({0}
        # into {0}) from A to C but not the inner one ({0,1} into {0}),
        # while C -> A is a valid mono and epi
        M = chain(3)
        ses2 = ses_context(ses1)
        P = make_ses(M, frozenset({0}))
        Q = make_ses(M, frozenset({0, 1}))
        A = make_ses(Q, frozenset({0}))
        C = make_ses(P, frozenset({0}))
        m = SesHom(C, A, identity_hom(M))
        assert ses2.is_mono(m) and ses2.is_epi(m)
        with pytest.raises(MonoidError):
            SesHom(A, C, identity_hom(M))
        with pytest.raises(MonoidError):
            ses2.factor_through_kernel(ses2.identity(A), m)
        with pytest.raises(MonoidError):
            ses2.factor_through_cokernel(m, ses2.identity(C))

    def test_equal_morphisms_hash_alike(self, cmon, ses1, N5):
        S = make_ses(N5, down(N5, "D"))
        f = ses1.identity(S)
        g = SesHom(S, S, cmon.identity(N5))
        assert f == g and hash(f) == hash(g)
        assert ses1.kernel(f) == ses1.kernel(g)


# ---------------------------------------------------------------------------
# the flat tower against the nested categorical construction of
# tests/oracles.py


TOWERS = [(name, d) for name in ("bool2", "chain4") for d in (1, 2, 3)] + [
    (name, d) for name in ("N5", "V4", "L6") for d in (1, 2)
]


def _recorded_recognizer_calls(monkeypatch, X, depth, name):
    """Every (context, morphism) on which make_ses and the categorical hsd
    check ask a ses-level normality recognizer over the tower of X."""
    calls = set()

    def recording(method):
        def wrapper(self, f):
            calls.add((self, f))
            return method(self, f)

        return wrapper

    for method in ("normal_mono_failure", "normal_epi_failure"):
        monkeypatch.setattr(SesContext, method, recording(getattr(SesContext, method)))
    for ctx, S, nm in objects_at_depth(X, depth, name):
        categorical_check("hsd", ctx, S, nm)
    monkeypatch.undo()
    return calls


def _recorded_kernels_and_cokernels(monkeypatch):
    """Start recording the (context, operation, morphism, result) of every
    SesContext kernel and cokernel call."""
    built = set()

    def recording(name, method):
        def wrapper(self, f):
            result = method(self, f)
            built.add((self, name, f, result))
            return result

        return wrapper

    for name in ("kernel", "cokernel"):
        monkeypatch.setattr(SesContext, name, recording(name, getattr(SesContext, name)))
    return built


class TestFlatTower:
    @pytest.mark.parametrize("fixture, depth", TOWERS)
    def test_agrees_with_nested_construction(self, commutative_fixtures, monkeypatch, fixture, depth):
        # object by object: the keys (marks) and names of the sweep, the
        # lattice, the verdicts and witnesses of the four categorical
        # checks, and every kernel and cokernel object they build
        X = commutative_fixtures[fixture]
        flat = list(objects_at_depth(X, depth, fixture))
        nested = nested_objects_at_depth(X, depth, fixture)
        assert [(S, nm) for _, S, nm in flat] == [(flat_object(N), nm) for _, N, nm in nested]
        built = _recorded_kernels_and_cokernels(monkeypatch)
        for (ctx, S, nm), (nctx, N, _) in zip(flat, nested):
            lat, nlat = enumerate_nsub(S), enumerate_nsub(nctx.innermost_object(N))
            assert _lattice_tables(lat) == _lattice_tables(nlat)
            for prop in ("hsd", "secondiso", "dpn", "diexact"):
                assert categorical_check(prop, ctx, S, nm) == categorical_check(prop, nctx, N, nm)
        monkeypatch.undo()
        assert {name for _, name, _, _ in built} == {"kernel", "cokernel"}
        for ctx, name, f, result in built:
            nested_result = getattr(nested_context(ctx.depth), name)(nested_hom(f))
            assert flat_hom(nested_result) == result, (name, f)

    def test_cokernel_marks_are_normal_closures(self, commutative_fixtures, monkeypatch):
        # the marks of a cokernel are the normal closures of the images of
        # the target's marks, and on some cokernels a plain image is not
        # closed: there the nested construction has the closure
        built = _recorded_kernels_and_cokernels(monkeypatch)
        for ctx, S, nm in objects_at_depth(commutative_fixtures["N5"], 2, "N5"):
            categorical_check("hsd", ctx, S, nm)
        monkeypatch.undo()
        not_closed = 0
        for ctx, name, f, q in built:
            if name != "cokernel":
                continue
            images = tuple(frozenset(q.base(x) for x in L) for L in f.dst.marks)
            nested_marks = flat_hom(nested_context(ctx.depth).cokernel(nested_hom(f))).dst.marks
            assert q.dst.marks == nested_marks
            not_closed += images != nested_marks
        assert not_closed

    def test_objects_keep_their_own_labels(self):
        # chain3 has the table of the submonoid {0,C,B} of N5 that an
        # earlier sweep built, and its sweep must still name subobjects with
        # its own labels
        list(objects_at_depth(pentagon(), 2, "N5"))
        names = {enumerate_nsub(S).names for _, S, _ in objects_at_depth(chain(3), 1, "chain3")}
        assert names == {("{0}", "{0,1}", "{0,1,2}")}

    def test_quotients_keep_their_own_labels(self, cmon):
        # the depth-2 hsd sweep over N5 builds quotients of N5's submonoid
        # {0,C,B}, which has chain3's table; a quotient of chain3 must still
        # carry chain3's labels
        run_check("hsd", pentagon(), 2, "N5")
        ses1 = ses_context(cmon)
        S = make_ses(chain(3), frozenset({0, 1}))
        q = ses1.cokernel(ses1.subobject_mono(S, frozenset({0, 1})))
        assert q.dst.monoid.labels == ("{0,1}", "{2}")


def _lattice_tables(lat):
    return (lat.keys, lat.names, lat.join, lat.meet, lat.top, lat.bottom)


class TestLevelwiseNormality:
    @pytest.mark.parametrize("fixture, depth", TOWERS)
    def test_agrees_with_recursive_definition(self, commutative_fixtures, monkeypatch, fixture, depth):
        # both recognizers, on every morphism the production path asks
        # either of them about
        calls = _recorded_recognizer_calls(monkeypatch, commutative_fixtures[fixture], depth, fixture)
        assert calls
        for ctx, f in calls:
            nested, legs = nested_context(ctx.depth), nested_hom(f)
            assert ctx.normal_mono_failure(f) == recursive_normal_mono_failure(nested, legs), f
            assert ctx.normal_epi_failure(f) == recursive_normal_epi_failure(nested, legs), f

    @pytest.mark.parametrize("depth", [1, 2])
    def test_reasons_on_every_morphism_between_small_sequences(self, depth):
        # every monoid map between the innermost monoids that lifts to a
        # morphism of the two sequences. Only four reasons can fire: once
        # the beta clause holds, f is injective with f(M_S) normal in M_T,
        # so f(A_S) is normal in M_T and hence in A_T, and the alpha leg's
        # pullbacks follow from the beta leg's by injectivity; dually, the
        # gamma clause holds once the beta clause does
        monoids = {"chain2": chain(2), "chain3": chain(3), "bool2": bool2(), "Z4": abelian_group(4)}
        objects = {
            name: list(objects_at_depth(M, depth, name)) for name, M in monoids.items()
        }
        ctx = objects["chain2"][0][0]
        nested = nested_context(depth)
        mono, epi = Counter(), Counter()
        for a, b in [(a, b) for a in monoids for b in monoids]:
            homs = all_homs(monoids[a], monoids[b])
            for _, S, _ in objects[a]:
                for _, T, _ in objects[b]:
                    for F in homs:
                        f = _lift(S, T, F)
                        if f is None:
                            continue
                        legs = nested_hom(f)
                        reason = ctx.normal_mono_failure(f)
                        assert reason == recursive_normal_mono_failure(nested, legs), f
                        mono[reason] += 1
                        reason = ctx.normal_epi_failure(f)
                        assert reason == recursive_normal_epi_failure(nested, legs), f
                        epi[reason] += 1
        assert set(mono) == {None, "beta-not-normal-mono", "left-square-not-pullback"}
        assert set(epi) == {None, "beta-not-normal-epi", "right-square-not-pushout"}

    def test_recognizers_build_no_morphism_kernel_or_pullback(self, monkeypatch):
        # one depth-3 call of each recognizer, on a normal mono and a normal
        # epi so that every level is visited, makes no subobject, kernel,
        # cokernel or pullback at any ses level
        ctx, S, _ = list(objects_at_depth(chain(4), 3, "chain4"))[-1]
        m = ctx.normal_subobject_monos(S)[2]
        q = ctx.cokernel(m)
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("subobject_mono", "kernel", "cokernel", "pullback_of_monos"):
            monkeypatch.setattr(SesContext, name, counting(name, getattr(SesContext, name)))
        assert ctx.depth == 3
        assert ctx.normal_mono_failure(m) is None
        assert ctx.normal_epi_failure(q) is None
        assert calls == Counter()
        # the counters see the kernels and cokernels a categorical pullback
        # makes
        generic_pullback_of_monos(ctx, m, m)
        assert calls["kernel"] and calls["cokernel"]
