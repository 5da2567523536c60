import contextlib
import io
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monlat import checks, cli
from monlat.census import census_lattices, lattices_of_size
from monlat.checks import (
    CHECKS,
    _antinormal_at_mark,
    _antinormal_failures,
    _hsd_at_mark,
    _second_iso_at_mark,
    diexact_check,
    dpn_check,
    pullback_stability_check,
    run_check,
    second_iso_check,
    third_iso_check,
)
from monlat.context import (
    CmonContext,
    SesContext,
    antinormal_composite,
    cmon_context,
    ses_context,
)
from monlat.monoid import FinMonoid, cokernel_by_submonoid, kernel_subset
from monlat.nsub import (
    enumerate_nsub,
    is_distributive,
    is_modular,
    lattice_verdicts,
    make_ses,
)
from monlat.scenarios import run_reference_scenarios

from conftest import (
    abelian_group,
    down,
    mixed_monoids,
    named_commutative_monoids,
    products_and_quotients,
    truncated_monoid,
)
from lemmas import build_diextension, subquotient_closure
from oracles import (
    antinormal_failures_by_pairs,
    categorical_antinormal_failures,
    categorical_check,
    diexact_disagreement,
    hsd_failures,
    is_normal_map_in,
    mark_table_sweep,
    objects_at_depth,
    pairwise_diexact_check,
    pairwise_dpn_check,
    restrict_mono,
    second_iso_disagreements,
    second_iso_failures,
)


MIXED_CASES = list(mixed_monoids().items())


CENSUS_CASES = [(f"c{n}_{i}", L) for n in range(1, 8) for i, L in enumerate(lattices_of_size(n))]


# the properties that lift to every depth; stability is defined at depth 0 only
EVERY_DEPTH = ("hsd", "secondiso", "dpn", "diexact", "modular", "distributive")
MARKED_PROPERTIES = ("hsd", "secondiso", "dpn", "diexact")  # those with a table per mark


def _antinormal_cases():
    """(name, monoid, depth) for the antinormal-table oracle: depths 0-2 over
    the commutative fixtures, Z2^3 and Z2xZ4, depth 3 over chain4 and bool2,
    and depth 0 over the census lattices up to size 7 and the mixed
    monoids."""
    bases = named_commutative_monoids()
    bases.update(Z2x2x2=abelian_group(2, 2, 2), Z2x4=abelian_group(2, 4))
    cases = [(name, M, depth) for name, M in bases.items() for depth in (0, 1, 2)]
    cases += [(name, bases[name], 3) for name in ("chain4", "bool2")]
    return cases + [(name, M, 0) for name, M in CENSUS_CASES + MIXED_CASES]


ANTINORMAL_CASES = _antinormal_cases()


def _failing_pairs(reference) -> dict[tuple[int, int], str]:
    """The failing entries of an ``antinormal_failures_by_pairs`` table."""
    return {
        (iy, iz): reason
        for iy, row in enumerate(reference)
        for iz, reason in enumerate(row)
        if reason is not None
    }


def _sweep_cases():
    """(name, monoid, depth) for the whole-report oracle: depth 2 over the
    census lattices of sizes 5 and 6 and Z2^3, depth 3 over the commutative
    fixtures, depth 4 over N5 and V4, and depths 1 and 2 over the mixed
    monoids."""
    bases = named_commutative_monoids()
    cases = [(name, L, 2) for name, L in CENSUS_CASES if L.size in (5, 6)]
    cases.append(("Z2x2x2", abelian_group(2, 2, 2), 2))
    cases += [(name, M, 3) for name, M in bases.items()]
    cases += [(name, bases[name], 4) for name in ("N5", "V4")]
    return cases + [(name, M, d) for name, M in MIXED_CASES for d in (1, 2)]


SWEEP_CASES = _sweep_cases()


class TestThirdIso:
    def test_passes_on_all_cmon_fixtures(self, commutative_fixtures):
        for name, L in commutative_fixtures.items():
            report = third_iso_check(L, name)
            assert report.passed, report.witnesses

    def test_fails_at_ses_level_on_pentagon(self, N5):
        S = make_ses(N5, down(N5, "D"))
        report = third_iso_check(S, "N5|sub={0,D}")
        assert not report.passed
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w.keys == (down(N5, "C"), down(N5, "B"))
        assert w.note == "left-square-not-pullback"

    def test_degenerate_pairs_pass(self, N5):
        # X = Y contributes an identity quotient comparison and never fails
        S = make_ses(N5, down(N5, "D"))
        report = third_iso_check(S, "S")
        degenerate = [w for w in report.witnesses if w.keys[0] == w.keys[1]]
        assert not degenerate

    def test_witness_replay(self, ses1, N5):
        S = make_ses(N5, down(N5, "D"))
        report = third_iso_check(S, "S")
        for w in report.witnesses:
            x = ses1.subobject_mono(S, w.keys[0])
            y = ses1.subobject_mono(S, w.keys[1])
            u = restrict_mono(ses1, x, y)
            e = ses1.cokernel(u)
            g = ses1.factor_through_cokernel(
                e, ses1.compose(ses1.cokernel(x), y)
            )
            assert ses1.normal_mono_failure(g) == w.note

    @pytest.mark.parametrize(
        "name, depths", [("bool2", 3), ("chain4", 3), ("N5", 2), ("V4", 2), ("L6", 2)]
    )
    def test_restricted_inclusions_are_normal_monos(self, commutative_fixtures, name, depths):
        # the composition lemma third_iso_check relies on: for normal
        # subobjects X <= Y of Z, the induced X >-> Y is a normal mono
        for depth in range(depths + 1):
            for ctx, Z, nm in objects_at_depth(commutative_fixtures[name], depth, name):
                monos = ctx.normal_subobject_monos(Z)
                for x in monos:
                    for y in monos:
                        if ctx.mono_key(x) <= ctx.mono_key(y):
                            u = restrict_mono(ctx, x, y)
                            assert ctx.normal_mono_failure(u) is None, (nm, x, y)


def _second_iso_witness_sets(report):
    """The (Y, Z) keys of a second_iso_check report whose primal comparison
    fails, and those whose dual comparison fails."""
    primal = {w.keys for w in report.witnesses if "primal" in w.note}
    dual = {w.keys for w in report.witnesses if "dual" in w.note}
    return primal, dual


class TestSecondIso:
    def test_pentagon_fails_on_expected_pair(self, N5):
        report = second_iso_check(N5, "N5")
        assert not report.passed
        keys = {w.keys for w in report.witnesses}
        assert (down(N5, "B"), down(N5, "D")) in keys

    def test_pentagon_quotient_sizes_differ(self, cmon, N5):
        # the failing pair really has non-isomorphic sides: downB/(downB ^ downD)
        # has 3 elements while (downB v downD)/downD has 2
        from monlat.monoid import cokernel_by_submonoid

        q1, _ = cokernel_by_submonoid(
            cmon.subobject_mono(N5, down(N5, "B")).dom, frozenset({0})
        )
        q2, _ = cokernel_by_submonoid(N5, down(N5, "D"))
        assert (q1.size, q2.size) == (3, 2)

    def test_klein_four_passes(self, V4):
        report = second_iso_check(V4, "V4")
        assert report.passed

    def test_nested_pairs_never_fail(self, commutative_fixtures):
        from monlat.nsub import enumerate_nsub

        for L in commutative_fixtures.values():
            lat = enumerate_nsub(L)
            report = second_iso_check(L, "L")
            for w in report.witnesses:
                iy = lat.index_of_key(w.keys[0])
                iz = lat.index_of_key(w.keys[1])
                assert lat.join[iy][iz] not in (iy, iz)

    def test_hexagon_separates_abstract_from_canonical_isomorphism(self, cmon):
        # two 3-chains glued at both ends: for Y the long side and Z half of
        # the short side, Y/(Y^Z) and (YvZ)/Z are both 3-chains, yet the
        # canonical comparison collapses two classes and misses one; the
        # check must report the failure (it is the canonical map that grid
        # exactness needs)
        from monlat.monoid import are_isomorphic
        from monlat.nsub import enumerate_nsub
        from monlat.semilattice import CoverGraph, semilattice_from_covers

        hexagon = semilattice_from_covers(
            CoverGraph(6, ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)))
        )
        lat = enumerate_nsub(hexagon)
        monos = cmon.normal_subobject_monos(hexagon)
        iy = lat.index_of_key(frozenset({0, 1, 3}))
        iz = lat.index_of_key(frozenset({0, 2}))
        y, z = monos[iy], monos[iz]
        j = monos[lat.join[iy][iz]]
        qa = cmon.cokernel(restrict_mono(cmon, z, j))
        qb = cmon.cokernel(restrict_mono(cmon, monos[lat.meet[iy][iz]], y))
        assert are_isomorphic(cmon.cod(qa), cmon.cod(qb))  # abstractly isomorphic
        u = cmon.factor_through_cokernel(
            qb, cmon.compose(qa, restrict_mono(cmon, y, j))
        )
        assert not u.is_bijective()  # but not via the canonical comparison
        report = second_iso_check(hexagon, "hexagon")
        assert any(w.keys == (lat.keys[iy], lat.keys[iz]) for w in report.witnesses)

    def test_dual_failures_mirror_primal_on_swapped_pairs(self, N5):
        # with the third isomorphism property available, the dual kernel
        # comparison for (Y, Z) is the primal comparison for (Z, Y); the
        # witness sets must be swaps of each other
        primal, dual = _second_iso_witness_sets(second_iso_check(N5, "N5"))
        assert primal and dual
        assert {(b, a) for a, b in primal} == dual

    def test_dual_failures_need_not_mirror_where_third_iso_fails(self):
        # on the census lattice c6_6 lifted along {0,4}, the third
        # isomorphism property fails and the dual witnesses are not the
        # swapped primal ones, so the dual half of the sweep is not redundant
        objects = objects_at_depth(lattices_of_size(6)[6], 1, "c6_6")
        ctx, S, nm = next(o for o in objects if o[2] == "c6_6|sub={0,4}")
        primal, dual = _second_iso_witness_sets(second_iso_check(S, nm))
        assert dual != {(b, a) for a, b in primal}
        assert not third_iso_check(S, nm).passed

    def test_dual_failures_mirror_primal_wherever_third_iso_holds(self):
        checked = 0
        for size in (5, 6):
            for i, L in enumerate(lattices_of_size(size)):
                for ctx, S, nm in objects_at_depth(L, 1, f"c{size}_{i}"):
                    if not third_iso_check(S, nm).passed:
                        continue
                    checked += 1
                    primal, dual = _second_iso_witness_sets(second_iso_check(S, nm))
                    assert dual == {(b, a) for a, b in primal}, nm
        assert checked

    def test_formulations_agree_on_fixtures_and_ses(self, cmon, ses1, commutative_fixtures):
        for name, L in commutative_fixtures.items():
            assert second_iso_disagreements(cmon, L, name) == []
            if L.size <= 5:
                for ctx, S, nm in objects_at_depth(L, 1, name):
                    assert second_iso_disagreements(ctx, S, nm) == []


class TestDpn:
    def test_pentagon_witness(self, N5):
        report = dpn_check(N5, "N5")
        assert not report.passed
        assert any(w.keys == (down(N5, "B"), down(N5, "D")) for w in report.witnesses)

    def test_diagonal_pairs_consistent(self, N5):
        report = dpn_check(N5, "N5")
        assert all(w.keys[0] != w.keys[1] for w in report.witnesses)

    def test_klein_four_passes_all_pairs(self, V4):
        report = dpn_check(V4, "V4")
        assert report.passed and report.cases == 25

    def test_witness_replay(self, cmon, N5):
        report = dpn_check(N5, "N5")
        for w in report.witnesses:
            alpha = antinormal_composite(cmon, N5, w.keys[1], w.keys[0])
            beta = antinormal_composite(cmon, N5, w.keys[0], w.keys[1])
            assert is_normal_map_in(cmon, alpha) != is_normal_map_in(cmon, beta)

    def test_passes_on_all_ses_objects_over_klein_four(self, cmon, V4):
        for ctx, S, nm in objects_at_depth(V4, 1, "V4"):
            assert dpn_check(S, nm).passed


class TestAntinormalTable:
    @pytest.mark.parametrize(
        "name, base, depth",
        ANTINORMAL_CASES,
        ids=[f"{name}-d{depth}" for name, _, depth in ANTINORMAL_CASES],
    )
    def test_matches_pairwise_reference(self, name, base, depth):
        # one table serves dpn and diexact; the reference rebuilds every
        # composite, decomposes zero maps too and decides dpn twice per pair
        for ctx, X, nm in objects_at_depth(base, depth, name):
            lat = enumerate_nsub(X)
            reference = antinormal_failures_by_pairs(ctx, X)
            failing = _failing_pairs(reference)
            if ctx.depth:
                assert categorical_antinormal_failures(ctx, X, lat) == failing, nm
            else:
                assert _antinormal_failures(X, lat) == failing, nm
            # the zero-map lemma: Y <= Z makes Y >-> X ->> X/Z normal
            for iy in range(lat.size):
                for iz in range(lat.size):
                    if lat.join[iy][iz] == iz:
                        assert reference[iy][iz] is None, (nm, iy, iz)
            assert dpn_check(X, nm) == pairwise_dpn_check(ctx, X, nm)
            assert diexact_check(X, nm) == pairwise_diexact_check(ctx, X, nm)

    def test_census_meets_both_reasons(self):
        reasons = Counter(
            reason
            for _, L in CENSUS_CASES
            for reason in _antinormal_failures(L, enumerate_nsub(L)).values()
        )
        assert reasons == {"induced map not injective": 114, "induced map not surjective": 96}

    @given(M=products_and_quotients())
    @settings(max_examples=60, deadline=None)
    def test_class_counts_on_products_and_quotients(self, M):
        cmon = cmon_context()
        reference = _failing_pairs(antinormal_failures_by_pairs(cmon, M))
        assert _antinormal_failures(M, enumerate_nsub(M)) == reference


class TestDiexact:
    def test_pentagon_fails(self, N5):
        report = diexact_check(N5, "N5")
        assert not report.passed
        assert any(w.keys == (down(N5, "B"), down(N5, "D")) for w in report.witnesses)

    def test_klein_four_passes(self, V4):
        assert diexact_check(V4, "V4").passed

    def test_chains_pass(self, commutative_fixtures):
        for name in ("chain2", "chain3", "chain4"):
            assert diexact_check(commutative_fixtures[name], name).passed

    def test_cross_check_runs_everywhere(self, cmon, commutative_fixtures):
        # di-exact = third iso + second iso, on every fixture
        for name, L in commutative_fixtures.items():
            assert diexact_disagreement(L, name) is None

    def test_ses_level_cross_check(self, cmon, N5, V4):
        for base, name in ((N5, "N5"), (V4, "V4")):
            for ctx, S, nm in objects_at_depth(base, 1, name):
                assert diexact_disagreement(S, nm) is None


class TestDiextensionGrid:
    def test_klein_four_full_grid(self, cmon, V4):
        grid = build_diextension(cmon, V4, frozenset({0, 1}), frozenset({0, 2}))
        assert grid.is_diextension
        assert grid.row_exact == (True, True, True)
        assert grid.col_exact == (True, True, True)

    def test_degenerate_pair(self, cmon, N5):
        top = frozenset(range(5))
        grid = build_diextension(cmon, N5, top, top)
        assert grid.is_diextension

    def test_pentagon_pair_is_not_a_diextension(self, cmon, N5):
        grid = build_diextension(cmon, N5, down(N5, "B"), down(N5, "D"))
        assert not grid.is_diextension
        # rows and columns 1, 2 always hold; a boundary sequence fails
        assert grid.row_exact[:2] == (True, True)
        assert grid.col_exact[:2] == (True, True)
        assert not (grid.row_exact[2] and grid.col_exact[2])

    def test_grid_agrees_with_dpn_on_all_pairs(self, cmon, commutative_fixtures):
        from monlat.nsub import enumerate_nsub

        for L in (commutative_fixtures["N5"], commutative_fixtures["V4"], commutative_fixtures["bool2"]):
            lat = enumerate_nsub(L)
            for iy in range(lat.size):
                for iz in range(lat.size):
                    y_key, z_key = lat.keys[iy], lat.keys[iz]
                    grid = build_diextension(cmon, L, y_key, z_key)
                    alpha = antinormal_composite(cmon, L, z_key, y_key)
                    beta = antinormal_composite(cmon, L, y_key, z_key)
                    both_normal = is_normal_map_in(cmon, alpha) and is_normal_map_in(
                        cmon, beta
                    )
                    assert grid.is_diextension == both_normal


def _stability_cases():
    """(name, monoid): the census lattices up to size 7, the mixed monoids,
    the named fixtures, Z2^3, Z2xZ4, Z3^2 and Z2^4."""
    cases = CENSUS_CASES + MIXED_CASES + list(named_commutative_monoids().items())
    for orders in ((2, 2, 2), (2, 4), (3, 3), (2, 2, 2, 2)):
        cases.append(("Z" + "xZ".join(map(str, orders)), abelian_group(*orders)))
    return cases


STABILITY_CASES = _stability_cases()


class TestPullbackStability:
    def test_all_fixtures_pass(self, commutative_fixtures):
        for name, L in commutative_fixtures.items():
            report = pullback_stability_check(L, name)
            assert report.passed and report.cases > 0

    @pytest.mark.parametrize("name, M", STABILITY_CASES, ids=[name for name, _ in STABILITY_CASES])
    def test_reports_match_the_categorical_check(self, cmon, name, M):
        reference = categorical_check("stability", cmon, M, name)
        assert run_check("stability", M, 0, name) == [reference]
        assert pullback_stability_check(M, name) == reference
        # one case per normal subobject of each quotient of M
        quotients = [cmon.cod(cmon.cokernel(m)) for m in cmon.normal_subobject_monos(M)]
        assert reference.cases == sum(len(cmon.normal_subobject_monos(Q)) for Q in quotients)

    def test_builds_no_map_and_enumerates_no_quotient(self, cmon, monkeypatch, N5, V4, L6):
        def refuse(*args):
            raise AssertionError("a CmonContext map operation was called")

        for op in CMON_MAP_OPERATIONS + ("kernel", "cokernel", "is_normal_epi"):
            monkeypatch.setattr(CmonContext, op, refuse)
        enumerated = []

        def recording(X):
            enumerated.append(X)
            return enumerate_nsub(X)

        monkeypatch.setattr(checks, "enumerate_nsub", recording)
        for M, name in ((N5, "N5"), (V4, "V4"), (L6, "L6"), (truncated_monoid(4), "trunc4")):
            assert run_check("stability", M, 0, name)[0].passed
        assert enumerated == [N5, V4, L6, truncated_monoid(4)]

    def test_depth_one_object_raises_as_run_check_does(self, N5):
        S = make_ses(N5, down(N5, "D"))
        with pytest.raises(ValueError) as checker:
            pullback_stability_check(S, "N5|sub={0,D}")
        with pytest.raises(ValueError) as sweep:
            run_check("stability", N5, 1, "N5")
        assert str(checker.value) == str(sweep.value) == (
            "the stability check is defined on the base context only"
        )


class TestTransferInstances:
    def test_distributive_fixtures_stay_hsd_at_all_depths(self, commutative_fixtures):
        # modularity (indeed distributivity) holds in these lattices, so the
        # third isomorphism property survives every ses lift
        for name in ("chain2", "chain3", "chain4", "bool2"):
            L = commutative_fixtures[name]
            for depth in (1, 2, 3):
                for ctx, S, nm in objects_at_depth(L, depth, name):
                    assert third_iso_check(S, nm).passed

    def test_klein_four_subquotients_all_locally_diexact(self, cmon, V4):
        for member in subquotient_closure(cmon, V4):
            assert diexact_check(member, "member").passed

    def test_diamond_semilattice_mirrors_the_group_story(self, M3):
        # the five-element diamond of idempotents behaves like the Klein
        # four-group one level up: dinversion still preserves normal maps on
        # every short exact sequence over it, while local di-exactness fails
        # on the three middle lifts
        assert diexact_check(M3, "M3").passed
        verdicts = []
        for ctx, S, nm in objects_at_depth(M3, 1, "M3"):
            assert dpn_check(S, nm).passed
            verdicts.append(diexact_check(S, nm).passed)
        assert verdicts == [True, False, False, False, True]

    def test_ses_serialization(self, cmon, ses1, N5):
        # the sub of a nested ses renders by its innermost members
        S = make_ses(N5, down(N5, "D"))
        assert cmon.render_key(N5, S.marks[-1]) == "{0,D}"
        S2 = make_ses(S, down(N5, "C"))
        assert ses1.render_key(S, S2.marks[-1]) == "{0,C}"


class TestSubquotientClosure:
    def test_trivial(self, cmon):
        from monlat.semilattice import trivial

        assert len(subquotient_closure(cmon, trivial())) == 1

    def test_klein_four(self, cmon, V4):
        closure = subquotient_closure(cmon, V4)
        assert sorted(m.size for m in closure) == [1, 2, 4]

    def test_pentagon_members_are_semilattices(self, cmon, N5):
        # subobjects are chains and N5 itself; quotients are chains (N5/downC
        # is the 3-chain since D v C = A), so up to iso: 1, 2, 3, 5 elements
        closure = subquotient_closure(cmon, N5)
        assert all(m.is_semilattice for m in closure)
        assert sorted(m.size for m in closure) == [1, 2, 3, 5]


class TestSweepFromMarkTables:
    """run_check decides a depth-d sweep from one lattice table per mark;
    each of its reports must equal the categorical report, which builds
    every map on the depth-d object that objects_at_depth builds, and the
    public checker's report on that object."""

    @pytest.mark.parametrize(
        "name, base, depth",
        SWEEP_CASES,
        ids=[f"{name}-d{depth}" for name, _, depth in SWEEP_CASES],
    )
    def test_reports_match_the_checkers(self, name, base, depth):
        objects = list(objects_at_depth(base, depth, name))
        for prop in EVERY_DEPTH:
            check = CHECKS[prop]
            reference = [categorical_check(prop, ctx, X, nm) for ctx, X, nm in objects]
            assert run_check(prop, base, depth, name) == reference, prop
            assert [check(X, nm) for _, X, nm in objects] == reference, prop

    @given(
        case=st.sampled_from(CENSUS_CASES).flatmap(
            lambda case: st.tuples(
                st.just(case),
                st.integers(2, 3).flatmap(
                    lambda depth: st.lists(
                        st.integers(0, len(enumerate_nsub(case[1]).keys) - 1),
                        min_size=depth,
                        max_size=depth,
                    )
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_random_mark_tuples(self, case):
        (name, L), marks = case
        ctx, X, nm = cmon_context(), L, name
        for k in marks:
            m = ctx.normal_subobject_monos(X)[k]
            nm += f"|sub={ctx.render_key(X, ctx.mono_key(m))}"
            X, ctx = make_ses(X, ctx.mono_key(m)), ses_context(ctx)
        n = enumerate_nsub(X).size
        position = sum(k * n ** (len(marks) - 1 - i) for i, k in enumerate(marks))
        for prop in ("hsd", "secondiso", "dpn", "diexact"):
            report = run_check(prop, L, len(marks), name)[position]
            assert report == categorical_check(prop, ctx, X, nm), prop


class TestRunCheck:
    def test_depth_zero(self, N5):
        reports = run_check("dpn", N5, 0, "N5")
        assert len(reports) == 1 and not reports[0].passed

    def test_depth_below_zero_is_the_object_itself(self, N5):
        assert [nm for _, _, nm in objects_at_depth(N5, -1, "N5")] == ["N5"]
        assert run_check("hsd", N5, -1, "N5") == run_check("hsd", N5, 0, "N5")

    def test_depth_one_fans_out(self, N5):
        reports = run_check("hsd", N5, 1, "N5")
        assert len(reports) == 5
        failing = [r for r in reports if not r.passed]
        assert [r.obj for r in failing] == ["N5|sub={0,D}"]

    def test_modular_distributive_checks(self, V4):
        assert run_check("modular", V4, 0, "V4")[0].passed
        assert not run_check("distributive", V4, 0, "V4")[0].passed

    def test_stability_depth_guard(self, N5):
        with pytest.raises(ValueError):
            run_check("stability", N5, 1, "N5")

    @pytest.mark.parametrize("name", ("V4", "N5", "L6", "M3"))
    def test_sweep_over_a_sequence_keeps_its_marks(self, name):
        # the sweep over S = (X, K) is the slice of the depth-2 sweep over X
        # whose first mark is K
        X = named_commutative_monoids()[name]
        lat = enumerate_nsub(X)
        n = lat.size
        for prop in EVERY_DEPTH:
            over_x = run_check(prop, X, 2, name)
            for i, (key, label) in enumerate(zip(lat.keys, lat.names)):
                S, nm = make_ses(X, key), f"{name}|sub={label}"
                assert run_check(prop, S, 1, nm) == over_x[i * n : (i + 1) * n], (prop, nm)
                assert run_check(prop, S, 0, nm) == [CHECKS[prop](S, nm)], (prop, nm)
        for key in lat.keys:
            with pytest.raises(ValueError):
                run_check("stability", make_ses(X, key), 0, name)

    def test_result_line_format(self, N5):
        line = run_check("dpn", N5, 0, "N5")[0].result_line()
        fields = line.split("\t")
        assert fields[0] == "RESULT"
        assert fields[1] == "object=N5"
        assert fields[2] == "property=dpn"
        assert fields[3] == "depth=0"
        assert fields[4] == "status=fail"
        assert fields[5] == "cases=25"
        # first witness in canonical order: (downC, downD) also violates DPN,
        # since downC -> up(D) is an iso while downD -> N5/downC has an image
        # that is not down-closed
        assert fields[6] == "witness=({0,C};{0,D}):dinverse-normal"


def _characterization_cases():
    """(name, monoid): the census lattices up to size 7, the commutative
    fixtures, five abelian groups and the mixed monoids."""
    cases = [(f"c{n}_{i}", L) for n in range(1, 8) for i, L in enumerate(lattices_of_size(n))]
    cases += named_commutative_monoids().items()
    for orders in ((2, 2, 2), (2, 4), (3, 3, 3), (2, 2, 2, 2), (6, 2, 2)):
        cases.append(("Z" + "xZ".join(map(str, orders)), abelian_group(*orders)))
    return cases + MIXED_CASES


CHARACTERIZATION_CASES = _characterization_cases()


class TestSubLegsAreKernels:
    def test_every_normal_submonoid_is_the_kernel_of_its_cokernel(self):
        # the exactness make_ses does not re-check: the sub leg on a key of
        # the lattice is the kernel of the quotient leg
        for name, M in CHARACTERIZATION_CASES:
            for key in enumerate_nsub(M).keys:
                assert kernel_subset(cokernel_by_submonoid(M, key)[1]) == key, (name, key)


class TestMarkRulesAreOneIdentity:
    def test_each_mark_rule_substitutes_into_the_antinormal_identity(self):
        # A_k(y, z) is (y^k)vz != (yvz)^(kvz); hsd is A at (y, x) for x <= y,
        # secondiso's primal entry A at the mark (yvz)^k, its dual entry A at
        # (z, y) with the mark kv(y^z); dpn and diexact read A itself
        marks_checked = 0
        for lat in (lat for n in range(1, 9) for lat in census_lattices(n)):
            J, W = lat.join, lat.meet
            pairs = list(product(range(lat.size), repeat=2))

            def A(k, y, z):
                return J[W[y][k]][z] != W[J[y][z]][J[k][z]]

            for k in range(lat.size):
                assert set(_antinormal_at_mark(lat, k)) == {(y, z) for y, z in pairs if A(k, y, z)}
                nested = {(x, y) for x, y in pairs if J[x][y] == y and A(k, y, x)}
                assert set(_hsd_at_mark(lat, k)) == nested
                second = _second_iso_at_mark(lat, k)
                for y, z in pairs:
                    tags = second.get((y, z), "").split("+")
                    assert ("primal" in tags) == A(W[J[y][z]][k], y, z), (lat.join, k, y, z)
                    assert ("dual" in tags) == A(J[k][W[y][z]], z, y), (lat.join, k, y, z)
                marks_checked += 1
        assert marks_checked == 2276


class TestLatticeCharacterizations:
    """At depth 1 the ses verdicts are lattice properties of the input's
    normal submonoids."""

    # mark_table_sweep builds every mark table: run_check skips them by
    # these characterizations, so on it the tests would check themselves

    def test_hsd_holds_at_depth_one_iff_modular(self):
        for name, M in CHARACTERIZATION_CASES:
            modular, _ = is_modular(enumerate_nsub(M))
            assert all(r.passed for r in mark_table_sweep("hsd", M, 1, name)) == modular, name

    def test_diexact_holds_at_depth_one_iff_diexact_and_distributive(self):
        for name, M in CHARACTERIZATION_CASES:
            distributive, _ = is_distributive(enumerate_nsub(M))
            expected = run_check("diexact", M, 0, name)[0].passed and distributive
            reports = mark_table_sweep("diexact", M, 1, name)
            assert all(r.passed for r in reports) == expected, name

    def test_dpn_holds_at_depth_one_iff_modular(self):
        for name, M in CHARACTERIZATION_CASES:
            modular, _ = is_modular(enumerate_nsub(M))
            assert all(r.passed for r in mark_table_sweep("dpn", M, 1, name)) == modular, name

    def test_antinormal_tables_are_symmetric_on_modular_lattices(self):
        # on a modular lattice Y >-> M ->> M/Z fails to be normal exactly
        # when Z >-> M ->> M/Y does, at depth 0 and at every mark
        def symmetric(table):
            return all((z, y) in table for y, z in table)

        for name, M in CHARACTERIZATION_CASES:
            lat = enumerate_nsub(M)
            if not is_modular(lat)[0]:
                continue
            assert symmetric(_antinormal_failures(M, lat)), name
            for k in range(lat.size):
                assert symmetric(_antinormal_at_mark(lat, k)), (name, k)

    def test_a_mark_passes_hsd_iff_it_is_a_modular_element(self):
        # k is a modular element when x v (k ^ y) = (x v k) ^ y for all x <= y
        marks = Counter()
        for name, M in CHARACTERIZATION_CASES:
            lat = enumerate_nsub(M)
            J, W = lat.join, lat.meet
            nested = [(x, y) for x, y in product(range(lat.size), repeat=2) if J[x][y] == y]
            for k in range(lat.size):
                modular_element = all(J[x][W[k][y]] == W[J[x][k]][y] for x, y in nested)
                assert (not _hsd_at_mark(lat, k)) == modular_element, (name, k)
                marks[modular_element] += 1
        assert marks == {True: 697, False: 86}

    def test_a_mark_passes_diexact_on_a_modular_lattice_iff_it_is_neutral(self):
        # by the median identity, k is neutral when
        # (k^x)v(x^y)v(y^k) = (kvx)^(xvy)^(yvk) for all x, y (Gratzer, III.2)
        marks = Counter()
        for name, M in CHARACTERIZATION_CASES:
            lat = enumerate_nsub(M)
            if not lattice_verdicts(lat)[0]:
                continue
            J, W = lat.join, lat.meet
            pairs = list(product(range(lat.size), repeat=2))
            for k in range(lat.size):
                neutral = all(
                    J[J[W[k][x]][W[x][y]]][W[y][k]] == W[W[J[k][x]][J[x][y]]][J[y][k]]
                    for x, y in pairs
                )
                assert (not _antinormal_at_mark(lat, k)) == neutral, (name, k)
                marks[neutral] += 1
        assert marks == {True: 266, False: 206}


def _xor_group(bits):
    """Z2^bits, element i the bit vector i."""
    return FinMonoid(tuple(tuple(a ^ b for b in range(1 << bits)) for a in range(1 << bits)))


class TestLatticeLawsDecideSweeps:
    """Where a law of the lattice decides every mark (the ``checks``
    docstring), a sweep gives the reports of the one that builds every
    mark table, and builds none."""

    @pytest.mark.parametrize("prop", MARKED_PROPERTIES)
    def test_depth_one_matches_the_mark_tables(self, prop):
        for name, M in CHARACTERIZATION_CASES:
            assert run_check(prop, M, 1, name) == mark_table_sweep(prop, M, 1, name), name

    @pytest.mark.parametrize("prop", MARKED_PROPERTIES)
    def test_depth_two_matches_the_mark_tables(self, prop):
        for name, M in CHARACTERIZATION_CASES:
            if enumerate_nsub(M).size <= 10:
                assert run_check(prop, M, 2, name) == mark_table_sweep(prop, M, 2, name), name

    def test_decided_sweeps_build_no_mark_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a mark table was built")

        for prop in MARKED_PROPERTIES:
            base, _, *rest = checks._RULES[prop]
            monkeypatch.setitem(checks._RULES, prop, (base, refuse, *rest))
        decided = Counter()
        for name, M in CHARACTERIZATION_CASES:
            modular, distributive = lattice_verdicts(enumerate_nsub(M))
            for prop in MARKED_PROPERTIES:
                if distributive or modular and prop in ("hsd", "dpn"):
                    assert len(run_check(prop, M, 1, name)) == enumerate_nsub(M).size, name
                    decided[prop] += 1
        assert decided == {"hsd": 66, "secondiso": 43, "dpn": 66, "diexact": 43}

    def test_z2_to_the_fifth_at_depth_one(self):
        Z2_5 = _xor_group(5)
        for prop in ("hsd", "dpn"):
            reports = run_check(prop, Z2_5, 1, "Z2^5")
            assert len(reports) == 374 and all(r.passed for r in reports), prop

    def test_z2_to_the_fourth_at_depth_two(self):
        reports = run_check("dpn", _xor_group(4), 2, "Z2^4")
        assert len(reports) == 67**2 and all(r.passed for r in reports)


class TestMixedMonoids:
    """The depth-0 lemmas on commutative monoids that are neither
    semilattices nor groups (their sweeps are in SWEEP_CASES)."""

    @pytest.mark.parametrize("name, M", MIXED_CASES, ids=[name for name, _ in MIXED_CASES])
    def test_categorical_hsd_table_is_empty_at_depth_zero(self, cmon, name, M):
        assert hsd_failures(cmon, M, enumerate_nsub(M)) == {}

    @pytest.mark.parametrize("name, M", MIXED_CASES, ids=[name for name, _ in MIXED_CASES])
    def test_categorical_secondiso_table_is_antinormal_and_transpose(self, cmon, name, M):
        lat = enumerate_nsub(M)
        antinormal = _antinormal_failures(M, lat)
        expected = {}
        for y, z in product(range(lat.size), repeat=2):
            tags = ["primal"] * ((y, z) in antinormal) + ["dual"] * ((z, y) in antinormal)
            if tags:
                expected[y, z] = "+".join(tags)
        assert second_iso_failures(cmon, M, lat) == expected


SES_OPERATIONS = (
    "compose", "kernel", "cokernel", "factor_through_kernel", "factor_through_cokernel",
    "normal_mono_failure", "normal_epi_failure", "is_iso", "is_mono", "is_epi",
    "subobject_mono", "normal_subobject_monos",
)

CMON_MAP_OPERATIONS = (
    "compose", "factor_through_kernel", "factor_through_cokernel", "is_iso", "is_mono", "is_epi",
)


class TestNoSesOperations:
    def test_checks_and_scenarios_build_no_ses_map(self, monkeypatch, N5, V4):
        # every ses verdict is read off the lattice of the innermost monoid
        def refuse(*args):
            raise AssertionError("a SesContext operation was called")

        for op in SES_OPERATIONS:
            monkeypatch.setattr(SesContext, op, refuse)
        for M, name in ((N5, "N5"), (V4, "V4")):
            n = enumerate_nsub(M).size
            for prop in EVERY_DEPTH:
                for depth in (1, 2, 3):
                    assert len(run_check(prop, M, depth, name)) == n**depth
        assert all(result.ok for result in run_reference_scenarios(2))

    def test_package_calls_no_context(self, monkeypatch, N5, V4):
        # the checkers, the lattice, the sweeps, the scenarios and the CLI
        # take an object alone, so no operation of a context runs
        def refuse(*args):
            raise AssertionError("a context operation was called")

        for cls in (CmonContext, SesContext):
            for op, fn in list(vars(cls).items()):
                if callable(fn) and not op.startswith("_"):
                    monkeypatch.setattr(cls, op, refuse)
        S = make_ses(make_ses(N5, down(N5, "D")), down(N5, "C"))
        for prop, check in CHECKS.items():
            for X in (N5, V4) + ((S,) if prop != "stability" else ()):
                assert check(X).cases and enumerate_nsub(X).size
        for prop in EVERY_DEPTH:
            assert len(run_check(prop, V4, 2, "V4")) == 25
        assert all(result.ok for result in run_reference_scenarios(2))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["nsub", "N5"]) == 0

    def test_checks_build_no_monoid_map(self, monkeypatch, N5, V4, L6):
        # the depth-0 antinormal table counts cokernel classes: no check
        # composes, factors or decomposes a map of monoids; and the lattice's
        # keys are normal submonoids by construction, so no sweep rebuilds
        # them as monos or re-tests their normality
        def refuse(*args):
            raise AssertionError("a CmonContext map operation was called")

        rebuilt = (
            "kernel", "cokernel", "normal_subobject_monos", "normal_mono_failure", "subobject_mono",
        )
        for op in CMON_MAP_OPERATIONS + rebuilt:
            monkeypatch.setattr(CmonContext, op, refuse)
        for M, name in ((N5, "N5"), (V4, "V4"), (L6, "L6"), (truncated_monoid(4), "trunc4")):
            n = enumerate_nsub(M).size
            for prop in ("hsd", "secondiso", "dpn", "diexact"):
                for depth in (0, 1, 2):
                    assert len(run_check(prop, M, depth, name)) == n**depth
