"""Per-object verifiers for the homological frameworks.

Each checker sweeps the normal subobjects of one object of a context and
returns a CheckReport at the context's depth, with replayable witnesses.
Each verdict comes from one characterization of its property; the
equivalent characterizations are compared against it in the test suite,
not here. Each checker reads one per-pair failure table of its object,
and a sweep over the depth-d objects (``run_check``) combines one depth-1
table per mark instead of building them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product
from typing import Any

from .context import (
    cmon_context,
    make_ses,
    normal_decomposition_in,
    restrict_mono,
    ses_context,
)
from .monoid import NormalDecomposition
from .nsub import enumerate_nsub, is_distributive, is_modular


@dataclass(frozen=True)
class CheckWitness:
    """A failing configuration: canonical subobject keys plus display names."""

    keys: tuple
    names: tuple[str, ...]
    note: str = ""

    def render(self) -> str:
        body = ";".join(self.names)
        return f"({body})" + (f":{self.note}" if self.note else "")


@dataclass
class CheckReport:
    prop: str
    obj: str
    depth: int
    passed: bool
    witnesses: tuple[CheckWitness, ...]
    cases: int

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def result_line(self) -> str:
        witness = self.witnesses[0].render() if self.witnesses else "-"
        return (
            f"RESULT\tobject={self.obj}\tproperty={self.prop}\tdepth={self.depth}"
            f"\tstatus={self.status}\tcases={self.cases}\twitness={witness}"
        )


def _pair_witnesses(lat, table) -> list[CheckWitness]:
    """One witness per failing pair (i, j) of ``table``, in the table's
    order, noted with the pair's failure."""
    keys, names = lat.keys, lat.names
    return [
        CheckWitness((keys[i], keys[j]), (names[i], names[j]), failure)
        for (i, j), failure in table.items()
    ]


def _hsd_failures(ctx, lat) -> dict[tuple[int, int], str]:
    """The failing pairs X <= Y of ``third_iso_check``, with the reason the
    induced map Y/X -> Z/X is not a normal mono."""
    q = [ctx.cokernel(m) for m in lat.monos]
    table = {}
    for ix in range(lat.size):
        for iy in range(lat.size):
            if not lat.leq[ix][iy]:
                continue
            x, y = lat.monos[ix], lat.monos[iy]
            e = ctx.cokernel(restrict_mono(ctx, x, y))  # Y ->> Y/X
            g = ctx.factor_through_cokernel(e, ctx.compose(q[ix], y))
            failure = ctx.normal_mono_failure(g)
            if failure is not None:
                table[ix, iy] = failure
    return table


def third_iso_check(ctx, Z, name="object") -> CheckReport:
    """Third Isomorphism Property at one object: for X <= Y normal in Z, the
    induced map Y/X -> Z/X must be a normal mono (equivalently, Y/X is a
    kernel of Z/X -> Z/Y). The witness note localizes which normality clause
    broke."""
    return _check("hsd", ctx, Z, name)


def _second_iso_failures(ctx, lat) -> dict[tuple[int, int], str]:
    """The failing ordered pairs of ``second_iso_check``, each noted with
    the comparisons that are not isomorphisms: primal, dual or both.

    Each map the two comparisons are built from depends on one nested
    pair A <= B among Y, Z, Y^Z and YvZ, so it is built once per nested
    pair instead of once per ordered pair: the inclusion A >-> B, the
    quotient B ->> B/A (``(YvZ)/Z``, ``Y/(Y^Z)``), the map X/A ->> X/B
    between quotients of the object (``X/(Y^Z) ->> X/Y``) and its kernel
    B/A >-> X/A. Every nested pair occurs (as Y = B, Z = A), so none is
    built in vain.
    """
    q = [ctx.cokernel(m) for m in lat.monos]
    nested = [(a, b) for a in range(lat.size) for b in range(lat.size) if lat.leq[a][b]]
    restrict = {(a, b): restrict_mono(ctx, lat.monos[a], lat.monos[b]) for a, b in nested}
    quotient = {pair: ctx.cokernel(m) for pair, m in restrict.items()}
    between = {(a, b): ctx.factor_through_cokernel(q[a], q[b]) for a, b in nested}
    between_kernel = {pair: ctx.kernel(p) for pair, p in between.items()}
    table = {}
    for iy in range(lat.size):
        for iz in range(lat.size):
            ij, im = lat.join[iy][iz], lat.meet[iy][iz]
            f = ctx.compose(quotient[iz, ij], restrict[iy, ij])
            u = ctx.factor_through_cokernel(quotient[im, iy], f)  # Y/(Y^Z) -> (YvZ)/Z
            p = between[im, iy]  # X/(Y^Z) ->> X/Y
            v = ctx.factor_through_kernel(
                ctx.compose(p, between_kernel[im, iz]), between_kernel[iy, ij]
            )
            note = "+".join(
                tag for tag, iso in (("primal", ctx.is_iso(u)), ("dual", ctx.is_iso(v))) if not iso
            )
            if note:
                table[iy, iz] = note
    return table


def second_iso_check(ctx, X, name="object") -> CheckReport:
    """Second Isomorphism Property at one object.

    For each ordered pair (Y, Z) of normal subobjects, the canonical
    comparison Y/(Y^Z) -> (YvZ)/Z must be an isomorphism. The equivalent
    formulations (the composite Y >-> YvZ ->> (YvZ)/Z is a normal map, or
    a normal epi) are not evaluated here. The dual statement (the
    canonical map between the kernels of X/(Y^Z) -> X/Z and of
    X/Y -> X/(YvZ) is an isomorphism) is evaluated in the same sweep.
    Where the third isomorphism property holds at X, the dual comparison
    for (Y, Z) is the primal one for (Z, Y), so the dual failures mirror
    the primal ones on swapped pairs; where it fails they can differ (over
    the census lattices of sizes 5-7, 27 of the 486 depth-1 objects), so
    the dual half is not redundant.

    The comparisons are the canonical induced maps, never a search for an
    abstract isomorphism: on the hexagon lattice (two 3-chains glued at both
    ends) there is a pair whose two sides are abstractly isomorphic 3-chains
    while the canonical map collapses two classes, and it is the canonical
    map that the exactness of the corresponding grid needs.
    """
    return _check("secondiso", ctx, X, name)


def _antinormal_failures(ctx, lat) -> dict[tuple[int, int], str]:
    """Which antinormal composites Y >-> X ->> X/Z through the object of
    ``lat`` are not normal maps: the pair (y, z) of indices maps to the
    reason when the composite of the y-th subobject with the cokernel of
    the z-th is not normal, and is absent when it is.

    The cokernels are built once per subobject. A pair with Y <= Z is
    absent without a decomposition: Y lies in Z, the kernel of X ->> X/Z, so
    the composite is the zero map, and a zero map is normal in any context
    (its kernel and cokernel are identities and the comparison is 0 -> 0).
    """
    q = [ctx.cokernel(m) for m in lat.monos]
    table = {}
    for iy, y in enumerate(lat.monos):
        for iz, qz in enumerate(q):
            if not lat.leq[iy][iz]:
                dec = normal_decomposition_in(ctx, ctx.compose(qz, y))
                if not isinstance(dec, NormalDecomposition):
                    table[iy, iz] = dec.reason
    return table


def _dpn_witnesses(lat, table) -> list[CheckWitness]:
    """A witness per ordered pair (Y, Z) where exactly one of Z >-> X ->> X/Y
    and its dinverse Y >-> X ->> X/Z is normal, noted with the normal one."""
    pairs = product(range(lat.size), repeat=2)
    return _pair_witnesses(lat, {
        (iy, iz): "dinverse-normal" if (iz, iy) in table else "map-normal"
        for iy, iz in pairs
        if ((iz, iy) in table) != ((iy, iz) in table)
    })


def dpn_check(ctx, X, name="object") -> CheckReport:
    """Dinversion preserves normal maps, tested on one object: for each
    ordered pair (Y, Z), the composite Z >-> X ->> X/Y is normal exactly when
    its dinverse Y >-> X ->> X/Z is.

    Both composites are read off one table of antinormal composites
    (``_antinormal_failures``, shared with ``diexact_check``), so each
    ordered pair is decided once; a composite Y >-> X ->> X/Z with Y <= Z
    is the zero map, normal without a decomposition.
    """
    return _check("dpn", ctx, X, name)


def diexact_check(ctx, X, name="object") -> CheckReport:
    """Local di-exactness: every antinormal composite Y >-> X ->> X/Z through
    this object is a normal map. The verdicts come from the table that
    ``dpn_check`` reads too (``_antinormal_failures``): a pair with Y <= Z
    holds the zero map, normal without a decomposition, and any other pair's
    witness note is the reason its decomposition failed."""
    return _check("diexact", ctx, X, name)


def pullback_stability_check(ctx, X, name="object") -> CheckReport:
    """Pullbacks of normal epis along normal monos are normal epis: tested
    for every quotient of X against every normal subobject of the quotient.
    Requires the concrete commutative-monoid context (finite limits)."""
    lat = enumerate_nsub(ctx, X)
    witnesses = []
    cases = 0
    for ik in range(lat.size):
        e = ctx.cokernel(lat.monos[ik])
        Q = ctx.cod(e)
        qlat = enumerate_nsub(ctx, Q)
        for it in range(qlat.size):
            cases += 1
            pb = ctx.pullback_epi_along_mono(e, qlat.monos[it])
            if not ctx.is_normal_epi(pb.onto_sub):
                witnesses.append(
                    CheckWitness(
                        (lat.keys[ik], qlat.keys[it]),
                        (lat.names[ik], qlat.names[it]),
                        "projection-not-normal-epi",
                    )
                )
    return CheckReport("stability", name, ctx.depth, not witnesses, tuple(witnesses), cases)


def modular_check(ctx, X, name="object") -> CheckReport:
    return _check("modular", ctx, X, name)


def distributive_check(ctx, X, name="object") -> CheckReport:
    return _check("distributive", ctx, X, name)


def _lattice_witnesses(lat, verdict) -> list[CheckWitness]:
    ok, witness = verdict
    return [] if ok else [CheckWitness((), witness.names, witness.kind)]


# ---------------------------------------------------------------------------
# sweeping over iterated short-exact-sequence objects


def _merged(tables, join=lambda old, new: old) -> dict:
    """The pairs failing in any of the tables, in pair order. A pair that
    fails in several gets ``join`` of their failures, by default the first:
    that serves dpn's and diexact's reasons, since a reason of the
    innermost map is the same in every table, and a mark's own reason is
    always 'induced map not invertible'."""
    merged = {}
    for table in tables:
        for pair, failure in table.items():
            merged[pair] = join(merged[pair], failure) if pair in merged else failure
    return dict(sorted(merged.items()))


def _either_comparison(tables) -> dict:
    """secondiso's note names the comparisons that fail in any table."""
    return _merged(
        tables, lambda old, new: "+".join(tag for tag in ("primal", "dual") if tag in old + new)
    )


def _first_failing_level(tables) -> dict:
    """hsd's note names the first level that fails: a failure of the base
    map (in every table) or of a mark below the top fails the base map of
    the whole sequence; a failure of the top mark alone is its left square."""
    *lower, top = tables
    return _merged([dict.fromkeys(table, "beta-not-normal-mono") for table in lower] + [top])


def _unmarked(tables):
    """A lattice verdict: every object over X has the lattice of X."""
    return tables[0]


def _ordered_pairs(lat) -> int:
    return lat.size**2


def _nested_pairs(lat) -> int:  # the pairs X <= Y
    return sum(map(sum, lat.leq))


def _triples(lat) -> int:
    return lat.size**3


# How each property is decided: (the failure table of one object, its
# witnesses, its case count, and how the tables of the depth-1 objects
# (M, (K1)), ..., (M, (Kd)) combine into the table of (M, (K1, ..., Kd))).
_RULES = {
    "hsd": (_hsd_failures, _pair_witnesses, _nested_pairs, _first_failing_level),
    "secondiso": (_second_iso_failures, _pair_witnesses, _ordered_pairs, _either_comparison),
    "dpn": (_antinormal_failures, _dpn_witnesses, _ordered_pairs, _merged),
    "diexact": (_antinormal_failures, _pair_witnesses, _ordered_pairs, _merged),
    "modular": (lambda ctx, lat: is_modular(lat), _lattice_witnesses, _triples, _unmarked),
    "distributive": (
        lambda ctx, lat: is_distributive(lat), _lattice_witnesses, _triples, _unmarked
    ),
}


def _report(prop, depth, name, lat, table) -> CheckReport:
    _, witnesses, cases, _ = _RULES[prop]
    found = tuple(witnesses(lat, table))
    return CheckReport(prop, name, depth, not found, found, cases(lat))


def _check(prop, ctx, X, name) -> CheckReport:
    lat = enumerate_nsub(ctx, X)
    return _report(prop, ctx.depth, name, lat, _RULES[prop][0](ctx, lat))


def objects_at_depth(X, depth: int, name: str) -> Iterator[tuple[Any, Any, str]]:
    """All iterated ses objects over X, built one at a time: at each level,
    one object per normal subobject of each object one level down. Yields
    (context, object, name) triples in deterministic order: the marks
    (K1, ..., Kd) run through ``itertools.product`` of the normal
    submonoids of X, the last mark fastest."""

    def over(ctx, obj, nm, levels):
        if levels <= 0:
            yield ctx, obj, nm
            return
        up = ses_context(ctx)
        for m in ctx.normal_subobject_monos(obj):
            label = ctx.render_key(obj, ctx.mono_key(m))
            yield from over(up, make_ses(ctx, obj, m), f"{nm}|sub={label}", levels - 1)

    yield from over(cmon_context(), X, name, depth)


CHECKS = {
    "hsd": third_iso_check,
    "secondiso": second_iso_check,
    "dpn": dpn_check,
    "diexact": diexact_check,
    "modular": modular_check,
    "distributive": distributive_check,
}


def run_check(prop: str, X, depth: int = 0, name: str = "object") -> list[CheckReport]:
    """Run one named property on every ses object over X at the given depth,
    in the order of ``objects_at_depth``.

    Depth 0 runs the property's checker on X. At depth d >= 1 the sweep
    builds no depth-d object: it decides each depth-1 object (M, (K)), one
    per normal submonoid K of X, once, and reads the report of every
    object (M, (K1, ..., Kd)) off the tables of its marks. This is exact.
    Every map a checker builds at (M, (K1, ..., Kd)) has the innermost
    monoid map it has at each (M, (Ki)), and the same marks at level i: a
    kernel's marks are N & Ki, a cokernel's are normal_closure(q(Li)) for
    the marks Li of its target, and composites and factor maps carry them
    level by level. Both normality recognizers and ``is_iso`` test the
    innermost map and then one level at a time. So a pair fails at depth d
    exactly when it fails at (M, (Ki)) for some i, and each rule's combine
    step (the last entry of its ``_RULES`` tuple) keeps the note that the
    depth-d checker gives. The checkers themselves, called on the objects
    of ``objects_at_depth``, are the reference in the tests.
    """
    cmon = cmon_context()
    if prop == "stability":
        if depth != 0:
            raise ValueError("the stability check is defined on the base context only")
        return [pullback_stability_check(cmon, X, name)]
    if depth <= 0:
        return [CHECKS[prop](cmon, X, name)]
    failures, _, _, combine = _RULES[prop]
    ses = ses_context(cmon)
    lat = enumerate_nsub(cmon, X)
    tables = [failures(ses, enumerate_nsub(ses, make_ses(cmon, X, m))) for m in lat.monos]
    labels = [f"|sub={label}" for label in lat.names]
    reports = []
    for marks in product(range(lat.size), repeat=depth):
        table = tables[marks[0]] if depth == 1 else combine([tables[k] for k in marks])
        nm = name + "".join(labels[k] for k in marks)
        reports.append(_report(prop, depth, nm, lat, table))
    return reports
