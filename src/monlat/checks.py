"""Per-object verifiers for the homological frameworks.

Each checker sweeps the normal subobjects of one object of a context and
returns a CheckReport at the context's depth, with replayable witnesses.
Each verdict comes from one characterization of its property; the
equivalent characterizations are compared against it in the test suite,
not here.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _report(prop, ctx, name, witnesses, cases) -> CheckReport:
    return CheckReport(prop, name, ctx.depth, not witnesses, tuple(witnesses), cases)


def third_iso_check(ctx, Z, name="object") -> CheckReport:
    """Third Isomorphism Property at one object: for X <= Y normal in Z, the
    induced map Y/X -> Z/X must be a normal mono (equivalently, Y/X is a
    kernel of Z/X -> Z/Y). The witness note localizes which normality clause
    broke."""
    lat = enumerate_nsub(ctx, Z)
    q = [ctx.cokernel(m) for m in lat.monos]
    witnesses = []
    cases = 0
    for ix in range(lat.size):
        for iy in range(lat.size):
            if not lat.leq[ix][iy]:
                continue
            x, y = lat.monos[ix], lat.monos[iy]
            e = ctx.cokernel(restrict_mono(ctx, x, y))  # Y ->> Y/X
            g = ctx.factor_through_cokernel(e, ctx.compose(q[ix], y))
            cases += 1
            failure = ctx.normal_mono_failure(g)
            if failure is not None:
                witnesses.append(
                    CheckWitness((lat.keys[ix], lat.keys[iy]), (lat.names[ix], lat.names[iy]), failure)
                )
    return _report("hsd", ctx, name, witnesses, cases)


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
    lat = enumerate_nsub(ctx, X)
    q = [ctx.cokernel(m) for m in lat.monos]
    witnesses = []
    cases = 0
    for iy in range(lat.size):
        for iz in range(lat.size):
            cases += 1
            y, z = lat.monos[iy], lat.monos[iz]
            ij, im = lat.join[iy][iz], lat.meet[iy][iz]
            j_mono, m_mono = lat.monos[ij], lat.monos[im]

            z_in_j = restrict_mono(ctx, z, j_mono)
            qa = ctx.cokernel(z_in_j)  # YvZ ->> (YvZ)/Z
            w_in_y = restrict_mono(ctx, m_mono, y)
            qb = ctx.cokernel(w_in_y)  # Y ->> Y/(Y^Z)
            f = ctx.compose(qa, restrict_mono(ctx, y, j_mono))
            u = ctx.factor_through_cokernel(qb, f)  # Y/(Y^Z) -> (YvZ)/Z
            iso = ctx.is_iso(u)

            k1 = ctx.kernel(ctx.factor_through_cokernel(q[im], q[iz]))
            k2 = ctx.kernel(ctx.factor_through_cokernel(q[iy], q[ij]))
            p = ctx.factor_through_cokernel(q[im], q[iy])  # X/(Y^Z) ->> X/Y
            v = ctx.factor_through_kernel(ctx.compose(p, k1), k2)
            dual = ctx.is_iso(v)

            if not iso or not dual:
                note = "+".join(
                    tag for tag, bad in (("primal", not iso), ("dual", not dual)) if bad
                )
                witnesses.append(
                    CheckWitness((lat.keys[iy], lat.keys[iz]), (lat.names[iy], lat.names[iz]), note)
                )
    return _report("secondiso", ctx, name, witnesses, cases)


def _antinormal_failures(ctx, lat) -> list[list[str | None]]:
    """Which antinormal composites Y >-> X ->> X/Z through the object of
    ``lat`` are normal maps: entry [y][z] is None when the composite of the
    y-th subobject with the cokernel of the z-th is normal, else the
    reason it is not.

    The cokernels are built once per subobject. An entry with Y <= Z is None
    without a decomposition: Y lies in Z, the kernel of X ->> X/Z, so the
    composite is the zero map, and a zero map is normal in any context (its
    kernel and cokernel are identities and the comparison is 0 -> 0).
    """
    q = [ctx.cokernel(m) for m in lat.monos]
    table = []
    for iy, y in enumerate(lat.monos):
        row = []
        for iz, qz in enumerate(q):
            reason = None
            if not lat.leq[iy][iz]:
                dec = normal_decomposition_in(ctx, ctx.compose(qz, y))
                if not isinstance(dec, NormalDecomposition):
                    reason = dec.reason
            row.append(reason)
        table.append(row)
    return table


def dpn_check(ctx, X, name="object") -> CheckReport:
    """Dinversion preserves normal maps, tested on one object: for each
    ordered pair (Y, Z), the composite Z >-> X ->> X/Y is normal exactly when
    its dinverse Y >-> X ->> X/Z is.

    Both composites are read off one table of antinormal composites
    (``_antinormal_failures``, shared with ``diexact_check``), so each
    ordered pair is decided once; a composite Y >-> X ->> X/Z with Y <= Z
    is the zero map, normal without a decomposition.
    """
    lat = enumerate_nsub(ctx, X)
    table = _antinormal_failures(ctx, lat)
    witnesses = []
    for iy in range(lat.size):
        for iz in range(lat.size):
            na = table[iz][iy] is None
            nb = table[iy][iz] is None
            if na != nb:
                witnesses.append(
                    CheckWitness(
                        (lat.keys[iy], lat.keys[iz]),
                        (lat.names[iy], lat.names[iz]),
                        "map-normal" if na else "dinverse-normal",
                    )
                )
    return _report("dpn", ctx, name, witnesses, lat.size**2)


def diexact_check(ctx, X, name="object") -> CheckReport:
    """Local di-exactness: every antinormal composite Y >-> X ->> X/Z through
    this object is a normal map. The verdicts come from the table that
    ``dpn_check`` reads too (``_antinormal_failures``): a pair with Y <= Z
    holds the zero map, normal without a decomposition, and any other pair's
    witness note is the reason its decomposition failed."""
    lat = enumerate_nsub(ctx, X)
    table = _antinormal_failures(ctx, lat)
    witnesses = [
        CheckWitness((lat.keys[iy], lat.keys[iz]), (lat.names[iy], lat.names[iz]), reason)
        for iy, row in enumerate(table)
        for iz, reason in enumerate(row)
        if reason is not None
    ]
    return _report("diexact", ctx, name, witnesses, lat.size**2)


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
    return _report("stability", ctx, name, witnesses, cases)


def modular_check(ctx, X, name="object") -> CheckReport:
    lat = enumerate_nsub(ctx, X)
    ok, witness = is_modular(lat)
    witnesses = () if ok else (CheckWitness((), witness.names, witness.kind),)
    return _report("modular", ctx, name, witnesses, lat.size**3)


def distributive_check(ctx, X, name="object") -> CheckReport:
    lat = enumerate_nsub(ctx, X)
    ok, witness = is_distributive(lat)
    witnesses = () if ok else (CheckWitness((), witness.names, witness.kind),)
    return _report("distributive", ctx, name, witnesses, lat.size**3)


# ---------------------------------------------------------------------------
# sweeping over iterated short-exact-sequence objects


def objects_at_depth(X, depth: int, name: str) -> list[tuple[Any, Any, str]]:
    """All iterated ses objects over X: at each level, one object per normal
    subobject of each object one level down. Returns (context, object, name)
    triples in deterministic order."""
    layer = [(cmon_context(), X, name)]
    for _ in range(depth):
        up = ses_context(layer[0][0])
        nxt = []
        for c, obj, nm in layer:
            for m in c.normal_subobject_monos(obj):
                S = make_ses(c, obj, m)
                label = c.render_key(obj, c.mono_key(m))
                nxt.append((up, S, f"{nm}|sub={label}"))
        layer = nxt
    return layer


CHECKS = {
    "hsd": third_iso_check,
    "secondiso": second_iso_check,
    "dpn": dpn_check,
    "diexact": diexact_check,
    "modular": modular_check,
    "distributive": distributive_check,
}


def run_check(prop: str, X, depth: int = 0, name: str = "object") -> list[CheckReport]:
    """Run one named property on every ses object over X at the given depth."""
    if prop == "stability":
        if depth != 0:
            raise ValueError("the stability check is defined on the base context only")
        return [pullback_stability_check(cmon_context(), X, name)]
    fn = CHECKS[prop]
    return [fn(c, obj, nm) for c, obj, nm in objects_at_depth(X, depth, name)]
