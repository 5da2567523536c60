"""Per-object verifiers for the homological frameworks.

Each checker sweeps the normal subobjects of one object and returns a
CheckReport with replayable witnesses. Each verdict comes from one
characterization of its property; the equivalent characterizations are
compared against it in the test suite, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .context import (
    antinormal_composite,
    cmon_context,
    is_normal_map_in,
    make_ses,
    normal_decomposition_in,
    restrict_mono,
    ses_context,
)
from .monoid import NormalDecomposition
from .nsub import enumerate_nsub, is_distributive, is_modular, join_via_uniinter


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


def _report(prop, name, depth, witnesses, cases) -> CheckReport:
    return CheckReport(prop, name, depth, not witnesses, tuple(witnesses), cases)


def third_iso_check(ctx, Z, name="object", depth=0) -> CheckReport:
    """Third Isomorphism Property at one object: for X <= Y normal in Z, the
    induced map Y/X -> Z/X must be a normal mono (equivalently, Y/X is a
    kernel of Z/X -> Z/Y). The witness note localizes which normality clause
    broke."""
    lat = enumerate_nsub(ctx, Z)
    witnesses = []
    cases = 0
    for ix in range(lat.size):
        for iy in range(lat.size):
            if not lat.leq[ix][iy]:
                continue
            x, y = lat.monos[ix], lat.monos[iy]
            e = ctx.cokernel(restrict_mono(ctx, x, y))  # Y ->> Y/X
            g = ctx.factor_through_cokernel(e, ctx.compose(ctx.cokernel(x), y))
            cases += 1
            failure = ctx.normal_mono_failure(g)
            if failure is not None:
                witnesses.append(
                    CheckWitness((lat.keys[ix], lat.keys[iy]), (lat.names[ix], lat.names[iy]), failure)
                )
    return _report("hsd", name, depth, witnesses, cases)


def second_iso_check(ctx, X, name="object", depth=0) -> CheckReport:
    """Second Isomorphism Property at one object.

    For each ordered pair (Y, Z) of normal subobjects, the canonical
    comparison Y/(Y^Z) -> (YvZ)/Z must be an isomorphism. The equivalent
    formulations (the composite Y >-> YvZ ->> (YvZ)/Z is a normal map, or
    a normal epi) are not evaluated here. The dual statement (the
    canonical map between the kernels of X/(Y^Z) -> X/Z and of
    X/Y -> X/(YvZ) is an isomorphism) is evaluated in the same sweep; its
    failures mirror the primal ones on swapped pairs.

    The comparisons are the canonical induced maps, never a search for an
    abstract isomorphism: on the hexagon lattice (two 3-chains glued at both
    ends) there is a pair whose two sides are abstractly isomorphic 3-chains
    while the canonical map collapses two classes, and it is the canonical
    map that the exactness of the corresponding grid needs.
    """
    lat = enumerate_nsub(ctx, X)
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

            q_m = ctx.cokernel(m_mono)
            q_z = ctx.cokernel(z)
            q_y = ctx.cokernel(y)
            q_j = ctx.cokernel(j_mono)
            k1 = ctx.kernel(ctx.factor_through_cokernel(q_m, q_z))
            k2 = ctx.kernel(ctx.factor_through_cokernel(q_y, q_j))
            p = ctx.factor_through_cokernel(q_m, q_y)  # X/(Y^Z) ->> X/Y
            v = ctx.factor_through_kernel(ctx.compose(p, k1), k2)
            dual = ctx.is_iso(v)

            if not iso or not dual:
                note = "+".join(
                    tag for tag, bad in (("primal", not iso), ("dual", not dual)) if bad
                )
                witnesses.append(
                    CheckWitness((lat.keys[iy], lat.keys[iz]), (lat.names[iy], lat.names[iz]), note)
                )
    return _report("secondiso", name, depth, witnesses, cases)


def dpn_check(ctx, X, name="object", depth=0) -> CheckReport:
    """Dinversion preserves normal maps, tested on one object: for each
    ordered pair (Y, Z), the composite Z >-> X ->> X/Y is normal exactly when
    its dinverse Y >-> X ->> X/Z is."""
    lat = enumerate_nsub(ctx, X)
    witnesses = []
    cases = 0
    for iy in range(lat.size):
        for iz in range(lat.size):
            cases += 1
            alpha = antinormal_composite(ctx, X, lat.keys[iz], lat.keys[iy])
            beta = antinormal_composite(ctx, X, lat.keys[iy], lat.keys[iz])
            na = is_normal_map_in(ctx, alpha)
            nb = is_normal_map_in(ctx, beta)
            if na != nb:
                witnesses.append(
                    CheckWitness(
                        (lat.keys[iy], lat.keys[iz]),
                        (lat.names[iy], lat.names[iz]),
                        "map-normal" if na else "dinverse-normal",
                    )
                )
    return _report("dpn", name, depth, witnesses, cases)


def diexact_check(ctx, X, name="object", depth=0) -> CheckReport:
    """Local di-exactness: every antinormal composite Y >-> X ->> X/Z through
    this object is a normal map."""
    lat = enumerate_nsub(ctx, X)
    witnesses = []
    cases = 0
    for iy in range(lat.size):
        for iz in range(lat.size):
            cases += 1
            f = antinormal_composite(ctx, X, lat.keys[iy], lat.keys[iz])
            dec = normal_decomposition_in(ctx, f)
            if not isinstance(dec, NormalDecomposition):
                witnesses.append(
                    CheckWitness(
                        (lat.keys[iy], lat.keys[iz]),
                        (lat.names[iy], lat.names[iz]),
                        dec.reason,
                    )
                )
    return _report("diexact", name, depth, witnesses, cases)


@dataclass
class DiExtensionGrid:
    """A 3x3 commutative grid built from two normal subobjects Y, Z of X:

        Y^Z        Y         Y/(Y^Z)
        Z          X         X/Z
        Z/(Y^Z)    X/Y       X/(YvZ)

    with exactness flags per row and column. It is a di-extension exactly
    when all six flags hold; rows/columns 1 and 2 hold by construction.
    """

    objects: tuple
    rows: tuple  # three (mono-like, epi-like) pairs
    cols: tuple
    row_exact: tuple[bool, bool, bool]
    col_exact: tuple[bool, bool, bool]

    @property
    def is_diextension(self) -> bool:
        return all(self.row_exact) and all(self.col_exact)


def _sequence_exact(ctx, k, q) -> bool:
    """Is  dom(k) -> mid -> cod(q)  a short exact sequence?"""
    if not ctx.is_normal_mono(k):
        return False
    if not ctx.is_normal_epi(q):
        return False
    return ctx.mono_key(ctx.kernel(q)) == ctx.mono_key(k)


def build_diextension(ctx, X, y_key, z_key) -> DiExtensionGrid:
    """The candidate di-extension generated by the antinormal pair (Y, Z)."""
    y = ctx.subobject_mono(X, y_key)
    z = ctx.subobject_mono(X, z_key)
    w_span = ctx.pullback_of_monos(y, z)
    w_in_y = w_span.to_first
    w_in_z = w_span.to_second
    q_y = ctx.cokernel(y)
    q_z = ctx.cokernel(z)
    e_y = ctx.cokernel(w_in_y)  # Y ->> Y/W
    e_z = ctx.cokernel(w_in_z)  # Z ->> Z/W
    j = join_via_uniinter(ctx, X, y, z)
    q_j = ctx.cokernel(j)

    g1 = ctx.factor_through_cokernel(e_z, ctx.compose(q_y, z))  # Z/W -> X/Y
    g2 = ctx.factor_through_cokernel(q_y, q_j)  # X/Y ->> X/(YvZ)
    h1 = ctx.factor_through_cokernel(e_y, ctx.compose(q_z, y))  # Y/W -> X/Z
    h2 = ctx.factor_through_cokernel(q_z, q_j)  # X/Z ->> X/(YvZ)

    # the four corner squares must commute
    assert ctx.hom_equal(ctx.compose(y, w_in_y), ctx.compose(z, w_in_z))
    assert ctx.hom_equal(ctx.compose(h1, e_y), ctx.compose(q_z, y))
    assert ctx.hom_equal(ctx.compose(g1, e_z), ctx.compose(q_y, z))
    assert ctx.hom_equal(ctx.compose(g2, q_y), ctx.compose(h2, q_z))

    objects = (
        (ctx.dom(w_in_y), ctx.dom(y), ctx.cod(e_y)),
        (ctx.dom(z), X, ctx.cod(q_z)),
        (ctx.cod(e_z), ctx.cod(q_y), ctx.cod(q_j)),
    )
    rows = ((w_in_y, e_y), (z, q_z), (g1, g2))
    cols = ((w_in_z, e_z), (y, q_y), (h1, h2))
    row_exact = tuple(_sequence_exact(ctx, k, q) for k, q in rows)
    col_exact = tuple(_sequence_exact(ctx, k, q) for k, q in cols)
    return DiExtensionGrid(objects, rows, cols, row_exact, col_exact)


def pullback_stability_check(ctx, X, name="object", depth=0) -> CheckReport:
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
    return _report("stability", name, depth, witnesses, cases)


def subquotient_closure(ctx, X) -> list:
    """Closure of {X} under normal subobjects and quotients by normal
    subobjects, deduplicated up to isomorphism, in breadth-first order."""
    found = [X]
    queue = [X]
    while queue:
        current = queue.pop(0)
        children = []
        for m in ctx.normal_subobject_monos(current):
            children.append(ctx.dom(m))
        for m in ctx.normal_subobject_monos(current):
            children.append(ctx.cod(ctx.cokernel(m)))
        for child in children:
            if not any(ctx.are_isomorphic(child, seen) for seen in found):
                found.append(child)
                queue.append(child)
    return found


def modular_check(ctx, X, name="object", depth=0) -> CheckReport:
    lat = enumerate_nsub(ctx, X)
    ok, witness = is_modular(lat)
    witnesses = () if ok else (CheckWitness((), witness.names, witness.kind),)
    return CheckReport("modular", name, depth, ok, witnesses, lat.size**3)


def distributive_check(ctx, X, name="object", depth=0) -> CheckReport:
    lat = enumerate_nsub(ctx, X)
    ok, witness = is_distributive(lat)
    witnesses = () if ok else (CheckWitness((), witness.names, witness.kind),)
    return CheckReport("distributive", name, depth, ok, witnesses, lat.size**3)


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
        return [pullback_stability_check(cmon_context(), X, name, 0)]
    fn = CHECKS[prop]
    return [fn(c, obj, nm, depth) for c, obj, nm in objects_at_depth(X, depth, name)]
