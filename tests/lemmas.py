"""Lemma verifiers that only the test suite calls.

They build the paper's auxiliary constructions so that tests can check
lemmas about them: joins of normal subobjects through the uni-intersection
recipe and their agreement inside a subobject, the cokernel square of
W <= X, Y, the quotient-lattice correspondence along Y ->> Y/X, the 3x3
grid of an antinormal pair, the pullback of a normal epi along a normal
mono (in the monoid context and in any context), isomorphisms of objects at any depth, and the closure
of an object under subobjects and quotients. No check, CLI command or
scenario reaches them.
"""

from dataclasses import dataclass
from typing import Any, NamedTuple

from monlat import monoid as mn
from monlat.context import SesHom
from monlat.nsub import enumerate_nsub


def join_via_uniinter(ctx, X, y_mono, z_mono):
    """Join of two normal subobjects: the kernel of the cokernel of Y -> X/Z,
    taken inside X. At the commutative-monoid level this must equal the
    normal closure of the union of the two member sets."""
    qz = ctx.cokernel(z_mono)
    f = ctx.compose(qz, y_mono)
    q2 = ctx.cokernel(f)
    return ctx.kernel(ctx.compose(q2, qz))


def join_agreement_check(ctx, X, x_mono, y_mono, z_mono) -> bool:
    """Joins computed inside a normal subobject X' agree (same underlying
    object of X) with joins of the composites computed in X."""
    for m in (ctx.compose(x_mono, y_mono), ctx.compose(x_mono, z_mono)):
        if not ctx.is_normal_mono(m):
            raise mn.MonoidError("composite subobject is not normal in the ambient object")
    inner_join = join_via_uniinter(ctx, ctx.dom(x_mono), y_mono, z_mono)
    outer_join = join_via_uniinter(
        ctx, X, ctx.compose(x_mono, y_mono), ctx.compose(x_mono, z_mono)
    )
    return ctx.mono_key(ctx.compose(x_mono, inner_join)) == ctx.mono_key(outer_join)


def cokersquare_check(ctx, Z, w_key, x_key, y_key) -> bool:
    """For a square of normal subobjects W <= X, W <= Y inside Z:

    the cokernel of the induced map Y/W -> Z/X is Z/(X v Y), and its kernel
    is (X/W) ^ (Y/W) inside the lattice over Z/W.
    """
    w = ctx.subobject_mono(Z, w_key)
    x = ctx.subobject_mono(Z, x_key)
    y = ctx.subobject_mono(Z, y_key)
    w_in_y = ctx.factor_through_kernel(w, y)  # W >-> Y
    e_w = ctx.cokernel(w_in_y)  # Y ->> Y/W
    q_x = ctx.cokernel(x)
    u = ctx.factor_through_cokernel(e_w, ctx.compose(q_x, y))  # Y/W -> Z/X

    j = join_via_uniinter(ctx, Z, x, y)
    q_j = ctx.cokernel(j)
    canonical = ctx.factor_through_cokernel(q_x, q_j)  # Z/X ->> Z/(XvY)
    coker_u = ctx.cokernel(u)
    cokernels_match = ctx.mono_key(ctx.kernel(coker_u)) == ctx.mono_key(
        ctx.kernel(canonical)
    )

    q_w = ctx.cokernel(w)
    emb = ctx.factor_through_cokernel(e_w, ctx.compose(q_w, y))  # Y/W -> Z/W
    lifted_kernel = ctx.mono_key(ctx.compose(emb, ctx.kernel(u)))
    x_over_w = ctx.kernel(ctx.factor_through_cokernel(q_w, q_x))
    y_over_w = ctx.kernel(ctx.factor_through_cokernel(q_w, ctx.cokernel(y)))
    span = ctx.pullback_of_monos(x_over_w, y_over_w)
    meet_key = ctx.mono_key(ctx.compose(x_over_w, span.to_first))
    kernels_match = lifted_kernel == meet_key

    return cokernels_match and kernels_match


@dataclass
class GaloisReport:
    """Outcome of the correspondence between subobjects of a quotient Y/X and
    subobjects of Y containing X."""

    phi_after_psi_identity: bool
    galois_connection: bool
    phi_preserves_meet: bool
    psi_preserves_join: bool
    mutually_inverse: bool
    quotient_meet_formula: bool
    quotient_join_formula: bool
    cases: int

    @property
    def ok(self) -> bool:
        return all(
            (
                self.phi_after_psi_identity,
                self.galois_connection,
                self.phi_preserves_meet,
                self.psi_preserves_join,
                self.mutually_inverse,
                self.quotient_meet_formula,
                self.quotient_join_formula,
            )
        )


def phi_psi(ctx, x_mono) -> GaloisReport:
    """The two transfers along Y ->> Y/X: pull a subobject of the quotient
    back, or push a subobject above X down by taking the kernel of the
    induced quotient comparison. Checks the adjunction and, since these
    contexts are regular with the third isomorphism property available, the
    mutual-inverse lattice isomorphism with its meet/join formulas."""
    Y = ctx.cod(x_mono)
    x_key = ctx.mono_key(x_mono)
    q = ctx.cokernel(x_mono)
    Q = ctx.cod(q)
    lat_y = enumerate_nsub(Y)
    lat_q = enumerate_nsub(Q)
    monos_y, monos_q = ctx.normal_subobject_monos(Y), ctx.normal_subobject_monos(Q)
    x_idx = lat_y.index_of_key(x_key)
    upper = [i for i in range(lat_y.size) if lat_y.join[x_idx][i] == i]

    def phi(t_idx: int) -> int:
        t = monos_q[t_idx]
        pulled = ctx.kernel(ctx.compose(ctx.cokernel(t), q))
        return lat_y.index_of_key(ctx.mono_key(pulled))

    def psi(u_idx: int) -> int:
        u = monos_y[u_idx]
        induced = ctx.factor_through_cokernel(q, ctx.cokernel(u))  # Y/X -> Y/U
        return lat_q.index_of_key(ctx.mono_key(ctx.kernel(induced)))

    phi_of = {t: phi(t) for t in range(lat_q.size)}
    psi_of = {u: psi(u) for u in upper}

    cases = 0
    phi_after_psi = all(phi_of[psi_of[u]] == u for u in upper)
    galois = True
    for u in upper:
        for t in range(lat_q.size):
            cases += 1
            if (lat_q.join[psi_of[u]][t] == t) != (lat_y.join[u][phi_of[t]] == phi_of[t]):
                galois = False
    phi_meet = all(
        phi_of[lat_q.meet[t1][t2]] == lat_y.meet[phi_of[t1]][phi_of[t2]]
        for t1 in range(lat_q.size)
        for t2 in range(lat_q.size)
    )
    psi_join = all(
        psi_of[lat_y.join[u1][u2]] == lat_q.join[psi_of[u1]][psi_of[u2]]
        for u1 in upper
        for u2 in upper
    )
    mutually_inverse = phi_after_psi and all(
        psi_of.get(phi_of[t]) == t for t in range(lat_q.size)
    ) and sorted(phi_of[t] for t in range(lat_q.size)) == sorted(upper)
    meet_formula = all(
        psi_of[lat_y.meet[u1][u2]] == lat_q.meet[psi_of[u1]][psi_of[u2]]
        for u1 in upper
        for u2 in upper
    )
    return GaloisReport(
        phi_after_psi_identity=phi_after_psi,
        galois_connection=galois,
        phi_preserves_meet=phi_meet,
        psi_preserves_join=psi_join,
        mutually_inverse=mutually_inverse,
        quotient_meet_formula=meet_formula,
        quotient_join_formula=psi_join,
        cases=cases,
    )


class EpiPullback(NamedTuple):
    apex: Any
    onto_sub: Any   # hom apex -> dom(m), restriction of the epi
    into_total: Any  # normal mono apex -> dom(e)


def pullback_epi_along_mono(ctx, e, m) -> EpiPullback:
    """Pullback of a normal epi along a normal mono in the monoid context:
    the preimage of the mono's image under the epi, with both projections."""
    if ctx.cod(e) != ctx.cod(m):
        raise mn.MonoidError("epi and mono do not share a codomain")
    members = frozenset(y for y in range(e.dom.size) if e(y) in m.image)
    apex = mn.submonoid(e.dom, members)
    order = sorted(members)
    inv = {v: i for i, v in enumerate(m.mapping)}
    onto_sub = mn._hom_unchecked(apex, m.dom, tuple(inv[e(y)] for y in order))
    into_total = mn._hom_unchecked(apex, e.dom, tuple(order))
    return EpiPullback(apex, onto_sub, into_total)


def generic_pullback_epi_along_mono(ctx, e, m) -> EpiPullback:
    """Pullback of a normal epi along a normal mono in any context, via the
    kernel of the composite with the mono's cokernel."""
    k = ctx.kernel(ctx.compose(ctx.cokernel(m), e))
    onto_sub = ctx.factor_through_kernel(ctx.compose(e, k), m)
    return EpiPullback(ctx.dom(k), onto_sub, k)


def isomorphisms(ctx, X, Y):
    """The isomorphisms X -> Y in ctx: those of the monoids at depth 0, and
    above it the isomorphisms of the innermost monoids that carry every mark
    onto the target's."""
    if ctx.depth == 0:
        return mn.isomorphisms(X, Y)
    return (
        SesHom(X, Y, phi)
        for phi in mn.isomorphisms(X.monoid, Y.monoid)
        if all(frozenset(map(phi, K)) == L for K, L in zip(X.marks, Y.marks))
    )


def are_isomorphic(ctx, X, Y) -> bool:
    return next(isomorphisms(ctx, X, Y), None) is not None


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
            if not any(are_isomorphic(ctx, child, seen) for seen in found):
                found.append(child)
                queue.append(child)
    return found
