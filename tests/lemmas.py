"""Lemma verifiers that only the test suite calls.

They build the paper's auxiliary constructions (the 3x3 grid of an
antinormal pair, the closure of an object under subobjects and quotients)
so that tests can check lemmas about them; no check, CLI command or
scenario reaches them.
"""

from dataclasses import dataclass

from monlat.nsub import join_via_uniinter


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
            if not any(ctx.are_isomorphic(child, seen) for seen in found):
                found.append(child)
                queue.append(child)
    return found
