"""Kernel/cokernel contexts, the reference the test oracles build maps with.

The objects are those of ``nsub``: a commutative monoid, or a ``SesObject``
stored flat as its innermost monoid and one normal member set per level.
The checkers, the lattice, ``make_ses`` and the scenarios take an object
alone, so no module the CLI runs imports this one; the tests and the
benchmark's tracer do. A context bundles composition, kernels, cokernels,
the two factorization maps, normality tests, and enumeration of normal
subobjects. ``cmon_context()`` is the context of finite commutative
monoids; ``ses_context(ctx)`` the context of short exact sequences one
level above ctx, of the same shape, so it can be iterated.

Contexts are immutable bundles of pure functions over immutable values and
keep no caches; results are memoized by the cached functions of ``monoid``.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from . import monoid as mn
from .monoid import (
    TRIVIAL,
    FinMonoid,
    MonoidError,
    MonoidHom,
    _hom_unchecked,
    _Record,
)
from .nsub import SesObject, enumerate_nsub


class Span(NamedTuple):
    apex: Any
    to_first: Any   # hom apex -> dom(m1)
    to_second: Any  # hom apex -> dom(m2)


class CmonContext:
    """The z-exact context of finite commutative monoids. It holds no
    state: the ``monoid`` functions it calls cache per monoid."""

    depth = 0

    def __repr__(self):
        return "CmonContext()"

    # -- plumbing

    def dom(self, f: MonoidHom) -> FinMonoid:
        return f.dom

    def cod(self, f: MonoidHom) -> FinMonoid:
        return f.cod

    def identity(self, X: FinMonoid) -> MonoidHom:
        return mn.identity_hom(X)

    def compose(self, g: MonoidHom, f: MonoidHom) -> MonoidHom:
        return mn.compose(g, f)

    def hom_equal(self, f: MonoidHom, g: MonoidHom) -> bool:
        return f == g

    def zero_object(self) -> FinMonoid:
        return TRIVIAL

    def is_zero_object(self, X: FinMonoid) -> bool:
        return X.size == 1

    def zero_hom(self, X: FinMonoid, Y: FinMonoid) -> MonoidHom:
        return mn.zero_hom(X, Y)

    def is_zero_hom(self, f: MonoidHom) -> bool:
        return all(v == 0 for v in f.mapping)

    # -- kernels, cokernels, factorizations

    def kernel(self, f: MonoidHom) -> MonoidHom:
        return mn.kernel_hom(f)

    def cokernel(self, f: MonoidHom) -> MonoidHom:
        return mn.cokernel_of_hom(f)

    def factor_through_kernel(self, f: MonoidHom, m: MonoidHom) -> MonoidHom:
        """The unique u with m . u = f, for a mono m whose image contains im f."""
        inverse = {v: i for i, v in enumerate(m.mapping)}
        try:
            mapping = tuple(inverse[v] for v in f.mapping)
        except KeyError:
            raise MonoidError("map does not factor through the kernel") from None
        return _hom_unchecked(f.dom, m.dom, mapping)

    def factor_through_cokernel(self, e: MonoidHom, f: MonoidHom) -> MonoidHom:
        """The unique u with u . e = f, for an epi e identifying at least as much as f."""
        mapping: list[int | None] = [None] * e.cod.size
        for x in range(e.dom.size):
            cls, v = e(x), f(x)
            if mapping[cls] is None:
                mapping[cls] = v
            elif mapping[cls] != v:
                raise MonoidError("map does not factor through the cokernel")
        if any(v is None for v in mapping):
            raise MonoidError("projection is not surjective")
        return _hom_unchecked(e.cod, f.cod, tuple(mapping))  # type: ignore[arg-type]

    # -- mono/epi/iso and normality

    def is_mono(self, f: MonoidHom) -> bool:
        return f.is_injective()

    def is_epi(self, f: MonoidHom) -> bool:
        return f.is_surjective()

    def is_iso(self, f: MonoidHom) -> bool:
        return f.is_bijective()

    def normal_mono_failure(self, f: MonoidHom) -> str | None:
        if not f.is_injective():
            return "not-injective"
        if not mn.is_normal_submonoid(f.cod, f.image)[0]:
            return "image-not-normal"
        return None

    def is_normal_mono(self, f: MonoidHom) -> bool:
        return self.normal_mono_failure(f) is None

    def is_normal_epi(self, f: MonoidHom) -> bool:
        return mn.is_normal_epi(f)

    # -- subobjects

    def mono_key(self, m: MonoidHom):
        """Canonical data of a subobject: its member set."""
        return m.image

    def subobject_mono(self, X: FinMonoid, key) -> MonoidHom:
        return mn.inclusion_hom(X, key)

    def render_key(self, X: FinMonoid, key) -> str:
        return X.render_subset(key)

    def innermost_object(self, X: FinMonoid) -> FinMonoid:
        return X

    def normal_subobject_monos(self, X: FinMonoid) -> tuple[MonoidHom, ...]:
        """All normal subobjects, as the inclusions of the normal submonoids
        in the order of X's lattice."""
        return tuple(mn.inclusion_hom(X, k) for k in enumerate_nsub(X).keys)

    # -- pullbacks

    def pullback_of_monos(self, m1: MonoidHom, m2: MonoidHom) -> Span:
        """Intersection of the two image subsets, with its maps into both domains."""
        if m1.cod != m2.cod:
            raise MonoidError("monos do not share a codomain")
        inter = m1.image & m2.image
        apex = mn.submonoid(m1.cod, inter)
        members = sorted(inter)
        inv1 = {v: i for i, v in enumerate(m1.mapping)}
        inv2 = {v: i for i, v in enumerate(m2.mapping)}
        to_first = _hom_unchecked(apex, m1.dom, tuple(inv1[x] for x in members))
        to_second = _hom_unchecked(apex, m2.dom, tuple(inv2[x] for x in members))
        return Span(apex, to_first, to_second)


_CMON = CmonContext()


def cmon_context() -> CmonContext:
    return _CMON


# ---------------------------------------------------------------------------
# short exact sequences


class SesHom(_Record):
    """A morphism of short exact sequences, at any depth of the tower.

    It is stored as its innermost monoid map ``base``, src.monoid ->
    dst.monoid, which must carry every mark of src into the mark of dst at
    the same level; that one map forces the map on every leg. The
    constructor checks this; the context's operations build valid maps
    directly.
    """

    _fields = ("src", "dst", "base")

    def __init__(self, src: SesObject, dst: SesObject, base: MonoidHom):
        if base.dom != src.monoid or base.cod != dst.monoid:
            raise MonoidError("map endpoints do not match")
        if len(src.marks) != len(dst.marks):
            raise MonoidError("sequences of different depths")
        if not _carries(base, src.marks, dst.marks):
            raise MonoidError("map does not carry the subobjects into the target's")
        self.__dict__.update(src=src, dst=dst, base=base)


def _hom(src: SesObject, dst: SesObject, base: MonoidHom) -> SesHom:
    """The morphism src -> dst with innermost map ``base``, unchecked:
    callers guarantee that base carries every mark into the target's."""
    h = object.__new__(SesHom)
    h.__dict__.update(src=src, dst=dst, base=base)
    return h


def _image(f: MonoidHom, members) -> frozenset[int]:
    return frozenset(map(f.mapping.__getitem__, members))


def _carries(f: MonoidHom, marks, target_marks) -> bool:
    mapping = f.mapping
    return all(mapping[x] in L for K, L in zip(marks, target_marks) for x in K)


class SesContext:
    """The context of short exact sequences at one depth d >= 1.

    Objects are SesObjects (M, (K1, ..., Kd)) and morphisms SesHoms, and
    every operation works on the innermost map F and member sets:

    - the kernel of f is the subobject of its source on ker F, and the
      subobject on a normal submonoid N has the marks N & Ki, renumbered
      into the submonoid;
    - the cokernel of f is the quotient q of the target's monoid by the
      image of F, with the marks normal_closure(q(Li));
    - f is a normal mono when F is one and F(Ki) = F(M_S) & Li at every
      level (the left square is a pullback), and a normal epi when F is one
      and normal_closure(F(Ki)) = Li at every level (the right square is a
      pushout). A failing level below the top makes the base map fail
      (``beta-not-normal-...``); the top level is the square's own reason.

    These agree with the componentwise kernels, cokernels and leg-by-leg
    recognizers of the nested construction, which the test suite keeps as
    the reference.
    """

    def __init__(self, inner):
        self.inner = inner
        self.depth = inner.depth + 1

    def __repr__(self):
        return f"SesContext(depth={self.depth})"

    # -- plumbing

    def dom(self, f: SesHom) -> SesObject:
        return f.src

    def cod(self, f: SesHom) -> SesObject:
        return f.dst

    def identity(self, X: SesObject) -> SesHom:
        return _hom(X, X, mn.identity_hom(X.monoid))

    def compose(self, g: SesHom, f: SesHom) -> SesHom:
        if f.dst != g.src:
            raise MonoidError("ses homs are not composable")
        return _hom(f.src, g.dst, mn.compose(g.base, f.base))

    def hom_equal(self, f: SesHom, g: SesHom) -> bool:
        return f == g

    def zero_object(self) -> SesObject:
        return SesObject(TRIVIAL, (frozenset({0}),) * self.depth)

    def is_zero_object(self, X: SesObject) -> bool:
        return X.monoid.size == 1

    def zero_hom(self, X: SesObject, Y: SesObject) -> SesHom:
        return _hom(X, Y, mn.zero_hom(X.monoid, Y.monoid))

    def is_zero_hom(self, f: SesHom) -> bool:
        return not any(f.base.mapping)

    # -- kernels, cokernels, factorizations

    def kernel(self, f: SesHom) -> SesHom:
        return self.subobject_mono(f.src, mn.kernel_subset(f.base))

    def cokernel(self, f: SesHom) -> SesHom:
        Q, q = mn.cokernel_by_submonoid(f.dst.monoid, f.base.image)
        marks = tuple(mn.normal_closure(Q, _image(q, L)) for L in f.dst.marks)
        return _hom(f.dst, SesObject(Q, marks), q)

    def factor_through_kernel(self, f: SesHom, m: SesHom) -> SesHom:
        """The unique u with m . u = f: factored on the innermost maps, then
        checked to carry the marks."""
        if f.dst != m.dst:
            raise MonoidError("ses map and mono do not share a codomain")
        base = _CMON.factor_through_kernel(f.base, m.base)
        if not _carries(base, f.src.marks, m.src.marks):
            raise MonoidError("ses map does not factor through the kernel")
        return _hom(f.src, m.src, base)

    def factor_through_cokernel(self, e: SesHom, f: SesHom) -> SesHom:
        """The unique u with u . e = f: factored on the innermost maps, then
        checked to carry the marks."""
        if e.src != f.src:
            raise MonoidError("epi and ses map do not share a domain")
        base = _CMON.factor_through_cokernel(e.base, f.base)
        if not _carries(base, e.dst.marks, f.dst.marks):
            raise MonoidError("ses map does not factor through the cokernel")
        return _hom(e.dst, f.dst, base)

    # -- mono/epi/iso and normality

    def is_mono(self, f: SesHom) -> bool:
        return f.base.is_injective()

    def is_epi(self, f: SesHom) -> bool:
        return f.base.is_surjective()

    def is_iso(self, f: SesHom) -> bool:
        """The innermost map is bijective and carries every mark onto the
        target's; it carries each into it, so equal sizes decide."""
        return f.base.is_bijective() and all(
            len(K) == len(L) for K, L in zip(f.src.marks, f.dst.marks)
        )

    def normal_mono_failure(self, f: SesHom) -> str | None:
        F = f.base
        if _CMON.normal_mono_failure(F) is not None:
            return "beta-not-normal-mono"
        image = F.image
        for level, (K, L) in enumerate(zip(f.src.marks, f.dst.marks), 1):
            if _image(F, K) != image & L:
                return "left-square-not-pullback" if level == self.depth else "beta-not-normal-mono"
        return None

    def is_normal_mono(self, f: SesHom) -> bool:
        return self.normal_mono_failure(f) is None

    def normal_epi_failure(self, f: SesHom) -> str | None:
        F = f.base
        if not mn.is_normal_epi(F):
            return "beta-not-normal-epi"
        for level, (K, L) in enumerate(zip(f.src.marks, f.dst.marks), 1):
            if mn.normal_closure(f.dst.monoid, _image(F, K)) != L:
                return "right-square-not-pushout" if level == self.depth else "beta-not-normal-epi"
        return None

    def is_normal_epi(self, f: SesHom) -> bool:
        return self.normal_epi_failure(f) is None

    # -- subobjects

    def mono_key(self, m: SesHom):
        """Subobjects at every level are determined by the innermost mono,
        so keys are member sets of the innermost monoid."""
        return m.base.image

    def subobject_mono(self, X: SesObject, key) -> SesHom:
        inclusion = mn.inclusion_hom(X.monoid, key)
        position = {x: i for i, x in enumerate(inclusion.mapping)}
        marks = tuple(frozenset(position[x] for x in K & key) for K in X.marks)
        return _hom(SesObject(inclusion.dom, marks), X, inclusion)

    def render_key(self, X: SesObject, key) -> str:
        return X.monoid.render_subset(key)

    def innermost_object(self, X: SesObject) -> FinMonoid:
        return X.monoid

    def normal_subobject_monos(self, X: SesObject) -> tuple[SesHom, ...]:
        """One normal subobject per normal submonoid of the innermost
        monoid, in its order."""
        return tuple(
            self.subobject_mono(X, m.image) for m in _CMON.normal_subobject_monos(X.monoid)
        )

    # -- pullbacks

    def pullback_of_monos(self, m1: SesHom, m2: SesHom) -> Span:
        return generic_pullback_of_monos(self, m1, m2)


_SES_CONTEXTS: list[SesContext] = []


def ses_context(ctx) -> SesContext:
    """The context of short exact sequences one level above ctx. There is
    one per depth, over the shared monoid context: a sequence is its
    innermost monoid and marks, whichever context built it."""
    while len(_SES_CONTEXTS) <= ctx.depth:
        _SES_CONTEXTS.append(SesContext(_SES_CONTEXTS[-1] if _SES_CONTEXTS else _CMON))
    return _SES_CONTEXTS[ctx.depth]


# ---------------------------------------------------------------------------
# generic constructions available in any context


def generic_pullback_of_monos(ctx, m1, m2) -> Span:
    """Pullback of two normal monos as the kernel of dom(m1) -> X/Z."""
    q = ctx.cokernel(m2)
    k = ctx.kernel(ctx.compose(q, m1))
    to_second = ctx.factor_through_kernel(ctx.compose(m1, k), m2)
    return Span(ctx.dom(k), k, to_second)


def antinormal_composite(ctx, X, y_key, z_key):
    """The map  Y >-> X ->> X/Z  built from two normal subobjects of X."""
    y = ctx.subobject_mono(X, y_key)
    qz = ctx.cokernel(ctx.subobject_mono(X, z_key))
    return ctx.compose(qz, y)
