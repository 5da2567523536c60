"""Kernel/cokernel contexts.

A context bundles the operations every checker needs: composition, kernels,
cokernels, the two factorization maps, normality tests, and enumeration of
normal subobjects. ``cmon_context()`` is the concrete context of finite
commutative monoids; ``ses_context(ctx)`` builds the context of short exact
sequences over any context of the same shape, so it can be iterated.

Contexts are immutable bundles of pure functions over immutable values; the
per-context dictionaries only memoize results of pure calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, NamedTuple

from . import monoid as mn
from .monoid import (
    TRIVIAL,
    FinMonoid,
    MonoidError,
    MonoidHom,
    NormalDecomposition,
    NotNormal,
    _hom_unchecked,
)


class SesInvariantError(RuntimeError):
    """A constructed short exact sequence violated its defining invariant.

    This never fires on correct inputs; it exists so a misreading of the
    kernel/cokernel recipes would be reported loudly instead of silently
    producing a malformed object.
    """


class Span(NamedTuple):
    apex: Any
    to_first: Any   # hom apex -> dom(m1)
    to_second: Any  # hom apex -> dom(m2)


class EpiPullback(NamedTuple):
    apex: Any
    onto_sub: Any   # hom apex -> dom(m), restriction of the epi
    into_total: Any  # normal mono apex -> dom(e)


class CmonContext:
    """The z-exact context of finite commutative monoids."""

    depth = 0

    def __init__(self):
        self._nsub_cache: dict[FinMonoid, tuple[MonoidHom, ...]] = {}
        self._ses_obj_cache: dict = {}

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

    def size(self, X: FinMonoid) -> int:
        return X.size

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
        if mn.kernel_subset(self.cokernel(f)) != f.image:
            return "not-kernel-of-cokernel"
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
        """All normal subobjects, as canonical inclusion monos.

        Generated as joins (normal closures of unions) of the normal closures
        of singletons: every normal submonoid is the join of the closures of
        its members, so the generation is complete.
        """
        cached = self._nsub_cache.get(X)
        if cached is not None:
            return cached
        if not X.commutative:
            raise mn.NotCommutative("normal subobject enumeration needs a commutative monoid")
        keys = {frozenset({0})}
        for x in range(X.size):
            keys.add(mn.normal_closure(X, frozenset({x})))
        while True:
            new = {
                mn.normal_closure(X, a | b) for a in keys for b in keys
            } - keys
            if not new:
                break
            keys |= new
        ordered = sorted(keys, key=lambda k: (len(k), sorted(k)))
        monos = tuple(mn.inclusion_hom(X, k) for k in ordered)
        self._nsub_cache[X] = monos
        return monos

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

    def pullback_epi_along_mono(self, e: MonoidHom, m: MonoidHom) -> EpiPullback:
        """Preimage of the mono's image under the epi, with both projections."""
        if e.cod != m.cod:
            raise MonoidError("epi and mono do not share a codomain")
        members = frozenset(y for y in range(e.dom.size) if e(y) in m.image)
        apex = mn.submonoid(e.dom, members)
        order = sorted(members)
        inv = {v: i for i, v in enumerate(m.mapping)}
        onto_sub = _hom_unchecked(apex, m.dom, tuple(inv[e(y)] for y in order))
        into_total = _hom_unchecked(apex, e.dom, tuple(order))
        return EpiPullback(apex, onto_sub, into_total)

    # -- isomorphisms

    def isomorphisms(self, X: FinMonoid, Y: FinMonoid) -> Iterator[MonoidHom]:
        return mn.isomorphisms(X, Y)

    def are_isomorphic(self, X: FinMonoid, Y: FinMonoid) -> bool:
        return mn.are_isomorphic(X, Y)


_CMON = CmonContext()


def cmon_context() -> CmonContext:
    return _CMON


# ---------------------------------------------------------------------------
# short exact sequences


@dataclass(frozen=True)
class SesObject:
    """A short exact sequence, stored as (base, sub, quo).

    ``sub`` is a canonical normal mono into ``base`` and ``quo`` is its
    cokernel; the pair (base, sub) determines the object and is what equality
    and hashing use. ``ctx`` is the context the three legs live in.
    """

    ctx: Any = field(compare=False, repr=False)
    base: Any = None
    sub: Any = None
    quo: Any = field(default=None, compare=False, repr=False)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.base, self.sub))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def sub_object(self):
        return self.ctx.dom(self.sub)

    @property
    def quo_object(self):
        return self.ctx.cod(self.quo)


def make_ses(inner, base, sub_mono) -> SesObject:
    """Build a short exact sequence over a base object and a normal mono.

    The mono is replaced by its canonical representative, the quotient leg is
    the cokernel, and the defining invariant (sub is the kernel of quo) is
    re-checked; a violation raises SesInvariantError. Results are memoized
    per (base, subobject) on the inner context.
    """
    key = inner.mono_key(sub_mono)
    cached = inner._ses_obj_cache.get((base, key))
    if cached is not None:
        return cached
    sub = inner.subobject_mono(base, key)
    failure = inner.normal_mono_failure(sub)
    if failure is not None:
        raise SesInvariantError(f"sub leg is not a normal mono: {failure}")
    quo = inner.cokernel(sub)
    if inner.mono_key(inner.kernel(quo)) != key:
        raise SesInvariantError("sub leg is not the kernel of the quotient leg")
    obj = SesObject(ctx=inner, base=base, sub=sub, quo=quo)
    inner._ses_obj_cache[(base, key)] = obj
    return obj


class SesHom:
    """A morphism of short exact sequences, at any depth of the tower.

    It is stored as its innermost monoid map ``base``, because that one map
    forces every leg: ``beta`` (on the bases) is the same map one level
    down, ``alpha`` (on the subobjects) is forced because ``dst.sub`` is
    mono, and ``gamma`` (on the quotients) because ``src.quo`` is epi. The
    legs are derived on first use and cached on the instance; at depth 1
    they are plain MonoidHoms. Equality and hashing use (src, dst, base
    mapping).

    ``SesHom(src, dst, alpha, beta, gamma)`` takes an explicit triple and
    checks that both squares commute. Inside the package morphisms are
    built from their base map: ``ses_hom_from_beta`` checks it against the
    subobjects, and the context's operations produce valid maps by
    construction or check them level by level.
    """

    def __init__(self, src: SesObject, dst: SesObject, alpha, beta, gamma):
        inner = src.ctx
        if inner.dom(beta) != src.base or inner.cod(beta) != dst.base:
            raise MonoidError("beta endpoints do not match")
        if inner.dom(alpha) != src.sub_object or inner.cod(alpha) != dst.sub_object:
            raise MonoidError("alpha endpoints do not match")
        if inner.dom(gamma) != src.quo_object or inner.cod(gamma) != dst.quo_object:
            raise MonoidError("gamma endpoints do not match")
        if not inner.hom_equal(inner.compose(dst.sub, alpha), inner.compose(beta, src.sub)):
            raise MonoidError("left square does not commute")
        if not inner.hom_equal(inner.compose(gamma, src.quo), inner.compose(dst.quo, beta)):
            raise MonoidError("right square does not commute")
        self.__dict__.update(src=src, dst=dst, base=_base_map(beta))

    def __setattr__(self, name, value):
        raise AttributeError("SesHom is immutable")

    def __delattr__(self, name):
        raise AttributeError("SesHom is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SesHom):
            return NotImplemented
        return (
            self.base.mapping == other.base.mapping
            and self.src == other.src
            and self.dst == other.dst
        )

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.src, self.dst, self.base.mapping))
        return h

    def __repr__(self):
        return f"SesHom(depth={self.src.ctx.depth + 1}, {self.base.mapping})"

    @cached_property
    def beta(self):
        return _at_level(self.src.base, self.dst.base, self.base)

    @cached_property
    def alpha(self):
        src, dst = self.src, self.dst
        a = _CMON.factor_through_kernel(mn.compose(self.base, _base_map(src.sub)), _base_map(dst.sub))
        return _at_level(src.sub_object, dst.sub_object, a)

    @cached_property
    def gamma(self):
        src, dst = self.src, self.dst
        g = _CMON.factor_through_cokernel(_base_map(src.quo), mn.compose(_base_map(dst.quo), self.base))
        return _at_level(src.quo_object, dst.quo_object, g)


def _thin_hom(src: SesObject, dst: SesObject, base: MonoidHom) -> SesHom:
    """The morphism src -> dst with innermost map ``base``. Callers guarantee
    that base carries the subobject into the target's at every level."""
    h = object.__new__(SesHom)
    h.__dict__.update(src=src, dst=dst, base=base)
    return h


def _base_map(f) -> MonoidHom:
    """The innermost monoid map of a morphism at any depth."""
    return f if isinstance(f, MonoidHom) else f.base


def _at_level(src, dst, base: MonoidHom):
    """The morphism src -> dst with innermost map ``base``, at the depth of
    its endpoints: the map itself between monoids, a SesHom otherwise."""
    return _thin_hom(src, dst, base) if isinstance(src, SesObject) else base


def _carries_sub(src: SesObject, dst: SesObject, base: MonoidHom) -> bool:
    """Does the innermost map send src's subobject into dst's subobject?"""
    target = _base_map(dst.sub).image
    mapping = base.mapping
    return all(mapping[x] in target for x in _base_map(src.sub).mapping)


def _require_subs_carried(src, dst, base: MonoidHom, message: str) -> None:
    """Check at every level of the tower that the innermost map src -> dst
    carries the subobject into the target's; raises MonoidError."""
    while isinstance(src, SesObject):
        if not _carries_sub(src, dst, base):
            raise MonoidError(message)
        src, dst = src.base, dst.base


def ses_hom_from_beta(src: SesObject, dst: SesObject, beta) -> SesHom:
    """The unique morphism of short exact sequences extending a base map.

    beta is a morphism src.base -> dst.base one level down, valid there. It
    extends exactly when it carries src's subobject into dst's, which is
    checked on the innermost members; alpha and gamma are then forced.
    """
    inner = src.ctx
    if inner.dom(beta) != src.base or inner.cod(beta) != dst.base:
        raise MonoidError("beta endpoints do not match")
    base = _base_map(beta)
    if not _carries_sub(src, dst, base):
        raise MonoidError("map does not carry the subobject into the target's")
    return _thin_hom(src, dst, base)


def _normal_mono_failure(src: SesObject, dst: SesObject, base: MonoidHom) -> str | None:
    """The first failing clause of "the morphism src -> dst with innermost
    map ``base`` is a normal mono", level by level (see SesContext)."""
    if not _is_normal_mono(src.base, dst.base, base):
        return "beta-not-normal-mono"
    into = mn.compose(base, _base_map(src.sub))
    sub = _base_map(dst.sub)
    if not _is_normal_mono(src.sub_object, dst.sub_object, _CMON.factor_through_kernel(into, sub)):
        return "alpha-not-normal-mono"
    if into.image != base.image & sub.image:
        return "left-square-not-pullback"
    return None


def _is_normal_mono(src, dst, base: MonoidHom) -> bool:
    if isinstance(src, SesObject):
        return _normal_mono_failure(src, dst, base) is None
    return _CMON.is_normal_mono(base)


def _normal_epi_failure(src: SesObject, dst: SesObject, base: MonoidHom) -> str | None:
    """The first failing clause of "the morphism src -> dst with innermost
    map ``base`` is a normal epi", level by level (see SesContext)."""
    if not _is_normal_epi(src.base, dst.base, base):
        return "beta-not-normal-epi"
    quo = _CMON.factor_through_cokernel(_base_map(src.quo), mn.compose(_base_map(dst.quo), base))
    if not _is_normal_epi(src.quo_object, dst.quo_object, quo):
        return "gamma-not-normal-epi"
    pushed = mn.compose(base, _base_map(src.sub)).image
    if mn.normal_closure(base.cod, pushed) != _base_map(dst.sub).image:
        return "right-square-not-pushout"
    return None


def _is_normal_epi(src, dst, base: MonoidHom) -> bool:
    if isinstance(src, SesObject):
        return _normal_epi_failure(src, dst, base) is None
    return mn.is_normal_epi(base)


class SesContext:
    """The context of short exact sequences over an inner context.

    Kernels and cokernels follow the componentwise recipes: the kernel of
    (alpha, beta, gamma) has base ker(beta) with sub induced from ker(alpha);
    the cokernel has base coker(beta) with quotient leg induced from
    coker(gamma).

    The normality recognizers work level by level on the innermost map f
    and innermost member sets, and build no morphism, kernel or pullback.
    With A the subs and M the innermost monoids, f is a normal mono when
    its base and sub legs are normal monos one level down and f(A_S) =
    f(M_S) & A_T (the left square is a pullback); it is a normal epi when
    its base and quotient legs are normal epis one level down and the
    normal closure of f(A_S) is A_T (the right square is a pushout). The
    first failing clause is the reason returned.
    """

    def __init__(self, inner):
        self.inner = inner
        self.depth = inner.depth + 1
        self._kernel_cache: dict[SesHom, SesHom] = {}
        self._cokernel_cache: dict[SesHom, SesHom] = {}
        self._nsub_cache: dict[SesObject, tuple[SesHom, ...]] = {}
        self._subobject_cache: dict = {}
        self._ses_obj_cache: dict = {}

    def __repr__(self):
        return f"SesContext(depth={self.depth})"

    # -- plumbing

    def dom(self, f: SesHom) -> SesObject:
        return f.src

    def cod(self, f: SesHom) -> SesObject:
        return f.dst

    def identity(self, X: SesObject) -> SesHom:
        return _thin_hom(X, X, mn.identity_hom(self.innermost_object(X)))

    def compose(self, g: SesHom, f: SesHom) -> SesHom:
        if f.dst != g.src:
            raise MonoidError("ses homs are not composable")
        return _thin_hom(f.src, g.dst, mn.compose(g.base, f.base))

    def hom_equal(self, f: SesHom, g: SesHom) -> bool:
        return f == g

    def zero_object(self) -> SesObject:
        z = self.inner.zero_object()
        return make_ses(self.inner, z, self.inner.identity(z))

    def is_zero_object(self, X: SesObject) -> bool:
        return self.inner.is_zero_object(X.base)

    def zero_hom(self, X: SesObject, Y: SesObject) -> SesHom:
        return _thin_hom(X, Y, mn.zero_hom(self.innermost_object(X), self.innermost_object(Y)))

    def is_zero_hom(self, f: SesHom) -> bool:
        return not any(f.base.mapping)

    def size(self, X: SesObject) -> int:
        return self.inner.size(X.base)

    def object(self, base, sub_mono) -> SesObject:
        return make_ses(self.inner, base, sub_mono)

    # -- kernels, cokernels, factorizations

    def kernel(self, f: SesHom) -> SesHom:
        cached = self._kernel_cache.get(f)
        if cached is not None:
            return cached
        inner = self.inner
        b = inner.kernel(f.beta)
        a = inner.kernel(f.alpha)
        u = inner.factor_through_kernel(inner.compose(f.src.sub, a), b)
        K = make_ses(inner, inner.dom(b), u)
        k = ses_hom_from_beta(K, f.src, b)
        self._kernel_cache[f] = k
        return k

    def cokernel(self, f: SesHom) -> SesHom:
        cached = self._cokernel_cache.get(f)
        if cached is not None:
            return cached
        inner = self.inner
        qb = inner.cokernel(f.beta)
        qc = inner.cokernel(f.gamma)
        v = inner.factor_through_cokernel(qb, inner.compose(qc, f.dst.quo))
        if not inner.is_normal_epi(v):
            raise SesInvariantError("induced quotient comparison is not a normal epi")
        Q = make_ses(inner, inner.cod(qb), inner.kernel(v))
        q = ses_hom_from_beta(f.dst, Q, qb)
        self._cokernel_cache[f] = q
        return q

    def factor_through_kernel(self, f: SesHom, m: SesHom) -> SesHom:
        """The unique u with m . u = f: factored on the innermost maps, then
        checked to carry the subobject at every level."""
        if f.dst != m.dst:
            raise MonoidError("ses map and mono do not share a codomain")
        base = _CMON.factor_through_kernel(f.base, m.base)
        _require_subs_carried(f.src, m.src, base, "ses map does not factor through the kernel")
        return _thin_hom(f.src, m.src, base)

    def factor_through_cokernel(self, e: SesHom, f: SesHom) -> SesHom:
        """The unique u with u . e = f: factored on the innermost maps, then
        checked to carry the subobject at every level."""
        if e.src != f.src:
            raise MonoidError("epi and ses map do not share a domain")
        base = _CMON.factor_through_cokernel(e.base, f.base)
        _require_subs_carried(e.dst, f.dst, base, "ses map does not factor through the cokernel")
        return _thin_hom(e.dst, f.dst, base)

    # -- mono/epi/iso and normality

    def is_mono(self, f: SesHom) -> bool:
        """alpha and beta mono; alpha is a restriction of beta."""
        return f.base.is_injective()

    def is_epi(self, f: SesHom) -> bool:
        """beta and gamma epi; gamma is induced by beta on quotients."""
        return f.base.is_surjective()

    def is_iso(self, f: SesHom) -> bool:
        """The base map is bijective and, at every level, carries the
        subobject onto the target's (the quotient legs then follow)."""
        base = f.base
        if not base.is_bijective():
            return False
        src, dst = f.src, f.dst
        while isinstance(src, SesObject):
            if _base_map(src.sub).dom.size != _base_map(dst.sub).dom.size:
                return False
            if not _carries_sub(src, dst, base):
                return False
            src, dst = src.base, dst.base
        return True

    def normal_mono_failure(self, f: SesHom) -> str | None:
        return _normal_mono_failure(f.src, f.dst, f.base)

    def is_normal_mono(self, f: SesHom) -> bool:
        return self.normal_mono_failure(f) is None

    def normal_epi_failure(self, f: SesHom) -> str | None:
        return _normal_epi_failure(f.src, f.dst, f.base)

    def is_normal_epi(self, f: SesHom) -> bool:
        return self.normal_epi_failure(f) is None

    # -- subobjects

    def mono_key(self, m: SesHom):
        """Subobjects at every level are determined by the base-level mono,
        so keys are member sets of the innermost monoid."""
        return m.base.image

    def subobject_mono(self, X: SesObject, key) -> SesHom:
        cached = self._subobject_cache.get((X, key))
        if cached is not None:
            return cached
        inner = self.inner
        beta = inner.subobject_mono(X.base, key)
        span = inner.pullback_of_monos(X.sub, beta)
        K = make_ses(inner, inner.dom(beta), span.to_second)
        mono = ses_hom_from_beta(K, X, beta)
        self._subobject_cache[(X, key)] = mono
        return mono

    def render_key(self, X: SesObject, key) -> str:
        return self.inner.render_key(X.base, key)

    def innermost_object(self, X: SesObject):
        return self.inner.innermost_object(X.base)

    def normal_subobject_monos(self, X: SesObject) -> tuple[SesHom, ...]:
        """Normal subobjects of a short exact sequence: one per normal
        subobject of the base, transferred by ``subobject_mono`` (the base
        subobject with its pullback against the sequence's own sub)."""
        cached = self._nsub_cache.get(X)
        if cached is not None:
            return cached
        monos = tuple(
            self.subobject_mono(X, self.inner.mono_key(m))
            for m in self.inner.normal_subobject_monos(X.base)
        )
        self._nsub_cache[X] = monos
        return monos

    # -- pullbacks

    def pullback_of_monos(self, m1: SesHom, m2: SesHom) -> Span:
        return generic_pullback_of_monos(self, m1, m2)

    def pullback_epi_along_mono(self, e: SesHom, m: SesHom) -> EpiPullback:
        return generic_pullback_epi_along_mono(self, e, m)

    # -- isomorphisms

    def isomorphisms(self, X: SesObject, Y: SesObject) -> Iterator[SesHom]:
        """Isos of the bases that carry the one subobject onto the other."""
        inner = self.inner
        key_y = inner.mono_key(Y.sub)
        for phi in inner.isomorphisms(X.base, Y.base):
            if inner.mono_key(inner.compose(phi, X.sub)) == key_y:
                yield ses_hom_from_beta(X, Y, phi)

    def are_isomorphic(self, X: SesObject, Y: SesObject) -> bool:
        return next(self.isomorphisms(X, Y), None) is not None


_SES_CACHE: dict[int, SesContext] = {}


def ses_context(ctx) -> SesContext:
    """The (memoized) context of short exact sequences over ctx."""
    found = _SES_CACHE.get(id(ctx))
    if found is None:
        found = SesContext(ctx)
        _SES_CACHE[id(ctx)] = found
    return found


# ---------------------------------------------------------------------------
# generic constructions available in any context


def generic_pullback_of_monos(ctx, m1, m2) -> Span:
    """Pullback of two normal monos as the kernel of dom(m1) -> X/Z."""
    q = ctx.cokernel(m2)
    k = ctx.kernel(ctx.compose(q, m1))
    to_second = ctx.factor_through_kernel(ctx.compose(m1, k), m2)
    return Span(ctx.dom(k), k, to_second)


def generic_pullback_epi_along_mono(ctx, e, m) -> EpiPullback:
    """Pullback of a normal epi along a normal mono, via the kernel of the
    composite with the mono's cokernel."""
    k = ctx.kernel(ctx.compose(ctx.cokernel(m), e))
    onto_sub = ctx.factor_through_kernel(ctx.compose(e, k), m)
    return EpiPullback(ctx.dom(k), onto_sub, k)


def restrict_mono(ctx, small, big):
    """For subobject monos small <= big into the same object, the induced
    normal mono dom(small) -> dom(big)."""
    return ctx.factor_through_kernel(small, big)


def antinormal_composite(ctx, X, y_key, z_key):
    """The map  Y >-> X ->> X/Z  built from two normal subobjects of X."""
    y = ctx.subobject_mono(X, y_key)
    qz = ctx.cokernel(ctx.subobject_mono(X, z_key))
    return ctx.compose(qz, y)


def normal_decomposition_in(ctx, f) -> NormalDecomposition | NotNormal:
    """Canonical normal decomposition in any context.

    The middle comparison u runs from the cokernel of ker(f) to the kernel of
    coker(f); the map is normal exactly when u is an isomorphism.
    """
    k = ctx.kernel(f)
    e = ctx.cokernel(k)
    p = ctx.cokernel(f)
    m = ctx.kernel(p)
    u1 = ctx.factor_through_cokernel(e, f)
    u = ctx.factor_through_kernel(u1, m)
    if ctx.is_iso(u):
        return NormalDecomposition(ctx.compose(u, e), m)
    if not ctx.is_mono(u):
        return NotNormal("induced map not injective")
    if not ctx.is_epi(u):
        return NotNormal("induced map not surjective")
    return NotNormal("induced map not invertible")


def is_normal_map_in(ctx, f) -> bool:
    return isinstance(normal_decomposition_in(ctx, f), NormalDecomposition)
