"""Independent oracles for the package's verdicts.

Each function here reaches a verdict the package also reaches, by a second
route: a brute-force enumeration, a different characterization of the same
property, or a concrete reference implementation. The package computes
each verdict one way only; the tests compare it against these.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, permutations, product
from typing import Any

from monlat.census import _natural_tables
from monlat.checks import (
    _RULES,
    CheckReport,
    CheckWitness,
    diexact_check,
    second_iso_check,
    third_iso_check,
)
from monlat.context import (
    SesHom,
    antinormal_composite,
    cmon_context,
    generic_pullback_of_monos,
    ses_context,
)
from monlat.monoid import (
    FinMonoid,
    MonoidHom,
    MonoidError,
    Subset,
    _hom_unchecked,
    _monoid_unchecked,
    cokernel_by_submonoid,
    cokernel_of_hom,
    compose,
    find_isomorphism,
    inclusion_hom,
    is_normal_submonoid,
    kernel_subset,
)
from monlat.semilattice import (
    CoverGraph,
    NoBottom,
    NoJoin,
    NotAPartialOrder,
    NotHasse,
    principal_downset,
    require_semilattice,
)
from monlat.nsub import (
    LatticeWitness,
    NSubLattice,
    SesObject,
    enumerate_nsub,
    is_distributive,
    is_modular,
    make_ses,
)

from lemmas import join_via_uniinter, pullback_epi_along_mono


# ---------------------------------------------------------------------------
# the lattice of normal subobjects, built categorically


def categorical_lattice(ctx, X) -> NSubLattice:
    """The lattice of normal subobjects of X built inside ctx itself: meets
    as pullbacks of the monos, joins as kernels of cokernels
    (``join_via_uniinter``), order and bounds read off the meet table."""
    monos = list(ctx.normal_subobject_monos(X))
    keys = [ctx.mono_key(m) for m in monos]
    index = {k: i for i, k in enumerate(keys)}
    n = len(monos)

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            span = ctx.pullback_of_monos(monos[i], monos[j])
            key = ctx.mono_key(ctx.compose(monos[i], span.to_first))
            if key not in index:
                raise RuntimeError("meet escaped the enumerated subobjects")
            meet[i][j] = meet[j][i] = index[key]
            key = ctx.mono_key(join_via_uniinter(ctx, X, monos[i], monos[j]))
            if key not in index:
                raise RuntimeError("join escaped the enumerated subobjects")
            join[i][j] = join[j][i] = index[key]
    leq = tuple(tuple(meet[i][j] == i for j in range(n)) for i in range(n))

    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    if len(tops) != 1 or len(bottoms) != 1:
        raise RuntimeError("subobject order is not bounded")
    return NSubLattice(
        join=tuple(tuple(row) for row in join),
        meet=tuple(tuple(row) for row in meet),
        top=tops[0],
        bottom=bottoms[0],
        names=tuple(ctx.render_key(X, k) for k in keys),
        keys=tuple(keys),
    )


# ---------------------------------------------------------------------------
# finite orders as relation matrices: the cover-graph construction and the
# covers of an order by betweenness, the reference for the package's
# bitmask orders


def _closure(size: int, covers) -> list[list[bool]]:
    leq = [[i == j for j in range(size)] for i in range(size)]
    for a, b in covers:
        leq[a][b] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def matrix_semilattice_from_covers(g: CoverGraph) -> FinMonoid:
    """``semilattice.semilattice_from_covers`` on a relation matrix: the
    least-upper-bound table of a cover graph, as a commutative monoid.

    Elements are renumbered by a deterministic linear extension (layered
    sweep from the bottom, ties broken by original index), so the bottom
    lands at index 0 and equal inputs produce identical tables.
    """
    n = g.size
    leq = _closure(n, g.covers)
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPartialOrder(f"elements {i} and {j} order-equivalent")
    cover_set = set(g.covers)
    for a, b in cover_set:
        if any(c not in (a, b) and leq[a][c] and leq[c][b] for c in range(n)):
            raise NotHasse(a, b)
    minimal = [i for i in range(n) if not any(leq[j][i] for j in range(n) if j != i)]
    if len(minimal) != 1:
        extra = f" ({len(minimal) - 5} more)" if len(minimal) > 5 else ""
        raise NoBottom(f"minimal elements: {sorted(minimal)[:5]}{extra}")

    # the join of a and b: the common upper bound below all the others
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [t for t in ubs if all(leq[t][c] for c in ubs)]
            if not least:
                raise NoJoin(a, b)
            join[a][b] = least[0]

    # layered linear extension: emit every element whose strict down-set is
    # already numbered, one layer at a time, ordered by original index
    new_index: list[int | None] = [None] * n
    placed = 0
    while placed < n:
        layer = [
            i
            for i in range(n)
            if new_index[i] is None
            and all(new_index[j] is not None for j in range(n) if j != i and leq[j][i])
        ]
        if not layer:
            raise NotAPartialOrder("no linear extension exists")
        for i in sorted(layer):
            new_index[i] = placed
            placed += 1
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[new_index[a]][new_index[b]] = new_index[join[a][b]]
    labels = None
    if g.labels is not None:
        labels = [""] * n
        for old, new in enumerate(new_index):
            labels[new] = g.labels[old]
        labels = tuple(labels)
    return FinMonoid(tuple(tuple(row) for row in table), labels)


def matrix_covers_of(leq) -> list[tuple[int, int]]:
    """Cover pairs (a, b), a covered by b, of a finite order given by its
    relation matrix (``leq[a][b]`` when a <= b), in sorted order."""
    n = len(leq)
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b
        and leq[a][b]
        and not any(c not in (a, b) and leq[a][c] and leq[c][b] for c in range(n))
    ]


def matrix_heights(leq) -> list[int]:
    """The height of each element of a finite order given by its relation
    matrix: the length of its longest chain down to a minimal element, by
    raising b above a for every pair a < b until no height changes."""
    n = len(leq)
    height = [0] * n
    changed = True
    while changed:
        changed = False
        for a, b in product(range(n), repeat=2):
            if a != b and leq[a][b] and height[b] <= height[a]:
                height[b] = height[a] + 1
                changed = True
    return height


# ---------------------------------------------------------------------------
# short exact sequences, nested: the categorical construction the package's
# flat tower is compared against


@dataclass(frozen=True)
class NestedObject:
    """A short exact sequence stored as (base, sub, quo): ``sub`` is a
    canonical normal mono into ``base``, an object one level down, and
    ``quo`` its cokernel; (base, sub) determine the object. ``ctx`` is the
    context the three legs live in."""

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


class NestedHom:
    """A morphism of nested sequences. ``NestedHom(src, dst, alpha, beta,
    gamma)`` checks the explicit legs (on the subobjects, the bases and the
    quotients) and that both squares commute. The innermost map ``base``
    forces every leg, so it is what is stored: the legs are derived from it
    on first use, and equality and hashing use (src, dst, base mapping)."""

    def __init__(self, src: NestedObject, dst: NestedObject, alpha, beta, gamma):
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

    def __eq__(self, other):
        if not isinstance(other, NestedHom):
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

    @cached_property
    def beta(self):
        return _at_level(self.src.base, self.dst.base, self.base)

    @cached_property
    def alpha(self):
        src, dst = self.src, self.dst
        a = _CMON.factor_through_kernel(compose(self.base, _base_map(src.sub)), _base_map(dst.sub))
        return _at_level(src.sub_object, dst.sub_object, a)

    @cached_property
    def gamma(self):
        src, dst = self.src, self.dst
        g = _CMON.factor_through_cokernel(_base_map(src.quo), compose(_base_map(dst.quo), self.base))
        return _at_level(src.quo_object, dst.quo_object, g)


_CMON = cmon_context()


def _thin(src: NestedObject, dst: NestedObject, base: MonoidHom) -> NestedHom:
    h = object.__new__(NestedHom)
    h.__dict__.update(src=src, dst=dst, base=base)
    return h


def _base_map(f) -> MonoidHom:
    """The innermost monoid map of a morphism at any depth."""
    return f if isinstance(f, MonoidHom) else f.base


def _at_level(src, dst, base: MonoidHom):
    """The morphism src -> dst with innermost map ``base``, at the depth of
    its endpoints: the map itself between monoids, a NestedHom otherwise."""
    return _thin(src, dst, base) if isinstance(src, NestedObject) else base


def nested_hom_from_beta(src: NestedObject, dst: NestedObject, beta) -> NestedHom:
    """The unique morphism extending a valid base map one level down. It
    extends exactly when it carries src's subobject into dst's, that is,
    when the innermost maps factor (else MonoidError); alpha and gamma are
    then forced."""
    inner = src.ctx
    if inner.dom(beta) != src.base or inner.cod(beta) != dst.base:
        raise MonoidError("beta endpoints do not match")
    base = _base_map(beta)
    _CMON.factor_through_kernel(compose(base, _base_map(src.sub)), _base_map(dst.sub))
    return _thin(src, dst, base)


def make_nested(inner, base, sub_mono) -> NestedObject:
    """The nested sequence over ``base`` with the canonical sub that
    ``sub_mono`` names and its cokernel as quotient leg, memoized on the
    context one level up."""
    up = nested_context(inner.depth + 1)
    key = inner.mono_key(sub_mono)
    memo = (base, key)
    cached = up.objects.get(memo)
    if cached is not None:
        return cached
    sub = inner.subobject_mono(base, key)
    if not inner.is_normal_mono(sub):
        raise MonoidError("sub leg is not a normal mono")
    quo = inner.cokernel(sub)
    if inner.mono_key(inner.kernel(quo)) != key:
        raise MonoidError("sub leg is not the kernel of the quotient leg")
    obj = up.objects[memo] = NestedObject(ctx=inner, base=base, sub=sub, quo=quo)
    return obj


class NestedSesContext:
    """The context of nested short exact sequences over an inner context,
    by the componentwise recipes: the kernel of (alpha, beta, gamma) has
    base ker(beta) with sub induced from ker(alpha); the cokernel has base
    coker(beta) with quotient leg induced from coker(gamma); a subobject is
    a base subobject with its pullback against the sequence's sub; mono,
    epi, iso and the normality recognizers are decided leg by leg."""

    def __init__(self, inner):
        self.inner = inner
        self.depth = inner.depth + 1
        self.objects: dict = {}
        self._kernels: dict = {}
        self._cokernels: dict = {}
        self._subobjects: dict = {}

    def dom(self, f):
        return f.src

    def cod(self, f):
        return f.dst

    def compose(self, g, f):
        if f.dst != g.src:
            raise MonoidError("ses homs are not composable")
        return _thin(f.src, g.dst, compose(g.base, f.base))

    @cache
    def hom_equal(self, f, g):
        return (
            f.src == g.src
            and f.dst == g.dst
            and all(self.inner.hom_equal(getattr(f, leg), getattr(g, leg)) for leg in ("alpha", "beta", "gamma"))
        )

    def kernel(self, f):
        if f not in self._kernels:
            inner = self.inner
            b = inner.kernel(f.beta)
            a = inner.kernel(f.alpha)
            u = inner.factor_through_kernel(inner.compose(f.src.sub, a), b)
            K = make_nested(inner, inner.dom(b), u)
            self._kernels[f] = nested_hom_from_beta(K, f.src, b)
        return self._kernels[f]

    def cokernel(self, f):
        if f not in self._cokernels:
            inner = self.inner
            qb = inner.cokernel(f.beta)
            qc = inner.cokernel(f.gamma)
            v = inner.factor_through_cokernel(qb, inner.compose(qc, f.dst.quo))
            Q = make_nested(inner, inner.cod(qb), inner.kernel(v))
            self._cokernels[f] = nested_hom_from_beta(f.dst, Q, qb)
        return self._cokernels[f]

    def factor_through_kernel(self, f, m):
        if f.dst != m.dst:
            raise MonoidError("ses map and mono do not share a codomain")
        return nested_hom_from_beta(f.src, m.src, self.inner.factor_through_kernel(f.beta, m.beta))

    def factor_through_cokernel(self, e, f):
        if e.src != f.src:
            raise MonoidError("epi and ses map do not share a domain")
        return nested_hom_from_beta(e.dst, f.dst, self.inner.factor_through_cokernel(e.beta, f.beta))

    @cache
    def is_mono(self, f):
        return self.inner.is_mono(f.alpha) and self.inner.is_mono(f.beta)

    @cache
    def is_epi(self, f):
        return self.inner.is_epi(f.beta) and self.inner.is_epi(f.gamma)

    @cache
    def is_iso(self, f):
        return all(self.inner.is_iso(leg) for leg in (f.beta, f.alpha, f.gamma))

    @cache
    def normal_mono_failure(self, f):
        return recursive_normal_mono_failure(self, f)

    def is_normal_mono(self, f):
        return self.normal_mono_failure(f) is None

    @cache
    def normal_epi_failure(self, f):
        return recursive_normal_epi_failure(self, f)

    def is_normal_epi(self, f):
        return self.normal_epi_failure(f) is None

    def mono_key(self, m):
        return self.inner.mono_key(m.beta)

    def subobject_mono(self, X, key):
        if (X, key) not in self._subobjects:
            inner = self.inner
            beta = inner.subobject_mono(X.base, key)
            span = inner.pullback_of_monos(X.sub, beta)
            K = make_nested(inner, inner.dom(beta), span.to_second)
            self._subobjects[X, key] = nested_hom_from_beta(K, X, beta)
        return self._subobjects[X, key]

    def render_key(self, X, key):
        return self.inner.render_key(X.base, key)

    def innermost_object(self, X):
        return self.inner.innermost_object(X.base)

    def normal_subobject_monos(self, X):
        return tuple(
            self.subobject_mono(X, self.inner.mono_key(m))
            for m in self.inner.normal_subobject_monos(X.base)
        )

    def pullback_of_monos(self, m1, m2):
        return generic_pullback_of_monos(self, m1, m2)


_NESTED: dict[int, NestedSesContext] = {}


def nested_context(depth: int):
    """The nested context at a depth of the tower (the monoid context at 0)."""
    if depth == 0:
        return _CMON
    if depth not in _NESTED:
        _NESTED[depth] = NestedSesContext(nested_context(depth - 1))
    return _NESTED[depth]


def objects_at_depth(X, depth: int, name: str):
    """All iterated ses objects over X, built one at a time: at each level,
    one object per normal subobject of each object one level down. Yields
    (context, object, name) triples in ``checks.run_check`` order: the marks
    (K1, ..., Kd) run through ``itertools.product`` of the normal
    submonoids of X, the last mark fastest. A depth below 0 is depth 0."""

    def over(ctx, obj, nm, levels):
        if levels <= 0:
            yield ctx, obj, nm
            return
        up = ses_context(ctx)
        for m in ctx.normal_subobject_monos(obj):
            label = ctx.render_key(obj, ctx.mono_key(m))
            yield from over(up, make_ses(obj, ctx.mono_key(m)), f"{nm}|sub={label}", levels - 1)

    yield from over(cmon_context(), X, name, depth)


def nested_objects_at_depth(X, depth: int, name: str) -> list:
    """``objects_at_depth`` built with nested sequences."""
    layer = [(_CMON, X, name)]
    for _ in range(depth):
        nxt = []
        for ctx, obj, nm in layer:
            for m in ctx.normal_subobject_monos(obj):
                label = ctx.render_key(obj, ctx.mono_key(m))
                nxt.append((nested_context(ctx.depth + 1), make_nested(ctx, obj, m), f"{nm}|sub={label}"))
        layer = nxt
    return layer


def nested_object(X):
    """The nested sequence of a flat SesObject (a monoid stays itself)."""
    if not isinstance(X, SesObject):
        return X
    if X not in _NESTED_OBJECTS:
        base = nested_object(SesObject(X.monoid, X.marks[:-1]) if len(X.marks) > 1 else X.monoid)
        inner = nested_context(len(X.marks) - 1)
        _NESTED_OBJECTS[X] = make_nested(inner, base, inner.subobject_mono(base, X.marks[-1]))
    return _NESTED_OBJECTS[X]


_NESTED_OBJECTS: dict = {}


def nested_hom(f):
    """The nested morphism of a flat SesHom, built level by level from its
    innermost map."""
    return _lift(nested_object(f.src), nested_object(f.dst), f.base)


def _lift(src, dst, base):
    if not isinstance(src, NestedObject):
        return base
    return nested_hom_from_beta(src, dst, _lift(src.base, dst.base, base))


def flat_object(X):
    """The flat SesObject of a nested sequence: its innermost monoid and
    the innermost members of its sub at every level."""
    marks = []
    while isinstance(X, NestedObject):
        marks.append(X.ctx.mono_key(X.sub))
        X = X.base
    return SesObject(X, tuple(reversed(marks)))


def flat_hom(f):
    """The flat SesHom of a nested morphism (checked to carry the marks)."""
    return SesHom(flat_object(f.src), flat_object(f.dst), f.base)


def recursive_normal_mono_failure(ctx, f) -> str | None:
    """Why the nested morphism f is not a normal mono, by the categorical
    definition: its beta and alpha legs are normal monos one level down
    (recursively, down to the monoid context) and its left square is a
    pullback, the pullback being the kernel of the composite with a
    cokernel (``generic_pullback_of_monos``)."""
    if ctx.depth == 0:
        return ctx.normal_mono_failure(f)
    inner = ctx.inner
    if recursive_normal_mono_failure(inner, f.beta) is not None:
        return "beta-not-normal-mono"
    if recursive_normal_mono_failure(inner, f.alpha) is not None:
        return "alpha-not-normal-mono"
    span = generic_pullback_of_monos(inner, f.dst.sub, f.beta)
    pulled = inner.mono_key(inner.compose(f.dst.sub, span.to_first))
    if inner.mono_key(inner.compose(f.beta, f.src.sub)) != pulled:
        return "left-square-not-pullback"
    return None


def recursive_normal_epi_failure(ctx, f) -> str | None:
    """Why the nested morphism f is not a normal epi, by the categorical
    definition: its beta and gamma legs are normal epis one level down and
    its right square is a pushout, the target's sub being the kernel of the
    cokernel of the pushed-forward sub."""
    inner = ctx.inner
    if not inner.is_normal_epi(f.beta):
        return "beta-not-normal-epi"
    if not inner.is_normal_epi(f.gamma):
        return "gamma-not-normal-epi"
    pushed = inner.mono_key(inner.kernel(inner.cokernel(inner.compose(f.beta, f.src.sub))))
    if inner.mono_key(f.dst.sub) != pushed:
        return "right-square-not-pushout"
    return None


# ---------------------------------------------------------------------------
# modularity and distributivity


def first_modular_law_violation(lat) -> tuple[int, int, int] | None:
    """First triple with z <= x where x ^ (y v z) != (x ^ y) v z."""
    J, M = lat.join, lat.meet
    for x, y, z in product(range(lat.size), repeat=3):
        if J[z][x] == x and M[x][J[y][z]] != J[M[x][y]][z]:
            return (x, y, z)
    return None


def first_distributive_law_violation(lat) -> tuple[int, int, int] | None:
    """First triple where x ^ (y v z) != (x ^ y) v (x ^ z)."""
    J, M = lat.join, lat.meet
    for x, y, z in product(range(lat.size), repeat=3):
        if M[x][J[y][z]] != J[M[x][y]][M[x][z]]:
            return (x, y, z)
    return None


def first_interval_failure(lat) -> tuple[int, int] | None:
    """First pair (x, y) where t -> t v y fails to be an order isomorphism
    from [x^y, x] onto [y, xvy] with inverse u -> u ^ x (the interval
    transposition test: it holds for every pair exactly when the lattice is
    modular)."""
    n = lat.size

    def interval(lo, hi):
        return [t for t in range(n) if lat.join[lo][t] == t and lat.join[t][hi] == hi]

    for x, y in product(range(n), repeat=2):
        lo, hi = lat.meet[x][y], lat.join[x][y]
        for t in interval(lo, x):
            if lat.meet[lat.join[t][y]][x] != t:
                return (x, y)
        for u in interval(y, hi):
            if lat.join[lat.meet[u][x]][y] != u:
                return (x, y)
    return None


def _sublattice_shape(lat, combo) -> str | None:
    """Classify a closed 5-subset: 'pentagon', 'diamond', or neither."""
    J = lat.join
    subset = set(combo)
    for a, b in combinations(combo, 2):
        if J[a][b] not in subset or lat.meet[a][b] not in subset:
            return None
    bot = next(x for x in combo if all(J[x][y] == y for y in combo))
    top = next(x for x in combo if all(J[y][x] == x for y in combo))
    mids = [x for x in combo if x not in (bot, top)]
    comparable = sum(1 for a, b in combinations(mids, 2) if J[a][b] in (a, b))
    return {0: "diamond", 1: "pentagon"}.get(comparable)


def first_sublattice_by_subsets(lat, kind: str) -> LatticeWitness | None:
    """The lexicographically first 5-subset forming the given sublattice,
    by testing every 5-subset in order."""
    for combo in combinations(range(lat.size), 5):
        if _sublattice_shape(lat, combo) == kind:
            return LatticeWitness(kind, combo, tuple(lat.names[e] for e in combo))
    return None


def modular_by_sublattice(lat) -> bool:
    """Dedekind: modular exactly when no sublattice is a pentagon."""
    return first_sublattice_by_subsets(lat, "pentagon") is None


def distributive_by_sublattice(lat) -> bool:
    """Birkhoff: distributive exactly when modular and no sublattice is a
    diamond."""
    return modular_by_sublattice(lat) and first_sublattice_by_subsets(lat, "diamond") is None


def lattice_method_disagreements(lat) -> list[str]:
    """How the verdicts of ``is_modular`` and ``is_distributive`` differ from
    the sublattice, interval and law-scan oracles, and any failing verdict
    that lacks a witness; empty when they agree."""
    modular, modular_witness = is_modular(lat)
    distributive, distributive_witness = is_distributive(lat)
    oracles = (
        ("pentagon search", "is_modular", modular, modular_by_sublattice(lat)),
        ("interval test", "is_modular", modular, first_interval_failure(lat) is None),
        ("modular-law scan", "is_modular", modular, first_modular_law_violation(lat) is None),
        (
            "modular and diamond-free",
            "is_distributive",
            distributive,
            distributive_by_sublattice(lat),
        ),
        (
            "distributive-law scan",
            "is_distributive",
            distributive,
            first_distributive_law_violation(lat) is None,
        ),
    )
    found = [
        f"{oracle}: {verdict}, {name}: {decided}"
        for oracle, name, decided, verdict in oracles
        if verdict != decided
    ]
    for name, decided, witness in (
        ("is_modular", modular, modular_witness),
        ("is_distributive", distributive, distributive_witness),
    ):
        if decided == (witness is not None):
            found.append(f"{name}: {decided} with witness {witness}")
    return found


def inclusion_order(keys) -> list[list[bool]]:
    """The order of a lattice of normal submonoids: inclusion of its keys."""
    return [[a <= b for b in keys] for a in keys]


def table_order(table) -> list[list[bool]]:
    """The order of a semilattice read off its own table: a <= b when
    a v b = b."""
    return [[t == b for b, t in enumerate(row)] for row in table]


def lattice_axiom_failure(lat, leq) -> str | None:
    """The first way the order ``leq``, or the join, meet, top or bottom of
    a lattice structure in it, is wrong, by an O(n^3) scan of its tables;
    None when it is a lattice. The order comes from outside the tables under
    test: ``inclusion_order`` of the keys, or the ``table_order`` of the
    semilattice the lattice was built from."""
    n = lat.size
    join, meet = lat.join, lat.meet
    for i in range(n):
        if not leq[i][i]:
            return "order not reflexive"
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                return "order not antisymmetric"
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return "order not transitive"
    for i, j in product(range(n), repeat=2):
        u, m = join[i][j], meet[i][j]
        if not (leq[i][u] and leq[j][u]) or not (leq[m][i] and leq[m][j]):
            return "join/meet tables violate the order"
        for c in range(n):
            if leq[i][c] and leq[j][c] and not leq[u][c]:
                return "join is not a least upper bound"
            if leq[c][i] and leq[c][j] and not leq[c][m]:
                return "meet is not a greatest lower bound"
    if not all(leq[i][lat.top] and leq[lat.bottom][i] for i in range(n)):
        return "top/bottom are wrong"
    return None


def find_lattice_isomorphism(lat1, lat2):
    """An isomorphism between two lattices, or None: a search over their
    join tables as monoids, bottom relabelled to 0 (joins determine meets)."""
    return find_isomorphism(_join_monoid(lat1), _join_monoid(lat2))


def lattices_isomorphic(lat1, lat2) -> bool:
    return find_lattice_isomorphism(lat1, lat2) is not None


def _join_monoid(lat) -> FinMonoid:
    order = sorted(range(lat.size), key=lambda i: (i != lat.bottom, i))
    pos = {v: i for i, v in enumerate(order)}
    return FinMonoid(tuple(tuple(pos[lat.join[a][b]] for b in order) for a in order))


def brute_force_lattices(n: int) -> list[FinMonoid]:
    """Every lattice of size n up to isomorphism, found by enumerating all
    naturally-labelled strict orders outright and filtering; deduplication is
    by minimal table over all bottom-fixing permutations. Independent of the
    census generator, usable up to n ~ 5."""
    if n == 1:
        return [FinMonoid(((0,),))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    canon_seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        lt = [[False] * n for _ in range(n)]
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                lt[i][j] = True
        if not all(
            not (lt[i][j] and lt[j][k]) or lt[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        leq = [[i == j or lt[i][j] for j in range(n)] for i in range(n)]
        bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
        if len(bottoms) != 1:
            continue
        table = [[0] * n for _ in range(n)]
        is_lattice = True
        for i in range(n):
            for j in range(n):
                ubs = [t for t in range(n) if leq[i][t] and leq[j][t]]
                least = [t for t in ubs if all(leq[t][s] for s in ubs)]
                if len(least) != 1:
                    is_lattice = False
                    break
                table[i][j] = least[0]
            if not is_lattice:
                break
        if not is_lattice:
            continue
        bottom = bottoms[0]
        best = None
        for perm in permutations(range(n)):
            if perm[bottom] != 0:
                continue
            inv = [0] * n
            for old, new in enumerate(perm):
                inv[new] = old
            cand = tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
            if best is None or cand < best:
                best = cand
        if best not in canon_seen:
            canon_seen.add(best)
            out.append(FinMonoid(best))
    return out


def _linear_extensions(leq: list[list[bool]]):
    """All linear extensions of a partial order, as old->new index maps."""
    n = len(leq)
    new_index = [None] * n
    placed = []

    def extend():
        if len(placed) == n:
            yield tuple(new_index)
            return
        for i in range(n):
            if new_index[i] is None and all(
                new_index[j] is not None for j in range(n) if j != i and leq[j][i]
            ):
                new_index[i] = len(placed)
                placed.append(i)
                yield from extend()
                placed.pop()
                new_index[i] = None

    yield from extend()


def _inverse_order(perm, n):
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def canonical_join_table(table) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal relabelling of a join table over all linear
    extensions of its order (every such relabelling keeps the bottom at 0)."""
    n = len(table)
    leq = [[table[a][b] == b for b in range(n)] for a in range(n)]
    best = None
    for perm in _linear_extensions(leq):
        cand = tuple(
            tuple(perm[table[a][b]] for b in _inverse_order(perm, n))
            for a in _inverse_order(perm, n)
        )
        if best is None or cand < best:
            best = cand
    return best


def _rows(table: bytes) -> tuple[tuple[int, ...], ...]:
    n = round(len(table) ** 0.5)
    return tuple(tuple(table[a * n : (a + 1) * n]) for a in range(n))


def census_oracle(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical join tables of the lattices of size n, sorted: the
    census generator's labelled tables deduplicated by a backtracking
    isomorphism search (behind a cheap invariant) and each class then
    canonicalized by trying every linear extension."""
    classes: dict[tuple, list[FinMonoid]] = {}
    for flat in _natural_tables(n):
        table = _rows(flat)
        M = FinMonoid(table)
        # cheap isomorphism invariant before the backtracking test
        profile = tuple(
            sorted(
                (
                    sum(table[a][b] == b for b in range(n)),
                    sum(table[a][b] == a for b in range(n)),
                )
                for a in range(n)
            )
        )
        bucket = classes.setdefault(profile, [])
        if not any(find_isomorphism(M, seen) for seen in bucket):
            bucket.append(M)
    return sorted(
        canonical_join_table(M.table) for bucket in classes.values() for M in bucket
    )


def relabellings_by_extensions(table: bytes) -> set[bytes]:
    """Join tables of every natural labelling of a naturally labelled
    lattice, as bytes: one per linear extension of its order, found by
    placing, at each step, any element whose down-set is already placed."""
    rows = _rows(table)
    n = len(rows)
    down = [sum(1 << a for a in range(n) if rows[a][b] == b) for b in range(n)]
    order: list[int] = []
    pos = [0] * n
    out: set[bytes] = set()

    def extend(placed: int):
        if len(order) == n:
            out.add(bytes(pos[rows[a][b]] for a in order for b in order))
            return
        for i in range(n):
            if down[i] & ~placed == 1 << i:
                pos[i] = len(order)
                order.append(i)
                extend(placed | 1 << i)
                order.pop()

    extend(0)
    return out


# ---------------------------------------------------------------------------
# normal subobjects, quotients and normal maps of commutative monoids


def principal_upset(L: FinMonoid, k: int) -> Subset:
    require_semilattice(L)
    return Subset(L, frozenset(x for x in range(L.size) if L.op(x, k) == x))


def quotient_by_downset(L: FinMonoid, k: int) -> tuple[FinMonoid, MonoidHom]:
    """Quotient of a semilattice by a principal down-set, computed directly
    on the up-set of k: the projection sends l to l v k. Isomorphic to the
    generic congruence quotient, with the same class partition."""
    require_semilattice(L)
    up = sorted(principal_upset(L, k).members)
    order = [k] + [x for x in up if x != k]  # k is the identity of the quotient
    pos = {m: i for i, m in enumerate(order)}
    table = tuple(tuple(pos[L.op(a, b)] for b in order) for a in order)
    labels = tuple(L.label(m) for m in order) if L.labels is not None else None
    Q = FinMonoid(table, labels)
    proj = MonoidHom(L, Q, tuple(pos[L.op(x, k)] for x in range(L.size)))
    return Q, proj


def all_normal_subobjects_semilattice(L: FinMonoid) -> list[Subset]:
    """The normal submonoids of a finite monoidal semilattice: exactly the
    principal down-sets, one per element."""
    require_semilattice(L)
    seen = {}
    for a in range(L.size):
        d = principal_downset(L, a)
        seen.setdefault(d.members, d)
    out = sorted(seen.values(), key=lambda s: (len(s.members), sorted(s.members)))
    for s in out:
        ok, witness = is_normal_submonoid(L, s.members)
        if not ok:
            raise RuntimeError(f"down-set fails normality, witness {witness}")
    return out


class NotNormalSubmonoid(MonoidError):
    pass


def _quotient_by_classes(M: FinMonoid, classes: list[tuple[int, ...]]):
    """Quotient monoid from a partition, classes relabelled by minimal member.

    The partition must be a congruence; compatibility with the operation is
    re-checked and an incompatible partition is a hard internal error.
    """
    classes = sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0])
    if classes[0][0] != 0:
        raise RuntimeError("partition does not single out the identity class")
    class_of = [None] * M.size
    for ci, cls in enumerate(classes):
        for m in cls:
            class_of[m] = ci
    if any(c is None for c in class_of):
        raise RuntimeError("partition does not cover the monoid")
    for cls in classes:
        rep = cls[0]
        for other in cls[1:]:
            for c in range(M.size):
                if class_of[M.op(rep, c)] != class_of[M.op(other, c)] or class_of[M.op(c, rep)] != class_of[M.op(c, other)]:
                    raise RuntimeError("partition is not a congruence")
    table = tuple(
        tuple(class_of[M.op(a[0], b[0])] for b in classes) for a in classes
    )
    labels = tuple("{" + ",".join(M.label(m) for m in cls) + "}" for cls in classes)
    Q = _monoid_unchecked(table, labels)
    return Q, _hom_unchecked(M, Q, tuple(class_of))


def syntactic_quotient(M: FinMonoid, members: frozenset) -> tuple[FinMonoid, MonoidHom]:
    """Quotient of a (possibly non-commutative) monoid by the syntactic
    congruence of a normal submonoid: m and n are identified when xmy and
    xny land in the submonoid for exactly the same pairs (x, y)."""
    ok, witness = is_normal_submonoid(M, members)
    if not ok:
        raise NotNormalSubmonoid(f"submonoid is not normal, witness {witness}")
    t = M.table
    rng = range(M.size)
    signature = [
        frozenset((x, y) for x in rng for y in rng if t[t[x][m]][y] in members)
        for m in rng
    ]
    groups: dict[frozenset, list[int]] = {}
    for m in rng:
        groups.setdefault(signature[m], []).append(m)
    Q, proj = _quotient_by_classes(M, [tuple(g) for g in groups.values()])
    if kernel_subset(proj) != members:
        raise RuntimeError("identity class of the syntactic congruence differs from the submonoid")
    return Q, proj


def normal_submonoids_by_filter(X: FinMonoid) -> set[frozenset[int]]:
    """Every normal submonoid of X, by testing all 2^(n-1) subsets that
    contain the identity."""
    rest = range(1, X.size)
    found = set()
    for mask in range(1 << len(rest)):
        members = frozenset({0} | {x for i, x in enumerate(rest) if mask >> i & 1})
        if Subset(X, members).is_submonoid() and is_normal_submonoid(X, members)[0]:
            found.add(members)
    return found


@cache
def fixpoint_normal_closure(M: FinMonoid, seed: frozenset) -> frozenset[int]:
    """Smallest normal submonoid of a commutative monoid containing the seed,
    as the fixpoint of two monotone rules: close under the operation, and
    pull x in whenever x+k is in the set for some member k. Alternating the
    two passes converges; the order does not affect the result."""
    t = M.table
    current = set(seed) | {0}
    while True:
        changed = False
        for a in list(current):
            for b in list(current):
                if t[a][b] not in current:
                    current.add(t[a][b])
                    changed = True
        for x in range(M.size):
            if x in current:
                continue
            if any(t[x][k] in current for k in current):
                current.add(x)
                changed = True
        if not changed:
            return frozenset(current)


def normal_submonoids_by_rounds(M: FinMonoid) -> tuple[frozenset[int], ...]:
    """Every normal submonoid of a commutative monoid: the closures of the
    singletons, closed under the joins of all pairs round by round until a
    round adds nothing, ordered by size and then by sorted members."""
    keys = {frozenset({0})} | {fixpoint_normal_closure(M, frozenset({x})) for x in range(M.size)}
    while True:
        new = {fixpoint_normal_closure(M, a | b) for a in keys for b in keys} - keys
        if not new:
            return tuple(sorted(keys, key=lambda k: (len(k), sorted(k))))
        keys |= new


def lattice_by_closures(M: FinMonoid) -> NSubLattice:
    """The lattice of normal submonoids of a commutative monoid from
    ``normal_submonoids_by_rounds``: inclusion, intersections as meets and
    fixpoint closures of unions as joins, bottom first and top last."""
    keys = normal_submonoids_by_rounds(M)
    index = {k: i for i, k in enumerate(keys)}
    return NSubLattice(
        join=tuple(tuple(index[fixpoint_normal_closure(M, a | b)] for b in keys) for a in keys),
        meet=tuple(tuple(index[a & b] for b in keys) for a in keys),
        top=len(keys) - 1,
        bottom=0,
        names=tuple(M.render_subset(k) for k in keys),
        keys=keys,
    )


@dataclass(frozen=True)
class NormalDecomposition:
    """A normal-epi-then-normal-mono factorization; mono after epi equals the map."""

    epi: object
    mono: object


@dataclass(frozen=True)
class NotNormal:
    """Returned (not raised) when a map admits no normal decomposition."""

    reason: str


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


def normal_epi_by_fibres(f: MonoidHom) -> bool:
    """Whether f is a normal epi, by a walk over its domain: f is surjective,
    takes one value on each class of the cokernel of its kernel (it factors
    through the quotient) and different values on different classes."""
    if not f.is_surjective():
        return False
    _, proj = cokernel_by_submonoid(f.dom, kernel_subset(f))
    seen: dict[int, int] = {}
    for x in range(f.dom.size):
        cls = proj(x)
        if cls in seen:
            if seen[cls] != f(x):
                return False  # f does not factor through the quotient
        else:
            seen[cls] = f(x)
    return len(set(seen.values())) == len(seen)


def normal_decomposition(f: MonoidHom) -> NormalDecomposition | NotNormal:
    """Concrete normal decomposition of a hom between commutative monoids.

    The candidate middle map u sends the kernel-class of x to f(x), from the
    quotient by the kernel into the kernel of the cokernel; f is normal
    exactly when u is bijective, by uniqueness of normal decompositions.
    """
    K = kernel_subset(f)
    Q, e = cokernel_by_submonoid(f.dom, K)
    p = cokernel_of_hom(f)
    I = kernel_subset(p)
    m = inclusion_hom(f.cod, I)
    order = sorted(I)
    pos = {v: i for i, v in enumerate(order)}
    u_map = [None] * Q.size
    for x in range(f.dom.size):
        v = pos[f(x)]  # image always lands in ker(coker f)
        if u_map[e(x)] is None:
            u_map[e(x)] = v
        elif u_map[e(x)] != v:
            raise RuntimeError("induced map is not constant on kernel classes")
    u = _hom_unchecked(Q, m.dom, tuple(u_map))  # hom law holds by construction
    if not u.is_injective():
        return NotNormal("induced map not injective")
    if not u.is_surjective():
        return NotNormal("induced map not surjective")
    dec = NormalDecomposition(compose(u, e), m)
    if compose(dec.mono, dec.epi) != f:
        raise RuntimeError("normal decomposition does not recompose")
    return dec


def all_homs(M: FinMonoid, N: FinMonoid) -> list[MonoidHom]:
    """Every homomorphism M -> N, by backtracking over partial maps."""
    n = M.size
    f: list[int | None] = [0] + [None] * (n - 1)
    out: list[MonoidHom] = []

    def consistent(upto: int) -> bool:
        for i in range(upto + 1):
            for j in range(upto + 1):
                k = M.table[i][j]
                if k <= upto and f[k] != N.table[f[i]][f[j]]:
                    return False
        return True

    def extend(i: int):
        if i == n:
            out.append(_hom_unchecked(M, N, tuple(f)))  # type: ignore[arg-type]
            return
        for c in range(N.size):
            f[i] = c
            if consistent(i):
                extend(i + 1)
            f[i] = None

    if n == 1:
        return [_hom_unchecked(M, N, (0,))]
    extend(1)
    return out


# ---------------------------------------------------------------------------
# the categorical checkers: every map built in the context


def restrict_mono(ctx, small, big):
    """For subobject monos small <= big into the same object, the induced
    normal mono dom(small) -> dom(big)."""
    return ctx.factor_through_kernel(small, big)


def hsd_failures(ctx, Z, lat) -> dict[tuple[int, int], str]:
    """The failing pairs X <= Y of ``third_iso_check`` on Z, with the reason
    the induced map Y/X -> Z/X is not a normal mono."""
    monos = ctx.normal_subobject_monos(Z)
    q = [ctx.cokernel(m) for m in monos]
    table = {}
    for ix in range(lat.size):
        for iy in range(lat.size):
            if lat.join[ix][iy] != iy:
                continue
            x, y = monos[ix], monos[iy]
            e = ctx.cokernel(restrict_mono(ctx, x, y))  # Y ->> Y/X
            g = ctx.factor_through_cokernel(e, ctx.compose(q[ix], y))
            failure = ctx.normal_mono_failure(g)
            if failure is not None:
                table[ix, iy] = failure
    return table


def second_iso_failures(ctx, X, lat) -> dict[tuple[int, int], str]:
    """The failing ordered pairs of ``second_iso_check``, each noted with
    the comparisons that are not isomorphisms: primal, dual or both.

    Each map the two comparisons are built from depends on one nested
    pair A <= B among Y, Z, Y^Z and YvZ, so it is built once per nested
    pair: the inclusion A >-> B, the quotient B ->> B/A (``(YvZ)/Z``,
    ``Y/(Y^Z)``), the map X/A ->> X/B between quotients of the object
    (``X/(Y^Z) ->> X/Y``) and its kernel B/A >-> X/A.
    """
    monos = ctx.normal_subobject_monos(X)
    q = [ctx.cokernel(m) for m in monos]
    nested = [(a, b) for a in range(lat.size) for b in range(lat.size) if lat.join[a][b] == b]
    restrict = {(a, b): restrict_mono(ctx, monos[a], monos[b]) for a, b in nested}
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


def categorical_antinormal_failures(ctx, X, lat) -> dict[tuple[int, int], str]:
    """The antinormal table of X at any depth, each composite
    Y >-> X ->> X/Z decomposed in ctx, with the cokernels built once per
    subobject. A pair with Y <= Z is absent without a
    decomposition: Y lies in Z, the kernel of X ->> X/Z, so the composite is
    the zero map, and a zero map is normal in any context (its kernel and
    cokernel are identities and the comparison is 0 -> 0)."""
    monos = ctx.normal_subobject_monos(X)
    q = [ctx.cokernel(m) for m in monos]
    table = {}
    for iy, y in enumerate(monos):
        for iz, qz in enumerate(q):
            if lat.join[iy][iz] != iz:
                dec = normal_decomposition_in(ctx, ctx.compose(qz, y))
                if not isinstance(dec, NormalDecomposition):
                    table[iy, iz] = dec.reason
    return table


def stability_failures(ctx, X, lat) -> dict[tuple[int, int], str]:
    """The pairs (k, t), K <= T normal in a commutative monoid X, where the
    pullback of the cokernel X ->> X/K along a normal mono T/K >-> X/K is
    not a normal epi: every normal subobject of every quotient of X, each
    named by its preimage T, the apex of the pullback."""
    table = {}
    for k, mono in enumerate(ctx.normal_subobject_monos(X)):
        e = ctx.cokernel(mono)
        for t in ctx.normal_subobject_monos(ctx.cod(e)):
            pb = pullback_epi_along_mono(ctx, e, t)
            if not ctx.is_normal_epi(pb.onto_sub):
                table[k, lat.index_of_key(ctx.mono_key(pb.into_total))] = (
                    "projection-not-normal-epi"
                )
    return table


CATEGORICAL_FAILURES = {
    "hsd": hsd_failures,
    "secondiso": second_iso_failures,
    "dpn": categorical_antinormal_failures,
    "diexact": categorical_antinormal_failures,
    "modular": lambda ctx, X, lat: is_modular(lat),
    "distributive": lambda ctx, X, lat: is_distributive(lat),
    "stability": stability_failures,
}


def categorical_check(prop, ctx, X, name="object") -> CheckReport:
    """The report of the checker for ``prop`` on X, its failure table built
    from the maps themselves in ctx: the flat or the nested context, at any
    depth (stability at depth 0 only). The package reads the same verdicts
    off lattice identities."""
    lat = enumerate_nsub(ctx.innermost_object(X))
    _, _, witnesses, count_cases, combine = _RULES[prop]
    table = CATEGORICAL_FAILURES[prop](ctx, X, lat)
    found = tuple(witnesses(lat, combine([table]) if combine else table))
    return CheckReport(prop, name, ctx.depth, not found, found, count_cases(lat))


def mark_table_sweep(prop, M, depth, name="object") -> list[CheckReport]:
    """The reports of ``run_check(prop, M, depth, name)`` at depth >= 1,
    from the failure tables alone: that of M and of every mark, combined
    for each object as the checker on it does. The package skips the mark
    tables where a law of the lattice decides them."""
    lat = enumerate_nsub(M)
    base, at_mark, witnesses, count_cases, combine = _RULES[prop]
    bottom, tables, cases = base(M, lat), {}, count_cases(lat)
    reports = []
    for marks in product(range(lat.size), repeat=depth):
        for k in marks:
            if k not in tables:
                tables[k] = at_mark(lat, k)
        found = tuple(witnesses(lat, combine([bottom] + [tables[k] for k in marks])))
        obj = name + "".join(f"|sub={lat.names[k]}" for k in marks)
        reports.append(CheckReport(prop, obj, depth, not found, found, cases))
    return reports


# ---------------------------------------------------------------------------
# the second isomorphism property and di-exactness, in any context


def second_iso_disagreements(ctx, X, name="object") -> list[str]:
    """Pairs (Y, Z) of normal subobjects of X where the three formulations
    of the second isomorphism property differ, or where the package's
    ``second_iso_check`` reports otherwise. The formulations: (i) the
    canonical comparison Y/(Y^Z) -> (YvZ)/Z is an isomorphism, (ii) the
    composite f: Y >-> YvZ ->> (YvZ)/Z is a normal map, (iii) f is a normal
    epi."""
    lat = enumerate_nsub(X)
    monos = ctx.normal_subobject_monos(X)
    report = second_iso_check(X, name)
    primal_failures = {w.keys for w in report.witnesses if "primal" in w.note}
    out = []
    for iy, iz in product(range(lat.size), repeat=2):
        y, z = monos[iy], monos[iz]
        j_mono, m_mono = monos[lat.join[iy][iz]], monos[lat.meet[iy][iz]]
        qa = ctx.cokernel(restrict_mono(ctx, z, j_mono))  # YvZ ->> (YvZ)/Z
        qb = ctx.cokernel(restrict_mono(ctx, m_mono, y))  # Y ->> Y/(Y^Z)
        f = ctx.compose(qa, restrict_mono(ctx, y, j_mono))
        iso = ctx.is_iso(ctx.factor_through_cokernel(qb, f))
        normal = isinstance(normal_decomposition_in(ctx, f), NormalDecomposition)
        normal_epi = ctx.is_normal_epi(f)
        checked = (lat.keys[iy], lat.keys[iz]) not in primal_failures
        if not iso == normal == normal_epi == checked:
            out.append(
                f"{name} ({lat.names[iy]};{lat.names[iz]}): iso={iso} normal={normal} "
                f"normal_epi={normal_epi} second_iso_check={checked}"
            )
    return out


def diexact_disagreement(X, name="object") -> str | None:
    """None when ``diexact_check`` agrees with the decomposition
    "di-exact = third isomorphism property + second isomorphism property"
    on X, else a description of the difference."""
    diexact = diexact_check(X, name).passed
    third = third_iso_check(X, name).passed
    second = second_iso_check(X, name).passed
    if diexact == (third and second):
        return None
    return f"{name}: diexact={diexact} third={third} second={second}"


# ---------------------------------------------------------------------------
# dinversion and di-exactness, one antinormal composite per call


def antinormal_failures_by_pairs(ctx, X) -> list[list[str | None]]:
    """The antinormal table of X built pair by pair: each composite
    Y >-> X ->> X/Z is rebuilt from the subobject keys and decomposed in
    full, zero maps included."""
    lat = enumerate_nsub(X)
    table = []
    for iy in range(lat.size):
        row = []
        for iz in range(lat.size):
            dec = normal_decomposition_in(
                ctx, antinormal_composite(ctx, X, lat.keys[iy], lat.keys[iz])
            )
            row.append(None if isinstance(dec, NormalDecomposition) else dec.reason)
        table.append(row)
    return table


def pairwise_dpn_check(ctx, X, name="object") -> CheckReport:
    """``dpn_check`` deciding both composites of every ordered pair afresh."""
    lat = enumerate_nsub(X)
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
    return CheckReport("dpn", name, ctx.depth, not witnesses, tuple(witnesses), cases)


def pairwise_diexact_check(ctx, X, name="object") -> CheckReport:
    """``diexact_check`` decomposing every antinormal composite afresh."""
    lat = enumerate_nsub(X)
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
    return CheckReport("diexact", name, ctx.depth, not witnesses, tuple(witnesses), cases)
