"""Independent oracles for the package's verdicts.

Each function here reaches a verdict the package also reaches, by a second
route: a brute-force enumeration, a different characterization of the same
property, or a concrete reference implementation. The package computes
each verdict one way only; the tests compare it against these.
"""

from itertools import permutations, product

from monlat.census import _natural_tables, _unpack
from monlat.checks import diexact_check, second_iso_check, third_iso_check
from monlat.context import generic_pullback_of_monos, normal_decomposition_in, restrict_mono
from monlat.monoid import (
    FinMonoid,
    MonoidHom,
    NormalDecomposition,
    MonoidError,
    NotNormal,
    Subset,
    _hom_unchecked,
    _quotient_by_classes,
    cokernel_by_submonoid,
    cokernel_of_hom,
    compose,
    find_isomorphism,
    inclusion_hom,
    is_normal_submonoid,
    kernel_subset,
)
from monlat.semilattice import principal_downset, require_semilattice
from monlat.nsub import (
    NSubLattice,
    _find_sublattice,
    enumerate_nsub,
    is_distributive,
    is_modular,
    join_via_uniinter,
)


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
        leq=leq,
        join=tuple(tuple(row) for row in join),
        meet=tuple(tuple(row) for row in meet),
        top=tops[0],
        bottom=bottoms[0],
        names=tuple(ctx.render_key(X, k) for k in keys),
        monos=tuple(monos),
        keys=tuple(keys),
    )


# ---------------------------------------------------------------------------
# normal monos and normal epis of short exact sequences, recursively


def recursive_normal_mono_failure(ctx, f) -> str | None:
    """Why f is not a normal mono, by the categorical definition: its beta
    and alpha legs are normal monos one level down (recursively, down to the
    monoid context) and its left square is a pullback, the pullback being
    the kernel of the composite with a cokernel
    (``generic_pullback_of_monos``)."""
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
    """Why the ses morphism f is not a normal epi, by the categorical
    definition: its beta and gamma legs are normal epis one level down and
    its right square is a pushout, the target's sub being the kernel of the
    cokernel of the pushed-forward sub."""
    inner = ctx.inner
    if not _recursive_is_normal_epi(inner, f.beta):
        return "beta-not-normal-epi"
    if not _recursive_is_normal_epi(inner, f.gamma):
        return "gamma-not-normal-epi"
    pushed = inner.mono_key(inner.kernel(inner.cokernel(inner.compose(f.beta, f.src.sub))))
    if inner.mono_key(f.dst.sub) != pushed:
        return "right-square-not-pushout"
    return None


def _recursive_is_normal_epi(ctx, f) -> bool:
    if ctx.depth == 0:
        return ctx.is_normal_epi(f)
    return recursive_normal_epi_failure(ctx, f) is None


# ---------------------------------------------------------------------------
# modularity and distributivity


def first_interval_failure(lat) -> tuple[int, int] | None:
    """First pair (x, y) where t -> t v y fails to be an order isomorphism
    from [x^y, x] onto [y, xvy] with inverse u -> u ^ x (the interval
    transposition test: it holds for every pair exactly when the lattice is
    modular)."""
    n = lat.size

    def interval(lo, hi):
        return [t for t in range(n) if lat.leq[lo][t] and lat.leq[t][hi]]

    for x, y in product(range(n), repeat=2):
        lo, hi = lat.meet[x][y], lat.join[x][y]
        for t in interval(lo, x):
            if lat.meet[lat.join[t][y]][x] != t:
                return (x, y)
        for u in interval(y, hi):
            if lat.join[lat.meet[u][x]][y] != u:
                return (x, y)
    return None


def modular_by_sublattice(lat) -> bool:
    """Dedekind: modular exactly when no sublattice is a pentagon."""
    return _find_sublattice(lat, "pentagon") is None


def distributive_by_sublattice(lat) -> bool:
    """Birkhoff: distributive exactly when modular and no sublattice is a
    diamond."""
    return modular_by_sublattice(lat) and _find_sublattice(lat, "diamond") is None


def lattice_method_disagreements(lat) -> list[str]:
    """How the verdicts of ``is_modular`` and ``is_distributive`` differ from
    the sublattice and interval oracles, and any failing verdict that lacks
    a witness; empty when they agree."""
    modular, modular_witness = is_modular(lat)
    distributive, distributive_witness = is_distributive(lat)
    oracles = (
        ("pentagon search", "is_modular", modular, modular_by_sublattice(lat)),
        ("interval test", "is_modular", modular, first_interval_failure(lat) is None),
        (
            "modular and diamond-free",
            "is_distributive",
            distributive,
            distributive_by_sublattice(lat),
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


def lattice_axiom_failure(lat) -> str | None:
    """The first way the order, join, meet, top or bottom of a lattice
    structure is wrong, by an O(n^3) scan of its tables; None when it is a
    lattice."""
    n = lat.size
    leq, join, meet = lat.leq, lat.join, lat.meet
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


def census_oracle(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical join tables of the lattices of size n, sorted: the
    census generator's labelled tables deduplicated by a backtracking
    isomorphism search (behind a cheap invariant) and each class then
    canonicalized by trying every linear extension."""
    classes: dict[tuple, list[FinMonoid]] = {}
    for packed in _natural_tables(n):
        table = _unpack(packed, n)
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
# the second isomorphism property and di-exactness, in any context


def second_iso_disagreements(ctx, X, name="object", depth=0) -> list[str]:
    """Pairs (Y, Z) of normal subobjects of X where the three formulations
    of the second isomorphism property differ, or where the package's
    ``second_iso_check`` reports otherwise. The formulations: (i) the
    canonical comparison Y/(Y^Z) -> (YvZ)/Z is an isomorphism, (ii) the
    composite f: Y >-> YvZ ->> (YvZ)/Z is a normal map, (iii) f is a normal
    epi."""
    lat = enumerate_nsub(ctx, X)
    report = second_iso_check(ctx, X, name, depth, lat)
    primal_failures = {w.keys for w in report.witnesses if "primal" in w.note}
    out = []
    for iy, iz in product(range(lat.size), repeat=2):
        y, z = lat.monos[iy], lat.monos[iz]
        j_mono, m_mono = lat.monos[lat.join[iy][iz]], lat.monos[lat.meet[iy][iz]]
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


def diexact_disagreement(ctx, X, name="object", depth=0) -> str | None:
    """None when ``diexact_check`` agrees with the decomposition
    "di-exact = third isomorphism property + second isomorphism property"
    on X, else a description of the difference."""
    diexact = diexact_check(ctx, X, name, depth).passed
    third = third_iso_check(ctx, X, name, depth).passed
    second = second_iso_check(ctx, X, name, depth).passed
    if diexact == (third and second):
        return None
    return f"{name}: diexact={diexact} third={third} second={second}"
