"""Finite monoids as operation tables, with the kernel/cokernel calculus
the rest of the package is built on.

Element 0 is always the two-sided identity; validation enforces this rather
than searching for an identity, so element indices are canonical and values
hash/compare structurally. Every value here refuses assignment and every
function is pure, so results may be shared between threads and cached freely.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, islice, product
from operator import attrgetter
from typing import Iterator


class MonoidError(ValueError):
    pass


class _Record:
    """Value semantics read off the field names in ``_fields``: equality
    with an instance of the same class, a hash, pickling and a repr that
    names each field. A subclass refuses assignment unless it restores
    ``object.__setattr__``, so its ``__init__`` sets its fields through
    ``object.__setattr__`` or, beside a ``cached_property``, ``__dict__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class AxiomFailure(_Record):
    """One violated monoid axiom (OutOfRange, IdentityViolation or
    NonAssociative) together with its witnessing indices."""

    __slots__ = _fields = ("kind", "witness")

    def __init__(self, kind: str, witness: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)

    def __str__(self) -> str:
        return f"{self.kind}({','.join(map(str, self.witness))})"


class InvalidMonoid(MonoidError):
    """Raised with the first few violated axioms as ``failures`` and the
    number of all of them as ``count``, since a large table can break
    associativity in O(n^3) ways. The message names the few and counts the rest."""

    SHOWN = 5

    def __init__(self, failures):
        failures = iter(failures)
        self.failures = tuple(islice(failures, self.SHOWN))
        self.count = len(self.failures) + sum(1 for _ in failures)
        message = "; ".join(map(str, self.failures))
        if self.count > self.SHOWN:
            message += f" ({self.count - self.SHOWN} more)"
        super().__init__(message)


class NotASubmonoid(MonoidError):
    pass


class NotCommutative(MonoidError):
    pass


def table_axiom_failures(table) -> Iterator[AxiomFailure]:
    """All axiom violations in a square operation table, one at a time.

    Out-of-range entries are reported alone (the other axioms cannot be
    evaluated soundly on a table that indexes outside itself).
    """
    n = len(table)
    bad = [
        AxiomFailure("OutOfRange", (i, j))
        for i, row in enumerate(table)
        for j, v in enumerate(row)
        if not (isinstance(v, int) and 0 <= v < n)
    ]
    if bad:
        yield from bad
        return
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            yield AxiomFailure("IdentityViolation", (i,))
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            yield AxiomFailure("NonAssociative", (i, j, k))


class FinMonoid(_Record):
    """A finite monoid given by its full operation table.

    ``table[i][j]`` is the index of ``i * j``. Labels only name elements,
    but they take part in equality and hashing, so every cache keyed by a
    monoid hands back results carrying that monoid's labels.
    """

    _fields = ("table", "labels")

    def __init__(self, table, labels: tuple[str, ...] | None = None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise MonoidError("operation table must be square and nonempty")
        failures = table_axiom_failures(table)
        first = next(failures, None)
        if first is not None:
            raise InvalidMonoid(chain((first,), failures))
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise MonoidError("label count differs from element count")
        self.__dict__.update(table=table, labels=labels)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.table, self.labels))
        return h

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def commutative(self) -> bool:
        n = self.size
        return all(self.table[i][j] == self.table[j][i] for i in range(n) for j in range(i))

    @cached_property
    def idempotent(self) -> bool:
        return all(self.table[i][i] == i for i in range(self.size))

    @property
    def is_semilattice(self) -> bool:
        return self.commutative and self.idempotent

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def element(self, name: str) -> int:
        """Index of the element with the given label."""
        if self.labels is None:
            return int(name)
        return self.labels.index(name)

    def render_subset(self, members) -> str:
        return "{" + ",".join(self.label(i) for i in sorted(members)) + "}"

    def __repr__(self) -> str:
        return f"FinMonoid(n={self.size})"


def validate_monoid(table, labels=None) -> FinMonoid:
    """Build a FinMonoid, raising InvalidMonoid with the first violated
    axioms and the number of all of them."""
    return FinMonoid(table, labels)


TRIVIAL = FinMonoid(((0,),))


class MonoidHom(_Record):
    """A total identity- and operation-preserving map between FinMonoids."""

    _fields = ("dom", "cod", "mapping")

    def __init__(self, dom: FinMonoid, cod: FinMonoid, mapping):
        mapping = tuple(mapping)
        n, m = dom.size, cod.size
        if len(mapping) != n:
            raise MonoidError("mapping length differs from domain size")
        if any(not (0 <= v < m) for v in mapping):
            raise MonoidError("mapping hits elements outside the codomain")
        if mapping[0] != 0:
            raise MonoidError("identity is not preserved")
        td, tc = dom.table, cod.table
        for i in range(n):
            for j in range(n):
                if mapping[td[i][j]] != tc[mapping[i]][mapping[j]]:
                    raise MonoidError(f"not a homomorphism at pair ({i},{j})")
        self.__dict__.update(dom=dom, cod=cod, mapping=mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    @cached_property
    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)

    def is_injective(self) -> bool:
        return len(self.image) == self.dom.size

    def is_surjective(self) -> bool:
        return len(self.image) == self.cod.size

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __repr__(self) -> str:
        return f"MonoidHom({self.dom.size}->{self.cod.size}, {self.mapping})"


class Subset(_Record):
    """A set of element indices of a monoid (submonoids, kernels, ...)."""

    __slots__ = _fields = ("of", "members")

    def __init__(self, of: FinMonoid, members):
        members = frozenset(members)
        if any(not (0 <= i < of.size) for i in members):
            raise MonoidError("subset member out of range")
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "members", members)

    def is_submonoid(self) -> bool:
        mem = self.members
        return 0 in mem and all(self.of.op(a, b) in mem for a in mem for b in mem)

    def render(self) -> str:
        return self.of.render_subset(self.members)


def _monoid_unchecked(table, labels) -> FinMonoid:
    """Internal constructor for tables that are monoids by construction
    (submonoids, quotients by a congruence, join tables of semilattices),
    skipping the O(n^3) axiom scan. Raw or external tables go through FinMonoid()."""
    M = object.__new__(FinMonoid)
    M.__dict__.update(table=table, labels=labels)
    return M


def _hom_unchecked(dom: FinMonoid, cod: FinMonoid, mapping: tuple[int, ...]) -> MonoidHom:
    """Internal constructor for maps that are homomorphisms by construction
    (composites, identities, factorizations of valid homs). Callers must
    guarantee the hom law; raw or external data goes through MonoidHom()."""
    h = object.__new__(MonoidHom)
    h.__dict__.update(dom=dom, cod=cod, mapping=mapping)
    return h


def identity_hom(M: FinMonoid) -> MonoidHom:
    return _hom_unchecked(M, M, tuple(range(M.size)))

def zero_hom(M: FinMonoid, N: FinMonoid) -> MonoidHom:
    return _hom_unchecked(M, N, (0,) * M.size)

def compose(g: MonoidHom, f: MonoidHom) -> MonoidHom:
    """g after f."""
    if f.cod != g.dom:
        raise MonoidError("homs are not composable")
    return _hom_unchecked(f.dom, g.cod, tuple(map(g.mapping.__getitem__, f.mapping)))


def _require_submonoid(M: FinMonoid, members: frozenset[int]) -> None:
    if not Subset(M, members).is_submonoid():
        raise NotASubmonoid(f"{M.render_subset(members)} is not a submonoid")


@lru_cache(maxsize=None)
def submonoid(M: FinMonoid, members: frozenset) -> FinMonoid:
    """The submonoid on the given members, elements relabelled in sorted order."""
    _require_submonoid(M, members)
    order = sorted(members)  # 0 is a member, so it stays at index 0
    pos = {m: i for i, m in enumerate(order)}
    table = tuple(tuple(pos[M.op(a, b)] for b in order) for a in order)
    labels = tuple(M.label(m) for m in order) if M.labels is not None else None
    return _monoid_unchecked(table, labels)

@lru_cache(maxsize=None)
def inclusion_hom(M: FinMonoid, members: frozenset) -> MonoidHom:
    return _hom_unchecked(submonoid(M, members), M, tuple(sorted(members)))


@lru_cache(maxsize=None)
def is_normal_submonoid(M: FinMonoid, members: frozenset) -> tuple[bool, tuple[int, ...] | None]:
    """Normality of a submonoid, with a violating triple (x, k, y) on failure.

    A submonoid K is normal exactly when xky is in K iff xy is in K, for all
    k in K and x, y in M. For commutative M only the one-sided condition
    "x+k in K implies x in K" can fail, and the witness uses y = 0.
    """
    _require_submonoid(M, members)
    t = M.table
    if M.commutative:
        for k in members:
            for x in range(M.size):
                if t[x][k] in members and x not in members:
                    return False, (x, k, 0)
        return True, None
    for k in members:
        for x in range(M.size):
            for y in range(M.size):
                if (t[t[x][k]][y] in members) != (t[x][y] in members):
                    return False, (x, k, y)
    return True, None


def kernel_subset(f: MonoidHom) -> frozenset[int]:
    """Preimage of the identity of the codomain."""
    return frozenset(i for i, v in enumerate(f.mapping) if v == 0)

def kernel_hom(f: MonoidHom) -> MonoidHom:
    return inclusion_hom(f.dom, kernel_subset(f))


@lru_cache(maxsize=None)
def cokernel_by_submonoid(M: FinMonoid, members: frozenset) -> tuple[FinMonoid, MonoidHom]:
    """Quotient of a commutative monoid by the congruence generated by a submonoid.

    Two elements m, n are identified when m+k = n+l for some k, l in the
    submonoid K. This is a congruence: from m+k = n+l and n+k' = p+l' comes
    m+(k+k') = p+(l+l'), and from m+k = n+l comes (m+c)+k = (n+c)+l. The
    projection is a normal epimorphism and its kernel is the normal closure
    of the submonoid.

    One pass numbers the classes. Each sum m+k lies in the class of m, so m
    joins the class of the first of its sums seen before, or else opens a
    new class as its least member; classes are numbered by least member and
    labelled by their members in ascending order.
    """
    if not M.commutative:
        raise NotCommutative("cokernel congruence needs a commutative monoid")
    _require_submonoid(M, members)
    t = M.table
    seen: dict[int, int] = {}  # every sum m+k met so far -> the class of m
    classes: list[list[int]] = []
    class_of: list[int] = []
    for m, row in enumerate(t):
        sums = [row[k] for k in members]
        ci = next((seen[s] for s in sums if s in seen), len(classes))
        if ci == len(classes):
            classes.append([])
        classes[ci].append(m)
        class_of.append(ci)
        seen.update(dict.fromkeys(sums, ci))
    reps = [cls[0] for cls in classes]
    table = tuple(tuple(class_of[t[a][b]] for b in reps) for a in reps)
    labels = tuple(map(M.render_subset, classes))
    Q = _monoid_unchecked(table, labels)
    return Q, _hom_unchecked(M, Q, tuple(class_of))


def cokernel_of_hom(f: MonoidHom) -> MonoidHom:
    """Projection of the codomain by the congruence generated by the image."""
    return cokernel_by_submonoid(f.cod, f.image)[1]


def _cyclic(t, a: int) -> set[int]:
    """The cyclic submonoid <a> = {0, a, 2a, ...}, up to its first repeat."""
    out, x = {0}, a
    while x not in out:
        out.add(x)
        x = t[x][a]
    return out


def _sum_set(t, A, B) -> set[int]:
    """A + B = {a + b : a in A, b in B}, one C-level pass over the larger."""
    if len(A) > len(B):
        A, B = B, A
    out: set[int] = set()
    for a in A:
        out.update(map(t[a].__getitem__, B))
    return out


def _saturation(t, S) -> frozenset[int]:
    """sat(S) = {x : x + s in S for some s in S}, one row of the table at a time."""
    return frozenset(x for x, row in enumerate(t) if not S.isdisjoint(map(row.__getitem__, S)))


@lru_cache(maxsize=None)
def normal_closure(M: FinMonoid, seed: frozenset) -> frozenset[int]:
    """Smallest normal submonoid of a commutative monoid containing the seed.

    With S the submonoid the seed generates, it is sat(S) = {x : x+k in S
    for some k in S}: the class of 0 under the cokernel congruence of S (see
    ``cokernel_by_submonoid``), a kernel and so normal, and inside every
    normal submonoid that contains S.

    S is a sum set. In a commutative monoid the submonoid generated by two
    submonoids K and G is K + G = {k + g}: it holds K and G, since each
    holds 0, it is closed, since (k+g) + (k'+g') = (k+k') + (g+g'), and
    any submonoid holding K and G holds every k + g. So S is the sum of the
    cyclic submonoids <a> = {0, a, 2a, ...} of the seed's members, and the
    join of two normal submonoids K and G, the normal closure of K u G, is
    sat(K + G).
    """
    if not M.commutative:
        raise NotCommutative("normal closure needs a commutative monoid")
    t = M.table
    generated = {0}
    for a in seed:
        if a not in generated:
            generated = _sum_set(t, generated, _cyclic(t, a))
    return _saturation(t, generated)


def normal_submonoids(M: FinMonoid) -> tuple[frozenset[int], ...]:
    """Every normal submonoid of a commutative monoid, ordered by size and
    then by sorted members.

    Every normal submonoid is the join of the closures of its members, so
    one pass finds them all: starting from {0}, each singleton closure G
    not found yet is joined with every key K found so far, as sat(K + G)
    (see ``normal_closure``), or as the one that holds the other.

    Only a sum set not seen yet is saturated, as a normal submonoid N is
    its own saturation: N lies in sat(N), as x = x + 0, and if x + s and s
    are in N, so is x, as N is the kernel of some f and f(x) = f(x) + f(s)
    = f(x + s) = 0. So a sum set that is a key, or an earlier join of this
    pass, is the join. In a group every K + G is a subgroup, so each key
    is saturated once.
    """
    if not M.commutative:
        raise NotCommutative("normal subobject enumeration needs a commutative monoid")
    t = M.table
    keys = {frozenset({0})}
    for x in range(M.size):
        g = normal_closure(M, frozenset({x}))
        if g not in keys:
            joins = {g}
            for k in keys:
                s = k if g <= k else g if k <= g else frozenset(_sum_set(t, k, g))
                joins.add(s if s in keys or s in joins else _saturation(t, s))
            keys |= joins
    return tuple(sorted(keys, key=lambda k: (len(k), sorted(k))))


def is_normal_epi(f: MonoidHom) -> bool:
    """Surjective and coinciding, up to the canonical iso, with the cokernel
    of its own kernel K. Each class of that cokernel lies in one fibre of f,
    as f(m + k) = f(m) for k in K, so the map it induces onto the codomain
    is a bijection exactly when the two have as many elements."""
    if not f.is_surjective():
        return False
    return cokernel_by_submonoid(f.dom, kernel_subset(f))[0].size == f.cod.size


def _iso_backtrack(M: FinMonoid, N: FinMonoid) -> Iterator[tuple[int, ...]]:
    """Identity-preserving bijections M -> N consistent with both tables,
    by backtracking with partial-table pruning."""
    n = M.size
    if n != N.size or M.commutative != N.commutative or M.idempotent != N.idempotent:
        return
    perm: list[int | None] = [None] * n
    used = [False] * n
    perm[0], used[0] = 0, True

    def consistent(upto: int) -> bool:
        for i in range(upto + 1):
            for j in range(upto + 1):
                k = M.table[i][j]
                v = N.table[perm[i]][perm[j]]
                if k <= upto:
                    if v != perm[k]:
                        return False
                elif used[v] :
                    return False  # image already taken by an assigned element
        return True

    def extend(i: int):
        if i == n:
            yield tuple(perm)  # type: ignore[arg-type]
            return
        for c in range(n):
            if used[c]:
                continue
            perm[i], used[c] = c, True
            if consistent(i):
                yield from extend(i + 1)
            perm[i], used[c] = None, False

    yield from extend(1)


def isomorphisms(M: FinMonoid, N: FinMonoid) -> Iterator[MonoidHom]:
    for perm in _iso_backtrack(M, N):
        yield _hom_unchecked(M, N, perm)

def find_isomorphism(M: FinMonoid, N: FinMonoid) -> MonoidHom | None:
    return next(isomorphisms(M, N), None)

@lru_cache(maxsize=None)
def are_isomorphic(M: FinMonoid, N: FinMonoid) -> bool:
    return find_isomorphism(M, N) is not None
