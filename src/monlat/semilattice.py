"""Monoidal semilattices (join-semilattices with a bottom) as commutative
idempotent monoids: construction from cover graphs, principal down-sets,
and the named fixtures used throughout the test suite.

Every finite order in the package is a list of up-set bitmasks (bit b of
``up[a]`` set when a <= b); b covers a when ``up[a] & down[b]`` holds just
a and b, and a and b have a join exactly when ``up[a] & up[b]`` is the
up-set of an element, which is then their join.
"""

from __future__ import annotations

from .monoid import FinMonoid, MonoidError, Subset, _monoid_unchecked, _Record


class SemilatticeError(MonoidError):
    pass


class NoBottom(SemilatticeError):
    SHOWN = 5  # minimal elements named in the message; the rest are counted


class NoJoin(SemilatticeError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"NoJoin({a},{b})")


class NotHasse(SemilatticeError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"NotHasse({a},{b})")


class NotAPartialOrder(SemilatticeError):
    pass


class CoverGraph(_Record):
    """A Hasse diagram: (a, b) in covers means a is covered by b."""

    __slots__ = _fields = ("size", "covers", "labels")

    def __init__(self, size: int, covers, labels: tuple[str, ...] | None = None):
        covers = tuple((int(a), int(b)) for a, b in covers)
        if size < 1:
            raise SemilatticeError("a cover graph needs at least one element")
        for a, b in covers:
            if not (0 <= a < size and 0 <= b < size) or a == b:
                raise SemilatticeError(f"bad cover pair ({a},{b})")
        if labels is not None and len(labels) != size:
            raise SemilatticeError("label count differs from element count")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "labels", labels)


def _reachable(size: int, covers) -> list[int]:
    """Up-set bitmasks of the reflexive-transitive closure of the covers:
    bit b of the a-th mask set when b is reachable from a."""
    up = [1 << a for a in range(size)]
    for a, b in covers:
        up[a] |= 1 << b
    for k in range(size):
        for i in range(size):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def up_sets(table) -> list[int]:
    """Up-set bitmasks of the order of a join table: a <= b when a v b = b."""
    return [sum(1 << b for b, t in enumerate(row) if t == b) for row in table]


def down_sets(up) -> list[int]:
    """The down-set bitmasks of an order given by its up-set bitmasks."""
    return [sum(1 << a for a, mask in enumerate(up) if mask >> b & 1) for b in range(len(up))]


def is_cover(up, down, a: int, b: int) -> bool:
    """Whether b covers a: the interval from a to b holds exactly a and b."""
    return (up[a] & down[b]).bit_count() == 2


def semilattice_from_covers(g: CoverGraph) -> FinMonoid:
    """Least-upper-bound table of a cover graph, as a commutative monoid.

    Elements are renumbered by a deterministic linear extension (layered
    sweep from the bottom, ties broken by original index), so the bottom
    lands at index 0 and equal inputs produce identical tables.
    """
    n = g.size
    # the order is checked on the elements the covers name, in their order,
    # so the work follows the covers given; every other element is
    # isolated, and so minimal
    named = sorted({x for pair in g.covers for x in pair}) or [0]
    index = {x: i for i, x in enumerate(named)}
    up = _reachable(len(named), [(index[a], index[b]) for a, b in g.covers])
    down = down_sets(up)
    for i, x in enumerate(named):
        equivalent = up[i] & down[i] & ~(1 << i)
        if equivalent:
            j = (equivalent & -equivalent).bit_length() - 1
            raise NotAPartialOrder(f"elements {x} and {named[j]} order-equivalent")
    for a, b in set(g.covers):
        if not is_cover(up, down, index[a], index[b]):
            raise NotHasse(a, b)
    minimal = [x for i, x in enumerate(named) if down[i] == 1 << i]
    minimal = sorted(minimal + [x for x in range(n) if x not in index])
    if len(minimal) != 1:
        shown = f"minimal elements: {minimal[:NoBottom.SHOWN]}"
        if len(minimal) > NoBottom.SHOWN:
            shown += f" ({len(minimal) - NoBottom.SHOWN} more)"
        raise NoBottom(shown)
    # one minimal element: every element is named, or n is 1, so the
    # indices are the elements'

    # layered linear extension: emit every element whose strict down-set is
    # already numbered, one layer at a time, ordered by original index
    new_index = [0] * n
    placed = 0
    while placed != (1 << n) - 1:
        layer = [i for i in range(n) if not placed >> i & 1 and down[i] & ~placed == 1 << i]
        for i in layer:
            new_index[i] = placed.bit_count()
            placed |= 1 << i
    above = {mask: t for t, mask in enumerate(up)}
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            t = above.get(up[a] & up[b])
            if t is None:
                raise NoJoin(a, b)
            table[new_index[a]][new_index[b]] = new_index[t]
    labels = None
    if g.labels is not None:
        labels = [""] * n
        for old, new in enumerate(new_index):
            labels[new] = str(g.labels[old])
        labels = tuple(labels)
    # the join table of an order with a least element and all joins is a monoid
    return _monoid_unchecked(tuple(tuple(row) for row in table), labels)


def require_semilattice(L: FinMonoid) -> None:
    if not L.is_semilattice:
        raise SemilatticeError("expected a commutative idempotent monoid")


def principal_downset(L: FinMonoid, a: int) -> Subset:
    require_semilattice(L)
    return Subset(L, frozenset(x for x in range(L.size) if L.op(x, a) == a))


# ---------------------------------------------------------------------------
# fixtures


def _from_labelled_covers(labels, cover_pairs) -> FinMonoid:
    idx = {name: i for i, name in enumerate(labels)}
    covers = tuple((idx[a], idx[b]) for a, b in cover_pairs)
    return semilattice_from_covers(CoverGraph(len(labels), covers, tuple(labels)))


def trivial() -> FinMonoid:
    return FinMonoid(((0,),), ("0",))


def chain(n: int) -> FinMonoid:
    """The n-element chain 0 < 1 < ... < n-1 under max."""
    if n < 1:
        raise SemilatticeError("chain needs at least one element")
    table = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
    return _monoid_unchecked(table, tuple(str(i) for i in range(n)))


def pentagon() -> FinMonoid:
    """The five-element non-modular lattice: 0 < C < B < A and 0 < D < A."""
    return _from_labelled_covers(
        ["0", "A", "B", "C", "D"],
        [("0", "C"), ("C", "B"), ("B", "A"), ("0", "D"), ("D", "A")],
    )


def diamond() -> FinMonoid:
    """The five-element modular non-distributive lattice: three atoms a, b, c."""
    return _from_labelled_covers(
        ["0", "1", "a", "b", "c"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def six_lattice() -> FinMonoid:
    """The six-element lattice with covers 0<D, 0<E, D<B, D<C, E<C, B<A, C<A."""
    return _from_labelled_covers(
        ["0", "A", "B", "C", "D", "E"],
        [("0", "D"), ("0", "E"), ("D", "B"), ("D", "C"), ("E", "C"), ("B", "A"), ("C", "A")],
    )


def bool2() -> FinMonoid:
    """The 2x2 Boolean lattice: 0 < a, b < 1."""
    return _from_labelled_covers(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    )


def klein_four() -> FinMonoid:
    """The group Z2 x Z2. A group, not a semilattice; kept with the fixtures
    because its subgroup lattice is the diamond."""
    return FinMonoid(
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
        ("0", "g", "h", "k"),
    )


_FIXTURE_BUILDERS = {
    "N5": pentagon,
    "M3": diamond,
    "L6": six_lattice,
    "bool2": bool2,
    "V4": klein_four,
    "triv": trivial,
}


# the largest chainN fixture: one word of argv builds an N x N table
CHAIN_FIXTURE_MAX = 256


def _chain_digits(name: str) -> str | None:
    """The digits N of a name spelled chainN or chain(N), either parenthesis
    optional, or None. Digits are Unicode decimals, as a regex's \\d."""
    if not name.startswith("chain"):
        return None
    digits = name.removeprefix("chain").removeprefix("(").removesuffix(")")
    return digits if digits.isdecimal() else None


def fixture(name: str) -> FinMonoid:
    """Look up a named fixture; chains are spelled chainN or chain(N), for
    N up to ``CHAIN_FIXTURE_MAX``."""
    if name in _FIXTURE_BUILDERS:
        return _FIXTURE_BUILDERS[name]()
    digits = _chain_digits(name)
    if digits is not None:
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(CHAIN_FIXTURE_MAX)) or int(digits) > CHAIN_FIXTURE_MAX:
            raise SemilatticeError(f"chain fixtures go up to chain{CHAIN_FIXTURE_MAX}")
        return chain(int(digits))
    raise KeyError(f"unknown fixture {name!r}")

