"""Enumeration of all finite monoidal semilattices (equivalently, finite
lattices) up to isomorphism.

Everything rests on natural labellings: element 0 is the bottom and every
element's label is larger than the labels of the elements below it. A join
table is n*n bytes, row-major, so byte order is lexicographic table order.

The generator builds every natural labelling of every lattice exactly once,
appending one element k at a time above a down-closed set of the elements
placed so far, and fills the join table as it goes: a pair's join is the
first element placed above both. Until then entry p holds the code n + p,
past the labels (so n is at most 15), and placing k is one ``translate``
that turns the codes of the pairs below k into k. A pair with a join
outside k's down-set would get two incomparable minimal upper bounds, which
no later element repairs. So k may go above a down-set only if every pair
in it that has a join has it inside, and that exact pruning rule is one
``itemgetter`` per placement. The top needs no test: its down-set holds
every join, and the pairs still without a join get the top itself.
Meets need no rule of their own. In a finite order with a bottom in which
every pair with an upper bound has a least one, the lower bounds of a pair
are joined pairwise below both members of the pair, so their join is the
pair's meet.

A lattice is presented by its canonical join table: the lexicographically
minimal table over all its natural labellings. Those labellings are exactly
what the generator emits for its isomorphism class, so after sorting the
emitted tables the first table of each class is the class's canonical table.
Accepting it marks all of its natural relabellings as seen, and every later
table already marked is skipped: deduplication needs no isomorphism search.
The natural labellings are the linear extensions of the order, and swapping
adjacent labels i and i+1 of incomparable elements reaches all of them:
where two extensions first differ, the element x the second puts there
comes later in the first, and each element between is neither below x (the
second puts x before it) nor above x (the first puts it before x), so x
moves forward past incomparable neighbours until the two agree one place
further. A swap is one ``translate`` that exchanges the labels, then two
slice exchanges that exchange rows and columns i and i+1. It undoes itself,
so the walk never tries the swap that reached a table on that table.

Each representative is built once, as the lattice of its order, and that
lattice's joins must be the emitted table: the one check that the search
emitted a lattice, which makes the table a monoid, so it skips the O(n^3)
axiom scan. The monoids and ``enumerate``'s covers and verdicts are read
off the one cached census of these lattices.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .monoid import FinMonoid, _monoid_unchecked
from .nsub import NSubLattice, lattice_from_join_table


def _feasible(join: bytes, pairs, allowed: frozenset) -> bool:
    """Whether the next element may go above a down-set: ``pairs`` reads the
    entries of the pairs in it, and ``allowed`` holds its members and the
    codes of pairs without a join."""
    return allowed.issuperset(pairs(join))


def _natural_tables(n: int) -> list[bytes]:
    """Join tables of every naturally labelled lattice of size n.

    ``ideals`` holds the down-closed subsets (containing 0) of the elements
    placed so far; the new element k goes above one of them, and the ideals
    of the extended order are the old ones plus I | {k} for each old I that
    contains k's strict down-set. The last element must be the top.
    """
    if n == 1:
        return [b"\0"]
    codes = range(n, n + n * n)
    places: dict[int, bytes] = {}
    tests: dict[int, tuple] = {}

    def place(down: int) -> bytes:
        """The translation that makes the top element of ``down`` the join of
        every pair in ``down`` that has none yet."""
        if down not in places:
            members = [a for a in range(n) if down >> a & 1]
            pairs = bytes(n + a * n + b for a in members for b in members)
            places[down] = bytes.maketrans(pairs, bytes([members[-1]]) * len(pairs))
        return places[down]

    def test(mask: int) -> tuple:
        # entry (0, 0) twice makes itemgetter return a tuple even without pairs
        if mask not in tests:
            members = [a for a in range(n) if mask >> a & 1]
            pairs = [a * n + b for a in members for b in members if 0 < a < b]
            tests[mask] = (itemgetter(0, 0, *pairs), frozenset(codes).union(members))
        return tests[mask]

    found: list[bytes] = []
    top = place((1 << n) - 1)

    def extend(join: bytes, k: int, ideals: list[int]):
        if k == n - 1:
            found.append(join.translate(top))
            return
        bit = 1 << k
        for mask in ideals:
            if _feasible(join, *test(mask)):
                grown = ideals + [i | bit for i in ideals if i & mask == mask]
                extend(join.translate(place(mask | bit)), k + 1, grown)

    extend(bytes(codes).translate(place(1)), 1, [1])
    return found


def _swaps(n: int) -> list[tuple[int, int, bytes, slice, slice, slice, slice]]:
    """For each i < n - 2: i, the entry (i, i+1), the translation that
    exchanges labels i and i+1, and the slices of rows and columns i and
    i+1. The top, n - 1, is comparable to everything, so it never swaps."""
    out = []
    for i in range(n - 2):
        labels = bytes.maketrans(bytes([i, i + 1]), bytes([i + 1, i]))
        rows = slice(i * n, (i + 1) * n), slice((i + 1) * n, (i + 2) * n)
        out.append((i, i * n + i + 1, labels, *rows, slice(i, None, n), slice(i + 1, None, n)))
    return out


def _relabellings(table: bytes, swaps) -> set[bytes]:
    """Tables of every natural labelling of a naturally labelled lattice,
    reached from ``table`` by swapping adjacent incomparable labels. A swap
    is its own inverse, so the swap that reached a table is not tried on it."""
    seen = {table}
    todo = [(table, -1)]
    while todo:
        t, came = todo.pop()
        for i, entry, labels, row, row1, col, col1 in swaps:
            # i and i+1 are comparable exactly when their join is i+1
            if i != came and t[entry] != i + 1:
                u = bytearray(t.translate(labels))
                u[row], u[row1] = u[row1], u[row]
                u[col], u[col1] = u[col1], u[col]
                u = bytes(u)
                if u not in seen:
                    seen.add(u)
                    todo.append((u, i))
    return seen


def _lattice(table: bytes, n: int) -> NSubLattice:
    """The lattice of a join table's order, which must have the table as
    its joins: the up-set of a join is the intersection of the up-sets of
    the pair."""
    rows = tuple(tuple(table[a * n : (a + 1) * n]) for a in range(n))
    try:
        lat = lattice_from_join_table(rows)
    except RuntimeError:
        raise RuntimeError("search emitted a non-lattice") from None
    if lat.join != rows:
        raise RuntimeError("search emitted a non-lattice")
    return lat


@lru_cache(maxsize=None)
def census_lattices(n: int) -> tuple[NSubLattice, ...]:
    """All lattices with n elements up to isomorphism, each the lattice of
    its canonical table, sorted lexicographically by that table; none for
    n < 1."""
    if n < 1:
        return ()
    if n > 15:
        raise ValueError("the census stores an entry or its code in one byte: n <= 15")
    swaps = _swaps(n)
    seen: set[bytes] = set()
    reps = []
    for table in sorted(_natural_tables(n)):
        if table not in seen:
            seen |= _relabellings(table, swaps)
            reps.append(_lattice(table, n))
    return tuple(reps)


def lattices_of_size(n: int) -> tuple[FinMonoid, ...]:
    """All lattices with n elements up to isomorphism, as the monoids of
    their canonical join tables, in ``census_lattices`` order."""
    return tuple(_monoid_unchecked(lat.join, None) for lat in census_lattices(n))


def lattices_up_to(max_size: int) -> list[FinMonoid]:
    return [L for n in range(1, max_size + 1) for L in lattices_of_size(n)]
