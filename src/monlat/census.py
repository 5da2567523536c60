"""Enumeration of all finite monoidal semilattices (equivalently, finite
lattices) up to isomorphism.

Everything rests on natural labellings: element 0 is the bottom and every
element's label is larger than the labels of the elements below it.

The generator builds every natural labelling of every lattice exactly once,
appending one element at a time above a down-closed set of the elements
placed so far. A pair that acquires two incomparable minimal upper bounds can
never be repaired later, which gives an exact pruning rule, and the rule is
one mask test per pair: under a natural labelling a set of upper bounds has
a least element exactly when its lowest-labelled member lies below all the
others. Meets need no rule of their own. In a finite order with a bottom in
which every pair with an upper bound has a least one, the lower bounds of a
pair are joined pairwise below both members of the pair, so their join is
the pair's meet.

A lattice is presented by its canonical join table: the lexicographically
minimal table over all its natural labellings. Those labellings are exactly
what the generator emits for its isomorphism class, so after sorting the
emitted tables the first table of each class is the class's canonical table.
Accepting it marks all of its natural relabellings (its linear extensions)
as seen, and every later table already marked is skipped: deduplication
needs no isomorphism search. Tables are packed into one int each, row-major
with the first entry most significant and a fixed width per entry, so
integer order is lexicographic table order; only the representatives are
unpacked and validated as monoids.
"""

from __future__ import annotations

from functools import lru_cache

from .monoid import FinMonoid


def _entry_bits(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _extension_feasible(down: list[int], up: list[int]) -> bool:
    """Exact feasibility after appending one element, checking only what the
    new element can break: the least upper bound of each pair of elements
    below it."""
    new = len(down) - 1
    strict = down[new] ^ (1 << new)
    left = strict
    while left:
        bi = left & -left
        left ^= bi
        ui = up[bi.bit_length() - 1]
        right = left
        while right:
            bj = right & -right
            right ^= bj
            ubs = ui & up[bj.bit_length() - 1]
            if up[(ubs & -ubs).bit_length() - 1] & ubs != ubs:
                return False
    return True


def _packed_join_table(up: list[int], bits: int) -> int:
    packed = 0
    for ui in up:
        for uj in up:
            ubs = ui & uj
            t = (ubs & -ubs).bit_length() - 1
            if up[t] & ubs != ubs:
                raise RuntimeError("search emitted a non-lattice")
            packed = packed << bits | t
    return packed


def _unpack(packed: int, n: int) -> tuple[tuple[int, ...], ...]:
    bits = _entry_bits(n)
    mask = (1 << bits) - 1
    flat = [packed >> (bits * (n * n - 1 - k)) & mask for k in range(n * n)]
    return tuple(tuple(flat[a * n : (a + 1) * n]) for a in range(n))


def _natural_tables(n: int) -> list[int]:
    """Packed join tables of every naturally labelled lattice of size n.

    ``ideals`` holds the down-closed subsets (containing 0) of the elements
    placed so far; the new element k goes above one of them, and the ideals
    of the extended order are the old ones plus I | {k} for each old I that
    contains k's strict down-set. The last element must be the top.
    """
    bits = _entry_bits(n)
    found: list[int] = []

    def extend(down: list[int], up: list[int], ideals: list[int]):
        k = len(down)
        if k == n:
            found.append(_packed_join_table(up, bits))
            return
        bit = 1 << k
        for mask in ideals if k + 1 < n else (bit - 1,):
            down.append(mask | bit)
            up.append(bit)
            for j in range(k):
                if mask >> j & 1:
                    up[j] |= bit
            if _extension_feasible(down, up):
                extend(down, up, ideals + [i | bit for i in ideals if i & mask == mask])
            for j in range(k):
                if mask >> j & 1:
                    up[j] ^= bit
            up.pop()
            down.pop()

    extend([1], [1], [1])
    return found


def _relabellings(table, bits: int) -> set[int]:
    """Packed tables of every natural labelling of a naturally labelled
    lattice, one per linear extension of its order."""
    n = len(table)
    down = [sum(1 << a for a in range(n) if table[a][b] == b) for b in range(n)]
    order: list[int] = []
    pos = [0] * n
    out: set[int] = set()

    def extend(placed: int):
        if len(order) == n:
            packed = 0
            for a in order:
                row = table[a]
                for b in order:
                    packed = packed << bits | pos[row[b]]
            out.add(packed)
            return
        for i in range(n):
            if down[i] & ~placed == 1 << i:
                pos[i] = len(order)
                order.append(i)
                extend(placed | 1 << i)
                order.pop()

    extend(0)
    return out


@lru_cache(maxsize=None)
def lattices_of_size(n: int) -> tuple[FinMonoid, ...]:
    """All lattices with n elements up to isomorphism, canonical tables,
    sorted lexicographically."""
    bits = _entry_bits(n)
    seen: set[int] = set()
    reps = []
    for packed in sorted(_natural_tables(n)):
        if packed in seen:
            continue
        M = FinMonoid(_unpack(packed, n))
        reps.append(M)
        seen |= _relabellings(M.table, bits)
    return tuple(reps)


def lattices_up_to(max_size: int) -> list[FinMonoid]:
    out: list[FinMonoid] = []
    for n in range(1, max_size + 1):
        out.extend(lattices_of_size(n))
    return out
