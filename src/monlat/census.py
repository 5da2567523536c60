"""Enumeration of all finite monoidal semilattices (equivalently, finite
lattices) up to isomorphism.

The generator extends linear extensions one element at a time: prefixes of a
linear extension are down-closed, so meets are already present, and a pair
acquiring two incomparable minimal upper bounds can never be repaired later.
Both facts give exact pruning rules. Emitted structures are deduplicated up
to isomorphism and presented by a canonical join table: the lexicographically
minimal table over all bottom-preserving relabelings along linear extensions.
"""

from __future__ import annotations

from functools import lru_cache
from .monoid import FinMonoid, find_isomorphism


def _down_closed_subsets(down: list[int], k: int) -> list[int]:
    """Bitmasks over elements 0..k-1 that contain 0 and are down-closed."""
    out = []
    for mask in range(1, 1 << k, 2):  # bit 0 always set
        if all(not (mask >> j & 1) or (down[j] & mask) == down[j] for j in range(k)):
            out.append(mask)
    return out


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _extension_feasible(down: list[int], up: list[int]) -> bool:
    """Exact feasibility after appending one element, checking only what the
    new element can break.

    Prefixes of a linear extension are down-closed, so the common lower
    bounds of old pairs never change; only pairs involving the new element
    need the unique-maximal-lower-bound test. Dually, the new element may
    become a second minimal upper bound of a pair it dominates, and such a
    defect can never be repaired later.
    """
    new = len(down) - 1
    dn = down[new]
    for i in range(new):
        lb = down[i] & dn
        count = 0
        rest = lb
        while rest:
            b = rest & -rest
            rest ^= b
            if up[b.bit_length() - 1] & lb == b:
                count += 1
                if count > 1:
                    return False
    strict = dn ^ (1 << new)
    left = strict
    while left:
        bi = left & -left
        left ^= bi
        right = strict & ~((bi << 1) - 1)
        ui = up[bi.bit_length() - 1]
        while right:
            bj = right & -right
            right ^= bj
            ubs = ui & up[bj.bit_length() - 1]
            count = 0
            rest = ubs
            while rest:
                b = rest & -rest
                rest ^= b
                if down[b.bit_length() - 1] & ubs == b:
                    count += 1
                    if count > 1:
                        break
            if count > 1:
                return False
    return True


def _has_unique_top(up: list[int]) -> bool:
    """With unique minimal upper bounds enforced throughout, a completed
    poset is a lattice exactly when it has a single maximal element."""
    return sum(1 for t, u in enumerate(up) if u == 1 << t) == 1


def _join_table(down: list[int], up: list[int]) -> tuple[tuple[int, ...], ...]:
    n = len(down)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ubs = up[i] & up[j]
            least = [t for t in _iter_bits(ubs) if down[t] & ubs == 1 << t]
            assert len(least) == 1, "search emitted a non-lattice"
            table[i][j] = least[0]
    return tuple(tuple(row) for row in table)


def _naturally_labelled_lattices(n: int):
    """All (lattice, linear extension) pairs of size n, as join tables."""
    if n == 1:
        yield ((0,),)
        return
    found = []

    def extend(down: list[int], up: list[int]):
        k = len(down)
        if k == n:
            found.append(_join_table(down, up))
            return
        for mask in _down_closed_subsets(down, k):
            down.append(mask | (1 << k))
            up.append(1 << k)
            for j in _iter_bits(mask):
                up[j] |= 1 << k
            if _extension_feasible(down, up) and (k + 1 < n or _has_unique_top(up)):
                extend(down, up)
            for j in _iter_bits(mask):
                up[j] &= ~(1 << k)
            up.pop()
            down.pop()

    extend([1], [1])
    yield from found


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


def _inverse_order(perm, n):
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


@lru_cache(maxsize=None)
def lattices_of_size(n: int) -> tuple[FinMonoid, ...]:
    """All lattices with n elements up to isomorphism, canonical tables,
    sorted lexicographically."""
    classes: dict[tuple, list[FinMonoid]] = {}
    for table in _naturally_labelled_lattices(n):
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
    all_reps = [M for bucket in classes.values() for M in bucket]
    canon = sorted(canonical_join_table(M.table) for M in all_reps)
    return tuple(FinMonoid(t) for t in canon)


def lattices_up_to(max_size: int) -> list[FinMonoid]:
    out: list[FinMonoid] = []
    for n in range(1, max_size + 1):
        out.extend(lattices_of_size(n))
    return out
