"""Objects of the tower and the lattice of normal subobjects of each.

An object is a commutative monoid (depth 0) or a ``SesObject``, a short
exact sequence of any depth stored flat as its innermost monoid and one
normal member set per level; ``make_ses`` adds a level. Every object of the
tower shares the lattice of its innermost commutative monoid, built once
per monoid from inclusion of its normal submonoids and returned as that one
cached value. A lattice is its join and meet tables: a <= b when a v b = b.
Every lattice here, that one or a semilattice's own, is built from up-set
bitmasks of its order by one function: the up-set of a v b is the
intersection of those of a and b, the down-set of a ^ b that of their
down-sets, so each bound is one lookup keyed by a mask, and
``semilattice.mask_table`` reads every pair's. Modularity and
distributivity are decided in O(n²) from the lattice's masks and covers, by
heights and join-irreducibles. A failing lattice's witness, its first
pentagon or diamond sublattice, is read off a pair and a third in O(n³).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from . import monoid as mn
from .semilattice import down_sets, heights, is_cover, mask_table, require_semilattice, up_sets


class SesInvariantError(RuntimeError):
    """``make_ses`` was handed a sub leg that is not a normal mono.

    This never fires on correct inputs; it exists so a misreading of the
    kernel/cokernel recipes would be reported loudly instead of silently
    producing a malformed object.
    """


class SesObject(NamedTuple):
    """A short exact sequence at depth d = len(marks), stored flat.

    ``monoid`` is the innermost commutative monoid M and ``marks`` the
    member sets (K1, ..., Kd) of normal submonoids of M, innermost level
    first: the object at level i is the one at level i-1 with the sub whose
    innermost members are Ki. Every leg of the nested sequence is read off
    these sets: at level i the sub is the submonoid on Ki with the marks
    Kj & Ki (j < i), and the quotient is M/Ki with the normal closures of
    the images of those Kj.
    """

    monoid: mn.FinMonoid
    marks: tuple[frozenset[int], ...]


def innermost(X) -> tuple[mn.FinMonoid, tuple[frozenset[int], ...]]:
    """An object's innermost monoid and its marks: a monoid has none."""
    return (X.monoid, X.marks) if isinstance(X, SesObject) else (X, ())


def make_ses(base, key) -> SesObject:
    """The short exact sequence over ``base``, a monoid or a SesObject, whose
    sub is the one on ``key``, a normal member set of base's innermost
    monoid M: base with one more mark. The sub leg is re-checked to be a
    normal mono (its mark squares are pullbacks by construction, so M decides)
    and a violation raises SesInvariantError. The sub leg is then the kernel
    of the quotient leg, the normal closure of key (``cokernel_by_submonoid``),
    as a normal submonoid is its own saturation (``normal_submonoids``)."""
    M, marks = innermost(base)
    if not mn.is_normal_submonoid(M, key)[0]:
        raise SesInvariantError("sub leg is not a normal mono: image-not-normal")
    return SesObject(M, marks + (key,))


# ---------------------------------------------------------------------------
# the lattice of normal subobjects


class LatticeWitness(mn._Record):
    """A pentagon or diamond sublattice: its kind, its sorted elements and their names."""

    __slots__ = _fields = ("kind", "elements", "names")

    def __init__(self, kind: str, elements: tuple[int, ...], names: tuple[str, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "names", names)


class NSubLattice(mn._Record):
    """A finite lattice with elements indexed 0..n-1, given by its join and
    meet tables: a <= b when ``join[a][b] == b``.

    A lattice of normal submonoids carries their member sets as ``keys``,
    the canonical subobject keys of every context; a lattice built from a
    raw join table has none. ``up`` and ``down`` are the up- and down-set
    bitmasks of the order (bit b of ``up[a]`` set when a <= b); they are
    read off the join table when not given, and take no part in equality.
    """

    _fields = ("join", "meet", "top", "bottom", "names", "keys")

    def __init__(self, join, meet, top: int, bottom: int, names: tuple[str, ...],
                 keys: tuple = (), up: tuple[int, ...] = (), down: tuple[int, ...] = ()):
        up = up or tuple(up_sets(join))
        down = down or tuple(down_sets(up))
        self.__dict__.update(join=join, meet=meet, top=top, bottom=bottom, names=names,
                             keys=keys, up=up, down=down)

    @property
    def size(self) -> int:
        return len(self.join)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (a, b), a covered by b, in sorted order. Only the
        members a of b's down-set are tested."""
        up, down = self.up, self.down
        out = []
        for b, mask in enumerate(down):
            below = mask & ~(1 << b)
            while below:
                a = (below & -below).bit_length() - 1
                below &= below - 1
                if is_cover(up, down, a, b):
                    out.append((a, b))
        return tuple(sorted(out))

    def index_of_key(self, key) -> int:
        return self.keys.index(key)


def _lattice_from_order(up, names, keys=()) -> NSubLattice:
    """The lattice of a finite order given by up-set bitmasks (bit b of
    ``up[a]`` set when a <= b). The join of a and b is the element whose
    up-set is ``up[a] & up[b]``, the meet the one whose down-set is
    ``down[a] & down[b]``, and the top and bottom those whose down-set or
    up-set holds everything. Callers pass lattices, so a mask that is no
    element's is a broken internal invariant."""
    down = down_sets(up)
    everything = (1 << len(up)) - 1
    above = {mask: x for x, mask in enumerate(up)}
    below = {mask: x for x, mask in enumerate(down)}
    try:
        join, meet = mask_table(up, above.__getitem__), mask_table(down, below.__getitem__)
        top, bottom = below[everything], above[everything]
    except KeyError:
        raise RuntimeError("order is not a lattice") from None
    return NSubLattice(join, meet, top, bottom, tuple(names), keys, tuple(up), tuple(down))


def lattice_from_join_table(table, names=None) -> NSubLattice:
    """Lattice structure of a finite monoidal semilattice given by its joins:
    a <= b when a v b = b."""
    names = names if names is not None else map(str, range(len(table)))
    return _lattice_from_order(up_sets(table), names)


def lattice_of_semilattice(L: mn.FinMonoid) -> NSubLattice:
    require_semilattice(L)
    return lattice_from_join_table(L.table, tuple(L.label(i) for i in range(L.size)))


@lru_cache(maxsize=None)
def _monoid_lattice(M: mn.FinMonoid) -> NSubLattice:
    """The lattice of normal submonoids of a commutative monoid under
    inclusion, indexed in ``monoid.normal_submonoids`` order."""
    keys = mn.normal_submonoids(M)
    up = [sum(1 << j for j, b in enumerate(keys) if a <= b) for a in keys]
    return _lattice_from_order(up, map(M.render_subset, keys), keys)


def enumerate_nsub(X) -> NSubLattice:
    """The lattice of normal subobjects of X, a monoid or a SesObject.

    At every depth of the tower the normal subobjects of X are those of its
    innermost monoid (keyed by their member sets, in the same order), and
    kernels, cokernels and composites act on the innermost maps, so the
    lattice is the innermost monoid's, one value shared by every object over
    it.
    """
    return _monoid_lattice(innermost(X)[0])


# ---------------------------------------------------------------------------
# modularity and distributivity: two O(n²) tests decide, a sublattice witnesses


def lattice_verdicts(lat) -> tuple[bool, bool]:
    """Whether the lattice is modular: the height h(x), the longest chain
    from the bottom, has h(x) + h(y) = h(x v y) + h(x ^ y) for all x, y
    (Birkhoff; h is strictly monotone, so a pentagon breaks it). Whether it
    is distributive: modular, and x -> {join-irreducibles <= x} (injective,
    keeps meets) keeps joins. Join-irreducibles have one lower cover."""
    height, lower = heights(lat.down, lat.covers)
    for hx, Jx, Mx in zip(height, lat.join, lat.meet):
        if any(hx + hy != height[j] + height[m] for hy, j, m in zip(height, Jx, Mx)):
            return False, False
    irreducible = sum(1 << x for x, covers in enumerate(lower) if len(covers) == 1)
    ji = [mask & irreducible for mask in lat.down]
    return True, all(ji[t] == a | b for a, Jx in zip(ji, lat.join) for b, t in zip(ji, Jx))


def _find_sublattice(lat, kind: str) -> LatticeWitness | None:
    """The lexicographically first pentagon or diamond sublattice, read off
    as {x ^ z, x, y, z, x v z}. Pentagon: x < y, x ^ z = y ^ z and x v z =
    y v z, so z is beside both and the five are distinct and closed.
    Diamond: x, y incomparable, and z meets and joins each as they meet and
    join each other. Each such sublattice arises this way, so the least
    sorted set is the first 5-subset of the kind. Only a table that is not a
    lattice fails a verdict with none: there fewer than five may coincide."""
    pentagon = kind == "pentagon"

    def spans():
        for x, (Jx, Mx) in enumerate(zip(lat.join, lat.meet)):
            for y, (Jy, My) in enumerate(zip(lat.join, lat.meet)):
                if (x != y and Jx[y] == y) if pentagon else (x < y and Jx[y] not in (x, y)):
                    bounds = None if pentagon else (Mx[y], Jx[y])
                    for z, m, m1, j, j1 in zip(range(lat.size), Mx, My, Jx, Jy):
                        if m == m1 and j == j1 and bounds in (None, (m, j)):
                            yield tuple(sorted({m, x, y, z, j}))

    first = min((five for five in spans() if len(five) == 5), default=None)
    return first and LatticeWitness(kind, first, tuple(lat.names[e] for e in first))


def is_modular(lat: NSubLattice) -> tuple[bool, LatticeWitness | None]:
    """Modularity by the height identity. By Dedekind's theorem a lattice
    that is not modular has a pentagon sublattice, so only a failing lattice
    is searched, for its first pentagon as the witness."""
    if lattice_verdicts(lat)[0]:
        return True, None
    return False, _find_sublattice(lat, "pentagon")


def is_distributive(lat: NSubLattice) -> tuple[bool, LatticeWitness | None]:
    """Distributivity by the join-irreducible test. A failing lattice has a
    pentagon or, by Birkhoff's theorem, a diamond sublattice: a non-modular
    one gets its first pentagon as the witness, a modular one its first
    diamond."""
    modular, distributive = lattice_verdicts(lat)
    if distributive:
        return True, None
    return False, _find_sublattice(lat, "diamond" if modular else "pentagon")
