"""The lattice of normal subobjects of an object in any context.

Every object of the context tower shares the lattice of its innermost
commutative monoid, built once per monoid from inclusion of its normal
submonoids and returned as that one cached value. A lattice is its join
and meet tables: a <= b when a v b = b. Every lattice here, that one or a
semilattice's own, is built from up-set bitmasks of its order by one
function: joins and meets are least upper bounds in the order and in its
dual. Modularity and distributivity are decided in O(n²) from heights and
join-irreducibles; a failing lattice then gets its first pentagon or
diamond sublattice as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import monoid as mn
from .semilattice import down_sets, is_cover, least_upper_bound, up_sets


@dataclass(frozen=True)
class LatticeWitness:
    kind: str  # pentagon | diamond
    elements: tuple[int, ...]
    names: tuple[str, ...]

    def render(self) -> str:
        return f"{self.kind}[{';'.join(self.names)}]"


@dataclass(frozen=True)
class NSubLattice:
    """A finite lattice with elements indexed 0..n-1, given by its join and
    meet tables: a <= b when ``join[a][b] == b``.

    A lattice of normal submonoids carries their member sets as ``keys``,
    the canonical subobject keys of every context; a lattice built from a
    raw join table has none.
    """

    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    top: int
    bottom: int
    names: tuple[str, ...]
    keys: tuple = ()

    @property
    def size(self) -> int:
        return len(self.join)

    def index_of_key(self, key) -> int:
        return self.keys.index(key)


def _bounds(masks) -> tuple[tuple[int, ...], ...]:
    n = len(masks)
    table = tuple(tuple(least_upper_bound(masks, a, b) for b in range(n)) for a in range(n))
    if any(None in row for row in table):
        raise RuntimeError("order is not a lattice")
    return table


def _lattice_from_order(up, names, keys=()) -> NSubLattice:
    """The lattice of a finite order given by up-set bitmasks (bit b of
    ``up[a]`` set when a <= b): joins are least upper bounds, meets least
    upper bounds in the dual order, and the top and bottom are the elements
    whose down-set or up-set holds everything. Callers pass lattices, so a
    missing bound is a broken internal invariant."""
    down = down_sets(up)
    everything = (1 << len(up)) - 1
    return NSubLattice(
        join=_bounds(up),
        meet=_bounds(down),
        top=down.index(everything),
        bottom=up.index(everything),
        names=tuple(names),
        keys=keys,
    )


def lattice_from_join_table(table, names=None) -> NSubLattice:
    """Lattice structure of a finite monoidal semilattice given by its joins:
    a <= b when a v b = b."""
    names = names if names is not None else map(str, range(len(table)))
    return _lattice_from_order(up_sets(table), names)


def lattice_of_semilattice(L: mn.FinMonoid) -> NSubLattice:
    if not L.is_semilattice:
        raise mn.MonoidError("expected a commutative idempotent monoid")
    return lattice_from_join_table(L.table, tuple(L.label(i) for i in range(L.size)))


@lru_cache(maxsize=None)
def _monoid_lattice(M: mn.FinMonoid) -> NSubLattice:
    """The lattice of normal submonoids of a commutative monoid under
    inclusion, indexed in ``monoid.normal_submonoids`` order."""
    keys = mn.normal_submonoids(M)
    up = [sum(1 << j for j, b in enumerate(keys) if a <= b) for a in keys]
    return _lattice_from_order(up, map(M.render_subset, keys), keys)


def enumerate_nsub(ctx, X) -> NSubLattice:
    """The lattice of normal subobjects of X in ctx.

    At every depth of the tower the normal subobjects of X are those of its
    innermost monoid (keyed by their member sets, in the same order), and
    kernels, cokernels and composites act on the innermost maps, so the
    lattice is the innermost monoid's, one value shared by every object over
    it. ``ctx.normal_subobject_monos(X)`` lists the subobjects' monos in the
    lattice's order.
    """
    return _monoid_lattice(ctx.innermost_object(X))


# ---------------------------------------------------------------------------
# modularity and distributivity: two O(n²) tests decide, a sublattice witnesses


def lattice_verdicts(lat) -> tuple[bool, bool]:
    """Whether the lattice is modular: the height h(x), the longest chain
    from the bottom, has h(x) + h(y) = h(x v y) + h(x ^ y) for all x, y
    (Birkhoff; h is strictly monotone, so a pentagon breaks it). Whether it
    is distributive: modular, and x -> {join-irreducibles <= x} (injective,
    keeps meets) keeps joins. Join-irreducibles have one lower cover."""
    up = up_sets(lat.join)
    down = down_sets(up)
    lower = [[y for y in range(lat.size) if is_cover(up, down, y, x)] for x in range(lat.size)]
    height = [0] * lat.size
    for x in sorted(range(lat.size), key=lambda x: down[x].bit_count()):
        height[x] = max((height[y] + 1 for y in lower[x]), default=0)
    for hx, Jx, Mx in zip(height, lat.join, lat.meet):
        if any(hx + hy != height[j] + height[m] for hy, j, m in zip(height, Jx, Mx)):
            return False, False
    irreducible = sum(1 << x for x, covers in enumerate(lower) if len(covers) == 1)
    ji = [mask & irreducible for mask in down]
    return True, all(ji[t] == a | b for a, Jx in zip(ji, lat.join) for b, t in zip(ji, Jx))


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


def _find_sublattice(lat, kind: str) -> LatticeWitness | None:
    """The lexicographically first 5-subset forming the given sublattice. A
    failing verdict finds none only on tables that are not a lattice."""
    for combo in combinations(range(lat.size), 5):
        if _sublattice_shape(lat, combo) == kind:
            return LatticeWitness(kind, combo, tuple(lat.names[e] for e in combo))
    return None


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
