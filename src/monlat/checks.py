"""Per-object verifiers for the homological frameworks.

Each checker sweeps the normal subobjects of one object, a commutative
monoid or a SesObject, and returns a CheckReport at the object's depth, its
number of marks, with replayable witnesses.
Every verdict is read off the lattice L (join v, meet ^) of normal
submonoids of the object's innermost commutative monoid M; categorical
tables that build every map are the reference in the test suite. A pair
fails at (M, (K1, ..., Kd)) when it fails in the table of M or of some mark
Ki: every map a checker builds carries the marks level by level, and the
recognizers test the innermost map and then each level.

At depth 0, write c_W(A) for the classes of M/W that meet A, which the
cokernel's class array gives. The antinormal composite f: Y >-> M ->> M/Z
is normal exactly when its comparison u: Y/(Y^Z) -> ker(coker f) is
bijective, as a bijective monoid map is an isomorphism, and:

- ker f = Y^Z, as Z is the kernel of M ->> M/Z;
- ker(coker f) = q_Z(YvZ): the preimage of a normal submonoid of M/Z is
  normal and holds Z, so the least one holding q_Z(Y) is the image of YvZ;
- the congruence Y^Z generates on Y is the restriction of the one it
  generates on M, as the witnesses are the same, so Y/(Y^Z) has
  |c_(Y^Z)(Y)| elements.

u sends the class of y to q_Z(y), so its image q_Z(Y) has |c_Z(Y)|
elements: u is injective when |c_Z(Y)| = |c_(Y^Z)(Y)| and surjective when
|c_Z(Y)| = |c_Z(YvZ)|. ``_antinormal_failures`` counts these classes, and:

- hsd never fails. For X <= Y normal in M, Y/X -> M/X is injective, as X's
  congruence on Y is the restriction of its congruence on M, and has a
  saturated image, as [m]+[y] = [y'] gives m+(y+x) = y'+x' in Y.
- stability never fails. For K <= T normal in M, the pullback of
  M ->> M/K along T/K >-> M/K is the restriction T ->> T/K of the epi to
  the preimage T, whose kernel is K. It identifies t and t' exactly when
  t+k = t'+l for some k, l in K, which is the congruence K generates on T,
  so it is the cokernel of K >-> T. A case is a pair K <= T; the check is
  defined at depth 0 only, and its mark rule raises.
- secondiso's primal entry (Y, Z) is the antinormal entry (Y, Z), as the
  middle comparison of Y >-> M ->> M/Z runs from Y/(Y^Z) to (YvZ)/Z, and
  its dual entry the antinormal entry (Z, Y), as by the first lemma the
  kernel of M/A ->> M/B is B/A.

A normal submonoid of M/A is the image of exactly one of M above A, so each
mark a checker meets is named by an element of L, and a bijective map is an
isomorphism (a square a pullback) when the elements naming the marks it
compares are equal. So a mark K fails the pair when:

- hsd, X <= Y: (Y^K)vX != Y^(KvX), as Y/X has the mark (Y^K)vX and M/X the
  mark KvX; since YvX = Y, this is the antinormal identity at (Y, X). No
  pair fails exactly when K is a modular element of L (Stern, 1999);
- dpn and diexact, (Y, Z): (Y^K)vZ != (YvZ)^(KvZ), the marks of Y/(Y^Z)
  carried into M/Z and of the kernel (YvZ)/Z of the cokernel, noted
  'induced map not invertible' where the depth-0 entry passes. No pair fails
  exactly when K is dually standard; in a modular L, standard, dually
  standard and neutral coincide (Gratzer, General Lattice Theory, III.2);
- secondiso primal: (Y^K)vZ != ((YvZ)^K)vZ, the latter the mark of the
  cokernel (YvZ)/Z of Z >-> YvZ;
- secondiso dual: ((Kv(Y^Z))^Z)vY != (KvY)^(YvZ), the marks of the kernel
  Z/(Y^Z) of M/(Y^Z) ->> M/Z carried into M/Y, and of the kernel (YvZ)/Y
  of M/Y ->> M/(YvZ).

Laws of L decide these identities for every mark at once, so a sweep with
marks reads ``lattice_verdicts`` before it builds any mark table, and
where a law applies gives every object the depth-0 report:

- L distributive: no mark fails a pair of hsd, secondiso, dpn or diexact.
  hsd's identity is the modular law. dpn's and diexact's is the dual
  distributive law, (YvZ)^(KvZ) = (Y^K)vZ. In secondiso's primal identity
  ((YvZ)^K)vZ = (Y^K)v(Z^K)vZ = (Y^K)vZ, and both sides of the dual one
  are (K^Z)vY: (Kv(Y^Z))^Z = (K^Z)v(Y^Z), and (KvY)^(YvZ) = Yv(K^Z).
- L modular: no mark fails a pair of hsd, by the modular law.
- L modular: each mark's dpn table is symmetric. (Y^K)vZ <= (YvZ)^(KvZ)
  in any lattice. In a modular one the height h (the longest chain from
  the bottom) is strictly monotone and h(a)+h(b) = h(avb)+h(a^b), so the
  two sides are equal when their heights are, and the heights differ by
  h(Y)+h(Z)+h(K) - h(Y^Z) - h(Y^K) - h(K^Z) - h(YvZvK) + h(Y^Z^K), which
  is symmetric in Y and Z (Gratzer, General Lattice Theory, I.3-4). A dpn
  witness is a pair failing one way only, so when the depth-0 table is
  symmetric as well no object fails. When it is not, every mark table is
  built.
"""

from __future__ import annotations

from itertools import product

from .monoid import _Record, cokernel_by_submonoid
from .nsub import enumerate_nsub, innermost, is_distributive, is_modular, lattice_verdicts


class CheckWitness(_Record):
    """A failing configuration: canonical subobject keys plus display names."""

    __slots__ = _fields = ("keys", "names", "note")

    def __init__(self, keys: tuple, names: tuple[str, ...], note: str = ""):
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "note", note)

    def render(self) -> str:
        body = ";".join(self.names)
        return f"({body})" + (f":{self.note}" if self.note else "")


class CheckReport(_Record):
    __slots__ = _fields = ("prop", "obj", "depth", "passed", "witnesses", "cases")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, prop: str, obj: str, depth: int, passed: bool,
                 witnesses: tuple[CheckWitness, ...], cases: int):
        self.prop = prop
        self.obj = obj
        self.depth = depth
        self.passed = passed
        self.witnesses = witnesses
        self.cases = cases

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def result_line(self) -> str:
        witness = self.witnesses[0].render() if self.witnesses else "-"
        return (
            f"RESULT\tobject={self.obj}\tproperty={self.prop}\tdepth={self.depth}"
            f"\tstatus={self.status}\tcases={self.cases}\twitness={witness}"
        )


def _pair_witnesses(lat, table) -> list[CheckWitness]:
    """One witness per failing pair (i, j) of ``table``, in the table's
    order, noted with the pair's failure."""
    keys, names = lat.keys, lat.names
    return [
        CheckWitness((keys[i], keys[j]), (names[i], names[j]), failure)
        for (i, j), failure in table.items()
    ]


def third_iso_check(Z, name="object") -> CheckReport:
    """Third Isomorphism Property at one object: for X <= Y normal in Z, the
    induced map Y/X -> Z/X must be a normal mono (equivalently, Y/X is a
    kernel of Z/X -> Z/Y). The witness note localizes which normality clause
    broke."""
    return _sweep("hsd", Z, 0, name)[0]


def second_iso_check(X, name="object") -> CheckReport:
    """Second Isomorphism Property at one object.

    For each ordered pair (Y, Z) of normal subobjects, the canonical
    comparison Y/(Y^Z) -> (YvZ)/Z must be an isomorphism. The equivalent
    formulations (the composite Y >-> YvZ ->> (YvZ)/Z is a normal map, or
    a normal epi) are not evaluated here. The dual statement (the
    canonical map between the kernels of X/(Y^Z) -> X/Z and of
    X/Y -> X/(YvZ) is an isomorphism) is evaluated in the same sweep.
    At depth 0 the dual comparison for (Y, Z) is the primal one for (Z, Y),
    and both are read off the antinormal table. At a mark K the primal one
    fails when (Y^K)vZ != ((YvZ)^K)vZ and the dual one when
    ((Kv(Y^Z))^Z)vY != (KvY)^(YvZ), as the module docstring proves.

    The comparisons are the canonical induced maps, never a search for an
    abstract isomorphism: on the hexagon lattice (two 3-chains glued at both
    ends) there is a pair whose two sides are abstractly isomorphic 3-chains
    while the canonical map collapses two classes, and it is the canonical
    map that the exactness of the corresponding grid needs.
    """
    return _sweep("secondiso", X, 0, name)[0]


def _antinormal_failures(M, lat) -> dict[tuple[int, int], str]:
    """Which antinormal composites Y >-> M ->> M/Z are not normal maps: the
    pair (y, z) of indices into ``lat``, the lattice of M, maps to the reason
    when the composite of the y-th normal submonoid with the cokernel of the
    z-th is not normal, and is absent when it is. The reasons are read off
    the class counts of the module docstring; a pair with Y <= Z passes, as
    each of its counts is 1."""
    classes = [cokernel_by_submonoid(M, key)[1].mapping for key in lat.keys]
    counts = [[len(set(map(c.__getitem__, key))) for key in lat.keys] for c in classes]
    table = {}
    for y, z in product(range(lat.size), repeat=2):
        if counts[z][y] != counts[lat.meet[y][z]][y]:
            table[y, z] = "induced map not injective"
        elif counts[z][y] != counts[z][lat.join[y][z]]:
            table[y, z] = "induced map not surjective"
    return table


def _dpn_witnesses(lat, table) -> list[CheckWitness]:
    """A witness per ordered pair (Y, Z) where exactly one of Z >-> X ->> X/Y
    and its dinverse Y >-> X ->> X/Z is normal, noted with the normal one."""
    pairs = product(range(lat.size), repeat=2)
    return _pair_witnesses(lat, {
        (iy, iz): "dinverse-normal" if (iz, iy) in table else "map-normal"
        for iy, iz in pairs
        if ((iz, iy) in table) != ((iy, iz) in table)
    })


def dpn_check(X, name="object") -> CheckReport:
    """Dinversion preserves normal maps, tested on one object: for each
    ordered pair (Y, Z), the composite Z >-> X ->> X/Y is normal exactly when
    its dinverse Y >-> X ->> X/Z is; both are read off diexact's table."""
    return _sweep("dpn", X, 0, name)[0]


def diexact_check(X, name="object") -> CheckReport:
    """Local di-exactness: every antinormal composite Y >-> X ->> X/Z through
    this object is a normal map. A witness note is how its comparison
    Y/(Y^Z) -> (YvZ)/Z fails to be an isomorphism."""
    return _sweep("diexact", X, 0, name)[0]


def pullback_stability_check(X, name="object") -> CheckReport:
    """Pullbacks of normal epis along normal monos are normal epis: for
    K <= T normal in X, the pullback of X ->> X/K along T/K >-> X/K. On a
    commutative monoid no pair fails, as the module docstring proves; an
    object above depth 0 raises ValueError."""
    return _sweep("stability", X, 0, name)[0]


def modular_check(X, name="object") -> CheckReport:
    return _sweep("modular", X, 0, name)[0]


def distributive_check(X, name="object") -> CheckReport:
    return _sweep("distributive", X, 0, name)[0]


def _lattice_witnesses(lat, verdict) -> list[CheckWitness]:
    ok, witness = verdict
    return [] if ok else [CheckWitness((), witness.names, witness.kind)]


# ---------------------------------------------------------------------------
# failure tables: one of the innermost monoid, one per mark


def _no_failures(*_) -> dict:
    """hsd's and stability's depth-0 table."""
    return {}


def _base_context_only(*_):
    raise ValueError("the stability check is defined on the base context only")


def _second_iso_base(M, lat) -> dict[tuple[int, int], str]:
    """secondiso's depth-0 table: the antinormal entry (y, z) is its primal
    entry (y, z) and its dual entry (z, y)."""
    table = _antinormal_failures(M, lat)
    dual = {(z, y): "dual" for y, z in table}
    return _either_comparison([dict.fromkeys(table, "primal"), dual])


def _hsd_at_mark(lat, k) -> dict[tuple[int, int], str]:
    """The pairs x <= y with (y^k)vx != y^(kvx)."""
    J, M = lat.join, lat.meet
    return {
        (x, y): "left-square-not-pullback"
        for x, y in product(range(lat.size), repeat=2)
        if J[x][y] == y and J[M[y][k]][x] != M[y][J[k][x]]
    }


def _second_iso_at_mark(lat, k) -> dict[tuple[int, int], str]:
    """(y^k)vz != ((yvz)^k)vz fails the primal, ((kv(y^z))^z)vy != (kvy)^(yvz) the dual."""
    J, M = lat.join, lat.meet
    pairs = list(product(range(lat.size), repeat=2))
    return _either_comparison([
        {(y, z): "primal" for y, z in pairs if J[M[y][k]][z] != J[M[J[y][z]][k]][z]},
        {(y, z): "dual" for y, z in pairs if J[M[J[k][M[y][z]]][z]][y] != M[J[k][y]][J[y][z]]},
    ])


def _antinormal_at_mark(lat, k) -> dict[tuple[int, int], str]:
    """The pairs (y, z) with (y^k)vz != (yvz)^(kvz)."""
    J, M = lat.join, lat.meet
    return {
        (y, z): "induced map not invertible"
        for y, z in product(range(lat.size), repeat=2)
        if J[M[y][k]][z] != M[J[y][z]][J[k][z]]
    }


# ---------------------------------------------------------------------------
# combining the tables of an object's innermost monoid and of its marks


def _merged(tables, join=lambda old, new: old) -> dict:
    """The pairs failing in any of the tables, in pair order. A pair that
    fails in several gets ``join`` of their failures, by default the first:
    that serves dpn's and diexact's reasons, since the depth-0 table comes
    first and a mark's own reason is always 'induced map not invertible'."""
    merged = {}
    for table in tables:
        for pair, failure in table.items():
            merged[pair] = join(merged[pair], failure) if pair in merged else failure
    return dict(sorted(merged.items()))


def _either_comparison(tables) -> dict:
    """secondiso's note names the comparisons that fail in any table."""
    return _merged(
        tables, lambda old, new: "+".join(tag for tag in ("primal", "dual") if tag in old + new)
    )


def _first_failing_level(tables) -> dict:
    """hsd's note names the first level that fails: a failure of a mark
    below the top fails the base map of the whole sequence; a failure of the
    top mark alone is its left square. The depth-0 table is empty."""
    *lower, top = tables
    return _merged([dict.fromkeys(table, "beta-not-normal-mono") for table in lower] + [top])


def _ordered_pairs(lat) -> int:
    return lat.size**2


def _nested_pairs(lat) -> int:  # the pairs X <= Y
    return sum(mask.bit_count() for mask in lat.up)


def _triples(lat) -> int:
    return lat.size**3


# How each property is decided: (the failure table of the innermost monoid M,
# that of one mark, the witnesses, the case count, and how the table of M and
# those of the marks K1, ..., Kd combine into the table of (M, (K1, ..., Kd))).
# A verdict on the lattice has neither mark entry; stability's mark rule raises.
_RULES = {
    "hsd": (_no_failures, _hsd_at_mark, _pair_witnesses, _nested_pairs, _first_failing_level),
    "secondiso": (
        _second_iso_base, _second_iso_at_mark, _pair_witnesses, _ordered_pairs, _either_comparison
    ),
    "dpn": (_antinormal_failures, _antinormal_at_mark, _dpn_witnesses, _ordered_pairs, _merged),
    "diexact": (_antinormal_failures, _antinormal_at_mark, _pair_witnesses, _ordered_pairs, _merged),
    "modular": (lambda M, lat: is_modular(lat), None, _lattice_witnesses, _triples, None),
    "distributive": (lambda M, lat: is_distributive(lat), None, _lattice_witnesses, _triples, None),
    "stability": (_no_failures, _base_context_only, _pair_witnesses, _nested_pairs, None),
}


def _marks_change_nothing(prop, lat, bottom) -> bool:
    """Whether a law of ``lat`` gives every object over M the depth-0
    report, ``bottom`` being M's table (see the module docstring)."""
    if prop not in ("hsd", "secondiso", "dpn", "diexact"):
        return False
    modular, distributive = lattice_verdicts(lat)
    if distributive or modular and prop == "hsd":
        return True
    return modular and prop == "dpn" and all((z, y) in bottom for y, z in bottom)


def _sweep(prop, X, depth, name) -> list[CheckReport]:
    """The reports of ``prop`` on the objects over X with ``depth`` more
    marks, in ``run_check``'s order. The table of X's innermost monoid M is
    built once. Where no mark can change the depth-0 report (the objects
    have none, the property is a verdict on the lattice, or a law of the
    lattice decides every mark) every object gets it; otherwise the table of
    each mark is built on its first use."""
    M, keys = innermost(X)
    lat = enumerate_nsub(M)
    base, at_mark, witnesses, count_cases, combine = _RULES[prop]
    bottom, cases = base(M, lat), count_cases(lat)
    own, labels = tuple(map(lat.index_of_key, keys)), [f"|sub={label}" for label in lat.names]
    objects = [
        (name + "".join([labels[k] for k in marks]), own + marks)
        for marks in product(range(lat.size), repeat=depth)
    ]
    if not (own or depth) or at_mark is None or _marks_change_nothing(prop, lat, bottom):
        found = tuple(witnesses(lat, bottom))
        return [CheckReport(prop, nm, len(marks), not found, found, cases) for nm, marks in objects]
    tables, reports = {}, []
    for nm, marks in objects:
        for k in marks:
            if k not in tables:
                tables[k] = at_mark(lat, k)
        found = tuple(witnesses(lat, combine([bottom] + [tables[k] for k in marks])))
        reports.append(CheckReport(prop, nm, len(marks), not found, found, cases))
    return reports


CHECKS = {
    "hsd": third_iso_check,
    "secondiso": second_iso_check,
    "dpn": dpn_check,
    "diexact": diexact_check,
    "modular": modular_check,
    "distributive": distributive_check,
    "stability": pullback_stability_check,
}


def run_check(prop: str, X, depth: int = 0, name: str = "object") -> list[CheckReport]:
    """Run one named property on every ses object over X at the given depth:
    the objects (M, (K1, ..., Kd)) over X's innermost monoid M whose marks
    are X's own and then ``depth`` more, those running through
    ``itertools.product`` of the normal submonoids of M, the last mark
    fastest.

    Depth 0 (or less) runs the property's checker on X. At depth >= 1 the
    sweep builds no object: it reads the depth-0 table of M and the table of
    each mark once, by the lattice identities of the module docstring, and
    combines them for every object as the checker on it does. Where a law
    of the lattice decides every mark, it builds no mark table.
    """
    if depth <= 0:
        return [CHECKS[prop](X, name)]
    return _sweep(prop, X, depth, name)
