from itertools import product

import pytest
from hypothesis import strategies as st

from monlat import lattices_of_size
from monlat.context import cmon_context, ses_context
from monlat.monoid import FinMonoid, cokernel_by_submonoid, normal_submonoids, submonoid
from monlat.semilattice import (
    bool2,
    chain,
    diamond,
    klein_four,
    pentagon,
    six_lattice,
    trivial,
)


@pytest.fixture(scope="session")
def cmon():
    return cmon_context()


@pytest.fixture(scope="session")
def ses1(cmon):
    return ses_context(cmon)


@pytest.fixture(scope="session")
def N5():
    return pentagon()


@pytest.fixture(scope="session")
def M3():
    return diamond()


@pytest.fixture(scope="session")
def L6():
    return six_lattice()


@pytest.fixture(scope="session")
def V4():
    return klein_four()


def named_commutative_monoids():
    """The named commutative fixtures used across the property suites."""
    return {
        "triv": trivial(),
        "chain2": chain(2),
        "chain3": chain(3),
        "chain4": chain(4),
        "bool2": bool2(),
        "N5": pentagon(),
        "M3": diamond(),
        "L6": six_lattice(),
        "V4": klein_four(),
    }


@pytest.fixture(scope="session")
def commutative_fixtures():
    return named_commutative_monoids()


def down(M, *names):
    """Member set of the down-set generated by the named elements (for a
    semilattice this is the principal down-set of their join)."""
    out = {0}
    for x in range(M.size):
        if any(M.op(x, M.element(n)) == M.element(n) for n in names):
            out.add(x)
    return frozenset(out)


def abelian_group(*orders):
    """The group Z_m1 x ... x Z_mk, elements in lexicographic order of their
    coordinates (the identity first)."""
    elems = list(product(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(elems)}
    return FinMonoid(
        tuple(
            tuple(index[tuple((x + y) % m for x, y, m in zip(a, b, orders))] for b in elems)
            for a in elems
        )
    )


def multiplicative_monoid(n):
    """(Z_n, *), element i the residue (i + 1) mod n, so the identity 1
    comes first, each labelled with its residue."""
    return FinMonoid(
        tuple(tuple(((a + 1) * (b + 1) % n - 1) % n for b in range(n)) for a in range(n)),
        tuple(str((i + 1) % n) for i in range(n)),
    )


def truncated_monoid(n):
    """{0..n} under min(a + b, n)."""
    return FinMonoid(tuple(tuple(min(a + b, n) for b in range(n + 1)) for a in range(n + 1)))


def product_monoid(A, B):
    """A x B, elements in lexicographic order of their coordinates."""
    pairs = list(product(range(A.size), range(B.size)))
    index = {p: i for i, p in enumerate(pairs)}
    return FinMonoid(
        tuple(tuple(index[A.op(a, c), B.op(b, d)] for c, d in pairs) for a, b in pairs)
    )


def mixed_monoids():
    """Commutative monoids that, apart from the two-element chains (Z2, *)
    and truncated {0, 1}, are neither semilattices nor groups: (Z_n, *) for
    n = 2..12, {0..n} under truncated addition for n = 1..5, and products
    of them."""
    out = {f"Z{n}mul": multiplicative_monoid(n) for n in range(2, 13)}
    out.update({f"trunc{n}": truncated_monoid(n) for n in range(1, 6)})
    pairs = (("Z3mul", "Z3mul"), ("Z4mul", "trunc2"), ("trunc2", "trunc3"), ("Z3mul", "Z4mul"))
    for a, b in pairs:
        out[f"{a}x{b}"] = product_monoid(out[a], out[b])
    return out


# the factors of the drawn products: census lattices of size <= 4 and the
# mixed monoids of size <= 6, so a product has at most 36 elements
SMALL_FACTORS = [L for n in range(1, 5) for L in lattices_of_size(n)] + [
    M for M in mixed_monoids().values() if M.size <= 6
]


@st.composite
def products_and_quotients(draw):
    """A product of two small factors, or its quotient by a normal submonoid."""
    M = product_monoid(draw(st.sampled_from(SMALL_FACTORS)), draw(st.sampled_from(SMALL_FACTORS)))
    if draw(st.booleans()):
        M = cokernel_by_submonoid(M, draw(st.sampled_from(normal_submonoids(M))))[0]
    return M


# the monoids whose drawn submonoids meet the exhaustive nsub oracles
SUBMONOID_HOSTS = list(named_commutative_monoids().values()) + list(mixed_monoids().values())


@st.composite
def drawn_submonoids(draw):
    """The submonoid that up to three drawn elements generate in a named
    fixture or a mixed monoid."""
    M = draw(st.sampled_from(SUBMONOID_HOSTS))
    members = {0} | draw(st.sets(st.integers(0, M.size - 1), max_size=3))
    todo = list(members)
    while todo:
        a = todo.pop()
        for c in {M.op(a, b) for b in members} - members:
            members.add(c)
            todo.append(c)
    return submonoid(M, frozenset(members))


def closure_oracle_families():
    """The commutative monoids the normal-closure oracles run on, by family:
    the named fixtures, every census lattice up to size 7, the mixed
    monoids, whose cyclic submonoids have tails, and the groups Z2^4,
    Z2xZ4, Z3^3 and Z6xZ2^2."""
    families = {
        "fixtures": list(named_commutative_monoids().values()),
        "census": [L for n in range(1, 8) for L in lattices_of_size(n)],
        "mixed": list(mixed_monoids().values()),
    }
    for orders in ((2, 2, 2, 2), (2, 4), (3, 3, 3), (6, 2, 2)):
        families["Z" + "xZ".join(map(str, orders))] = [abelian_group(*orders)]
    return families
