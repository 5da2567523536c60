"""Kernels, cokernels and normal-subobject lattices of finite commutative
monoids and monoidal semilattices, with per-object verifiers for homological
self-duality, preservation of normal maps by dinversion, and di-exactness."""

from .census import lattices_of_size, lattices_up_to
from .checks import (
    CheckReport,
    CheckWitness,
    diexact_check,
    dpn_check,
    pullback_stability_check,
    run_check,
    second_iso_check,
    third_iso_check,
)
from .monoid import (
    FinMonoid,
    InvalidMonoid,
    MonoidError,
    MonoidHom,
    Subset,
    cokernel_by_submonoid,
    is_normal_submonoid,
    kernel_subset,
    normal_closure,
    validate_monoid,
)
from .nsub import (
    LatticeWitness,
    NSubLattice,
    SesObject,
    enumerate_nsub,
    is_distributive,
    is_modular,
    lattice_of_semilattice,
    make_ses,
)
from .semilattice import (
    CoverGraph,
    bool2,
    chain,
    diamond,
    fixture,
    klein_four,
    pentagon,
    principal_downset,
    semilattice_from_covers,
    six_lattice,
)

__version__ = "0.1.0"
