import importlib
from types import ModuleType

# every public name the ``monlat`` package exports
EXPORTS = (
    "CheckReport", "CheckWitness", "CoverGraph", "FinMonoid", "InvalidMonoid",
    "LatticeWitness", "MonoidError", "MonoidHom", "NSubLattice", "SesObject", "Subset",
    "bool2", "chain", "cokernel_by_submonoid", "diamond", "diexact_check", "dpn_check",
    "enumerate_nsub", "fixture", "is_distributive", "is_modular", "is_normal_submonoid",
    "kernel_subset", "klein_four", "lattice_of_semilattice", "lattices_of_size",
    "lattices_up_to", "make_ses", "normal_closure", "pentagon", "principal_downset",
    "pullback_stability_check", "run_check", "second_iso_check", "semilattice_from_covers",
    "six_lattice", "third_iso_check", "validate_monoid",
)


def test_every_export_imports():
    monlat = importlib.import_module("monlat")
    for name in EXPORTS:
        assert getattr(monlat, name).__module__.startswith("monlat."), name


def test_exports_are_exactly_the_list():
    monlat = importlib.import_module("monlat")
    public = {
        name
        for name, value in vars(monlat).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(EXPORTS)
