"""The four bundled counterexample scenarios, replayed end to end.

Each scenario asserts the exact expected outcome (witness pairs, class
partitions, localization of the failure) and reports the first divergent
step by name. Together they certify the strictness of the inclusion chain

    z-exact  >  homologically self-dual  >  DPN  >  di-exact

on desk-scale objects: the pentagon separates the middle two levels at both
depths, and the Klein four-group separates the last at depth one.
"""

from __future__ import annotations

from .checks import diexact_check, dpn_check, third_iso_check
from .monoid import FinMonoid, _Record, cokernel_by_submonoid, compose, inclusion_hom
from .nsub import enumerate_nsub, is_distributive, is_modular, make_ses
from .semilattice import klein_four, pentagon, principal_downset, six_lattice


class ScenarioResult(_Record):
    __slots__ = _fields = ("name", "ok", "detail", "skipped")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, name: str, ok: bool, detail: str, skipped: bool = False):
        self.name = name
        self.ok = ok
        self.detail = detail
        self.skipped = skipped

    def line(self) -> str:
        status = "skip" if self.skipped else ("ok" if self.ok else "MISMATCH")
        return f"scenario {self.name}: {status} ({self.detail})"


def _subset_key(L: FinMonoid, *label_names: str) -> frozenset:
    return frozenset(L.element(x) for x in label_names)


def scenario_pentagon_dpn() -> ScenarioResult:
    """Dinversion fails to preserve normal maps on the pentagon: with
    Y = the down-set of B and Z = the down-set of D, the composite
    Z >-> X ->> X/Y is an isomorphism while its dinverse collapses B and C."""
    name = "pentagon-dpn"
    L = pentagon()
    down_b = _subset_key(L, "0", "C", "B")
    down_d = _subset_key(L, "0", "D")

    report = dpn_check(L, "N5")
    if report.passed:
        return ScenarioResult(name, False, "step dpn-verdict: expected failure, got pass")
    if not any(w.keys == (down_b, down_d) for w in report.witnesses):
        return ScenarioResult(name, False, "step dpn-witness: pair (downB,downD) not reported")

    alpha = compose(cokernel_by_submonoid(L, down_b)[1], inclusion_hom(L, down_d))
    if not alpha.is_bijective():
        return ScenarioResult(name, False, "step alpha: expected an isomorphism")
    beta = compose(cokernel_by_submonoid(L, down_d)[1], inclusion_hom(L, down_b))
    if beta.mapping != (0, 1, 1):
        return ScenarioResult(name, False, f"step beta: image table {beta.mapping} != (0,1,1)")
    cls_of_a = beta.cod.label(1)
    if set(cls_of_a.strip("{}").split(",")) != {"C", "B", "A"}:
        return ScenarioResult(name, False, "step beta: B and C do not land in the class of A")
    return ScenarioResult(name, True, "witness (downB,downD); dinverse collapses B,C to A")


def scenario_six_lattice_quotient() -> ScenarioResult:
    """Quotient of the six-element lattice by the down-set of E: classes
    {A,B}, {C,D}, {E,0} and a three-chain quotient ordered A > C > E."""
    name = "six-lattice-quotient"
    L = six_lattice()
    members = principal_downset(L, L.element("E")).members
    Q, proj = cokernel_by_submonoid(L, members)
    classes: dict[int, set[str]] = {}
    for x in range(L.size):
        classes.setdefault(proj(x), set()).add(L.label(x))
    expected = [{"E", "0"}, {"C", "D"}, {"A", "B"}]
    got = sorted(classes.values(), key=sorted)
    if sorted(expected, key=sorted) != got:
        return ScenarioResult(name, False, f"step classes: {got}")
    # the quotient must be the 3-chain with class(E) < class(C) < class(A)
    order = {frozenset(classes[q]): q for q in classes}
    e_cls, c_cls, a_cls = (
        order[frozenset({"E", "0"})],
        order[frozenset({"C", "D"})],
        order[frozenset({"A", "B"})],
    )
    chain_ok = (
        Q.op(e_cls, c_cls) == c_cls
        and Q.op(c_cls, a_cls) == a_cls
        and Q.op(e_cls, a_cls) == a_cls
        and Q.size == 3
    )
    if not chain_ok:
        return ScenarioResult(name, False, "step order: quotient is not the chain A > C > E")
    return ScenarioResult(name, True, "classes {A,B},{C,D},{E,0}; quotient chain A > C > E")


def scenario_pentagon_ses_third_iso(ses_depth: int = 1) -> ScenarioResult:
    """Over the pentagon at ses depth 1, the third isomorphism property fails
    on the totally normal pair (downC, 0) <= (downB, 0) inside (N5, downD),
    because the left square of the induced quotient comparison is not a
    pullback."""
    name = "pentagon-ses-third-iso"
    if ses_depth < 1:
        return ScenarioResult(name, False, "needs ses depth >= 1", skipped=True)
    L = pentagon()
    S = make_ses(L, _subset_key(L, "0", "D"))
    report = third_iso_check(S, "N5|sub={0,D}")
    if report.passed:
        return ScenarioResult(name, False, "step verdict: expected failure, got pass")
    want = (_subset_key(L, "0", "C"), _subset_key(L, "0", "C", "B"))
    hits = [w for w in report.witnesses if w.keys == want]
    if not hits:
        return ScenarioResult(name, False, "step witness: triple (downC,0)<=(downB,0) not reported")
    if hits[0].note != "left-square-not-pullback":
        return ScenarioResult(name, False, f"step localization: {hits[0].note}")
    return ScenarioResult(name, True, "failure at (downC,0)<=(downB,0), left square not a pullback")


def scenario_klein_four_ses_diexact(ses_depth: int = 1) -> ScenarioResult:
    """The Klein four-group is locally di-exact, its subgroup lattice is the
    diamond (modular, not distributive), and di-exactness fails one ses level
    up, on (V4, G) with the antinormal pair built from H and K."""
    name = "klein-four-ses-diexact"
    V = klein_four()
    base = diexact_check(V, "V4")
    if not base.passed:
        return ScenarioResult(name, False, "step depth-0: expected pass")
    lat = enumerate_nsub(V)
    modular, _ = is_modular(lat)
    distributive, witness = is_distributive(lat)
    if not modular or distributive or witness.kind != "diamond":
        return ScenarioResult(name, False, "step lattice: expected a diamond")
    if ses_depth < 1:
        return ScenarioResult(name, False, "needs ses depth >= 1", skipped=True)
    S = make_ses(V, _subset_key(V, "0", "g"))
    report = diexact_check(S, "V4|sub={0,g}")
    if report.passed:
        return ScenarioResult(name, False, "step depth-1: expected failure, got pass")
    h_key, k_key = _subset_key(V, "0", "h"), _subset_key(V, "0", "k")
    if not any(set(w.keys) == {h_key, k_key} for w in report.witnesses):
        return ScenarioResult(name, False, "step witness: pair with subs H,K not reported")
    return ScenarioResult(name, True, "diamond; depth-1 failure over (V4,G) with subs H,K")


def run_reference_scenarios(ses_depth: int = 1) -> list[ScenarioResult]:
    return [
        scenario_pentagon_dpn(),
        scenario_six_lattice_quotient(),
        scenario_pentagon_ses_third_iso(ses_depth),
        scenario_klein_four_ses_diexact(ses_depth),
    ]
