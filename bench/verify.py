"""Correctness of every CLI call a benchmark run makes.

A call fails when its worker crashed or printed a traceback, when its exit
code or output is wrong, or when it breaks a known answer. Wrong means:

- seed 0: stdout and exit code differ from the golden bytes recorded at the
  commit that defined the benchmark (golden/seed0.json);
- any seed: the verdict signature (exit code plus the multiset of statuses
  and case counts, which relabelling the input cannot change) differs from
  the one recorded for the same isomorphism class (golden/verdicts.json).

Known answers that do not come from monlat:

- lattice census totals (OEIS A006966) and the numbers of modular
  (A006981) and distributive (A006982) lattices among them;
- the subgroup count of an abelian group, counted here by closure;
- subgroup lattices of abelian groups are modular (Dedekind), and
  distributive exactly when the group is cyclic (Ore);
- on one object, diexact pass implies hsd pass, and distributive pass
  implies modular pass;
- paper-examples reproduces 4/4.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

A006966 = (1, 1, 1, 2, 5, 15, 53, 222)  # lattices with n elements
A006981 = (1, 1, 1, 2, 4, 8, 16, 34)  # modular lattices
A006982 = (1, 1, 1, 2, 3, 5, 8, 15)  # distributive lattices

RESULT = re.compile(
    r"RESULT\tobject=(?P<obj>[^\t]*)\tproperty=(?P<prop>\w+)\tdepth=(?P<depth>\d+)"
    r"\tstatus=(?P<status>pass|fail)\tcases=(?P<cases>\d+)\twitness=.*"
)


def load_golden() -> tuple[dict, dict]:
    seed0 = json.loads((GOLDEN / "seed0.json").read_text())
    verdicts = json.loads((GOLDEN / "verdicts.json").read_text())
    return seed0, verdicts


def signature(call, code, stdout: str):
    """What an isomorphic copy of the input must reproduce exactly."""
    if call.kind == "check":
        lines = [m for m in map(RESULT.fullmatch, stdout.splitlines()) if m]
        return [code, sorted(f"{m['prop']}/{m['depth']}/{m['status']}/{m['cases']}" for m in lines)]
    if call.kind == "nsub":
        lines = stdout.splitlines()
        return [code, lines[0] if lines else "", sum(ln.startswith("cover ") for ln in lines)]
    return [code, stdout]


def subgroup_count(factors: tuple[int, ...]) -> int:
    """Subgroups of Z_m1 x ... x Z_mk, found by closing under one more
    generator until nothing new appears."""

    def close(gens):
        seen = {tuple(0 for _ in factors)}
        frontier = list(seen)
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = tuple((x + y) % m for x, y, m in zip(a, g, factors))
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return frozenset(seen)

    elems = list(itertools.product(*(range(m) for m in factors)))
    found = {close([])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in elems:
            if g not in h:
                k = close(list(h) + [g])
                if k not in found:
                    found.add(k)
                    frontier.append(k)
    return len(found)


def is_cyclic(factors) -> bool:
    return all(math.gcd(a, b) == 1 for a, b in itertools.combinations(factors, 2))


def known_answer_problems(call, code, stdout: str, plan) -> list[str]:
    """Known answers for one call that do not depend on monlat."""
    problems = []
    if call.kind == "enumerate":
        n = int(call.argv[-1])
        counts = [int(c) for c in re.findall(r"^# size \d+: (\d+)$", stdout, re.M)]
        if counts != list(A006966[:n]):
            problems.append(f"census counts {counts}")
        if stdout.count("modular=yes") != sum(A006981[:n]):
            problems.append("modular lattice count")
        if stdout.count("distributive=yes") != sum(A006982[:n]):
            problems.append("distributive lattice count")
    elif call.kind == "paper-examples":
        if code != 0 or not stdout.endswith("# 4/4 reproduced\n"):
            problems.append("paper examples not 4/4")
    elif call.input in plan.groups:
        factors = plan.groups[call.input]
        if call.kind == "nsub":
            want = subgroup_count(factors)
            if not stdout.startswith(f"lattice {want}\n"):
                problems.append(f"subgroup lattice size, want {want}")
        elif "modular" in call.argv:
            if code != 0 or "status=pass" not in stdout:
                problems.append("abelian group lattice not modular")
        elif "distributive" in call.argv:
            want = "pass" if is_cyclic(factors) else "fail"
            if f"status={want}" not in stdout:
                problems.append(f"distributive should be {want}")
    return problems


def implication_problems(outputs: list[str]) -> list[str]:
    """Within one round: diexact pass => hsd pass, distributive pass =>
    modular pass, on every object where both properties ran."""
    status = {}
    for stdout in outputs:
        for m in filter(None, map(RESULT.fullmatch, stdout.splitlines())):
            status[(m["obj"], m["depth"], m["prop"])] = m["status"]
    problems = []
    for (obj, depth, prop), st in status.items():
        for strong, weak in (("diexact", "hsd"), ("distributive", "modular")):
            if prop == strong and st == "pass" and status.get((obj, depth, weak)) == "fail":
                problems.append(f"{obj} depth {depth}: {strong} passes but {weak} fails")
    return problems
