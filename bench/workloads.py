"""Seeded inputs and round plans for the three benchmark workloads.

The program only ever sees the files written here: semilattices as cover
lists, abelian groups as XOR or mod-n addition tables. A seed fixes every
random choice: which census lattices and groups are drawn, the element
numbering of every file, and the order of the round cycle.

A round is a list of CLI calls. A run repeats the workload's cycle of rounds
(round i uses cycle[i % len(cycle)]), so the rounds of one run differ only in
their drawn members, and every draw comes from a pool whose members cost
about the same. That keeps the round time steady across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("tower", "sweep", "lattice")
PROPERTIES = ("hsd", "secondiso", "dpn", "diexact", "modular", "distributive")

# covers of the named lattice fixtures, bottom 0
NAMED_LATTICES = {
    "chain4": ((0, 1), (1, 2), (2, 3)),
    "bool2": ((0, 1), (0, 2), (1, 3), (2, 3)),
    "N5": ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4)),
    "L6": ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)),
}

# abelian groups of order 16..27 as cyclic factors; Z2^4 is always drawn
GROUP_POOL = (
    (16,), (8, 2), (4, 4), (4, 2, 2), (17,), (18,), (6, 3), (19,), (20,),
    (10, 2), (21,), (22,), (23,), (24,), (12, 2), (6, 2, 2), (25,), (5, 5),
    (26,), (27,), (9, 3), (3, 3, 3),
)
SMALL_GROUP_POOL = ((4,), (2, 2), (6,), (8,), (4, 2))


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv with the input file name last (if any)."""

    argv: tuple[str, ...]
    input: str | None = None  # class name of the input, file is <input>.txt
    kind: str = "check"  # check | nsub | enumerate | paper-examples

    @property
    def key(self) -> str:
        """Seed-independent identity of the call: same key, same verdicts."""
        return " ".join(self.argv + ((self.input,) if self.input else ()))


@dataclass
class Plan:
    workload: str
    seed: int
    cycle: list[list[Call]]
    tiny: bool = False
    files: dict[str, str] = field(default_factory=dict)  # class name -> text
    groups: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def round(self, i: int) -> list[Call]:
        return self.cycle[i % len(self.cycle)]


def census(size: int) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """The stored census lattices of one size as (class name, covers)."""
    out = []
    for line in (DATA / "census.txt").read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        n, idx, *pairs = line.split()
        if int(n) == size:
            covers = tuple(tuple(int(v) for v in p.split("<")) for p in pairs)
            out.append((f"c{n}_{idx}", covers))
    return out


def cover_file(covers, rng: random.Random) -> str:
    """A semilattice file with the elements renumbered at random."""
    n = 1 + max(max(pair) for pair in covers)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[a], perm[b]) for a, b in covers]
    rng.shuffle(pairs)
    return f"semilattice {n}\n" + "".join(f"cover {a} {b}\n" for a, b in pairs)


def group_name(factors: tuple[int, ...]) -> str:
    return "x".join(f"Z{m}" for m in factors)


def group_file(factors: tuple[int, ...], rng: random.Random) -> str:
    """The Cayley table of Z_m1 x ... x Z_mk with the non-identity elements
    renumbered at random. Powers of Z2 use XOR of bit vectors."""
    if all(m == 2 for m in factors):
        elems = list(range(1 << len(factors)))

        def add(a, b):
            return a ^ b
    else:
        elems = list(itertools.product(*(range(m) for m in factors)))

        def add(a, b):
            return tuple((x + y) % m for x, y, m in zip(a, b, factors))

    rest = list(range(1, len(elems)))
    rng.shuffle(rest)
    number = {elems[0]: 0} | {elems[i]: j + 1 for j, i in enumerate(rest)}
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for a in elems:
        for b in elems:
            table[number[a]][number[b]] = number[add(a, b)]
    return f"monoid {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)


def _check(prop: str, depth: int, name: str) -> Call:
    return Call(("check", "--property", prop, "--ses-depth", str(depth)), name)


def _six(depth: int, name: str) -> list[Call]:
    return [_check(p, depth, name) for p in PROPERTIES]


def _group_calls(name: str) -> list[Call]:
    return [Call(("nsub",), name, kind="nsub"), _check("modular", 0, name),
            _check("distributive", 0, name)]


def pool_members(workload: str, tiny: bool) -> list[tuple[str, str, list[Call]]]:
    """Every drawable input of a workload as (class name, file text, calls),
    numbered as drawn for seed 0. Golden verdicts are recorded for these."""
    rng = random.Random(0)
    if workload == "sweep":
        pool = census(5) if tiny else census(6) + census(7)
        return [(name, cover_file(covers, rng), _six(1, name)) for name, covers in pool]
    if workload == "lattice":
        pool = SMALL_GROUP_POOL if tiny else GROUP_POOL
        return [(group_name(f), group_file(f, rng), _group_calls(group_name(f))) for f in pool]
    return []


def make_plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    """The seeded plan of a workload. `tiny` swaps in small inputs so that a
    smoke test finishes in seconds; it is not used for measurement."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{int(tiny)}")
    plan = Plan(workload, seed, [], tiny)

    def lattice(name, covers):
        plan.files[name] = cover_file(covers, rng)
        return name

    def group(factors):
        name = group_name(factors)
        plan.files[name] = group_file(factors, rng)
        plan.groups[name] = factors
        return name

    if workload == "tower":
        # hsd and dpn over every ses object at the deepest allowed level
        depth = 1 if tiny else 3
        bases = ["chain4", "bool2"]
        rng.shuffle(bases)
        for base in bases:
            lattice(base, NAMED_LATTICES[base])
            plan.cycle.append([_check("hsd", depth, base), _check("dpn", depth, base)])
    elif workload == "sweep":
        if tiny:
            picks = [(rng.choice(census(5)),)]
            fixed = [_check("diexact", 1, lattice("N5", NAMED_LATTICES["N5"]))]
            fixed += _six(0, group((2, 4)))
        else:
            # one size-6 and one size-7 lattice per round, three rounds
            picks = list(zip(rng.sample(census(6), 3), rng.sample(census(7), 3)))
            fixed = [_check("diexact", 2, lattice("L6", NAMED_LATTICES["L6"]))]
            z8 = group((2, 2, 2))
            fixed += [_check("hsd", 1, z8), _check("dpn", 1, z8)]
            fixed += _six(1, group((2, 4)))
        fixed.append(Call(("paper-examples",), kind="paper-examples"))
        for drawn in picks:
            calls = list(fixed)
            for name, covers in drawn:
                calls += _six(1, lattice(name, covers))
            plan.cycle.append(calls)
    else:
        pool = SMALL_GROUP_POOL if tiny else GROUP_POOL
        drawn = rng.sample(pool, 4)
        always = group((2, 2, 2) if tiny else (2, 2, 2, 2))
        fixed = [Call(("enumerate", "--max-size", "5" if tiny else "8"), kind="enumerate")]
        fixed += [
            Call(("nsub",), always, kind="nsub"),
            _check("modular", 0, always),
        ]
        for pair in (drawn[:2], drawn[2:]):
            calls = list(fixed)
            for factors in pair:
                calls += _group_calls(group(factors))
            plan.cycle.append(calls)
    return plan


def write_inputs(plan: Plan, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in plan.files.items():
        (directory / f"{name}.txt").write_text(text)
