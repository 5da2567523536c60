"""Command-line surface.

Subcommands: validate, nsub, check, enumerate, paper-examples, all in the
grammar table ``COMMANDS``. Canonical argv is matched against the table (see
``_match``); argparse, built from it, parses any other argv, and it alone
prints help and usage errors. Exit codes: 0 all pass, 1 property failures
found, 2 input errors, 3 a broken internal invariant or memory running out
(one ``<input>: internal error: <message>`` line on stderr, the message
``out of memory`` for the latter; the command name stands for the input of
enumerate and paper-examples), 141 a stdout closed by its reader. Reports
are deterministic: identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .census import census_lattices
from .checks import CHECKS, run_check
from .formats import (
    ParseError,
    emit_lattice_text,
    emit_monoid_text,
    emit_semilattice_text,
    parse_structure,
)
from .monoid import FinMonoid, MonoidError, NotCommutative
from .nsub import enumerate_nsub, lattice_verdicts
from .scenarios import run_reference_scenarios
from .semilattice import fixture

CLOSED_PIPE = 141  # 128 + SIGPIPE
PROPERTIES = tuple(CHECKS)


def _load(source: str) -> tuple[FinMonoid, str]:
    """A fixture name or a path to a monoid/semilattice file."""
    try:
        return fixture(source), source
    except KeyError:
        pass
    path = Path(source)
    if not path.exists():
        raise ParseError(0, f"no such fixture or file: {source}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(0, f"cannot read file: {exc}") from None
    return parse_structure(text), path.stem


def _input_error(source: str, exc: Exception) -> int:
    print(f"{source}: {exc}", file=sys.stderr)
    return 2


def _internal_error(source: str, exc: Exception) -> int:
    """A broken internal invariant (SesInvariantError, the census's or the
    order builder's RuntimeError) or memory running out: never expected,
    reported in one line."""
    reason = "out of memory" if isinstance(exc, MemoryError) else exc
    print(f"{source}: internal error: {reason}", file=sys.stderr)
    return 3


def cmd_validate(args, M: FinMonoid, name: str) -> int:
    if M.is_semilattice:
        sys.stdout.write(emit_semilattice_text(M))
    else:
        sys.stdout.write(emit_monoid_text(M))
    return 0


def cmd_nsub(args, M: FinMonoid, name: str) -> int:
    sys.stdout.write(emit_lattice_text(enumerate_nsub(M)))
    return 0


def cmd_check(args, M: FinMonoid, name: str) -> int:
    if args.property == "stability" and args.ses_depth != 0:
        print("stability is a base-context check; use --ses-depth 0", file=sys.stderr)
        return 2
    reports = run_check(args.property, M, args.ses_depth, name)
    for report in reports:
        sys.stdout.write(report.result_line() + "\n")
    failures = sum(0 if r.passed else 1 for r in reports)
    if args.format == "text":
        sys.stdout.write(f"# {len(reports) - failures} pass, {failures} fail\n")
    return 1 if failures else 0


def cmd_enumerate(args) -> int:
    if args.max_size < 1 or args.max_size > 8:
        print("supported sizes are 1..8", file=sys.stderr)
        return 2
    emitted = 0
    counts: dict[int, int] = {}
    # the whole census is built, and checked, before the first line is
    # written, so a census that breaks its invariant prints nothing
    lattices = [lat for n in range(1, args.max_size + 1) for lat in census_lattices(n)]
    for lat in lattices:
        modular, distributive = lattice_verdicts(lat)
        if args.filter == "nonmodular" and modular:
            continue
        if args.filter == "nondistributive" and distributive:
            continue
        counts[lat.size] = counts.get(lat.size, 0) + 1
        covers = ";".join(f"{a}<{b}" for a, b in lat.covers) or "-"
        fields = (
            f"size={lat.size}",
            f"index={counts[lat.size] - 1}",
            f"covers={covers}",
            f"modular={'yes' if modular else 'no'}",
            f"distributive={'yes' if distributive else 'no'}",
        )
        if args.format == "tsv":
            sys.stdout.write("LATTICE\t" + "\t".join(fields) + "\n")
        else:
            sys.stdout.write("lattice " + " ".join(fields) + "\n")
        emitted += 1
    if args.format == "text":
        for n in sorted(counts):
            sys.stdout.write(f"# size {n}: {counts[n]}\n")
        sys.stdout.write(f"# total: {emitted}\n")
    return 0


def cmd_paper_examples(args) -> int:
    results = run_reference_scenarios(ses_depth=args.ses_depth)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    good = sum(1 for r in results if r.ok and not r.skipped)
    sys.stdout.write(f"# {good}/{len(results)} reproduced\n")
    return 0 if all(r.ok and not r.skipped for r in results) else 1


# per command: its help, whether it takes an input, its handler, and its
# options as name: (int or choices, default, metavar, required)
COMMANDS = {
    "validate": ("parse, validate and echo the canonical form", True, cmd_validate, {}),
    "nsub": ("export the lattice of normal subobjects", True, cmd_nsub, {}),
    "check": ("run a property checker", True, cmd_check, {
        "--property": (PROPERTIES, None, None, True),
        "--ses-depth": (int, 0, "K", False),
    }),
    "enumerate": ("all monoidal semilattices up to isomorphism", False, cmd_enumerate, {
        "--max-size": (int, 5, "N", False),
        "--filter": (("nonmodular", "nondistributive"), None, None, False),
    }),
    "paper-examples": ("replay the bundled counterexample scenarios", False,
                       cmd_paper_examples, {"--ses-depth": (int, 1, "K", False)}),
}
FORMATS = ("text", "tsv")


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="monlat",
        description="kernels, cokernels and normal-subobject lattices of finite "
        "commutative monoids and monoidal semilattices",
    )
    parser.add_argument("--format", choices=FORMATS, default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, takes_input, fn, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, (kind, default, metavar, required) in options.items():
            typed = {"type": int} if kind is int else {"choices": kind}
            p.add_argument(name, **typed, default=default, metavar=metavar, required=required)
        if takes_input:
            p.add_argument("input")
        p.set_defaults(fn=fn)
    return parser


def _match(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for canonical argv, else None: exact long options,
    each at most once and before the input, each value its own token, a listed
    choice or under 100 ASCII digits (int() may refuse more); --format first."""
    fmt = "text"
    if argv[:1] == ["--format"] and argv[1:2] and argv[1] in FORMATS:
        fmt, argv = argv[1], argv[2:]
    if not argv or argv[0] not in COMMANDS:
        return None
    command, *rest = argv
    _, takes_input, fn, options = COMMANDS[command]
    args = {name[2:].replace("-", "_"): spec[1] for name, spec in options.items()}
    if takes_input:
        if not rest or rest[-1].startswith("-"):
            return None
        args["input"] = rest.pop()
    names = rest[::2]
    needed = {name for name, spec in options.items() if spec[3]}
    if len(rest) % 2 or len(set(names)) < len(names) or not needed <= set(names) <= options.keys():
        return None
    for name, value in zip(names, rest[1::2]):
        kind = options[name][0]
        if kind is int and value.isascii() and value.isdigit() and len(value) < 100:
            value = int(value)
        elif kind is int or value not in kind:
            return None
        args[name[2:].replace("-", "_")] = value
    return SimpleNamespace(format=fmt, command=command, **args, fn=fn)


def main(argv=None) -> int:
    # objects made before the call, by import above all, outlive it: frozen,
    # they are not rescanned by each collection the call triggers, so a call
    # does not pay for where the collector's counts stood when import ended
    gc.freeze()
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout; let the exit flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    finally:
        gc.unfreeze()


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _match(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed help (0) or a usage error (2)
        return exc.code
    depth = getattr(args, "ses_depth", 0)
    if not 0 <= depth <= 3:
        print("ses depth must be between 0 and 3", file=sys.stderr)
        return 2
    if not hasattr(args, "input"):
        try:
            return args.fn(args)
        except (RuntimeError, MemoryError) as exc:
            return _internal_error(args.command, exc)
    try:
        M, name = _load(args.input)
    except (ParseError, MonoidError) as exc:
        return _input_error(args.input, exc)
    try:
        return args.fn(args, M, name)
    except NotCommutative as exc:  # the command needs a normal-subobject lattice
        return _input_error(args.input, exc)
    except (RuntimeError, MemoryError) as exc:
        return _internal_error(args.input, exc)


if __name__ == "__main__":
    sys.exit(main())
