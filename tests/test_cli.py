import contextlib
import gc
import hashlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monlat import census, cli, monoid, nsub
from monlat.cli import CLOSED_PIPE, main
from monlat.formats import emit_monoid_text, emit_semilattice_text
from monlat.semilattice import klein_four, pentagon, six_lattice

from conftest import abelian_group, truncated_monoid


@pytest.fixture()
def l6_file(tmp_path, L6):
    path = tmp_path / "l6.txt"
    path.write_text(emit_semilattice_text(L6))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv):
    """``python -m monlat`` in a fresh interpreter, so a traceback shows."""
    return subprocess.run(
        [sys.executable, "-m", "monlat", *argv], capture_output=True, text=True
    )


class TestValidate:
    def test_valid_semilattice_echoes_canonical(self, capsys, l6_file, L6):
        code, out, _ = run(capsys, "validate", l6_file)
        assert code == 0
        assert out == emit_semilattice_text(L6)

    def test_fixture_name_accepted(self, capsys):
        code, out, _ = run(capsys, "validate", "N5")
        assert code == 0 and out.startswith("semilattice 5")

    def test_group_emits_monoid_format(self, capsys, V4):
        code, out, _ = run(capsys, "validate", "V4")
        assert code == 0 and out == emit_monoid_text(V4)

    def test_no_bottom_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("semilattice 3\ncover 0 2\ncover 1 2\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "minimal" in err

    def test_bad_monoid_table(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("monoid 3\n0 1 2\n1 2 2\n2 1 1\n")
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "NonAssociative" in err

    def test_large_bad_table_gives_a_short_message(self, capsys, tmp_path):
        # a 60-element table that breaks associativity in O(n^3) ways: the
        # message names the first few failures and counts the rest
        n = 60
        rows = [
            [j if i == 0 else i if j == 0 else (i - j) % n for j in range(n)] for i in range(n)
        ]
        p = tmp_path / "bad.txt"
        p.write_text(f"monoid {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and len(err.encode()) < 2048
        assert "NonAssociative" in err and " more)" in err

    def test_chain_fixture_past_the_cap_is_input_error(self, capsys):
        code, out, err = run(capsys, "validate", "chain1000000000")
        assert (code, out) == (2, "")
        assert err == "chain1000000000: chain fixtures go up to chain256\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no_such_file.txt")
        assert code == 2

    def test_roundtrip_via_cli_output(self, capsys, l6_file):
        code, out, _ = run(capsys, "validate", l6_file)
        code2, out2, _ = run(capsys, "validate", "L6")
        assert (code, out) == (code2, out2)


class TestNsub:
    def test_export_can_be_fed_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "nsub", "N5")
        assert code == 0 and out.startswith("lattice 5")
        p = tmp_path / "nsub.txt"
        p.write_text(out)
        code2, out2, _ = run(capsys, "validate", str(p))
        assert code2 == 0


class TestCheck:
    def test_dpn_fails_on_pentagon(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "dpn", "N5")
        assert code == 1
        assert "status=fail" in out and "object=N5" in out

    def test_hsd_passes_on_pentagon_at_depth_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "hsd", "N5")
        assert code == 0 and "status=pass" in out

    def test_hsd_fails_at_depth_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "--property", "hsd", "--ses-depth", "1", "N5"
        )
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("RESULT")]
        assert len(lines) == 5
        failing = [l for l in lines if "status=fail" in l]
        assert len(failing) == 1
        assert "object=N5|sub={0,D}" in failing[0]
        assert "witness=({0,C};{0,C,B}):left-square-not-pullback" in failing[0]

    def test_diexact_v4_depth_story(self, capsys):
        code0, out0, _ = run(capsys, "check", "--property", "diexact", "V4")
        assert code0 == 0
        code1, out1, _ = run(
            capsys, "check", "--property", "diexact", "--ses-depth", "1", "V4"
        )
        assert code1 == 1
        failing = [l for l in out1.splitlines() if "status=fail" in l]
        assert any("object=V4|sub={0,g}" in l and "({0,h};{0,k})" in l for l in failing)

    def test_tsv_format_is_result_lines_only(self, capsys):
        code, out, _ = run(capsys, "--format", "tsv", "check", "--property", "dpn", "N5")
        assert all(l.startswith("RESULT\t") for l in out.splitlines())

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "check", "--property", "secondiso", "L6")
        _, out2, _ = run(capsys, "check", "--property", "secondiso", "L6")
        assert out1 == out2

    def test_jobs_flag_is_a_usage_error(self):
        proc = run_module("--jobs", "2", "check", "--property", "dpn", "N5")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_stability_check(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "stability", "L6")
        assert code == 0 and "property=stability" in out

    def test_stability_rejects_depth(self, capsys):
        code, _, err = run(
            capsys, "check", "--property", "stability", "--ses-depth", "1", "L6"
        )
        assert code == 2

    def test_depth_out_of_range(self, capsys):
        code, _, err = run(capsys, "check", "--property", "dpn", "--ses-depth", "9", "N5")
        assert code == 2


class TestWitnessBytes:
    """Lattice witnesses are the lexicographically first pentagon or
    diamond; these RESULT lines pin the search that picks them."""

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (
                ("check", "--property", "modular", "N5"),
                ["RESULT\tobject=N5\tproperty=modular\tdepth=0\tstatus=fail\tcases=125"
                 "\twitness=({0};{0,C};{0,D};{0,C,B};{0,C,D,B,A}):pentagon"],
            ),
            (
                ("check", "--property", "distributive", "M3"),
                ["RESULT\tobject=M3\tproperty=distributive\tdepth=0\tstatus=fail\tcases=125"
                 "\twitness=({0};{0,a};{0,b};{0,c};{0,a,b,c,1}):diamond"],
            ),
            (
                ("check", "--property", "distributive", "V4"),
                ["RESULT\tobject=V4\tproperty=distributive\tdepth=0\tstatus=fail\tcases=125"
                 "\twitness=({0};{0,g};{0,h};{0,k};{0,g,h,k}):diamond"],
            ),
            (
                ("check", "--property", "modular", "--ses-depth", "1", "N5"),
                [
                    f"RESULT\tobject=N5|sub={sub}\tproperty=modular\tdepth=1\tstatus=fail\tcases=125"
                    "\twitness=({0};{0,C};{0,D};{0,C,B};{0,C,D,B,A}):pentagon"
                    for sub in ("{0}", "{0,C}", "{0,D}", "{0,C,B}", "{0,C,D,B,A}")
                ],
            ),
        ],
    )
    def test_result_lines(self, capsys, argv, lines):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("RESULT")] == lines


class TestNonCommutativeInput:
    """A non-commutative monoid has no normal-subobject lattice here; the
    commands that need one report an input error, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("nsub",),
            ("check", "--property", "hsd"),
            ("check", "--property", "dpn", "--ses-depth", "1"),
        ],
    )
    def test_exits_two_without_traceback(self, tmp_path, argv):
        p = tmp_path / "noncomm.txt"
        p.write_text("monoid 3\n0 1 2\n1 1 1\n2 2 2\n")
        proc = run_module(*argv, str(p))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [f"{p}: normal subobject enumeration needs a commutative monoid"]
        assert proc.stdout == ""


class TestDuplicateLabels:
    """Two elements with one name would render two subsets alike in the
    witnesses, so the input is rejected under every command that takes one."""

    @pytest.mark.parametrize(
        "argv", [("validate",), ("nsub",), ("check", "--property", "hsd")]
    )
    def test_exits_two_with_one_line(self, tmp_path, argv):
        p = tmp_path / "twice.txt"
        p.write_text("monoid 2\n0 1\n1 1\nlabel 0 a\nlabel 1 a\n")
        proc = run_module(*argv, str(p))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"{p}: line 5: label 'a' names two elements"]
        assert proc.stdout == ""


class TestDelimiterLabels:
    """A label holding a witness delimiter would make the ``witness=``
    strings ambiguous, so the input is rejected under every command that
    takes one; the braces and commas of exported subset names stay allowed."""

    @pytest.mark.parametrize("name", ["a;b", "[a", "a]", "a:b"])
    @pytest.mark.parametrize(
        "argv", [("validate",), ("nsub",), ("check", "--property", "hsd")]
    )
    def test_exits_two_with_one_line(self, tmp_path, argv, name):
        p = tmp_path / "delimiter.txt"
        p.write_text(f"monoid 2\n0 1\n1 1\nlabel 1 {name}\n")
        proc = run_module(*argv, str(p))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"{p}: line 4: label {name!r} contains a witness delimiter"
        ]
        assert proc.stdout == ""

    def test_semilattice_file_rejected(self, capsys, tmp_path):
        p = tmp_path / "delimiter.txt"
        p.write_text("semilattice 2\ncover 0 1\nlabel 1 x:y\n")
        code, out, err = run(capsys, "validate", str(p))
        assert (code, out) == (2, "")
        assert err == f"{p}: line 3: label 'x:y' contains a witness delimiter\n"


class TestUnreadableInput:
    """A path that cannot be read as text is an input error under every
    command that takes an input."""

    @pytest.fixture(params=["directory", "non-utf8"])
    def unreadable(self, request, tmp_path):
        if request.param == "directory":
            return str(tmp_path)
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"monoid 1\n\xff\n")
        return str(p)

    @pytest.mark.parametrize(
        "argv", [("validate",), ("nsub",), ("check", "--property", "hsd")]
    )
    def test_exits_two_with_one_line(self, unreadable, argv):
        proc = run_module(*argv, unreadable)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{unreadable}: ")
        assert proc.stdout == ""


class TestLatticeBytes:
    """The lattice names and indices every depth shares, as ``nsub`` and a
    depth-1 ``check`` print them."""

    @pytest.mark.parametrize(
        "fixture_name, text",
        [
            (
                "N5",
                "lattice 5\ncover 0 1\ncover 0 2\ncover 1 3\ncover 2 4\ncover 3 4\n"
                "label 0 {0}\nlabel 1 {0,C}\nlabel 2 {0,D}\nlabel 3 {0,C,B}\n"
                "label 4 {0,C,D,B,A}\n",
            ),
            (
                "V4",
                "lattice 5\ncover 0 1\ncover 0 2\ncover 0 3\ncover 1 4\ncover 2 4\n"
                "cover 3 4\nlabel 0 {0}\nlabel 1 {0,g}\nlabel 2 {0,h}\nlabel 3 {0,k}\n"
                "label 4 {0,g,h,k}\n",
            ),
            (
                "L6",
                "lattice 6\ncover 0 1\ncover 0 2\ncover 1 3\ncover 1 4\ncover 2 4\n"
                "cover 3 5\ncover 4 5\nlabel 0 {0}\nlabel 1 {0,D}\nlabel 2 {0,E}\n"
                "label 3 {0,D,B}\nlabel 4 {0,D,E,C}\nlabel 5 {0,D,E,B,C,A}\n",
            ),
        ],
    )
    def test_nsub_export(self, capsys, fixture_name, text):
        assert run(capsys, "nsub", fixture_name) == (0, text, "")

    @pytest.mark.parametrize(
        "orders, digest",
        [
            ((2, 2, 2, 2), "04fa039503a0dbd4013f73c78aed93b9"),
            ((6, 2, 2), "f10e83aab1bff8e4d8ad4d933b5027f3"),
        ],
    )
    def test_nsub_export_of_groups(self, capsys, tmp_path, orders, digest):
        # the md5 of the export as printed before the normal submonoids were
        # enumerated in one pass
        path = tmp_path / "group.txt"
        path.write_text(emit_monoid_text(abelian_group(*orders)))
        code, out, err = run(capsys, "nsub", str(path))
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == digest

    def test_hsd_result_lines_at_depth_one(self, capsys):
        code, out, _ = run(capsys, "check", "--property", "hsd", "--ses-depth", "1", "N5")
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("RESULT")] == [
            f"RESULT\tobject=N5|sub={sub}\tproperty=hsd\tdepth=1\tstatus={status}"
            f"\tcases=13\twitness={witness}"
            for sub, status, witness in (
                ("{0}", "pass", "-"),
                ("{0,C}", "pass", "-"),
                ("{0,D}", "fail", "({0,C};{0,C,B}):left-square-not-pullback"),
                ("{0,C,B}", "pass", "-"),
                ("{0,C,D,B,A}", "pass", "-"),
            )
        ]


class TestInternalError:
    """A broken internal invariant exits 3 with one line on stderr."""

    def test_exits_three_with_one_line(self, capsys, monkeypatch):
        # the scenarios build their sequences through make_ses, which
        # re-checks that every sub leg it is given is a normal mono; a
        # recognizer that rejects every submonoid breaks that invariant
        monkeypatch.setattr(monoid, "is_normal_submonoid", lambda M, members: (False, None))
        code, out, err = run(capsys, "paper-examples", "--ses-depth", "1")
        assert code == 3
        assert out == ""
        assert err == "paper-examples: internal error: sub leg is not a normal mono: image-not-normal\n"

    @pytest.mark.parametrize(
        "patched, argv, source",
        [
            ("run_check", ("check", "--property", "dpn", "--ses-depth", "1", "N5"), "N5"),
            ("census_lattices", ("enumerate", "--max-size", "5"), "enumerate"),
        ],
    )
    def test_out_of_memory_exits_three(self, capsys, monkeypatch, patched, argv, source):
        # running out of memory keeps the contract: exit 3 and one line,
        # not a traceback with the property-failure code
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, patched, exhausted)
        assert run(capsys, *argv) == (3, "", f"{source}: internal error: out of memory\n")

    def test_census_non_lattice_exits_three(self, capsys, monkeypatch):
        # the census re-checks that the lattice of each table it returns has
        # that table as its joins; a search that no longer prunes emits the
        # six-element order in which two atoms have two minimal upper bounds,
        # and that breaks the invariant (the one census cache is cleared so
        # that the search runs; a failed size is not cached)
        monkeypatch.setattr(census, "_feasible", lambda join, pairs, allowed: True)
        census.census_lattices.cache_clear()
        code, out, err = run(capsys, "enumerate", "--max-size", "6")
        assert code == 3
        assert out == ""
        assert err == "enumerate: internal error: search emitted a non-lattice\n"


class TestTowerBytes:
    """The md5 of the full stdout of depth-2 and depth-3 checks, as printed
    before the normality recognizers became level-wise."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            pytest.param(argv, code, digest, id="-".join(argv))
            for argv, code, digest in (
                (("hsd", "3", "chain4"), 0, "5295694b757c62cb4057a8c5607e1f82"),
                (("hsd", "3", "bool2"), 0, "08678efb97a58c0bd2b19a5ece5569e7"),
                (("dpn", "3", "chain4"), 0, "d8a058f0b0714e8dc65f9f89fa38e23e"),
                (("dpn", "3", "bool2"), 0, "d6311e213bd52f02e02265e8a6cda50a"),
                (("hsd", "2", "N5"), 1, "8884fefdee3329bada5e87ac345a2634"),
            )
        ],
    )
    def test_stdout_digest(self, argv, code, digest):
        prop, depth, name = argv
        proc = run_module("check", "--property", prop, "--ses-depth", depth, name)
        assert proc.returncode == code
        assert proc.stderr == ""
        assert hashlib.md5(proc.stdout.encode()).hexdigest() == digest


class TestEnumerate:
    def test_counts_through_five(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-size", "5")
        assert code == 0
        counts = [l for l in out.splitlines() if l.startswith("# size")]
        assert counts == [
            "# size 1: 1",
            "# size 2: 1",
            "# size 3: 1",
            "# size 4: 2",
            "# size 5: 5",
        ]

    def test_nonmodular_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-size", "5", "--filter", "nonmodular")
        rows = [l for l in out.splitlines() if l.startswith("lattice ")]
        assert len(rows) == 1
        assert "size=5" in rows[0] and "modular=no" in rows[0]

    def test_max_size_one(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-size", "1")
        rows = [l for l in out.splitlines() if l.startswith("lattice ")]
        assert len(rows) == 1 and "covers=-" in rows[0]

    def test_size_bound(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-size", "12")
        assert code == 2

    def test_max_size_eight_searches_no_witness(self, capsys, monkeypatch):
        # enumerate prints verdicts, not witnesses, so it never searches for
        # a pentagon or diamond; the md5 pins its full output
        def refuse(lat, kind):
            raise AssertionError(f"{kind} search")

        monkeypatch.setattr(nsub, "_find_sublattice", refuse)
        code, out, err = run(capsys, "enumerate", "--max-size", "8")
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == "c13ba006574665f1a8c90b1d584be4a1"

    def test_tsv_rows_and_determinism(self, capsys):
        _, out1, _ = run(capsys, "--format", "tsv", "enumerate", "--max-size", "5")
        _, out2, _ = run(capsys, "--format", "tsv", "enumerate", "--max-size", "5")
        assert out1 == out2
        rows = out1.splitlines()
        assert len(rows) == 10 and all(r.startswith("LATTICE\t") for r in rows)


class TestModuleEntryPoint:
    def test_in_process_calls_leave_nothing_frozen(self, capsys):
        # a call freezes the objects made before it and thaws them on the
        # way out, also when it exits 2, so an in-process caller's cycles
        # stay collectable
        assert run(capsys, "nsub", "N5")[0] == 0
        assert run(capsys, "check", "--property", "hsd", "--ses-depth", "4", "bool2")[0] == 2
        assert gc.get_freeze_count() == 0

    def test_python_dash_m_invocation(self):
        proc = run_module("check", "--property", "dpn", "N5")
        assert proc.returncode == 1
        assert proc.stdout.startswith("RESULT\tobject=N5")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_without_traceback(self, unbuffered):
        # stdout is a pipe whose read end is closed before the process
        # starts, so the first write (unbuffered) or the flush at the end
        # (buffered) fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "monlat", "check", "--property", "modular", "V4"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (CLOSED_PIPE, "")


class TestReferenceScenarios:
    def test_all_reproduce(self, capsys):
        code, out, _ = run(capsys, "paper-examples")
        assert code == 0
        assert "# 4/4 reproduced" in out

    def test_depth_zero_skips_ses_scenarios(self, capsys):
        code, out, _ = run(capsys, "paper-examples", "--ses-depth", "0")
        assert code == 1
        assert out.count(": skip") == 2


# the grammar's words and their near misses: abbreviations, ``--opt=value``
# forms, integers that int() takes but that are not plain ASCII digits, junk
COMMAND_WORDS = tuple(cli.COMMANDS) + ("chec", "enum", "bogus")
OPTION_WORDS = (
    "--format", "--property", "--ses-depth", "--max-size", "--filter",
    "--form", "--prop", "--ses", "--max", "--f", "--jobs", "-h", "--help", "--",
)
NUMBER_WORDS = ("0", "1", "2", "3", "5", "8", "08")
ODD_NUMBER_WORDS = ("-1", "+3", "\u0663", "1_0", " 2", "x")
VALUE_WORDS = cli.PROPERTIES + cli.FORMATS + ("nonmodular", "nondistributive", "bogus")
FIXTURE_WORDS = ("N5", "V4", "bool2", "chain4", "L6", "M3", "nosuch")
JUNK_WORDS = ("", "-", "a=b", "--property=dpn", "--ses-depth=1", "--format=tsv", "--max-size=3")


@st.composite
def grammar_argv(draw, numbers, odd_numbers):
    """A canonical argv (``--format`` and its value or not, a command, some
    of its options in any order, each with a value, and its input), then
    mostly changed by one word: replaced by a near miss, dropped, put in or
    moved. So about a fifth are canonical and most others miss by a word."""
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    _, takes_input, _, options = cli.COMMANDS[command]
    argv = ["--format", draw(st.sampled_from(cli.FORMATS))] if draw(st.booleans()) else []
    argv.append(command)
    names = draw(st.permutations(tuple(options)))
    for name in names[draw(st.integers(0, len(names))):]:
        kind = options[name][0]
        argv += [name, draw(st.sampled_from(numbers if kind is int else kind))]
    if takes_input:
        argv.append(draw(st.sampled_from(FIXTURE_WORDS)))
    words = st.sampled_from(
        COMMAND_WORDS + OPTION_WORDS + VALUE_WORDS + numbers + odd_numbers
        + FIXTURE_WORDS + JUNK_WORDS
    )
    change = draw(st.sampled_from(("keep", "replace", "drop", "put in", "move")))
    if change != "keep":
        i = draw(st.integers(0, len(argv) - 1))
        word = draw(words) if change in ("replace", "put in") else argv[i]
        if change != "put in":
            del argv[i]
        if change != "drop":
            argv.insert(i if change == "replace" else draw(st.integers(0, len(argv))), word)
    return argv


class TestGrammar:
    """Canonical argv is matched against ``cli.COMMANDS`` without argparse;
    every other argv goes to the parser ``build_parser`` makes from the same
    table, which stays the reference."""

    parser = cli.build_parser()

    @given(grammar_argv(NUMBER_WORDS, ODD_NUMBER_WORDS))
    @settings(max_examples=1000, deadline=None)
    def test_canonical_argv_parses_as_argparse_does(self, argv):
        args = cli._match(argv)
        if args is not None:
            assert vars(args) == vars(self.parser.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", "N5"),
            ("validate", "FILE"),
            ("nsub", "FILE"),
            ("check", "--property", "dpn", "N5"),
            ("check", "--property", "hsd", "--ses-depth", "1", "FILE"),
            ("check", "--ses-depth", "1", "--property", "hsd", "FILE"),
            ("check", "--property", "stability", "--ses-depth", "0", "N5"),
            ("enumerate", "--max-size", "5"),
            ("enumerate", "--max-size", "5", "--filter", "nonmodular"),
            ("enumerate", "--filter", "nondistributive", "--max-size", "5"),
            ("paper-examples",),
            ("paper-examples", "--ses-depth", "0"),
        ],
    )
    @pytest.mark.parametrize("fmt", [(), ("--format", "tsv")])
    def test_canonical_argv_builds_no_parser(self, capsys, monkeypatch, l6_file, fmt, argv):
        # the argv forms of the benchmark workloads and the CLI digest print
        # what argparse's namespace gives them, and never build a parser
        argv = [*fmt, *(l6_file if word == "FILE" else word for word in argv)]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_match", lambda argv: None)
            expected = run(capsys, *argv)

        def refuse():
            raise AssertionError("built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, *argv) == expected
        assert expected[0] in (0, 1) and expected[1]

    def test_import_loads_no_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, monlat.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_import_loads_no_dataclasses(self):
        # dataclasses and the inspect, ast and dis modules it imports cost
        # about 9 ms of every CLI start
        code = "import monlat, monlat.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_production_path_loads_no_context(self):
        # the kernel/cokernel contexts are the tests' reference: importing
        # the package and the CLI, and running a depth-1 check and the
        # scenarios, leaves them unloaded
        code = (
            "import contextlib, io, sys, monlat, monlat.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    monlat.cli.main(['check', '--property', 'dpn', '--ses-depth', '1', 'N5'])\n"
            "    monlat.cli.main(['paper-examples'])\n"
            "print('monlat.context' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (("--help",), 0, "usage: monlat ", ""),
            (("check", "--help"), 0, "usage: monlat check ", ""),
            (("check", "N5"), 2, "", "usage: monlat check "),
            (("--jobs", "2", "check", "--property", "dpn", "N5"), 2, "", "usage: monlat "),
            ((), 2, "", "usage: monlat "),
        ],
    )
    def test_help_and_usage_errors_return_their_status(self, capsys, argv, code, out, err):
        # an in-process caller gets argparse's exit status, not SystemExit
        got = run(capsys, *argv)
        assert got[0] == code
        assert got[1].startswith(out) and got[2].startswith(err)
        assert bool(got[1]) == bool(out) and bool(got[2]) == bool(err)


# the fuzz keeps to fixtures and to depths at most 2, so each call is quick
FUZZ_ARGV = grammar_argv(("0", "1", "2", "02", "9"), ("-1", "+2", "x"))


class TestFuzz:
    """Any argv over the grammar's words ends in an exit code of the
    contract, in process and as ``python -m monlat``."""

    @given(FUZZ_ARGV)
    @settings(max_examples=150, deadline=None)
    def test_main_returns_a_contract_code(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)

    @given(FUZZ_ARGV)
    @settings(max_examples=6, deadline=None)
    def test_module_prints_no_traceback(self, argv):
        proc = run_module(*argv)
        assert proc.returncode in (0, 1, 2, 3)
        assert "Traceback" not in proc.stderr


# valid monoid files of N5, L6, V4 and truncated {0..4}, and cover files of
# N5 and L6, each as lines of tokens
FUZZ_FILES = [
    [line.split() for line in text.splitlines()]
    for text in [emit_monoid_text(M) for M in (pentagon(), six_lattice(), klein_four(), truncated_monoid(4))]
    + [emit_semilattice_text(L) for L in (pentagon(), six_lattice())]
]
# a token put in place of another: out of range, a word, empty, a leading
# zero and a digit that is not ASCII (Arabic-Indic three)
FUZZ_TOKENS = ("-1", "99", "x", "", "00", "\u0663")


@st.composite
def mutated_file(draw):
    """A valid file changed one to three times: a line or a token dropped,
    duplicated or swapped with another, or a token replaced."""
    lines = [list(tokens) for tokens in draw(st.sampled_from(FUZZ_FILES))]
    for _ in range(draw(st.integers(1, 3))):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if draw(st.booleans()) or not lines[i]:  # a whole line
            op = draw(st.sampled_from(("drop", "dup", "swap")))
            if op == "drop" and len(lines) > 1:
                del lines[i]
            elif op == "dup":
                lines.insert(i, list(lines[i]))
            else:
                lines[i], lines[j] = lines[j], lines[i]
            continue
        tokens = lines[i]
        k, m = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        op = draw(st.sampled_from(("drop", "dup", "swap", "replace")))
        if op == "drop":
            del tokens[k]
        elif op == "dup":
            tokens.insert(k, tokens[k])
        elif op == "swap":
            tokens[k], tokens[m] = tokens[m], tokens[k]
        else:
            tokens[k] = draw(st.sampled_from(FUZZ_TOKENS))
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


class TestFileFuzz:
    """Any file made by small changes to a valid one ends in a pass, a
    property failure or an input error, and raises nothing."""

    @given(text=mutated_file())
    @settings(max_examples=150, deadline=None)
    def test_commands_return_a_contract_code(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
        path.write_text(text)
        for argv in (
            ("validate", str(path)),
            ("nsub", str(path)),
            ("check", "--property", "dpn", "--ses-depth", "1", str(path)),
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), (argv, text)
