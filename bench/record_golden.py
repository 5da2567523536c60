"""Record the golden outputs that bench/verify.py compares against.

    PYTHONPATH=src python3 bench/record_golden.py

Run it only at a commit whose CLI output is trusted: it writes
golden/seed0.json (the exact stdout and exit code of every call the seed-0
plans make) and golden/verdicts.json (the verdict signature of every call
any seed can make, one per input class). The calls run in this process;
their output does not depend on what the caches hold.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from monlat.cli import main as cli_main  # noqa: E402
from verify import GOLDEN, signature  # noqa: E402
from workloads import WORKLOADS, make_plan, pool_members  # noqa: E402


def run(call, directory: Path) -> tuple[int, str]:
    argv = list(call.argv) + ([str(directory / f"{call.input}.txt")] if call.input else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def main() -> int:
    seed0, verdicts = {}, {}
    scratch = Path(__file__).resolve().parent / "_out" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    for workload in WORKLOADS:
        for tiny in (False, True):
            directory = scratch / f"{workload}-{int(tiny)}"
            directory.mkdir(parents=True)
            plan = make_plan(workload, 0, tiny)
            todo = {c.key: c for r in plan.cycle for c in r}
            for name, text in plan.files.items():
                (directory / f"{name}.txt").write_text(text)
            for name, text, calls in pool_members(workload, tiny):
                if not (directory / f"{name}.txt").exists():
                    (directory / f"{name}.txt").write_text(text)
                todo.update((c.key, c) for c in calls)
            outputs = {}
            for key, call in todo.items():
                code, stdout = run(call, directory)
                print(f"{workload} tiny={tiny} {key}: exit {code}", file=sys.stderr)
                verdicts[key] = signature(call, code, stdout)
                outputs[key] = {"exit": code, "stdout": stdout}
            if not tiny:
                seed0[workload] = {c.key: outputs[c.key] for r in plan.cycle for c in r}
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "seed0.json").write_text(json.dumps(seed0, indent=1, sort_keys=True) + "\n")
    (GOLDEN / "verdicts.json").write_text(json.dumps(verdicts, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
