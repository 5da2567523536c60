"""One CLI call in a fresh interpreter, as a user would run it.

    python3 bench/worker.py <job.json>

The job file names the checkout root, the CLI argv, the input file, the
spawn time taken by the parent, whether to trace, and where to write the
CLI's stdout and this worker's result. Set-up is interpreter start plus
`import monlat` plus reading and parsing the input; the wall time runs from
the CLI call to the last verdict flushed. Exit codes: 0 the call ran (its own
exit code is in the result), 3 monlat did not resolve to the checkout.
"""

import itertools
import json
import signal
import sys
import time
import traceback
from pathlib import Path


# join table of the Boolean lattice 2^4, for the reference loop
JOIN = tuple(tuple(i | j for j in range(16)) for i in range(16))
SAMPLE_PERIOD_S = 0.25


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work in monlat's style
    that does not touch monlat: count the join-closed 4-subsets of 2^4, and
    compose each element's join map with the next one's."""
    start = time.perf_counter()
    closed = 0
    for combo in itertools.combinations(range(16), 4):
        members = frozenset(combo)
        if all(JOIN[a][b] in members for a, b in itertools.combinations(combo, 2)):
            closed += 1
    maps = [JOIN[a] for a in range(16)] * 8
    for f, g in zip(maps, maps[1:]):
        composite = tuple(g[f[i]] for i in range(16))
        closed += hash(composite) & 1
    return time.perf_counter() - start


class HostSpeed:
    """Runs the reference loop every `period` seconds of the CLI call (from
    SIGALRM; 0 turns the timer off) and keeps how long each run took and the
    total time taken, which the caller subtracts from the call's wall time."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    import monlat
    from monlat import cli, formats

    where = Path(monlat.__file__).resolve()
    if not where.is_relative_to(root / "src" / "monlat"):
        print(f"monlat resolved to {where}, not to {root / 'src'}", file=sys.stderr)
        return 3
    if job["input"] is not None:
        formats.parse_structure(Path(job["input"]).read_text())
    ready = time.monotonic()
    # the host's speed at set-up; a short call may also end before the
    # first timer sample
    before = [reference_loop() for _ in range(3)]

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, leftover_wrappers

    tracer = None
    if job["trace"]:
        tracer = Tracer(job["run_id"])
        tracer.install()
    argv = list(job["argv"]) + ([job["input"]] if job["input"] is not None else [])
    crashed = False
    saved = sys.stdout
    # no timer samples inside traced calls, where they would add to spans
    speed = HostSpeed(0 if tracer else SAMPLE_PERIOD_S)
    with open(job["stdout"], "w") as out, speed:
        sys.stdout = out
        start = time.monotonic()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code, crashed = None, True
        finally:
            out.flush()
            end = time.monotonic() - speed.spent
            sys.stdout = saved
    result = {
        "setup_s": ready - job["spawned"],
        "setup_reference_s": before,
        "reference_s": before + speed.samples,
        "wall_s": end - start,
        "exit": code,
        "crashed": crashed,
        "monlat_file": str(where),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.uninstall()
        tracer.write_spans(Path(job["spans"]))
    result["leftover_wrappers"] = leftover_wrappers()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
