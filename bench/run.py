"""The monlat benchmark: three CLI workloads, timed end to end.

    python3 bench/run.py --workload {tower,sweep,lattice} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. Every CLI call runs in a fresh
single-threaded interpreter (bench/worker.py) with the default --jobs 1,
because monlat's caches are module globals and each CLI user starts cold.
A round is the workload's list of calls (bench/workloads.py); rounds repeat
while the next one is expected to end within --seconds, and at least twice.

--trace 0 reports the end-to-end metrics:
  wall_s       median over rounds of the summed CLI wall time of a round,
               from each call to its last verdict flushed (set-up excluded)
  setup_s      median over calls of interpreter start + import monlat +
               reading and parsing the input
  peak_rss_mb  largest peak RSS of one call's process (os.wait4), over the run
Both times are scaled to a reference host speed (see REFERENCE_S).

--trace 1 runs the first round untraced and then traced, and reports the
per-layer metrics of the traced round plus trace.overhead_ratio.

Every call is checked (bench/verify.py); failed calls count in "failed".
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full record, with the checkout description, is written to
bench/_out/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from verify import (  # noqa: E402
    implication_problems,
    known_answer_problems,
    load_golden,
    signature,
)
from tracer import CACHED  # noqa: E402
from workloads import WORKLOADS, make_plan, write_inputs  # noqa: E402

MIN_ROUNDS = 2
CHECK_NAMES = {
    "hsd": "third_iso_check",
    "secondiso": "second_iso_check",
    "dpn": "dpn_check",
    "diexact": "diexact_check",
    "modular": "modular_check",
    "distributive": "distributive_check",
}
CONTEXT_OPS = (
    "compose", "kernel", "cokernel", "factor_through_kernel", "factor_through_cokernel",
    "normal_mono_failure", "pullback_of_monos", "hom_equal",
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# The host this benchmark was built on changes speed by up to 1.8x over
# minutes, from load outside the container. Every worker times a fixed
# piece of interpreter work (worker.reference_loop) after set-up and every
# 0.25 s of its CLI call, and end_to_end scales times by REFERENCE_S, about
# the loop's median time on that host, over its median time when they
# were taken. A time is then in seconds at the reference speed.
REFERENCE_S = 0.0035


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".calls", ".cases", ".lattices", ".max")) and not metric.endswith("_s.max"):
        return "count"
    return "s"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    return [(name, unit_of(name)) for name in per_layer({"calls": [], "wall_s": 0.0}, 0.0)]


# ---------------------------------------------------------------------------
# the checkout under test


def describe_checkout() -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # a checkout that is not itself a git repository may sit inside one
    top = git("rev-parse", "--show-toplevel")
    commit = git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = git("status", "--porcelain", "--", "src") if commit else None
    return {
        "root": str(ROOT),
        "git_commit": commit or "unknown (not a git checkout)",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one call in a fresh worker process


class Runner:
    def __init__(self, out: Path, plan, golden):
        self.out = out
        self.plan = plan
        self.seed0, self.verdicts = golden
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.monlat_file = None

    def call(self, call, trace: bool) -> dict:
        self.count += 1
        run_id = f"call{self.count:04d}"
        base = self.out / run_id
        job = {
            "root": str(ROOT),
            "argv": list(call.argv),
            "input": str(self.out / "inputs" / f"{call.input}.txt") if call.input else None,
            "trace": trace,
            "run_id": run_id,
            "stdout": f"{base}.stdout",
            "result": f"{base}.json",
            "spans": f"{base}.spans",
        }
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, f"{base}.worker-out", flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, f"{base}.stderr", flags, 0o644),
        ]
        # the monotonic clock is system-wide, so the worker can subtract it
        job["spawned"] = time.monotonic()
        Path(f"{base}.job").write_text(json.dumps(job))
        pid = os.posix_spawn(
            sys.executable, [sys.executable, str(BENCH / "worker.py"), f"{base}.job"],
            self.env, file_actions=actions,
        )
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        stderr = Path(f"{base}.stderr").read_text()
        if code == 3:
            raise SystemExit(f"refusing to time: {stderr.strip()}")
        try:
            result = json.loads(Path(job["result"]).read_text())
            stdout = Path(job["stdout"]).read_text()
        except (OSError, ValueError):
            result, stdout = {"crashed": True, "exit": None, "wall_s": 0.0, "setup_s": 0.0,
                              "reference_s": [REFERENCE_S], "setup_reference_s": [REFERENCE_S]}, ""
        result.update(
            call=call, stdout=stdout, stderr=stderr, worker_exit=code,
            rss_mb=usage.ru_maxrss / 1024,
        )
        self.monlat_file = result.get("monlat_file", self.monlat_file)
        result["problems"] = self.problems(call, result)
        return result

    def problems(self, call, r) -> list[str]:
        out = []
        if r["worker_exit"] != 0 or r["crashed"] or "Traceback" in r["stderr"]:
            out.append(f"worker failed (exit {r['worker_exit']}): {r['stderr'][-300:]}")
        if r.get("leftover_wrappers"):
            out.append(f"tracing wrappers left behind: {r['leftover_wrappers'][:3]}")
        if r["exit"] not in (0, 1):
            out.append(f"exit code {r['exit']}")
        if self.plan.seed == 0 and not self.plan.tiny:
            want = self.seed0[self.plan.workload].get(call.key)
            if want != {"exit": r["exit"], "stdout": r["stdout"]}:
                out.append("output differs from the seed-0 golden file")
        if self.verdicts.get(call.key) != signature(call, r["exit"], r["stdout"]):
            out.append("verdicts differ from the golden verdicts of this input class")
        return out + known_answer_problems(call, r["exit"], r["stdout"], self.plan)

    def round(self, index: int, trace: bool) -> dict:
        start = time.monotonic()
        calls = [self.call(c, trace) for c in self.plan.round(index)]
        broken = implication_problems([c["stdout"] for c in calls])
        if broken:
            for c in calls:
                c["problems"] += broken
        return {"calls": calls, "elapsed": time.monotonic() - start,
                "wall_s": sum(c["wall_s"] for c in calls)}


# ---------------------------------------------------------------------------
# metrics


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def speed(samples) -> float:
    """The host's speed relative to the reference, from reference-loop times."""
    return REFERENCE_S / statistics.median(samples)


def end_to_end(rounds) -> tuple[dict, dict]:
    """Times are scaled to the reference host speed, each by the reference
    loops its own worker timed: set-up by those right after set-up, a call
    by those before and during it. The spread lines keep the raw times."""
    calls = [c for r in rounds for c in r["calls"]]
    spread = {
        "wall_s": quartiles([r["wall_s"] for r in rounds]),
        "setup_s": quartiles([c["setup_s"] for c in calls]),
        "peak_rss_mb": quartiles([c["rss_mb"] for c in calls]),
        "host_speed": quartiles([speed(c["reference_s"]) for c in calls]),
    }
    values = {
        "wall_s": statistics.median(
            sum(c["wall_s"] * speed(c["reference_s"]) for c in r["calls"]) for r in rounds
        ),
        "setup_s": statistics.median(c["setup_s"] * speed(c["setup_reference_s"]) for c in calls),
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
    }
    return values, spread


def nearest_rank(values, share) -> float:
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(len(values) * share) - 1)]


def per_layer(traced, untraced_wall: float) -> dict:
    names: dict[str, dict] = {}
    caches = {name: [0, 0] for name in CACHED}
    object_s, totals = [], dict(cases=0, cross_check_s=0.0, parse_s=0.0, emit_s=0.0,
                                lattice_size_max=0, census_lattices=0)
    for c in traced["calls"]:
        t = c.get("trace")
        if t is None:
            continue
        for name, v in t["names"].items():
            acc = names.setdefault(name, {"calls": 0, "self_s": 0.0, "repeats": 0})
            for k in acc:
                acc[k] += v[k]
        for name in CACHED:
            caches[name][0] += t["caches"][name][0]
            caches[name][1] += t["caches"][name][1]
        object_s += t["object_s"]
        for k in ("cases", "cross_check_s", "parse_s", "emit_s", "census_lattices"):
            totals[k] += t[k]
        totals["lattice_size_max"] = max(totals["lattice_size_max"], t["lattice_size_max"])

    def get(name, field):
        return names.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for d in range(4):
        for op in CONTEXT_OPS:
            m[f"context.d{d}.{op}.calls"] = get(f"context.d{d}.{op}", "calls")
            m[f"context.d{d}.{op}.self_s"] = get(f"context.d{d}.{op}", "self_s")
    for d in range(1, 4):
        for op in ("kernel", "cokernel", "subobject_mono"):
            n = f"context.d{d}.{op}"
            m[f"{n}.repeat_ratio"] = ratio(get(n, "repeats"), get(n, "calls"))
    for name in ("monoid.compose", "monoid.isomorphisms", "nsub.enumerate_nsub",
                 "nsub.join_via_uniinter", "nsub.is_modular", "nsub.is_distributive"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["monoid.normal_closure.self_s"] = get("monoid.normal_closure", "self_s")
    for name, (hits, misses) in caches.items():
        m[f"monoid.{name}.hit_ratio"] = ratio(hits, hits + misses)
    m["nsub.enumerate_nsub.repeat_ratio"] = ratio(
        get("nsub.enumerate_nsub", "repeats"), get("nsub.enumerate_nsub", "calls"))
    m["nsub.lattice_size.max"] = totals["lattice_size_max"]
    m["context.d0.normal_subobject_monos.self_s"] = get("context.d0.normal_subobject_monos", "self_s")
    for short, fn in CHECK_NAMES.items():
        m[f"checks.{short}.calls"] = get(f"checks.{fn}", "calls")
        m[f"checks.{short}.self_s"] = get(f"checks.{fn}", "self_s")
    m["checks.diexact.cross_check_s"] = totals["cross_check_s"]
    m["checks.objects_at_depth.self_s"] = get("checks.objects_at_depth", "self_s")
    m["checks.object_s.p50"] = nearest_rank(object_s, 0.5)
    m["checks.object_s.p90"] = nearest_rank(object_s, 0.9)
    m["checks.object_s.max"] = max(object_s, default=0.0)
    m["checks.cases"] = totals["cases"]
    for name in ("lattices_of_size", "canonical_join_table"):
        m[f"census.{name}.self_s"] = get(f"census.{name}", "self_s")
    m["census.lattices"] = totals["census_lattices"]
    m["formats.parse_s"] = totals["parse_s"]
    m["formats.emit_s"] = totals["emit_s"]
    m["cli.self_s"] = sum(v["self_s"] for k, v in names.items() if k.startswith("cli."))
    m["trace.overhead_ratio"] = ratio(traced["wall_s"], untraced_wall)
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monlat" / "__init__.py").is_file():
        print(f"no monlat sources under {ROOT / 'src'}; run from a monlat checkout", file=sys.stderr)
        return 2
    out = BENCH / "_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    plan = make_plan(args.workload, args.seed, args.tiny)
    write_inputs(plan, out / "inputs")
    checkout = describe_checkout()
    runner = Runner(out, plan, load_golden())

    begin = time.monotonic()
    if args.trace:
        untraced = runner.round(0, trace=False)
        traced = runner.round(0, trace=True)
        rounds = [untraced, traced]
        for a, b in zip(untraced["calls"], traced["calls"]):
            if (a["exit"], a["stdout"]) != (b["exit"], b["stdout"]):
                b["problems"].append("traced output differs from untraced output")
        metrics = per_layer(traced, untraced["wall_s"])
        units = {name: unit_of(name) for name in metrics}
        spread = {}
    else:
        rounds = []
        while True:
            rounds.append(runner.round(len(rounds), trace=False))
            elapsed = time.monotonic() - begin
            typical = statistics.median(r["elapsed"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                break
        metrics, spread = end_to_end(rounds)
        units = dict(END_TO_END)

    calls = [c for r in rounds for c in r["calls"]]
    failed = [c for c in calls if c["problems"]]
    checkout["monlat_file"] = runner.monlat_file
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "checkout": checkout, "rounds": len(rounds),
        "metrics": metrics, "spread": spread,
        "failures": [{"call": c["call"].key, "problems": c["problems"]} for c in failed],
    }
    (out / "result.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# checkout {checkout['git_commit']} dirty={checkout['git_dirty']} "
          f"monlat={checkout['monlat_file']} nproc={checkout['nproc']} "
          f"python={checkout['python']} loadavg={checkout['loadavg'][0]:.2f}")
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} calls={len(calls)} "
          f"failed_share={len(failed) / len(calls):.4f}")
    for f in failed[:10]:
        print(f"# FAILED {f['call'].key}: {'; '.join(f['problems'])[:500]}")
    if spread:
        print("# raw times; the JSON scales them by host_speed")
    for name, s in spread.items():
        print(f"# {name} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
