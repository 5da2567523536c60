"""Smoke test of the benchmark itself, on small inputs.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Runs each workload once untraced and once traced with --tiny, and checks
that every metric named in BENCHMARK.json is printed with its unit and that
no call failed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def test_spec_matches_the_metrics_the_runner_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    result = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--tiny")
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if trace == "1":
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_output_is_counted_as_failed(monkeypatch):
    """A call whose verdicts differ from the golden ones fails."""
    monkeypatch.setattr(run, "signature", lambda call, code, stdout: ["tampered"])
    result = bench("--workload", "lattice", "--seed", "7", "--seconds", "1", "--tiny")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tracer_leaves_nothing_behind():
    import monlat.checks
    import monlat.context
    from tracer import Tracer, leftover_wrappers

    originals = (monlat.checks.CHECKS["hsd"], monlat.context.SesContext.compose)
    tracer = Tracer("t")
    tracer.install()
    assert leftover_wrappers()
    tracer.uninstall()
    assert leftover_wrappers() == []
    assert (monlat.checks.CHECKS["hsd"], monlat.context.SesContext.compose) == originals
