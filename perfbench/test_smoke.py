"""Smoke check of the benchmark at tiny sizes, with no timing bound.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SEED = 5


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _ancestors(spans, i):
    names = []
    parent = spans[i][3]
    while parent is not None:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_tiny_run(workload):
    result = _bench(workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("per_layer")

    spans = json.loads(
        (run.WORK / f"spans-{workload}-seed{SEED}.json").read_text()
    )["spans"]
    traced = sorted({sp[4] for sp in spans})
    assert len(traced) >= 2
    counts = [tracer.counts_of(tracer.aggregate(spans, p)) for p in traced]
    assert all(c == counts[0] for c in counts)
    names = {sp[0] for sp in spans}
    if workload == "spectral":
        nested = [
            _ancestors(spans, i) for i, sp in enumerate(spans)
            if sp[0] == "semiring.matmul"
        ]
        assert any(
            "spectral.analyze" in a
            and "cmd.analyze" in a[a.index("spectral.analyze"):]
            for a in nested
        )
    if workload == "orbit":
        assert not any(n.split(".")[0] in ("semiring", "spectral") for n in names)


def test_untraced_tiny_run_reports_end_to_end_metrics():
    result = _bench("timed_run", trace=0)
    assert result["correct"] is True and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
