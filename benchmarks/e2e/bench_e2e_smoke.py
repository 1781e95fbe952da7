"""Smoke test of the end-to-end benchmark at ``--scale tiny``.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once untraced and once traced, each in a fresh process
as the benchmark itself runs, and checks the benchmark's own contract: every
metric named in ``BENCHMARK.json`` is printed with its unit, every output
check passes, the traced pass reproduces the untraced pass bit for bit, and
the spans cover at least 95% of every operation.  Not part of the tier-1
suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, out: Path) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
            "--scale", "tiny", "--trace", str(trace), "--out", str(out),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload: str, tmp_path: Path) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, trace, tmp_path)
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {metric["name"]: metric["unit"] for metric in SPEC[section]}
        if section == "end_to_end":
            assert all(metric["value"] > 0 for metric in result["metrics"].values())

    # The traced run also compares its own untraced and traced passes (a
    # mismatch fails a check above); the untraced run's extra repeats do not
    # enter its fingerprint, so all three must agree.
    untraced, traced = (
        json.loads((tmp_path / f"{workload}-s0-trace{t}.json").read_text(encoding="utf-8"))
        for t in (0, 1)
    )
    assert untraced["fingerprint"] == traced["fingerprint"]
    assert min(op["coverage"] for op in traced["ops"]) >= 0.95, traced["ops"]
    with gzip.open(tmp_path / f"{workload}-s0.spans.jsonl.gz", "rt") as handle:
        kinds = {json.loads(line)["type"] for line in handle}
    assert kinds == {"op", "span"}
