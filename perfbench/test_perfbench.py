"""Tests of the benchmark itself, on the few-second `smoke` workload.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*extra, trace=0):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", str(DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return done, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_and_passes_the_gate(trace, section):
    done, result = run_bench(trace=trace)
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert "fail_frac" in done.stdout
    env = json.loads(done.stdout.splitlines()[-2])["environment"]
    assert env["seed"] == DEFAULT_SEED and env["absent"] == []


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    reference = json.loads((HERE / "reference_digests.json").read_text(encoding="utf-8"))
    reference["digests"]["quaternary:5:s1"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    done, result = run_bench("--reference", str(corrupted))
    assert done.returncode != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert "FAIL quaternary:5:s1" in done.stderr


def test_tracer_self_times_and_absent_names():
    fake = types.ModuleType("fake")
    fake.leaf = lambda: sum(range(1000))
    fake.outer = lambda: [fake.leaf() for _ in range(3)]
    tracer = Tracer()
    tracer.patch(fake, "leaf", tracer.calls("leaf"))
    tracer.patch(fake, "outer", tracer.calls("outer", lambda result: {"n": len(result)}))
    tracer.patch(fake, "gone", tracer.calls("gone"))
    fake.outer()
    tracer.restore()
    assert tracer.absent == ["fake.gone"]
    assert [s[0] for s in tracer.spans] == ["outer", "leaf", "leaf", "leaf"]
    outer = tracer.spans[0]
    children = sum(s[5] - s[4] for s in tracer.spans[1:])
    assert Tracer.self_s(outer) == pytest.approx(outer[5] - outer[4] - children)
    assert outer[7] == {"n": 3}
    fake.outer()  # restored: no new spans
    assert len(tracer.spans) == 4
