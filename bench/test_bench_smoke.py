"""The benchmark runs, prints what BENCHMARK.json promises, and notices a
wrong output.  No timing assertions: sizes here are toys."""

import json
import pathlib
import platform
import re
import subprocess
import sys

import numpy

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_smoke_prints_every_metric_of_every_workload():
    code, doc = _bench("--smoke")
    assert code == 0
    promised = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in promised)
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in doc["workloads"].items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        printed = {metric: value["unit"] for metric, value in result["metrics"].items()}
        assert printed == promised, name


def test_wrong_pinned_digest_is_a_failure(tmp_path):
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    # the pin applies only where it was recorded: claim it was recorded here
    expected["fingerprint"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    expected["digests"]["fleet32"]["smoke"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    code, result = _bench("--smoke", "--workload", "fleet32", "--expected", str(wrong))
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
