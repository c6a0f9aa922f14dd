"""``benchmarks/check_counts.py`` compares only under the python its counts
were measured on: cProfile's call counts change between feature releases
(3.12 inlines comprehensions), so another one must be refused, not failed
count by count."""

import importlib.util
import json
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_counts", BENCHMARKS / "check_counts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_count_file_records_its_python():
    counts = json.loads((BENCHMARKS / "COUNTS.json").read_text())
    assert len(counts["python"].split(".")) == 3


def test_another_feature_release_is_refused_before_any_run(monkeypatch, capsys):
    checker = _checker()
    measured = json.loads((BENCHMARKS / "COUNTS.json").read_text())["python"]
    major, minor, _ = measured.split(".")
    other = f"{major}.{int(minor) + 1}.0"
    monkeypatch.setattr(checker.platform, "python_version", lambda: other)
    monkeypatch.setattr(checker, "measure", _must_not_run)
    assert checker.main() == 2
    err = capsys.readouterr().err
    assert measured in err and other in err


def _must_not_run(workload):
    raise AssertionError(f"ran {workload} under the wrong python")
