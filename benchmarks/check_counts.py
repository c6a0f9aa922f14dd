"""Check the exact counts pinned in ``benchmarks/COUNTS.json``.

    python3 benchmarks/check_counts.py

For every workload the file names, runs ``python3 -m bench.run
--workload W --seconds 1 --trace 1`` from the repository root and
compares each pinned count with the run's.  Exits 1 naming every count
that differs (or a run that is not ``correct``), 0 otherwise.

These counts are exact: kernel events, calls per traced layer and bytes
written repeat from run to run of one commit on any machine.  Call
counts are cProfile's and depend on the interpreter's feature release:
3.12 inlines comprehensions (PEP 709), so their frames stop counting.
The file records the python they were measured on, and the checker
refuses, exit 2, to compare under another ``major.minor``.  A count
that varies between two runs of one commit (wall-clock paced, or
carrying timings) is not pinned.  A change that moves a count on purpose
re-measures it twice and commits the new value with the reason.
"""

import json
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = pathlib.Path(__file__).with_name("COUNTS.json")


def measure(workload: str) -> dict:
    """One traced ``bench.run`` of ``workload``: its final JSON line."""
    argv = [sys.executable, "-m", "bench.run", "--workload", workload, "--seconds", "1"]
    done = subprocess.run(
        [*argv, "--trace", "1"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def differences(workload: str, pinned: dict, run: dict) -> list[str]:
    out = [] if run["correct"] else [f"{workload}: the run is not correct"]
    for name, want in pinned.items():
        got = run["metrics"].get(name, {}).get("value")
        if got != want:
            out.append(f"{workload} {name}: pinned {want}, measured {got}")
    return out


def main() -> int:
    counts = json.loads(COUNTS.read_text())
    here = platform.python_version()
    if here.split(".")[:2] != counts["python"].split(".")[:2]:
        print(
            f"counts were measured on python {counts['python']}; this is python "
            f"{here}: refusing to compare (run the checker under {counts['python']})",
            file=sys.stderr,
        )
        return 2
    wrong = []
    for workload, pinned in counts["workloads"].items():
        found = differences(workload, pinned, measure(workload))
        print(f"{workload}: {'ok' if not found else f'{len(found)} count(s) differ'}")
        wrong += found
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
