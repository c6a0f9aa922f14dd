"""``python3 -m bench.run --selfcheck``: is the benchmark steadier than its bounds?

Runs two sets of :data:`RUNS` runs of *this* checkout, a new ``--seed``
each run, the sets alternating A B B A … so both sample the same span of
wall-clock time, and judges every (workload, end-to-end metric) pair the
way a change will be judged against its parent:

* the distance between the quartiles of each set, as a share of its
  median, must stay within the metric's bound (``setup_s`` excepted);
* the two medians must agree within the bound.

Then one traced run per set checks that the exact counters repeat
exactly.  The numbers of an accepted self-check, with the environment
they were measured on, are written to ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from bench.env import OUT, ROOT, BenchError, fingerprint

RUNS = 10
BASELINE = ROOT / "bench" / "baseline.json"

#: counters that must read the same in every run of a deterministic workload
EXACT = (
    "des.events",
    "fleet.sessions_completed",
    "fleet.steer_ops",
    "fleet.sim_makespan_s",
    "fleet.sim_steer_p50_ms",
    "fleet.sim_steer_p99_ms",
    "campaign.cells",
)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "-m", "bench.run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def _cell(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def selfcheck() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    environment = fingerprint()
    print(f"self-check on {environment}: 2 x {RUNS} runs x {len(workloads)} workloads")

    samples = {s: {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads} for s in "AB"}
    for slot in range(2 * RUNS):
        which = "ABBA"[slot % 4]
        for workload in workloads:
            result = _run(workload, slot, seconds, trace=0)
            for name, values in samples[which][workload].items():
                values.append(result["metrics"][name]["value"])
        print(f"  run {slot + 1}/{2 * RUNS} (set {which}) done", flush=True)

    ok = True
    pairs = []
    print(f"{'workload':<14}{'metric':<13}{'A median [q1, q3]':<34}{'B median [q1, q3]':<34}"
          f"{'spread A':>9}{'spread B':>9}{'gap':>8}{'bound':>7}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (_summary(samples[s][workload][name]) for s in "AB")
            gap = abs(b["median"] - a["median"]) / a["median"]
            steady = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
            verdict = "PASS" if steady and gap <= bound else "FAIL"
            ok = ok and verdict == "PASS"
            pairs.append({"workload": workload, "metric": name, "unit": metric["unit"],
                          "bound": bound, "a": a, "b": b, "gap": gap, "verdict": verdict})
            print(f"{workload:<14}{name:<13}{_cell(a):<34}{_cell(b):<34}"
                  f"{a['spread']:>9.3f}{b['spread']:>9.3f}{gap:>8.3f}{bound:>7.2f}  {verdict}")

    counters = {}
    for workload in workloads:
        if workload == "live_mixed":
            continue  # its counts depend on the wall clock
        a, b = (_run(workload, 0, seconds, trace=1)["metrics"] for _ in "AB")
        counters[workload] = {name: a[name]["value"] for name in EXACT}
        same = all(a[name]["value"] == b[name]["value"] for name in EXACT)
        ok = ok and same
        print(f"{workload:<14}exact counters {'repeat: PASS' if same else 'DIFFER: FAIL'} "
              f"{counters[workload]}")

    doc = {"environment": environment, "run_seconds": seconds, "runs_per_set": RUNS,
           "pairs": pairs, "exact_counters": counters}
    if ok:
        target = BASELINE
        print(f"accepted; baseline written to {BASELINE}")
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        target = OUT / "selfcheck-rejected.json"
        print(f"NOT accepted (numbers kept in {target}): some pair moved more than its bound "
              "between two sets of the same code")
    target.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1
