"""``python3 -m bench.run --workload W --seed N --seconds S --trace 0|1``

Runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Human-readable sample counts come before it.

Also: ``--smoke`` (all four workloads at toy sizes, both metric sets,
for the tier-1 test) and ``--selfcheck`` (two full sets of runs of this
checkout compared against the bounds in BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

from bench.env import (
    OUT,
    REFERENCE_S,
    ROOT,
    BenchError,
    calibrate,
    fingerprint,
    reap_children,
)

EXPECTED = ROOT / "bench" / "expected.json"

#: an end-to-end number is the median over at least this many repetitions
MIN_REPS = 5
#: ... and setup_s over this many fresh interpreters, after one discarded
SETUP_PROBES = 9
#: p99 only where >= 10 samples lie beyond it
P99_MIN_SAMPLES = 1000


def _pinned_digest(name: str, scale: str, expected_path) -> str | None:
    """The digest pinned for seed 0, if it was recorded on this python
    and numpy (another numpy may round differently; that is not a wrong
    output, so the pin does not apply there)."""
    doc = json.loads(pathlib.Path(expected_path).read_text())
    here = fingerprint()
    if any(doc["fingerprint"][key] != here[key] for key in ("python", "numpy")):
        print(f"note: expected.json was recorded on {doc['fingerprint']}; pin not applied")
        return None
    return doc["digests"].get(name, {}).get(scale)


def _setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Fresh interpreter start -> workload ready for its first timed unit,
    in seconds at reference speed."""
    cmd = [sys.executable, "-m", "bench.run", "--setup-probe", name, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    before = calibrate()
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=120)
        finally:
            proc.kill()  # no-op once it has ended; the with-block then waits
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"setup probe of {name} failed (exit {proc.returncode})")
    return elapsed * REFERENCE_S / statistics.mean((before, calibrate()))


def _setup_child(name: str, seed: int, smoke: bool) -> None:
    from bench.workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        teardown = WORKLOADS[name](seed, smoke, workdir).setup()
        print("ready", flush=True)
        teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _p(samples: list, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _measure(wl, end_to_end: bool, seconds: float) -> tuple[list, list]:
    """Untraced repetitions for ``seconds``, set-up probes between them.

    Returns (repetitions, set-up seconds at reference speed)."""
    from bench.tracer import Spans

    off = Spans(enabled=False)
    # let imports, caches and lazy set-up finish before timing
    type(wl)(wl.seed, True, wl.workdir).repetition(off, -1)

    min_reps = 2 if wl.smoke or not end_to_end else MIN_REPS
    n_probes = 0 if not end_to_end else 2 if wl.smoke else SETUP_PROBES
    budget = 0.0 if wl.smoke else seconds if end_to_end else seconds / 2

    def probe() -> float:
        return _setup_probe(wl.name, wl.seed, wl.smoke)

    if n_probes and not wl.smoke:
        probe()  # discarded: warms the page cache
    reps, probes, spent = [], [], 0.0
    while True:
        t0 = perf_counter()
        reps.append(wl.repetition(off, len(reps)))
        spent += perf_counter() - t0
        # drop the finished world now, so that peak RSS is one
        # repetition's footprint whatever number of them fits the time
        gc.collect()
        if len(probes) < n_probes:
            probes.append(probe())
        if len(reps) >= min_reps and spent + spent / len(reps) > budget:
            break
    while len(probes) < n_probes:
        probes.append(probe())
    return reps, probes


def _gate(wl, checked: list, expected_path) -> tuple[int, int]:
    """Judge every repetition's output; returns (attempted, failed) items."""
    if wl.deterministic:
        first = checked[0]
        for rep in checked[1:]:
            if rep.digest != first.digest:
                rep.problems.append(f"output differs from repetition 0 ({rep.digest[:12]})")
            if rep.counters["des.events"] != first.counters["des.events"]:
                rep.problems.append("des.events differs from repetition 0")
        if wl.seed == 0:
            pinned = _pinned_digest(wl.name, "smoke" if wl.smoke else "full", expected_path)
            if pinned is not None and first.digest != pinned:
                for rep in checked:
                    rep.problems.append(f"output {rep.digest[:12]} is not the pinned {pinned[:12]}")
    for i, rep in enumerate(checked):
        for problem in rep.problems:
            print(f"FAILED repetition {i}: {problem}")
    return sum(rep.items for rep in checked), sum(rep.items for rep in checked if rep.problems)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    end_to_end: bool,
    per_layer: bool,
    smoke: bool = False,
    expected_path=EXPECTED,
) -> dict:
    """Measure one workload; returns the result object the CLI prints."""
    from bench.metrics import COUNTERS, per_layer_names, unit_of
    from bench.probes import run_probes
    from bench.tracer import LAYERS, Spans, profile_layers
    from bench.workloads import WORKLOADS

    cpu0 = time.process_time()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, smoke, workdir)
        reps, probes = _measure(wl, end_to_end, seconds)
        checked = list(reps)
        if per_layer:
            # one traced repetition, after and apart from the timed ones
            wl.timed = False
            spans = Spans(enabled=True)
            traced, traced_wall, self_ms, calls = profile_layers(
                lambda: wl.repetition(spans, len(reps))
            )
            checked.append(traced)
            probe_values = run_probes(wl)
            spans.write(OUT / f"spans-{name}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = _gate(wl, checked, expected_path)

    walls = [rep.wall for rep in reps]
    wall = statistics.median(walls)
    machine_speed = REFERENCE_S / statistics.median(c for rep in reps for c in rep.calibration)
    print(
        f"{name} seed={seed}: {len(reps)} repetitions, host wall median {wall:.3f} s "
        f"(min {min(walls):.3f}, max {max(walls):.3f}, spread {_spread(walls):.3f}), "
        f"machine at {machine_speed:.2f}x reference speed, "
        f"{reps[0].items} items and {len(reps[0].units)} timed units each"
        + (f", output sha256 {reps[0].digest}" if reps[0].digest else "")
    )
    metrics: dict = {}
    if end_to_end:
        # every time below is host time scaled to reference speed by the
        # calibration around its own timed span
        at_reference = [rep.wall * rep.factor for rep in reps]
        p50 = statistics.median(statistics.median(rep.units) * rep.factor for rep in reps)
        if len(reps[0].units) >= P99_MIN_SAMPLES:
            p99 = statistics.median(_p(rep.units, 0.99) * rep.factor for rep in reps)
        else:
            p99 = p50  # too few units for a percentile: the matrix stays full
        print(
            f"at reference speed: wall median {statistics.median(at_reference):.3f} s "
            f"(spread {_spread(at_reference):.3f}); setup_s: median of {len(probes)} "
            f"fresh interpreters (spread {_spread(probes):.3f})"
        )
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "items_per_s": {
                "value": reps[0].items / statistics.median(at_reference),
                "unit": "1/s",
            },
            "unit_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "unit_p99_ms": {"value": p99 * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    if per_layer:
        # a layer, counter or probe this workload does not have reads 0
        values = dict.fromkeys(per_layer_names(), 0.0)
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = self_ms[layer]
            values[f"{layer}.calls"] = calls[layer]
        values.update({key: traced.counters.get(key, 0) for key in COUNTERS})
        values.update(probe_values)
        values["bench.rep_spread"] = _spread(walls)
        values["bench.cpu_s"] = time.process_time() - cpu0
        values["bench.machine_speed_ratio"] = machine_speed
        values["trace.overhead_ratio"] = traced.wall / wall
        total = sum(self_ms.values())
        print(
            f"traced repetition: {traced_wall:.3f} s under cProfile, layer self times "
            f"sum to {total / 1e3:.3f} s ({total / 1e3 / traced_wall:.1%}); shares: "
            + ", ".join(
                f"{layer} {ms / total:.0%}"
                for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1])
                if ms / total >= 0.01
            )
        )
        print(
            "span self times (ms): "
            + ", ".join(f"{k} {v:.1f}" for k, v in sorted(spans.self_times().items()))
        )
        metrics.update({k: {"value": v, "unit": unit_of(k)} for k, v in values.items()})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes (every workload if none named)"
    )
    parser.add_argument("--selfcheck", action="store_true", help="two sets of runs vs the bounds")
    parser.add_argument("--expected", default=str(EXPECTED), help="pinned digests (for tests)")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        _setup_child(args.setup_probe, args.seed, args.smoke)
        return 0
    if args.selfcheck:
        from bench.selfcheck import selfcheck

        return selfcheck()

    from bench.workloads import WORKLOADS

    if args.smoke and not args.workload:
        result = {
            "workloads": {
                name: run_workload(name, args.seed, 0.0, True, True, True, args.expected)
                for name in WORKLOADS
            }
        }
        ok = all(w["correct"] for w in result["workloads"].values())
    else:
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        result = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            end_to_end=args.trace == 0,
            per_layer=args.trace == 1,
            smoke=args.smoke,
            expected_path=args.expected,
        )
        ok = result["correct"]
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
