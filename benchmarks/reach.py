"""Hold every function of ``src/repro`` to a caller that runs.

    python3 benchmarks/reach.py

Copies the checkout (tracked and unignored files) into a temporary
directory and runs there every consumer of the program that CI and the
nightly workflow run:

* both table tests, the ten examples and ``bench.run --smoke``;
* the four traced ``bench.run`` workloads ``check_counts.py`` measures;
* CI's three ``benchmarks/bench_*`` smokes and both ``repro.perf.gate``
  legs, whose wall-clock verdicts the hook distorts, so their exit code
  is reported but not required;
* the three live record -> stress -> ``replay --check`` legs (plain, p2c
  with autoscaling, and the server killed by SIGKILL), on free ports;
* the campaign-search-smoke leg (search run, resume, export, the grid
  run of the exported cell, search report);
* the ``nightly`` preset as the nightly workflow runs it, its dashboard
  and its diff.

A ``sitecustomize`` on ``PYTHONPATH`` installs a trace hook in every
interpreter those start, spawned campaign workers and killed servers
included.  The hook logs each code object under ``src/repro`` on its
first entry, one ``O_APPEND`` line at a time, so a process that dies by
SIGKILL or ``os._exit`` keeps what it entered.  The entered code objects
are matched to the AST's function definitions by file, first line (the
first decorator's, as the compiler counts it) and name.  A definition is
keyed ``path:qualname``, the path relative to ``src/repro``; where two
definitions share a qualname (a property's getter and setter), the
second is ``#2``, the third ``#3``.

Exits 1 naming each definition that was never entered and is not in
``IDLE``, and each ``IDLE`` entry that was entered or names no
definition; 0 otherwise.  ``IDLE`` is reviewed by hand, as
``COUNTS.json`` is: an entry stays only for one of the five reasons of
DESIGN.md "What stays, even idle".  The copy is deleted afterwards, so
the checkout's ``git status`` is unchanged.
"""

import ast
import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: wall seconds any one consumer, server or client may take under the hook
TIMEOUT = 1200
#: the five reasons a definition that nothing enters may stay (DESIGN.md
#: "What stays, even idle"); safety code names the tier-1 test that enters it
SAFETY = "safety code"
ROUTE = "control plane"
STUB = "interface stub"
TEST_REFERENCE = "test reference"
PROTOCOL = "protocol surface"

_CLI = "tests/test_campaign_cli.py::test_exit_codes_run_then_resume"
_SUPERVISE = "tests/test_campaign_supervise.py::"
_HEALTHY = "tests/test_chaos_invariants.py::test_healthy_run_is_silent_and_assert_ok_passes"
_BREAKER = "tests/test_obs.py::test_breaker_walks_the_state_machine_on_the_sim_clock"
_FAULT_FILE = _SUPERVISE + "test_malformed_fault_file_is_refused_before_any_marker"
_DIGEST = f"{TEST_REFERENCE}: the state digest tests/test_sims_trajectory.py hashes"
_REPR = f"{PROTOCOL}: the object's repr"

#: definitions that no consumer enters, each with its reason
IDLE = {
    # 1. safety code: the paths a failure takes
    "campaign/runner.py:_CellFault.__post_init__": f"{SAFETY}: {_FAULT_FILE}",
    "campaign/runner.py:_read_faults": f"{SAFETY}: {_FAULT_FILE}",
    "campaign/store.py:ResultStore.append_quarantine": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:_Task.quarantine_record": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:Supervisor.request_drain": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:Supervisor._on_signal": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:Supervisor._flush_inflight": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:Supervisor._count": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:Supervisor._fail": f"{SAFETY}: {_CLI}",
    "campaign/supervise.py:Supervisor._backoff": f"{SAFETY}: tests/test_campaign_search.py"
    "::test_poison_cell_scores_worst_case_and_is_skipped_on_resume",
    "campaign/supervise.py:Supervisor._on_crash": f"{SAFETY}: {_SUPERVISE}"
    "test_sigkill_mid_cell_is_retried_to_the_same_grid",
    "campaign/supervise.py:Supervisor._respawn": f"{SAFETY}: {_SUPERVISE}"
    "test_sigkill_mid_cell_is_retried_to_the_same_grid",
    "campaign/supervise.py:Supervisor._on_timeout": f"{SAFETY}: {_SUPERVISE}"
    "test_hung_cell_is_killed_quarantined_and_skipped_on_resume",
    "chaos/invariants.py:InvariantMonitor._violate": f"{SAFETY}: "
    "tests/test_chaos_invariants.py::test_monitor_catches_a_lost_session",
    "chaos/invariants.py:InvariantMonitor.ok": f"{SAFETY}: {_HEALTHY}",
    "chaos/invariants.py:InvariantMonitor.assert_ok": f"{SAFETY}: {_HEALTHY}",
    "chaos/invariants.py:InvariantMonitor.render": f"{SAFETY}: {_HEALTHY}",
    "chaos/recovery.py:RecoveryOrchestrator._abandon": f"{SAFETY}: "
    "tests/test_chaos_recovery.py::test_abandon_policy_gives_up_instead_of_requeueing",
    "des/core.py:Event.fail": f"{SAFETY}: "
    "tests/test_covise.py::test_unconnected_input_detected_at_execute",
    "obs/protect.py:CircuitBreaker.record_failure": f"{SAFETY}: {_BREAKER}",
    "obs/protect.py:CircuitBreaker._transition": f"{SAFETY}: {_BREAKER}",
    "obs/fabric.py:Observability._on_breaker_transition": f"{SAFETY}: "
    "tests/test_obs_streams.py::test_worlds_emit_every_span_name",
    "ogsa/container.py:OgsiLiteContainer.restart": f"{SAFETY}: tests/test_chaos_recovery.py"
    "::test_migrate_into_dead_container_refused_and_source_keeps_service",
    # 2. the live control plane's HTTP routes and the CLI's defaults
    "live/server.py:LiveServer._delete_session": f"{ROUTE}: DELETE /sessions/<name>",
    "campaign/cli.py:_default_store": f"{ROUTE}: `campaign run` without --store",
    # 3. interface stubs: base methods every implementation overrides
    "sims/base.py:Simulation.advance": f"{STUB}: Simulation",
    "sims/base.py:Simulation.sample": f"{STUB}: Simulation",
    "sims/base.py:Simulation.steerable_parameters": f"{STUB}: Simulation",
    "sims/base.py:Simulation.set_parameter": f"{STUB}: Simulation",
    "sims/base.py:Simulation.checkpoint": f"{STUB}: Simulation",
    "campaign/search.py:SearchStrategy.propose": f"{STUB}: SearchStrategy",
    "campaign/search.py:SearchStrategy.to_dict": f"{STUB}: SearchStrategy",
    "load/placement.py:PlacementPolicy.choose": f"{STUB}: PlacementPolicy",
    "load/arrivals.py:ArrivalProcess.times": f"{STUB}: ArrivalProcess",
    "load/arrivals.py:_ThinnedArrivals.rate_at": f"{STUB}: _ThinnedArrivals",
    "load/arrivals.py:_ThinnedArrivals.peak_rate": f"{STUB}: _ThinnedArrivals",
    "covise/modules.py:Module.run": f"{STUB}: COVISE Module",
    "covise/modules.py:Module.cost": f"{STUB}: COVISE Module",
    "covise/dataobj.py:DataObject.nbytes": f"{STUB}: COVISE DataObject",
    "obs/metrics.py:_Family._expose_series": f"{STUB}: _Family",
    "obs/metrics.py:_Family.snapshot_series": f"{STUB}: _Family",
    "visit/protocol.py:VisitService._answer": f"{STUB}: VisitService",
    # 4. test references
    "ogsa/registry.py:RegistryService._find_naive": f"{TEST_REFERENCE}: the linear scan "
    "tests/test_registry_index.py holds the indexed find to",
    "sims/building.py:BuildingClimate.checkpoint": _DIGEST,
    "sims/crowd.py:CrowdSim.checkpoint": _DIGEST,
    "sims/lb3d.py:LatticeBoltzmann3D.checkpoint": _DIGEST,
    "sims/pepc/integrator.py:PlasmaSim.checkpoint": _DIGEST,
    # 5. the OGSI GridService portType, the listed operations, repr and pickling
    "ogsa/service.py:GridService.destroy": f"{PROTOCOL}: OGSI GridService destroy",
    "ogsa/service.py:GridService.get_service_data": f"{PROTOCOL}: OGSI findServiceData",
    "ogsa/service.py:GridService.request_termination_after": f"{PROTOCOL}: OGSI "
    "requestTerminationAfter",
    "fleet/registry_fed.py:FederatedRegistry.get_service_data": f"{PROTOCOL}: OGSI "
    "findServiceData, refreshed across front-ends",
    "fleet/registry_fed.py:FederatedRegistry.unpublish": f"{PROTOCOL}: the registry portType "
    "each front-end exposes as its shards do",
    "ogsa/steering_service.py:SteeringService.pause": f"{PROTOCOL}: a listed steering operation",
    "ogsa/steering_service.py:SteeringService.resume": f"{PROTOCOL}: a listed steering operation",
    "sims/building.py:BuildingClimate.__getstate__": f"{PROTOCOL}: a copy shares no plan",
    "sims/lb3d.py:LatticeBoltzmann3D.__getstate__": f"{PROTOCOL}: a copy shares no plan",
    "covise/dataobj.py:DataObject.__repr__": _REPR,
    "covise/modules.py:Module.__repr__": _REPR,
    "des/core.py:Event.__repr__": _REPR,
    "net/channel.py:Connection.__repr__": _REPR,
    "net/channel.py:Listener.__repr__": _REPR,
    "net/network.py:Host.__repr__": _REPR,
    "net/network.py:Link.__repr__": _REPR,
    "util/stats.py:RunningStats.__repr__": _REPR,
    "visit/client.py:VisitClient.__repr__": _REPR,
    "viz/framebuffer.py:FrameBuffer.__repr__": _REPR,
}

HOOK = """\
import os
import sys
import threading

_ROOT = {root!r}
_LOG = {log!r}
_seen = {{}}
_out = [None, None]


def _hook(frame, event, arg):
    code = frame.f_code
    if id(code) in _seen:
        return None
    _seen[id(code)] = code
    if code.co_filename.startswith(_ROOT):
        pid = os.getpid()
        if _out[1] != pid:
            path = os.path.join(_LOG, "%d.log" % pid)
            _out[0] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            _out[1] = pid
        line = "%s\\t%d\\t%s\\n" % (
            code.co_filename[len(_ROOT):], code.co_firstlineno, code.co_name
        )
        os.write(_out[0], line.encode())
    return None


sys.settrace(_hook)
threading.settrace(_hook)
"""


# -- the definitions ----------------------------------------------------------


def definitions(path: str, source: str) -> dict:
    """``{(first line, name): key}`` for every function defined in
    ``source``; ``path`` is the key's path part."""
    found = {}
    counts = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                counts[qualname] = counts.get(qualname, 0) + 1
                n = counts[qualname]
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[first, child.name] = f"{path}:{qualname}" + (f"#{n}" if n > 1 else "")
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def source_definitions(src: pathlib.Path) -> dict:
    """``{relative path: definitions(...)}`` for every module under ``src``."""
    return {
        rel: definitions(rel, path.read_text())
        for path in sorted(src.rglob("*.py"))
        for rel in [path.relative_to(src).as_posix()]
    }


def entered_keys(entries, defs: dict) -> set:
    """The keys of ``defs`` that the ``(path, first line, name)`` entries
    hit; code objects that are no definition (a lambda, a comprehension,
    a class body, a module) match nothing."""
    return {
        defs[path][first, name]
        for path, first, name in entries
        if (first, name) in defs.get(path, {})
    }


def read_logs(log: pathlib.Path) -> set:
    entries = set()
    for file in log.glob("*.log"):
        for line in file.read_text().splitlines():
            path, first, name = line.split("\t")
            entries.add((path.replace(os.sep, "/"), int(first), name))
    return entries


def check(entered: set, keys: set, idle: dict) -> list:
    """What is wrong with ``idle`` against one run: every problem as a line."""
    problems = [
        f"never entered and not in IDLE: {key}" for key in sorted(keys - entered - set(idle))
    ]
    problems += [f"in IDLE but entered: {key}" for key in sorted(set(idle) & entered)]
    problems += [f"in IDLE but no such definition: {key}" for key in sorted(set(idle) - keys)]
    return problems


# -- the consumers ------------------------------------------------------------


def _wait(proc: subprocess.Popen, what: str) -> int:
    try:
        return proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{what} did not end within {TIMEOUT} s") from None


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Consumers:
    """Runs each consumer in the copy at ``root`` under ``env``."""

    def __init__(self, root: pathlib.Path, env: dict):
        self.root = root
        self.env = env

    def start(self, *argv: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def run(self, *argv: str, timing: bool = False) -> None:
        """Run one consumer, which must pass unless it is a ``timing``
        gate: the hook slows every call, so a verdict on wall time or
        events per second means nothing here (CI's own jobs gate those),
        and each such gate enters the same functions whether it passes
        or fails."""
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        verdict = f"  (exit {done.returncode}: a timing verdict)" if done.returncode else ""
        print(f"  {time.perf_counter() - t0:6.1f}s  {' '.join(argv)}{verdict}", flush=True)
        if done.returncode != 0 and not timing:
            raise SystemExit(
                f"consumer failed ({done.returncode}): {' '.join(argv)}\n"
                f"{done.stdout[-3000:]}{done.stderr[-3000:]}"
            )

    def serve(self, port: int, trace: str, *flags: str) -> subprocess.Popen:
        """A recording live server on ``port``, once it accepts connections."""
        server = self.start("-m", "repro.live", "record", "--trace", trace,
                            "--port", str(port), "--rate", "20", "--seed", "0", *flags)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                return server
            except OSError:
                time.sleep(0.1)
        server.kill()
        raise SystemExit(f"the live server on port {port} never listened")

    def stress(self, port: int, duration: str) -> list:
        return ["-m", "repro.live", "stress", "--port", str(port), "--rate", "15",
                "--duration", duration, "--seed", "0", "--steer-every", "4"]

    def live_leg(self, trace: str, *flags: str) -> None:
        port = _free_port()
        server = self.serve(port, trace, "--duration", "6", *flags)
        self.run(*self.stress(port, "3"))
        if _wait(server, f"the live server recording {trace}") != 0:
            raise SystemExit(f"the live server recording {trace} failed")
        self.run("-m", "repro.live", "replay", trace, "--check")

    def kill_leg(self) -> None:
        port = _free_port()
        server = self.serve(port, "live-kill.jsonl", "--duration", "30")
        stress = self.start(*self.stress(port, "4"))
        time.sleep(2)
        server.send_signal(signal.SIGKILL)
        _wait(server, "the killed live server")
        _wait(stress, "the stress client of the killed server")
        self.run("-c", "from repro.live.trace import load_trace; "
                       "t = load_trace('live-kill.jsonl'); "
                       "assert t.arrivals and not t.sealed")
        self.run("-m", "repro.live", "replay", "live-kill.jsonl", "--check")

    def all(self) -> None:
        self.run("-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/test_paper_table.py", "tests/test_behaviour_table.py")
        for example in sorted((self.root / "examples").glob("*.py")):
            self.run(f"examples/{example.name}")
        self.run("-m", "bench.run", "--smoke")
        counts = json.loads((self.root / "benchmarks" / "COUNTS.json").read_text())
        for workload in counts["workloads"]:
            self.run("-m", "bench.run", "--workload", workload, "--seconds", "1",
                     "--trace", "1")
        self.run("-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "benchmarks/bench_obs.py::test_obs_smoke",
                 "benchmarks/bench_live.py::test_live_smoke",
                 "benchmarks/bench_lb3d.py::test_lb3d_scaling", timing=True)
        self.run("-m", "repro.perf.gate", "--sessions", "128", "--threshold", "1.0",
                 timing=True)
        self.run("-m", "repro.perf.gate", "--kernel", "--threshold", "3.0", timing=True)
        self.live_leg("live-ci.jsonl")
        self.live_leg("live-p2c.jsonl", "--placement", "p2c", "--autoscale")
        self.kill_leg()
        self.search_leg()
        self.nightly_leg()

    def search_leg(self) -> None:
        campaign = ("-m", "repro.campaign")
        self.run(*campaign, "search", "run", "--preset", "cliff-smoke",
                 "--store", "search-ci.jsonl", "--workers", "2",
                 "--max-cell-retries", "2", "--fail-on-violations")
        self.run(*campaign, "search", "resume", "--store", "search-ci.jsonl",
                 "--fail-on-violations")
        self.run(*campaign, "search", "export", "--store", "search-ci.jsonl",
                 "--top", "3", "--out", "cliff-cells.json")
        cells = json.loads((self.root / "cliff-cells.json").read_text())["cells"]
        (self.root / "cliff-1.json").write_text(json.dumps(cells[0]["spec"]))
        self.run(*campaign, "run", "--spec", "cliff-1.json", "--store",
                 "cliff-replay.jsonl", "--fail-on-violations")
        self.run(*campaign, "search", "report", "--store", "search-ci.jsonl",
                 "--html", "search-dashboard.html")

    def nightly_leg(self) -> None:
        campaign = ("-m", "repro.campaign")
        store = "campaign-results/nightly.jsonl"
        self.run(*campaign, "run", "--preset", "nightly", "--workers", "2",
                 "--max-cell-seconds", "300", "--max-cell-retries", "2",
                 "--store", store, "--bench-out",
                 "campaign-results/BENCH_campaign_nightly.json", "--per-cell",
                 "--fail-on-violations")
        self.run(*campaign, "report", "--store", store, "--html",
                 "campaign-results/nightly-dashboard.html")
        self.run(*campaign, "diff", store, store)


def copy_checkout(dest: pathlib.Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for rel in filter(None, listed):
        source = ROOT / rel
        if source.is_file():
            target = dest / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = pathlib.Path(tmp)
        copy, hook, log = tmp / "checkout", tmp / "hook", tmp / "log"
        for d in (copy, hook, log):
            d.mkdir()
        copy_checkout(copy)
        src = copy / "src" / "repro"
        (hook / "sitecustomize.py").write_text(
            HOOK.format(root=str(src) + os.sep, log=str(log))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(hook), "src", "."])
        print(f"running every consumer in {copy}", flush=True)
        Consumers(copy, env).all()
        defs = source_definitions(src)
        entered = entered_keys(read_logs(log), defs)
    keys = {key for found in defs.values() for key in found.values()}
    idle = keys - entered
    print(f"{len(keys)} definitions, {len(idle)} never entered, {len(IDLE)} listed idle")
    problems = check(entered, keys, IDLE)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
