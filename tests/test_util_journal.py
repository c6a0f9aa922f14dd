"""The one JSONL journal under ResultStore and the live trace.

Four properties: (a) cut anywhere, the file loads as a prefix and takes
one more append; (b) damaged any way, it loads or raises a typed error;
(c) the same prefix property when the writer is SIGKILLed for real;
(d) the bytes are the ones the whole-file rewriter of PR 18 wrote.
"""

import errno
import json
import os
import pathlib
import signal
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import AxisPoint, CampaignSpec, ResultStore
from repro.errors import CampaignError, LiveError, ReproError
from repro.fleet.spec import ScenarioSpec
from repro.live.trace import TraceRecorder, load_trace
from repro.perf.bench import write_bench
from repro.util import journal

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def _records(n=6):
    """A header and n records of uneven length; the text carries the
    characters a line-oriented reader could trip on, all escaped by dumps."""
    head = {"kind": "header", "schema": "test/journal-v1"}
    return [head] + [
        {"kind": "rec", "i": i, "text": "é\n\r\u2028\x85" * (i % 3), "pad": "x" * (7 * i % 11)}
        for i in range(n)
    ]


def _write(path, records):
    journal.create(path, records[0], fsync=False)
    for record in records[1:]:
        journal.append(path, record, fsync=False)
    return path.read_bytes()


# -- (a) every truncation point ------------------------------------------------


def test_truncated_anywhere_loads_a_prefix_and_takes_an_append(tmp_path):
    path = tmp_path / "j.jsonl"
    records = _records()
    data = _write(path, records)
    assert data == "".join(journal.dumps(r) + "\n" for r in records).encode()
    ends = []  # offset just past each record's text, newline excluded
    for record in records:
        ends.append((ends[-1] + 1 if ends else 0) + len(journal.dumps(record)))
    extra = {"kind": "rec", "i": "after the cut"}
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        whole = sum(1 for end in ends if end <= cut)
        loaded = journal.load(path, ReproError)
        assert loaded.records == records[:whole], cut
        torn = cut > (ends[whole - 1] + 1 if whole else 0)
        assert loaded.dropped_lines == int(torn), cut
        assert loaded.size == (min(cut, ends[whole - 1] + 1) if whole else 0), cut
        assert path.read_bytes() == data[:cut], "loading must not write"

        journal.append(path, extra, fsync=False)
        again = journal.load(path, ReproError)
        assert again.records == records[:whole] + [extra], cut
        assert again.dropped_lines == 0 and again.size == path.stat().st_size, cut


def test_tail_repair_scans_back_over_more_than_one_block(tmp_path, monkeypatch):
    monkeypatch.setattr(journal, "_TAIL_BLOCK", 5)
    path = tmp_path / "j.jsonl"
    records = _records(3)
    data = _write(path, records)
    path.write_bytes(data[:-1])  # whole last record, newline lost
    journal.append(path, {"kind": "rec", "i": 99}, fsync=False)
    assert journal.load(path, ReproError).records == records + [{"kind": "rec", "i": 99}]
    path.write_bytes(data[:-9])  # torn last record
    journal.append(path, {"kind": "rec", "i": 99}, fsync=False)
    assert journal.load(path, ReproError).records == records[:-1] + [{"kind": "rec", "i": 99}]


def test_terminated_bad_line_is_damage_even_when_last(tmp_path):
    # One write carries the text and its newline, so an interrupted
    # writer cannot leave a broken line that ends in one.
    path = tmp_path / "j.jsonl"
    data = _write(path, _records(2))
    path.write_bytes(data + b'{"kind": "rec", "i\n')
    with pytest.raises(CampaignError, match="non-trailing record.*line.s. \\[4\\]"):
        journal.load(path, CampaignError)


# -- write path: syscalls, failures, durability --------------------------------


def test_short_writes_are_completed_and_a_failed_write_is_rolled_back(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    records = _records(2)
    _write(path, records)
    real_write = os.write

    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    journal.append(path, {"kind": "rec", "i": 2}, fsync=False)
    monkeypatch.undo()
    assert journal.load(path, ReproError).records == records + [{"kind": "rec", "i": 2}]

    calls = []

    def full_disk(fd, data):
        if calls:
            raise OSError(errno.ENOSPC, "No space left on device")
        calls.append(1)
        return real_write(fd, bytes(data[:7]))

    store_path = tmp_path / "s.jsonl"
    store = ResultStore(store_path, fsync=False)
    store.ensure_header(_spec())
    store.append(_cell("one"))
    committed = store_path.read_bytes()
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError, match="No space"):
        store.append(_cell("two"))
    monkeypatch.undo()
    assert store_path.read_bytes() == committed
    assert store.settled_ids() == {"one"}
    store.append(_cell("two"))  # the cell was not settled: it can be retried
    assert ResultStore(store_path).settled_ids() == {"one", "two"}


@pytest.mark.parametrize("write", [
    lambda path, text: journal.replace(path, text),
    lambda path, text: write_bench(path, "b", {"text": text}),
], ids=["replace", "write_bench"])
def test_whole_file_write_failing_midway_leaves_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "doc.json"
    write(path, "old")
    before = path.read_bytes()
    real_write = os.write

    def full_disk_after_7_bytes(fd, data):
        monkeypatch.setattr(os, "write", _raise_enospc)
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", full_disk_after_7_bytes)
    with pytest.raises(OSError, match="No space"):
        write(path, "new" * 100)
    monkeypatch.undo()
    assert path.read_bytes() == before
    write(path, "new")
    assert path.read_bytes() != before


def _raise_enospc(fd, data):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_durability_is_per_caller_and_replace_is_once_per_file(tmp_path, monkeypatch):
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        log.append(f"fsync-{kind}")
        real_fsync(fd)

    def replace(src, dst):
        log.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)

    durable = ResultStore(tmp_path / "durable.jsonl")
    durable.ensure_header(_spec())
    assert log == ["fsync-file", "replace", "fsync-dir"]
    durable.append(_cell("one"))
    durable.append_quarantine({"kind": "quarantine", "cell_id": "two"})
    assert log[3:] == ["fsync-file", "fsync-file"]

    del log[:]
    fast = ResultStore(tmp_path / "fast.jsonl", fsync=False)
    fast.ensure_header(_spec())
    fast.append(_cell("one"))
    recorder = TraceRecorder(tmp_path / "t.jsonl", {"seed": 1})
    recorder.record_event("steer", sim=0.0, wall=1.0, name="a", value=None)
    recorder.close(sim=1.0, wall=2.0)
    assert log == ["replace", "replace"]
    assert not list(tmp_path.glob("*.tmp"))


def test_recorder_holds_no_past_records(tmp_path):
    recorder = TraceRecorder(tmp_path / "t.jsonl", {"seed": 1})
    for i in range(50):
        recorder.record_event("steer", sim=float(i), wall=1.0, name="a", value=i)
    assert not [v for v in vars(recorder).values() if isinstance(v, (list, dict, set, tuple))]
    assert len(load_trace(recorder.path).events) == 50


# -- (d) the parent's bytes ----------------------------------------------------


def _spec(seed=3):
    return CampaignSpec(
        name="journal", seed=seed,
        scenarios=[AxisPoint("s")], arrivals=[AxisPoint("a")],
        faults=[AxisPoint("f")], policies=[AxisPoint("p")],
    )  # fmt: skip


def _cell(cell_id, **extra):
    return {"kind": "cell", "cell_id": cell_id, "report": {"completed": 1}, **extra}


def write_store(path):
    """The store behind tests/golden/journal_store_pr18.jsonl."""
    store = ResultStore(path, fsync=False)
    store.ensure_header(_spec())
    store.append(_cell("s/a/f/p", note="naïve ∑ \u2028 line\nbreak", inf=float("inf")))
    store.append_quarantine({"kind": "quarantine", "cell_id": "poison", "attempts": 3})
    store.append(_cell("last", perf={"wall_seconds": 0.125}))


def write_trace(path):
    """The trace behind tests/golden/journal_trace_pr18.jsonl."""
    recorder = TraceRecorder(path, {"n_sites": 2, "seed": 7, "placement": "p2c"})
    for i in range(2):
        spec = ScenarioSpec(name=f"s{i}", sim="building", participants=1, seed=i)
        recorder.record_arrival(
            spec, sim=0.5 * i, wall=100.0 + i, cls="batch", outcome=("queued", "rejected")[i]
        )
    recorder.record_event("steer", sim=0.75, wall=101.5, name="s0", value=2.5)
    recorder.close(sim=3.0, wall=103.0)


@pytest.mark.parametrize(
    "write,golden",
    [(write_store, "journal_store_pr18.jsonl"), (write_trace, "journal_trace_pr18.jsonl")],
)
def test_bytes_equal_the_whole_file_rewriter_of_pr18(tmp_path, write, golden):
    # The golden files were written by these two functions running on
    # the PR 18 tree, whose writers re-serialised the file per append.
    path = tmp_path / "new.jsonl"
    write(path)
    data = (GOLDEN / golden).read_bytes()
    assert path.read_bytes() == data
    records = [json.loads(line) for line in data.decode().split("\n")[:-1]]
    assert data.decode() == "\n".join(journal.dumps(r) for r in records) + "\n"
    assert journal.load(GOLDEN / golden, ReproError).records == records


def test_files_written_by_pr18_load_unchanged():
    store = ResultStore(GOLDEN / "journal_store_pr18.jsonl")
    assert store.dropped_lines == 0
    assert {rec["cell_id"] for rec in store.cell_records()} == {"s/a/f/p", "last"}
    assert store.quarantined_ids() == {"poison"}
    assert store.spec().to_dict() == _spec().to_dict()
    assert store.cell_records()[0]["note"] == "naïve ∑ \u2028 line\nbreak"
    trace = load_trace(GOLDEN / "journal_trace_pr18.jsonl")
    assert trace.sealed and trace.dropped_lines == 0 and trace.horizon == 3.0
    assert [r["outcome"] for r in trace.arrivals] == ["queued", "rejected"]
    assert [s.name for _, s in trace.entries()] == ["s0", "s1"]


# -- loaders raise typed errors only -------------------------------------------


@pytest.mark.parametrize("line", [b"3", b"[]", b"null", b'"s"', b'{"kind": "cell", "v": "\xff"}'])
def test_non_object_and_non_utf8_lines_are_damage_not_crashes(tmp_path, line):
    store_path, trace_path = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
    write_store(store_path)
    write_trace(trace_path)
    for path, load, error in (
        (store_path, ResultStore, CampaignError),
        (trace_path, load_trace, LiveError),
    ):
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[:2] + [line] + lines[2:]))
        with pytest.raises(error, match="non-trailing"):
            load(path)
        path.write_bytes(b"\n".join(lines) + line)  # the same, as a torn tail
        assert load(path).dropped_lines == 1


def test_store_header_and_records_are_validated_on_load(tmp_path):
    path = tmp_path / "s.jsonl"
    write_store(path)
    head, *cells = path.read_text().splitlines()
    doc = json.loads(head)
    del doc["spec"]
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(CampaignError, match="header is missing required field 'spec'"):
        ResultStore(path).spec()
    path.write_text("\n".join([head, cells[0], cells[0]]) + "\n")
    with pytest.raises(CampaignError, match="duplicate record"):
        ResultStore(path)
    path.write_text(head + '\n{"kind": "cell", "cell_id": ["unhashable"]}\n')
    with pytest.raises(CampaignError, match="string cell_id"):
        ResultStore(path)


# -- (b) fuzz ------------------------------------------------------------------

_JUNK = st.sampled_from([b"3", b"[]", b"null", b'"s"', b"{}", b"\xff\xfe", b'{"kind":"end"}', b""])
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("dup"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("drop"), st.integers(0, 10**6), st.just(0)),
    st.tuples(st.just("junk"), st.integers(0, 10**6), _JUNK),
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.just(0)),
)


def _mutate(data: bytes, mutations) -> bytes:
    for kind, at, arg in mutations:
        if kind == "flip":
            at %= len(data) or 1
            data = data[:at] + bytes(b ^ arg for b in data[at : at + 1]) + data[at + 1 :]
        elif kind == "cut":
            data = data[: at % (len(data) + 1)]
        else:
            lines = data.split(b"\n")
            at %= len(lines)
            if kind == "dup":
                lines.insert(arg % (len(lines) + 1), lines[at])
            elif kind == "swap":
                other = arg % len(lines)
                lines[at], lines[other] = lines[other], lines[at]
            elif kind == "drop":
                del lines[at]
            else:
                lines.insert(at, arg)
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    write_store(root / "s.jsonl")
    write_trace(root / "t.jsonl")
    return (root / "s.jsonl").read_bytes(), (root / "t.jsonl").read_bytes(), root / "fuzzed.jsonl"


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=4))
def test_fuzzed_files_load_cleanly_or_raise_a_typed_error(pristine, mutations):
    store_bytes, trace_bytes, path = pristine
    path.write_bytes(_mutate(store_bytes, mutations))
    try:
        store = ResultStore(path, fsync=False)
        assert len(store.settled_ids()) == len(store.cell_records()) + len(
            store.quarantine_records()
        )
        if store._header is not None:
            store.spec()
            store.append(_cell("appended after the damage"))
            reread = ResultStore(path).cell_records()
            assert "appended after the damage" in {rec["cell_id"] for rec in reread}
    except ReproError:
        pass
    path.write_bytes(_mutate(trace_bytes, mutations))
    try:
        trace = load_trace(path)
        assert trace.dropped_lines in (0, 1)
        trace.entries()
        if trace.arrivals:
            assert trace.horizon >= 0.0
    except ReproError:
        pass


# -- (c) a writer killed for real ----------------------------------------------

_CHILD = """
import sys
from repro.util import journal
path, seed = sys.argv[1], int(sys.argv[2])
journal.create(path, {"kind": "header", "seed": seed}, fsync=False)
i = 0
while True:
    journal.append(path, {"i": i, "pad": "x" * ((i * (seed + 7)) % 4096)}, fsync=False)
    i += 1
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigkilled_writer_leaves_a_loadable_prefix(tmp_path, seed):
    path = tmp_path / "killed.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen([sys.executable, "-c", _CHILD, str(path), str(seed)], env=env)
    try:
        deadline = time.monotonic() + 30.0
        # kill at a size no record boundary is tied to, a different one per seed
        while not path.exists() or path.stat().st_size < 20_000 * (seed + 1) + 977 * seed:
            assert child.poll() is None, "writer died on its own"
            assert time.monotonic() < deadline, "writer never got going"
            time.sleep(0.001)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30.0)
    loaded = journal.load(path, ReproError)
    assert loaded.dropped_lines in (0, 1)
    head, *rest = loaded.records
    assert head == {"kind": "header", "seed": seed}
    assert [r["i"] for r in rest] == list(range(len(rest))) and len(rest) > 5
    journal.append(path, {"i": "restart"}, fsync=False)
    again = journal.load(path, ReproError)
    assert again.records == loaded.records + [{"i": "restart"}] and again.dropped_lines == 0
