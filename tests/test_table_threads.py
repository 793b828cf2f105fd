"""Tables of more than BLOCK_CELLS cells shared by the calling thread and one
helper: the same tables, decisions and errors as on the calling thread alone,
in a forked child and on one CPU."""

import os
import random
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from helpers import reference_read_table, reference_table_text
from stonework import boolean_algebra_monoid, serialize, symmetric_inverse_monoid
from stonework.cli import main
from stonework.inverse_core import BLOCK_CELLS, bound_table, table_map
from stonework.serialize import _read_table, monoid_to_json, save_entry, table_text

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


@pytest.fixture(scope="module")
def ba10_entry(tmp_path_factory):
    """ba10's stored entry (1024 x 1024 cells, four row blocks): its path,
    its bytes and where its table's text starts."""
    monoid = boolean_algebra_monoid(10)
    assert monoid.n ** 2 > 3 * BLOCK_CELLS
    path = save_entry(tmp_path_factory.mktemp("store"), "ba10", "monoid", monoid_to_json(monoid))
    data = path.read_bytes()
    return path, data, data.index(b'"mul": ') + 7


@pytest.fixture(scope="module")
def ix5():
    return symmetric_inverse_monoid(5)


@pytest.fixture
def helper_threads(monkeypatch):
    """The threads started while a test runs, listed by a wrapped threading.Thread."""
    started = []

    class Listed(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Listed)
    return started


def _fails_on_odd_values(x):
    if x % 2:
        raise ValueError(f"job {x} failed")
    return x


@pytest.mark.parametrize("cells", [BLOCK_CELLS, BLOCK_CELLS + 1])
def test_table_map_is_a_list_of_the_results_with_one_helper_past_block_cells(cells,
                                                                             helper_threads):
    """Each job runs once.  A table of at most BLOCK_CELLS cells stays on the
    calling thread; a larger one, on two CPUs, starts exactly one helper,
    joined on return."""
    done = []
    assert table_map(cells, lambda x, y: done.append(x) or x ** y, range(7), [2] * 7) == [
        x * x for x in range(7)]
    assert sorted(done) == list(range(7))
    assert len(helper_threads) == (cells > BLOCK_CELLS and TWO_CPUS)
    assert not any(helper.is_alive() for helper in helper_threads)


@pytest.mark.parametrize("jobs", [[1, 2, 4], [0, 2, 4, 5], [3, 5]],
                         ids=["even-job-fails", "odd-job-fails", "both-fail"])
def test_an_error_in_either_thread_is_raised_by_the_caller(jobs, capfd, monkeypatch):
    """A job that raises, on the calling thread (at an even position) or on
    the helper (at an odd one), raises that error from table_map after the
    helper is joined; the helper leaves nothing to threading.excepthook,
    which would print it."""
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    threads = threading.active_count()
    with pytest.raises(ValueError, match=r"^job \d failed$") as raised:
        table_map(BLOCK_CELLS + 1, _fails_on_odd_values, jobs)
    assert threading.active_count() == threads
    assert str(raised.value) in [f"job {x} failed" for x in jobs if x % 2]
    assert capfd.readouterr() == ("", "") and unhandled == []


def _rows(data, start):
    """The offset of each row's first cell in the table from ``start``."""
    stop = data.index(b"]\n]", start)
    return [i + 1 for i in range(start + 1, stop) if data[i] == ord("[")]


def _cell(data, start, rng, rows=None):
    """(start, stop) of a random cell of a random row (of ``rows``, if given)."""
    first = _rows(data, start)[rng.choice(rows or range(1024))]
    cells = data[first:data.index(b"]", first)].split(b", ")
    k = rng.randrange(len(cells))
    at = first + sum(len(cell) + 2 for cell in cells[:k])
    return at, at + len(cells[k])


def _changed_digit(data, start, rng):
    a, b = _cell(data, start, rng)
    at = rng.randrange(a, b)
    digit = rng.choice([d for d in b"0123456789" if d != data[at]])
    return data[:at] + bytes([digit]) + data[at + 1:]


def _before_cell(prefix):
    def tamper(data, start, rng):
        a, _ = _cell(data, start, rng)
        return data[:a] + prefix + data[a:]
    return tamper


def _wrapping_cell(data, start, rng):
    a, b = _cell(data, start, rng)
    return data[:a] + b"75536" + data[b:]            # int16 reads it as 10000


def _ragged_middle_block(data, start, rng):
    a, b = _cell(data, start, rng, rows=range(300, 700))    # blocks 1 and 2 of 0..3
    return data[:a] + data[b + 2:] if data[b:b + 1] == b"," else data[:a - 2] + data[b:]


def _cell_where(data, start, rng, ok):
    """(start, stop) of the first random cell for which ``ok(start, stop)`` holds."""
    while True:
        a, b = _cell(data, start, rng)
        if ok(a, b):
            return a, b


def _swapped_separator(data, start, rng):
    _, b = _cell_where(data, start, rng, lambda a, b: data[b:b + 2] == b", ")
    return data[:b] + b" ," + data[b + 2:]


def _zero_for_space(data, start, rng):
    a, _ = _cell_where(data, start, rng, lambda a, b: data[a - 2:a] == b", ")
    return data[:a - 1] + b"0" + data[a:]


def _blanked_digit(data, start, rng):
    a, b = _cell_where(data, start, rng, lambda a, b: b - a == 1 and data[a:b] != b"0")
    return data[:a] + b" " + data[b:]


def _one_row_break(data, start, rng):
    at = rng.choice(_rows(data, start)[1:]) - 1       # the "[" after "],\n"
    return data[:at] + b" " + data[at:]


def _truncated(data, start, rng):
    return data[:rng.randrange(start, start + len(data) // 2)]


def _non_ascii(data, start, rng):
    a, _ = _cell(data, start, rng, rows=range(300, 700))
    return data[:a] + b"\xff" + data[a + 1:]


TAMPERINGS = {
    "none": lambda data, start, rng: data,
    "changed-digit": _changed_digit,
    "leading-zero": _before_cell(b"0"),
    "plus-sign": _before_cell(b"+"),
    "wraps-to-10000": _wrapping_cell,
    # as long as the table's text, and parsed to the same values (a blank cell as 0)
    "separator-swapped": _swapped_separator,
    "zero-for-a-space": _zero_for_space,
    "blanked-digit": _blanked_digit,
    "ragged-middle-block": _ragged_middle_block,
    "head-whitespace": lambda data, start, rng: data[:start + 1] + b" " + data[start + 1:],
    "mid-whitespace": _one_row_break,
    "every-mid-whitespace": lambda data, start, rng: (
        data[:start] + data[start:].replace(b"],\n[", b"],\n [")),
    "tail-whitespace": lambda data, start, rng: (
        data[:data.index(b"]\n]", start) + 2] + b" " + data[data.index(b"]\n]", start) + 2:]),
    "truncated": _truncated,
    "non-ascii": _non_ascii,
}


def _check(path, capsys):
    code = main(["check", str(path), "--laws", "bm"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("how", list(TAMPERINGS))
def test_a_tampered_table_gets_the_serial_decision_and_error(how, ba10_entry, tmp_path, capsys,
                                                             monkeypatch, helper_threads):
    """Each seeded tampering of a four-block table is accepted or refused
    as on one thread, with the same array, a helper reading half its blocks
    on two CPUs; ``check`` then exits with the same code and prints the same
    as with the one-thread reader."""
    _, data, start = ba10_entry
    tampered = TAMPERINGS[how](data, start, random.Random(how))
    calls = []
    monkeypatch.setattr(serialize, "table_map", lambda *job: calls.append(job) or table_map(*job))
    found, expected = _read_table(tampered, start), reference_read_table(tampered, start)
    assert (found is None) == (expected is None)
    if found is not None:
        assert found[1] == expected[1] and found[0].dtype == expected[0].dtype == np.int16
        assert np.array_equal(found[0], expected[0])
    # whitespace is the table's own where it is the same at every row break
    assert (found is not None) == (how in ("none", "changed-digit", "head-whitespace",
                                           "every-mid-whitespace", "tail-whitespace"))
    assert len(helper_threads) == len(calls) * TWO_CPUS
    assert bool(calls) == (how != "truncated")
    entry = tmp_path / "tampered.json"
    entry.write_bytes(tampered)
    threaded = _check(entry, capsys)
    monkeypatch.setattr(serialize, "_read_table", reference_read_table)
    assert threaded == _check(entry, capsys)


def test_large_tables_render_as_on_one_thread(ba10_entry, ix5):
    """ba10's table, and ix5's, render to the one-thread text."""
    _, data, start = ba10_entry
    for table, layout in ((_read_table(data, start)[0], ()), (ix5.mul, (b"", b", ", b" "))):
        assert b"".join(table_text(table, *layout)) == b"".join(
            reference_table_text(table, *layout))


@pytest.mark.parametrize("name", ["ix5", "ba10"])
def test_meet_and_join_tables_built_on_first_read_are_the_bound_tables(name, ix5):
    """order() builds neither table; each, built on this thread when first
    read (the meet by phi), is bound_table's."""
    order = (ix5 if name == "ix5" else boolean_algebra_monoid(10)).order()
    assert np.array_equal(order.meet, bound_table(order.matrix))
    assert np.array_equal(order.join, bound_table(order.matrix.T))


def test_a_forked_child_reads_a_four_block_table(ba10_entry, helper_threads):
    """After the helpers of a read here, a forked child reads a four-block
    table with helpers of its own, one for the parse and one for the check
    on two CPUs, and exits."""
    _, data, start = ba10_entry
    table = _read_table(data, start)[0]
    assert len(helper_threads) == 2 * TWO_CPUS
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = np.array_equal(_read_table(data, start)[0], table)
            code = 0 if same and len(helper_threads) == 4 * TWO_CPUS else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_blocks_written_side_by_side_under_a_short_switch_interval(ba10_entry):
    """With the interpreter switching threads every microsecond, repeated
    reads still fill every block of the table: a lost block write would
    leave cells of ``np.empty`` garbage where the one-thread reader has the
    table."""
    _, data, start = ba10_entry
    expected = reference_read_table(data, start)[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 10
        for _ in range(8):
            assert np.array_equal(_read_table(data, start)[0], expected)
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)


BA10 = """
import os, sys, threading
from pathlib import Path
import numpy as np
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
started = []
class Listed(threading.Thread):
    def start(self):
        started.append(self)
        super().start()
threading.Thread = Listed
from helpers import reference_read_table, reference_table_text
from stonework import boolean_algebra_monoid, inverse_core
from stonework.serialize import _read_table, load_entry, table_text
data = Path(sys.argv[1]).read_bytes()
start = data.index(b'"mul": ') + 7
(table, end), expected = _read_table(data, start), reference_read_table(data, start)
order = boolean_algebra_monoid(10).order()
print(np.array_equal(table, expected[0]) and end == expected[1],
      b"".join(table_text(table)) == b"".join(reference_table_text(table)),
      np.array_equal(order.meet, inverse_core.bound_table(order.matrix)),
      np.array_equal(order.join, inverse_core.bound_table(order.matrix.T)),
      np.array_equal(load_entry(sys.argv[1])[2].mul, table),
      len(started), "concurrent.futures" in sys.modules)
"""


def _ba10_in_a_subprocess(path, cpus):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", BA10, str(path), cpus], env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout.split()


def test_on_one_cpu_large_tables_stay_on_the_calling_thread(ba10_entry):
    """Pinned to one CPU, a process reads, renders, orders and loads ba10
    with no helper, and gets the same tables."""
    assert _ba10_in_a_subprocess(ba10_entry[0], "one") == ["True"] * 5 + ["0", "False"]


def test_a_process_that_loads_ba10_never_imports_concurrent_futures(ba10_entry):
    """On the CPUs it may run on, a process reads, renders, orders and loads
    ba10 with one helper per table_map call (two for each read and one for
    the render; the order and its tables take none) and imports no thread
    pool."""
    started = 5 if TWO_CPUS else 0
    assert _ba10_in_a_subprocess(ba10_entry[0], "all") == ["True"] * 5 + [str(started), "False"]
