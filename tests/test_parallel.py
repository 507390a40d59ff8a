"""parallel.map_chunks: chunks in input order, the process cap, and worker
failures that end a command as a serial failure would.

Command-level cases run `main` in a fresh interpreter with `minlsh.shingle`
replaced, so a chosen document makes its worker raise or die, and with a
timeout, so a command that waits forever on a dead worker fails the test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtforge
from mtforge.corpus import Document, write_corpus
from mtforge.errors import SchemaError, ValidationError
from mtforge.ioutils import atomic_write, output_transaction
from mtforge.parallel import WorkerError, chunk_bounds, map_chunks

PACKAGE_ROOT = str(Path(mtforge.__file__).resolve().parents[1])


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the helper sees, whatever the host has."""
    def see(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return see


class TestChunkBounds:
    @pytest.mark.parametrize("n_items, jobs, cpus_seen, sizes", [
        (7, 3, 8, [2, 2, 3]),
        (6, 2, 8, [3, 3]),
        (2, 5, 8, [1, 1]),  # no more processes than items
        (100, 10_000, 4, [25, 25, 25, 25]),  # nor than usable CPUs
        (5, 10_000, 1, [5]),
        (0, 3, 8, [0]),
        (9, 1, 8, [9]),
    ])
    def test_contiguous_chunks_one_per_process(self, cpus, n_items, jobs, cpus_seen, sizes):
        cpus(cpus_seen)
        bounds = chunk_bounds(n_items, jobs)
        assert [stop - start for start, stop in bounds] == sizes
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == n_items

    def test_jobs_below_1_rejected(self):
        with pytest.raises(ValidationError, match="jobs must be >= 1, got 0"):
            chunk_bounds(3, 0)

    def test_huge_jobs_starts_one_process_per_cpu(self, cpus):
        cpus(2)
        pids = map_chunks(lambda chunk: os.getpid(), list(range(50)), 10_000)
        assert len(pids) == 2 and pids[0] == os.getpid() and pids[1] != os.getpid()


class TestMapChunks:
    def test_results_in_input_order_over_uneven_chunks(self, cpus):
        cpus(3)
        results = map_chunks(lambda chunk: [(os.getpid(), x * x) for x in chunk], list(range(7)), 3)
        assert [len(chunk) for chunk in results] == [2, 2, 3]
        assert [value for chunk in results for _, value in chunk] == [x * x for x in range(7)]
        pids = [{pid for pid, _ in chunk} for chunk in results]
        assert pids[0] == {os.getpid()}  # the caller runs the first chunk
        assert len(set.union(*pids[1:])) == 2 and os.getpid() not in set.union(*pids[1:])

    def test_one_process_calls_fn_in_process_on_the_items(self):
        items = [1, 2, 3]
        seen = []
        assert map_chunks(lambda chunk: seen.append(chunk) or os.getpid(), items, 1) == [os.getpid()]
        assert seen[0] is items

    def test_first_failing_chunk_in_input_order_raises(self, cpus):
        cpus(3)

        def fail(chunk):
            if chunk[0] > 0:
                raise SchemaError(f"bad chunk at {chunk[0]}")
            return chunk

        with pytest.raises(SchemaError, match="^bad chunk at 2$"):
            map_chunks(fail, list(range(6)), 3)

    def test_child_ending_without_result_raises_worker_error(self, cpus):
        cpus(2)
        with pytest.raises(WorkerError, match=r"^worker process 2 of 2 ended without a result \(exit code 3\)$"):
            map_chunks(lambda chunk: os._exit(3) if chunk[0] else chunk, [0, 1], 2)

    def test_child_never_runs_the_callers_cleanup(self, cpus, tmp_path):
        # SystemExit would unwind the transaction below, and remove its temp
        # file, if a child returned through the caller's frames
        cpus(2)
        parent = os.getpid()
        with pytest.raises(WorkerError):
            with output_transaction():
                with atomic_write(tmp_path / "out.txt") as handle:
                    handle.write("x")
                staged = list(tmp_path.iterdir())
                try:
                    map_chunks(lambda chunk: sys.exit(0) if os.getpid() != parent else chunk, [0, 1], 2)
                finally:
                    assert len(staged) == 1 and staged[0].exists()
        assert list(tmp_path.iterdir()) == []


# `main` on argv[3:] in a fresh process whose worker for the document with
# text argv[1] fails as argv[2] says; prints the number of worker processes
# still alive on its last line.
_FAILING_RUN = """
import multiprocessing, os, signal, sys
from mtforge import minlsh
from mtforge.cli import main
from mtforge.errors import ValidationError

text, how = sys.argv[1:3]
os.sched_getaffinity = lambda pid: set(range(3))
shingle = minlsh.shingle

def failing(doc_text, *args, **kwargs):
    if doc_text == text:
        if how == "raise":
            raise ValidationError(f"cannot shingle {doc_text!r}")
        if how == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)
    return shingle(doc_text, *args, **kwargs)

minlsh.shingle = failing
code = main(sys.argv[3:])
print(code, len(multiprocessing.active_children()))
"""


def _failing_dedup(tmp_path, text, how, jobs):
    proc = subprocess.run([sys.executable, "-c", _FAILING_RUN, text, how, "dedup", "--in", "corpus.jsonl",
                           "--out", "kept.jsonl", "--jobs", str(jobs), "--report", "report.json"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT))
    assert proc.returncode == 0, proc.stderr
    code, alive = proc.stdout.split()
    assert alive == "0"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.jsonl"]  # nothing written
    return int(code), proc.stderr


class TestWorkerFailureEndsTheCommand:
    TEXTS = [f"document number {i} of six" for i in range(6)]  # three chunks of two at --jobs 3

    @pytest.fixture(autouse=True)
    def corpus(self, tmp_path):
        write_corpus([Document(f"d{i}", "en", text) for i, text in enumerate(self.TEXTS)], tmp_path / "corpus.jsonl")

    @pytest.mark.parametrize("index", [0, 3, 5], ids=["caller", "middle-child", "last-child"])
    def test_validation_error_is_the_serial_line_and_exit_1(self, tmp_path, index):
        serial = _failing_dedup(tmp_path, self.TEXTS[index], "raise", 1)
        assert serial == (1, f"error: cannot shingle {self.TEXTS[index]!r}\n")
        assert _failing_dedup(tmp_path, self.TEXTS[index], "raise", 3) == serial

    @pytest.mark.parametrize("how, exit_code", [("exit", 3), ("kill", -9)])
    def test_dead_worker_is_one_line_and_exit_2(self, tmp_path, how, exit_code):
        assert _failing_dedup(tmp_path, self.TEXTS[3], how, 3) == (
            2, f"error: worker process 2 of 3 ended without a result (exit code {exit_code})\n")
