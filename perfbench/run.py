"""Seeded end-to-end and per-layer benchmark for the mtforge CLI.

    python3 perfbench/run.py --workload clean-mono --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
--seed into a scratch directory inside the checkout, and the checkout's own
`src/` is put first on PYTHONPATH, so the code measured is the code in the
checkout. With --trace 0 every measured command runs in a fresh interpreter
and the end-to-end metrics are printed; with --trace 1 the same commands
also run in-process under a span tracer and the per-layer metrics are
printed. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the environment and per-pass details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from loopback import LoopbackServer
from oracles import Verdict, digest
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
MIN_SETUPS = 5  # set-up runs per untraced run at least; setup_s is their median

ENV_PROBE = """
import json, platform, sys, time
start = time.perf_counter()
import mtforge.cli
import_s = time.perf_counter() - start
import mtforge, numpy
print(json.dumps({"import_s": import_s, "mtforge_file": mtforge.__file__,
                  "kernel_backend": mtforge.KERNEL_BACKEND, "numpy": numpy.__version__,
                  "python": platform.python_version()}))
"""


@dataclass
class Proc:
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Pass:
    procs: list[Proc]
    failed: int
    messages: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_cli(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run one mtforge command in a fresh interpreter, killed at `deadline`
    (a perf_counter value); CPU time and peak RSS come from wait4 on that
    child alone."""
    with open(log, "ab") as handle:
        handle.write(("$ mtforge " + " ".join(argv) + "\n").encode("utf-8"))
        handle.flush()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mtforge", *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=handle, stderr=handle)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def log_tail(log: Path, lines: int = 15) -> str:
    return "\n".join(log.read_text("utf-8", errors="replace").splitlines()[-lines:])


class Bench:
    def __init__(self, workload: Workload, server: LoopbackServer | None, work: Path):
        self.w = workload
        self.server = server
        self.work = work
        self.log = work / "commands.log"
        self.reference: str | None = None  # digest of the first correct pass
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def setup_once(self) -> tuple[float, list[Proc]]:
        procs = [run_cli(argv, self.log, self.deadline) for argv in self.w.setup()]
        bad = [p for p in procs if p.code != 0]
        if bad:
            raise RuntimeError(f"set-up command failed: mtforge {' '.join(bad[0].argv)}\n{log_tail(self.log)}")
        return sum(p.wall for p in procs), procs

    def verify(self, out: Path, codes: list[int], state) -> Verdict:
        """Full oracle check on the first pass; later passes (and the traced
        run) must reproduce its output digest byte for byte."""
        v = Verdict()
        if any(code != 0 for code in codes):
            v.fail(f"command exited {codes}: {log_tail(self.log, 5)}")
            return v
        outputs = digest(self.w.outputs(out))
        if self.reference is None:
            try:
                v = self.w.check(out, state)
            except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                v.fail(f"outputs unreadable: {exc!r}")
            if not v.whole and not v.failed_ids:
                self.reference = outputs
        elif outputs != self.reference:
            v.fail("outputs differ from the first pass of this seed")
        return v

    def one_pass(self, index: int) -> Pass:
        out = self.work / f"pass{index}"
        out.mkdir()
        commands = self.w.commands(out)
        if self.server:
            self.server.reset()
        procs = [run_cli(argv, self.log, self.deadline) for argv in commands]
        state = self.server.reset() if self.server else None
        v = self.verify(out, [p.code for p in procs], state)
        shutil.rmtree(out)
        return Pass(procs, v.failed(self.w.records), v.messages)

    def passes(self, seconds: float, setups: list[float] | None = None) -> list[Pass]:
        """Passes until about `seconds` are spent: stop when one more pass
        would overshoot by more than half a pass. With `setups`, each pass
        follows one set-up whose wall time is appended there, so set-up
        timings sample the host over the whole run, not only at its start."""
        done: list[Pass] = []
        while not done or (sum(p.wall for p in done) + 0.5 * statistics.mean(p.wall for p in done) < seconds
                           and time.perf_counter() < self.deadline):
            if setups is not None:
                setups.append(self.setup_once()[0])
            done.append(self.one_pass(len(done)))
        return done


def environment(info: dict) -> dict:
    env = {key: value for key, value in info.items() if key != "import_s"}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = result.stdout.strip() or commit
    env.update(nproc=len(os.sched_getaffinity(0)), commit=commit, machine=platform.machine())
    return env


def probe() -> dict:
    result = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=child_env(),
                            capture_output=True, text=True, timeout=60)
    if result.returncode != 0:
        raise RuntimeError(f"cannot import mtforge from {SRC}:\n{result.stderr[-2000:]}")
    info = json.loads(result.stdout.strip().splitlines()[-1])
    if not Path(info["mtforge_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {info['mtforge_file']}, not the checkout's {SRC}")
    return info


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Pass], dict]:
    setups: list[float] = []
    runs = bench.passes(seconds, setups)
    while len(setups) < MIN_SETUPS:
        setups.append(bench.setup_once()[0])
    records = bench.w.records
    metrics = {
        "records_per_s": metric(statistics.median(records / p.wall for p in runs), "1/s"),
        "cpu_ms_per_record": metric(statistics.median(1000.0 * p.cpu / records for p in runs), "ms"),
        "peak_rss_mb": metric(max(proc.rss_mb for p in runs for proc in p.procs), "MiB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return metrics, runs, {"setup_s": setups}


def per_layer(bench: Bench, seconds: float, first_probe: dict) -> tuple[dict, list[Pass], dict]:
    import layers  # imports mtforge, so only the traced run loads it in this process

    probes = [first_probe, probe(), probe()]
    _, setup_procs = bench.setup_once()
    untraced = bench.passes(seconds / 3)
    traced = layers.traced_pass(bench, SRC)
    metrics = layers.metrics(bench, traced, untraced, setup_procs, statistics.median(p["import_s"] for p in probes))
    in_process = [Pass([], v.failed(bench.w.records), v.messages) for v in traced.verdicts]
    return metrics, untraced + in_process, {"in_process_wall_s": [traced.wall, traced.untraced_wall]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mtforge" / "__init__.py").is_file():
        print(f"error: no mtforge sources under {SRC}; run from the root of an mtforge checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    cls = WORKLOADS[args.workload]
    server = LoopbackServer(args.seed) if cls.uses_server else None
    try:
        if server:
            server.start()
        workload = cls(args.seed, work, len(os.sched_getaffinity(0)), server)
        workload.prepare()
        bench = Bench(workload, server, work)
        info = probe()
        env = environment(info)
        if args.trace:
            metrics, runs, extra = per_layer(bench, args.seconds, info)
        else:
            metrics, runs, extra = end_to_end(bench, args.seconds)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if server:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = workload.records * len(runs)
    failed = sum(p.failed for p in runs)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "passes": len(runs), "failed_ratio": failed / attempted,
        "pass_wall_s": [round(p.wall, 4) for p in runs if p.procs],
        "messages": [m for p in runs for m in p.messages][:20], **extra,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
