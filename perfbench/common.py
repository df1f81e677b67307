"""Shared plumbing for the benchmark: paths, private run directories,
failure accounting, statistics, memory and CPU readings, set-up timing,
span collection and the result line.

Nothing here imports the program under test at module level: ``run.py``
must be able to fail cleanly (non-zero exit, no result line) in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import resource
import selectors
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout: private caches, server logs and
#: exported traces.  Listed in the root ``.gitignore``.
WORK_DIR = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result (missing program,
    server that never came up, generator that ran late)."""


def bootstrap() -> dict:
    """Make ``repro`` (from ``src/``) and ``tests.stats`` importable and
    return the parsed ``BENCHMARK.json``; raise :class:`BenchError` when
    the program is not in the checkout."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", ROOT / "tests" / "stats.py",
                     SPEC_PATH)
        if not path.is_file()
    ]
    if missing:
        raise BenchError(
            "the program under test is not in this checkout (missing: "
            + ", ".join(missing) + ")"
        )
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return json.loads(SPEC_PATH.read_text())


def child_env(extra: Optional[dict] = None) -> dict:
    """Environment for processes the benchmark starts: the in-tree
    package first on the path, tracing off, caches private."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_FAULTS", None)
    env.update(extra or {})
    return env


class RunDir:
    """A fresh private directory per run (or per set-up sample) holding
    the persistent compile cache and temporary files, so a warm disk
    cache left by an earlier run can never pass for a cold compile.
    Removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK_DIR / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
        self.cache = self.path / "cache"
        self.tmp = self.path / "tmp"

    def __enter__(self) -> "RunDir":
        self.cache.mkdir(parents=True)
        self.tmp.mkdir()
        return self

    def env(self) -> dict:
        return {"REPRO_CACHE_DIR": str(self.cache), "TMPDIR": str(self.tmp)}

    def activate(self) -> None:
        """Point this process's compile cache and temp files here."""
        os.environ.update(self.env())

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Tally:
    """Operations attempted and failed.  A failure is an error, a shed
    request, a missed deadline or a wrong answer; ``wrong`` counts the
    wrong answers alone (they make the run incorrect)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        """Count a failure (error, shed, missed deadline, wrong cache
        provenance) of an operation already counted as attempted."""
        self.failed += 1
        self._note(what)

    def error(self, what: str) -> None:
        """An operation that raised: attempted and failed."""
        self.attempt()
        self.fail(f"error: {what}")

    def wrong_answer(self, what: str) -> None:
        """Count an operation whose output failed its oracle.  The
        operation was already counted as attempted."""
        self.failed += 1
        self.wrong += 1
        self._note(f"wrong answer: {what}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    data = sorted(values)
    if not data:
        raise BenchError("no samples")
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else 0.5 * (data[mid - 1] + data[mid])


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100)."""
    data = sorted(values)
    if not data:
        raise BenchError("no samples")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


# ----------------------------------------------------------------------
# Memory and CPU.
# ----------------------------------------------------------------------
def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kib(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (read from /proc)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used so far by ``pid`` and its live descendants (the
    server and its pool workers), every thread counted, plus what their
    reaped children used.

    The per-thread run time in ``schedstat`` leaves out time the
    hypervisor gave to other guests (the kernel accounts it as steal)
    and time spent waiting for a core, both of which wall-clock time
    counts on a shared host."""
    tick = os.sysconf("SC_CLK_TCK")
    total_ns, reaped_ticks = 0, 0
    for p in [pid] + descendants(pid):
        try:
            tids = os.listdir(f"/proc/{p}/task")
            with open(f"/proc/{p}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            reaped_ticks += int(fields[13]) + int(fields[14])
        except (OSError, ValueError, IndexError):
            continue
        for tid in tids:
            try:
                with open(f"/proc/{p}/task/{tid}/schedstat",
                          encoding="ascii") as handle:
                    total_ns += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass
    return total_ns / 1e9 + reaped_ticks / tick


def peak_rss_mb_tree(pid: int) -> float:
    """Summed peak resident sets of ``pid`` and its live descendants
    (the server and its pool workers)."""
    return sum(
        _status_kib(p, "VmHWM") for p in [pid] + descendants(pid)
    ) / 1024.0


# ----------------------------------------------------------------------
# Reference speed.
# ----------------------------------------------------------------------
#: CPU seconds :class:`ReferenceSpeed`'s loop takes on a quiet host (the
#: 2-core x86-64 machine the benchmark was sized on takes 1.9-2.0 ms).
REFERENCE_LOOP_S = 0.002
REFERENCE_ITERATIONS = 50_000
#: Least time between two samples, so sampling costs at most about 4%
#: of a run however short the operations are.
REFERENCE_EVERY_S = 0.05


class ReferenceSpeed:
    """How fast the host runs a fixed pure-Python loop during a run.

    On a shared host, neighbours on the same physical core, its caches
    or the memory bus slow every instruction, by up to 2x within
    minutes; CPU time does not hide that.  The benchmark runs this loop
    (benchmark code, which no change to the program can alter) between
    operations and expresses every timing at the reference speed:
    CPU time x :attr:`scale`.  The loop's own CPU time is read with
    ``thread_time``, so threads the program leaves running in this
    process do not count against it.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self._last = -math.inf

    def sample(self) -> None:
        """Time the loop once, unless the last sample is less than
        :data:`REFERENCE_EVERY_S` old."""
        now = time.perf_counter()
        if now - self._last < REFERENCE_EVERY_S:
            return
        self._last = now
        start = time.thread_time()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i
        self.samples.append(time.thread_time() - start)

    @property
    def scale(self) -> float:
        """Factor that turns CPU time measured in this run into CPU time
        at the reference speed."""
        return REFERENCE_LOOP_S / median(self.samples)

    def describe(self) -> str:
        return (f"reference loop median {median(self.samples) * 1e3:.3f} ms "
                f"over {len(self.samples)} samples "
                f"(reference {REFERENCE_LOOP_S * 1e3:g} ms): "
                f"scale {self.scale:.3f}")


# ----------------------------------------------------------------------
# Circuit cost (Figs. 11-12): exact, so identical on every run.
# ----------------------------------------------------------------------
COST_METRICS = ("t_count", "gate_count", "est_runtime_us", "est_phys_qubits")


def circuit_cost(circuit) -> tuple:
    """T count, gate count, estimated runtime (us) and physical qubits
    of one circuit."""
    from repro.resources import estimate_physical_resources

    estimate = estimate_physical_resources(circuit)
    return (circuit.t_count(), len(circuit.gates),
            estimate.runtime_seconds * 1e6, estimate.physical_qubits)


def put_costs(report: "Report", costs) -> None:
    """Report the totals of per-circuit cost tuples (summed in the
    given order, so float totals repeat exactly)."""
    totals = [0, 0, 0.0, 0]
    for cost in costs:
        totals = [a + b for a, b in zip(totals, cost)]
    for name, value in zip(COST_METRICS, totals):
        report.put(name, value)


# ----------------------------------------------------------------------
# Set-up timing.
# ----------------------------------------------------------------------
SETUP_SAMPLES = 3


def time_setup_in_child(workload: str, timeout: float = 120.0) -> tuple:
    """CPU seconds and wall-clock seconds a fresh interpreter takes to
    do ``workload``'s set-up (imports, inputs, warm-up) and report
    ready.  The child runs ``run.py --setup-probe`` in its own private
    run directory and exits; its CPU time is read from this process's
    reaped-children usage once it has been waited for."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", workload],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=str(ROOT),
        text=True,
    )
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(
            f"set-up probe for {workload} failed "
            f"(exit {proc.returncode}): {err.strip()[-400:]}"
        )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime
                                               + before.ru_stime)
    return cpu, elapsed


# ----------------------------------------------------------------------
# Traced runs: spans around calls into each layer.
# ----------------------------------------------------------------------
class LayerSpans:
    """Opens ``repro.obs.trace`` spans around calls into the program
    and reads their durations back.

    Tracing is on only inside :meth:`tracing` blocks, so a traced run
    can interleave untraced and traced passes (host speed drifts, and
    the difference between the two is the tracing overhead).  Spans
    this benchmark opens carry ``perfbench=True`` so they are never
    confused with the program's own spans, which tracing also records.
    :meth:`close` writes every span out once, as a Chrome trace-event
    file under ``.perfbench/traces``.
    """

    def __init__(self) -> None:
        from repro.obs import trace

        self._trace = trace
        self.records: list = []

    @contextmanager
    def tracing(self):
        self._trace.enable_tracing()
        try:
            yield self
        finally:
            self.records.extend(self._trace.disable_tracing().spans)

    def span(self, name: str, **attrs):
        return self._trace.span(name, perfbench=True, **attrs)

    def ms(self, name: str, **match) -> list[float]:
        """Durations (ms) of this benchmark's spans called ``name``
        whose attributes include ``match``."""
        return [
            record["dur_us"] / 1000.0
            for record in self.records
            if record["name"] == name
            and record["attrs"].get("perfbench")
            and all(record["attrs"].get(k) == v for k, v in match.items())
        ]

    def close(self, label: str) -> Path:
        tracer = self._trace.Tracer()
        tracer.absorb(self.records)
        out = WORK_DIR / "traces" / f"{label}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.export_chrome(out)
        return out


# ----------------------------------------------------------------------
# The result.
# ----------------------------------------------------------------------
@dataclass
class Report:
    """Metric values of one run plus the lines of the human-readable
    table printed above the result line."""

    values: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def put(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = float(value)
        if note:
            self.lines.append(f"  {name}: {note}")

    def say(self, text: str) -> None:
        self.lines.append(text)


def emit(spec: dict, trace: bool, workload: str, report: Report,
         tally: Tally) -> None:
    """Print the table, then the result line (always last)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in report.values:
            if not trace:
                raise BenchError(f"{workload} did not measure {name}")
            # A layer this workload never enters spends no time there.
            report.values[name] = 0.0
        metrics[name] = {"value": report.values[name], "unit": entry["unit"]}
    print(f"== {workload} ({'traced, per-layer' if trace else 'end-to-end'})")
    for line in report.lines:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  attempted={tally.attempted} failed={tally.failed} "
        f"wrong={tally.wrong} fail_ratio={tally.fail_ratio:.4f}"
    )
    for note in tally.notes:
        print(f"  ! {note}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
