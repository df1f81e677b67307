"""``serve-warm`` and ``serve-noisy``: the execution service as a client
sees it.

Both start ``python -m repro.service`` with its default configuration
as a child process (fresh private cache directory) and drive it over
loopback JSON lines from this one generator process with at most two
connections.

- ``serve-warm``: noiseless ``run`` requests on the five kernels at
  small n, 128-1024 shots, all compile-cache hits after an explicit
  warm-up.  Simulation is cheap here, so request overhead dominates:
  kernel resolution, fingerprinting, cache lookup, two-chunk pool
  dispatch and result encoding.
- ``serve-noisy``: heavy requests: depolarizing-noise
  BV/Simon/period/Grover at two shot sizes 4x apart (Grover-n8
  included) and noiseless teleportation sent as ``source``
  (mid-circuit measurement).  Every request runs on the batched
  trajectory engine sharded across the pool, so simulation sweeps and
  chunk dispatch dominate, the reverse of ``serve-warm``.

A timed run has two phases, each sending whole shuffled decks of the
workload's request mix: one client sending one request at a time
(each request is charged the CPU time the server and its pool workers
spent on it, read from ``/proc``), then a closed loop of two clients.
Throughput is requests per CPU second of server and pool over both
phases.  Timings are reported at the reference host speed
(:class:`common.ReferenceSpeed`); wall-clock latencies are printed for
reference.  The traced run adds an open-loop Poisson phase at
:data:`WARM_RATE` requests/s for the queueing figures.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time

import oracles
from common import (
    BENCH_DIR,
    ROOT,
    SETUP_SAMPLES,
    BenchError,
    ReferenceSpeed,
    Report,
    RunDir,
    Tally,
    child_env,
    circuit_cost,
    descendants,
    median,
    peak_rss_mb_tree,
    percentile,
    put_costs,
    tree_cpu_s,
)

CLIENTS = 2
#: A failed, shed or timed-out request counts as missing every latency
#: limit: it enters the percentiles at the service's default deadline.
MISSED_MS = 30_000.0
#: The open-loop generator must send each request within this many ms
#: of its due time (p99), or the run is rejected: a late generator
#: would make the service look slow.
GEN_LATE_BOUND_MS = 25.0

WARM_KERNELS = (
    ("bv", 4), ("bv", 6), ("bv", 8), ("dj", 4), ("dj", 6), ("dj", 8),
    ("grover", 4), ("grover", 6), ("grover", 8),
    ("simon", 3), ("simon", 4), ("period", 3), ("period", 4),
)
WARM_SHOTS = (128, 256, 512, 1024)
#: Every (kernel, n, shots) combination once; request streams deal
#: shuffled copies of the deck, so each run sends nearly the same mix
#: and the seed only changes order, request seeds and arrival times.
WARM_DECK = tuple((k, n, shots) for k, n in WARM_KERNELS
                  for shots in WARM_SHOTS)
#: Open-loop arrival rate (requests/s) of the traced run's load phase:
#: about a seventh of the closed-loop capacity (about 100 requests/s
#: with two clients on a 2-core machine).  At half capacity the
#: queueing amplified host-speed noise until the open-loop p50 varied
#: by 90% between runs.
WARM_RATE = 15.0
#: Share of a timed run spent in the one-client phase; the rest is the
#: two-client closed loop.
SERIAL_SHARE = 0.7
WARM_TAIL = 90
#: Requests replayed in-process and sent serially in a traced run.
TRACE_REQUESTS = 100

NOISE = {"depolarizing": 0.01}
TELEPORT_SOURCE = (BENCH_DIR / "teleport_kernel.py").read_text()
#: (kernel, n, shots, copies in the deck, noisy): each kernel at two
#: shot sizes 4x apart, sized so most classes cost 10-450 CPU ms through
#: the service.  Grover-n8 stays in the mix at sizes that complete on
#: the seed (one request in 11), and 32 -> 128 shots spans its
#: super-linear trajectory cost, so it stays visible.
#:
#: Runs send whole decks, so the percentiles fall at fixed places in
#: the mix: the p50 among the mid-priced classes, the p90 at the top of
#: noisy bv-n6 at 1024 shots, below the Grover-n8 requests.  The p85
#: would fall in the gap between the two modes of that class's cost.
NOISY_CLASSES = (
    ("bv", 6, 256, 2, True), ("bv", 6, 1024, 2, True),
    ("simon", 3, 256, 2, True), ("simon", 3, 1024, 2, True),
    ("period", 3, 256, 2, True), ("period", 3, 1024, 2, True),
    ("grover", 4, 64, 2, True), ("grover", 4, 256, 2, True),
    ("teleport", 1, 1024, 2, False), ("teleport", 1, 4096, 2, False),
    ("grover", 8, 32, 1, True), ("grover", 8, 128, 1, True),
)
NOISY_DECK = tuple(c for c in NOISY_CLASSES for _ in range(c[3]))
NOISY_TAIL = 90


# ----------------------------------------------------------------------
# Seeded request generation.
# ----------------------------------------------------------------------
def warm_payload(entry: tuple, seed: int) -> dict:
    kernel, n, shots = entry
    return {"op": "run", "kernel": kernel, "n": n, "shots": shots,
            "seed": seed}


def noisy_payload(entry: tuple, seed: int) -> dict:
    kernel, n, shots, _, noisy = entry
    payload = {"op": "run", "shots": shots, "seed": seed}
    if kernel == "teleport":
        payload["source"] = TELEPORT_SOURCE
    else:
        payload.update(kernel=kernel, n=n)
    if noisy:
        payload["noise"] = dict(NOISE)
    return payload


def deck_stream(seed: int, label: str, deck, make):
    """Endless shuffled copies of ``deck``, each a list of payloads made
    with fresh request seeds."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        cards = list(deck)
        rng.shuffle(cards)
        yield [make(entry, rng.randrange(2**31)) for entry in cards]


def request_stream(seed: int, label: str, deck, make):
    """The payloads of :func:`deck_stream` one by one."""
    for cards in deck_stream(seed, label, deck, make):
        yield from cards


def open_schedule(seed: int, rate: float, duration: float) -> list:
    """Poisson arrivals: ``[(due offset s, payload), ...]``."""
    rng = random.Random(f"arrivals:{seed}")
    payloads = request_stream(seed, "open", WARM_DECK, warm_payload)
    schedule, due = [], 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return schedule
        schedule.append((due, next(payloads)))


def digest(items) -> str:
    return hashlib.sha256(
        json.dumps(list(items), sort_keys=True).encode()
    ).hexdigest()


def kernel_key(payload: dict) -> tuple:
    if "source" in payload:
        return ("teleport", 1)
    return (payload["kernel"], payload["n"])


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.service`` on an ephemeral loopback port, with
    its own private cache directory."""

    def __init__(self) -> None:
        self.run_dir = RunDir("server").__enter__()
        self.log = self.run_dir.path / "server.log"
        with open(self.log, "w") as out, open(self.run_dir.path / "err.log",
                                              "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--host",
                 "127.0.0.1", "--port", "0"],
                stdout=out, stderr=err, cwd=str(ROOT),
                env=child_env(self.run_dir.env()),
            )
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                break
            for line in self.log.read_text().splitlines():
                if '"port"' in line:
                    return int(json.loads(line)["port"])
            time.sleep(0.005)
        errors = (self.run_dir.path / "err.log").read_text()[-400:]
        self.stop()
        raise BenchError(f"the service did not start: {errors}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the server and its
        pool workers have all exited."""
        workers = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 10
        for pid in workers:
            while alive(pid):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                    if time.perf_counter() > deadline + 10:
                        raise BenchError(f"pool worker {pid} did not exit")
                time.sleep(0.01)
        self.run_dir.__exit__(None, None, None)


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class Connection:
    """One pipelined JSON-lines connection; responses match by id."""

    _ids = itertools.count(1)

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.pending: dict = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            done = time.perf_counter()
            message = json.loads(line)
            future = self.pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((message, done))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(BenchError("connection closed"))

    def send(self, payload: dict) -> "asyncio.Future":
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write(
            (json.dumps({**payload, "id": request_id}) + "\n").encode()
        )
        return future

    async def call(self, payload: dict) -> tuple:
        sent = time.perf_counter()
        message, done = await self.send(payload)
        return message, sent, done

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, BenchError):
            pass


class Record:
    """One timed request: due/sent/done times (perf_counter seconds)
    and, when sent alone, the CPU seconds the server and its pool
    workers spent on it."""

    __slots__ = ("payload", "due", "sent", "done", "response", "cpu")

    def __init__(self, payload, due, sent, done, response,
                 cpu=None) -> None:
        self.payload, self.due, self.sent = payload, due, sent
        self.done, self.response, self.cpu = done, response, cpu

    @property
    def ok(self) -> bool:
        return bool(self.response.get("ok"))

    def latency_ms(self, from_due: bool = False) -> float:
        if not self.ok:
            return MISSED_MS
        return 1e3 * (self.done - (self.due if from_due else self.sent))

    def cpu_ms(self) -> float:
        return 1e3 * self.cpu if self.ok else MISSED_MS


async def open_loop(conns, schedule) -> list:
    t0 = time.perf_counter() + 0.05
    inflight = []
    for index, (offset, payload) in enumerate(schedule):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        inflight.append((payload, due, sent,
                         conns[index % len(conns)].send(payload)))
    records = []
    for payload, due, sent, future in inflight:
        message, done = await future
        records.append(Record(payload, due, sent, done, message))
    return records


async def closed_loop(conns, decks, seconds: float) -> tuple:
    """Each client sends whole decks from its deck stream, one request
    at a time, until ``seconds`` have passed (at least one deck each),
    so every run sends an exact multiple of the mix."""
    end = time.perf_counter() + seconds

    async def client(conn, stream) -> list:
        records = []
        while not records or time.perf_counter() < end:
            for payload in next(stream):
                message, sent, done = await conn.call(payload)
                records.append(Record(payload, sent, sent, done, message))
        return records

    start = time.perf_counter()
    batches = await asyncio.gather(
        *(client(c, s) for c, s in zip(conns, decks))
    )
    return [r for batch in batches for r in batch], time.perf_counter() - start


async def charged(conn, decks, seconds: float, pid: int,
                  speed: ReferenceSpeed) -> list:
    """One client sending whole decks one request at a time until
    ``seconds`` have passed; each record carries the CPU time the
    process tree of ``pid`` spent between the previous response and
    its own.  The reference loop runs between requests, while the
    server is idle."""
    end = time.perf_counter() + seconds
    records = []
    before = tree_cpu_s(pid)
    while not records or time.perf_counter() < end:
        for payload in next(decks):
            message, sent, done = await conn.call(payload)
            after = tree_cpu_s(pid)
            records.append(Record(payload, sent, sent, done, message,
                                  after - before))
            speed.sample()
            before = after
    return records


async def serial(conn, payloads) -> list:
    records = []
    for payload in payloads:
        message, sent, done = await conn.call(payload)
        records.append(Record(payload, sent, sent, done, message))
    return records


# ----------------------------------------------------------------------
# Checking responses.
# ----------------------------------------------------------------------
class Verifier:
    """Checks every response against its oracle.  The noisy histograms
    of timed requests (independent seeds) are also pooled per (kernel,
    n, shots) class and compared with the exact density-matrix
    distribution, which is much tighter than one request's margin."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.pooled: dict = {}
        self._exact: dict = {}

    def check(self, record: Record, timed: bool = True) -> None:
        tally, payload = self.tally, record.payload
        tally.attempt()
        response = record.response
        if not response.get("ok"):
            error = response.get("error", {})
            tally.fail(f"{error.get('code')}: {error.get('message', '')[:120]}")
            return
        result = response["result"]
        provenance = result["info"]["compile_cache"]
        if timed and provenance != "memory":
            tally.fail(f"timed request served from {provenance!r}, not memory")
            return
        counts = result["counts"]
        kernel, n = kernel_key(payload)
        if sum(counts.values()) != payload["shots"]:
            tally.wrong_answer(f"{kernel}-n{n}: {sum(counts.values())} shots "
                               f"returned for {payload['shots']}")
            return
        if "noise" in payload:
            if timed:
                # Warm-up requests repeat one seed on every server start;
                # pooling them would count the same sample twice.
                pool = self.pooled.setdefault(
                    (kernel, n, payload["shots"]), {}
                )
                for outcome, count in counts.items():
                    pool[outcome] = pool.get(outcome, 0) + count
            problem = oracles.near_distribution(
                counts, self.exact(kernel, n), f"noisy {kernel}-n{n}"
            )
        else:
            problem = oracles.noiseless(kernel, counts, n)
        if problem:
            tally.wrong_answer(problem)

    def exact(self, kernel: str, n: int) -> dict:
        """The exact noisy output distribution of the circuit the service
        runs for noisy requests, from the benchmark's own
        density-matrix simulator."""
        if (kernel, n) not in self._exact:
            from repro.pipeline import compile_kernel

            circuit = compile_kernel(resolve(kernel, n)).optimized_circuit
            self._exact[(kernel, n)] = oracles.noisy_distribution(
                circuit, NOISE["depolarizing"]
            )
        return self._exact[(kernel, n)]

    def finish(self) -> None:
        for (kernel, n, shots), counts in sorted(self.pooled.items()):
            problem = oracles.near_distribution(
                counts, self.exact(kernel, n),
                f"pooled noisy {kernel}-n{n} at {shots} shots",
            )
            if problem:
                self.tally.wrong_answer(problem)


def resolve(kernel: str, n: int):
    if kernel == "teleport":
        import teleport_kernel

        return teleport_kernel.teleport_minus
    from repro.evaluation import asdf_kernel

    return asdf_kernel(kernel, n)


# ----------------------------------------------------------------------
# The two workloads.
# ----------------------------------------------------------------------
class ServeWorkload:
    def __init__(self, name: str, deck, make, warm_payloads,
                 tail: int) -> None:
        self.name, self.deck, self.make = name, deck, make
        self.warm_payloads, self.tail = warm_payloads, tail

    def streams(self, seed: int) -> list:
        return [deck_stream(seed, f"closed{c}", self.deck, self.make)
                for c in range(CLIENTS)]

    async def start(self, verifier: Verifier):
        """Set-up: start the server, connect, warm every kernel (first
        request compiles, the second must hit the in-memory cache)."""
        server = Server()
        try:
            conns = [await Connection.open(server.port)
                     for _ in range(CLIENTS)]
            for payload in self.warm_payloads():
                for _ in range(2):
                    message, sent, done = await conns[0].call(payload)
                    verifier.check(Record(payload, sent, sent, done, message),
                                   timed=False)
                if message.get("result", {}).get("info", {}).get(
                        "compile_cache") != "memory":
                    raise BenchError(f"warm-up of {kernel_key(payload)} did "
                                     f"not reach the in-memory cache")
        except BaseException:
            server.stop()
            raise
        return server, conns

    async def stop(self, server, conns) -> None:
        for conn in conns:
            await conn.close()
        server.stop()

    async def setup_samples(self, verifier: Verifier,
                            speed: ReferenceSpeed) -> tuple:
        """Set up :data:`SETUP_SAMPLES` times; keep the last server.
        Each sample is the CPU seconds the server and its pool workers
        used from their start to the end of the warm-up (this process
        only checks the answers), and the wall-clock seconds it took."""
        samples = []
        for index in range(SETUP_SAMPLES):
            start = time.perf_counter()
            server, conns = await self.start(verifier)
            samples.append((tree_cpu_s(server.pid),
                            time.perf_counter() - start))
            speed.sample()
            if index < SETUP_SAMPLES - 1:
                await self.stop(server, conns)
        return samples, server, conns

    async def timed_phases(self, seed, seconds, conns, pid, report,
                           speed) -> list:
        """The one-client phase (per-request CPU percentiles), then the
        two-client closed loop; requests per CPU second over both."""
        start = time.perf_counter()
        alone = await charged(
            conns[0], deck_stream(seed, "serial", self.deck, self.make),
            seconds * SERIAL_SHARE, pid, speed,
        )
        before = tree_cpu_s(pid)
        closed, elapsed = await closed_loop(
            conns, self.streams(seed),
            seconds - (time.perf_counter() - start),
        )
        cpu = tree_cpu_s(pid) - before + sum(r.cpu for r in alone)
        cpu_ms = [r.cpu_ms() for r in alone]
        p50, tail = median(cpu_ms), percentile(cpu_ms, self.tail)
        scale = speed.scale
        report.put("ref_typical_ms", p50 * scale,
                   f"server + pool CPU per request, one client, "
                   f"n={len(cpu_ms)}: {p50:.2f} CPU ms")
        report.put("ref_tail_ms", tail * scale,
                   f"p{self.tail}, n={len(cpu_ms)} "
                   f"({len(cpu_ms) * (100 - self.tail) / 100:.0f} beyond): "
                   f"{tail:.2f} CPU ms")
        done = sum(r.ok for r in alone + closed)
        report.put("ref_ops_per_s", done / (cpu * scale),
                   f"{done} requests (one client, then {CLIENTS}) in "
                   f"{cpu:.2f} CPU s of server + pool")
        wall_ms = [r.latency_ms() for r in alone]
        shots = sum(r.payload["shots"] for r in closed if r.ok)
        report.say(
            f"  wall clock (grows with the host's load): one client p50 "
            f"{median(wall_ms):.2f} ms, p{self.tail} "
            f"{percentile(wall_ms, self.tail):.2f} ms; {CLIENTS} clients "
            f"{sum(r.ok for r in closed) / elapsed:.1f} req/s, "
            f"{shots / elapsed:.0f} shots/s"
        )
        return alone + closed

    def measure(self, seed, seconds, report, tally, speed) -> None:
        asyncio.run(self._measure(seed, seconds, report, tally, speed))

    def trace(self, seed, seconds, report, tally) -> None:
        asyncio.run(self._trace(seed, seconds, report, tally))

    async def _measure(self, seed, seconds, report, tally, speed) -> None:
        verifier = Verifier(tally)
        samples, server, conns = await self.setup_samples(verifier, speed)
        try:
            records = await self.timed_phases(seed, seconds, conns,
                                              server.pid, report, speed)
            report.put("peak_rss_mb", peak_rss_mb_tree(server.pid),
                       "server + pool workers")
        finally:
            await self.stop(server, conns)
        cpu = median(c for c, _ in samples)
        report.put("setup_s", cpu * speed.scale,
                   f"server start + warm-up, median of {len(samples)}: "
                   f"{cpu:.3f} CPU s, wall clock "
                   f"{median(w for _, w in samples):.3f} s")
        for record in records:
            verifier.check(record)
        verifier.finish()
        # The service does not report its circuits: compile the mix's
        # programs here for the circuit-cost totals.
        from repro.pipeline import compile_kernel

        keys = sorted({kernel_key(p) for p in self.warm_payloads()})
        put_costs(report, [
            circuit_cost(compile_kernel(resolve(*key)).decomposed_circuit)
            for key in keys
        ])

    async def _trace(self, seed, seconds, report, tally) -> None:
        from common import LayerSpans
        from repro.exec.parallel import shutdown_pools

        verifier = Verifier(tally)
        server, conns = await self.start(verifier)
        sample = self.trace_sample(seed)
        spans = LayerSpans()
        try:
            for i, payload in enumerate(sample):  # warm cache and pool
                direct_call(payload, i, None)
            # Untraced and traced calls alternate per request, so host
            # speed drift does not bias the overhead figure.
            plain, traced = [], []
            for i, payload in enumerate(sample):
                plain.append(direct_call(payload, i, None))
                with spans.tracing():
                    traced.append(direct_call(payload, i, spans))
            engine = await engine_latencies(sample)
            roundtrips = []
            for _ in range(20):
                _, sent, done = await conns[0].call({"op": "health"})
                roundtrips.append(1e3 * (done - sent))
            serial_records = await serial(conns[0], sample)
            load, late = await self.load_phase(seed, seconds / 3, conns)
            stats, _, _ = await conns[0].call({"op": "stats"})
        finally:
            await self.stop(server, conns)
            shutdown_pools()
        spans.close(f"{self.name}-seed{seed}")
        for record in serial_records + load:
            verifier.check(record)
        verifier.finish()

        def per_request(name):
            return [sum(spans.ms(name, request=i)) for i in range(len(sample))]

        layers = {name: per_request(name) for name in DIRECT_SPANS}
        for name in DIRECT_SPANS:
            report.put(f"{name}.ms", median(layers[name]))
        report.put("exec.dispatch_overhead.ms", median(
            e - s for e, s in zip(layers["exec.run"], layers["sim.run"])
        ), "sharded exec.run minus serial sim.run, same circuit and shots")
        report.put("exec.speedup",
                   sum(layers["sim.run"]) / sum(layers["exec.run"]))
        for metric, key in (("exec.chunks_per_req", "chunks"),
                            ("sim.evolutions_per_req", "evolutions"),
                            ("sim.channel_applications", "channels")):
            report.put(metric, sum(r[key] for r in traced) / len(traced))
        # The server runs untraced, so its latency is compared with the
        # untraced timings of the same calls.
        serial_ms = [r.latency_ms() for r in serial_records]
        path = [sum(row["times"][name] for name in REQUEST_PATH)
                for row in plain]
        roundtrip = median(roundtrips)
        report.put("service.roundtrip.ms", roundtrip,
                   "op: health over TCP, median of 20")
        report.put("service.overhead.ms",
                   median(t - d for t, d in zip(serial_ms, path)),
                   f"serial latency minus untraced "
                   f"{' + '.join(REQUEST_PATH)}")
        report.put("service.engine.ms", median(engine),
                   "in-process ExecutionService, same requests")
        # The in-process engine returns the response unencoded; the
        # server also encodes it, which protocol.encode times.
        encode = [row["times"]["protocol.encode"] for row in plain]
        report.put("bench.unattributed_pct", 100.0 * median(
            (t - e - c - roundtrip) / t
            for t, e, c in zip(serial_ms, engine, encode)
        ), f"serial p50 {median(serial_ms):.2f} ms over {len(sample)} "
           f"requests, less the in-process engine, the encoding and the "
           f"round trip")
        load_ms = [r.latency_ms(from_due=True) for r in load]
        report.put("service.queueing.ms", median(load_ms) - median(serial_ms),
                   f"loaded p50 {median(load_ms):.2f} ms minus serial p50")
        report.put("bench.gen_late_ms", late)
        timed = serial_records + load
        report.put("pipeline.cache_hit_ratio", sum(
            r.ok and r.response["result"]["info"]["compile_cache"] == "memory"
            for r in timed
        ) / len(timed))
        counters = stats["result"]["counters"]
        report.put("service.shed", counters["shed"])
        report.put("service.deadline_missed", counters["deadline_exceeded"])
        report.put("exec.retries", counters["retries"])
        plain_ms = sum(r["wall"] for r in plain)
        traced_ms = sum(r["wall"] for r in traced)
        report.put("bench.trace_overhead_pct",
                   100.0 * (traced_ms - plain_ms) / plain_ms,
                   "direct layer calls traced vs untraced")
        self.extra_layers(traced, layers, report)


async def engine_latencies(sample) -> list:
    """Per-request latency (ms) of the same requests through an
    in-process :class:`ExecutionService` (default configuration), the
    service layer without the socket; untraced, like the server."""
    from repro.service import ExecutionService, ServiceClient, ServiceConfig

    latencies = []
    async with ExecutionService(ServiceConfig()) as service:
        client = ServiceClient(service)
        for payload in sample:
            fields = {k: v for k, v in payload.items() if k != "op"}
            start = time.perf_counter()
            response = await client.run(**fields)
            latencies.append(1e3 * (time.perf_counter() - start))
            if not response.get("ok"):
                raise BenchError(f"in-process service failed: {response}")
    return latencies


#: Spans of one request's direct in-process replay.  ``sim.run`` is the
#: serial engine run of the same circuit and shots (the baseline for
#: the dispatch overhead), not a step of the request path.
DIRECT_SPANS = ("service.resolve", "pipeline.cache_hit", "exec.run",
                "sim.run", "protocol.encode")
REQUEST_PATH = ("service.resolve", "pipeline.cache_hit", "exec.run",
                "protocol.encode")


def direct_call(payload: dict, index: int, spans) -> dict:
    """The service's path for one request, called in-process through
    the public entry points it uses (kernel resolution, cached compile,
    sharded run with the default service configuration, response
    encoding), plus a serial engine run of the same circuit."""
    from contextlib import contextmanager, nullcontext

    from repro.exec.parallel import parallel_run_with_info
    from repro.noise import NoiseModel, depolarizing
    from repro.pipeline import compile_kernel
    from repro.service import protocol
    from repro.service.service import ServiceConfig
    from repro.sim import get_backend

    times: dict = {}

    @contextmanager
    def span(name):
        with spans.span(name, request=index) if spans else nullcontext():
            start = time.perf_counter()
            yield
            times[name] = 1e3 * (time.perf_counter() - start)

    config = ServiceConfig()
    noise = None
    if payload.get("noise"):
        noise = NoiseModel().add_channel(
            depolarizing(payload["noise"]["depolarizing"])
        )
    shots, seed = payload["shots"], payload["seed"]
    start = time.perf_counter()
    with span("service.resolve"):
        kernel = resolve(*kernel_key(payload))
    with span("pipeline.cache_hit"):
        compiled = compile_kernel(kernel, pipeline="default", cache=True)
    circuit = (compiled.optimized_circuit if noise is not None
               else compiled.execution_circuit or compiled.optimized_circuit)
    with span("exec.run"):
        results, info = parallel_run_with_info(
            circuit, shots, seed, workers=config.parallel_workers,
            noise_model=noise, use_processes=config.use_processes,
            retry=config.retry,
        )
    with span("sim.run"):
        backend = get_backend(None)
        if noise is None:
            _, serial_info = backend.run_with_info(circuit, shots=shots,
                                                   seed=seed)
        else:
            _, serial_info = backend.run_with_info(
                circuit, shots=shots, seed=seed, noise_model=noise
            )
    with span("protocol.encode"):
        protocol.encode_response(protocol.ok_response(index, {
            "counts": protocol.counts_of(results), "shots": info.shots,
            "info": {"chunks": info.chunks, "compile_cache":
                     compiled.provenance},
        }))
    return {
        "wall": 1e3 * (time.perf_counter() - start),
        "times": times,
        "chunks": info.chunks,
        "evolutions": serial_info.evolutions,
        "channels": serial_info.channel_applications,
        "ops": len(circuit.instructions),
        "shots": shots,
        "key": kernel_key(payload),
    }


class ServeWarm(ServeWorkload):
    def __init__(self) -> None:
        super().__init__(
            "serve-warm", WARM_DECK, warm_payload,
            lambda: [warm_payload((k, n, WARM_SHOTS[0]), 1)
                     for k, n in WARM_KERNELS],
            WARM_TAIL,
        )

    def trace_sample(self, seed: int) -> list:
        stream = request_stream(seed, "trace", WARM_DECK, warm_payload)
        return [next(stream) for _ in range(TRACE_REQUESTS)]

    async def load_phase(self, seed, seconds, conns) -> tuple:
        """Open-loop Poisson arrivals, each request timed from its due
        time."""
        schedule = open_schedule(seed, WARM_RATE, seconds)
        if digest(open_schedule(seed, WARM_RATE, seconds)) != \
                digest(schedule):
            raise BenchError("the open-loop schedule is not reproducible")
        records = await open_loop(conns, schedule)
        return records, check_generator(
            [1e3 * (r.sent - r.due) for r in records], Report()
        )

    def extra_layers(self, traced, layers, report) -> None:
        report.put("ops.executed",
                   sum(r["ops"] for r in traced) / len(traced),
                   "execution-circuit ops per request")


class ServeNoisy(ServeWorkload):
    def __init__(self) -> None:
        def warm_payloads():
            smallest = {}
            for entry in NOISY_CLASSES:
                key = entry[:2]
                if key not in smallest or entry[2] < smallest[key][2]:
                    smallest[key] = entry
            return [noisy_payload(entry, 1) for entry in smallest.values()]

        super().__init__("serve-noisy", NOISY_DECK, noisy_payload,
                         warm_payloads, NOISY_TAIL)

    def trace_sample(self, seed: int) -> list:
        rng = random.Random(f"trace:{seed}")
        return [noisy_payload(entry, rng.randrange(2**31))
                for entry in NOISY_CLASSES]

    async def load_phase(self, seed, seconds, conns) -> tuple:
        records, _ = await closed_loop(conns, self.streams(seed), seconds)
        return records, 0.0

    def extra_layers(self, traced, layers, report) -> None:
        """Shot scaling of noisy Grover-n8 on the serial engine: ms per
        1000 shots at the small and the large size, and their ratio per
        shot (1.0 = linear)."""
        per_kshot = {
            row["shots"]: 1e3 * layers["sim.run"][i] / row["shots"]
            for i, row in enumerate(traced) if row["key"] == ("grover", 8)
        }
        small, large = min(per_kshot), max(per_kshot)
        report.put("sim.ms_per_kshot.small", per_kshot[small],
                   f"noisy grover-n8 at {small} shots")
        report.put("sim.ms_per_kshot.large", per_kshot[large],
                   f"noisy grover-n8 at {large} shots")
        report.put("sim.shot_scaling", per_kshot[large] / per_kshot[small])


def check_generator(late_ms: list, report: Report) -> float:
    """Reject the run when the open-loop generator ran late."""
    p99 = percentile(late_ms, 99)
    report.say(f"  generator lateness p50 {median(late_ms):.3f} ms, "
               f"p99 {p99:.3f} ms (bound {GEN_LATE_BOUND_MS:g} ms)")
    if p99 > GEN_LATE_BOUND_MS:
        raise BenchError(
            f"the open-loop generator ran late (p99 {p99:.1f} ms > "
            f"{GEN_LATE_BOUND_MS:g} ms); the latencies would blame the "
            f"service for the generator"
        )
    return p99


WORKLOADS = {"serve-warm": ServeWarm(), "serve-noisy": ServeNoisy()}
