"""Chaos smoke for the fault-tolerant execution service.

Starts the real TCP server (``python -m repro.service``) as a
subprocess — with a deterministic 5% worker-crash fault plan injected
through the environment — then fires a batch of concurrent compile/run
requests over several client connections and requires that **every
request succeeds** with the documented response shape.  Half the
requests are noisy, so their shot chunks run in the server's worker
pool (a noiseless terminal-measurement run stays in the server
process); the injected crashes hit both placements.  Also checks
the robustness telemetry (``op: "stats"``), asks for a graceful drain
with SIGTERM, and verifies the server exits cleanly.

This is the end-to-end "is the service actually fault-tolerant" probe
the CI ``service-smoke`` job runs on every push::

    PYTHONPATH=src python examples/service_smoke.py

Tuning knobs (mostly for local experimentation)::

    REPRO_SMOKE_REQUESTS=32   # batch size
    REPRO_SMOKE_CRASH=0.05    # injected worker_crash rate

See docs/service.md for the protocol and the fault-injection contract.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

REQUESTS = int(os.environ.get("REPRO_SMOKE_REQUESTS", "32"))
CRASH_RATE = os.environ.get("REPRO_SMOKE_CRASH", "0.05")
CONNECTIONS = 4


def start_server() -> "tuple[subprocess.Popen, int]":
    """The real server process, chaos plan injected via environment."""
    env = dict(os.environ)
    env["REPRO_FAULTS"] = f"worker_crash={CRASH_RATE}"
    env["REPRO_FAULTS_SEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # The first line announces the bound (ephemeral) port — a JSON log
    # line by default (``REPRO_LOG_FORMAT=text`` emits a plain one, so
    # fall back to matching the raw line).
    line = process.stdout.readline()
    try:
        message = json.loads(line).get("message", "")
    except (json.JSONDecodeError, AttributeError):
        message = line
    match = re.search(r"listening on .*:(\d+)", message)
    if not match:
        process.kill()
        raise SystemExit(f"server failed to start: {line!r}")
    return process, int(match.group(1))


async def drive(port: int) -> None:
    responses: dict = {}

    async def connection(worker: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        mine = list(range(worker, REQUESTS, CONNECTIONS))
        for index in mine:  # pipelined: all requests, then all replies
            request = {
                "id": index,
                "kernel": "bv",
                "n": 5,
                "shots": 96,
                "seed": index,
                "deadline": 60.0,
            }
            if index % 2:
                # Noisy runs take the trajectory engine and so the
                # worker pool; noiseless ones stay in the server.
                request["noise"] = {"depolarizing": 0.01}
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        for _ in mine:
            line = await asyncio.wait_for(reader.readline(), timeout=120)
            response = json.loads(line)
            responses[response["id"]] = response
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(
        *(connection(worker) for worker in range(CONNECTIONS))
    )

    # Stats on a fresh connection after the whole batch resolved, so
    # the counters describe the complete run.
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"id": "stats", "op": "stats"}\n')
    writer.write(b'{"id": "metrics", "op": "metrics"}\n')
    await writer.drain()
    for _ in range(2):
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        response = json.loads(line)
        responses[response["id"]] = response
    writer.close()
    await writer.wait_closed()

    failed = [
        responses[i] for i in range(REQUESTS) if not responses[i]["ok"]
    ]
    if failed:
        raise SystemExit(
            f"{len(failed)}/{REQUESTS} requests failed under "
            f"{CRASH_RATE} injected crashes; first: {failed[0]}"
        )
    for index in range(REQUESTS):
        result = responses[index]["result"]
        assert sum(result["counts"].values()) == 96, result
    retries = sum(
        responses[i]["result"]["info"]["retries"] for i in range(REQUESTS)
    )
    stats = responses["stats"]["result"]
    print(
        f"{REQUESTS}/{REQUESTS} requests ok under "
        f"worker_crash={CRASH_RATE} "
        f"(retries absorbed: {retries}; service counters: "
        f"completed={stats['counters']['completed']}, "
        f"failed={stats['counters']['failed']}, "
        f"faults_injected={stats['counters']['faults_injected']})"
    )
    assert stats["counters"]["failed"] == 0, stats

    # The metrics endpoint exposes the same substrate the stats()
    # counters derive from, as Prometheus text.
    exposition = responses["metrics"]["result"]["exposition"]
    assert "repro_service_events_total" in exposition, exposition[:400]
    assert 'event="completed"' in exposition, exposition[:400]


def main() -> int:
    process, port = start_server()
    try:
        asyncio.run(drive(port))
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise SystemExit("server did not drain within 30s of SIGTERM")
    output = process.stdout.read()
    if "draining" not in output or "stopped" not in output:
        raise SystemExit(f"no graceful drain in server output: {output!r}")
    print("graceful drain on SIGTERM: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
