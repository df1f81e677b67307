"""Tests of the benchmark itself: oracles catch wrong answers, wrong
answers are counted, generators are reproducible, the result line has
the contracted shape.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import common

common.bootstrap()

import compile_cold  # noqa: E402
import oracles  # noqa: E402
import serve  # noqa: E402


def response(counts: dict, provenance: str = "memory") -> dict:
    return {"ok": True, "result": {
        "counts": counts, "shots": sum(counts.values()),
        "info": {"compile_cache": provenance},
    }}


def record(payload: dict, message: dict) -> serve.Record:
    return serve.Record(payload, 0.0, 0.0, 0.001, message)


BV6 = {"op": "run", "kernel": "bv", "n": 6, "shots": 128, "seed": 3}


# ----------------------------------------------------------------------
# Injected wrong answers are counted.
# ----------------------------------------------------------------------
def test_wrong_service_answer_is_counted():
    tally = common.Tally()
    verifier = serve.Verifier(tally)
    verifier.check(record(BV6, response({"101010": 128})))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)
    verifier.check(record(BV6, response({"101010": 127, "101011": 1})))
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_lost_shots_and_cold_cache_are_failures():
    tally = common.Tally()
    verifier = serve.Verifier(tally)
    verifier.check(record(BV6, response({"101010": 100})))
    assert tally.wrong == 1
    verifier.check(record(BV6, response({"101010": 128}, "compiled")))
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 1)
    verifier.check(record(BV6, response({"101010": 128}, "disk")))
    assert tally.failed == 3


def test_error_response_is_a_failure_not_a_wrong_answer():
    tally = common.Tally()
    serve.Verifier(tally).check(record(BV6, {
        "ok": False, "error": {"code": "QW602", "message": "deadline"},
    }))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert record(BV6, {"ok": False}).latency_ms() == serve.MISSED_MS


def test_wrong_noisy_answer_is_counted_when_pooled():
    tally = common.Tally()
    verifier = serve.Verifier(tally)
    payload = serve.noisy_payload(("bv", 6, 256, 1, True), 1)
    for _ in range(8):  # 2048 shots stuck on one wrong outcome
        verifier.check(record(payload, response({"000000": 256})))
    verifier.finish()
    assert tally.wrong >= 1


def test_warm_up_responses_are_not_pooled():
    verifier = serve.Verifier(common.Tally())
    payload = serve.noisy_payload(("bv", 6, 256, 1, True), 1)
    verifier.check(record(payload, response({"101010": 256})), timed=False)
    assert verifier.pooled == {}


def test_wrong_compiled_program_is_counted():
    from repro.qcircuit.circuit import CircuitGate

    tally = common.Tally()
    checker = compile_cold.Checker(tally, seed=0)
    kernels = compile_cold.setup()
    result, qasm, qir, estimate = compile_cold.compile_one(kernels[("bv", 16)])
    checker.check(("bv", 16), result, qasm, qir, estimate)
    assert tally.failed == 0
    # A later pass that compiles a different circuit is a wrong answer.
    again = compile_cold.compile_one(kernels[("bv", 16)])
    again[0].decomposed_circuit.instructions.insert(0, CircuitGate("x", (0,)))
    checker.check(("bv", 16), *again)
    assert tally.wrong == 1
    # So is a reference circuit that no longer returns the secret.
    fresh = compile_cold.Checker(common.Tally(), seed=0)
    fresh.check(("bv", 16), *again)
    assert fresh.tally.wrong == 1


def test_warm_disk_cache_cannot_pass_for_a_cold_compile():
    tally = common.Tally()
    checker = compile_cold.Checker(tally, seed=0)
    kernels = compile_cold.setup()
    outputs = compile_cold.compile_one(kernels[("dj", 16)])
    outputs[0].provenance = "disk"
    checker.check(("dj", 16), *outputs)
    assert tally.wrong == 1


# ----------------------------------------------------------------------
# Oracles.
# ----------------------------------------------------------------------
def test_noiseless_oracles():
    assert oracles.bv({"1010": 5}, 4) is None
    assert oracles.bv({"1011": 5}, 4)
    assert oracles.dj({"1111": 5}, 4) is None
    assert oracles.dj({"0000": 1, "1111": 4}, 4)
    assert oracles.simon({"0101": 3, "1010": 3, "0000": 2}, 4) is None
    assert oracles.simon({"1000": 3}, 4)
    assert oracles.simon({"0000": 8}, 4)
    assert oracles.teleport({"1": 9}) is None
    assert oracles.teleport({"0": 1, "1": 8})


def test_grover_and_period_bounds():
    assert oracles.grover_success_probability(2) == pytest.approx(1.0)
    p = oracles.grover_success_probability(4)
    assert 0.9 < p < 1.0
    good = {"1111": round(1000 * p), "0000": 1000 - round(1000 * p)}
    assert oracles.grover(good, 4) is None
    assert oracles.grover({"1111": 500, "0000": 500}, 4)
    uniform_even = {format(2 * k, "04b"): 125 for k in range(8)}
    assert oracles.period(uniform_even, 4) is None
    assert oracles.period({"0001": 1, **uniform_even}, 4)
    assert oracles.period({"0000": 1000}, 4)


def test_clifford_sampler_on_a_bell_pair():
    from repro.qcircuit.circuit import Circuit, CircuitGate, Measurement

    circuit = Circuit(2, 2, output_bits=[0, 1])
    circuit.add(CircuitGate("h", (0,)))
    circuit.add(CircuitGate("x", (1,), controls=(0,)))
    circuit.add(Measurement(0, 0))
    circuit.add(Measurement(1, 1))
    counts = oracles.clifford_samples(circuit, 64, seed=1)
    assert set(counts) == {"00", "11"}
    circuit.add(CircuitGate("t", (0,)))
    with pytest.raises(oracles.NotClifford):
        oracles.clifford_samples(circuit, 1, seed=1)


@pytest.mark.parametrize("kernel,n", [("bv", 4), ("simon", 3), ("grover", 4),
                                      ("period", 3)])
def test_own_density_matrix_matches_the_programs(kernel, n):
    from repro.evaluation import asdf_kernel
    from repro.noise import NoiseModel, depolarizing
    from repro.pipeline import compile_kernel
    from repro.sim.density import DensityMatrixBackend

    circuit = compile_kernel(asdf_kernel(kernel, n)).optimized_circuit
    ours = oracles.noisy_distribution(circuit, 0.02)
    theirs = DensityMatrixBackend().output_distribution(
        circuit, NoiseModel().add_channel(depolarizing(0.02))
    )
    for bits, p in theirs.items():
        assert ours.get("".join(map(str, bits)), 0.0) == pytest.approx(
            p, abs=1e-12)


# ----------------------------------------------------------------------
# Generators.
# ----------------------------------------------------------------------
def test_same_seed_same_schedule():
    a = serve.open_schedule(7, serve.WARM_RATE, 5.0)
    b = serve.open_schedule(7, serve.WARM_RATE, 5.0)
    assert serve.digest(a) == serve.digest(b)
    assert serve.digest(a) != serve.digest(
        serve.open_schedule(8, serve.WARM_RATE, 5.0))
    streams = [serve.request_stream(7, "closed0", serve.NOISY_DECK,
                                    serve.noisy_payload) for _ in range(2)]
    first = [next(streams[0]) for _ in range(2 * len(serve.NOISY_DECK))]
    assert first == [next(streams[1]) for _ in range(len(first))]
    # Each deck is dealt whole: the mix is the same on every seed.
    deck = sorted(serve.kernel_key(p) + (p["shots"],)
                  for p in first[:len(serve.NOISY_DECK)])
    assert deck == sorted((k, n, shots) for k, n, shots, _, _ in
                          serve.NOISY_DECK)
    assert compile_cold.pass_order(3, 1) == compile_cold.pass_order(3, 1)


def test_runs_deal_whole_decks():
    decks = serve.deck_stream(7, "serial", serve.WARM_DECK, serve.warm_payload)
    for _ in range(3):
        cards = next(decks)
        assert sorted(serve.kernel_key(p) + (p["shots"],) for p in cards) \
            == sorted(serve.WARM_DECK)
    flat = serve.request_stream(7, "serial", serve.WARM_DECK,
                                serve.warm_payload)
    again = serve.deck_stream(7, "serial", serve.WARM_DECK, serve.warm_payload)
    assert [next(flat) for _ in range(len(serve.WARM_DECK))] == next(again)


# ----------------------------------------------------------------------
# CPU readings.
# ----------------------------------------------------------------------
def test_tree_cpu_counts_a_busy_child():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import time\n"
         "while time.process_time() < 0.3: pass\n"
         "print('done', flush=True)\n"
         "time.sleep(60)"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline().strip() == "done"
        assert 0.25 < common.tree_cpu_s(child.pid) < 5.0
        # The child is this process's descendant, so the tree counts it.
        assert common.tree_cpu_s(os.getpid()) >= 0.25
    finally:
        child.kill()
        child.wait()


def test_reference_speed_scales_to_the_reference_loop():
    speed = common.ReferenceSpeed()
    speed.sample()
    speed.sample()  # too soon after the first: skipped
    assert len(speed.samples) == 1
    speed.samples = [0.004, 0.001, 0.002]
    assert speed.scale == pytest.approx(common.REFERENCE_LOOP_S / 0.002)
    # A host twice as slow doubles CPU times and halves the scale.
    slow = common.ReferenceSpeed()
    slow.samples = [2 * t for t in speed.samples]
    assert slow.scale == pytest.approx(speed.scale / 2)


def test_failed_request_misses_every_limit():
    failed = serve.Record(BV6, 0.0, 0.0, 0.001, {"ok": False}, cpu=0.002)
    assert failed.cpu_ms() == failed.latency_ms() == serve.MISSED_MS
    served = serve.Record(BV6, 0.0, 0.0, 0.001, response({"101010": 128}),
                          cpu=0.002)
    assert served.cpu_ms() == pytest.approx(2.0)


def test_late_generator_rejects_the_run():
    report = common.Report()
    assert serve.check_generator([1.0] * 100, report) == 1.0
    with pytest.raises(common.BenchError):
        serve.check_generator([1.0] * 90 + [100.0] * 10, report)


# ----------------------------------------------------------------------
# The result line.
# ----------------------------------------------------------------------
def test_result_line(capsys):
    spec = json.loads(common.SPEC_PATH.read_text())
    report, tally = common.Report(), common.Tally()
    for entry in spec["end_to_end"]:
        report.put(entry["name"], 1.5)
    tally.attempt(3)
    tally.wrong_answer("injected")
    common.emit(spec, False, "compile-cold", report, tally)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (3, 1)
    assert set(line["metrics"]) == {e["name"] for e in spec["end_to_end"]}
    del report.values["setup_s"]
    with pytest.raises(common.BenchError):
        common.emit(spec, False, "compile-cold", report, tally)


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(common.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
