"""Pinned seeded outputs of every statevector engine.

``golden_samples.json`` records a sha256 digest of the sampled result
list of each run below at fixed seeds, so a refactor of the simulators
that is meant to leave outputs alone must leave this file alone:

- the ``statevector`` (terminal fast path) and ``interpreter``
  backends on the compiled serve-warm kernels (bv/dj/grover at
  n = 4/6/8, simon/period at n = 3/4);
- the four non-terminal circuits of :mod:`repro.qcircuit.examples` on
  the ``statevector`` backend (the batched trajectory engine) and the
  ``interpreter`` backend, noiseless and under
  ``standard_noise_model(0.05)``;
- the bytes of ``exact_probabilities`` of ``hardware_efficient_ansatz``
  at fixed angles;
- ``interpret_module`` on a ``no-opt`` module at several seeds.

When a change is *meant* to alter sampled outputs, regenerate the file
and say why in the commit::

    PYTHONPATH=src python tests/sim/test_golden_samples.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.evaluation import asdf_kernel
from repro.noise import standard_noise_model
from repro.pipeline import compile_kernel
from repro.qcircuit.examples import (
    conditioned_fanout_circuit,
    qubit_reuse_circuit,
    repeat_until_success_circuit,
    teleport_circuit,
)
from repro.sim import interpret_module, run_circuit
from repro.variational import exact_probabilities, hardware_efficient_ansatz

GOLDEN_PATH = Path(__file__).with_name("golden_samples.json")

KERNELS = (
    ("bv", 4), ("bv", 6), ("bv", 8), ("dj", 4), ("dj", 6), ("dj", 8),
    ("grover", 4), ("grover", 6), ("grover", 8),
    ("simon", 3), ("simon", 4), ("period", 3), ("period", 4),
)
EXAMPLES = {
    "teleport": teleport_circuit,
    "cond-fanout": conditioned_fanout_circuit,
    "qubit-reuse": qubit_reuse_circuit,
    "repeat-until-success": repeat_until_success_circuit,
}
BACKENDS = ("statevector", "interpreter")
SEEDS = (0, 7)
KERNEL_SHOTS = {"statevector": 256, "interpreter": 32}
EXAMPLE_SHOTS = 128
NOISE_P = 0.05


def _digest(results) -> str:
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


def golden_keys() -> list[str]:
    keys = []
    for algorithm, n in KERNELS:
        for backend in BACKENDS:
            keys.append(f"kernel/{algorithm}-n{n}/{backend}")
    for name in EXAMPLES:
        for backend in BACKENDS:
            for noise in ("ideal", "noisy"):
                keys.append(f"example/{name}/{backend}/{noise}")
    keys.append("exact-probabilities/hea-4x1")
    keys.append("interpret-module/simon-n3-no-opt")
    return keys


def golden_record(key: str) -> str:
    """The digest of one pinned run, computed fresh."""
    kind, name, *rest = key.split("/")
    if kind == "kernel":
        algorithm, n = name.rsplit("-n", 1)
        (backend,) = rest
        circuit = compile_kernel(
            asdf_kernel(algorithm, int(n)), pipeline="default", cache=True
        ).execution_circuit
        return _digest([
            run_circuit(circuit, KERNEL_SHOTS[backend], seed, backend=backend)
            for seed in SEEDS
        ])
    if kind == "example":
        backend, noise = rest
        model = standard_noise_model(NOISE_P) if noise == "noisy" else None
        return _digest([
            run_circuit(
                EXAMPLES[name](), EXAMPLE_SHOTS, seed,
                backend=backend, noise_model=model,
            )
            for seed in SEEDS
        ])
    if kind == "exact-probabilities":
        circuit, params = hardware_efficient_ansatz(4, 1)
        values = {p: 0.37 * (i + 1) for i, p in enumerate(params)}
        probabilities = exact_probabilities(circuit, values)
        return hashlib.sha256(probabilities.tobytes()).hexdigest()
    if kind == "interpret-module":
        module = compile_kernel(
            asdf_kernel("simon", 3), pipeline="no-opt"
        ).qcircuit_module
        return _digest([
            interpret_module(module, num_qubits=12, seed=seed)
            for seed in range(8)
        ])
    raise KeyError(key)


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", golden_keys())
def test_golden_samples(key):
    assert golden_record(key) == _load_golden()[key]


def test_golden_file_covers_every_key():
    assert sorted(_load_golden()) == sorted(golden_keys())


if __name__ == "__main__":
    golden = {key: golden_record(key) for key in golden_keys()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} records to {GOLDEN_PATH}", file=sys.stderr)
