"""Pinned circuit costs of the paper's five benchmarks (§8).

``golden_counts.json`` records, for bv/dj/grover/simon/period at
n = 4/8/16/32/64 under the default preset and under every other
``PRESETS`` entry at n <= 16, the decomposed circuit's gate, T, CNOT
and qubit counts plus a sha256 of the emitted OpenQASM 3 text of both
the optimized and the decomposed circuit.  The ``no-opt`` preset stops
before the flat circuit, so its entries pin the QIR text instead.

A compiler change that is meant to leave the paper's numbers alone
must leave this file alone.  When a change is *meant* to alter the
compiled circuits, regenerate the file and say why in the commit::

    PYTHONPATH=src python tests/qcircuit/test_golden_counts.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.backends.qasm3 import emit_qasm3
from repro.evaluation import ALGORITHMS, asdf_kernel
from repro.pipeline import PRESETS, compile_kernel

GOLDEN_PATH = Path(__file__).with_name("golden_counts.json")

DEFAULT_SIZES = (4, 8, 16, 32, 64)
PRESET_SIZES = (4, 8, 16)


def golden_keys() -> list[tuple[str, int, str]]:
    """Every (algorithm, n, preset) the golden file pins."""
    keys = []
    for algorithm in ALGORITHMS:
        for n in DEFAULT_SIZES:
            keys.append((algorithm, n, "default"))
        for preset in PRESETS:
            if preset == "default":
                continue
            for n in PRESET_SIZES:
                keys.append((algorithm, n, preset))
    return keys


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_record(algorithm: str, n: int, preset: str) -> dict:
    """The pinned facts of one compilation, computed fresh."""
    result = compile_kernel(asdf_kernel(algorithm, n), pipeline=preset)
    circuit = result.decomposed_circuit
    if circuit is None:
        return {
            "gates": None,
            "t": None,
            "cnot": None,
            "qubits": None,
            "qasm3_sha256": None,
            "decomposed_qasm3_sha256": None,
            "qir_sha256": _sha256(result.qir()),
        }
    gates = circuit.gates
    return {
        "gates": len(gates),
        "t": circuit.t_count(),
        "cnot": sum(
            1 for gate in gates if gate.name == "x" and len(gate.controls) == 1
        ),
        "qubits": circuit.num_qubits,
        "qasm3_sha256": _sha256(result.qasm3()),
        "decomposed_qasm3_sha256": _sha256(
            emit_qasm3(circuit, name=result.name)
        ),
        "qir_sha256": None,
    }


def _key_id(key: tuple[str, int, str]) -> str:
    algorithm, n, preset = key
    return f"{algorithm}-n{n}-{preset}"


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key", golden_keys(), ids=_key_id)
def test_golden_counts(key):
    expected = _load_golden()[_key_id(key)]
    assert golden_record(*key) == expected


def test_golden_file_covers_every_key():
    assert sorted(_load_golden()) == sorted(map(_key_id, golden_keys()))


if __name__ == "__main__":
    golden = {_key_id(key): golden_record(*key) for key in golden_keys()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} records to {GOLDEN_PATH}", file=sys.stderr)
