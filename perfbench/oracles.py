"""Correctness oracles that do not come from the compiler under test.

Each oracle derives the expected answer from the algorithm's definition
(the secret, the oracle function, the analytic success probability)
or from an independent simulator, and returns ``None`` when the output
passes or a one-line reason when it does not.  Statistical bounds come
from ``tests/stats.py`` (:func:`tvd_threshold`), used read-only.

Histograms are ``{"0101": count}`` maps as the service returns them:
character ``i`` is output bit ``i``.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from tests.stats import distribution_tvd, tvd_threshold


def alternating(n: int) -> str:
    """The benchmark suite's secret for BV and Simon: ``1010...``."""
    return "".join("1" if i % 2 == 0 else "0" for i in range(n))


def bv(counts: Mapping[str, int], n: int) -> Optional[str]:
    """Bernstein-Vazirani returns the secret on every shot."""
    secret = alternating(n)
    bad = [key for key in counts if key != secret]
    return f"bv-n{n} returned {bad[0]}, secret {secret}" if bad else None


def dj(counts: Mapping[str, int], n: int) -> Optional[str]:
    """Deutsch-Jozsa on a balanced oracle never returns all zeros."""
    if "0" * n in counts:
        return f"dj-n{n} returned all zeros on a balanced oracle"
    return None


def simon(counts: Mapping[str, int], n: int) -> Optional[str]:
    """Every Simon outcome ``y`` satisfies ``y . s = 0 (mod 2)``, and the
    outcomes are not stuck on one value (they are uniform over the
    ``2^(n-1)`` solutions, so four or more shots repeating one value
    has probability at most ``2^(-3(n-1))``)."""
    secret = alternating(n)
    for key in counts:
        if sum(int(a) & int(b) for a, b in zip(key, secret)) % 2:
            return f"simon-n{n} returned {key} with y.s = 1"
    if len(counts) == 1 and sum(counts.values()) >= 4 and n >= 3:
        return f"simon-n{n} returned only {next(iter(counts))}"
    return None


def grover_success_probability(n: int) -> float:
    """``sin^2((2k+1) theta)`` for one marked item among ``2^n`` with
    ``k = min(floor(pi/4 sqrt(2^n)), 12)`` iterations (the suite's
    iteration cap)."""
    iterations = min(max(1, math.floor(math.pi / 4 * math.sqrt(2**n))), 12)
    theta = math.asin(1.0 / math.sqrt(2**n))
    return math.sin((2 * iterations + 1) * theta) ** 2


def grover(counts: Mapping[str, int], n: int) -> Optional[str]:
    """The all-ones hit rate lies within the derived binomial margin of
    the analytic success probability."""
    shots = sum(counts.values())
    expected = grover_success_probability(n)
    observed = counts.get("1" * n, 0) / shots
    margin = tvd_threshold(shots, outcomes=2)
    if abs(observed - expected) >= margin:
        return (
            f"grover-n{n} hit rate {observed:.4f}, analytic {expected:.4f} "
            f"(margin {margin:.4f}, {shots} shots)"
        )
    return None


def period(counts: Mapping[str, int], n: int) -> Optional[str]:
    """Period finding on ``f(x) = x & 01...1``: ``f`` ignores the top
    bit, so the period is ``2^(n-1)`` and the Fourier sampling lands
    uniformly on the ``2^(n-1)`` even outcomes (last bit 0)."""
    odd = [key for key in counts if key[-1] != "0"]
    if odd:
        return f"period-n{n} returned odd outcome {odd[0]}"
    shots = sum(counts.values())
    support = 2 ** (n - 1)
    uniform = {
        format(2 * k, f"0{n}b"): 1.0 / support for k in range(support)
    }
    observed = {key: c / shots for key, c in counts.items()}
    distance = distribution_tvd(observed, uniform)
    margin = tvd_threshold(shots, outcomes=support)
    if distance >= margin:
        return (
            f"period-n{n} TVD {distance:.4f} from uniform-even "
            f"(margin {margin:.4f})"
        )
    return None


def teleport(counts: Mapping[str, int]) -> Optional[str]:
    """Teleporting ``|->`` and measuring in the pm basis reads 1."""
    bad = [key for key in counts if key != "1"]
    return f"teleport returned {bad[0]}" if bad else None


NOISELESS = {"bv": bv, "dj": dj, "simon": simon, "grover": grover,
             "period": period}


def noiseless(kernel: str, counts: Mapping[str, int], n: int) -> Optional[str]:
    if kernel == "teleport":
        return teleport(counts)
    return NOISELESS[kernel](counts, n)


def near_distribution(counts: Mapping[str, int], exact: Mapping[str, float],
                      label: str) -> Optional[str]:
    """An empirical histogram lies within the derived TVD margin of an
    exact distribution (support = outcomes with non-zero probability)."""
    shots = sum(counts.values())
    observed = {key: c / shots for key, c in counts.items()}
    support = sum(1 for p in exact.values() if p > 1e-12)
    distance = distribution_tvd(observed, dict(exact))
    margin = tvd_threshold(shots, outcomes=max(support, 2))
    if distance >= margin:
        return (
            f"{label}: TVD {distance:.4f} from the exact density-matrix "
            f"distribution (margin {margin:.4f}, {shots} shots)"
        )
    return None


def rotation(counts: Mapping[str, int], degrees: float) -> Optional[str]:
    """``'p' | phase(theta) on '1' | pm.measure`` reads 0 with
    probability ``cos^2(theta/2)``."""
    shots = sum(counts.values())
    expected = math.cos(math.radians(degrees) / 2) ** 2
    observed = counts.get("0", 0) / shots
    margin = tvd_threshold(shots, outcomes=2)
    if abs(observed - expected) >= margin:
        return (
            f"rotation({degrees:.1f} deg) P(0)={observed:.4f}, analytic "
            f"{expected:.4f} (margin {margin:.4f})"
        )
    return None


# ----------------------------------------------------------------------
# Energies for the variational checks, from the problem definitions.
# ----------------------------------------------------------------------
def ising_energy(bits: tuple, edges, j: float, h: float) -> float:
    """``J sum z_a z_b + h sum z_i`` with ``z = 1 - 2 b``."""
    z = [1 - 2 * b for b in bits]
    return j * sum(z[a] * z[b] for a, b in edges) + h * sum(z)


def max_cut(num_nodes: int, edges) -> int:
    """Brute-force maximum cut."""
    return max(
        sum(1 for a, b in edges if (x >> a) & 1 != (x >> b) & 1)
        for x in range(2**num_nodes)
    )


def cut_value(bitstring: str, edges) -> int:
    return sum(1 for a, b in edges if bitstring[a] != bitstring[b])


# ----------------------------------------------------------------------
# An independent stabilizer simulator (Aaronson-Gottesman tableau) for
# the Clifford programs of the compile suite: BV, DJ and Simon circuits
# stay Clifford at every size, so their compiled output can be run at
# n = 64 without trusting the program's own simulators.
# ----------------------------------------------------------------------
class NotClifford(ValueError):
    pass


class Tableau:
    def __init__(self, n: int) -> None:
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        self.x[np.arange(n), np.arange(n)] = True
        self.z[n + np.arange(n), np.arange(n)] = True

    def copy(self) -> "Tableau":
        other = Tableau.__new__(Tableau)
        other.n = self.n
        other.x, other.z, other.r = self.x.copy(), self.z.copy(), self.r.copy()
        return other

    def h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def cx(self, c: int, t: int) -> None:
        self.r ^= (self.x[:, c] & self.z[:, t]
                   & ~(self.x[:, t] ^ self.z[:, c]))
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def _rowsum(self, h_x, h_z, h_r, i: int):
        x1, z1 = self.x[i].astype(int), self.z[i].astype(int)
        x2, z2 = h_x.astype(int), h_z.astype(int)
        g = np.where(
            (x1 == 1) & (z1 == 1), z2 - x2,
            np.where((x1 == 1) & (z1 == 0), z2 * (2 * x2 - 1),
                     np.where((x1 == 0) & (z1 == 1), x2 * (1 - 2 * z2), 0)),
        )
        total = 2 * int(h_r) + 2 * int(self.r[i]) + int(g.sum())
        return h_x ^ self.x[i], h_z ^ self.z[i], (total % 4) == 2

    def measure(self, a: int, rng) -> int:
        n = self.n
        hits = np.nonzero(self.x[n:, a])[0]
        if hits.size:
            p = n + int(hits[0])
            for j in np.nonzero(self.x[:, a])[0]:
                if j != p:
                    self.x[j], self.z[j], self.r[j] = self._rowsum(
                        self.x[j], self.z[j], self.r[j], p
                    )
            self.x[p - n], self.z[p - n], self.r[p - n] = (
                self.x[p].copy(), self.z[p].copy(), self.r[p]
            )
            self.x[p] = False
            self.z[p] = False
            self.z[p, a] = True
            outcome = int(rng.integers(2))
            self.r[p] = bool(outcome)
            return outcome
        sx = np.zeros(n, dtype=bool)
        sz = np.zeros(n, dtype=bool)
        sr = False
        for i in np.nonzero(self.x[:n, a])[0]:
            sx, sz, sr = self._rowsum(sx, sz, sr, int(i) + n)
        return int(sr)


def _quarter_turns(theta: float) -> int:
    turns = theta / (math.pi / 2)
    if abs(turns - round(turns)) > 1e-9:
        raise NotClifford(f"phase {theta}")
    return int(round(turns)) % 4


def _apply(tab: Tableau, gate) -> None:
    name, targets = gate.name, gate.targets
    flips = [c for c, s in zip(gate.controls, gate.ctrl_states) if s == 0]
    for c in flips:  # a negative control is X . control . X
        _apply_named(tab, "x", (c,), ())
    _apply_named(tab, name, targets, gate.controls, gate.params)
    for c in flips:
        _apply_named(tab, "x", (c,), ())


def _apply_named(tab: Tableau, name: str, targets, controls,
                 params=()) -> None:
    if len(controls) > 1:
        raise NotClifford(f"{len(controls)}-controlled {name}")
    if controls:
        c, t = controls[0], targets[0]
        if name == "x":
            tab.cx(c, t)
        elif name == "z":
            tab.h(t)
            tab.cx(c, t)
            tab.h(t)
        elif name == "y":
            tab.s(t), tab.s(t), tab.s(t)
            tab.cx(c, t)
            tab.s(t)
        else:
            raise NotClifford(f"controlled {name}")
        return
    a = targets[0]
    if name == "h":
        tab.h(a)
    elif name in ("s", "sdg", "z", "p", "rz"):
        turns = {"s": 1, "sdg": 3, "z": 2}.get(name)
        if turns is None:
            turns = _quarter_turns(float(params[0]))
        for _ in range(turns):
            tab.s(a)
    elif name in ("x", "y"):
        tab.h(a), tab.s(a), tab.s(a), tab.h(a)
        if name == "y":
            tab.s(a), tab.s(a)
    elif name in ("sx", "sxdg"):
        tab.h(a)
        for _ in range(1 if name == "sx" else 3):
            tab.s(a)
        tab.h(a)
    elif name == "swap":
        b = targets[1]
        tab.cx(a, b), tab.cx(b, a), tab.cx(a, b)
    else:
        raise NotClifford(name)


def clifford_samples(circuit, shots: int, seed: int) -> dict[str, int]:
    """Sample a Clifford circuit whose measurements all come after its
    gates; returns a histogram over its output bits."""
    from repro.qcircuit.circuit import CircuitGate, Measurement, Reset

    tab = Tableau(circuit.num_qubits)
    measures = []
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate):
            if measures or inst.condition is not None:
                raise NotClifford("gate after a measurement")
            _apply(tab, inst)
        elif isinstance(inst, Measurement):
            measures.append(inst)
        elif not isinstance(inst, Reset):
            raise NotClifford(type(inst).__name__)
    output = list(circuit.output_bits or range(circuit.num_bits))
    rng = np.random.default_rng(seed)
    counts: dict[str, int] = {}
    for _ in range(shots):
        state = tab.copy()
        bits = [0] * circuit.num_bits
        for m in measures:
            bits[m.bit] = state.measure(m.qubit, rng)
        key = "".join(str(bits[b]) for b in output)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# An independent density-matrix simulator for the noisy requests: exact
# rho evolution with single-qubit depolarizing noise
# ``rho -> (1-p) rho + p I/2 (x) Tr_q rho`` after every gate on every
# qubit the gate touches (the documented attachment rule of
# ``NoiseModel.add_channel``), terminal measurements only.
# ----------------------------------------------------------------------
_SQ = 1 / math.sqrt(2)


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Standard single-qubit matrices (``rz`` and ``p`` differ by a
    phase, which matters once controlled)."""
    if name in ("p", "rx", "ry", "rz"):
        t = float(params[0])
        c, s = math.cos(t / 2), math.sin(t / 2)
        return {
            "p": np.array([[1, 0], [0, np.exp(1j * t)]]),
            "rx": np.array([[c, -1j * s], [-1j * s, c]]),
            "ry": np.array([[c, -s], [s, c]]),
            "rz": np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]]),
        }[name]
    return {
        "x": np.array([[0, 1], [1, 0]]),
        "y": np.array([[0, -1j], [1j, 0]]),
        "z": np.array([[1, 0], [0, -1]]),
        "h": np.array([[_SQ, _SQ], [_SQ, -_SQ]]),
        "s": np.diag([1, 1j]),
        "sdg": np.diag([1, -1j]),
        "t": np.diag([1, np.exp(0.25j * math.pi)]),
        "tdg": np.diag([1, np.exp(-0.25j * math.pi)]),
        "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
        "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
    }[name]


class DensityMatrix:
    """rho as a ``(2,)*2n`` tensor: axes ``0..n-1`` index rows, axes
    ``n..2n-1`` columns, qubit ``q`` on axes ``q`` and ``n+q``."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.rho = np.zeros((2,) * (2 * n), dtype=complex)
        self.rho[(0,) * (2 * n)] = 1.0

    def _index(self, fixed: dict) -> tuple:
        index = [slice(None)] * (2 * self.n)
        for axis, value in fixed.items():
            index[axis] = value
        return tuple(index)

    def controlled(self, matrix, target: int, controls, states) -> None:
        """``rho -> U rho U^dagger`` for ``matrix`` on ``target``,
        conditioned on each control qubit holding its state: ``U`` acts
        on the row axes, ``conj(U)`` on the column axes."""
        for offset, m in ((0, matrix), (self.n, matrix.conj())):
            fixed = {offset + c: s for c, s in zip(controls, states)}
            zero = self.rho[self._index({**fixed, offset + target: 0})]
            one = self.rho[self._index({**fixed, offset + target: 1})]
            old = zero.copy()
            zero *= m[0, 0]
            zero += m[0, 1] * one
            one *= m[1, 1]
            one += m[1, 0] * old

    def depolarize(self, q: int, p: float) -> None:
        """``rho -> (1-p) rho + p I/2 (x) Tr_q rho``, in place."""
        row, col = q, self.n + q
        blocks = {(a, b): self.rho[self._index({row: a, col: b})]
                  for a in (0, 1) for b in (0, 1)}
        traced = blocks[0, 0] + blocks[1, 1]
        for (a, b), block in blocks.items():
            block *= 1 - p
            if a == b:
                block += 0.5 * p * traced

    def probabilities(self) -> np.ndarray:
        flat = self.rho.reshape(2**self.n, 2**self.n)
        return np.real(np.diag(flat)).reshape((2,) * self.n)


def noisy_distribution(circuit, p: float) -> dict[str, float]:
    """Exact output distribution of ``circuit`` under depolarizing
    noise of strength ``p``, keyed like the service's histograms."""
    from repro.qcircuit.circuit import CircuitGate, Measurement, Reset

    state = DensityMatrix(circuit.num_qubits)
    measured: dict[int, int] = {}
    for inst in circuit.instructions:
        if isinstance(inst, CircuitGate):
            if measured or inst.condition is not None:
                raise ValueError("noisy oracle needs terminal measurements")
            if inst.name == "swap":
                a, b = inst.targets
                x = gate_matrix("x")
                state.controlled(x, a, (b,), (1,))
                state.controlled(x, b, inst.controls + (a,),
                                 inst.ctrl_states + (1,))
                state.controlled(x, a, (b,), (1,))
            else:
                state.controlled(gate_matrix(inst.name, inst.params),
                                 inst.targets[0], inst.controls,
                                 inst.ctrl_states)
            for q in inst.controls + inst.targets:
                state.depolarize(q, p)
        elif isinstance(inst, Measurement):
            measured[inst.bit] = inst.qubit
        elif not isinstance(inst, Reset):
            raise ValueError(type(inst).__name__)
    probabilities = state.probabilities()
    output = list(circuit.output_bits or range(circuit.num_bits))
    qubits = [measured[b] for b in output]
    keep = tuple(q for q in range(circuit.num_qubits) if q not in qubits)
    marginal = probabilities.sum(axis=keep) if keep else probabilities
    # ``marginal`` axes follow ascending qubit order; reorder to bits.
    order = sorted(qubits)
    marginal = np.transpose(marginal, [order.index(q) for q in qubits])
    return {
        "".join(map(str, index)): float(marginal[index])
        for index in np.ndindex(marginal.shape)
        if marginal[index] > 1e-15
    }
