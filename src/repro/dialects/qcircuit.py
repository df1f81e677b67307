"""The QCircuit dataflow IR dialect (paper §6).

A gate-level dataflow-semantics dialect similar to QIRO/QSSA: qubits
flow through ``gate`` ops, measurements yield the post-measurement
qubit plus an ``i1`` result, and ``qalloc``/``qfree`` bracket qubit
lifetimes.  Callable ops correspond to QIR callable intrinsics.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import LoweringError, SourceSpan
from repro.ir.core import Operation, Value
from repro.ir.module import Builder
from repro.ir.types import ArrayType, CallableType, I1, QubitType, Type
from repro.parameters import is_symbolic

QALLOC = "qcirc.qalloc"
QFREE = "qcirc.qfree"
QFREEZ = "qcirc.qfreez"
MEASURE = "qcirc.measure"
GATE = "qcirc.gate"
ARRPACK = "qcirc.arrpack"
ARRUNPACK = "qcirc.arrunpack"
CALL = "qcirc.call"
CALLABLE_CREATE = "qcirc.callable_create"
CALLABLE_ADJOINT = "qcirc.callable_adjoint"
CALLABLE_CONTROL = "qcirc.callable_control"
CALLABLE_INVOKE = "qcirc.callable_invoke"

_QUBIT = QubitType()
_CALLABLE = CallableType()

Loc = Optional[SourceSpan]

#: Gates the dialect understands, with parameter counts.
GATE_PARAM_COUNTS = {
    "x": 0,
    "y": 0,
    "z": 0,
    "h": 0,
    "s": 0,
    "sdg": 0,
    "t": 0,
    "tdg": 0,
    "sx": 0,
    "sxdg": 0,
    "p": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "swap": 0,
}

#: Gates that are their own adjoint.
HERMITIAN_GATES = {"x", "y", "z", "h", "swap"}

#: Adjoint pairs for non-Hermitian parameterless gates.
ADJOINT_PAIRS = {
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
}

#: Number of target qubits per gate (all others take one target).
GATE_NUM_TARGETS = {"swap": 2}


def qalloc(builder: Builder, loc: Loc = None) -> Value:
    """Allocate a qubit in state |0>."""
    return builder.create(QALLOC, [], [_QUBIT], loc=loc).result


def qfree(builder: Builder, qubit: Value, loc: Loc = None) -> Operation:
    """Reset and free a qubit."""
    return builder.create(QFREE, [qubit], [], loc=loc)


def qfreez(builder: Builder, qubit: Value, loc: Loc = None) -> Operation:
    """Free a qubit assumed to be |0> (skips the reset)."""
    return builder.create(QFREEZ, [qubit], [], loc=loc)


def measure(
    builder: Builder, qubit: Value, loc: Loc = None
) -> tuple[Value, Value]:
    """Measure in the standard basis: yields (new qubit state, i1)."""
    op = builder.create(MEASURE, [qubit], [_QUBIT, I1], loc=loc)
    return op.results[0], op.results[1]


def gate(
    builder: Builder,
    name: str,
    controls: Sequence[Value],
    targets: Sequence[Value],
    params: Sequence[float] = (),
    ctrl_states: Optional[Sequence[int]] = None,
    loc: Loc = None,
) -> list[Value]:
    """``gate G [%c1,...,%cM] %q1,...,%qN``: a (multi-)controlled gate.

    ``ctrl_states`` selects the control polarity per control qubit
    (1 = control on |1>, the default; 0 = control on |0>).  Returns the
    new SSA values for all M+N qubits, controls first.
    """
    if name not in GATE_PARAM_COUNTS:
        raise LoweringError(f"unknown gate {name!r}")
    if GATE_PARAM_COUNTS[name] != len(params):
        raise LoweringError(
            f"gate {name!r} takes {GATE_PARAM_COUNTS[name]} params, "
            f"got {len(params)}"
        )
    expected_targets = GATE_NUM_TARGETS.get(name, 1)
    if len(targets) != expected_targets:
        raise LoweringError(
            f"gate {name!r} takes {expected_targets} targets, got {len(targets)}"
        )
    states = tuple(ctrl_states) if ctrl_states is not None else (1,) * len(controls)
    if len(states) != len(controls):
        raise LoweringError("ctrl_states length must match controls")
    operands = [*controls, *targets]
    op = builder.create(
        GATE,
        operands,
        [_QUBIT] * len(operands),
        {
            "gate": name,
            "num_controls": len(controls),
            # Symbolic ParamExprs pass through unchanged; everything
            # else coerces to float (docs/variational.md).
            "params": tuple(
                p if is_symbolic(p) else float(p) for p in params
            ),
            "ctrl_states": states,
        },
        loc=loc,
    )
    return list(op.results)


def arrpack(
    builder: Builder, values: Sequence[Value], element: Type, loc: Loc = None
) -> Value:
    return builder.create(
        ARRPACK, list(values), [ArrayType(element, len(values))], loc=loc
    ).result


def arrunpack(builder: Builder, array: Value, loc: Loc = None) -> list[Value]:
    array_type = array.type
    op = builder.create(
        ARRUNPACK, [array], [array_type.element] * array_type.n, loc=loc
    )
    return list(op.results)


def call(
    builder: Builder,
    callee: str,
    args: Sequence[Value],
    result_types: Sequence[Type],
    loc: Loc = None,
) -> Operation:
    return builder.create(
        CALL, list(args), list(result_types), {"callee": callee}, loc=loc
    )


def callable_create(builder: Builder, callee: str, loc: Loc = None) -> Value:
    """Create a callable value backed by a function's specialization
    table (lowered to ``__quantum__rt__callable_create``)."""
    return builder.create(
        CALLABLE_CREATE, [], [_CALLABLE], {"callee": callee}, loc=loc
    ).result


def callable_adjoint(builder: Builder, fn: Value, loc: Loc = None) -> Value:
    """Mark a callable to run its adjoint specialization."""
    return builder.create(CALLABLE_ADJOINT, [fn], [_CALLABLE], loc=loc).result


def callable_control(builder: Builder, fn: Value, loc: Loc = None) -> Value:
    """Mark a callable to run its controlled specialization."""
    return builder.create(CALLABLE_CONTROL, [fn], [_CALLABLE], loc=loc).result


def callable_invoke(
    builder: Builder,
    fn: Value,
    args: Sequence[Value],
    result_types: Sequence[Type],
    loc: Loc = None,
) -> Operation:
    """Invoke a callable (lowered to ``__quantum__rt__callable_invoke``)."""
    return builder.create(
        CALLABLE_INVOKE, [fn, *args], list(result_types), loc=loc
    )
