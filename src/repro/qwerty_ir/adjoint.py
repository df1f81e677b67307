"""Taking the adjoint of basic blocks (paper §5.2).

The compiler traverses the def-use DAG of a single basic block
backwards from the terminator, building an adjoint form of each op
top-down.  Classical operations (``arith`` ops, function-value ops) are
*stationary*: they remain in place even though the quantum portion of
the DAG is inverted around them (paper Fig. 4).

Instead of hardcoding per-op logic in the traversal, adjointable ops
register a ``build_adjoint`` callback in :data:`ADJOINT_BUILDERS` — the
Pythonic equivalent of the paper's ``Adjointable`` op interface.
"""

from __future__ import annotations

from typing import Callable

from repro.basis.primitive import PrimitiveBasis
from repro.dialects import arith, qwerty
from repro.errors import ReversibilityError
from repro.ir.core import Operation, Value
from repro.ir.module import Builder, FuncOp
from repro.ir.types import FunctionType


class _AdjointMap:
    """Maps original values to their values in the adjoint block.

    Quantum values map "backwards": the adjoint value of an op's
    *result* feeds the adjoint op, which produces the adjoint values of
    the op's *operands*.  Classical (stationary) values map forward via
    their copied ops.
    """

    def __init__(self) -> None:
        self._map: dict[int, Value] = {}
        self._values: dict[int, Value] = {}

    def set(self, original: Value, adjoint: Value) -> None:
        self._map[id(original)] = adjoint

    def get(self, original: Value) -> Value:
        try:
            return self._map[id(original)]
        except KeyError:
            raise ReversibilityError(
                "adjoint traversal reached a value with no adjoint mapping "
                "(is the block truly reversible?)"
            )


#: ``build_adjoint(op, builder, amap)`` registered per op name.
ADJOINT_BUILDERS: dict[str, Callable[[Operation, Builder, _AdjointMap], None]] = {}


def adjointable(name: str):
    def wrap(fn):
        ADJOINT_BUILDERS[name] = fn
        return fn

    return wrap


def is_stationary(op: Operation) -> bool:
    """Classical ops stay in place when the quantum DAG is inverted."""
    if op.name in arith.STATIONARY_OPS:
        return True
    return op.name in (qwerty.FUNC_CONST, qwerty.FUNC_ADJ, qwerty.FUNC_PRED)


@adjointable(qwerty.QBTRANS)
def _adj_qbtrans(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    # ~(b1 >> b2) is b2 >> b1, phases riding along with their side.
    flipped_slots = tuple(
        ("out" if side == "in" else "in", index)
        for side, index in op.attrs["phase_slots"]
    )
    phase_operands = [amap.get(v) for v in op.operands[1:]]
    result = qwerty.qbtrans(
        builder,
        amap.get(op.result),
        op.attrs["bout"],
        op.attrs["bin"],
        phase_operands,
        flipped_slots,
    )
    amap.set(op.operands[0], result)


@adjointable(qwerty.QBPACK)
def _adj_qbpack(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    qubits = qwerty.qbunpack(builder, amap.get(op.result))
    for original, adjoint in zip(op.operands, qubits):
        amap.set(original, adjoint)


@adjointable(qwerty.QBUNPACK)
def _adj_qbunpack(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    bundle = qwerty.qbpack(builder, [amap.get(r) for r in op.results])
    amap.set(op.operands[0], bundle)


@adjointable(qwerty.QBPREP)
def _adj_qbprep(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    qwerty.qbunprep(
        builder, amap.get(op.result), op.attrs["prim"], op.attrs["eigenbits"]
    )


@adjointable(qwerty.QBUNPREP)
def _adj_qbunprep(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    bundle = qwerty.qbprep(builder, op.attrs["prim"], op.attrs["eigenbits"])
    amap.set(op.operands[0], bundle)


@adjointable(qwerty.QBDISCARDZ)
def _adj_qbdiscardz(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    # Reversed, "assume |0> and free" becomes "allocate |0>".
    bundle = qwerty.qbprep(
        builder, PrimitiveBasis.STD, (0,) * op.operands[0].type.n
    )
    amap.set(op.operands[0], bundle)


@adjointable(qwerty.EMBED)
def _adj_embed(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    # XOR and sign embeddings are self-adjoint.
    result = builder.create(
        qwerty.EMBED,
        [amap.get(op.result)],
        [op.result.type],
        dict(op.attrs),
    ).result
    amap.set(op.operands[0], result)


@adjointable(qwerty.CALL)
def _adj_call(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    adjoint_args = [amap.get(r) for r in op.results]
    new = qwerty.call(
        builder,
        op.attrs["callee"],
        adjoint_args,
        [operand.type for operand in op.operands],
        adj=not op.attrs.get("adj", False),
        pred=op.attrs.get("pred"),
    )
    for original, adjoint in zip(op.operands, new.results):
        amap.set(original, adjoint)


@adjointable(qwerty.CALL_INDIRECT)
def _adj_call_indirect(op: Operation, builder: Builder, amap: _AdjointMap) -> None:
    callee = amap.get(op.operands[0])
    adjoint_callee = qwerty.func_adj(builder, callee)
    adjoint_args = [amap.get(r) for r in op.results]
    new = qwerty.call_indirect(builder, adjoint_callee, adjoint_args)
    for original, adjoint in zip(op.operands[1:], new.results):
        amap.set(original, adjoint)


def _adjoint_ops_into(
    source_ops: list[Operation],
    source_inputs: list[Value],
    source_outputs: list[Value],
    builder: Builder,
    adjoint_inputs: list[Value],
    amap: _AdjointMap,
    classical_seed: dict[Value, Value] | None = None,
) -> list[Value]:
    for original, adjoint in zip(source_outputs, adjoint_inputs):
        amap.set(original, adjoint)

    # Pass 1: copy stationary (classical) ops in original order.
    copy_map: dict[Value, Value] = dict(classical_seed or {})
    for op in source_ops:
        if is_stationary(op):
            clone = op.clone(copy_map)
            builder.insert(clone)
            for old, new in zip(op.results, clone.results):
                amap.set(old, new)

    # Pass 2: adjoint the quantum DAG in reverse program order.
    for op in reversed(source_ops):
        if is_stationary(op) or op.name == qwerty.RETURN:
            continue
        build = ADJOINT_BUILDERS.get(op.name)
        if build is None:
            raise ReversibilityError(
                f"op {op.name} is not adjointable; reversible functions "
                f"cannot contain it",
                span=op.loc,
            )
        # Adjoint ops inherit the location of the op they invert.
        builder.loc = op.loc
        build(op, builder, amap)

    return [amap.get(value) for value in source_inputs]


def adjoint_function(func: FuncOp, new_name: str) -> FuncOp:
    """Create a new function computing the adjoint of ``func``.

    ``func`` must be reversible and single-block.  Classical arguments
    (e.g. captured function values) are stationary: they remain inputs
    of the adjoint; only the quantum interface reverses.
    """
    if not func.type.reversible:
        raise ReversibilityError(f"@{func.name} is not reversible")
    classical_ins = [t for t in func.type.inputs if not t.is_quantum]
    quantum_ins = [t for t in func.type.inputs if t.is_quantum]
    if any(not t.is_quantum for t in func.type.outputs):
        raise ReversibilityError(
            f"@{func.name} returns classical values; cannot adjoint"
        )
    adjoint_type = FunctionType(
        tuple(classical_ins) + func.type.outputs,
        tuple(quantum_ins),
        reversible=True,
    )
    adjoint = FuncOp(new_name, adjoint_type, func.visibility)
    builder = Builder(adjoint.entry)
    terminator = func.entry.terminator

    amap = _AdjointMap()
    new_args = list(adjoint.entry.args)
    classical_new = new_args[: len(classical_ins)]
    quantum_new = new_args[len(classical_ins):]
    quantum_orig_args = []
    classical_seed: dict[Value, Value] = {}
    for arg in func.entry.args:
        if arg.type.is_quantum:
            quantum_orig_args.append(arg)
        else:
            new_arg = classical_new.pop(0)
            amap.set(arg, new_arg)
            classical_seed[arg] = new_arg

    results = _adjoint_ops_into(
        list(func.entry.ops),
        quantum_orig_args,
        list(terminator.operands),
        builder,
        quantum_new,
        amap,
        classical_seed,
    )
    qwerty.return_op(builder, results)
    return adjoint
