"""A sliver of MLIR's ``arith`` dialect: float constants and arithmetic.

These ops exist to model *stationary* classical computation inside
quantum basic blocks (paper §5.2, Fig. 4): phase angles are computed by
``arith`` ops that stay in place when the quantum DAG around them is
adjointed or predicated.
"""

from __future__ import annotations

from repro.ir.core import Operation, Value
from repro.ir.module import Builder, ModuleOp
from repro.ir.rewrite import RewritePattern
from repro.ir.types import F64

CONSTANT = "arith.constant"
ADDF = "arith.addf"
SUBF = "arith.subf"
MULF = "arith.mulf"
DIVF = "arith.divf"
NEGF = "arith.negf"

#: Classical ops are stationary under adjoint/predication (paper §5.2).
STATIONARY_OPS = {CONSTANT, ADDF, SUBF, MULF, DIVF, NEGF}


def constant(builder: Builder, value: float) -> Value:
    return builder.create(CONSTANT, [], [F64], {"value": float(value)}).result


def _binary(name: str, builder: Builder, lhs: Value, rhs: Value) -> Value:
    return builder.create(name, [lhs, rhs], [F64]).result


def addf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return _binary(ADDF, builder, lhs, rhs)


def subf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return _binary(SUBF, builder, lhs, rhs)


def mulf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return _binary(MULF, builder, lhs, rhs)


def divf(builder: Builder, lhs: Value, rhs: Value) -> Value:
    return _binary(DIVF, builder, lhs, rhs)


def negf(builder: Builder, operand: Value) -> Value:
    return builder.create(NEGF, [operand], [F64]).result


def const_value(value: Value) -> float | None:
    """The constant behind ``value``, or None if it is not a constant."""
    op = value.owner_op
    if op is not None and op.name == CONSTANT:
        return op.attrs["value"]
    return None


_FOLDS = {
    ADDF: lambda a, b: a + b,
    SUBF: lambda a, b: a - b,
    MULF: lambda a, b: a * b,
    DIVF: lambda a, b: a / b,
}


def _fold_binary(op: Operation, module: ModuleOp) -> bool:
    lhs = const_value(op.operands[0])
    rhs = const_value(op.operands[1])
    if lhs is None or rhs is None:
        return False
    if op.name == DIVF and rhs == 0.0:
        return False
    builder = Builder.before(op)
    folded = constant(builder, _FOLDS[op.name](lhs, rhs))
    op.result.replace_all_uses_with(folded)
    op.erase()
    return True


def _fold_neg(op: Operation, module: ModuleOp) -> bool:
    operand = const_value(op.operands[0])
    if operand is None:
        return False
    builder = Builder.before(op)
    folded = constant(builder, -operand)
    op.result.replace_all_uses_with(folded)
    op.erase()
    return True


CANONICALIZATION_PATTERNS = [
    RewritePattern("arith.fold-binary", (ADDF, SUBF, MULF, DIVF), _fold_binary),
    RewritePattern("arith.fold-neg", (NEGF,), _fold_neg),
]
