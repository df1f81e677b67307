"""The Qwerty IR dialect (paper §5).

A quantum SSA dialect whose key ops are ``qbprep``, ``qbdiscard``,
``qbdiscardz``, ``qbtrans`` and ``qbmeas``, plus structural
pack/unpack ops and function-value ops (``func_const``, ``func_adj``,
``func_pred``, ``call``, ``call_indirect``, ``lambda``).  Bases appear
as compile-time attributes (the paper's BasisAttr et al.), reusing the
:mod:`repro.basis` data model.

Every builder accepts an optional ``loc`` — the :class:`SourceSpan` of
the Qwerty expression the op implements — defaulting to the builder's
current location (see :class:`repro.ir.module.Builder`), so lowering
code sets the location once per expression and every op it emits
inherits it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.basis import Basis
from repro.basis.primitive import PrimitiveBasis
from repro.errors import LoweringError, SourceSpan
from repro.ir.core import Block, Operation, Region, Value
from repro.ir.module import Builder
from repro.ir.types import (
    BitBundleType,
    FunctionType,
    I1,
    QBundleType,
    QubitType,
    Type,
)

QBPREP = "qwerty.qbprep"
QBUNPREP = "qwerty.qbunprep"
QBDISCARD = "qwerty.qbdiscard"
QBDISCARDZ = "qwerty.qbdiscardz"
QBTRANS = "qwerty.qbtrans"
QBMEAS = "qwerty.qbmeas"
QBPACK = "qwerty.qbpack"
QBUNPACK = "qwerty.qbunpack"
BITPACK = "qwerty.bitpack"
BITUNPACK = "qwerty.bitunpack"
FUNC_CONST = "qwerty.func_const"
FUNC_ADJ = "qwerty.func_adj"
FUNC_PRED = "qwerty.func_pred"
CALL = "qwerty.call"
CALL_INDIRECT = "qwerty.call_indirect"
LAMBDA = "qwerty.lambda"
EMBED = "qwerty.embed"
RETURN = "func.return"

_QUBIT = QubitType()

Loc = Optional[SourceSpan]


def qbprep(
    builder: Builder,
    prim: PrimitiveBasis,
    eigenbits: Sequence[int],
    loc: Loc = None,
) -> Value:
    """Prepare a qbundle in the given primitive basis and eigenstate,
    e.g. ``qbprep std<PLUS>[3]`` prepares |000>."""
    bits = tuple(eigenbits)
    return builder.create(
        QBPREP,
        [],
        [QBundleType(len(bits))],
        {"prim": prim, "eigenbits": bits},
        loc=loc,
    ).result


def qbunprep(
    builder: Builder,
    qb: Value,
    prim: PrimitiveBasis,
    eigenbits: Sequence[int],
    loc: Loc = None,
) -> Operation:
    """Consume a qbundle known to be in the given eigenstate (the adjoint
    of ``qbprep``, used when reversing blocks that allocate ancillas)."""
    return builder.create(
        QBUNPREP,
        [qb],
        [],
        {"prim": prim, "eigenbits": tuple(eigenbits)},
        loc=loc,
    )


def qbdiscard(builder: Builder, qb: Value, loc: Loc = None) -> Operation:
    """Reset each qubit in the bundle and return it to the ancilla pool."""
    return builder.create(QBDISCARD, [qb], [], loc=loc)


def qbdiscardz(builder: Builder, qb: Value, loc: Loc = None) -> Operation:
    """Like ``qbdiscard`` but assumes the qubits are |0> (no reset)."""
    return builder.create(QBDISCARDZ, [qb], [], loc=loc)


def qbtrans(
    builder: Builder,
    qb: Value,
    b_in: Basis,
    b_out: Basis,
    phase_operands: Sequence[Value] = (),
    phase_slots: Sequence[tuple[str, int]] = (),
    loc: Loc = None,
) -> Value:
    """Perform the basis translation ``b_in >> b_out`` on a qbundle.

    Vector phases are normally concrete (stored on the basis attrs),
    but may also arrive as dynamic f64 ``phase_operands``; each operand
    is paired with a ``("in"|"out", vector_index)`` slot identifying the
    vector (counting across all literal vectors of that side) whose
    phase it supplies.  This models the ``phases(...)`` operand list in
    paper Figs. 4–5.
    """
    if len(phase_operands) != len(phase_slots):
        raise LoweringError("each dynamic phase needs a slot")
    n = b_in.dim
    return builder.create(
        QBTRANS,
        [qb, *phase_operands],
        [QBundleType(n)],
        {"bin": b_in, "bout": b_out, "phase_slots": tuple(phase_slots)},
        loc=loc,
    ).result


def qbmeas(builder: Builder, qb: Value, basis: Basis, loc: Loc = None) -> Value:
    """Measure the qbundle in ``basis``, yielding a bitbundle."""
    n = basis.dim
    return builder.create(
        QBMEAS, [qb], [BitBundleType(n)], {"basis": basis}, loc=loc
    ).result


def qbpack(builder: Builder, qubits: Sequence[Value], loc: Loc = None) -> Value:
    return builder.create(
        QBPACK, list(qubits), [QBundleType(len(qubits))], loc=loc
    ).result


def qbunpack(builder: Builder, qb: Value, loc: Loc = None) -> list[Value]:
    n = qb.type.n
    op = builder.create(QBUNPACK, [qb], [_QUBIT] * n, loc=loc)
    return list(op.results)


def bitpack(builder: Builder, bits: Sequence[Value], loc: Loc = None) -> Value:
    return builder.create(
        BITPACK, list(bits), [BitBundleType(len(bits))], loc=loc
    ).result


def bitunpack(builder: Builder, bb: Value, loc: Loc = None) -> list[Value]:
    n = bb.type.n
    op = builder.create(BITUNPACK, [bb], [I1] * n, loc=loc)
    return list(op.results)


def func_const(
    builder: Builder, callee: str, type: FunctionType, loc: Loc = None
) -> Value:
    return builder.create(
        FUNC_CONST, [], [type], {"callee": callee}, loc=loc
    ).result


def func_adj(builder: Builder, fn: Value, loc: Loc = None) -> Value:
    type = fn.type
    adj_type = FunctionType(type.outputs, type.inputs, type.reversible)
    return builder.create(FUNC_ADJ, [fn], [adj_type], loc=loc).result


def func_pred(
    builder: Builder, fn: Value, basis: Basis, loc: Loc = None
) -> Value:
    pred_type = predicated_type(fn.type, basis.dim)
    return builder.create(
        FUNC_PRED, [fn], [pred_type], {"basis": basis}, loc=loc
    ).result


def predicated_type(type: FunctionType, m: int) -> FunctionType:
    """The type of ``b & f``: qubit[M+N] rev-> qubit[M+N] (paper §2.2)."""
    if len(type.inputs) != 1 or len(type.outputs) != 1:
        raise LoweringError("only qbundle->qbundle functions can be predicated")
    (inp,) = type.inputs
    (out,) = type.outputs
    if not isinstance(inp, QBundleType) or not isinstance(out, QBundleType):
        raise LoweringError("only qbundle->qbundle functions can be predicated")
    return FunctionType(
        (QBundleType(m + inp.n),), (QBundleType(m + out.n),), type.reversible
    )


def call(
    builder: Builder,
    callee: str,
    args: Sequence[Value],
    result_types: Sequence[Type],
    adj: bool = False,
    pred: Optional[Basis] = None,
    loc: Loc = None,
) -> Operation:
    """Direct call, optionally marked adjoint or predicated
    (``call adj @f()``, ``call pred (b) @f()``)."""
    return builder.create(
        CALL,
        list(args),
        list(result_types),
        {"callee": callee, "adj": adj, "pred": pred},
        loc=loc,
    )


def call_indirect(
    builder: Builder, fn: Value, args: Sequence[Value], loc: Loc = None
) -> Operation:
    result_types = list(fn.type.outputs)
    return builder.create(CALL_INDIRECT, [fn, *args], result_types, loc=loc)


def lambda_op(builder: Builder, type: FunctionType, loc: Loc = None) -> Operation:
    """A lambda: a function value with an inline single-block body.

    The body block's arguments match the function inputs and must end
    with ``func.return``.
    """
    region = Region([Block(list(type.inputs))])
    return builder.create(LAMBDA, [], [type], regions=[region], loc=loc)


def embed(
    builder: Builder, qb: Value, network, kind: str, loc: Loc = None
) -> Value:
    """Apply a synthesized classical embedding (paper §6.4).

    ``kind`` is ``"xor"`` (the Bennett embedding ``|x>|y> ->
    |x>|y + f(x)>`` over n_in + n_out qubits) or ``"sign"``
    (``|x> -> (-1)^{f(x)} |x>`` over n_in qubits).  The logic network
    rides along as an attribute; gate synthesis happens during lowering
    to the QCircuit dialect.  Both embeddings are self-adjoint.
    """
    n = qb.type.n
    return builder.create(
        EMBED, [qb], [QBundleType(n)], {"network": network, "kind": kind},
        loc=loc,
    ).result


def return_op(
    builder: Builder, values: Sequence[Value], loc: Loc = None
) -> Operation:
    return builder.create(RETURN, list(values), [], loc=loc)
