"""IR verification: SSA dominance and linear qubit use.

The Qwerty type checker enforces linear types for qubits at the AST
level (paper §4); the verifier re-checks the same property in the IR,
where it reads: every value of quantum type is used exactly once.
"""

from __future__ import annotations

from repro.ir.core import Block, Operation, Value
from repro.ir.module import FuncOp, ModuleOp
from repro.errors import IRVerificationError

#: Op names that terminate a function body and return values.
RETURN_OPS = {"func.return", "scf.yield"}


def _is_linear(value: Value) -> bool:
    return value.type.is_quantum


def _verify_block(block: Block, visible: set[int]) -> None:
    defined = set(visible)
    for arg in block.args:
        defined.add(id(arg))
    for op in block.ops:
        for operand in op.operands:
            if id(operand) not in defined:
                raise IRVerificationError(
                    f"operand of {op.name} used before definition",
                    span=op.loc,
                )
        for result in op.results:
            defined.add(id(result))
        for region in op.regions:
            for inner in region.blocks:
                _verify_block(inner, defined)


def _branch_path(op: Operation) -> tuple[tuple[int, int], ...]:
    """The chain of (scf.if identity, region index) enclosing ``op``.

    Two uses whose paths diverge at a common ``scf.if`` are mutually
    exclusive at runtime, so together they count as one linear use.
    """
    path: list[tuple[int, int]] = []
    block = op.parent_block
    while block is not None and block.parent_region is not None:
        region = block.parent_region
        parent = region.parent_op
        if parent is None:
            break
        path.append((id(parent), parent.regions.index(region)))
        block = parent.parent_block
    return tuple(reversed(path))


def _uses_mutually_exclusive(op_a: Operation, op_b: Operation) -> bool:
    path_a = _branch_path(op_a)
    path_b = _branch_path(op_b)
    for (if_a, region_a), (if_b, region_b) in zip(path_a, path_b):
        if if_a == if_b and region_a != region_b:
            return True
    return False


def _verify_linearity(func: FuncOp) -> None:
    from repro.ir.core import walk

    def check(value: Value, desc: str, loc=None) -> None:
        if not _is_linear(value):
            return
        uses = value.uses
        if len(uses) == 1:
            return
        if len(uses) == 0:
            raise IRVerificationError(
                f"linear value {desc} in @{func.name} has 0 uses "
                f"(expected exactly 1)",
                span=loc,
            )
        ops = [op for op, _ in uses]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not _uses_mutually_exclusive(ops[i], ops[j]):
                    raise IRVerificationError(
                        f"linear value {desc} in @{func.name} has "
                        f"{len(uses)} non-exclusive uses (expected exactly 1)",
                        span=loc,
                    )

    for block in func.body.blocks:
        for arg in block.args:
            check(arg, f"block argument #{arg.index}")
    for op in walk(func.entry):
        for result in op.results:
            check(result, f"result of {op.name}", loc=op.loc)


def _verify_terminator(func: FuncOp) -> None:
    if func.is_declaration:
        return
    terminator = func.entry.terminator
    if terminator.name not in RETURN_OPS:
        raise IRVerificationError(
            f"@{func.name} ends with {terminator.name}, not a return",
            span=terminator.loc,
        )
    got = tuple(operand.type for operand in terminator.operands)
    if got != func.type.outputs:
        raise IRVerificationError(
            f"@{func.name} returns {got}, expected {func.type.outputs}",
            span=terminator.loc,
        )


def verify_func(func: FuncOp) -> None:
    if func.is_declaration:
        return
    _verify_block(func.entry, set())
    _verify_linearity(func)
    _verify_terminator(func)


def verify_module(module: ModuleOp) -> None:
    """Verify every function in the module; raise on the first violation."""
    for func in module:
        verify_func(func)
