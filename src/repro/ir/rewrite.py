"""Greedy pattern rewriting, standing in for MLIR's canonicalizer.

A :class:`RewritePattern` matches ops by name and attempts a rewrite.
:func:`apply_patterns_greedily` iterates all patterns over all ops to a
fixpoint, the same discipline the MLIR canonicalizer uses (paper §5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.ir.core import Operation, walk
from repro.ir.module import FuncOp, ModuleOp


@dataclass
class RewritePattern:
    """A named rewrite: ``fn(op, module) -> bool`` returns True if it fired.

    ``op_names`` restricts which ops the pattern is tried on; an empty
    tuple means "try on every op".
    """

    name: str
    op_names: tuple[str, ...]
    fn: Callable[[Operation, ModuleOp], bool]


#: Ops that must never be erased even when their results are unused.
_SIDE_EFFECT_OPS = {
    "func.return",
    "scf.yield",
    "qwerty.qbdiscard",
    "qwerty.qbdiscardz",
    "qcirc.qfree",
    "qcirc.qfreez",
}


def _dce_func(func: FuncOp) -> bool:
    """Remove dead side-effect-free ops (MLIR canonicalize includes DCE)."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in _all_blocks(func):
            for op in reversed(list(block.ops)):
                if op.name in _SIDE_EFFECT_OPS:
                    continue
                if any(v.type.is_quantum for v in op.operands) or any(
                    r.type.is_quantum for r in op.results
                ):
                    # Erasing quantum ops would orphan linear values;
                    # dedicated patterns handle those cases.
                    continue
                if op.results and all(not r.uses for r in op.results):
                    op.erase()
                    progress = True
                    changed = True
    return changed


def _all_blocks(func: FuncOp):
    stack = list(func.body.blocks)
    while stack:
        block = stack.pop()
        yield block
        for op in block.ops:
            for region in op.regions:
                stack.extend(region.blocks)


def apply_patterns_greedily(
    module: ModuleOp,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 64,
    run_dce: bool = True,
) -> bool:
    """Apply patterns to a fixpoint; returns True if anything changed."""
    patterns = list(patterns)
    by_name: dict[str, list[RewritePattern]] = {}
    generic: list[RewritePattern] = []
    for pattern in patterns:
        if pattern.op_names:
            for op_name in pattern.op_names:
                by_name.setdefault(op_name, []).append(pattern)
        else:
            generic.append(pattern)

    changed_ever = False
    for _ in range(max_iterations):
        changed = False
        for func in list(module):
            for op in list(walk(func.entry)):
                if op.parent_block is None:
                    continue  # Already erased by an earlier pattern.
                candidates = by_name.get(op.name, []) + generic
                for pattern in candidates:
                    if op.parent_block is None:
                        break
                    if pattern.fn(op, module):
                        changed = True
            if run_dce and _dce_func(func):
                changed = True
        changed_ever |= changed
        if not changed:
            break
    return changed_ever
