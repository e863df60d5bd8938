"""Reduction machine for dense postfix programs.

The paper's rule reduces a program by rescanning it: walk the slots left
to right, remember the last two live numbers, and at the first live
operator fold those two into one. Each fold stores the result in the
later operand's slot and retires the earlier operand and the operator. A
well-formed program ends with exactly one live number.

Every operator left of the first live one has already been folded away,
so one left-to-right pass makes the same folds: keep a stack of the live
numbers seen so far, and at each live operator pop the last two and push
the result. evaluate does only that, on values, and when anything goes
wrong it runs the traced fold, which raises the typed error. The traced
fold keeps each live number's slot beside its value and records each
fold as a ReductionStep, an immutable named tuple, in the order, and
with the slots, the rescanning rule would. evaluate_with_trace returns
the value at once and folds the steps from the program the first time
they are read, so a caller that never reads them never pays for them.
The rescanning loop itself is kept in the tests as the reference the
trace is checked against.

stack_oracle is a deliberately independent textbook evaluator kept for
cross-checking values; it shares nothing with the reduction path but the
operator arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, mul, sub, truediv
from typing import NamedTuple

from .conversion import DenseProgram, op_json_name
from .tokenizer import Op


class EvalError(Exception):
    """Base class for evaluation failures."""


class MalformedPostfix(EvalError):
    """The program is not a well-formed postfix expression."""


class DivisionByZero(EvalError):
    pass


class ReductionStep(NamedTuple):
    """One fold: slots index_a and index_b combined through the op at op_index."""

    index_a: int
    index_b: int
    op_index: int
    op: Op
    operands: tuple[float, float]
    result: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.index_a,
            "b": self.index_b,
            "op_slot": self.op_index,
            "op": op_json_name(self.op),
            "operands": list(self.operands),
            "result": self.result,
        }


@dataclass
class EvalTrace:
    steps: list[ReductionStep]
    final: float

    def __getattr__(self, name: str):
        # Only a trace from evaluate_with_trace lacks steps: it holds its
        # program instead, and folds it on the first read of steps.
        if name != "steps" or "_program" not in self.__dict__:
            raise AttributeError(name)
        self.steps = _fold(self.__dict__.pop("_program"))[0]
        return self.steps

    def to_json_dict(self) -> dict:
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "final": self.final,
        }


# Bound once, so the hot loops compare against a module global rather
# than looking a member up on the Op class per slot.
_NONE = Op.NONE
_APPLY = {Op.ADD: add, Op.SUB: sub, Op.MUL: mul, Op.DIV: truediv}


def apply_op(op: Op, a: float, b: float) -> float:
    try:
        return _APPLY[op](a, b)
    except KeyError:
        raise MalformedPostfix(f"cannot apply op {op!r}") from None
    except ZeroDivisionError:
        raise DivisionByZero(f"division of {a} by zero") from None


def _fold(program: DenseProgram) -> tuple[list[ReductionStep], float]:
    """Reduce to a single number, recording every fold along the way.

    One pass over the slots; the program is only read, never copied.
    """
    valid, dense, ops = program.valid, program.dense, program.ops
    if not len(valid) == len(dense) == len(ops):
        raise MalformedPostfix(
            f"ragged program: {len(valid)} valid, {len(dense)} dense and {len(ops)} op slots"
        )
    folds: list[ReductionStep] = []
    # (slot, value) of every live number left of the scan position; a
    # fold's result stays live in the later operand's slot.
    live: list[tuple[int, float]] = []
    for i in range(len(valid)):
        if not valid[i]:
            continue
        op = ops[i]
        if op == _NONE:
            live.append((i, dense[i]))
            continue
        if len(live) < 2:
            raise MalformedPostfix(
                f"operator at slot {i} has fewer than two numbers before it"
            )
        b, rhs = live.pop()
        a, lhs = live.pop()
        result = apply_op(op, lhs, rhs)
        live.append((b, result))
        folds.append(ReductionStep(a, b, i, op, (lhs, rhs), result))
    if len(live) != 1:
        raise MalformedPostfix(
            f"{len(live)} numbers remain after all reductions, expected 1"
        )
    return folds, live[0][1]


def evaluate(program: DenseProgram) -> float:
    """The number the traced fold ends on, from a stack of values alone."""
    valid, dense, ops = program.valid, program.dense, program.ops
    if len(valid) == len(dense) == len(ops):
        stack: list[float] = []
        push, pop = stack.append, stack.pop
        try:
            for x, op in compress(zip(dense, ops), valid):
                if op == _NONE:
                    push(x)
                else:
                    b = pop()
                    stack[-1] = _APPLY[op](stack[-1], b)
            if len(stack) == 1:
                return stack[0]
        except (IndexError, KeyError, ZeroDivisionError):
            pass
    # Ragged slot lists, an underflow, an unknown op, a zero divisor or a
    # count left other than one: the traced fold raises the typed error
    # and its message.
    return _fold(program)[1]


def evaluate_with_trace(program: DenseProgram) -> EvalTrace:
    """The value at once; the folds on the first read of steps.

    The steps are folded from the program itself, so it must not change
    before they are read.
    """
    trace = EvalTrace.__new__(EvalTrace)
    trace.final = evaluate(program)
    trace._program = program
    return trace


def stack_oracle(program: DenseProgram) -> float:
    """Independent stack evaluation of the same program, for cross-checks."""
    stack: list[float] = []
    for i in range(program.length):
        if not program.valid[i]:
            continue
        if program.ops[i] == Op.NONE:
            stack.append(program.dense[i])
        else:
            if len(stack) < 2:
                raise MalformedPostfix(
                    f"operator at slot {i} underflows the stack"
                )
            b = stack.pop()
            a = stack.pop()
            stack.append(apply_op(program.ops[i], a, b))
    if len(stack) != 1:
        raise MalformedPostfix(
            f"{len(stack)} values remain on the stack, expected 1"
        )
    return stack[0]
