"""Gated conversion of token ids into dense numbers and operator slots.

The converter walks the ids once, left to right, holding the number
under construction and appending an output slot, up to a fixed
capacity, each time a number closes or an operator arrives. For each
token a gate decision says whether it is ignored, whether it moves on
to the next slot, whether it starts the decimal part of the number, how
a digit folds into the number, and which operator an operator character
carries. The machine only applies those decisions and keeps the slots.

Decisions depend on nothing but the token id and the decimal flag, so a
gate policy is a gates.GateTable read as table[token_id][decimal_flag].
The hand-written reference table is gates.rule_gates; a trained one
comes from gates.make_learned_policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING

from .tokenizer import OP_TO_CHAR, TERMINATOR_ID, Op

if TYPE_CHECKING:
    from .gates import GateTable

DEFAULT_CAPACITY = 64


class ConversionError(Exception):
    """Base class for conversion failures."""


class InvalidCapacity(ConversionError):
    pass


class MalformedNumber(ConversionError):
    """A decimal dot arrived with no number in progress, or twice in one number."""


class CapacityExceeded(ConversionError):
    """The stream needs more output slots than the capacity allows."""


class DenseOpMode(IntEnum):
    """How a digit folds into the number at the current slot.

    DIRECT_ADD seeds a fresh slot with the digit value. TIMES_TEN_ADD
    shifts the integer part left one decimal place before adding.
    BASE_MUL_ADD scales the digit by the running fractional base, used
    after the decimal dot. IGNORE leaves the accumulator alone.
    """

    IGNORE = 0
    DIRECT_ADD = 1
    TIMES_TEN_ADD = 2
    BASE_MUL_ADD = 3


@dataclass
class ConversionState:
    """Mutable machine state: the closed slots plus the number under construction.

    number is None between numbers. The slot lists grow together, one
    entry when a number closes or an operator claims a slot, and never
    past capacity.
    """

    capacity: int
    valid: list[int] = field(default_factory=list)
    dense: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    number: float | None = None
    decimal_started: int = 0
    mult_base: float = 1.0


@dataclass
class DenseProgram:
    """Frozen conversion output: parallel valid, dense, and op arrays."""

    valid: list[int]
    dense: list[float]
    ops: list[Op]

    @property
    def length(self) -> int:
        return len(self.valid)

    def to_json_dict(self) -> dict:
        return {
            "valid": list(self.valid),
            "dense": list(self.dense),
            "ops": [op_json_name(op) for op in self.ops],
        }


def op_json_name(op: Op) -> str:
    return "none" if op == Op.NONE else OP_TO_CHAR[op]


def init_state(capacity: int = DEFAULT_CAPACITY) -> ConversionState:
    if capacity < 1:
        raise InvalidCapacity(f"capacity must be at least 1, got {capacity}")
    return ConversionState(capacity)


def _close_number(state: ConversionState) -> None:
    if state.number is None:
        return
    state.valid.append(1)
    state.dense.append(state.number)
    state.ops.append(Op.NONE)
    state.number = None
    state.decimal_started = 0
    state.mult_base = 1.0


def step(state: ConversionState, token_id: int, table: GateTable) -> bool:
    """Feed one token id through the machine, mutating state in place.

    Returns False when the token is the terminator, which stops the
    stream and leaves the state untouched; True otherwise.
    """
    if token_id == TERMINATOR_ID:
        return False

    decision = table[token_id][state.decimal_started]

    if decision.ignore:
        return True

    if decision.decimal_start:
        if state.decimal_started:
            raise MalformedNumber("second decimal dot inside one number")
        if state.number is None:
            raise MalformedNumber("decimal dot with no number in progress")
        state.decimal_started = 1
        state.mult_base = 0.1
        return True

    if decision.move:
        # Spacing and operators close the number in progress, so runs of
        # spaces collapse; an operator then claims a slot of its own.
        _close_number(state)
        if decision.op == Op.NONE:
            return True
    elif state.number is not None:
        # A later digit folds in by the decision's mode.
        mode, d = decision.dense_mode, float(decision.digit)
        if mode == DenseOpMode.DIRECT_ADD:
            state.number += d
        elif mode == DenseOpMode.TIMES_TEN_ADD:
            state.number = state.number * 10.0 + d
        elif mode == DenseOpMode.BASE_MUL_ADD:
            state.number += d * state.mult_base
            state.mult_base /= 10.0
        return True

    # An operator, or the first digit of a number, claims the next slot.
    if len(state.valid) >= state.capacity:
        raise CapacityExceeded(
            f"stream needs slot {len(state.valid)} but capacity is {state.capacity}"
        )
    if decision.move:
        state.valid.append(1)
        state.dense.append(0.0)
        state.ops.append(decision.op)
    else:
        # The first digit always seeds the number, whatever its mode.
        state.number = float(decision.digit)
    return True


def convert(
    ids: bytes,
    table: GateTable,
    capacity: int = DEFAULT_CAPACITY,
) -> DenseProgram:
    """Run every id through the machine and freeze the slots it filled.

    A trailing number with no closing space is finalized here, so
    "3 5 +" and "3 5" both come out with every slot accounted for.
    """
    state = init_state(capacity)
    for token_id in ids:
        if not step(state, token_id, table):
            break
    _close_number(state)
    return DenseProgram(valid=state.valid, dense=state.dense, ops=state.ops)
