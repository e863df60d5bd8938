"""Gated conversion of token ids into dense numbers and operator slots.

The converter walks the ids once, left to right, holding a position
pointer into a fixed-capacity array of output slots. For each token a
gate decision says how the token participates: whether it is ignored,
whether it moves the position, whether it starts the decimal part of the
current number, how a digit folds into the number under construction,
and which operator an operator character carries. The machine itself
only applies those decisions and keeps the slot bookkeeping honest.

Decisions depend on nothing but the token id and the decimal flag, so a
gate policy is a gates.GateTable read as table[token_id][decimal_flag].
The hand-written reference table is gates.rule_gates; a trained one
comes from gates.make_learned_policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING

from .tokenizer import Op, TERMINATOR_ID

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
    """The stream needs more output slots than the state holds."""


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
    """Mutable machine state: slot arrays plus the number-building flags."""

    capacity: int
    pos: int = 0
    valid: list[int] = field(default_factory=list)
    dense: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
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
    from .tokenizer import OP_TO_CHAR

    return "none" if op == Op.NONE else OP_TO_CHAR[op]


def init_state(capacity: int = DEFAULT_CAPACITY) -> ConversionState:
    if capacity < 1:
        raise InvalidCapacity(f"capacity must be at least 1, got {capacity}")
    return ConversionState(
        capacity=capacity,
        valid=[0] * capacity,
        dense=[0.0] * capacity,
        ops=[Op.NONE] * capacity,
    )


def _number_in_progress(state: ConversionState) -> bool:
    return (
        state.pos < state.capacity
        and state.valid[state.pos] == 1
        and state.ops[state.pos] == Op.NONE
    )


def _close_number(state: ConversionState) -> None:
    state.pos += 1
    state.decimal_started = 0
    state.mult_base = 1.0


def _require_slot(state: ConversionState) -> None:
    if state.pos >= state.capacity:
        raise CapacityExceeded(
            f"stream needs slot {state.pos} but capacity is {state.capacity}"
        )


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
        if not _number_in_progress(state):
            raise MalformedNumber("decimal dot with no number in progress")
        state.decimal_started = 1
        state.mult_base = 0.1
        return True

    if decision.move:
        if decision.op != Op.NONE:
            # Operator: close any number in progress, then claim a slot.
            if _number_in_progress(state):
                _close_number(state)
            _require_slot(state)
            state.ops[state.pos] = decision.op
            state.valid[state.pos] = 1
            state.pos += 1
            return True
        # Spacing: closes the number in progress, otherwise does nothing,
        # so runs of spaces collapse.
        if _number_in_progress(state):
            _close_number(state)
        return True

    # Digit path. The first digit of a slot always seeds it directly; the
    # decision's mode only matters once an accumulation is under way.
    _require_slot(state)
    first_digit = state.valid[state.pos] == 0
    state.valid[state.pos] = 1
    mode = DenseOpMode.DIRECT_ADD if first_digit else decision.dense_mode
    d = float(decision.digit)
    if mode == DenseOpMode.DIRECT_ADD:
        state.dense[state.pos] += d
    elif mode == DenseOpMode.TIMES_TEN_ADD:
        state.dense[state.pos] = state.dense[state.pos] * 10.0 + d
    elif mode == DenseOpMode.BASE_MUL_ADD:
        state.dense[state.pos] += d * state.mult_base
        state.mult_base /= 10.0
    return True


def convert(
    ids: bytes,
    table: GateTable,
    capacity: int = DEFAULT_CAPACITY,
) -> DenseProgram:
    """Run every id through the machine and freeze the populated slot prefix.

    A trailing number with no closing space is finalized here, so
    "3 5 +" and "3 5" both come out with every slot accounted for.
    """
    state = init_state(capacity)
    for token_id in ids:
        if not step(state, token_id, table):
            break
    if _number_in_progress(state):
        _close_number(state)
    return DenseProgram(
        valid=state.valid[: state.pos],
        dense=state.dense[: state.pos],
        ops=state.ops[: state.pos],
    )
