"""Gated conversion of token ids into dense numbers and operator slots.

The converter walks the ids once, left to right, in one loop over local
variables: the open number, its decimal flag and place value, and three
slot lists that gain a slot, up to a fixed capacity, each time a number
closes or an operator arrives. The open number is an integer mantissa
over a power of ten, so every fold is exact and a literal closes as the
float its text names, rounded once. For each token a gate decision says
whether it is ignored, whether it moves on to the next slot, whether it
starts the decimal part of the number, how a digit folds into the
number, and which operator an operator character carries.

The machine reads at most four of a decision's six fields, in a fixed
order (ignore, decimal_start, move with op, digit by dense_mode), so
each decision compiles, once, when it is built, into one of eight
actions with one argument: skip, dot, close, close-op (its operator),
or a digit (its value) folded by times-ten, base-mul or direct add, or
not folded. The first digit of a number seeds it whatever its action,
and the terminator stops the machine by its id before the table is
read, so two tables whose actions agree on the other 34 cases convert
every input identically.

Decisions depend on nothing but the token id and the decimal flag, so a
gate policy is a GateTable read as table[token_id][decimal_flag], and
the flag each token was read under is a complete trace of a run.

Under rule_gates itself, convert first reads the space-split text a
piece at a time. The rule table closes a number at each space and at
each operator, which claims a slot of its own, and folds a literal's
digits into the exact float() of its text. So a piece that is one
operator, or one literal (a digit, then digits and at most one dot)
of finite value, is exactly the slot the machine would append. Any
other piece (glued, leading dot, junk), more pieces than the capacity
or a literal past float range hands the whole stream to the machine,
which alone raises. Every other table, a learned one at full agreement
included, runs the machine.

convert records no trace. convert_with_trace returns the flags beside
the program: once convert has succeeded, a second, short pass over the
same compiled actions replays the flag alone, which only a dot raises
and only a close lowers. The hand-written table, rule_gates, lives here
beside the machine that reads it; gates.make_learned_policy builds the
trained one, and serving never imports the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from math import inf
from typing import Callable

from .tokenizer import (
    CHAR_TO_OP,
    DOT_ID,
    ID_TO_CHAR,
    OP_ID_TO_OP,
    OP_TO_CHAR,
    OTHER_ID,
    OTHER_PLACEHOLDER,
    SPACE_ID,
    TERMINATOR_ID,
    VOCAB_SIZE,
    Op,
)

DEFAULT_CAPACITY = 64


class ConversionError(Exception):
    """Base class for conversion failures."""


class InvalidCapacity(ConversionError):
    pass


class MalformedNumber(ConversionError):
    """A decimal dot arrived with no number in progress, or twice in one number."""


class CapacityExceeded(ConversionError):
    """The stream needs more output slots than the capacity allows."""


class NumberTooLarge(ConversionError):
    """A number closed past the largest finite float."""


class UnknownId(ConversionError):
    """A token id past the alphabet, which no gate table has a row for."""


class DenseOpMode(IntEnum):
    """How a digit folds into the number at the current slot.

    DIRECT_ADD adds the digit value to the number. TIMES_TEN_ADD
    multiplies the number by ten before adding. BASE_MUL_ADD adds the
    digit at the running decimal place, which the decimal dot sets to
    tenths and each such fold moves one place right. IGNORE leaves the
    number alone.
    """

    IGNORE = 0
    DIRECT_ADD = 1
    TIMES_TEN_ADD = 2
    BASE_MUL_ADD = 3


# The machine's actions, numbered in the order the loop tests them, most
# frequent first: a digit action shares its DenseOpMode's value, and one
# compare tells a digit, another a close.
(
    DIGIT_NO_FOLD, DIGIT_DIRECT_ADD, DIGIT_TIMES_TEN, DIGIT_BASE_MUL, CLOSE, CLOSE_OP, SKIP, DOT
) = range(8)
ACTION_NAMES = (
    "digit-no-fold", "digit-direct-add", "digit-times-ten", "digit-base-mul",
    "close", "close-op", "skip", "dot",
)

# A decision's fields, in declaration order, which is gates.HEAD_SHAPES
# order. The compiled action is derived from them and is not one.
DECISION_FIELDS = ("ignore", "move", "decimal_start", "dense_mode", "digit", "op")


# A slots dataclass, not a NamedTuple: CPython specializes loads of slot
# attributes but not of NamedTuple fields, and the machine reads one
# field per token.
@dataclass(frozen=True, slots=True)
class GateDecision:
    """Everything the conversion machine needs to know about one token.

    action is the (action, argument) pair the machine runs, compiled from
    the other fields when the decision is built. It takes no part in
    equality, repr or iteration.
    """

    ignore: int
    move: int
    decimal_start: int
    dense_mode: DenseOpMode
    digit: int
    op: Op
    action: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ignore:
            action = SKIP, 0
        elif self.decimal_start:
            action = DOT, 0
        elif self.move:
            action = (CLOSE, 0) if self.op == Op.NONE else (CLOSE_OP, self.op)
        else:
            mode = self.dense_mode
            if mode not in (DIGIT_DIRECT_ADD, DIGIT_TIMES_TEN, DIGIT_BASE_MUL):
                mode = DIGIT_NO_FOLD
            action = int(mode), self.digit
        object.__setattr__(self, "action", action)

    def __iter__(self):
        """Field values in DECISION_FIELDS order."""
        return (getattr(self, name) for name in DECISION_FIELDS)


# A gate policy: VOCAB_SIZE rows of (decision at flag 0, decision at flag 1).
GateTable = tuple[tuple[GateDecision, GateDecision], ...]


class InvalidTable(ConversionError):
    """A gate policy that is not VOCAB_SIZE rows of two GateDecisions."""


def _tabulate(decide: Callable[[int, int], GateDecision]) -> GateTable:
    return tuple((decide(t, 0), decide(t, 1)) for t in range(VOCAB_SIZE))


def _rule_decision(token_id: int, decimal_started: int) -> GateDecision:
    """Reference decision for one (token id, decimal flag) case."""
    if token_id == OTHER_ID:
        return GateDecision(1, 0, 0, DenseOpMode.IGNORE, 0, Op.NONE)
    if token_id <= 9:
        mode = (
            DenseOpMode.BASE_MUL_ADD if decimal_started else DenseOpMode.TIMES_TEN_ADD
        )
        return GateDecision(0, 0, 0, mode, token_id, Op.NONE)
    if token_id == DOT_ID:
        return GateDecision(0, 0, 1, DenseOpMode.IGNORE, 0, Op.NONE)
    if token_id == SPACE_ID:
        return GateDecision(0, 1, 0, DenseOpMode.IGNORE, 0, Op.NONE)
    if token_id in OP_ID_TO_OP:
        return GateDecision(0, 1, 0, DenseOpMode.IGNORE, 0, OP_ID_TO_OP[token_id])
    # Terminator: every gate stays quiet, the machine stops on the token itself.
    return GateDecision(0, 0, 0, DenseOpMode.IGNORE, 0, Op.NONE)


rule_gates: GateTable = _tabulate(_rule_decision)


@dataclass
class DenseProgram:
    """Conversion output: parallel valid, dense, and op arrays."""

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


_NONE = Op.NONE

# Past this mantissa, digits after the decimal dot collapse into its last
# digit. A double, and each point halfway between two, has at most 767
# significant digits. So once the mantissa m has more than 768, none lies
# strictly between the multiples of ten (in units of m's last digit) on
# either side of m, and every value strictly between them rounds alike.
# The digits beyond m then matter only by whether one is nonzero, and
# such a digit makes an even last digit odd (0 becomes 1, 8 becomes 9),
# which keeps the number strictly between them. At scale 0 a mantissa
# this large is already past float range, so times-ten digits stop
# growing it. Either way a digit costs the same however long its literal
# is.
_MANTISSA_CAP = 10**800


def _past_float_range(slot: int) -> NumberTooLarge:
    return NumberTooLarge(f"number at slot {slot} is past float range")


def convert(ids: bytes, table: GateTable, capacity: int = DEFAULT_CAPACITY) -> DenseProgram:
    """Run every id through the machine and return the slots it filled. A
    trailing number with no closing space is closed at the end, so
    "3 5 +" and "3 5" both come out with every slot accounted for.

    The open number is number / 10**scale, held exactly, and closes as
    that quotient correctly rounded, so a literal comes out as float() of
    its text; one past float range raises NumberTooLarge.

    Under rule_gates itself the stream is read a piece at a time first,
    and the machine runs only where a piece is not whole.
    """
    if capacity < 1:
        raise InvalidCapacity(f"capacity must be at least 1, got {capacity}")
    # The terminator stops conversion whatever its decision says, and
    # nothing after it is read.
    stop = ids.find(TERMINATOR_ID)
    if stop >= 0:
        ids = ids[:stop]
    if table is rule_gates:
        program = _convert_pieces(ids, capacity)
        if program is not None:
            return program
    return _machine(ids, table, capacity)


# bytes.translate table from an id back to its character; OTHER and every
# id past the alphabet become "?", which no whole piece holds.
_CHARS = bytes(ord(ID_TO_CHAR.get(i, OTHER_PLACEHOLDER)) for i in range(256))
_PIECE_OPS = {char.encode(): op for char, op in CHAR_TO_OP.items()}


def _convert_pieces(ids: bytes, capacity: int) -> DenseProgram | None:
    """The program the machine makes of ids under rule_gates, one slot
    per space-split piece, or None for the machine to run: where a piece
    is neither one operator nor a literal (a digit, then digits and at
    most one dot), where the pieces outnumber capacity, and where a
    literal is past float range.
    """
    pieces = ids.translate(_CHARS).split()
    if len(pieces) > capacity:
        return None
    dense: list[float] = []
    ops: list[Op] = []
    for piece in pieces:
        op = _PIECE_OPS.get(piece)
        if op is not None:
            dense.append(0.0)
            ops.append(op)
        elif b"0" <= piece < b":" and (
            piece.isdigit() or piece.replace(b".", b"", 1).isdigit()
        ) and (x := float(piece)) != inf:
            dense.append(x)
            ops.append(_NONE)
        else:
            return None
    return DenseProgram([1] * len(dense), dense, ops)


def _machine(ids: bytes, table: GateTable, capacity: int) -> DenseProgram:
    """convert's per-character machine, under any table, over the ids
    before the terminator."""
    valid: list[int] = []
    dense: list[float] = []
    ops: list[Op] = []
    number: int | None = None  # the open number's mantissa; None between numbers
    scale = 0  # decimal digits of the mantissa after the point
    flag = 0  # 1 once the open number has read its decimal dot
    place = 0  # decimal place of the next BASE_MUL_ADD digit
    # The table read is the loop's only source of IndexError. The try
    # spans the whole loop because one around the read alone costs a
    # jump per token.
    try:
        for token_id in ids:
            action, arg = table[token_id][flag].action
            if action <= DIGIT_BASE_MUL:
                if number is not None:
                    # A later digit folds in by its action, in integer
                    # arithmetic on the mantissa.
                    if action == DIGIT_TIMES_TEN:
                        if scale:
                            scale -= 1
                            number += arg * 10**scale
                        elif number < _MANTISSA_CAP:
                            number = number * 10 + arg
                    elif action == DIGIT_BASE_MUL:
                        if place <= scale:
                            number += arg * 10 ** (scale - place)
                        elif number < _MANTISSA_CAP or not flag:
                            number = number * 10 ** (place - scale) + arg
                            scale = place
                        elif arg and not number & 1:
                            number += 1
                        place += 1
                    elif action == DIGIT_DIRECT_ADD:
                        number += arg * 10**scale
                    continue
            elif action <= CLOSE_OP:
                # Spacing and operators close the open number, so runs of
                # spaces collapse; an operator then claims a slot of its own.
                if number is not None:
                    try:
                        dense.append(number / 10**scale if scale else float(number))
                    except OverflowError:
                        raise _past_float_range(len(dense)) from None
                    valid.append(1)
                    ops.append(_NONE)
                    number = None
                    scale = flag = place = 0
                if action == CLOSE:
                    continue
            elif action == SKIP:
                continue
            else:
                # A dot starts the open number's fraction.
                if flag:
                    raise MalformedNumber("second decimal dot inside one number")
                if number is None:
                    raise MalformedNumber("decimal dot with no number in progress")
                flag = 1
                place = 1
                continue
            # An operator, or the first digit of a number, claims the next slot.
            if len(valid) >= capacity:
                raise CapacityExceeded(
                    f"stream needs slot {len(valid)} but capacity is {capacity}"
                )
            if action == CLOSE_OP:
                valid.append(1)
                dense.append(0.0)
                ops.append(arg)
            else:
                # The first digit always seeds the number, whatever its action.
                number = arg
    except IndexError:
        if token_id < VOCAB_SIZE:
            raise
        raise UnknownId(
            f"id {token_id} at position {ids.index(token_id)} is past the {VOCAB_SIZE}-id alphabet"
        ) from None
    if number is not None:
        try:
            dense.append(number / 10**scale if scale else float(number))
        except OverflowError:
            raise _past_float_range(len(dense)) from None
        valid.append(1)
        ops.append(_NONE)
    return DenseProgram(valid, dense, ops)


def convert_with_trace(
    ids: bytes,
    table: GateTable,
    capacity: int = DEFAULT_CAPACITY,
) -> tuple[DenseProgram, bytes]:
    """The program convert fills, and for each token read the decimal
    flag it was read under. The terminator is read, under the flag of the
    number it closes, and nothing after it is.
    """
    program = convert(ids, table, capacity)
    flags = bytearray()
    flag = 0
    for token_id in ids[: ids.find(TERMINATOR_ID) + 1 or len(ids)]:
        flags.append(flag)
        action = table[token_id][flag].action[0]
        if action == DOT:
            flag = 1
        elif CLOSE <= action <= CLOSE_OP:
            flag = 0
    return program, bytes(flags)
