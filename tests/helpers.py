"""Shared generators and reference implementations for the tests.

Random programs and expression trees are built with their expected
values computed during construction, using plain Python arithmetic that
shares nothing with the machinery under test. The reference conversion
is the per-token step machine over a ConversionState, which convert's
fused loop and convert_with_trace's case pass must reproduce program,
case ids and errors alike, and label_events its replay over step. The
reference reduction is the paper's rescanning rule, which the
evaluator's value pass and its traced fold must reproduce, value, fold
for fold and error for error. The reference question parser is recursive
descent into a Number/BinOp tree, each Number keeping its literal's
text, walked to postfix text and to a value; the one-pass parser must
give the same postfix, values and errors. The same walk in Fraction
arithmetic over each literal's text gives a question's exact value, and
its half-even render to 12 significant digits is the answer run() must
print.
encode and render are held equal to their character-by-character
lookup and their snap-only body. The reference trainer is the
event-major loop, one gradient step over all six heads per event, which
the head-major train_gates must match bit for bit. It decodes each case
id to its token, flag and rule_gates target and weighs it by the
per-token rule itself, rather than through the trainer's tables, and
decides each head's stop from the rows of the full agreement table. Its step
can be swapped for the one-hot matrix product or for the numpy
trainer. The numpy gate trainer and gate-file loader that the scalar
ones replaced are kept here as references too, over (n_out, n_in)
weight matrices.
"""

from __future__ import annotations

import decimal
import json
import math
import random
import re
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub, truediv
from pathlib import Path
from typing import Union

import numpy as np

from gatecalc.conversion import (
    CASES,
    DECISION_FIELDS,
    DEFAULT_CAPACITY,
    CapacityExceeded,
    DenseOpMode,
    DenseProgram,
    InvalidCapacity,
    MalformedNumber,
    NumberTooLarge,
)
from gatecalc.evaluator import EvalTrace, MalformedPostfix, ReductionStep, apply_op
from gatecalc.gates import (
    FORMAT_VERSION,
    HEAD_SHAPES,
    GateDecision,
    GateError,
    GateParams,
    GateTable,
    EmptyCorpus,
    EventLoss,
    LossTrace,
    TrainConfig,
    _logits,
    agreement_table,
    rule_gates,
)
from gatecalc.infix import MAX_NESTING, ParseError
from gatecalc.render import INTEGER_SNAP, MAX_SIG_DIGITS, NonFinite, render
from gatecalc.tokenizer import (
    CHAR_TO_ID,
    CHAR_TO_OP,
    DOT_ID,
    OP_ID_TO_OP,
    OP_TO_CHAR,
    OTHER_ID,
    TERMINATOR_ID,
    VOCAB_SIZE,
    Op,
    encode,
)

ALL_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV)


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return a == b or abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _combine(op: Op, a: float, b: float) -> float:
    if op == Op.ADD:
        return a + b
    if op == Op.SUB:
        return a - b
    if op == Op.MUL:
        return a * b
    return a / b


def random_program(
    rng: random.Random,
    max_operands: int = 9,
    lo: float = -1000.0,
    hi: float = 1000.0,
) -> tuple[DenseProgram, float]:
    """A well-formed random program and its value.

    Slots come out in postfix order of a random binary tree. Division by
    anything near zero is rewritten to a different operator, so every
    program evaluates cleanly.
    """
    n = rng.randint(1, max_operands)

    def build(k: int) -> tuple[list, float]:
        if k == 1:
            v = rng.uniform(lo, hi)
            return [("num", v)], v
        split = rng.randint(1, k - 1)
        left, lv = build(split)
        right, rv = build(k - split)
        op = rng.choice(ALL_OPS)
        if op == Op.DIV and abs(rv) < 1e-6:
            op = rng.choice((Op.ADD, Op.SUB, Op.MUL))
        return left + right + [("op", op)], _combine(op, lv, rv)

    slots, value = build(n)
    return _program_from_slots(slots), value


def _program_from_slots(slots: list) -> DenseProgram:
    return DenseProgram(
        valid=[1] * len(slots),
        dense=[s[1] if s[0] == "num" else 0.0 for s in slots],
        ops=[s[1] if s[0] == "op" else Op.NONE for s in slots],
    )


def _is_well_formed(slots: list) -> bool:
    depth = 0
    for kind, _ in slots:
        if kind == "num":
            depth += 1
        else:
            if depth < 2:
                return False
            depth -= 1
    return depth == 1


def random_malformed(rng: random.Random, max_slots: int = 6) -> DenseProgram:
    """Random slot soup rejected by the stack discipline check."""
    while True:
        n = rng.randint(0, max_slots)
        slots = []
        for _ in range(n):
            if rng.random() < 0.5:
                slots.append(("num", rng.uniform(-10.0, 10.0)))
            else:
                slots.append(("op", rng.choice(ALL_OPS)))
        if not (n > 0 and _is_well_formed(slots)):
            return _program_from_slots(slots)


def _copy_program(program: DenseProgram) -> DenseProgram:
    return DenseProgram(list(program.valid), list(program.dense), list(program.ops))


def _find_reduction(program: DenseProgram) -> tuple[int, int, int]:
    """Indices (a, b, k): the two cached numbers and the first live operator."""
    a = None
    b = None
    for i in range(program.length):
        if not program.valid[i]:
            continue
        if program.ops[i] == Op.NONE:
            a, b = b, i
        else:
            if a is None or b is None:
                raise MalformedPostfix(
                    f"operator at slot {i} has fewer than two numbers before it"
                )
            return a, b, i
    raise MalformedPostfix("no live operator to reduce")


def _reduce_in_place(program: DenseProgram) -> ReductionStep:
    a, b, k = _find_reduction(program)
    op = program.ops[k]
    lhs = program.dense[a]
    rhs = program.dense[b]
    result = apply_op(op, lhs, rhs)
    program.dense[b] = result
    program.valid[a] = 0
    program.valid[k] = 0
    program.ops[k] = Op.NONE
    return ReductionStep(a, b, k, op, (lhs, rhs), result)


def reference_reduce_once(program: DenseProgram) -> DenseProgram:
    """The paper's rule, one fold on a copy: rescan from slot 0, cache the
    last two live numbers, fold them at the first live operator."""
    out = _copy_program(program)
    _reduce_in_place(out)
    return out


def _has_live_op(program: DenseProgram) -> bool:
    return any(
        program.valid[i] and program.ops[i] != Op.NONE
        for i in range(program.length)
    )


def reference_evaluate_with_trace(program: DenseProgram) -> EvalTrace:
    """The rescanning rule folded to the end, quadratic in the program
    length; evaluate_with_trace must give the same trace and errors."""
    work = _copy_program(program)
    steps: list[ReductionStep] = []
    while _has_live_op(work):
        steps.append(_reduce_in_place(work))
    survivors = [i for i in range(work.length) if work.valid[i]]
    if len(survivors) != 1:
        raise MalformedPostfix(
            f"{len(survivors)} numbers remain after all reductions, expected 1"
        )
    return EvalTrace(steps=steps, final=work.dense[survivors[0]])


# ---------------------------------------------------------------------------
# Conversion reference: the per-token step machine convert_with_trace fused


@dataclass
class ConversionState:
    """Mutable machine state: the closed slots plus the number under construction.

    number is None between numbers, and exact in between: every fold is
    integer arithmetic on the mantissa, with no cap on its length, and
    the number closes as number / 10**scale rounded once. The slot lists
    grow together, one entry when a number closes or an operator claims
    a slot, and never past capacity.
    """

    capacity: int
    valid: list[int] = field(default_factory=list)
    dense: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    number: int | None = None  # mantissa: the number is number / 10**scale
    scale: int = 0
    decimal_started: int = 0
    place: int = 0  # decimal place of the next BASE_MUL_ADD digit


def init_state(capacity: int = DEFAULT_CAPACITY) -> ConversionState:
    if capacity < 1:
        raise InvalidCapacity(f"capacity must be at least 1, got {capacity}")
    return ConversionState(capacity)


def _close_number(state: ConversionState) -> None:
    if state.number is None:
        return
    try:
        value = state.number / 10**state.scale
    except OverflowError:
        raise NumberTooLarge(f"number at slot {len(state.valid)} is past float range") from None
    state.valid.append(1)
    state.dense.append(value)
    state.ops.append(Op.NONE)
    state.number = None
    state.scale = 0
    state.decimal_started = 0
    state.place = 0


def step(state: ConversionState, token_id: int, table: GateTable) -> bool:
    """Feed one token id through the machine, mutating state in place.

    Returns False when the token is the terminator, which stops the
    stream and leaves the state untouched; True otherwise.
    """
    if token_id == TERMINATOR_ID:
        return False

    decision = table[2 * token_id + state.decimal_started]

    if decision.ignore:
        return True

    if decision.decimal_start:
        if state.decimal_started:
            raise MalformedNumber("second decimal dot inside one number")
        if state.number is None:
            raise MalformedNumber("decimal dot with no number in progress")
        state.decimal_started = 1
        state.place = 1
        return True

    if decision.move:
        # Spacing and operators close the number in progress, so runs of
        # spaces collapse; an operator then claims a slot of its own.
        _close_number(state)
        if decision.op == Op.NONE:
            return True
    elif state.number is not None:
        # A later digit folds in by the decision's mode: to the units, after
        # times ten, or at the running decimal place. Scale is the longer
        # of the mantissa's fraction and the digit's place.
        mode, d = decision.dense_mode, decision.digit
        if mode == DenseOpMode.DIRECT_ADD:
            state.number += d * 10**state.scale
        elif mode == DenseOpMode.TIMES_TEN_ADD:
            state.number = state.number * 10 + d * 10**state.scale
        elif mode == DenseOpMode.BASE_MUL_ADD:
            if state.place > state.scale:
                state.number *= 10 ** (state.place - state.scale)
                state.scale = state.place
            state.number += d * 10 ** (state.scale - state.place)
            state.place += 1
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
        state.number = decision.digit
    return True


def random_gate_table(rng: random.Random) -> GateTable:
    """A table of uniformly drawn decisions, reaching the cases the rule
    table never makes, drawn token by token, flag 0 before flag 1.
    tests/test_digests.py pins outputs under tables drawn by this, so
    changing its draws moves those digests."""

    def decision() -> GateDecision:
        return GateDecision(
            rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
            DenseOpMode(rng.randint(0, 3)), rng.randint(0, 9), Op(rng.randint(0, 4)),
        )

    return tuple(decision() for _ in range(2 * VOCAB_SIZE))


def reference_convert_with_trace(
    ids: bytes, table: GateTable, capacity: int = DEFAULT_CAPACITY
) -> tuple[DenseProgram, bytes]:
    """step over every id, recording the case id each token is read in:
    2 * token_id + the flag the state holds when it arrives."""
    state = init_state(capacity)
    cases = []
    for token_id in ids:
        cases.append(2 * token_id + state.decimal_started)
        if not step(state, token_id, table):
            break
    _close_number(state)
    return DenseProgram(state.valid, state.dense, state.ops), bytes(cases)


def reference_label_events(text: str) -> bytes:
    """The replay label_events was before it returned convert_with_trace's
    case ids: each token's case id, 2 * token_id + the flag it was read under."""
    ids = encode(text)
    state = init_state(len(ids) + 1)
    events = []
    for token_id in ids:
        events.append(2 * token_id + state.decimal_started)
        if not step(state, token_id, rule_gates):
            break
    return bytes(events)


@dataclass(frozen=True)
class Number:
    """A literal as the question wrote it."""

    text: str

    @property
    def value(self) -> float:
        return float(self.text)


@dataclass(frozen=True)
class BinOp:
    op: Op
    left: "InfixAst"
    right: "InfixAst"


InfixAst = Union[Number, BinOp]

_ANSWER_SUFFIX = re.compile(r"\s*=\s*\?\s*$")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?")


class _Parser:
    """Recursive descent over a question with the answer suffix removed."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self) -> str:
        self.skip_spaces()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def parse_expr(self) -> InfixAst:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = CHAR_TO_OP[self.text[self.pos]]
            self.pos += 1
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> InfixAst:
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = CHAR_TO_OP[self.text[self.pos]]
            self.pos += 1
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> InfixAst:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            node = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return node
        match = _NUMBER.match(self.text, self.pos)
        if not match:
            raise self.error("expected a number or '('")
        if math.isinf(float(match.group())):
            raise self.error("number too large")
        self.pos = match.end()
        return Number(match.group())

    def expect_end(self) -> None:
        if self.peek() != "":
            raise self.error(f"unexpected {self.text[self.pos]!r}")


def reference_parse_infix(text: str) -> InfixAst:
    """Parse a question like "3 + 5 * 2 = ?" into an expression tree."""
    source = _ANSWER_SUFFIX.sub("", text)
    parser = _Parser(source)
    ast = parser.parse_expr()
    parser.expect_end()
    return ast


def reference_to_postfix(ast: InfixAst) -> str:
    """Space-separated postfix text, every literal as written.

    The walk keeps its own stack, so a long operator chain cannot exhaust
    Python's recursion limit.
    """
    parts: list[str] = []
    # Nodes still to visit, and operator characters due once their
    # operands are out; popping left before right gives postfix order.
    todo: list[InfixAst | str] = [ast]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp):
            todo += (OP_TO_CHAR[node.op], node.right, node.left)
        elif isinstance(node, Number):
            parts.append(node.text)
        else:
            parts.append(node)
    return " ".join(parts)


def reference_eval_infix(ast: InfixAst) -> float:
    """Reference tree evaluation; raises DivisionByZero like the machine.

    Like reference_to_postfix, the walk keeps its own stack, so a long operator
    chain cannot exhaust Python's recursion limit.
    """
    return _fold_infix(ast, lambda node: node.value, apply_op)


_EXACT_OPS = {Op.ADD: add, Op.SUB: sub, Op.MUL: mul, Op.DIV: truediv}


def exact_eval_infix(ast: InfixAst) -> Fraction:
    """A question's exact value: each literal is the Fraction of its text
    and every operation is exact. A zero divisor raises ZeroDivisionError."""
    return _fold_infix(ast, lambda node: Fraction(node.text), lambda op, a, b: _EXACT_OPS[op](a, b))


def round_sig(value: Fraction) -> decimal.Decimal:
    """value rounded half-even to 12 significant digits, trailing zeros dropped."""
    with decimal.localcontext(decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)):
        return (decimal.Decimal(value.numerator) / value.denominator).normalize()


def exact_render(value: Fraction) -> str:
    """The answer an exact value should print: an integer whole, as render
    prints an integer-valued float, and anything else rounded half-even to
    12 significant digits, positional, with no trailing zeros."""
    if value.denominator == 1:
        return str(value.numerator)
    return format(round_sig(value), "f")


def _fold_infix(ast: InfixAst, literal, apply):
    """Post-order fold of a tree: literal(node) for each Number, then
    apply(op, left, right) for each BinOp, on a stack of its own."""
    values = []
    # Nodes still to visit, and operators due once both operand values
    # are on the value stack.
    todo: list[InfixAst | Op] = [ast]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp):
            todo += (node.op, node.right, node.left)
        elif isinstance(node, Number):
            values.append(literal(node))
        else:
            rhs = values.pop()
            values.append(apply(node, values.pop(), rhs))
    return values[0]


def reference_encode(text: str) -> bytes:
    """One id per character, looked up character by character."""
    return bytes([CHAR_TO_ID.get(ch, OTHER_ID) for ch in text])


def reference_render(x: float) -> str:
    """render with no integer shortcut: every value goes through the snap."""
    x = float(x)
    if not math.isfinite(x):
        raise NonFinite(f"cannot render {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= INTEGER_SNAP:
        return str(int(nearest))
    text = f"{x:.{MAX_SIG_DIGITS}g}"
    if "e" in text or "E" in text:
        text = format(decimal.Decimal(text), "f")
    return text


def random_value(rng: random.Random, limit: int = 1000, decimals: int = 2) -> float:
    return rng.randrange(0, limit * 10**decimals + 1) / 10**decimals


def random_ast(rng: random.Random, depth: int):
    """Random expression tree with non-negative two-decimal leaves and no
    division by values near zero."""
    if depth == 0 or rng.random() < 0.35:
        return Number(render(random_value(rng)))
    op = rng.choice(ALL_OPS)
    left = random_ast(rng, depth - 1)
    right = random_ast(rng, depth - 1)
    if op == Op.DIV:
        while abs(_ast_value(right)) < 1e-6:
            right = random_ast(rng, depth - 1)
    return BinOp(op, left, right)


def _ast_value(node) -> float:
    if isinstance(node, Number):
        return node.value
    return _combine(node.op, _ast_value(node.left), _ast_value(node.right))


def ast_value(node) -> float:
    """Tree value by direct recursion, independent of the package evaluator."""
    return _ast_value(node)


_PRECEDENCE = {Op.ADD: 1, Op.SUB: 1, Op.MUL: 2, Op.DIV: 2}


def to_infix(ast) -> str:
    """Expression text with the fewest parentheses that preserve the tree."""
    if isinstance(ast, Number):
        return ast.text
    prec = _PRECEDENCE[ast.op]
    left = to_infix(ast.left)
    if isinstance(ast.left, BinOp) and _PRECEDENCE[ast.left.op] < prec:
        left = f"({left})"
    right = to_infix(ast.right)
    if isinstance(ast.right, BinOp) and _PRECEDENCE[ast.right.op] <= prec:
        right = f"({right})"
    return f"{left} {OP_TO_CHAR[ast.op]} {right}"


def onehot(token_id: int, n_in: int = VOCAB_SIZE) -> list[float]:
    """The one-hot input vector of a token id, padded to ``n_in``."""
    x = [0.0] * n_in
    x[token_id] = 1.0
    return x


def onehot_logits(w: list[list[float]], b: list[float], x: list[float]) -> list[float]:
    """w @ x + b over the input columns of w, each dot product summed in
    input order."""
    z = []
    for j, bias in enumerate(b):
        acc = 0.0
        for column, xi in zip(w, x):
            acc += column[j] * xi
        z.append(acc + bias)
    return z


def param_bits(params: GateParams) -> list[bytes]:
    """Every head's bias and weight columns as raw float64 bytes, so that
    comparisons see signed zeros and NaNs bit for bit."""
    return [array("d", chain(b, *w)).tobytes() for w, b in params.heads.values()]


# ---------------------------------------------------------------------------
# The event-major trainer: one gradient step over all six heads per event,
# in stream order. train_gates runs the same arithmetic head-major over
# each chunk's block of steps and must match it bit for bit.


# Every exp below takes an argument of at most zero (or NaN), so none can
# overflow and raise; a diverged logit gives an infinite or NaN loss.


def binary_loss_grad(z: list[float], target: int) -> tuple[float, list[float]]:
    """Summed BCE over one sigmoid unit per class, stable for any logit.

    Per unit, softplus(x) = log(1 + e**x) and sigmoid(x) share one exp,
    taken of -|x|.
    """
    loss = 0.0
    grad = []
    for j, x in enumerate(z):
        y = 1.0 if j == target else 0.0
        if x > 0:
            e = math.exp(-x)
            loss += x + math.log1p(e) - y * x
            grad.append(1.0 / (1.0 + e) - y)
        else:
            e = math.exp(x)
            loss += math.log1p(e) - y * x
            grad.append(e / (1.0 + e) - y)
    return loss, grad


def softmax_loss_grad(z: list[float], target: int) -> tuple[float, list[float]]:
    zmax = max(z)
    lse = zmax + math.log(sum([math.exp(x - zmax) for x in z]))
    p = [math.exp(x - lse) for x in z]
    p[target] -= 1.0
    return lse - z[target], p


def decode_case(case_id: int) -> tuple[int, int, GateDecision]:
    """A case id's token id, decimal flag and rule_gates target."""
    token_id, flag = divmod(case_id, 2)
    return token_id, flag, rule_gates[case_id]


def event_weight(token_id: int, config: TrainConfig) -> float:
    """The loss weight of a token: dots and operators carry their own."""
    if token_id == DOT_ID:
        return config.dot_weight
    if token_id in OP_ID_TO_OP:
        return config.op_weight
    return 1.0


def train_step(
    params: GateParams, event: int, config: TrainConfig, frozen: dict[str, int]
) -> tuple[float, float]:
    """One gradient step over all heads for one case id. A head named in
    frozen only computes its loss. Returns (raw, weighted) loss."""
    token_id, flag, targets = decode_case(event)
    weight = event_weight(token_id, config)
    scale = config.lr * weight
    raw = 0.0
    for (name, n_out, n_in), target in zip(HEAD_SHAPES, targets):
        z = _logits(params, name, token_id, flag)
        if n_out == 2:
            loss, dz = binary_loss_grad(z, target)
        else:
            loss, dz = softmax_loss_grad(z, target)
        raw += loss
        if name not in frozen:
            # The outer product of dz with a one-hot input is dz in the
            # token's column (and the flag column when the flag is on) and
            # zero everywhere else, so only those columns move.
            w, b = params.heads[name]
            delta = [scale * g for g in dz]
            if flag and n_in > VOCAB_SIZE:
                moved = (w[token_id], w[VOCAB_SIZE], b)
            else:
                moved = (w[token_id], b)
            for v in moved:
                v[:] = map(sub, v, delta)
    return raw, weight * raw


def reference_train_gates(
    events,
    config: TrainConfig | None = None,
    init: GateParams | None = None,
    step=train_step,
    agreement=agreement_table,
) -> tuple[GateParams, LossTrace]:
    """train_gates as one gradient step per event in stream order: each
    chunk of epoch_size case ids runs repeats times, stopping at steps_max
    or with a GateError at the first non-finite weighted loss. After each
    chunk, or the part of one the budget left, it reads the stream's
    cases' rows of the full agreement table. A head whose field matches
    on all of them is frozen from that step on: it still computes its
    loss at every step but no longer moves. At a nonzero lr the run stops
    once every row agrees; at lr 0 every head is frozen from step 0.
    step(params, case_id, config, frozen) -> (raw, weighted) decodes the
    case, takes the step and may be swapped for another formulation of
    it; agreement(params) builds the table from the params that step
    keeps."""
    events = list(events)
    if not events:
        raise EmptyCorpus("no training events")
    config = config or TrainConfig()
    if config.epoch_size < 1:
        raise GateError(f"epoch_size must be positive, got {config.epoch_size}")
    if config.repeats < 1:
        raise GateError(f"repeats must be positive, got {config.repeats}")

    params = init.clone() if init is not None else GateParams.zeros()
    trace = LossTrace()
    cases = set(events)
    step_idx = 0
    budget_spent = False
    # The frozen heads, each with the step it froze at, as the trace reports.
    frozen = trace.stopped
    if not config.lr:
        frozen.update((name, 0) for name, _, _ in HEAD_SHAPES)

    for start in range(0, len(events), config.epoch_size):
        chunk = events[start : start + config.epoch_size]
        for _ in range(config.repeats):
            pass_losses: list[float] = []
            for event in chunk:
                raw, weighted = step(params, event, config, frozen)
                if not math.isfinite(weighted):
                    raise GateError(
                        f"training diverged at step {step_idx}: weighted loss is {weighted}"
                    )
                token_id = event >> 1
                trace.events.append(
                    EventLoss(step_idx, token_id, event_weight(token_id, config), raw, weighted)
                )
                pass_losses.append(weighted)
                step_idx += 1
                budget_spent = step_idx == config.steps_max
                if budget_spent:
                    break
            trace.epoch_mean.append(sum(pass_losses) / len(pass_losses))
            if budget_spent:
                break
        # Rows are in case id order: token-major, flag 0 before flag 1.
        rows = agreement(params)
        for (name, _, _), decision_field in zip(HEAD_SHAPES, DECISION_FIELDS):
            if name not in frozen and all(rows[case].matches[decision_field] for case in cases):
                frozen[name] = step_idx
        agreeing = sum(rows[case].ok for case in cases)
        trace.agreement.append(agreeing)
        if budget_spent or (config.lr and agreeing == len(cases)):
            break
    return params, trace


def onehot_train_step(params, event, config, frozen) -> tuple[float, float]:
    """The trainer's gradient step written as a full matrix product over
    the one-hot input, with the decimal flag appended for the dense-mode
    head, and as the full outer-product update. A drop-in for train_step,
    to check the column-indexed step."""
    token_id, flag, targets = decode_case(event)
    weight = event_weight(token_id, config)
    scale = config.lr * weight
    raw = 0.0
    for (name, n_out, n_in), target in zip(HEAD_SHAPES, targets):
        w, b = params.heads[name]
        x = onehot(token_id, n_in)
        if n_in > VOCAB_SIZE:
            x[-1] = float(flag)
        z = onehot_logits(w, b, x)
        grad = binary_loss_grad if n_out == 2 else softmax_loss_grad
        loss, dz = grad(z, target)
        raw += loss
        if name not in frozen:
            for i in range(n_in):
                for j in range(n_out):
                    w[i][j] -= scale * (dz[j] * x[i])
            for j in range(n_out):
                b[j] -= scale * dz[j]
    return raw, weight * raw


# ---------------------------------------------------------------------------
# The numpy gate trainer and loader, as they were before the scalar ones.
# Weights are (n_out, n_in) matrices; numpy_params and column_params
# convert exactly between that layout and GateParams' input columns.


def numpy_params(params: GateParams) -> GateParams:
    return GateParams({
        name: (np.array(w, dtype=float).T.copy(), np.array(b, dtype=float))
        for name, (w, b) in params.heads.items()
    })


def column_params(params: GateParams) -> GateParams:
    return GateParams({
        name: (w.T.tolist(), b.tolist()) for name, (w, b) in params.heads.items()
    })


def numpy_logits(params: GateParams, name: str, token_id: int, decimal_started: int) -> np.ndarray:
    """w @ x + b for the one-hot input x, read as column token_id of w."""
    w, b = params.heads[name]
    z = w[:, token_id]
    if decimal_started and w.shape[1] > VOCAB_SIZE:
        z = z + w[:, VOCAB_SIZE]
    return z + b


def numpy_learned_gates(params: GateParams, token_id: int, decimal_started: int) -> GateDecision:
    """Argmax of every head. All-zero params answer class 0 everywhere."""

    ignore, move, decimal_start, dense_mode, digit, op = (
        int(np.argmax(numpy_logits(params, name, token_id, decimal_started)))
        for name, _, _ in HEAD_SHAPES
    )
    return GateDecision(ignore, move, decimal_start, DenseOpMode(dense_mode), digit, Op(op))


def numpy_learned_policy(params: GateParams) -> GateTable:
    """The 36-case table of learned decisions, computed once up front."""
    return GateTable([numpy_learned_gates(params, case >> 1, case & 1) for case in range(CASES)])


def numpy_sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def numpy_binary_loss_grad(z: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Summed BCE over one sigmoid unit per class, stable for any logit."""
    y = np.zeros(len(z))
    y[target] = 1.0
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return loss, numpy_sigmoid(z) - y


def numpy_softmax_loss_grad(z: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    zmax = float(np.max(z))
    lse = zmax + float(np.log(np.sum(np.exp(z - zmax))))
    loss = lse - float(z[target])
    p = np.exp(z - lse)
    p[target] -= 1.0
    return loss, p


def numpy_train_step(
    params: GateParams, event: int, config: TrainConfig, frozen: dict[str, int]
) -> tuple[float, float]:
    """One gradient step over all heads for one case id; a head named in
    frozen only computes its loss. Returns (raw, weighted) loss."""
    token_id, flag, targets = decode_case(event)
    weight = event_weight(token_id, config)
    raw = 0.0
    for (name, n_out, n_in), target in zip(HEAD_SHAPES, targets):
        z = numpy_logits(params, name, token_id, flag)
        if n_out == 2:
            loss, dz = numpy_binary_loss_grad(z, target)
        else:
            loss, dz = numpy_softmax_loss_grad(z, target)
        raw += loss
        if name not in frozen:
            # The outer product of dz with a one-hot input is dz in the
            # token's column (and the flag column when the flag is on) and
            # zero everywhere else, so only those columns move.
            w, b = params.heads[name]
            delta = config.lr * weight * dz
            w[:, token_id] -= delta
            if flag and n_in > VOCAB_SIZE:
                w[:, VOCAB_SIZE] -= delta
            b -= delta
    return raw, weight * raw


def numpy_train_step_on_columns(
    params: GateParams, event: int, config: TrainConfig, frozen: dict[str, int]
) -> tuple[float, float]:
    """A drop-in for train_step that runs numpy_train_step. On its first
    step it converts the GateParams that reference_train_gates built, in
    place, to numpy matrices; pass the result through column_params."""
    if isinstance(params.heads["op"][1], list):
        params.heads.update(numpy_params(params).heads)
    return numpy_train_step(params, event, config, frozen)


def numpy_agreement_table(params: GateParams) -> list:
    """agreement_table over the (n_out, n_in) matrices the numpy trainer
    keeps."""
    return agreement_table(column_params(params))


def numpy_check_finite(name: str, w: np.ndarray, b: np.ndarray) -> None:
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise GateError(f"head {name!r} contains non-finite values")


def numpy_load_params(path: str | Path) -> GateParams:
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise GateError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # int() refuses a literal past Python's digit limit
        raise GateError(f"{path}: JSON integer has too many digits") from None
    if not isinstance(payload, dict):
        raise GateError(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise GateError(f"unsupported gate file version {version!r}")
    heads = {}
    for name, n_out, n_in in HEAD_SHAPES:
        try:
            w = np.asarray(payload[f"{name}_w"], dtype=float)
            b = np.asarray(payload[f"{name}_b"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise GateError(f"head {name!r} is missing or not numeric") from None
        if w.shape != (n_out, n_in) or b.shape != (n_out,):
            raise GateError(f"head {name!r} has wrong shape {w.shape} / {b.shape}")
        numpy_check_finite(name, w, b)
        heads[name] = (w, b)
    return GateParams(heads)
