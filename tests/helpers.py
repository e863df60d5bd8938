"""Shared generators for property and sweep tests.

Random programs and expression trees are built with their expected
values computed during construction, using plain Python arithmetic that
shares nothing with the machinery under test.
"""

from __future__ import annotations

import random

import numpy as np

from gatecalc.conversion import DenseProgram
from gatecalc.gates import (
    BINARY_HEADS,
    HEAD_SHAPES,
    _binary_loss_grad,
    _event_targets,
    _event_weight,
    _softmax_loss_grad,
)
from gatecalc.infix import BinOp, Number
from gatecalc.tokenizer import VOCAB_SIZE, Op

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


def random_value(rng: random.Random, limit: int = 1000, decimals: int = 2) -> float:
    return rng.randrange(0, limit * 10**decimals + 1) / 10**decimals


def random_ast(rng: random.Random, depth: int):
    """Random expression tree with non-negative two-decimal leaves and no
    division by values near zero."""
    if depth == 0 or rng.random() < 0.35:
        return Number(random_value(rng))
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


def onehot(token_id: int, n_in: int = VOCAB_SIZE) -> np.ndarray:
    """The one-hot input vector of a token id, padded to ``n_in``."""
    x = np.zeros(n_in)
    x[token_id] = 1.0
    return x


def onehot_train_step(params, event, config) -> tuple[float, float]:
    """The trainer's gradient step written as matrix products over the
    one-hot input, with the decimal flag appended for the dense-mode head.
    A drop-in for gates._train_step, to check the column-indexed step."""
    weight = _event_weight(event, config)
    targets = _event_targets(event)
    raw = 0.0
    for name, _, n_in in HEAD_SHAPES:
        w, b = params.head(name)
        x = onehot(event.token_id, n_in)
        if name == "denseop":
            x[-1] = float(event.decimal_started)
        z = w @ x + b
        grad = _binary_loss_grad if name in BINARY_HEADS else _softmax_loss_grad
        loss, dz = grad(z, targets[name])
        raw += loss
        if not config.freeze:
            w -= config.lr * weight * np.outer(dz, x)
            b -= config.lr * weight * dz
    return raw, weight * raw
