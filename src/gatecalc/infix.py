"""Infix question parsing, its bridge to postfix, and tree evaluation.

The grammar is deliberately small: non-negative decimal literals, the
four binary operators with the usual precedence and left associativity,
parentheses, and an optional trailing "= ?" that questions carry.
Unary minus does not exist; a leading dot does not start a number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .evaluator import apply_op
from .render import render
from .tokenizer import CHAR_TO_OP, OP_TO_CHAR, Op


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class BinOp:
    op: Op
    left: "InfixAst"
    right: "InfixAst"


InfixAst = Union[Number, BinOp]

_ANSWER_SUFFIX = re.compile(r"\s*=\s*\?\s*$")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?")

# Deepest parenthesis nesting the parser accepts. Each level costs three
# Python frames, so this keeps any question well inside the recursion limit.
MAX_NESTING = 100


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
        value = float(match.group())
        if math.isinf(value):
            raise self.error("number too large")
        self.pos = match.end()
        return Number(value)

    def expect_end(self) -> None:
        if self.peek() != "":
            raise self.error(f"unexpected {self.text[self.pos]!r}")


def parse_infix(text: str) -> InfixAst:
    """Parse a question like "3 + 5 * 2 = ?" into an expression tree."""
    source = _ANSWER_SUFFIX.sub("", text)
    parser = _Parser(source)
    ast = parser.parse_expr()
    parser.expect_end()
    return ast


def to_postfix(ast: InfixAst) -> str:
    """Space-separated postfix text, numbers rendered canonically.

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
            parts.append(render(node.value))
        else:
            parts.append(node)
    return " ".join(parts)


def eval_infix(ast: InfixAst) -> float:
    """Reference tree evaluation; raises DivisionByZero like the machine.

    Like to_postfix, the walk keeps its own stack, so a long operator
    chain cannot exhaust Python's recursion limit.
    """
    values: list[float] = []
    # Nodes still to visit, and operators due once both operand values
    # are on the value stack.
    todo: list[InfixAst | Op] = [ast]
    while todo:
        node = todo.pop()
        if isinstance(node, BinOp):
            todo += (node.op, node.right, node.left)
        elif isinstance(node, Number):
            values.append(node.value)
        else:
            rhs = values.pop()
            values.append(apply_op(node, values.pop(), rhs))
    return values[0]


__all__ = [
    "BinOp",
    "InfixAst",
    "Number",
    "ParseError",
    "eval_infix",
    "parse_infix",
    "to_postfix",
]
