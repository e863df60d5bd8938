"""Infix questions translated to postfix in one pass, with no tree.

The grammar is deliberately small: non-negative decimal literals, the
four binary operators with the usual precedence and left associativity,
parentheses, and an optional trailing "= ?" that questions carry.
Unary minus does not exist; a leading dot does not start a number.

parse_infix reads a question's tokens from one regex scan, left to
right, and emits its postfix sequence: each literal's text as written
and operator characters, in the order the machine reads them. to_postfix
joins that sequence into the text the expression head hands the
machine, which reads every literal as the float its text names, and
eval_infix computes it with a plain value stack over float() of each
literal. A recursive-descent parser over an expression tree is kept in
the tests as the reference that the sequence, every error message and
every error position are checked against.
"""

from __future__ import annotations

import math
import re

from .evaluator import apply_op
from .tokenizer import CHAR_TO_OP


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ANSWER_SUFFIX = re.compile(r"\s*=\s*\?\s*$")
# One token after any spaces: a literal (group 1) or any other single
# character (group 2). "[^ ]" rather than "." so trailing spaces make no
# token; "[0-9]" rather than "\d" so non-ASCII digits are not literals.
_TOKEN = re.compile(r" *(?:([0-9]+(?:\.[0-9]*)?)|([^ ]))")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

# Deepest parenthesis nesting the parser accepts. Open parentheses wait on
# a list, not in Python frames, so this guards no recursion limit: it is a
# bound of the grammar, kept so the same questions are declined.
MAX_NESTING = 100


def parse_infix(text: str) -> list[str]:
    """Postfix sequence of a question: "3 + 5 * 2 = ?" gives ["3", "5", "2", "*", "+"].

    Operator precedence in one pass. The reader alternates between
    expecting an operand (a literal or "(") and expecting what may follow
    one (")", an operator, or the end). Operators wait on a stack until
    one of lower or equal precedence, a ")" or the end releases them.
    """
    source = _ANSWER_SUFFIX.sub("", text)
    out: list[str] = []
    pending: list[str] = []  # operators and open parentheses not yet emitted
    depth = 0
    operand = True
    for match in _TOKEN.finditer(source):
        number, ch = match.groups()
        if operand:
            if number is not None:
                if float(number) == math.inf:
                    raise ParseError("number too large", match.start(1))
                out.append(number)
                operand = False
            elif ch != "(":
                raise ParseError("expected a number or '('", match.start(2))
            elif depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", match.start(2))
            else:
                depth += 1
                pending.append(ch)
        elif ch == ")" and depth:
            while (top := pending.pop()) != "(":
                out.append(top)
            depth -= 1
        elif ch in _PRECEDENCE:
            # An open parenthesis ranks 0, below every operator: none pops it.
            while pending and _PRECEDENCE.get(pending[-1], 0) >= _PRECEDENCE[ch]:
                out.append(pending.pop())
            pending.append(ch)
            operand = True
        elif depth:
            raise ParseError("expected ')'", match.start(match.lastindex))
        else:
            raise ParseError(f"unexpected {(ch or number[0])!r}", match.start(match.lastindex))
    if operand:
        raise ParseError("expected a number or '('", len(source))
    if depth:
        raise ParseError("expected ')'", len(source))
    out.extend(reversed(pending))
    return out


def to_postfix(postfix: list[str]) -> str:
    """Space-separated postfix text, every literal as the question wrote it."""
    return " ".join(postfix)


def eval_infix(postfix: list[str]) -> float:
    """Value of a parsed question; raises DivisionByZero like the machine."""
    values: list[float] = []
    for t in postfix:
        op = CHAR_TO_OP.get(t)
        if op is None:
            values.append(float(t))
        else:
            rhs = values.pop()
            values.append(apply_op(op, values.pop(), rhs))
    return values[0]


__all__ = [
    "ParseError",
    "eval_infix",
    "parse_infix",
    "to_postfix",
]
