"""Infix questions translated to postfix in one pass, with no tree.

The grammar is deliberately small: non-negative decimal literals, the
four binary operators with the usual precedence and left associativity,
parentheses, and an optional trailing "= ?" that questions carry.
Unary minus does not exist; a leading dot does not start a number.

parse_infix reads a question's tokens left to right, from str.split when
its text is spaced and from one regex scan when it is glued or wrong,
and emits its postfix sequence: each literal's text as written
and operator characters, in the order the machine reads them. An
integer literal below 100, the commonest kind, is found in a set of
their texts and taken with no further check. to_postfix
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
from operator import length_hint

from .evaluator import apply_op
from .tokenizer import CHAR_TO_OP


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One token: a literal, or any other single character. Spaces separate
# tokens and make none; "[0-9]" rather than "\d" so non-ASCII digits are
# not literals.
_TOKEN = re.compile(r"[0-9]+(?:\.[0-9]*)?|[^ ]")
# A character that no question of the grammar contains.
_OUTSIDE = re.compile(r"[^0-9.+\-*/() ]")

# The commonest literals, integers below 100, as questions write them.
_SMALL_INTS = frozenset(map(str, range(100)))

# Deepest parenthesis nesting the parser accepts. Open parentheses wait on
# a list, not in Python frames, so this guards no recursion limit: it is a
# bound of the grammar, kept so the same questions are declined.
MAX_NESTING = 100


def _strip_answer_suffix(text: str) -> str:
    """text without its trailing "= ?", if it ends in one: the "=", the
    "?", and every run of whitespace before, between and after them go."""
    body = text.rstrip()
    if body.endswith("?"):
        body = body[:-1].rstrip()
        if body.endswith("="):
            return body[:-1].rstrip()
    return text


def parse_infix(text: str) -> list[str]:
    """Postfix sequence of a question: "3 + 5 * 2 = ?" gives ["3", "5", "2", "*", "+"].

    Operator precedence in one pass. The reader alternates between
    expecting an operand (a literal or "(") and expecting what may follow
    one (")", an operator, or the end). Operators wait on a stack until
    one of lower or equal precedence, a ")" or the end releases them.

    Text with spaces and only grammar characters is read first from
    str.split, far cheaper than the regex scan. The reader takes a piece
    only whole, as one literal, operator or parenthesis, so a glued piece
    such as "3+5" or "5.5.5" stops it as an error does, and the regex
    tokens are then read instead, as they are for every other text. A
    question of whole pieces that ends too soon ("3 +", "( 3") raises at
    its end without the regex pass.
    """
    source = _strip_answer_suffix(text)
    # A character outside the grammar ends the question in an error when
    # the reader reaches it, so the scan stops there: prose costs a token
    # or two, not one per character.
    outside = _OUTSIDE.search(source)
    split = outside is None and " " in source
    if split:
        tokens = source.split()
    else:
        tokens = _TOKEN.findall(source, 0, outside.end() if outside else len(source))
    while True:
        out: list[str] = []
        # Operators and open parentheses not yet emitted, over an open
        # parenthesis that no ")" reaches, so every pop stops at one.
        pending = ["("]
        depth = 0
        operand = True
        rest = iter(tokens)
        for token in rest:
            if operand:
                # An integer below 100 is a whole literal as it stands.
                # Otherwise "0" <= token < ":" holds when token starts
                # with an ASCII digit. A regex token that does is a whole
                # literal; a split piece is one only if the rest is
                # digits and at most one dot.
                if token in _SMALL_INTS:
                    out.append(token)
                    operand = False
                elif "0" <= token < ":" and (
                    not split or token.isdigit() or token.replace(".", "", 1).isdigit()
                ):
                    # No literal of at most 308 characters reaches 1.8e308.
                    if len(token) > 308 and float(token) == math.inf:
                        error = "number too large"
                        break
                    out.append(token)
                    operand = False
                elif token != "(":
                    error = "expected a number or '('"
                    break
                elif depth == MAX_NESTING:
                    error = f"parentheses nested deeper than {MAX_NESTING}"
                    break
                else:
                    depth += 1
                    pending.append(token)
            elif token == ")" and depth:
                while (top := pending.pop()) != "(":
                    out.append(top)
                depth -= 1
            elif token == "+" or token == "-":
                # At most one operator of each precedence waits above the
                # nearest open parenthesis, and this one releases both.
                while pending[-1] != "(":
                    out.append(pending.pop())
                pending.append(token)
                operand = True
            elif token == "*" or token == "/":
                if (top := pending[-1]) == "*" or top == "/":
                    out.append(pending.pop())
                pending.append(token)
                operand = True
            else:
                error = "expected ')'" if depth else f"unexpected {token[0]!r}"
                break
        else:
            if not (operand or depth):
                out.extend(pending[:0:-1])
                return out
            raise ParseError(
                "expected a number or '('" if operand else "expected ')'", len(source)
            )
        if not split:
            break
        # A glued piece or an error: the regex tokens decide.
        split = False
        tokens = _TOKEN.findall(source)
    # What is left in the iterator tells which token the reader stopped at.
    k = len(tokens) - 1 - length_hint(rest)
    # Only spaces come between tokens, so each token's text is the first
    # match of it past the end of the one before.
    position = 0
    for token in tokens[:k]:
        position = source.find(token, position) + len(token)
    raise ParseError(error, source.find(tokens[k], position))


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
