import random
import sys

import pytest

from gatecalc.conversion import convert
from gatecalc.evaluator import DivisionByZero, evaluate
from gatecalc.gates import rule_gates
from gatecalc.infix import (
    MAX_NESTING,
    BinOp,
    Number,
    ParseError,
    eval_infix,
    parse_infix,
    to_postfix,
)
from gatecalc.render import render
from gatecalc.tokenizer import OP_TO_CHAR, Op, encode
from helpers import ast_value, random_ast, random_value, rel_close, to_infix


def test_parse_simple_question():
    ast = parse_infix("3 + 5 = ?")
    assert ast == BinOp(Op.ADD, Number(3.0), Number(5.0))


def test_parse_bare_number():
    assert parse_infix("7") == Number(7.0)
    assert parse_infix("12.5 = ?") == Number(12.5)


def test_literal_past_float_range_is_a_parse_error():
    with pytest.raises(ParseError, match=r"number too large \(at position 0\)"):
        parse_infix("9" * 400 + " + 1 = ?")
    assert parse_infix("1" + "0" * 300) == Number(1e300)


def test_answer_suffix_is_optional_and_flexible():
    for text in ("3 + 5", "3 + 5 = ?", "3 + 5 =?", "3 + 5  =  ?  "):
        assert parse_infix(text) == BinOp(Op.ADD, Number(3.0), Number(5.0))


def test_precedence():
    ast = parse_infix("3 + 5 * 2")
    assert ast == BinOp(Op.ADD, Number(3.0), BinOp(Op.MUL, Number(5.0), Number(2.0)))


def test_left_associativity():
    ast = parse_infix("10 - 4 - 3")
    assert ast == BinOp(Op.SUB, BinOp(Op.SUB, Number(10.0), Number(4.0)), Number(3.0))
    assert eval_infix(ast) == 3.0


def test_parentheses_override_precedence():
    ast = parse_infix("(3 + 5) * 2")
    assert eval_infix(ast) == 16.0
    assert eval_infix(parse_infix("3 + 5 * 2")) == 13.0


def test_nested_parentheses():
    assert eval_infix(parse_infix("((1 + 2) * (3 + 4))")) == 21.0


@pytest.mark.parametrize(
    "bad",
    ["", "   ", "3 +", "+ 5", "3 + * 5", "(3", "3)", "() + 1", "-5", ".5",
     "3 5", "abc", "3 + 5 = ? x", "3 = 5"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_infix(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse_infix("3 + * 5")
    assert exc_info.value.position == 4
    assert "position 4" in str(exc_info.value)


def test_to_postfix_simple():
    assert to_postfix(parse_infix("3 + 5")) == "3 5 +"
    assert to_postfix(parse_infix("7")) == "7"


def test_to_postfix_respects_precedence():
    assert to_postfix(parse_infix("3 + 5 * 2")) == "3 5 2 * +"
    assert to_postfix(parse_infix("(3 + 5) * 2")) == "3 5 + 2 *"
    assert to_postfix(parse_infix("10 - 4 - 3")) == "10 4 - 3 -"


def test_to_postfix_renders_numbers_canonically():
    assert to_postfix(parse_infix("3.50 + 2.0")) == "3.5 2 +"


def test_to_infix_minimal_parens():
    assert to_infix(parse_infix("3 + 5 * 2")) == "3 + 5 * 2"
    assert to_infix(parse_infix("(3 + 5) * 2")) == "(3 + 5) * 2"
    assert to_infix(parse_infix("10 - (4 - 3)")) == "10 - (4 - 3)"
    assert to_infix(parse_infix("10 - 4 - 3")) == "10 - 4 - 3"


def test_eval_infix_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_infix(parse_infix("3 / 0"))
    with pytest.raises(DivisionByZero):
        eval_infix(parse_infix("3 / (2 - 2)"))


def test_eval_infix_matches_hand_values():
    cases = {"3 + 5": 8.0, "3 + 5 * 2": 13.0, "10 / 4": 2.5, "2 * 3 * 4": 24.0}
    for text, want in cases.items():
        assert eval_infix(parse_infix(text)) == want


def test_infix_round_trip_preserves_tree():
    rng = random.Random(31337)
    for _ in range(400):
        ast = random_ast(rng, depth=4)
        assert parse_infix(to_infix(ast)) == ast


def test_eval_matches_independent_recursion():
    rng = random.Random(271828)
    for _ in range(400):
        ast = random_ast(rng, depth=4)
        assert rel_close(eval_infix(ast), ast_value(ast))


def test_eval_infix_handles_long_chains():
    rng = random.Random(1000)
    terms = [str(random_value(rng, limit=100) + 1) for _ in range(1000)]
    text = terms[0] + "".join(f" {rng.choice('+-*/')} {t}" for t in terms[1:])
    ast = parse_infix(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        want = ast_value(ast)
    finally:
        sys.setrecursionlimit(limit)
    assert eval_infix(ast) == want
    assert eval_infix(parse_infix(" + ".join(["1"] * 1000))) == 1000.0


def test_postfix_pipeline_matches_eval_infix():
    rng = random.Random(161803)
    for _ in range(1500):
        ast = random_ast(rng, depth=3)
        machine = evaluate(convert(encode(to_postfix(ast)), rule_gates))
        assert rel_close(machine, eval_infix(ast))


def _postfix_by_recursion(node) -> str:
    if isinstance(node, Number):
        return render(node.value)
    left, right = _postfix_by_recursion(node.left), _postfix_by_recursion(node.right)
    return f"{left} {right} {OP_TO_CHAR[node.op]}"


def test_to_postfix_matches_recursive_walk():
    rng = random.Random(4242)
    for _ in range(500):
        ast = random_ast(rng, depth=5)
        assert to_postfix(ast) == _postfix_by_recursion(ast)


def test_to_postfix_handles_long_chains():
    ast = parse_infix(" + ".join(["1"] * 1000))
    assert to_postfix(ast) == "1 1 +" + " 1 +" * 998


def test_nesting_is_bounded():
    at_bound = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert parse_infix(at_bound) == Number(1.0)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_infix("(" + at_bound + ")")
