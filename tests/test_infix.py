import random
import sys

import pytest

from gatecalc import infix
from gatecalc.conversion import convert
from gatecalc.datagen import GenConfig, Stage, gen_questions
from gatecalc.evaluator import DivisionByZero, evaluate
from gatecalc.gates import rule_gates
from gatecalc.infix import MAX_NESTING, ParseError, eval_infix, parse_infix, to_postfix
from gatecalc.render import render
from gatecalc.tokenizer import OP_TO_CHAR, encode
from helpers import (
    Number,
    ast_value,
    random_ast,
    random_value,
    reference_eval_infix,
    reference_parse_infix,
    reference_to_postfix,
    rel_close,
    to_infix,
)


def test_parse_simple_question():
    assert parse_infix("3 + 5 = ?") == ["3", "5", "+"]


def test_parse_bare_number():
    assert parse_infix("7") == ["7"]
    assert parse_infix("12.5 = ?") == ["12.5"]


def test_literal_past_float_range_is_a_parse_error():
    with pytest.raises(ParseError, match=r"number too large \(at position 0\)"):
        parse_infix("9" * 400 + " + 1 = ?")
    assert parse_infix("1" + "0" * 300) == ["1" + "0" * 300]
    # At the length where a literal can first overflow, on both sides of
    # the largest float.
    assert parse_infix("1" + "0" * 308) == ["1" + "0" * 308]
    with pytest.raises(ParseError, match=r"number too large \(at position 4\)"):
        parse_infix("1 + " + "9" * 309)


def test_answer_suffix_is_optional_and_flexible():
    for text in ("3 + 5", "3 + 5 = ?", "3 + 5 =?", "3 + 5  =  ?  "):
        assert parse_infix(text) == ["3", "5", "+"]


def test_precedence():
    assert parse_infix("3 + 5 * 2") == ["3", "5", "2", "*", "+"]
    assert parse_infix("3 * 5 + 2") == ["3", "5", "*", "2", "+"]
    assert parse_infix("1 - 6 / 3 * 2 + 4") == ["1", "6", "3", "/", "2", "*", "-", "4", "+"]


def test_left_associativity():
    postfix = parse_infix("10 - 4 - 3")
    assert postfix == ["10", "4", "-", "3", "-"]
    assert eval_infix(postfix) == 3.0
    assert parse_infix("8 / 4 * 2") == ["8", "4", "/", "2", "*"]


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


def test_literals_pass_through_as_written():
    postfix = parse_infix("007 + 1.50 * 3. = ?")
    assert to_postfix(postfix) == "007 1.50 3. * +"
    program = convert(encode(to_postfix(postfix)), rule_gates)
    assert program.dense == [float("007"), float("1.50"), float("3."), 0.0, 0.0]
    assert program.dense[:3] == [7.0, 1.5, 3.0]


def test_to_infix_minimal_parens():
    for text in ("3 + 5 * 2", "(3 + 5) * 2", "10 - (4 - 3)", "10 - 4 - 3"):
        assert to_infix(reference_parse_infix(text)) == text


def test_eval_infix_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_infix(parse_infix("3 / 0"))
    with pytest.raises(DivisionByZero):
        eval_infix(parse_infix("3 / (2 - 2)"))


def test_eval_infix_matches_hand_values():
    cases = {"3 + 5": 8.0, "3 + 5 * 2": 13.0, "10 / 4": 2.5, "2 * 3 * 4": 24.0}
    for text, want in cases.items():
        assert eval_infix(parse_infix(text)) == want


def _postfix_by_recursion(node) -> list:
    """The postfix sequence of a tree: left operand, right operand, operator."""
    if isinstance(node, Number):
        return [node.text]
    return _postfix_by_recursion(node.left) + _postfix_by_recursion(node.right) + [
        OP_TO_CHAR[node.op]
    ]


def test_infix_round_trip_preserves_tree():
    rng = random.Random(31337)
    for _ in range(400):
        ast = random_ast(rng, depth=4)
        text = to_infix(ast)
        assert reference_parse_infix(text) == ast
        assert parse_infix(text) == _postfix_by_recursion(ast)


def test_eval_matches_independent_recursion():
    rng = random.Random(271828)
    for _ in range(400):
        ast = random_ast(rng, depth=4)
        assert rel_close(eval_infix(parse_infix(to_infix(ast))), ast_value(ast))


def test_eval_infix_handles_long_chains():
    rng = random.Random(1000)
    terms = [str(random_value(rng, limit=100) + 1) for _ in range(1000)]
    text = terms[0] + "".join(f" {rng.choice('+-*/')} {t}" for t in terms[1:])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        want = ast_value(reference_parse_infix(text))
    finally:
        sys.setrecursionlimit(limit)
    assert eval_infix(parse_infix(text)) == want
    assert eval_infix(parse_infix(" + ".join(["1"] * 1000))) == 1000.0


def test_postfix_pipeline_matches_eval_infix():
    rng = random.Random(161803)
    for _ in range(1500):
        postfix = parse_infix(to_infix(random_ast(rng, depth=3)))
        machine = evaluate(convert(encode(to_postfix(postfix)), rule_gates))
        assert rel_close(machine, eval_infix(postfix))


def test_to_postfix_matches_recursive_walk():
    rng = random.Random(4242)
    for _ in range(500):
        ast = random_ast(rng, depth=5)
        assert to_postfix(parse_infix(to_infix(ast))) == reference_to_postfix(ast)


def test_to_postfix_handles_long_chains():
    ast = parse_infix(" + ".join(["1"] * 1000))
    assert to_postfix(ast) == "1 1 +" + " 1 +" * 998


def test_nesting_is_bounded():
    at_bound = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert parse_infix(at_bound) == ["1"]
    with pytest.raises(ParseError, match="nested deeper"):
        parse_infix("(" + at_bound + ")")


_ALPHABET = "0123456789. +-*/()=?x"


def _random_expression(rng: random.Random, depth: int) -> str:
    """Well-formed question text with random spacing, literal spellings
    ("3.", "03.50") and redundant parentheses."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        text = render(random_value(rng, limit=100) if rng.random() < 0.9 else 0.0)
        if rng.random() < 0.2:
            text = "0" + text + ("" if "." in text else ".") + "0" * rng.randint(0, 2)
    elif roll < 0.45:
        text = "(" + _random_expression(rng, depth - 1) + ")"
    else:
        op = rng.choice("+-*/")
        left = _random_expression(rng, depth - 1)
        right = _random_expression(rng, depth - 1)
        text = left + " " * rng.randint(0, 2) + op + " " * rng.randint(0, 2) + right
    return " " * rng.randint(0, 1) + text + " " * rng.randint(0, 1)


def _mutate(rng: random.Random, text: str) -> str:
    """Delete, replace or insert one character, so most errors land deep
    inside an otherwise valid question."""
    i = rng.randint(0, len(text))
    ch = rng.choice(_ALPHABET)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + ch + text[i + 1:]
    return text[:i] + ch + text[i:]


def _sweep_corpus() -> list[str]:
    """Fixed-seed questions for the one-pass-versus-reference sweep."""
    rng = random.Random(20260)
    corpus = ["".join(rng.choices(_ALPHABET, k=rng.randint(0, 16))) for _ in range(20000)]
    trees = [to_infix(random_ast(rng, depth=4)) for _ in range(5000)]
    corpus += trees + [_mutate(rng, t) for t in trees]
    shaped = [_random_expression(rng, depth=5) for _ in range(5000)]
    corpus += shaped + [_mutate(rng, t) for t in shaped]
    corpus += [t + " = ?" for t in shaped[:1000]]
    for n in range(MAX_NESTING - 5, MAX_NESTING + 5):
        corpus += [
            "(" * n + "1" + ")" * n,
            "(" * n + "1 + 2" + ")" * n + " * 3 = ?",
            "2 * " + "(" * n + "1 - 2" + ")" * n,
            "(" * n + "1" + ")" * (n - 1),
        ]
    corpus += ["1" * 400, "9" * 400 + " + 1 = ?"]
    terms = [render(random_value(rng, limit=100) + 1) for _ in range(1000)]
    corpus += [
        " + ".join(["1"] * 1000),
        terms[0] + "".join(f" {rng.choice('+-*/')} {t}" for t in terms[1:]) + " = ?",
    ]
    for stage in (Stage.EASY, Stage.PRIORITY):
        corpus += gen_questions(GenConfig(count=2000, seed=6, stage=stage))
    return corpus


def _outcome(parse, postfix_text, value, text: str) -> tuple:
    try:
        parsed = parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)
    try:
        result = repr(value(parsed))
    except DivisionByZero as exc:
        result = f"DivisionByZero: {exc}"
    return (postfix_text(parsed), result)


def test_one_pass_matches_reference_parser():
    kinds = set()
    for text in _sweep_corpus():
        got = _outcome(parse_infix, to_postfix, eval_infix, text)
        want = _outcome(reference_parse_infix, reference_to_postfix, reference_eval_infix, text)
        assert got == want, text
        if got[0] == "ParseError":
            kinds.add(got[1].rsplit(" (at", 1)[0])
        elif got[1].startswith("DivisionByZero"):
            kinds.add("DivisionByZero")
    # The corpus reaches every error the grammar and the arithmetic can report.
    assert {
        "expected a number or '('",
        "expected ')'",
        "unexpected ')'",
        "unexpected 'x'",
        "number too large",
        f"parentheses nested deeper than {MAX_NESTING}",
        "DivisionByZero",
    } <= kinds


# Characters the token scanner must treat exactly as the reference does:
# whitespace other than the space (which only the answer suffix strips),
# digits outside ASCII, and a NUL.
_SCANNER_ALPHABET = "0123456789. +-*/()=?" + "\t\n\r\u00a0\u0663\uff11\x00"


def test_token_scanner_matches_reference_parser():
    rng = random.Random(90210)
    kinds = set()
    for _ in range(30000):
        body = "".join(rng.choices(_SCANNER_ALPHABET, k=rng.randint(0, 12)))
        text = " " * rng.randint(0, 2) + body + " " * rng.randint(0, 2)
        got = _outcome(parse_infix, to_postfix, lambda _: None, text)
        want = _outcome(reference_parse_infix, reference_to_postfix, lambda _: None, text)
        assert got == want, repr(text)
        kinds.add(got[1].rsplit(" (at", 1)[0] if got[0] == "ParseError" else "parsed")
    assert {
        "parsed",
        "expected a number or '('",
        "expected ')'",
        "unexpected '\\t'",
        "unexpected '\u0663'",
        "unexpected '\uff11'",
        "unexpected '\\x00'",
    } <= kinds


class _NoScan:
    """Stands in for the token regex where a test holds text to str.split."""

    def findall(self, *args):
        raise AssertionError("the regex scan ran")


def _spaced_questions() -> list[str]:
    """Every question gen_questions writes for two stages, with a space
    between every pair of tokens, and two long spaced chains."""
    questions = []
    for stage in (Stage.EASY, Stage.PRIORITY):
        questions += gen_questions(GenConfig(count=2000, seed=0, stage=stage))
    rng = random.Random(512)
    terms = []
    for _ in range(128):
        a, b, c, d = (render(random_value(rng, limit=100) + 1) for _ in range(4))
        terms.append(rng.choice([f"( {a} + {b} ) * {c} - {d}", f"{a} / ( {b} - ( {c} * {d} ) )"]))
    questions.append(" + ".join(terms) + " = ?")
    questions.append(" + ".join(["1"] * 1000))
    return questions


# Spaced questions of whole pieces that end too soon.
_ENDS_EARLY = ["3 +", "( 3", "( 3 + 5", "3 * ( 4 - = ?"]


def test_spaced_questions_never_scan(monkeypatch):
    questions = _spaced_questions()
    want = [parse_infix(text) for text in questions]
    early = [_outcome(reference_parse_infix, reference_to_postfix, lambda _: None, text)
             for text in _ENDS_EARLY]
    monkeypatch.setattr(infix, "_TOKEN", _NoScan())
    assert [parse_infix(text) for text in questions] == want
    assert [_outcome(parse_infix, to_postfix, lambda _: None, text)
            for text in _ENDS_EARLY] == early
    with pytest.raises(AssertionError, match="the regex scan ran"):
        parse_infix("3 +5")


def test_glued_questions_parse_as_spaced():
    rng = random.Random(23)
    for text in _spaced_questions():
        want = parse_infix(text)
        assert parse_infix(text.replace(" ", "")) == want, text
        some = "".join(ch for ch in text if ch != " " or rng.random() < 0.5)
        assert parse_infix(some) == want, some
    assert parse_infix("3 +5*2") == parse_infix("3 + 5 * 2") == ["3", "5", "2", "*", "+"]


@pytest.mark.parametrize("text", [
    "1 + " + "9" * 308,
    "1 + " + "9" * 309,
    "9" * 309 + " + 1 = ?",
    " ".join(["("] * MAX_NESTING + ["1"] + [")"] * MAX_NESTING),
    " ".join(["("] * (MAX_NESTING + 1) + ["1"] + [")"] * (MAX_NESTING + 1)),
    "5 .", "5 . 5", ". 5", "5.5.5", "1 + 5.5.5 = ?", "5. + 5.5",
    "3 +", "( 3", "3 )", "3 + ( )", "( 3 ) )", "3 + 5 = ?", "  ",
])
def test_spaced_text_at_the_split_boundary_matches_reference(text):
    got = _outcome(parse_infix, to_postfix, lambda _: None, text)
    assert got == _outcome(reference_parse_infix, reference_to_postfix, lambda _: None, text)


# Every piece of the piece path's slot table, and pieces just outside it.
_TABLE_PIECES = [str(i) for i in range(100)] + list("+-*/")
_TABLE_PIECES += ["100", "00", "07", "5.", "0.5", "99."]


def test_small_integers_parse_as_the_reference_does():
    assert infix._SMALL_INTS == {str(i) for i in range(100)}
    for piece in _TABLE_PIECES:
        for spaced in (piece, f"{piece} = ?", f"1 + {piece} * 2", f"( {piece} ) / {piece}",
                       f"{piece} {piece}", f"( {piece} {piece} )"):
            for text in (spaced, spaced.replace(" ", "")):
                got = _outcome(parse_infix, to_postfix, lambda _: None, text)
                want = _outcome(reference_parse_infix, reference_to_postfix, lambda _: None, text)
                assert got == want, text
