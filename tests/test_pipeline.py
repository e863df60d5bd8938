import dataclasses
import random
import re
from fractions import Fraction

from gatecalc import evaluator, pipeline
from gatecalc.conversion import (
    ConversionError,
    GateTable,
    InvalidCapacity,
    InvalidTable,
    convert,
    convert_with_trace,
)
from gatecalc.datagen import GenConfig, Stage, gen_questions
from gatecalc.evaluator import stack_oracle
from gatecalc.gates import GateParams, make_learned_policy, rule_gates
from gatecalc.infix import eval_infix, parse_infix
from gatecalc.pipeline import (
    MAX_INJECT_LEN,
    PayloadTooLong,
    PipelineConfig,
    PipelineResult,
    PredictorOutput,
    extract_segment_payload,
    make_echo_responder,
    make_segment,
    reference_predictor,
    run,
)
from gatecalc.render import render
from gatecalc.tokenizer import encode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import exact_eval_infix, exact_render, random_gate_table, reference_parse_infix, round_sig


# ---------------------------------------------------------------------------
# Predictor


def test_predictor_enables_on_arithmetic():
    out = reference_predictor("3 + 5 = ?")
    assert out.enable == 1
    assert out.expression == "3 5 +"


def test_predictor_declines_general_text():
    out = reference_predictor("Design a logo for a food store.")
    assert out.enable == 0
    assert out.expression == ""


# ---------------------------------------------------------------------------
# Injection segment


def test_segment_layout():
    seg = make_segment(8.0, 16)
    assert seg.payload == "8"
    assert seg.text == "8$" + " " * 14
    assert len(seg.text) == 16


def test_segment_zero():
    assert make_segment(0.0, 16).text == "0$" + " " * 14


def test_segment_exact_fit():
    seg = make_segment(123456.0, 7)
    assert seg.text == "123456$"


def test_segment_too_long():
    with pytest.raises(PayloadTooLong):
        make_segment(123456.0, 6)


def test_inject_appends_only():
    prompt = "3 + 5 = ?"
    seen = []
    run(prompt, responder=lambda p: seen.append(p) or p)
    assert seen[0].startswith(prompt)
    assert len(seen[0]) == len(prompt) + 16


def test_extract_round_trip():
    prompt = "3 + 5 = ?" + make_segment(8.0, 16).text
    assert extract_segment_payload(prompt, 16) == "8"


def test_extract_rejects_plain_text():
    assert extract_segment_payload("Hello", 16) is None
    assert extract_segment_payload("A question without a segment tail here", 16) is None
    assert extract_segment_payload("short", 4) is None
    # two terminators inside the tail
    assert extract_segment_payload("x" * 10 + "8$$" + " " * 13, 16) is None
    # padding must be blank
    assert extract_segment_payload("8$" + " " * 13 + "y", 16) is None


def test_segment_format_sweep():
    rng = random.Random(2024)
    for _ in range(100):
        if rng.random() < 0.5:
            value = float(rng.randint(-10**9, 10**9))
        else:
            value = rng.uniform(-1000.0, 1000.0)
        seg = make_segment(value, 16)
        assert len(seg.text) == 16
        assert seg.text.count("$") == 1
        assert seg.text[len(seg.payload)] == "$"
        assert seg.text[len(seg.payload) + 1 :] == " " * (15 - len(seg.payload))


# ---------------------------------------------------------------------------
# Echo responder


def test_echo_reads_injected_answer():
    respond = make_echo_responder(16)
    assert respond("3 + 5 = ?" + make_segment(8.0, 16).text) == "8"


def test_echo_passes_general_prompts_byte_identical():
    respond = make_echo_responder(16)
    for prompt in ("Hello", "Design a logo for a food store.", "", "x" * 100):
        assert respond(prompt) == prompt


# ---------------------------------------------------------------------------
# Full runs


def test_worked_example():
    result = run("3 + 5 = ?")
    assert result.answer == "8"
    assert result.injected is True
    assert result.expression == "3 5 +"
    assert result.trace is not None
    assert result.trace.final == 8.0
    assert result.diagnostic is None


def test_general_question_falls_through():
    question = "Design a logo for a food store."
    result = run(question)
    assert result.injected is False
    assert result.answer == question
    assert result.expression == ""
    assert result.trace is None


def test_division_by_zero_is_contained():
    result = run("12 / 0 = ?")
    assert result.injected is False
    assert result.answer == "12 / 0 = ?"
    assert "DivisionByZero" in result.diagnostic


def test_malformed_expression_from_custom_predictor():
    predictor = lambda q: PredictorOutput(1, "3 +")
    result = run("whatever", predictor=predictor)
    assert result.injected is False
    assert result.answer == "whatever"
    assert "MalformedPostfix" in result.diagnostic


def test_number_past_float_range_from_custom_predictor():
    predictor = lambda q: PredictorOutput(1, "9" * 400 + " 1 +")
    result = run("whatever", predictor=predictor)
    assert result.injected is False
    assert result.answer == "whatever"
    assert result.diagnostic == "NumberTooLarge: number at slot 0 is past float range"


def test_payload_too_long_is_contained():
    config = PipelineConfig(inject_len=3)
    result = run("123456 + 1 = ?", config=config)
    assert result.injected is False
    assert "PayloadTooLong" in result.diagnostic


def test_inject_len_is_bounded_when_the_config_is_built():
    # Tested with 10**30 only: a value below 2**63 that got past the
    # bound would be allocated as that many bytes of padding.
    with pytest.raises(PayloadTooLong, match="at most 1024"):
        PipelineConfig(inject_len=10**30)
    result = run("3 + 5 = ?", config=PipelineConfig(inject_len=MAX_INJECT_LEN))
    assert result.answer == "8"


def test_inject_len_past_the_bound_never_builds_padding():
    # 10**30 only, as above.
    with pytest.raises(PayloadTooLong, match=f"at most 1024, got {10**30}$"):
        make_segment(8.0, 10**30)
    assert len(make_segment(8.0, MAX_INJECT_LEN).text) == MAX_INJECT_LEN
    config = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.inject_len = 10**30
    assert run("3 + 5 = ?", config=config).answer == "8"


@pytest.mark.parametrize("inject_len", [0, -2])
def test_inject_len_below_one_is_rejected(inject_len):
    # A zero length would read prompt[-0:], the whole prompt, as a segment,
    # and a negative one would slice the prompt from the front.
    message = f"at least 1, got {inject_len}$"
    with pytest.raises(PayloadTooLong, match=message):
        PipelineConfig(inject_len=inject_len)
    with pytest.raises(PayloadTooLong, match=message):
        make_segment(8.0, inject_len)
    with pytest.raises(PayloadTooLong, match=message):
        make_echo_responder(inject_len)
    with pytest.raises(PayloadTooLong, match=message):
        extract_segment_payload("a$", inject_len)
    assert run("a$ ").answer == "a$ "


@pytest.mark.parametrize("inject_len", [16.5, True, 16.0, "16"])
def test_inject_len_must_be_an_int(inject_len):
    # A float reached make_segment's padding as a TypeError, and True
    # passed the bounds as a length of 1.
    message = rf"must be an int, got {type(inject_len).__name__} {re.escape(repr(inject_len))}$"
    with pytest.raises(PayloadTooLong, match=message):
        PipelineConfig(inject_len=inject_len)
    with pytest.raises(PayloadTooLong, match=message):
        make_segment(8.0, inject_len)
    with pytest.raises(PayloadTooLong, match=message):
        make_echo_responder(inject_len)
    with pytest.raises(PayloadTooLong, match=message):
        extract_segment_payload("a$", inject_len)


def test_run_without_config_builds_none(monkeypatch):
    # The frozen default is built once, at import, and shared by every call.
    def no_config(*args, **kwargs):
        raise AssertionError("run() built a PipelineConfig")

    monkeypatch.setattr(pipeline, "PipelineConfig", no_config)
    assert run("3 + 5 = ?").answer == "8"
    assert run("Hello").answer == "Hello"


def test_huge_capacity_is_answered():
    # Capacity bounds the slot count; it sizes no allocation.
    result = run("3 + 5 = ?", config=PipelineConfig(capacity=10**30))
    assert result.injected is True
    assert result.answer == "8"


# rule_gates with one decision as a plain tuple of its fields, and as the
# 18 rows of two decisions a table used to be.
_TUPLE_CASE = rule_gates[:5] + (tuple(rule_gates[5]),) + rule_gates[6:]
_ROWS_OF_TWO = tuple(zip(rule_gates[::2], rule_gates[1::2]))


@pytest.mark.parametrize("policy", [
    [], "abc", None, rule_gates[:35], _TUPLE_CASE, _ROWS_OF_TWO,
    GateTable, dict(enumerate(rule_gates)), rule_gates + rule_gates[:1],
], ids=["empty-list", "string", "none", "35-cases", "tuple-case", "rows-of-two",
        "the-class", "dict", "37-cases"])
def test_policy_must_be_a_gate_table(policy):
    # The first six once got past the config and then raised IndexError or
    # TypeError in run().
    with pytest.raises(InvalidTable, match="^policy must be 36 GateDecisions$"):
        PipelineConfig(policy=policy)


def test_config_keeps_its_policy_as_a_checked_table():
    assert PipelineConfig().policy is rule_gates
    policy = PipelineConfig(policy=list(rule_gates)).policy
    assert type(policy) is GateTable and policy == rule_gates and policy is not rule_gates
    learned = make_learned_policy(GateParams.zeros())
    assert PipelineConfig(policy=learned).policy is learned


@pytest.mark.parametrize("capacity", ["a", None, True, 64.0])
def test_capacity_must_be_an_int(capacity):
    with pytest.raises(InvalidCapacity, match=rf"^capacity must be an int, got {capacity!r}$"):
        PipelineConfig(capacity=capacity)


@pytest.mark.parametrize("capacity", [0, -5])
def test_capacity_below_one_is_refused_when_built(capacity):
    # It used to build, and then every arithmetic question ended in this
    # same error as a diagnostic from convert.
    with pytest.raises(InvalidCapacity, match=rf"^capacity must be at least 1, got {capacity}$"):
        PipelineConfig(capacity=capacity)


@pytest.mark.parametrize("capacity, rule", [
    (None, "an int, got None"), ("3", "an int, got '3'"), (2.5, "an int, got 2.5"),
    (True, "an int, got True"), (0, "at least 1, got 0"), (-5, "at least 1, got -5"),
])
def test_one_capacity_rule_for_every_entry_point(capacity, rule):
    # convert used to end None and "3" in a bare TypeError, accept 2.5, and
    # take True for a capacity of 1.
    tables = (rule_gates, list(rule_gates))  # the piece path and the machine
    calls = [lambda: PipelineConfig(capacity=capacity)]
    calls += [lambda fn=fn, table=table: fn(encode("3 5 +"), table, capacity)
              for fn in (convert, convert_with_trace) for table in tables]
    for call in calls:
        with pytest.raises(InvalidCapacity, match=f"^capacity must be {re.escape(rule)}$"):
            call()


def test_capacity_one_answers_a_bare_number():
    config = PipelineConfig(capacity=1)
    assert run("7 = ?", config=config).answer == "7"
    result = run("3 + 5 = ?", config=config)
    assert not result.injected and result.diagnostic.startswith("CapacityExceeded")


def test_config_errors_are_conversion_errors():
    # The CLI reports ConversionError as one error line.
    assert issubclass(InvalidTable, ConversionError)
    assert issubclass(InvalidCapacity, ConversionError)


@pytest.mark.parametrize("policy, answer", [
    (rule_gates, "8"),
    # Zero params read every token as a digit 0 that folds nothing.
    (make_learned_policy(GateParams.zeros()), "0"),
], ids=["rule", "learned"])
def test_gate_tables_are_accepted(policy, answer):
    assert run("3 + 5 = ?", config=PipelineConfig(policy=policy, capacity=8)).answer == answer


def test_run_answers_or_diagnoses_under_random_tables():
    # 400 seeded tables, 8 questions each; a table may fold anything into
    # anything, so every call ends in an answer or a diagnostic, never a raise.
    rng = random.Random(15)
    questions = (gen_questions(GenConfig(1600, 15, Stage.EASY))
                 + gen_questions(GenConfig(1600, 16, Stage.PRIORITY)))
    rng.shuffle(questions)
    diagnosed = 0
    for k in range(400):
        config = PipelineConfig(policy=random_gate_table(rng))
        for question in questions[8 * k : 8 * k + 8]:
            result = run(question, config=config)
            assert result.injected == (result.diagnostic is None)
            if not result.injected:
                assert result.answer == question
            diagnosed += result.diagnostic is not None
    assert 0 < diagnosed < 3200


def test_custom_responder_sees_augmented_prompt():
    seen = []

    def responder(prompt):
        seen.append(prompt)
        return "custom"

    result = run("3 + 5 = ?", responder=responder)
    assert result.answer == "custom"
    assert seen == ["3 + 5 = ?" + "8$" + " " * 14]


@pytest.mark.parametrize("read", [
    lambda result: result.trace.steps,
    lambda result: result.to_json_dict(),
], ids=["steps", "json"])
def test_run_folds_the_steps_only_when_read(monkeypatch, read):
    folds = []
    fold = evaluator._fold
    monkeypatch.setattr(evaluator, "_fold", lambda p: folds.append(p) or fold(p))
    result = run("2 + 3 * 4 = ?")
    assert (result.answer, folds) == ("14", [])
    read(result)
    assert len(folds) == 1
    read(result)
    assert result.to_json_dict()["trace"]["steps"][1]["result"] == 14.0
    assert [s.result for s in result.trace.steps] == [12.0, 14.0]
    assert len(folds) == 1


def test_result_json_shape():
    d = run("3 + 5 = ?").to_json_dict()
    assert d["answer"] == "8"
    assert d["injected"] is True
    assert d["expression"] == "3 5 +"
    assert d["trace"]["final"] == 8.0
    assert "diagnostic" not in d
    d2 = run("12 / 0 = ?").to_json_dict()
    assert d2["trace"] is None
    assert "DivisionByZero" in d2["diagnostic"]


def test_injected_iff_enabled_and_clean():
    questions = gen_questions(GenConfig(count=30, seed=50)) + [
        "Hello there",
        "What time is it?",
        "12 / 0 = ?",
    ]
    for question in questions:
        result = run(question)
        enabled = reference_predictor(question).enable == 1
        assert result.injected == (enabled and result.diagnostic is None)


def test_end_to_end_matches_infix_oracle():
    # Larger segment so long fractional answers always fit.
    config = PipelineConfig(inject_len=32)
    for stage in (Stage.EASY, Stage.PRIORITY):
        for question in gen_questions(GenConfig(count=500, seed=60, stage=stage)):
            expected = render(eval_infix(parse_infix(question)))
            result = run(question, config=config)
            assert result.injected is True
            assert result.answer == expected


def test_pipeline_result_defaults():
    result = PipelineResult(answer="x", injected=False, expression="")
    assert result.trace is None
    assert result.diagnostic is None


def test_long_chain_is_answered():
    question = " + ".join(["1"] * 1000) + " = ?"
    result = run(question, config=PipelineConfig(capacity=1999))
    assert result.injected is True
    assert result.answer == "1000"


def test_very_long_chain_matches_stack_oracle():
    rng = random.Random(4096)
    terms = [str(rng.randint(1, 9)) for _ in range(4096)]
    question = terms[0] + "".join(f" {rng.choice('+-*')} {t}" for t in terms[1:]) + " = ?"
    capacity = 2 * len(terms) - 1
    result = run(question, config=PipelineConfig(capacity=capacity))
    assert result.injected is True
    want = stack_oracle(convert(encode(result.expression), rule_gates, capacity))
    assert result.trace.final == want
    assert result.answer == render(want)


def test_deeply_nested_prompt_is_declined():
    question = "(" * 400 + "1" + ")" * 400 + " = ?"
    result = run(question)
    assert result.injected is False
    assert result.answer == question


@pytest.mark.parametrize("question", ["1" * 400, "9" * 400 + " + 1 = ?"],
                         ids=["400-ones", "400-nines-plus-one"])
def test_literal_past_float_range_is_declined(question):
    result = run(question)
    assert result.injected is False
    assert result.answer == question
    assert result.expression == ""
    assert result.diagnostic is None


# Digits and the question alphabet, drawn more often than other characters.
_PROMPT_CHARS = st.one_of(st.sampled_from("0123456789" * 2 + ".+-*/()=? "), st.characters())


@settings(max_examples=500, derandomize=True, deadline=None)
@example("1" * 400)
@example("9" * 400 + " + 1 = ?")
@given(st.text(_PROMPT_CHARS, max_size=60))
def test_run_never_raises(text):
    result = run(text)
    assert isinstance(result.answer, str)
    if result.injected:
        assert result.diagnostic is None and result.trace is not None
    else:
        assert result.trace is None


# ---------------------------------------------------------------------------
# run() agrees with eval_infix bit for bit: the machine reads each literal as
# written and closes it as float() of its text, and folds in the same order.

_WIDE = PipelineConfig(inject_len=64)


def _agreement(question: str) -> tuple[str, str, float, float] | None:
    """(answer, expected answer, final, expected final) when run() answers."""
    result = run(question, config=_WIDE)
    if not result.injected:
        return None
    want = eval_infix(parse_infix(question))
    return result.answer, render(want), result.trace.final, want


@pytest.mark.parametrize("question, answer", [
    ("0.0000000001 * 10000000000 = ?", "1"),
    ("1234567890123.5 - 1234567890123 = ?", "0.5"),
    ("88.1817414333776 + 409319254.4 = ?", "409319342.582"),
    ("007 + 1.50 * 3. = ?", "11.5"),
])
def test_literals_reach_the_machine_as_written(question, answer):
    got, want, final, want_final = _agreement(question)
    assert got == want == answer
    assert final == want_final


def _sweep_literal(rng: random.Random) -> str:
    digits = "".join(rng.choices("0123456789", k=rng.randint(1, 15)))
    cut = rng.randint(1, len(digits))
    return digits if cut == len(digits) else digits[:cut] + "." + digits[cut:]


def test_two_literal_sweep_agrees_with_eval_infix():
    # 30% of pairs nearly cancel: the same literal with its last digit redrawn.
    rng = random.Random(7)
    answered = 0
    for _ in range(20_000):
        a = _sweep_literal(rng)
        if rng.random() < 0.3:
            question = f"{a} - {a[:-1]}{rng.choice('0123456789')} = ?"
        else:
            question = f"{a} {rng.choice('+-*/')} {_sweep_literal(rng)} = ?"
        outcome = _agreement(question)
        if outcome is not None:
            answered += 1
            got, want, final, want_final = outcome
            assert (got, final) == (want, want_final), question
    assert answered > 19_000


_LITERALS = st.builds(
    str.__add__,
    st.text("0123456789", min_size=1, max_size=15),
    st.one_of(st.just(""), st.text("0123456789", max_size=15).map(".".__add__)),
)
_EXPRESSIONS = st.recursive(
    _LITERALS,
    lambda inner: st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner)
    | inner.map("({})".format),
    max_leaves=6,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_EXPRESSIONS)
def test_run_agrees_with_eval_infix(expression):
    outcome = _agreement(expression + " = ?")
    if outcome is not None:
        got, want, final, want_final = outcome
        assert got == want
        assert final == want_final


# ---------------------------------------------------------------------------
# Answers against exact arithmetic


def _chain(rng: random.Random, literal) -> str:
    """A 512-operand chain of literal(rng), every operator drawn at random."""
    text = literal(rng)
    for _ in range(511):
        text += f" {rng.choice('+-*/')} {literal(rng)}"
    return text + " = ?"


def _integer_literal(rng: random.Random) -> str:
    return str(rng.randint(1, 99))


def _decimal_literal(rng: random.Random) -> str:
    return rng.choice([str(rng.randint(1, 999)), f"{rng.randint(0, 99)}.{rng.randint(1, 999)}"])


_CHAIN_CONFIG = PipelineConfig(capacity=1023)


def _answered(questions, config=None) -> list[tuple[str, str, Fraction]]:
    """(question, answer, exact value) for each question run() answers."""
    out = []
    for question in questions:
        result = run(question, config=config)
        if result.injected:
            out.append((question, result.answer, exact_eval_infix(reference_parse_infix(question))))
    return out


@pytest.mark.parametrize("questions, config", [
    (gen_questions(GenConfig(4000, 61, Stage.EASY)), None),
    (gen_questions(GenConfig(4000, 62, Stage.PRIORITY)), None),
    ([_chain(random.Random(seed), _integer_literal) for seed in range(48)], _CHAIN_CONFIG),
], ids=["easy", "priority", "integer-chains-512"])
def test_answers_are_the_exact_value_to_the_digits_they_print(questions, config):
    # The exact value comes from Fraction arithmetic on each literal's
    # text, rounded half-even to 12 significant digits; float error never
    # reaches the 12th digit on these sets.
    answered = _answered(questions, config)
    assert len(answered) > 0.9 * len(questions)
    for question, answer, value in answered:
        assert answer == exact_render(value), question


def test_long_decimal_chains_agree_with_the_exact_value_to_12_digits():
    # Over 511 folds of decimal literals float error can land a value
    # above 10**12 on an integer, which prints whole where the exact
    # value prints 12 significant digits and zeros; the 12 digits agree.
    answered = _answered([_chain(random.Random(seed), _decimal_literal) for seed in range(48)],
                         _CHAIN_CONFIG)
    assert len(answered) > 40
    for question, answer, value in answered:
        assert round_sig(Fraction(answer)) == round_sig(value), question
        if answer != exact_render(value):
            assert answer.isdigit() and abs(value) >= 10**12, question


@pytest.mark.parametrize("question, answer", [
    # Within relative 1e-9 of an integer, these used to print the integer.
    ("4000000000.75 - 1 = ?", "3999999999.75"),
    ("1000000000.5 + 0 = ?", "1000000000.5"),
    ("3.5 + 75 * 33 * 67.03 * 94.02 = ?", "15597850.985"),
    # Within 1e-9 of an integer, float error still snaps.
    ("0.1 + 0.2 + 0.7 = ?", "1"),
])
def test_large_values_keep_their_fraction(question, answer):
    assert run(question).answer == answer
    assert answer == exact_render(exact_eval_infix(reference_parse_infix(question)))


# Two answers the float machine gets wrong: each literal is off by up to
# half an ulp, and the subtraction cancels every digit that was right.
@pytest.mark.xfail(strict=True, reason="float literals lose the digits the subtraction keeps")
@pytest.mark.parametrize("question, exact", [
    ("100000000000000.1 - 100000000000000 = ?", "0.1"),
    ("9007199254740993 - 9007199254740992 = ?", "1"),
])
def test_cancelling_subtraction_answers_exactly(question, exact):
    assert run(question).answer == exact
