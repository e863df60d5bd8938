import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import evaluator
from gatecalc.conversion import DenseProgram, convert
from gatecalc.evaluator import (
    DivisionByZero,
    EvalError,
    EvalTrace,
    MalformedPostfix,
    ReductionStep,
    evaluate,
    evaluate_with_trace,
    stack_oracle,
)
from gatecalc.gates import rule_gates
from gatecalc.tokenizer import Op, encode
from helpers import (
    ALL_OPS,
    random_malformed,
    random_program,
    reference_evaluate_with_trace,
    reference_reduce_once,
    rel_close,
)


def program(dense_ops):
    """Build a fully-valid program from a list of floats and Ops."""
    return DenseProgram(
        valid=[1] * len(dense_ops),
        dense=[x if not isinstance(x, Op) else 0.0 for x in dense_ops],
        ops=[x if isinstance(x, Op) else Op.NONE for x in dense_ops],
    )


def test_reduce_once_folds_leftmost_operator():
    before = program([3.0, 5.0, Op.ADD])
    after = reference_reduce_once(before)
    assert after.valid == [0, 1, 0]
    assert after.dense[1] == 8.0
    assert after.ops == [Op.NONE] * 3
    # the input is untouched
    assert before.dense == [3.0, 5.0, 0.0]
    assert before.valid == [1, 1, 1]


def test_reduce_once_uses_last_two_live_numbers():
    p = program([2.0, 3.0, 4.0, Op.MUL, Op.ADD])
    step1 = reference_reduce_once(p)
    assert step1.valid == [1, 0, 1, 0, 1]
    assert step1.dense[2] == 12.0
    step2 = reference_reduce_once(step1)
    assert step2.dense[2] == 14.0
    assert step2.valid == [0, 0, 1, 0, 0]


def test_reduce_once_underflow():
    with pytest.raises(MalformedPostfix):
        reference_reduce_once(program([Op.ADD]))
    with pytest.raises(MalformedPostfix):
        reference_reduce_once(program([5.0, Op.ADD]))


# Expected values below are worked by hand from the postfix reading.
EVAL_CASES = {
    "3 5 +": 8.0,
    "7": 7.0,
    "3 5 2 * +": 13.0,
    "2 3 4 + *": 14.0,
    "10 4 /": 2.5,
    "1 2 3 + +": 6.0,
    "10 2 - 3 -": 5.0,
    "100 10 / 5 /": 2.0,
}


@pytest.mark.parametrize("text,want", sorted(EVAL_CASES.items()))
def test_evaluate_known_value(text, want):
    assert evaluate(convert(encode(text), rule_gates)) == want


@pytest.mark.parametrize("text,want", sorted(EVAL_CASES.items()))
def test_stack_oracle_known_value(text, want):
    assert stack_oracle(convert(encode(text), rule_gates)) == want


def test_division_by_zero():
    p = convert(encode("5 0 /"), rule_gates)
    with pytest.raises(DivisionByZero):
        evaluate(p)
    with pytest.raises(DivisionByZero):
        stack_oracle(p)
    _assert_trace_matches_reference(p)


def test_malformed_cases():
    for text in ["", "3 5", "+", "3 +", "3 5 + +", "1 2 3 +"]:
        p = convert(encode(text), rule_gates)
        with pytest.raises(MalformedPostfix):
            evaluate(p)
        with pytest.raises(MalformedPostfix):
            stack_oracle(p)
        _assert_trace_matches_reference(p)


def test_unknown_op_is_malformed_on_every_route():
    p = DenseProgram([1, 1, 1], [3.0, 5.0, 0.0], [Op.NONE, Op.NONE, 7])
    with pytest.raises(MalformedPostfix, match="^cannot apply op 7$"):
        evaluate(p)
    _assert_trace_matches_reference(p)


@pytest.mark.parametrize("valid, dense, ops", [
    ([1, 1], [2.0], [0, 0]),
    ([1], [2.0], [Op.NONE, Op.NONE]),
    ([1, 1, 1], [3.0, 5.0, 0.0], [Op.NONE, Op.NONE]),
    ([], [], [Op.NONE]),
])
def test_ragged_programs_are_malformed_on_every_route(valid, dense, ops):
    # zip would stop at the shortest list and answer from what is left.
    p = DenseProgram(valid, dense, ops)
    message = f"^ragged program: {len(valid)} valid, {len(dense)} dense and {len(ops)} op slots$"
    with pytest.raises(MalformedPostfix, match=message):
        evaluate(p)
    with pytest.raises(MalformedPostfix, match=message):
        evaluate_with_trace(p).steps
    with pytest.raises(MalformedPostfix, match=message):
        evaluator._fold(p)


def test_trace_records_every_fold():
    trace = evaluate_with_trace(convert(encode("2 3 4 * +"), rule_gates))
    assert trace.final == 14.0
    assert len(trace.steps) == 2
    first = trace.steps[0]
    assert first.operands == (3.0, 4.0)
    assert first.result == 12.0
    assert first.op == Op.MUL
    second = trace.steps[1]
    assert second.operands == (2.0, 12.0)
    assert second.result == 14.0


def test_trace_json_shape():
    d = evaluate_with_trace(convert(encode("3 5 +"), rule_gates)).to_json_dict()
    assert d["final"] == 8.0
    assert d["steps"] == [
        {"a": 0, "b": 1, "op_slot": 2, "op": "+", "operands": [3.0, 5.0], "result": 8.0}
    ]


def test_reduction_steps_are_immutable_and_keep_the_worked_example_json():
    trace = evaluate_with_trace(convert(encode("3 5 2 * +"), rule_gates))
    with pytest.raises(AttributeError):
        trace.steps[0].result = 0.0
    assert json.dumps(trace.to_json_dict()) == (
        '{"steps": [{"a": 1, "b": 2, "op_slot": 3, "op": "*", "operands": [5.0, 2.0], '
        '"result": 10.0}, {"a": 0, "b": 2, "op_slot": 4, "op": "+", '
        '"operands": [3.0, 10.0], "result": 13.0}], "final": 13.0}'
    )


@pytest.mark.parametrize("text", ["3 5 +", " ".join(["7"] * 512) + " +" * 511],
                         ids=["one-fold", "chain-512"])
def test_every_step_is_a_reduction_step(text):
    # The reference comparisons pass for plain tuples too, since a tuple
    # equals the named tuple with the same fields; the type must not drift.
    steps = evaluate_with_trace(convert(encode(text), rule_gates, 1023)).steps
    assert len(steps) == text.count("+")
    assert all(type(s) is ReductionStep for s in steps)


def test_evaluate_ignores_retired_slots():
    p = program([9.0, 3.0, Op.SUB])
    p.valid[0] = 0
    p.dense[0] = 999.0
    # Only one live number and one op: the op has a single operand.
    with pytest.raises(MalformedPostfix):
        evaluate(p)
    _assert_trace_matches_reference(p)


def test_matches_construction_value():
    rng = random.Random(5150)
    for _ in range(500):
        p, want = random_program(rng)
        assert rel_close(evaluate(p), want)


def test_matches_stack_oracle_on_random_programs():
    rng = random.Random(77)
    for _ in range(2000):
        p, _ = random_program(rng)
        assert evaluate(p) == stack_oracle(p)


def test_error_classes_match_oracle_on_malformed():
    rng = random.Random(88)
    for _ in range(300):
        p = random_malformed(rng)
        with pytest.raises(MalformedPostfix):
            evaluate(p)
        with pytest.raises(MalformedPostfix):
            stack_oracle(p)
        _assert_trace_matches_reference(p)


def test_reduction_count_equals_operator_count():
    rng = random.Random(99)
    for _ in range(200):
        p, _ = random_program(rng)
        n_ops = sum(1 for i in range(p.length) if p.ops[i] != Op.NONE)
        trace = evaluate_with_trace(p)
        assert len(trace.steps) == n_ops


def test_each_reduction_retires_one_number_and_one_operator():
    rng = random.Random(101)
    for _ in range(200):
        p, _ = random_program(rng)
        while True:
            live = sum(p.valid)
            ops = sum(1 for i in range(p.length) if p.valid[i] and p.ops[i] != Op.NONE)
            if ops == 0:
                break
            p = reference_reduce_once(p)
            assert sum(p.valid) == live - 2


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10**9))
def test_single_number_program_evaluates_to_itself(n):
    p = convert(encode(str(n)), rule_gates)
    assert evaluate(p) == float(n)


def _outcome(evaluate_fn, p: DenseProgram):
    """What evaluate_fn returns, or the error a caller would see in a diagnostic."""
    try:
        return evaluate_fn(p)
    except EvalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_trace_matches_reference(p: DenseProgram) -> str:
    """evaluate, evaluate_with_trace's final and its steps, read afterwards,
    against the rescanning reference. Returns the outcome's class name."""
    before = (list(p.valid), list(p.dense), list(p.ops))
    want = _outcome(reference_evaluate_with_trace, p)
    value, trace = _outcome(evaluate, p), _outcome(evaluate_with_trace, p)
    if isinstance(want, str):
        assert value == trace == want
        return want.split(":")[0]
    # repr tells -0.0 from 0.0, and a NaN equals its own repr.
    assert repr(value) == repr(trace.final) == repr(want.final)
    assert trace.steps == want.steps
    assert json.dumps(trace.to_json_dict()) == json.dumps(want.to_json_dict())
    assert repr(trace) == repr(want) and trace == want
    assert (p.valid, p.dense, p.ops) == before
    return "value"


def _retire_some(rng: random.Random, p: DenseProgram) -> DenseProgram:
    for i in range(p.length):
        if rng.random() < 0.2:
            p.valid[i] = 0
            p.dense[i] = rng.uniform(-10.0, 10.0)
    return p


def test_trace_matches_rescanning_rule_on_random_programs():
    rng = random.Random(2023)
    for _ in range(20000):
        p, _ = random_program(rng, max_operands=30)
        _assert_trace_matches_reference(p)


def test_trace_matches_rescanning_rule_on_malformed_programs():
    rng = random.Random(2024)
    for _ in range(5000):
        _assert_trace_matches_reference(_retire_some(rng, random_malformed(rng, max_slots=12)))


def test_trace_matches_rescanning_rule_on_zero_divisors():
    rng = random.Random(2025)
    seen = set()
    for _ in range(2000):
        p, _ = random_program(rng, max_operands=12)
        for i in range(p.length):
            if p.ops[i] == Op.NONE:
                p.dense[i] = float(rng.choice((0, 0, 1, 2)))
            elif rng.random() < 0.5:
                p.ops[i] = Op.DIV
        seen.add(_assert_trace_matches_reference(p))
    assert "DivisionByZero" in seen


class _CountingList(list):
    """A list that counts its element reads, by index or by iteration."""

    def __init__(self, items, reads: list[int]):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, index):
        self.reads[0] += 1
        return super().__getitem__(index)

    def __iter__(self):
        for item in super().__iter__():
            self.reads[0] += 1
            yield item


class _CountingFlag(int):
    """A valid flag that counts its truth tests, which still happen when
    the evaluator works on a copy of the list."""

    def __new__(cls, value: int, tests: list[int]):
        flag = super().__new__(cls, value)
        flag.tests = tests
        return flag

    def __bool__(self):
        self.tests[0] += 1
        return int(self) != 0


def _chain(rng: random.Random, n_operands: int, left_deep: bool) -> list:
    """Left-deep: an operator after each number past the first. Right-deep:
    every number first, then every operator (no division, as a divisor is
    then a running result that may be zero)."""
    numbers = [float(rng.randint(1, 9)) for _ in range(n_operands)]
    if left_deep:
        slots = numbers[:1]
        for x in numbers[1:]:
            slots += [x, rng.choice(ALL_OPS)]
        return slots
    return numbers + [rng.choice((Op.ADD, Op.SUB, Op.MUL)) for _ in numbers[1:]]


@pytest.mark.parametrize("left_deep", [True, False], ids=["left-deep", "right-deep"])
@pytest.mark.parametrize("n_operands", [512, 4096])
def test_evaluation_reads_each_slot_a_bounded_number_of_times(n_operands, left_deep):
    reads, tests = [0], [0]
    p = program(_chain(random.Random(n_operands), n_operands, left_deep))
    p = DenseProgram(
        _CountingList([_CountingFlag(v, tests) for v in p.valid], reads),
        _CountingList(p.dense, reads),
        _CountingList(p.ops, reads),
    )
    # Rescanning from slot 0 for every fold would make about length**2 / 2
    # reads, or, on a copy, as many truth tests of the right-deep flags.
    # Each pass is bounded alone: the value pass in evaluate_with_trace,
    # then the fold on the first read of steps.
    trace = evaluate_with_trace(p)
    assert reads[0] <= 4 * p.length
    assert tests[0] <= p.length
    reads[0] = tests[0] = 0
    assert len(trace.steps) == n_operands - 1
    assert reads[0] <= 4 * p.length
    assert tests[0] <= p.length


def test_steps_are_folded_once_on_first_read(monkeypatch):
    folds = []
    fold = evaluator._fold
    monkeypatch.setattr(evaluator, "_fold", lambda p: folds.append(p) or fold(p))
    p = convert(encode("2 3 4 * +"), rule_gates)
    trace = evaluate_with_trace(p)
    assert (trace.final, folds) == (14.0, [])
    assert [s.result for s in trace.steps] == [12.0, 14.0]
    assert folds == [p]
    assert trace.steps is trace.steps
    assert trace == trace and repr(trace) == repr(EvalTrace(trace.steps, 14.0))
    assert trace.to_json_dict()["final"] == 14.0
    assert folds == [p]


def test_a_trace_keeps_its_constructor_equality_and_truth():
    built = EvalTrace([], 7.0)
    folded = evaluate_with_trace(convert(encode("7"), rule_gates))
    # No __len__, so a trace of no folds is still true, as the pipeline's
    # JSON needs it to be.
    assert not hasattr(EvalTrace, "__len__") and folded and built
    assert folded == built
    assert repr(folded) == repr(built) == "EvalTrace(steps=[], final=7.0)"
    assert folded.to_json_dict() == {"steps": [], "final": 7.0}
    with pytest.raises(AttributeError):
        built.missing
