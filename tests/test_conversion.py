import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc.conversion import (
    CapacityExceeded,
    ConversionError,
    DenseOpMode,
    InvalidCapacity,
    MalformedNumber,
    convert,
    init_state,
    step,
)
from gatecalc.gates import GateDecision, rule_gates
from gatecalc.tokenizer import VOCAB_SIZE, Op, encode

# Mirrors how a decimal literal relates to its float value without any of
# the conversion machinery: Python's own parser is the oracle.
parse_oracle = float


def convert_text(text, capacity=64):
    return convert(encode(text), rule_gates, capacity)


def test_init_state_shape():
    # No slot exists until a number closes or an operator claims one.
    state = init_state(8)
    assert state.capacity == 8
    assert state.valid == []
    assert state.dense == []
    assert state.ops == []
    assert state.number is None
    assert state.decimal_started == 0
    assert state.mult_base == 1.0


def test_init_state_rejects_bad_capacity():
    with pytest.raises(InvalidCapacity):
        init_state(0)
    with pytest.raises(InvalidCapacity):
        init_state(-3)


def test_simple_postfix_conversion():
    program = convert_text("3 5 +")
    assert program.valid == [1, 1, 1]
    assert program.dense == [3.0, 5.0, 0.0]
    assert program.ops == [Op.NONE, Op.NONE, Op.ADD]


def test_single_number():
    program = convert_text("7")
    assert program.valid == [1]
    assert program.dense == [7.0]
    assert program.ops == [Op.NONE]


def test_multi_digit_accumulation():
    program = convert_text("123 45 *")
    assert program.dense == [123.0, 45.0, 0.0]
    assert program.ops[2] == Op.MUL


def test_decimal_literal_close_to_oracle():
    program = convert_text("1.1111")
    assert program.valid == [1]
    assert abs(program.dense[0] - parse_oracle("1.1111")) <= 1e-12


def test_two_decimals_in_one_stream():
    program = convert_text("12.5 0.25 *")
    assert abs(program.dense[0] - parse_oracle("12.5")) <= 1e-12
    assert abs(program.dense[1] - parse_oracle("0.25")) <= 1e-12
    assert program.ops == [Op.NONE, Op.NONE, Op.MUL]


def test_decimal_flag_resets_between_numbers():
    program = convert_text("1.5 2.5")
    assert abs(program.dense[0] - 1.5) <= 1e-12
    assert abs(program.dense[1] - 2.5) <= 1e-12


def test_double_dot_raises():
    with pytest.raises(MalformedNumber):
        convert_text("1.2.3")


@pytest.mark.parametrize("text", [".5", "1 .5 +", "3 + .", " . "])
def test_leading_dot_raises(text):
    # A dot must follow a digit of the number it belongs to; the infix
    # grammar rejects ".5" the same way.
    with pytest.raises(MalformedNumber):
        convert_text(text)


def test_dot_after_digit_still_opens_the_fraction():
    assert convert_text("5. 2 *").dense == [5.0, 2.0, 0.0]
    assert convert_text("1x.5").dense == [1.5]


def test_junk_characters_are_ignored():
    assert convert_text("3x 5 +") == convert_text("3 5 +")
    assert convert_text("abc") == convert_text("")


def test_spaces_collapse():
    assert convert_text("3   5  +") == convert_text("3 5 +")
    assert convert_text("  3 5 + ") == convert_text("3 5 +")


def test_operator_glued_to_number():
    # An operator closes the number in progress on its own.
    assert convert_text("3 5+") == convert_text("3 5 +")


def test_terminator_stops_the_stream():
    assert convert_text("3 5$ +") == convert_text("3 5")
    assert convert_text("$3 5 +") == convert_text("")


def test_trailing_number_is_finalized():
    program = convert_text("3 5")
    assert program.length == 2
    assert program.valid == [1, 1]


def test_empty_input_is_empty_program():
    program = convert_text("")
    assert program.length == 0


def test_capacity_exceeded():
    with pytest.raises(CapacityExceeded):
        convert_text("1 2 3", capacity=2)


def test_capacity_exact_fit():
    program = convert_text("1 2 +", capacity=3)
    assert program.length == 3


def test_step_returns_false_on_terminator_and_leaves_state():
    state = init_state(4)
    for token_id in encode("12"):
        assert step(state, token_id, rule_gates)
    before = copy.deepcopy(state)
    assert not step(state, encode("$")[0], rule_gates)
    assert state == before


def test_step_trace_matches_worked_example():
    state = init_state(4)
    for token_id in encode("3 5 +"):
        step(state, token_id, rule_gates)
    assert state.valid == [1, 1, 1]
    assert state.dense == [3.0, 5.0, 0.0]
    assert state.ops == [Op.NONE, Op.NONE, Op.ADD]
    assert state.number is None


def test_position_never_decreases():
    state = init_state(16)
    last = 0
    for token_id in encode("12.5 + 3 * 4.75 /"):
        step(state, token_id, rule_gates)
        assert len(state.valid) >= last
        last = len(state.valid)


def test_slot_count_is_numbers_plus_operators():
    cases = {"3 5 +": (2, 1), "1 2 3 + +": (3, 2), "7": (1, 0), "+ +": (0, 2)}
    for text, (numbers, operators) in cases.items():
        program = convert_text(text)
        assert program.length == numbers + operators
        assert sum(1 for op in program.ops if op != Op.NONE) == operators


def test_dense_op_mode_values():
    assert [int(m) for m in DenseOpMode] == [0, 1, 2, 3]


def test_json_dict_shape():
    assert convert_text("3 5 +").to_json_dict() == {
        "valid": [1, 1, 1],
        "dense": [3.0, 5.0, 0.0],
        "ops": ["none", "none", "+"],
    }


def test_convert_is_deterministic():
    stream = encode("12.5 0.25 * 7 +")
    assert convert(stream, rule_gates) == convert(stream, rule_gates)


@st.composite
def decimal_literal(draw):
    whole = draw(st.text(alphabet="0123456789", min_size=1, max_size=9))
    frac = draw(st.text(alphabet="0123456789", min_size=0, max_size=6))
    return whole + ("." + frac if frac else "")


@given(decimal_literal())
def test_literal_matches_float_oracle(literal):
    program = convert_text(literal)
    assert program.length == 1
    want = parse_oracle(literal)
    assert abs(program.dense[0] - want) <= 1e-12 * max(1.0, abs(want))


@given(st.text(alphabet="0123456789. +-*/", max_size=30))
def test_ignored_tokens_change_nothing(text):
    state = init_state(32)
    try:
        for token_id in encode(text):
            step(state, token_id, rule_gates)
    except MalformedNumber:
        pass
    before = copy.deepcopy(state)
    for junk in encode("axz#"):
        step(state, junk, rule_gates)
        assert state == before


@given(st.text(alphabet="0123456789. +-*/x$", max_size=30))
def test_valid_slots_form_a_prefix(text):
    try:
        program = convert_text(text, capacity=40)
    except MalformedNumber:
        return
    assert program.valid == [1] * program.length


_DECISIONS = st.builds(
    GateDecision,
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.sampled_from(DenseOpMode),
    st.integers(0, 9),
    st.sampled_from(Op),
)
_TABLES = st.lists(
    st.tuples(_DECISIONS, _DECISIONS), min_size=VOCAB_SIZE, max_size=VOCAB_SIZE
).map(tuple)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    _TABLES,
    st.lists(st.integers(0, VOCAB_SIZE - 1), max_size=80).map(bytes),
    st.integers(1, 64),
)
def test_any_table_fills_at_most_capacity_valid_slots(table, ids, capacity):
    try:
        program = convert(ids, table, capacity)
    except ConversionError:
        return
    assert program.length <= capacity
    assert program.valid == [1] * program.length
    assert len(program.dense) == len(program.ops) == program.length
