import copy
import dataclasses
import decimal
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import conversion
from gatecalc.conversion import (
    ACTION_NAMES,
    CLOSE,
    CLOSE_OP,
    DIGIT_BASE_MUL,
    DIGIT_TIMES_TEN,
    DOT,
    SKIP,
    CapacityExceeded,
    ConversionError,
    DenseOpMode,
    InvalidCapacity,
    MalformedNumber,
    NumberTooLarge,
    UnknownId,
    convert,
    convert_with_trace,
)
from gatecalc.datagen import GenConfig, Stage, gen_dot_place, gen_numbers_ops, gen_questions
from gatecalc.gates import GateDecision, GateParams, label_events, make_learned_policy, rule_gates
from gatecalc.pipeline import reference_predictor
from gatecalc.tokenizer import (
    DOT_ID,
    OP_ID_TO_OP,
    OTHER_ID,
    SLASH_ID,
    SPACE_ID,
    TERMINATOR_ID,
    VOCAB_SIZE,
    Op,
    encode,
)
from helpers import (
    init_state,
    random_gate_table,
    reference_convert_with_trace,
    reference_label_events,
    step,
)

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
    assert state.scale == 0
    assert state.decimal_started == 0
    assert state.place == 0


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
    assert program.dense[0] == parse_oracle("1.1111")
    # A float accumulator lands one ulp off on these.
    assert convert_text("183.77 0.3 95.74").dense == [183.77, 0.3, 95.74]


def test_two_decimals_in_one_stream():
    program = convert_text("12.5 0.25 *")
    assert program.dense[:2] == [parse_oracle("12.5"), parse_oracle("0.25")]
    assert program.ops == [Op.NONE, Op.NONE, Op.MUL]


def test_decimal_flag_resets_between_numbers():
    program = convert_text("1.5 2.5")
    assert program.dense == [1.5, 2.5]


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
    assert program.dense[0] == parse_oracle(literal)


def _halfway_literals(rng: random.Random) -> list[str]:
    """Exact decimal texts of points halfway between adjacent doubles, from
    subnormals up to the largest finite double, and of points just beside
    them. A halfway point has up to 767 significant digits, and the texts
    beside it carry digits past the 800 the converter's mantissa keeps."""
    lows = [0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(1.7976931348623157e308, 0)]
    lows += [rng.uniform(0, 1) * 10.0 ** rng.randint(-320, 300) for _ in range(40)]
    texts = []
    with decimal.localcontext() as context:
        context.prec = 2000
        for low in lows:
            half = (decimal.Decimal(low) + decimal.Decimal(math.nextafter(low, math.inf))) / 2
            text = format(half, "f")
            step = decimal.Decimal(10) ** (half.adjusted() - 900)
            texts += [
                text,
                format(half + step, "f"),
                format(half - step, "f"),
                (text if "." in text else text + ".") + "0" * 300 + "1",
            ]
    return texts


def test_long_literals_close_as_float_of_their_text():
    rng = random.Random(811)
    texts = _halfway_literals(rng)
    for _ in range(300):
        whole = str(rng.randint(0, 10 ** rng.randint(0, 20)))
        frac = "".join(rng.choices("0123456789", k=rng.randint(700, 1500)))
        texts.append(whole + "." + "0" * rng.randint(0, 400) + frac)
    texts += ["0." + "0" * 2000, "1" + "0" * 308 + "." + "9" * 1000]
    texts += [str(2**1024 - 2**970 - 1), str(2**1024 - 2**970 - 1) + "." + "9" * 900]
    for text in texts:
        assert convert_text(text).dense == [float(text)], text
        program, _ = reference_convert_with_trace(encode(text), rule_gates)
        assert program.dense == [float(text)], text


_PAST_FLOAT_RANGE = [
    "9" * 400,
    str(2**1024 - 2**970),  # halfway between the largest double and 2**1024
    str(2**1024 - 2**970) + ".0",
    "1" + "0" * 1000 + "." + "1" * 1000,
    "3 " + "9" * 400 + " +",
]


@pytest.mark.parametrize("text", _PAST_FLOAT_RANGE)
def test_number_past_float_range_is_a_typed_error(text):
    with pytest.raises(NumberTooLarge, match=r"^number at slot \d+ is past float range$"):
        convert_text(text)
    with pytest.raises(NumberTooLarge):
        reference_convert_with_trace(encode(text), rule_gates)


def test_long_literal_costs_the_same_per_digit():
    # A mantissa that grew with every digit made this quadratic (about
    # 15 s on a 2-vCPU host); folding the digits past 800 keeps it to
    # tens of milliseconds.
    text = "1." + "3" * 300_000
    start = time.perf_counter()
    program = convert_text(text)
    assert time.perf_counter() - start < 3.0
    assert program.dense == [float(text)]


def _folding_table(rng: random.Random):
    """A random table whose digits always fold, by random modes, and whose
    dot opens the fraction, so long digit runs reach the mantissa bound."""
    table = list(random_gate_table(rng))
    for token_id in range(10):
        table[token_id] = tuple(
            GateDecision(0, 0, 0, rng.choice(list(DenseOpMode)), rng.randint(0, 9), Op.NONE)
            for _ in range(2)
        )
    table[DOT_ID] = (GateDecision(0, 0, 1, DenseOpMode.IGNORE, 0, Op.NONE), table[DOT_ID][1])
    return tuple(table)


def test_long_numbers_match_the_exact_reference_under_any_modes():
    # The reference keeps every digit of the mantissa; the converter folds
    # digits past its bound, which must not change one closed value.
    rng = random.Random(812)
    for _ in range(150):
        table = _folding_table(rng)
        digits = "".join(rng.choices("0123456789", k=rng.randint(1, 2500)))
        cut = rng.randint(1, len(digits))
        text = digits[:cut] + "." + digits[cut:] + rng.choice(["", " 7 +", "$"])
        ids = encode(text)
        got = _outcome(convert_with_trace, ids, table, 4)
        assert got == _outcome(reference_convert_with_trace, ids, table, 4), text[:40]


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


# ---------------------------------------------------------------------------
# convert_with_trace against the per-token step reference


def test_trace_holds_one_flag_per_token_read():
    program, flags = convert_with_trace(encode("1.5 2"), rule_gates)
    assert program == convert_text("1.5 2")
    assert list(flags) == [0, 0, 1, 1, 0]
    # The terminator is read, under the flag of the number it closes, and
    # nothing after it is.
    assert list(convert_with_trace(encode("1.2$34"), rule_gates)[1]) == [0, 0, 1, 1]


def test_convert_with_trace_rejects_bad_capacity():
    for capacity in (0, -3):
        with pytest.raises(InvalidCapacity, match=f"got {capacity}$"):
            convert_with_trace(encode("1"), rule_gates, capacity)


def _outcome(fn, ids, table, capacity):
    try:
        program, flags = fn(ids, table, capacity)
    except ConversionError as exc:
        return type(exc), str(exc)
    return program.to_json_dict(), flags


_SWEEP_ALPHABET = "0123456789. +-*/x$"


@pytest.mark.parametrize("kind, count, seed", [
    ("rule", 80_000, 1),
    ("learned-zeros", 40_000, 2),
    ("random", 80_000, 3),
])
def test_convert_with_trace_matches_step_reference(kind, count, seed):
    rng = random.Random(seed)
    if kind == "rule":
        tables = [rule_gates]
    elif kind == "learned-zeros":
        tables = [make_learned_policy(GateParams.zeros())]
    else:
        tables = [random_gate_table(rng) for _ in range(50)]
    reached = Counter()
    for i in range(count):
        table = tables[i % len(tables)]
        text = "".join(rng.choice(_SWEEP_ALPHABET) for _ in range(rng.randint(0, 24)))
        ids, capacity = encode(text), rng.randint(1, 20)
        got = _outcome(convert_with_trace, ids, table, capacity)
        assert got == _outcome(reference_convert_with_trace, ids, table, capacity), (text, capacity)
        # The flags are replayed after convert, which raises every error.
        try:
            assert got[0] == convert(ids, table, capacity).to_json_dict()
        except ConversionError as exc:
            assert got == (type(exc), str(exc))
        if isinstance(got[1], bytes):
            if TERMINATOR_ID in ids:
                reached[f"terminator under flag {got[1][-1]}"] += 1
            for token_id, flag in zip(ids, got[1]):
                d = table[token_id][flag]
                if not (d.ignore or d.decimal_start or d.move):
                    reached[f"digit in mode {d.dense_mode.name}"] += 1
                reached["dot or op under flag 1"] += flag == 1 and DOT_ID <= token_id <= SLASH_ID
                if token_id != TERMINATOR_ID:
                    reached[ACTION_NAMES[d.action[0]]] += 1
        else:
            reached[got[0].__name__] += 1
    if kind == "random":
        # The random tables reach the decisions the rule table never makes,
        # and every one of the machine's eight actions.
        for case in ("digit in mode DIRECT_ADD", "digit in mode IGNORE",
                     "dot or op under flag 1", "MalformedNumber", "CapacityExceeded",
                     "terminator under flag 0", "terminator under flag 1", *ACTION_NAMES):
            assert reached[case] > 0, case


def test_rule_table_compiles_to_the_expected_actions():
    want = {}
    for digit in range(10):
        want[digit] = ((DIGIT_TIMES_TEN, digit), (DIGIT_BASE_MUL, digit))
    want[DOT_ID] = ((DOT, 0),) * 2
    for token_id, op in OP_ID_TO_OP.items():
        want[token_id] = ((CLOSE_OP, op),) * 2
    want[SPACE_ID] = ((CLOSE, 0),) * 2
    want[OTHER_ID] = ((SKIP, 0),) * 2
    for token_id, actions in want.items():
        assert tuple(d.action for d in rule_gates[token_id]) == actions, token_id


def test_action_is_derived_not_a_field():
    d = rule_gates[7][1]
    same = GateDecision(*d)
    assert same == d and hash(same) == hash(d) and same.action == d.action
    assert len(tuple(d)) == 6
    assert "action" not in repr(d)
    assert dataclasses.replace(d, move=1).action == (CLOSE, 0)


# The decision fields each action leaves unread: the machine reads ignore,
# then decimal_start, then move with op, then digit by dense_mode, and
# stops at the first that decides the token.
_UNREAD_FIELDS = {
    SKIP: ("move", "decimal_start", "dense_mode", "digit", "op"),
    DOT: ("move", "dense_mode", "digit", "op"),
    CLOSE: ("dense_mode", "digit"),
    CLOSE_OP: ("dense_mode", "digit"),
}
_FIELD_VALUES = {
    "move": (0, 1), "decimal_start": (0, 1), "dense_mode": tuple(DenseOpMode),
    "digit": tuple(range(10)), "op": tuple(Op),
}


def _same_actions(rng: random.Random, table):
    """table with every field its actions leave unread redrawn, and the
    terminator's rows, which the machine never reads, redrawn whole."""
    def redraw(d):
        unread = _UNREAD_FIELDS.get(d.action[0], ("op",))
        other = dataclasses.replace(d, **{f: rng.choice(_FIELD_VALUES[f]) for f in unread})
        assert other.action == d.action
        return other

    rows = [tuple(redraw(d) for d in row) for row in table]
    rows[TERMINATOR_ID] = random_gate_table(rng)[TERMINATOR_ID]
    return tuple(rows)


def test_tables_with_equal_actions_convert_alike():
    # Action equality is the swap criterion: the fields an action leaves
    # unread may take any value without changing one output.
    rng = random.Random(13)
    changed = 0
    for _ in range(40):
        table = random_gate_table(rng)
        other = _same_actions(rng, table)
        changed += sum(a != b for row, other_row in zip(table, other)
                       for a, b in zip(row, other_row))
        for _ in range(500):
            text = "".join(rng.choice(_SWEEP_ALPHABET) for _ in range(rng.randint(0, 24)))
            ids, capacity = encode(text), rng.randint(1, 20)
            assert _outcome(convert_with_trace, ids, other, capacity) == _outcome(
                convert_with_trace, ids, table, capacity
            ), text
    assert changed > 40 * 20


@pytest.mark.parametrize("lines", [gen_dot_place(2000, 21), gen_numbers_ops(2000, 22)],
                         ids=["dot-place", "numbers-ops"])
def test_label_events_match_the_step_replay(lines):
    for line in lines:
        assert label_events(line) == reference_label_events(line)


@pytest.mark.parametrize("token_id", [18, 255])
@pytest.mark.parametrize("kind", ["rule", "random"])
def test_ids_past_the_alphabet_are_a_typed_error(kind, token_id):
    table = rule_gates if kind == "rule" else random_gate_table(random.Random(token_id))
    message = f"^id {token_id} at position 0 is past the 18-id alphabet$"
    for fn in (convert, convert_with_trace):
        with pytest.raises(UnknownId, match=message):
            fn(bytes([token_id]) + encode("3 5 +"), table)
    if kind == "rule":
        with pytest.raises(UnknownId, match=f"^id {token_id} at position 3 is"):
            convert(encode("3 5") + bytes([token_id]) + encode(" +"), rule_gates)
        # Nothing after the terminator is read.
        assert convert(encode("3 5 +$") + bytes([token_id]), rule_gates).dense == [3.0, 5.0, 0.0]


def test_a_short_table_still_raises_index_error():
    with pytest.raises(IndexError):
        convert(encode("3 5 +"), rule_gates[:3])


# Under rule_gates itself convert reads whole pieces; an equal table that
# is not rule_gates takes the per-character machine. tuple(rule_gates) and
# rule_gates[:] are rule_gates itself, so a list stands in for it.
_MACHINE_RULE_GATES = list(rule_gates)


def _pieces_and_machine(ids, capacity):
    """The outcome of both paths: every dense value as float.hex, the ops
    and valid flags, or the error type and message."""
    outcomes = []
    for table in (rule_gates, _MACHINE_RULE_GATES):
        try:
            program = convert(ids, table, capacity)
        except ConversionError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(([x.hex() for x in program.dense], program.ops, program.valid))
    return outcomes


def _spaced_chain(rng: random.Random, n: int) -> str:
    question = str(rng.randint(0, 999))
    for _ in range(n - 1):
        operand = rng.choice([str(rng.randint(0, 999)), f"{rng.randint(0, 99)}.{rng.randint(0, 999)}"])
        question += f" {rng.choice('+-*/')} {operand}"
    return question + " = ?"


def _question_postfixes() -> list[str]:
    """The postfix reference_predictor gives for every arithmetic question
    gen_questions writes for two stages, and for spaced 512-operand chains."""
    questions = []
    for stage in (Stage.EASY, Stage.PRIORITY):
        questions += gen_questions(GenConfig(count=2000, seed=24, stage=stage))
    rng = random.Random(512)
    questions += [_spaced_chain(rng, 512) for _ in range(4)]
    predicted = [reference_predictor(question) for question in questions]
    return [p.expression for p in predicted if p.enable]


def test_piece_path_matches_the_machine_on_random_id_streams():
    rng = random.Random(24)
    # Half the draws are digits and spaces, so many streams are whole.
    pool = list(range(VOCAB_SIZE)) + [*range(10), SPACE_ID] * 2
    reached = Counter()
    for _ in range(4000):
        ids = bytes(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        for capacity in range(1, len(ids) + 2):
            pieces, machine = _pieces_and_machine(ids, capacity)
            assert pieces == machine, (ids, capacity)
            if conversion._convert_pieces(ids, capacity) is not None:
                reached["piece path"] += 1
            else:
                reached["error" if isinstance(pieces[0], type) else "machine program"] += 1
    assert min(reached.values()) > 4000, reached


@pytest.mark.parametrize("text", [
    "3+", "+5", ".5", "5.5.5", "?", "x", "3 +5", "3+ 5", "5 .", "5. 3", "3?", "3 5 + x",
    "1 2 3", "12.", "0.0", "007", "", "   ", "3$+", "$", "3 5$ +", "9" * 308, "9" * 309,
])
def test_piece_path_matches_the_machine_on_glued_and_odd_pieces(text):
    for capacity in (1, 2, 3, 4, 64):
        pieces, machine = _pieces_and_machine(encode(text), capacity)
        assert pieces == machine, capacity


def test_piece_path_matches_the_machine_on_long_literals():
    texts = _halfway_literals(random.Random(811)) + _PAST_FLOAT_RANGE
    for text in texts:
        pieces, machine = _pieces_and_machine(encode(text), 64)
        assert pieces == machine, text


def test_piece_path_matches_the_machine_on_question_postfixes():
    for expression in _question_postfixes():
        ids = encode(expression)
        pieces, machine = _pieces_and_machine(ids, len(ids) + 1)
        assert pieces == machine, expression


def test_rule_table_converts_questions_without_the_machine(monkeypatch):
    # A count, not a timing: with the machine stubbed out, every question
    # still converts under rule_gates, and a glued piece still reaches it.
    expressions = _question_postfixes()
    want = [convert(encode(e), rule_gates, len(e) + 1) for e in expressions]

    def no_machine(*args):
        raise AssertionError("the machine ran")

    monkeypatch.setattr(conversion, "_machine", no_machine)
    assert [convert(encode(e), rule_gates, len(e) + 1) for e in expressions] == want
    for ids, table in ((encode("3+5"), rule_gates), (encode("3 ?"), rule_gates),
                       (bytes([3, 200]), rule_gates), (encode("3 5 +"), _MACHINE_RULE_GATES)):
        with pytest.raises(AssertionError, match="the machine ran"):
            convert(ids, table)
