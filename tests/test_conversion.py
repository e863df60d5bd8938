import copy
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
    CASES,
    CLOSE,
    CLOSE_OP,
    DECISION_FIELDS,
    DIGIT_BASE_MUL,
    DIGIT_TIMES_TEN,
    DOT,
    SKIP,
    STOP,
    CapacityExceeded,
    ConversionError,
    DenseOpMode,
    GateTable,
    InvalidCapacity,
    InvalidTable,
    MalformedNumber,
    NumberTooLarge,
    UnknownId,
    _action,
    convert,
    convert_with_trace,
)
from gatecalc.datagen import GenConfig, Stage, gen_dot_place, gen_numbers_ops, gen_questions
from gatecalc.gates import GateDecision, GateParams, label_events, make_learned_policy, rule_gates
from gatecalc.pipeline import PipelineConfig, reference_predictor, run
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
    random_params,
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
    for case in range(20):  # each digit under flag 0, then under flag 1
        table[case] = GateDecision(
            0, 0, 0, rng.choice(list(DenseOpMode)), rng.randint(0, 9), Op.NONE
        )
    table[2 * DOT_ID] = GateDecision(0, 0, 1, DenseOpMode.IGNORE, 0, Op.NONE)
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
_TABLES = st.lists(_DECISIONS, min_size=2 * VOCAB_SIZE, max_size=2 * VOCAB_SIZE).map(tuple)


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


def _cases(text: str, flags: list[int]) -> list[int]:
    return [2 * t + f for t, f in zip(encode(text), flags)]


def test_trace_holds_one_case_per_token_read():
    program, cases = convert_with_trace(encode("1.5 2"), rule_gates)
    assert program == convert_text("1.5 2")
    assert list(cases) == _cases("1.5 2", [0, 0, 1, 1, 0]) == [2, 20, 11, 31, 4]
    # The terminator is read, under the flag of the number it closes, and
    # nothing after it is.
    assert list(convert_with_trace(encode("1.2$34"), rule_gates)[1]) == _cases("1.2$", [0, 0, 1, 1])


def test_convert_with_trace_rejects_bad_capacity():
    for capacity in (0, -3):
        with pytest.raises(InvalidCapacity, match=f"got {capacity}$"):
            convert_with_trace(encode("1"), rule_gates, capacity)


def _outcome(fn, ids, table, capacity):
    try:
        program, cases = fn(ids, table, capacity)
    except ConversionError as exc:
        return type(exc), str(exc)
    return program.to_json_dict(), cases


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
    compiled = [GateTable(table).actions for table in tables]
    reached = Counter()
    for i in range(count):
        table, actions = tables[i % len(tables)], compiled[i % len(tables)]
        text = "".join(rng.choice(_SWEEP_ALPHABET) for _ in range(rng.randint(0, 24)))
        ids, capacity = encode(text), rng.randint(1, 20)
        got = _outcome(convert_with_trace, ids, table, capacity)
        assert got == _outcome(reference_convert_with_trace, ids, table, capacity), (text, capacity)
        # convert runs the same pass, keeps its program and raises its errors.
        try:
            assert got[0] == convert(ids, table, capacity).to_json_dict()
        except ConversionError as exc:
            assert got == (type(exc), str(exc))
        if isinstance(got[1], bytes):
            if TERMINATOR_ID in ids:
                reached[f"terminator under flag {got[1][-1] & 1}"] += 1
            for case in got[1]:
                token_id, flag, d = case >> 1, case & 1, table[case]
                if not (d.ignore or d.decimal_start or d.move):
                    reached[f"digit in mode {d.dense_mode.name}"] += 1
                reached["dot or op under flag 1"] += flag == 1 and DOT_ID <= token_id <= SLASH_ID
                reached[ACTION_NAMES[actions[case][0]]] += 1
        else:
            reached[got[0].__name__] += 1
    if kind == "random":
        # The random tables reach the decisions the rule table never makes,
        # and every one of the machine's nine actions, stop at a terminator.
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
        assert rule_gates.actions[2 * token_id : 2 * token_id + 2] == actions, token_id


@pytest.mark.parametrize("kind", ["rule", "learned", "random"])
def test_action_is_derived_not_a_field(kind):
    rng = random.Random(11)
    if kind == "rule":
        decisions = rule_gates
    elif kind == "learned":
        decisions = make_learned_policy(random_params(rng, lambda r: r.gauss(0.0, 1.0)))
    else:
        decisions = random_gate_table(rng)
    assert not any(hasattr(d, "action") for d in decisions)
    assert DECISION_FIELDS == GateDecision._fields
    terminator = (2 * TERMINATOR_ID, 2 * TERMINATOR_ID + 1)
    assert GateTable(decisions).actions == tuple(
        (STOP, 0) if case in terminator else _action(d) for case, d in enumerate(decisions)
    )
    d = decisions[2 * 7 + 1]
    same = GateDecision(*d)
    assert same == d and hash(same) == hash(d) and _action(same) == _action(d)
    assert len(tuple(d)) == 6
    assert "action" not in repr(d)
    assert _action(d._replace(ignore=0, decimal_start=0, move=1, op=Op.NONE)) == (CLOSE, 0)


def test_the_terminator_compiles_to_stop_whatever_it_decides():
    rng = random.Random(14)
    tables = [rule_gates, make_learned_policy(random_params(rng, lambda r: r.gauss(0.0, 1.0)))]
    tables += [GateTable(random_gate_table(rng)) for _ in range(50)]
    terminator = (2 * TERMINATOR_ID, 2 * TERMINATOR_ID + 1)
    decided = set()
    for table in tables:
        for case, (decision, action) in enumerate(zip(table, table.actions)):
            if case in terminator:
                assert action == (STOP, 0), case
                decided.add(_action(decision)[0])
            else:
                assert action == _action(decision), case
    # The terminator's decisions would compile to every other action.
    assert decided == set(range(STOP))


def test_a_prebuilt_table_compiles_no_decision(monkeypatch):
    table = make_learned_policy(random_params(random.Random(12), lambda r: r.gauss(0.0, 1.0)))
    calls = []
    action = conversion._action
    monkeypatch.setattr(conversion, "_action", lambda d: calls.append(d) or action(d))
    for text in ("3 + 5", "3.25 * 10 - 7", "12 / 4 $ 9"):
        for fn in (convert, convert_with_trace):
            try:
                fn(encode(text), table)
            except ConversionError:
                pass
    assert calls == []
    # Only building a table compiles, one decision per case.
    GateTable(list(table))
    assert len(calls) == CASES


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
    terminator's two cases, which compile to stop whatever they decide,
    redrawn whole."""
    def redraw(d, action):
        unread = _UNREAD_FIELDS.get(action[0], ("op",))
        return d._replace(**{f: rng.choice(_FIELD_VALUES[f]) for f in unread})

    actions = GateTable(table).actions
    cases = list(map(redraw, table, actions))
    terminator = slice(2 * TERMINATOR_ID, 2 * TERMINATOR_ID + 2)
    cases[terminator] = random_gate_table(rng)[terminator]
    assert GateTable(cases).actions == actions
    return tuple(cases)


def test_tables_with_equal_actions_convert_alike():
    # Action equality is the swap criterion: the fields an action leaves
    # unread may take any value without changing one output.
    rng = random.Random(13)
    changed = 0
    for _ in range(40):
        table = random_gate_table(rng)
        other = _same_actions(rng, table)
        changed += sum(a != b for a, b in zip(table, other))
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


@pytest.mark.parametrize("table", [
    rule_gates[:30], rule_gates[:3], None, tuple(range(CASES)),
    GateTable, dict(enumerate(rule_gates)), rule_gates + rule_gates[:1],
], ids=["30-cases", "3-cases", "none", "36-ints", "the-class", "dict", "37-cases"])
def test_a_malformed_table_is_invalid(table):
    # The first four ended in IndexError, TypeError and AttributeError.
    for fn in (convert, convert_with_trace):
        with pytest.raises(InvalidTable, match="^policy must be 36 GateDecisions$"):
            fn(encode("3 + 5"), table)
    with pytest.raises(InvalidTable, match="^policy must be 36 GateDecisions$"):
        GateTable(table)


# Under rule_gates itself convert reads whole pieces; an equal table that
# is not rule_gates takes the per-character machine. A list stands in for
# it, and is made a GateTable, checked, on every call.
_MACHINE_RULE_GATES = list(rule_gates)


def test_a_table_is_checked_once_when_built(monkeypatch):
    built = [make_learned_policy(GateParams.zeros()), GateTable(_MACHINE_RULE_GATES)]
    checked = []
    new = GateTable.__new__

    def counting_new(cls, decisions):
        checked.append(decisions)
        return new(cls, decisions)

    monkeypatch.setattr(GateTable, "__new__", counting_new)
    # The piece path, rule_gates' machine fallback, and every GateTable.
    for table in (rule_gates, *built):
        for text in ("3 + 5", "3+5"):
            convert(encode(text), table)
            convert_with_trace(encode(text), table)
        run("3 + 5 = ?", config=PipelineConfig(policy=table))
    assert checked == []
    # A plain list is checked on every call, and once by the config it is kept in.
    convert(encode("3 + 5"), _MACHINE_RULE_GATES)
    convert_with_trace(encode("3 + 5"), _MACHINE_RULE_GATES)
    config = PipelineConfig(policy=_MACHINE_RULE_GATES)
    assert run("3 + 5 = ?", config=config).answer == run("3 + 5 = ?", config=config).answer == "8"
    assert checked == [_MACHINE_RULE_GATES] * 3


def test_convert_with_trace_reads_no_piece(monkeypatch):
    # The trace comes from the machine's one pass under every table,
    # rule_gates included, and equals the piece path's program.
    expressions = [(encode(e), len(e) + 1) for e in _question_postfixes()]
    programs = [convert(ids, rule_gates, capacity) for ids, capacity in expressions]

    def no_pieces(*args):
        raise AssertionError("the piece path ran")

    monkeypatch.setattr(conversion, "_convert_pieces", no_pieces)
    for (ids, capacity), program in zip(expressions, programs):
        got = convert_with_trace(ids, rule_gates, capacity)
        assert got == (program, reference_convert_with_trace(ids, rule_gates, capacity)[1])


def test_one_machine_pass_per_call(monkeypatch):
    passes = []
    machine = conversion._machine

    def counting_machine(*args):
        passes.append(args)
        return machine(*args)

    monkeypatch.setattr(conversion, "_machine", counting_machine)
    tables = [rule_gates, _MACHINE_RULE_GATES, random_gate_table(random.Random(7))]
    # Each text, and whether rule_gates' convert reads it whole at capacity 3.
    # No piece holding the terminator is whole: the machine stops at it.
    texts = [("3 5 +", True), ("1.5 2 *$ 4", False), ("", True),
             ("3+5", False), ("1..5", False), ("3 5 + 7", False)]
    for text, whole in texts:
        for table in tables:
            for fn in (convert, convert_with_trace):
                before = len(passes)
                try:
                    fn(encode(text), table, 3)
                except ConversionError:
                    pass
                pieces = whole and fn is convert and table is rule_gates
                assert len(passes) - before == (0 if pieces else 1), (text, fn, table)


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


# Pieces just outside the piece path's slot table, which the checked
# literal path reads.
_NEAR_MISSES = ["100", "00", "07", "5.", "0.5", "99."]


def _slots(program):
    return [(x.hex(), op) for x, op in zip(program.dense, program.ops)]


def _both_paths(text: str, capacity: int = 3):
    """The slots of text on the piece path (None where it leaves it) and
    from the machine."""
    ids = encode(text)
    program = conversion._convert_pieces(ids, capacity)
    return program and _slots(program), _slots(convert(ids, _MACHINE_RULE_GATES, capacity))


def test_every_table_slot_is_the_one_the_checked_path_and_the_machine_give(monkeypatch):
    ops, ints = list("+-*/"), [str(i) for i in range(100)]
    assert set(conversion._SLOTS) == {piece.encode() for piece in ops + ints}
    for piece in ops + ints:
        table, machine = _both_paths(piece)
        assert table == machine, piece
    # With the integers out of the table, each takes the checked path.
    ops_only = {op.encode(): conversion._SLOTS[op.encode()] for op in ops}
    monkeypatch.setattr(conversion, "_SLOTS", ops_only)
    for piece in ints:
        checked, machine = _both_paths(piece)
        assert checked == machine, piece


@pytest.mark.parametrize("piece", _NEAR_MISSES)
def test_near_misses_take_the_checked_path_and_match_the_machine(piece):
    assert piece.encode() not in conversion._SLOTS
    for text in (piece, f"3 {piece} *"):
        checked, machine = _both_paths(text)
        assert checked is not None and checked == machine, text
