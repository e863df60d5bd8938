import dataclasses
import importlib.util
import json
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatecalc import conversion, gates
from gatecalc.conversion import (
    DECISION_FIELDS,
    ConversionError,
    DenseOpMode,
    MalformedNumber,
    UnknownId,
    convert,
    convert_with_trace,
)
from gatecalc.datagen import gen_dot_place, gen_numbers_ops
from gatecalc.gates import (
    HEAD_SHAPES,
    EmptyCorpus,
    GateDecision,
    GateError,
    GateParams,
    GateTable,
    TrainConfig,
    agreement_table,
    events_from_lines,
    label_events,
    load_params,
    make_learned_policy,
    rule_gates,
    save_params,
    train_gates,
)
from gatecalc.tokenizer import (
    DOT_ID,
    OP_ID_TO_OP,
    SPACE_ID,
    TERMINATOR_ID,
    VOCAB_SIZE,
    Op,
    encode,
)
from helpers import (
    binary_loss_grad,
    column_params,
    decode_case,
    numpy_agreement_table,
    numpy_learned_policy,
    numpy_load_params,
    numpy_params,
    numpy_train_step_on_columns,
    onehot,
    onehot_logits,
    onehot_train_step,
    param_bits,
    random_gate_table,
    reference_convert_with_trace,
    reference_train_gates,
    softmax_loss_grad,
)


def tok(ch):
    return encode(ch)[0]


def rule(ch, ds):
    return rule_gates[2 * tok(ch) + ds]


# ---------------------------------------------------------------------------
# Rule policy


def test_rule_digit_before_decimal():
    d = rule("7", 0)
    assert (d.ignore, d.move, d.decimal_start) == (0, 0, 0)
    assert d.dense_mode == DenseOpMode.TIMES_TEN_ADD
    assert d.digit == 7
    assert d.op == Op.NONE


def test_rule_digit_after_decimal():
    d = rule("7", 1)
    assert d.dense_mode == DenseOpMode.BASE_MUL_ADD
    assert d.digit == 7


def test_rule_dot():
    d = rule(".", 0)
    assert d.decimal_start == 1
    assert (d.ignore, d.move) == (0, 0)


def test_rule_space():
    d = rule(" ", 0)
    assert d.move == 1
    assert d.op == Op.NONE


def test_rule_operators():
    for ch, op in (("+", Op.ADD), ("-", Op.SUB), ("*", Op.MUL), ("/", Op.DIV)):
        d = rule(ch, 0)
        assert d.move == 1
        assert d.op == op
        assert d.ignore == 0


def test_rule_junk_is_ignored():
    d = rule("x", 0)
    assert d.ignore == 1


def test_rule_terminator_is_quiet():
    for ds in (0, 1):
        d = rule("$", ds)
        assert (d.ignore, d.move, d.decimal_start) == (0, 0, 0)
        assert d.op == Op.NONE


def test_rule_depends_only_on_id_and_flag():
    assert len(rule_gates) == 2 * VOCAB_SIZE
    assert all(isinstance(d, GateDecision) for d in rule_gates)
    assert rule("a", 0) == rule("z", 0)


# ---------------------------------------------------------------------------
# Learned policy mechanics


def test_zero_params_answer_class_zero_everywhere():
    for d in make_learned_policy(GateParams.zeros()):
        assert (d.ignore, d.move, d.decimal_start) == (0, 0, 0)
        assert d.dense_mode == DenseOpMode.IGNORE
        assert d.digit == 0
        assert d.op == Op.NONE


def test_learned_policy_is_cached_and_consistent():
    # Each case holds every head's first-maximum class over that case's
    # logits, read here one case at a time.
    params = _random_params(random.Random(3), lambda rng: rng.gauss(0.0, 1.0))
    policy = make_learned_policy(params)
    assert type(policy) is GateTable and len(policy) == 2 * VOCAB_SIZE
    for case, decision in enumerate(policy):
        for (name, _, _), value in zip(HEAD_SHAPES, decision):
            z = gates._logits(params, name, case >> 1, case & 1)
            assert value == z.index(max(z))


def test_a_learned_policy_takes_one_argmax_per_token_column(monkeypatch):
    # Six heads over 18 token columns, and the dense-mode head once more
    # with its flag column added: 6 * 18 + 18, not 6 per case.
    calls = []
    argmax = gates._argmax
    monkeypatch.setattr(gates, "_argmax", lambda z: calls.append(z) or argmax(z))
    make_learned_policy(GateParams.zeros())
    assert len(calls) == 126


def test_the_stop_check_reads_only_the_token_columns_the_stream_holds(monkeypatch):
    events = events_from_lines(gen_dot_place(100, 0))
    columns = {case >> 1 for case in events}
    assert len(columns) == 11
    reads = Counter()
    logits = gates._logits

    def recording_logits(params, name, token_id, decimal_started):
        reads[name, token_id, decimal_started] += 1
        return logits(params, name, token_id, decimal_started)

    monkeypatch.setattr(gates, "_logits", recording_logits)
    # Two blocks, so two checks; a head stopped at the first is not read
    # at the second.
    config = TrainConfig()
    block = config.epoch_size * config.repeats
    _, trace = train_gates(events, dataclasses.replace(config, steps_max=2 * block))
    assert block in trace.stopped.values()
    for name, _, n_in in HEAD_SHAPES:
        checks = 1 if trace.stopped.get(name) == block else 2
        flags = (0, 1) if n_in > VOCAB_SIZE else (0,)
        want = {(name, t, flag): checks for t in columns for flag in flags}
        assert {key: n for key, n in reads.items() if key[0] == name} == want


def _random_params(rng: random.Random, draw) -> GateParams:
    return GateParams({
        name: ([[draw(rng) for _ in range(n_out)] for _ in range(n_in)],
               [draw(rng) for _ in range(n_out)])
        for name, n_out, n_in in HEAD_SHAPES
    })


def test_logits_read_the_one_hot_column():
    # w @ onehot(token) + b, with the flag appended for the dense-mode
    # head, is exactly the token's column of w plus b.
    params = _random_params(random.Random(7), lambda rng: rng.gauss(0.0, 1.0))
    for name, _, n_in in HEAD_SHAPES:
        w, b = params.heads[name]
        for token_id in range(VOCAB_SIZE):
            for ds in (0, 1):
                x = onehot(token_id, n_in)
                if name == "denseop":
                    x[VOCAB_SIZE] = ds
                assert gates._logits(params, name, token_id, ds) == onehot_logits(w, b, x)


def test_learned_policy_matches_numpy_argmax():
    # Weights from a five-value grid (with both signed zeros) make exact
    # ties common; both sides must answer the first maximum.
    grid = (-1.0, -0.5, -0.0, 0.0, 0.5)
    rng = random.Random(11)
    ties = 0
    for _ in range(500):
        params = _random_params(rng, lambda rng: rng.choice(grid))
        assert make_learned_policy(params) == numpy_learned_policy(numpy_params(params))
        for name, _, _ in HEAD_SHAPES:
            for token_id in range(VOCAB_SIZE):
                z = gates._logits(params, name, token_id, 1)
                ties += z.count(max(z)) > 1
    assert ties > 10_000


def test_agreement_table_covers_the_domain():
    rows = agreement_table(GateParams.zeros())
    assert len(rows) == 36
    assert {(r.token_id, r.decimal_started) for r in rows} == {
        (t, d) for t in range(18) for d in (0, 1)
    }


def test_heads_follow_decision_fields():
    # Training and agreement pair head i with decision field i, so every
    # reference value must be a class of the head at its position, and
    # only the dense-mode head may read the decimal flag.
    assert len(HEAD_SHAPES) == len(DECISION_FIELDS)
    for decision in rule_gates:
        for (_, n_out, _), value in zip(HEAD_SHAPES, decision):
            assert 0 <= value < n_out
    flag_fields = [
        field for field, (_, _, n_in) in zip(DECISION_FIELDS, HEAD_SHAPES)
        if n_in > VOCAB_SIZE
    ]
    assert flag_fields == ["dense_mode"]


def test_zero_params_do_not_agree():
    assert not all(row.ok for row in agreement_table(GateParams.zeros()))


# ---------------------------------------------------------------------------
# Supervision events


def test_label_events_records_decimal_flag():
    events = label_events("1.1")
    assert [c // 2 for c in events] == [1, DOT_ID, 1]
    assert [c % 2 for c in events] == [0, 0, 1]
    assert decode_case(events[2])[2].dense_mode == DenseOpMode.BASE_MUL_ADD


def test_label_events_flag_resets_after_space():
    events = label_events("1.5 2")
    assert [c % 2 for c in events] == [0, 0, 1, 1, 0]


def test_label_events_operator_targets():
    events = label_events("+ /")
    assert decode_case(events[0])[2].op == Op.ADD
    assert decode_case(events[2])[2].op == Op.DIV


def test_label_events_terminator_stops_the_replay():
    events = label_events("12$34")
    assert [c // 2 for c in events] == [1, 2, TERMINATOR_ID]


def test_label_events_propagates_malformed_number():
    with pytest.raises(MalformedNumber):
        label_events("1.2.3")


def test_label_events_are_case_ids():
    # One byte per token read: 2 * token_id + the flag it was read under.
    cases = [(1, 0), (DOT_ID, 0), (1, 1), (SPACE_ID, 1), (1, 0)]
    assert label_events("1.1 1") == bytes(2 * t + f for t, f in cases)


def test_events_from_lines_concatenates():
    events = events_from_lines(["12", "3 4"])
    assert events == label_events("12") + label_events("3 4")
    assert len(events) == 2 + 3


# ---------------------------------------------------------------------------
# Training


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus, match="^no training events$"):
        train_gates(b"")


@pytest.mark.parametrize("case_id", [36, 255])
def test_case_ids_past_the_36_cases_are_rejected(case_id):
    # The trainer's translate tables span all 256 byte values, so an id
    # past the cases would otherwise train silently on all-zero targets.
    with pytest.raises(GateError, match=f"^case id {case_id} is outside 0-35$"):
        train_gates(bytes([case_id]))
    with pytest.raises(GateError, match=f"^case id {case_id} is outside 0-35$"):
        train_gates(label_events("1.5 +") + bytes([case_id]))


@pytest.mark.parametrize("events", [[3], [300], [1.5], ["a"], (3,), bytearray(b"\x03"),
                                    [], None, 0, ""])
def test_streams_that_are_not_bytes_are_refused(events):
    # Every caller hands the trainer the bytes that label_events makes.
    name = type(events).__name__
    with pytest.raises(GateError, match=f"^events must be bytes of case ids, got {name}$"):
        train_gates(events)


def test_single_event_loss_decreases():
    events = label_events("7")
    params, before = train_gates(events, TrainConfig(steps_max=1))
    _, after = train_gates(events, TrainConfig(lr=0.0, repeats=1), init=params)
    assert after.events[0].raw < before.events[0].raw


def test_freeze_leaves_params_at_init():
    events = events_from_lines(gen_dot_place(20, 1))
    params, trace = train_gates(events, TrainConfig(lr=0.0, repeats=1))
    assert param_bits(params) == param_bits(GateParams.zeros())
    assert len(trace.events) == len(events)


def test_freeze_returns_signed_zeros_and_params_bit_for_bit():
    # A zero step turns -0.0 into 0.0, so a run at lr 0 must hand back
    # the init's params, not the ones it stepped.
    init = GateParams.zeros()
    for k, (w, b) in enumerate(init.heads.values()):
        b[0] = -0.0
        b[-1] = 0.25 * (k + 1)
        w[0][0] = -0.0
        w[1][-1] = -1.5
    events = events_from_lines(gen_dot_place(20, 1) + gen_numbers_ops(20, 1))
    params, _ = train_gates(events, TrainConfig(lr=0.0, repeats=2), init=init)
    assert params is not init
    assert param_bits(params) == param_bits(init)


def test_steps_max_caps_training():
    events = events_from_lines(gen_dot_place(20, 1))
    _, trace = train_gates(events, TrainConfig(steps_max=37))
    assert len(trace.events) == 37


def test_steps_max_bounds_the_block_it_builds():
    # A block is built from only the passes the budget leaves: all 10**6
    # passes of these 15 events would take 240 MB.
    events = label_events("1.5 + 20 3.25 /")
    assert len(events) == 15
    tracemalloc.start()
    try:
        _, trace = train_gates(events, TrainConfig(repeats=10**6, steps_max=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.events) == 10
    assert peak < 2**20


def _chunk_ends(events, config):
    """The step count at the end of each chunk's block, with no budget."""
    ends = []
    for start in range(0, len(events), config.epoch_size):
        chunk = events[start : start + config.epoch_size]
        ends.append((ends[-1] if ends else 0) + len(chunk) * config.repeats)
    return ends


def _held_rows_ok(params, events):
    rows = agreement_table(params)
    return [rows[case].ok for case in sorted(set(events))]


@pytest.mark.parametrize("seed", range(8))
def test_stages_stop_once_every_case_they_hold_agrees(seed):
    config = TrainConfig()
    params = None
    for lines in (gen_dot_place(100, seed), gen_numbers_ops(500, seed)):
        events = events_from_lines(lines)
        params, trace = train_gates(events, config, init=params)
        ends = _chunk_ends(events, config)
        stop = len(trace.agreement)
        # A stop on a chunk boundary before the stream ran out, at the first
        # boundary whose count covers every case the stream holds.
        assert stop < len(ends)
        assert len(trace.events) == ends[stop - 1]
        assert trace.agreement[-1] == len(set(events))
        assert all(n < len(set(events)) for n in trace.agreement[:-1])
        assert all(_held_rows_ok(params, events))
    # The second stage holds 35 cases: a second dot raises, so no stream
    # holds ('.', 1), and it is learned through the columns it shares.
    assert all(row.ok for row in agreement_table(params))


def test_steps_max_below_the_stop_step_trains_exactly_steps_max():
    events = events_from_lines(gen_dot_place(100, 0))
    _, full = train_gates(events)
    assert len(full.events) == 500
    params, trace = train_gates(events, TrainConfig(steps_max=333))
    assert len(trace.events) == 333
    # One count per block: the first chunk's, then the budget's cut of the second.
    assert len(trace.agreement) == 2
    assert trace.agreement[-1] == sum(_held_rows_ok(params, events))


def test_zero_lr_scores_every_event_of_a_stream_that_agrees():
    events = events_from_lines(gen_dot_place(100, 0))
    params, _ = train_gates(events)
    assert all(_held_rows_ok(params, events))
    _, trace = train_gates(events, TrainConfig(lr=0.0), init=params)
    assert len(trace.events) == 5 * len(events)
    assert trace.agreement == [len(set(events))] * len(_chunk_ends(events, TrainConfig()))


def test_training_resumes_from_init():
    events = events_from_lines(gen_dot_place(20, 1))
    params_a, _ = train_gates(events, TrainConfig(repeats=1))
    params_b, _ = train_gates(events, TrainConfig(repeats=1), init=params_a)
    w_a, _ = params_a.heads["digit"]
    w_b, _ = params_b.heads["digit"]
    assert w_a != w_b


def test_small_epochs_repeat_chunks():
    # 10 events, epoch of 4, 2 repeats: chunk passes of 4, 4, 4, 4, 2, 2.
    events = label_events("1 2 3 4 5")[:10]
    assert len(events) == 9
    _, trace = train_gates(events, TrainConfig(epoch_size=4, repeats=2))
    assert [e.token_id for e in trace.events[:8]] == [c // 2 for c in events[:4] * 2]
    assert len(trace.events) == 2 * len(events)
    assert len(trace.epoch_mean) == 6


def test_weighted_loss_is_exact_multiple():
    events = events_from_lines(gen_dot_place(30, 2) + gen_numbers_ops(30, 2))
    _, trace = train_gates(events, TrainConfig(dot_weight=5.0, op_weight=5.0))
    assert trace.events, "trace must not be empty"
    for e in trace.events:
        assert e.weighted == e.weight * e.raw
        if e.token_id == DOT_ID or e.token_id in OP_ID_TO_OP:
            assert e.weight == 5.0
        else:
            assert e.weight == 1.0


@pytest.mark.parametrize("field", ["lr", "dot_weight", "op_weight"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(GateError, match=f"{field} must be finite, got {value}"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("steps_max", [0, -3])
def test_config_rejects_steps_max_below_one(steps_max):
    with pytest.raises(GateError, match=f"^steps_max must be positive, got {steps_max}$"):
        TrainConfig(steps_max=steps_max)


@pytest.mark.parametrize("field", ["epoch_size", "repeats"])
@pytest.mark.parametrize("value", [0, -3])
def test_config_rejects_counts_below_one(field, value):
    with pytest.raises(GateError, match=f"^{field} must be positive, got {value}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["epoch_size", "repeats", "steps_max"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_config_rejects_non_int_counts(field, value):
    # A float count used to end in a TypeError from range() or a slice,
    # or, for steps_max, to stop at the next whole step.
    with pytest.raises(GateError, match=rf"^{field} must be an int, got {value!r}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_config_is_frozen(field):
    # The checks above hold only at construction, so no field may change
    # after it: a float steps_max set later ended in a TypeError from a slice.
    config = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, 2.5)


def test_training_stops_at_the_first_non_finite_loss():
    # Step 0, the digit (weight 1), has a finite loss but moves the biases
    # by up to 5e307; the dot's weight of 1e308 times the loss that leaves
    # at step 1 overflows.
    events = label_events("1.5")
    with pytest.raises(GateError, match="training diverged at step 1: weighted loss is inf"):
        train_gates(events, TrainConfig(lr=1e308, dot_weight=1e308))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(), st.floats(), st.floats())
def test_any_float_settings_train_or_raise_gate_error(lr, dot_weight, op_weight):
    events = label_events("1.5 + 20 3.25 /")
    try:
        config = TrainConfig(lr=lr, dot_weight=dot_weight, op_weight=op_weight,
                             epoch_size=4, repeats=3)
        _, trace = train_gates(events, config)
    except GateError:
        return
    assert all(math.isfinite(e.weighted) for e in trace.events)


def _head_loss(params, k, case):
    """Head k's loss at one case id, by the reference formulas over the
    one-hot input."""
    name, n_out, n_in = HEAD_SHAPES[k]
    token_id, flag, targets = decode_case(case)
    w, b = params.heads[name]
    x = onehot(token_id, n_in)
    if n_in > VOCAB_SIZE:
        x[-1] = float(flag)
    loss_grad = binary_loss_grad if n_out == 2 else softmax_loss_grad
    return loss_grad(onehot_logits(w, b, x), int(list(targets)[k]))[0]


def test_loss_trace_trends_down():
    # A stopped head keeps the loss it agreed at, so the pass means level
    # off once heads stop. What training promises is that every head stops,
    # and that its loss, the table each later step reads, is below its
    # loss at init on every case the stream holds and a quarter of it or
    # less over the stream.
    events = events_from_lines(gen_dot_place(100, 0))
    params, trace = train_gates(events)
    init = GateParams.zeros()
    assert set(trace.stopped) == {name for name, _, _ in HEAD_SHAPES}
    for k in range(len(HEAD_SHAPES)):
        for case in set(events):
            assert _head_loss(params, k, case) < _head_loss(init, k, case)
        mean, init_mean = (sum(_head_loss(p, k, c) for c in events) for p in (params, init))
        assert mean < init_mean / 4


# ---------------------------------------------------------------------------
# Convergence and the swap property


_TRAINING_LINES = gen_dot_place(100, 0) + gen_numbers_ops(500, 0)


@pytest.fixture(scope="module")
def trained():
    return train_gates(events_from_lines(_TRAINING_LINES))


@pytest.fixture(scope="module")
def trained_params(trained):
    return trained[0]


def test_train_gates_matches_one_hot_reference():
    # Column indexing must reproduce the one-hot matrix products bit for
    # bit: the same params and the same loss trace.
    events = events_from_lines(gen_dot_place(20, 5) + gen_numbers_ops(25, 5))
    assert 300 <= len(events) <= 600
    config = TrainConfig(epoch_size=40, repeats=2)
    params, trace = train_gates(events, config)
    ref_params, ref_trace = reference_train_gates(events, config, step=onehot_train_step)
    assert param_bits(params) == param_bits(ref_params)
    assert trace == ref_trace


# math.exp and numpy's vectorized exp may round differently in the last
# bit (numpy's choice of kernel depends on the host's SIMD), and numpy
# sums ten terms pairwise where the scalar trainer sums in order, so the
# scalar trainer follows the numpy one to this bound, not bit for bit.
NUMPY_TOLERANCE = 1e-12


def test_scalar_trainer_tracks_numpy_trainer(trained):
    params, trace = trained
    ref_matrices, ref_trace = reference_train_gates(
        events_from_lines(_TRAINING_LINES),
        step=numpy_train_step_on_columns,
        agreement=numpy_agreement_table,
    )
    ref_params = column_params(ref_matrices)
    for (w, b), (ref_w, ref_b) in zip(params.heads.values(), ref_params.heads.values()):
        for got, want in zip((b, *w), (ref_b, *ref_w)):
            assert max(abs(x - y) for x, y in zip(got, want)) <= NUMPY_TOLERANCE
    assert len(trace.events) == len(ref_trace.events)
    assert trace.agreement == ref_trace.agreement
    for got, want in zip(trace.events, ref_trace.events):
        assert (got.step, got.token_id, got.weight) == (want.step, want.token_id, want.weight)
        assert abs(got.raw - want.raw) <= NUMPY_TOLERANCE
        assert abs(got.weighted - want.weighted) <= NUMPY_TOLERANCE
    policy, ref_policy = make_learned_policy(params), make_learned_policy(ref_params)
    assert policy == ref_policy == numpy_learned_policy(ref_matrices)
    for line in gen_numbers_ops(200, 123):
        assert convert(encode(line), policy) == convert(encode(line), ref_policy)


def _train_outcome(train, events, config, init=None):
    """Params as raw bits and the trace with every float in hex, so NaNs
    and signed zeros compare too; or the GateError's text."""
    try:
        params, trace = train(events, config, init)
    except GateError as exc:
        return f"{type(exc).__name__}: {exc}"
    steps = [(e.step, e.token_id, e.weight.hex(), e.raw.hex(), e.weighted.hex())
             for e in trace.events]
    return param_bits(params), steps, [m.hex() for m in trace.epoch_mean]


def test_head_major_training_matches_event_major_on_default_corpora(trained):
    params, trace = trained
    ref_params, ref_trace = reference_train_gates(events_from_lines(_TRAINING_LINES))
    assert param_bits(params) == param_bits(ref_params)
    assert trace == ref_trace


_SMALL_EVENTS = events_from_lines(gen_dot_place(12, 7) + gen_numbers_ops(12, 7))

# Blocks cut every way: one chunk, uneven last chunk, a budget ending mid
# pass, on a pass boundary and on a chunk boundary, scoring at lr 0, and
# divergence in the first block, in a later block and at a NaN.
_REFERENCE_CONFIGS = {
    "default": TrainConfig(),
    "one chunk": TrainConfig(epoch_size=10_000, repeats=2),
    "uneven chunks": TrainConfig(epoch_size=37, repeats=3, lr=0.05),
    "single steps": TrainConfig(epoch_size=1, repeats=1),
    "steps_max mid pass": TrainConfig(steps_max=137),
    "steps_max at a pass end": TrainConfig(epoch_size=10, repeats=3, steps_max=40),
    "steps_max at a chunk end": TrainConfig(epoch_size=10, repeats=3, steps_max=60),
    "steps_max past the end": TrainConfig(steps_max=10**9),
    "freeze": TrainConfig(lr=0.0, repeats=2),
    "diverge at once": TrainConfig(lr=1e308, dot_weight=1e308),
    "diverge later": TrainConfig(epoch_size=7, lr=1e300, op_weight=1e10),
    "diverge to nan": TrainConfig(lr=1e308, dot_weight=0.0),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CONFIGS))
def test_head_major_training_matches_event_major(name):
    config = _REFERENCE_CONFIGS[name]
    assert (_train_outcome(train_gates, _SMALL_EVENTS, config)
            == _train_outcome(reference_train_gates, _SMALL_EVENTS, config))


def test_head_major_training_matches_event_major_from_init(trained_params):
    config = TrainConfig(epoch_size=23, repeats=4)
    assert (_train_outcome(train_gates, _SMALL_EVENTS, config, trained_params)
            == _train_outcome(reference_train_gates, _SMALL_EVENTS, config, trained_params))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False),
    st.integers(1, 60),
    st.integers(1, 4),
    st.none() | st.integers(1, 400),
)
def test_head_major_training_matches_event_major_on_any_settings(
    lr, dot_weight, op_weight, epoch_size, repeats, steps_max
):
    events = _SMALL_EVENTS[:90]
    config = TrainConfig(epoch_size=epoch_size, repeats=repeats, lr=lr, dot_weight=dot_weight,
                         op_weight=op_weight, steps_max=steps_max)
    assert (_train_outcome(train_gates, events, config)
            == _train_outcome(reference_train_gates, events, config))


def _bench_inputs():
    """The benchmark's corpus generators, loaded from their file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_inputs()


def _corpora(kind, seed):
    """Stage lines, and held-out lines, of the benchmark or the demo."""
    if kind == "bench":
        return ([BENCH.gen_dot_lines(seed), BENCH.gen_ops_lines(seed)],
                BENCH.gen_heldout_lines(seed))
    return [gen_dot_place(100, seed), gen_numbers_ops(500, seed)], gen_numbers_ops(1000, seed + 99)


_STAGED = [("bench", seed) for seed in [*range(24), 51, 99]] + [("demo", s) for s in range(8)]


@pytest.mark.parametrize("kind, seed", _STAGED, ids=[f"{k}-{s}" for k, s in _STAGED])
def test_default_stages_reach_full_agreement_and_convert_held_out_lines_exactly(kind, seed):
    stages, held_out = _corpora(kind, seed)
    params = None
    for lines in stages:
        events = events_from_lines(lines)
        params, trace = train_gates(events, init=params)
        assert trace.agreement[-1] == len(set(events))
        assert set(trace.stopped) == {name for name, _, _ in HEAD_SHAPES}
    assert all(row.ok for row in agreement_table(params))
    policy = make_learned_policy(params)
    assert [line for line in held_out
            if _outcome(line, policy) != _outcome(line, rule_gates)] == []


@pytest.mark.parametrize("kind, seed", [("bench", 51), ("demo", 0)])
def test_a_stopped_head_keeps_its_params_from_its_first_agreeing_boundary(kind, seed):
    stages, _ = _corpora(kind, seed)
    config = TrainConfig()
    params = None
    for lines in stages:
        events = events_from_lines(lines)
        init = params
        params, trace = train_gates(events, config, init=init)
        ends = _chunk_ends(events, config)
        for k, ((name, _, _), decision_field) in enumerate(zip(HEAD_SHAPES, DECISION_FIELDS)):
            stop = trace.stopped[name]
            at_stop, _ = train_gates(events, TrainConfig(steps_max=stop), init=init)
            assert param_bits(at_stop)[k] == param_bits(params)[k]
            rows = agreement_table(at_stop)
            assert all(rows[case].matches[decision_field] for case in set(events))
            if stop > ends[0]:
                before, _ = train_gates(
                    events, TrainConfig(steps_max=ends[ends.index(stop) - 1]), init=init
                )
                rows = agreement_table(before)
                assert not all(rows[case].matches[decision_field] for case in set(events))


def test_steps_max_below_the_last_stop_trains_exactly_steps_max():
    (dot_lines, ops_lines), _ = _corpora("bench", 51)
    params, _ = train_gates(events_from_lines(dot_lines))
    events = events_from_lines(ops_lines)
    _, full = train_gates(events, init=params)
    last = max(full.stopped.values())
    assert last == len(full.events)
    # The boundary before the last stop, and a cut inside the last block.
    for steps_max in (last - 250, last - 37):
        _, trace = train_gates(events, TrainConfig(steps_max=steps_max), init=params)
        assert len(trace.events) == steps_max
        assert ({name: step for name, step in trace.stopped.items() if step < steps_max}
                == {name: step for name, step in full.stopped.items() if step < steps_max})
        if steps_max == last - 250:
            assert len(trace.stopped) < len(HEAD_SHAPES)


def test_a_stopped_head_scores_each_case_at_its_own_params():
    # The digit head's column for '0' and its bias are finite, but their
    # sum is +inf, so its loss there is NaN; its other cases still score
    # finite, and the run fails at the step that reads '0', as the
    # event-major loop does, not at the first step.
    init = GateParams.zeros()
    init.heads["digit"][0][0][0] = init.heads["digit"][1][0] = 1e308
    events = label_events("5 0")
    config = TrainConfig(lr=0.0, repeats=1)
    with pytest.raises(GateError, match="^training diverged at step 2: weighted loss is nan$"):
        train_gates(events, config, init=init)
    assert (_train_outcome(train_gates, events, config, init)
            == _train_outcome(reference_train_gates, events, config, init))


def test_trained_gates_reach_full_agreement(trained_params):
    table = agreement_table(trained_params)
    bad = [r for r in table if not r.ok]
    assert bad == []


def test_trained_policy_swaps_into_conversion(trained_params):
    policy = make_learned_policy(trained_params)
    for line in gen_numbers_ops(200, 123):
        a = convert(encode(line), rule_gates)
        b = convert(encode(line), policy)
        assert a.valid == b.valid
        assert a.ops == b.ops
        assert a.dense == b.dense


def test_trained_policy_takes_the_machine(trained_params, monkeypatch):
    # Only rule_gates itself is read a piece at a time, so a policy at
    # 36/36 is checked against an independent path, not against itself.
    policy = make_learned_policy(trained_params)
    assert policy is not rule_gates
    want = convert(encode("3 5 +"), rule_gates)

    def no_machine(*args):
        raise AssertionError("the machine ran")

    monkeypatch.setattr(conversion, "_machine", no_machine)
    assert convert(encode("3 5 +"), rule_gates) == want
    with pytest.raises(AssertionError, match="the machine ran"):
        convert(encode("3 5 +"), policy)


def _trace_outcome(ids, table):
    try:
        program, cases = convert_with_trace(ids, table)
    except ConversionError as exc:
        return type(exc), str(exc)
    assert convert(ids, table) == program
    return program.to_json_dict(), cases


def test_one_pass_traces_alike_under_every_kind_of_table(trained_params):
    rng = random.Random(27)
    rule_like = [rule_gates, list(rule_gates), make_learned_policy(trained_params)]
    tables = rule_like + [random_gate_table(rng) for _ in range(30)]
    unknown = (UnknownId, "id 200 at position 1 is past the 18-id alphabet")
    for ids in (encode("1.5$2"), encode("3 5 +$"), encode("$"), bytes([3, 200])):
        outcomes = [_trace_outcome(ids, table) for table in tables]
        # A table equal in its actions to rule_gates gives its very cases.
        assert outcomes[1] == outcomes[2] == outcomes[0], ids
        for table, got in zip(tables, outcomes):
            try:
                want = reference_convert_with_trace(ids, table)
            except IndexError:  # the step reference reads the table past its end
                assert got == unknown
                continue
            except ConversionError as exc:
                want = type(exc), str(exc)
            else:
                want = want[0].to_json_dict(), want[1]
            assert got == want, (ids, table)
    assert _trace_outcome(bytes([3, 200]), rule_gates) == unknown


def test_dot_place_alone_fixes_decimal_machinery():
    params, _ = train_gates(events_from_lines(gen_dot_place(100, 0)))
    policy = make_learned_policy(params)
    for digit in range(10):
        for ds in (0, 1):
            assert policy[2 * digit + ds].digit == digit
            assert policy[2 * digit + ds].dense_mode == rule_gates[2 * digit + ds].dense_mode
    assert policy[2 * DOT_ID].decimal_start == 1


def test_learned_policy_rejects_leading_dot(trained_params):
    policy = make_learned_policy(trained_params)
    for text in (".5", "1 .5 +"):
        with pytest.raises(MalformedNumber):
            convert(encode(text), policy)


def _outcome(text, policy):
    try:
        return convert(encode(text), policy)
    except ConversionError as exc:
        return type(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="0123456789. +-*/$x")))
def test_learned_table_converts_like_rule_table(trained_params, text):
    policy = make_learned_policy(trained_params)
    assert _outcome(text, policy) == _outcome(text, rule_gates)


# ---------------------------------------------------------------------------
# Serialization


def test_params_round_trip_bit_exact(tmp_path, trained_params):
    path = tmp_path / "gates.json"
    save_params(trained_params, path)
    assert param_bits(load_params(path)) == param_bits(trained_params)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "gates.json"
    save_params(GateParams.zeros(), path)
    text = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(text)
    with pytest.raises(GateError):
        load_params(path)


def test_load_rejects_bad_shape(tmp_path):
    path = tmp_path / "gates.json"
    save_params(GateParams.zeros(), path)
    payload = json.loads(path.read_text())
    payload["digit_w"] = [[0.0] * 3] * 10
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError):
        load_params(path)


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "gates.json"
    save_params(GateParams.zeros(), path)
    payload = json.loads(path.read_text())
    payload["op_b"] = [0.0, float("inf"), 0.0, 0.0, 0.0]
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError):
        load_params(path)


def test_save_refuses_what_load_rejects(tmp_path):
    path = tmp_path / "gates.json"
    params = GateParams.zeros()
    params.heads["op"][1][1] = float("nan")
    with pytest.raises(GateError, match="head 'op' contains non-finite values"):
        save_params(params, path)
    assert not path.exists()


def _spoil(case: str, params: GateParams) -> None:
    heads = params.heads
    if case == "missing-head":
        del heads["ignore"]
    elif case == "short-column-list":
        heads["move"][0].pop()
    elif case == "short-bias":
        heads["op"][1].pop()
    elif case == "short-column":
        heads["digit"][0][3].pop()
    else:
        heads["denseop"][0][VOCAB_SIZE][2] = math.inf


@pytest.mark.parametrize("case, message", [
    ("missing-head", "head 'ignore' is missing or not numeric"),
    ("short-column-list", f"head 'move' has wrong shape (2, {VOCAB_SIZE - 1}) / (2,)"),
    ("short-bias", f"head 'op' has wrong shape (5, {VOCAB_SIZE}) / (4,)"),
    ("short-column", "head 'digit' is missing or not numeric"),
    ("non-finite-weight", "head 'denseop' contains non-finite values"),
])
def test_bad_params_are_refused_with_the_loader_messages(tmp_path, case, message):
    # The trainer and the policy builder ended in KeyError or IndexError,
    # or ran on the inf; save_params wrote a file load_params refused.
    params = GateParams.zeros()
    _spoil(case, params)
    path = tmp_path / "gates.json"
    calls = [
        lambda: train_gates(label_events("3 + 5"), init=params),
        lambda: make_learned_policy(params),
        lambda: agreement_table(params),
        lambda: save_params(params, path),
    ]
    for call in calls:
        with pytest.raises(GateError, match=f"^{re.escape(message)}$"):
            call()
    assert not path.exists()


def test_saved_rows_are_the_transposed_columns(tmp_path):
    params = _random_params(random.Random(3), lambda rng: rng.gauss(0.0, 1.0))
    path = tmp_path / "gates.json"
    save_params(params, path)
    payload = json.loads(path.read_text())
    for name, n_out, n_in in HEAD_SHAPES:
        w, b = params.heads[name]
        assert payload[f"{name}_w"] == [[w[i][j] for i in range(n_in)] for j in range(n_out)]
        assert payload[f"{name}_b"] == b


def _gate_file(**changes) -> str:
    """A gate file of small distinct weights, with fields replaced or
    (given None) dropped; entries are JSON text."""
    fields = {"format_version": "1"}
    for name, n_out, n_in in HEAD_SHAPES:
        rows = [[(j * n_in + i) / 64 for i in range(n_in)] for j in range(n_out)]
        fields[f"{name}_w"] = json.dumps(rows)
        fields[f"{name}_b"] = json.dumps([j / 8 for j in range(n_out)])
    fields.update(changes)
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items() if v is not None) + "}"


_ZERO_ROWS = json.dumps([[0.0] * VOCAB_SIZE] * 10)
_DEEP = "[" * 70 + "0.5" + "]" * 70

# Gate files the numpy loader read, by case: each must load to the same
# params or fail with the same GateError message through both loaders,
# except where _LOADER_DIFFERENCES says otherwise.
_LOADER_CORPUS = {
    "valid": _gate_file(),
    "integers": _gate_file(op_b="[1, 2, -3, 0, 4]"),
    "signed-zero": _gate_file(op_b="[-0.0, 0, -0, 0.0, 1e-320]"),
    "ragged-rows": _gate_file(digit_w=json.dumps([[0.0] * VOCAB_SIZE] * 9 + [[0.0] * 17])),
    "ragged-depth": _gate_file(digit_w=json.dumps([[0.0] * VOCAB_SIZE] * 9 + [0.0])),
    "ragged-bias": _gate_file(op_b="[0, [1], 2, 3, 4]"),
    "scalar-w": _gate_file(digit_w="0.5"),
    "scalar-b": _gate_file(op_b="1"),
    "3d-w": _gate_file(digit_w=json.dumps([[[0.0] * VOCAB_SIZE] * 10])),
    "3d-w-inner": _gate_file(digit_w=json.dumps([[[0.0]] * VOCAB_SIZE] * 10)),
    "2d-b": _gate_file(op_b="[[0, 1, 2, 3, 4]]"),
    "transposed-w": _gate_file(digit_w=json.dumps([[0.0] * 10] * VOCAB_SIZE)),
    "narrow-w": _gate_file(digit_w=json.dumps([[0.0] * 3] * 10)),
    "empty-w": _gate_file(digit_w="[]"),
    "empty-rows": _gate_file(digit_w="[[]]"),
    "short-b": _gate_file(op_b="[0, 1]"),
    "numeric-strings": _gate_file(op_b='["1", "2.5", " 3 ", "1_0", "-4e-2"]'),
    "string-nan": _gate_file(op_b='["nan", 0, 0, 0, 0]'),
    "string-1e400": _gate_file(op_b='["1e400", 0, 0, 0, 0]'),
    "string-junk": _gate_file(op_b='["abc", 0, 0, 0, 0]'),
    "string-hex": _gate_file(op_b='["0x10", 0, 0, 0, 0]'),
    "string-w": _gate_file(digit_w='"0.5"'),
    "true": _gate_file(op_b="[true, false, true, false, true]"),
    "bare-true": _gate_file(op_b="true"),
    "null-element": _gate_file(op_b="[null, 0, 0, 0, 0]"),
    "null-head": _gate_file(op_b="null"),
    "nan": _gate_file(op_b="[NaN, 0, 0, 0, 0]"),
    "nan-in-w": _gate_file(digit_w=_ZERO_ROWS.replace("0.0", "NaN", 1)),
    "1e400": _gate_file(op_b="[1e400, 0, 0, 0, 0]"),
    "minus-infinity": _gate_file(op_b="[-Infinity, 0, 0, 0, 0]"),
    "int-past-float-range": _gate_file(op_b=f"[{10**400}, 0, 0, 0, 0]"),
    "dict-head": _gate_file(op_b='{"a": 1}'),
    "dict-element": _gate_file(op_w=json.dumps([[{}] * VOCAB_SIZE] * 5)),
    "empty-dict-head": _gate_file(op_w="{}"),
    "missing-w": _gate_file(move_w=None),
    "missing-b": _gate_file(move_b=None),
    "bad-version": _gate_file(format_version="2"),
    "string-version": _gate_file(format_version='"1"'),
    "not-object": "[1]",
    "deep-nesting": _gate_file(op_b=_DEEP),
}

# Where the scalar loader deliberately answers otherwise: numpy read null
# as NaN, let float()'s OverflowError for an int past float range escape
# as a traceback, and refused arrays of more than 64 dimensions as not
# numeric.
_LOADER_DIFFERENCES = {
    "null-element": (
        ("GateError", "head 'op' contains non-finite values"),
        ("GateError", "head 'op' is missing or not numeric"),
    ),
    "null-head": (
        ("GateError", "head 'op' has wrong shape (5, 18) / ()"),
        ("GateError", "head 'op' is missing or not numeric"),
    ),
    "int-past-float-range": (
        ("OverflowError", "int too large to convert to float"),
        ("GateError", "head 'op' is missing or not numeric"),
    ),
    "deep-nesting": (
        ("GateError", "head 'op' is missing or not numeric"),
        ("GateError", f"head 'op' has wrong shape (5, 18) / {(1,) * 70}"),
    ),
}


def _load_outcome(load, path):
    try:
        params = load(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "params", param_bits(params)


@pytest.mark.parametrize("case", _LOADER_CORPUS)
def test_load_params_matches_numpy_loader(tmp_path, case):
    path = tmp_path / "gates.json"
    path.write_text(_LOADER_CORPUS[case])
    got = _load_outcome(load_params, path)
    want = _load_outcome(lambda p: column_params(numpy_load_params(p)), path)
    if case in _LOADER_DIFFERENCES:
        assert (want, got) == _LOADER_DIFFERENCES[case]
    else:
        assert got == want
        assert got[0] in ("params", "GateError")
