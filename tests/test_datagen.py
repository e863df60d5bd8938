import builtins
import io
import random
import re

import pytest

from gatecalc.conversion import convert
from gatecalc.datagen import (
    DataError,
    GenConfig,
    INSTRUCTION_TEXT,
    Stage,
    gen_arith_qa,
    gen_dot_place,
    gen_numbers_ops,
    gen_questions,
    load_training_lines,
    mix_datasets,
    qa_record,
    read_records,
    write_json_array,
    write_jsonl,
    write_lines,
)
from gatecalc.evaluator import evaluate
from gatecalc.gates import events_from_lines, rule_gates
from gatecalc.infix import eval_infix, parse_infix, to_postfix
from gatecalc.pipeline import run
from gatecalc.render import render
from gatecalc.tokenizer import encode
from helpers import rel_close


# ---------------------------------------------------------------------------
# Dot place


def test_gen_dot_place_shape():
    lines = gen_dot_place(100, 0)
    assert len(lines) == 100
    pattern = re.compile(r"^[1-9][0-9]*\.[0-9]+$")
    for i, line in enumerate(lines):
        assert len(line) == 6
        assert pattern.match(line)
        assert line.index(".") == 1 + i % 4


def test_gen_dot_place_matches_float_oracle():
    for line in gen_dot_place(100, 0):
        program = convert(encode(line), rule_gates)
        assert program.length == 1
        assert abs(program.dense[0] - float(line)) <= 1e-12 * max(1.0, float(line))


# ---------------------------------------------------------------------------
# Numbers and ops


def test_gen_numbers_ops_converts_cleanly():
    for line in gen_numbers_ops(500, 0):
        convert(encode(line), rule_gates, capacity=128)


def test_gen_numbers_ops_structure():
    lines = gen_numbers_ops(500, 0)
    assert len(lines) == 500
    op_only = [l for l in lines if set(l) <= set("+-*/ ")]
    junky = [l for l in lines if any(c in "abcxyz#" for c in l)]
    terminated = [l for l in lines if "$" in l]
    assert len(op_only) >= 50
    assert len(junky) >= 60
    assert len(terminated) >= 50


def test_gen_numbers_ops_covers_gate_domain():
    # Every decision case that can occur in clean text shows up in the
    # default training corpus, both decimal-flag settings included.
    seen = set(events_from_lines(gen_dot_place(100, 0) + gen_numbers_ops(500, 0)))
    for token_id in range(18):
        assert 2 * token_id in seen
    for digit in range(10):
        assert 2 * digit + 1 in seen
    assert 2 * 15 + 1 in seen  # space closing a decimal number
    assert 2 * 17 + 1 in seen  # junk inside a decimal number


# ---------------------------------------------------------------------------
# Question records


def test_worked_example_record():
    assert qa_record("3 + 5 = ?").to_dict() == {
        "instruction": "Please caculate this.",
        "input": "3 + 5 = ?",
        "output": "8",
        "swift_express": "3 5 +",
    }


def test_instruction_text_is_verbatim():
    assert INSTRUCTION_TEXT == "Please caculate this."


def test_qa_records_are_self_consistent():
    for record in gen_arith_qa(GenConfig(count=200, seed=5)):
        assert record.instruction == INSTRUCTION_TEXT
        postfix = parse_infix(record.input)
        assert to_postfix(postfix) == record.swift_express
        machine = evaluate(convert(encode(record.swift_express), rule_gates))
        assert render(machine) == record.output
        assert rel_close(machine, eval_infix(postfix))


def test_easy_stage_shape():
    for record in gen_arith_qa(GenConfig(count=100, seed=9, stage=Stage.EASY)):
        assert record.input.endswith(" = ?")
        n_ops = len(re.findall(r" [+\-*/] ", record.input))
        assert 1 <= n_ops <= 2


def test_priority_stage_orders_operators():
    for record in gen_arith_qa(GenConfig(count=100, seed=9, stage=Stage.PRIORITY)):
        ops = re.findall(r" ([+\-*/]) ", record.input)
        assert 2 <= len(ops) <= 4
        low = [i for i, o in enumerate(ops) if o in "+-"]
        high = [i for i, o in enumerate(ops) if o in "*/"]
        assert low and high
        assert min(low) < max(high)


def test_operand_bounds():
    for record in gen_arith_qa(GenConfig(count=100, seed=13)):
        for literal in re.findall(r"[0-9]+(?:\.[0-9]+)?", record.input[:-4]):
            assert float(literal) < 100.0
            if "." in literal:
                assert len(literal.split(".")[1]) <= 2


def test_gen_questions_matches_record_inputs():
    # The records draw the same question stream and leave out each
    # question run() cannot inject at its default config; here the
    # 21st question is one.
    config = GenConfig(count=50, seed=21, stage=Stage.PRIORITY)
    questions = gen_questions(GenConfig(count=60, seed=21, stage=Stage.PRIORITY))
    records = gen_arith_qa(config)
    injected = [q for q in questions if run(q).injected]
    assert injected[:50] != questions[:50]
    assert [r.input for r in records] == injected[:50]


@pytest.mark.parametrize("stage", list(Stage))
def test_every_record_is_injected_at_the_default_config(stage):
    for record in gen_arith_qa(GenConfig(count=10_000, seed=0, stage=stage)):
        result = run(record.input)
        assert (result.injected, result.answer) == (True, record.output), record


def test_generation_is_deterministic():
    a = gen_arith_qa(GenConfig(count=50, seed=3))
    b = gen_arith_qa(GenConfig(count=50, seed=3))
    assert a == b
    assert gen_dot_place(50, 4) == gen_dot_place(50, 4)
    assert gen_numbers_ops(50, 4) == gen_numbers_ops(50, 4)
    assert gen_arith_qa(GenConfig(count=50, seed=8)) != a


@pytest.mark.parametrize("generate", [
    gen_dot_place,
    gen_numbers_ops,
    lambda count: gen_questions(GenConfig(count=count)),
], ids=["dot-place", "numbers-ops", "questions"])
def test_negative_count_is_rejected(generate):
    assert generate(0) == []
    with pytest.raises(DataError, match="count must be at least 0"):
        generate(-5)


# ---------------------------------------------------------------------------
# Mixing


def other_records(n):
    return [
        {"instruction": f"General question {i}", "input": "", "output": "General answer."}
        for i in range(n)
    ]


def test_mix_worked_fraction():
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=60, seed=1))]
    mixed = mix_datasets(arith, other_records(40), 0.6, seed=2)
    assert len(mixed) == 100
    assert sum(1 for r in mixed if "swift_express" in r) == 60


def test_mix_limited_by_scarcer_side():
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=600, seed=1))]
    mixed = mix_datasets(arith, other_records(10), 0.6, seed=2)
    n_arith = sum(1 for r in mixed if "swift_express" in r)
    assert abs(n_arith / len(mixed) - 0.6) <= 1.0 / len(mixed)


@pytest.mark.parametrize("fraction, n_arith, n_other", [(1e-320, 0, 4), (1 - 1e-16, 6, 0)])
def test_mix_extreme_fractions(fraction, n_arith, n_other):
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=6, seed=1))]
    mixed = mix_datasets(arith, other_records(4), fraction, seed=2)
    assert sum(1 for r in mixed if "swift_express" in r) == n_arith
    assert len(mixed) == n_arith + n_other


def test_mix_total_is_the_smaller_per_side_total():
    rng = random.Random(11)
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=50, seed=1))]
    for _ in range(1000):
        n_a, n_o = rng.randint(1, 50), rng.randint(1, 50)
        fraction = rng.choice((rng.random(), rng.randint(1, 99) / 100))
        if not 0.0 < fraction < 1.0:
            continue
        want = min(int(n_a / fraction + 1e-9), int(n_o / (1.0 - fraction) + 1e-9))
        assert len(mix_datasets(arith[:n_a], other_records(n_o), fraction)) == want


def test_mix_passes_records_through_untouched():
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=6, seed=1))]
    other = other_records(4)
    other[0]["extra_field"] = [1, 2, 3]
    mixed = mix_datasets(arith, other, 0.6, seed=2)
    for record in mixed:
        assert record in arith or record in other


def test_mix_is_shuffled_but_deterministic():
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=60, seed=1))]
    other = other_records(40)
    a = mix_datasets(arith, other, 0.6, seed=7)
    b = mix_datasets(arith, other, 0.6, seed=7)
    assert a == b
    assert a != mix_datasets(arith, other, 0.6, seed=8)
    assert a != arith[:60] + other  # not the unshuffled concatenation


def test_mix_rejects_bad_input():
    arith = [r.to_dict() for r in gen_arith_qa(GenConfig(count=5, seed=1))]
    for a, o in (([], other_records(5)), (arith, [])):
        with pytest.raises(DataError, match="^both record lists must be non-empty$"):
            mix_datasets(a, o, 0.6)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            mix_datasets(arith, other_records(5), bad)


# ---------------------------------------------------------------------------
# Files


def test_jsonl_round_trip(tmp_path):
    records = gen_arith_qa(GenConfig(count=20, seed=6))
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, records)
    back = read_records(path)
    assert back == [r.to_dict() for r in records]
    keys = list(back[0].keys())
    assert keys == ["instruction", "input", "output", "swift_express"]


def test_json_array_round_trip(tmp_path):
    records = gen_arith_qa(GenConfig(count=5, seed=6))
    path = tmp_path / "qa.json"
    write_json_array(path, records)
    assert path.read_text().lstrip().startswith("[")
    assert read_records(path) == [r.to_dict() for r in records]


def test_write_is_byte_identical_across_runs(tmp_path):
    for name, make in (
        ("lines", lambda p: write_lines(p, gen_numbers_ops(50, 2))),
        ("jsonl", lambda p: write_jsonl(p, gen_arith_qa(GenConfig(count=50, seed=2)))),
    ):
        p1 = tmp_path / f"{name}_1"
        p2 = tmp_path / f"{name}_2"
        make(p1)
        make(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_load_training_lines_from_text(tmp_path):
    path = tmp_path / "corpus.txt"
    write_lines(path, ["1.5 2 +", "3 4 *"])
    assert load_training_lines(path) == (["1.5 2 +", "3 4 *"], "line")


def test_load_training_lines_from_records(tmp_path):
    records = gen_arith_qa(GenConfig(count=10, seed=6))
    jsonl = tmp_path / "qa.jsonl"
    array = tmp_path / "qa.json"
    write_jsonl(jsonl, records)
    write_json_array(array, records)
    want = [r.swift_express for r in records]
    assert load_training_lines(jsonl) == (want, "record")
    assert load_training_lines(array) == (want, "record")


@pytest.mark.parametrize("kind", ["text", "jsonl", "array"])
def test_load_training_lines_reads_its_file_once(tmp_path, monkeypatch, kind):
    path = tmp_path / "corpus"
    records = gen_arith_qa(GenConfig(count=3, seed=6))
    want = [r.swift_express for r in records]
    write = {"text": write_lines, "jsonl": write_jsonl, "array": write_json_array}[kind]
    write(path, want if kind == "text" else records)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert load_training_lines(path) == (want, "line" if kind == "text" else "record")
    assert opened == [path]


def test_read_records_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"instruction": "truncated"')
    with pytest.raises(ValueError):
        read_records(path)
