import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatecalc import cli
from gatecalc.cli import main
from gatecalc.conversion import DenseOpMode, GateDecision, GateTable, rule_gates
from gatecalc.datagen import GenConfig, gen_arith_qa, gen_dot_place, gen_numbers_ops, read_records
from gatecalc.gates import (
    HEAD_SHAPES,
    GateParams,
    LossTrace,
    TrainConfig,
    events_from_lines,
    save_params,
    train_gates,
)
from gatecalc.tokenizer import TERMINATOR_ID, Op
from helpers import random_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, err = run_cli(capsys, "eval", "3 5 +")
    assert code == 0
    assert out == "8\n"
    assert err == ""


def test_eval_decimal(capsys):
    code, out, _ = run_cli(capsys, "eval", "10 4 /")
    assert code == 0
    assert out == "2.5\n"


def test_eval_trace(capsys):
    code, out, _ = run_cli(capsys, "eval", "3 5 2 * +", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "13"
    assert len(payload["trace"]["steps"]) == 2
    assert payload["trace"]["final"] == 13.0


@pytest.mark.parametrize("expression", ["", "3 +", "3 5", "+ +"])
def test_eval_malformed_exits_one(capsys, expression):
    code, out, err = run_cli(capsys, "eval", expression)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_eval_division_by_zero_exits_one(capsys):
    code, _, err = run_cli(capsys, "eval", "3 0 /")
    assert code == 1
    assert "zero" in err


def test_convert(capsys):
    code, out, _ = run_cli(capsys, "convert", "3 5 +")
    assert code == 0
    assert json.loads(out) == {
        "valid": [1, 1, 1],
        "dense": [3.0, 5.0, 0.0],
        "ops": ["none", "none", "+"],
    }


def test_convert_malformed_number(capsys):
    code, _, err = run_cli(capsys, "convert", "1.2.3")
    assert code == 1
    assert "error" in err


def test_convert_trace_reports_the_flag_each_token_was_read_under(capsys):
    code, out, _ = run_cli(capsys, "convert", "1.5 2", "--trace")
    assert code == 0
    payload = json.loads(out)
    _, plain, _ = run_cli(capsys, "convert", "1.5 2")
    assert plain == json.dumps(payload["program"]) + "\n"
    assert [t["char"] for t in payload["tokens"]] == list("1.5 2")
    assert [t["flag"] for t in payload["tokens"]] == [0, 0, 1, 1, 0]
    assert payload["tokens"][1]["decision"] == {
        "ignore": 0, "move": 0, "decimal_start": 1, "dense_mode": 0, "digit": 0, "op": 0,
    }


def test_convert_trace_shows_a_dropped_junk_character(capsys):
    code, out, _ = run_cli(capsys, "convert", "1e3", "--trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["program"]["dense"] == [13.0]
    assert payload["tokens"][1] == {
        "char": "e",
        "flag": 0,
        "decision": {
            "ignore": 1, "move": 0, "decimal_start": 0, "dense_mode": 0, "digit": 0, "op": 0,
        },
        "action": "skip",
        "arg": 0,
    }


def test_convert_trace_names_each_action_and_its_argument(capsys):
    code, out, _ = run_cli(capsys, "convert", "1.5 2 +", "--trace")
    assert code == 0
    tokens = json.loads(out)["tokens"]
    assert [(t["char"], t["flag"], t["action"], t["arg"]) for t in tokens] == [
        ("1", 0, "digit-times-ten", 1),
        (".", 0, "dot", 0),
        ("5", 1, "digit-base-mul", 5),
        (" ", 1, "close", 0),
        ("2", 0, "digit-times-ten", 2),
        (" ", 0, "close", 0),
        ("+", 0, "close-op", int(Op.ADD)),
    ]
    assert tokens[2]["decision"]["dense_mode"] == 3


@pytest.mark.parametrize("kind", ["rule", "learned", "close-op row"])
def test_convert_trace_prints_stop_for_the_terminator(capsys, tmp_path, monkeypatch, kind):
    argv = ["convert", "3 5$7", "--trace"]
    if kind == "learned":
        # These params read "3 5" and decide a times-ten digit 1 for the terminator.
        save_params(random_params(random.Random(8), lambda r: r.gauss(0.0, 1.0)), tmp_path / "g.json")
        argv += ["--gates", str(tmp_path / "g.json")]
    elif kind == "close-op row":
        # A flag-0 terminator row that would move with +, and still stops.
        rows = list(rule_gates)
        rows[2 * TERMINATOR_ID] = GateDecision(0, 1, 0, DenseOpMode.IGNORE, 0, Op.ADD)
        monkeypatch.setattr(cli, "_policy_from_args", lambda args: GateTable(rows))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert [t["char"] for t in payload["tokens"]] == list("3 5$")
    assert payload["tokens"][-1]["action"] == "stop" and payload["tokens"][-1]["arg"] == 0
    if kind != "learned":
        assert payload["program"]["dense"] == [3.0, 5.0]


def test_to_postfix(capsys):
    code, out, _ = run_cli(capsys, "to-postfix", "3 + 5 * 2 = ?")
    assert code == 0
    assert out == "3 5 2 * +\n"
    assert run_cli(capsys, "to-postfix", "007 + 1.50 * 3.")[1] == "007 1.50 3. * +\n"


def test_to_postfix_parse_error(capsys):
    code, _, err = run_cli(capsys, "to-postfix", "3 +")
    assert code == 1
    assert "position" in err


def test_render(capsys):
    code, out, _ = run_cli(capsys, "render", "8.0")
    assert code == 0
    assert out == "8\n"


def test_render_rejects_junk(capsys):
    code, _, err = run_cli(capsys, "render", "abc")
    assert code == 1
    assert "abc" in err


def test_unknown_verb_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_argument_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "eval")
    assert code == 2


def test_gen_dot_place(capsys, tmp_path):
    out_path = tmp_path / "dot.txt"
    code, out, _ = run_cli(
        capsys, "gen", "dot-place", "--count", "8", "--seed", "0", "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out) == {"written": 8, "path": str(out_path)}
    lines = out_path.read_text().splitlines()
    assert len(lines) == 8
    assert all("." in line for line in lines)


def test_gen_numbers_ops(capsys, tmp_path):
    out_path = tmp_path / "ops.txt"
    code, out, _ = run_cli(
        capsys, "gen", "numbers-ops", "--count", "30", "--out", str(out_path)
    )
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 30


def test_gen_qa_jsonl(capsys, tmp_path):
    out_path = tmp_path / "qa.jsonl"
    code, out, _ = run_cli(
        capsys, "gen", "qa", "--count", "5", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    records = read_records(out_path)
    assert len(records) == 5
    for record in records:
        assert list(record.keys()) == ["instruction", "input", "output", "swift_express"]


def test_gen_qa_array(capsys, tmp_path):
    out_path = tmp_path / "qa.json"
    code, _, _ = run_cli(
        capsys, "gen", "qa", "--count", "3", "--array", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().lstrip().startswith("[")
    assert len(read_records(out_path)) == 3


def test_gen_mix(capsys, tmp_path):
    arith = tmp_path / "arith.jsonl"
    other = tmp_path / "other.jsonl"
    mixed = tmp_path / "mixed.jsonl"
    run_cli(capsys, "gen", "qa", "--count", "60", "--out", str(arith))
    other.write_text(
        "\n".join(
            json.dumps({"instruction": f"q{i}", "input": "", "output": "a"})
            for i in range(40)
        )
        + "\n"
    )
    code, out, _ = run_cli(
        capsys,
        "gen", "mix",
        "--arith", str(arith),
        "--other", str(other),
        "--fraction", "0.6",
        "--out", str(mixed),
    )
    assert code == 0
    records = read_records(mixed)
    assert len(records) == 100
    assert sum(1 for r in records if "swift_express" in r) == 60


def test_gen_mix_empty_input_fails(capsys, tmp_path):
    arith = tmp_path / "arith.jsonl"
    other = tmp_path / "other.jsonl"
    run_cli(capsys, "gen", "qa", "--count", "5", "--out", str(arith))
    other.write_text("")
    code, _, err = run_cli(
        capsys, "gen", "mix", "--arith", str(arith), "--other", str(other),
        "--out", str(tmp_path / "m.jsonl"),
    )
    assert code == 1
    assert "error" in err


@pytest.fixture()
def tiny_gates_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    gates = tmp_path / "gates.json"
    run_cli(capsys, "gen", "dot-place", "--count", "30", "--out", str(corpus))
    code, out, _ = run_cli(
        capsys,
        "train-gates", "--data", str(corpus), "--out", str(gates),
        "--epoch-size", "20", "--repeats", "2",
    )
    assert code == 0
    assert "epoch 0 mean_loss" in out
    return gates


def test_train_gates_writes_params(tiny_gates_file):
    payload = json.loads(tiny_gates_file.read_text())
    assert payload["format_version"] == 1
    assert len(payload["digit_w"]) == 10


def test_train_gates_ends_with_the_agreement_at_its_stop(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    run_cli(capsys, "gen", "dot-place", "--count", "30", "--out", str(corpus))
    code, out, _ = run_cli(
        capsys, "train-gates", "--data", str(corpus), "--out", str(tmp_path / "g.json")
    )
    assert code == 0
    # 30 lines hold 21 cases; they all agree after the second chunk of 50
    # events, 500 of the 900 steps the stream offers. The digit head is the
    # last to stop.
    assert out.endswith("trained 500 steps, params written to "
                        f"{tmp_path / 'g.json'}\nagreement 21/21 cases at step 500\n"
                        "heads stopped at step: ignore 250, move 250, decimal 250, "
                        "denseop 250, digit 500, op 250\n")


def test_train_gates_says_when_steps_max_cut_the_run(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    run_cli(capsys, "gen", "dot-place", "--count", "30", "--out", str(corpus))
    code, out, _ = run_cli(
        capsys, "train-gates", "--data", str(corpus), "--out", str(tmp_path / "g.json"),
        "--steps-max", "10",
    )
    assert code == 0
    assert out.endswith("agreement 1/21 cases at step 10, steps_max cut the run first\n"
                        "heads stopped at step: ignore 10, move 10, decimal -, denseop -, "
                        "digit -, op 10\n")


# sha256 of stdout and the gate file of a one-file run, as they were when
# train-gates read all its files into one stream.
@pytest.mark.parametrize("kind, flags, digest", [
    ("dot-place", [], "7d387446f1d2a045f09f3b013fc1adb4f9afe92521b7802adcce721a44828170"),
    ("dot-place", ["--lr", "0"],
     "1661f180c152a763f224330c0d3466c5881b147ad1e4bfaa08f9cb8b0fb65f93"),
    ("dot-place", ["--steps-max", "10"],
     "93ce72a743770baf140a1d18ad3e8e9ad4bb78f0941aa4f2e2ed439be0e232e3"),
    ("numbers-ops", [], "18670e98347a2ed1f1e483c0adb00379c3e108cd7674518998a2406df2b30320"),
    ("numbers-ops", ["--lr", "0"],
     "cec3ed0c740ccc319b340388d2031b1e8532a5847eee3c3d41c34f5bf433c54c"),
    ("numbers-ops", ["--steps-max", "10"],
     "e44ce1a97225a3616d63f4ac4e8704ce918e2fcc0853e001ef982db587a160de"),
    ("qa", [], "284eecf45d0bcf43b55f2ecad725f0ab04c894cd517143d6250d5c297f7fd8ba"),
    ("qa", ["--lr", "0"], "1b8cfba3684278c88fbf1a3ab3c1f3d153cc7f61001cab9c5fb7110c62960aee"),
    ("qa", ["--steps-max", "10"],
     "fe6650bab63256e95cef74496a374ac8c5f62bace46abe46e5bb7291695af89b"),
])
def test_one_file_train_gates_output_is_pinned(capsys, tmp_path, monkeypatch, kind, flags, digest):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "gen", kind, "--out", "data")[0] == 0
    code, out, err = run_cli(capsys, "train-gates", "--data", "data", "--out", "g.json", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode() + (tmp_path / "g.json").read_bytes()).hexdigest() == digest


def test_each_data_file_trains_as_a_stage_from_the_last_ones_params(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "gen", "dot-place", "--out", "dot.txt")
    run_cli(capsys, "gen", "numbers-ops", "--out", "ops.txt")
    code, out, _ = run_cli(capsys, "train-gates", "--data", "dot.txt", "ops.txt", "--out", "g.json")
    assert code == 0
    stops = [[
        "trained 500 steps",
        "agreement 21/21 cases at step 500",
        "heads stopped at step: ignore 250, move 250, decimal 250, denseop 250, digit 500, op 250",
    ], [
        "trained 4000 steps, params written to g.json",
        "agreement 35/35 cases at step 4000",
        "heads stopped at step: ignore 4000, move 1000, decimal 250, denseop 2750, digit 250, "
        "op 1000",
    ]]
    # The chained calls the demo and the benchmark make, one block per stage.
    params, want = None, []
    for lines, stop in zip((gen_dot_place(100, 0), gen_numbers_ops(500, 0)), stops):
        params, trace = train_gates(events_from_lines(lines), init=params)
        want += [f"epoch {i} mean_loss {mean:.6f}" for i, mean in enumerate(trace.epoch_mean)]
        want += stop
    assert out.splitlines() == want
    save_params(params, tmp_path / "want.json")
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    code, out, _ = run_cli(capsys, "verify-gates", "--gates", "g.json")
    assert (code, out.splitlines()[-2:]) == (0, ["agreement 36/36", "actions 36/36"])


@pytest.mark.parametrize("position", ["first", "last"])
@pytest.mark.parametrize("content, error", [
    ("", "bad.txt: no training events"),
    ("\n\n", "bad.txt: no training events"),
    ('{"input": "1 + 1"}', "bad.txt: record 1 has no swift_express text"),
    ('{"swift_express": "1 2 +"}\n{"input": "1 + 1"}\n',
     "bad.txt: record 2 has no swift_express text"),
    ('[{"swift_express": "1 2 +"}, 5]', "bad.txt: record 2 is not a JSON object"),
    ("1..5 2 +\n", "bad.txt: line 1: second decimal dot inside one number"),
    ('{"swift_express": "1 2 +"}\n{"swift_express": "1..5 2 +"}\n',
     "bad.txt: record 2: second decimal dot inside one number"),
    (b"1 2 +\xff\n", None),
    (None, None),
], ids=["empty", "blank-lines", "records-no-postfix", "jsonl-no-postfix", "record-not-object",
        "malformed-number", "jsonl-malformed-number", "not-utf8", "missing"])
def test_every_data_file_is_refused_before_any_stage_trains(
    capsys, tmp_path, monkeypatch, position, content, error
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.txt").write_text("1 2 +\n1.5 3 *\n")
    if content is not None:
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content) if isinstance(content, bytes) else bad.write_text(content)
    stages = []
    monkeypatch.setattr(cli, "train_gates", lambda *args, **kwargs: stages.append(args))
    data = ["good.txt", "bad.txt"] if position == "last" else ["bad.txt", "good.txt"]
    code, out, err = run_cli(capsys, "train-gates", "--data", *data, "--out", "g.json")
    assert (code, out, stages) == (1, "", [])
    assert re.fullmatch(r"error: [^\n]*\n", err)
    if error is not None:
        assert err == f"error: {error}\n"
    assert not (tmp_path / "g.json").exists()


def test_convert_with_learned_gates(capsys, tiny_gates_file):
    code, out, _ = run_cli(
        capsys, "convert", "1.5", "--gates", str(tiny_gates_file)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] == [1]
    assert abs(payload["dense"][0] - 1.5) < 1e-9


def test_verify_gates_reports_mismatches_for_undertrained(capsys, tmp_path):
    from gatecalc.gates import GateParams, save_params

    gates = tmp_path / "zero.json"
    save_params(GateParams.zeros(), gates)
    code, out, _ = run_cli(capsys, "verify-gates", "--gates", str(gates))
    assert code == 1
    assert "MISMATCH" in out
    assert "agreement 2/36" in out
    # All-zero heads agree with the rule only on the terminator's two rows,
    # in fields and in actions; both tables compile those rows to stop.
    assert out.endswith("agreement 2/36\nactions 2/36\n")


def test_verify_gates_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify-gates", "--gates", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err


def test_train_gates_freeze_keeps_zero_params(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    gates = tmp_path / "gates.json"
    run_cli(capsys, "gen", "dot-place", "--count", "10", "--out", str(corpus))
    code, out, _ = run_cli(
        capsys, "train-gates", "--data", str(corpus), "--out", str(gates), "--lr", "0"
    )
    assert code == 0
    assert "epoch 0 mean_loss " in out
    assert out.endswith("heads stopped at step: ignore 0, move 0, decimal 0, denseop 0, "
                        "digit 0, op 0\n")
    payload = json.loads(gates.read_text())
    assert all(v == 0.0 for row in payload["digit_w"] for v in row)


def test_run_arithmetic(capsys):
    code, out, _ = run_cli(capsys, "run", "3 + 5 = ?")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "8"
    assert payload["injected"] is True
    assert payload["expression"] == "3 5 +"


def test_run_general(capsys):
    code, out, _ = run_cli(capsys, "run", "Design a logo for a food store.")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "Design a logo for a food store."
    assert payload["injected"] is False


def test_run_contains_division_by_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "12 / 0 = ?")
    assert code == 0
    payload = json.loads(out)
    assert payload["injected"] is False
    assert "DivisionByZero" in payload["diagnostic"]


def test_run_with_inject_len(capsys):
    code, out, _ = run_cli(capsys, "run", "1 / 813 = ?", "--inject-len", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["injected"] is True
    assert payload["answer"].startswith("0.00123")


def _gates_json(**changes) -> str:
    """A zero-parameter gate file, with fields replaced or (given None) dropped."""
    payload = {"format_version": 1}
    for name, n_out, n_in in HEAD_SHAPES:
        payload[f"{name}_w"] = [[0.0] * n_in] * n_out
        payload[f"{name}_b"] = [0.0] * n_out
    payload.update(changes)
    return json.dumps({k: v for k, v in payload.items() if v is not None})


_NESTED = "(" * 400 + "1" + ")" * 400 + " = ?"
_TRAIN = ["train-gates", "--data", "c.txt", "--out", "g.json"]
# Each setting is finite, but their product overflows at the first dot.
_DIVERGING = ["--lr", "1e308", "--dot-weight", "1e308"]
_MIX = ["gen", "mix", "--arith", "a.jsonl", "--other", "a.jsonl", "--out", "m.jsonl"]
_DEEP_JSON = "[" * 200_000
# More digits than Python's int() accepts from a string.
_LONG_INT = "1" * 5000
_QA = json.dumps({"instruction": "q", "input": "1 + 1", "output": "2", "swift_express": "1 1 +"})


@pytest.mark.parametrize("files, argv", [
    ({"g.json": _gates_json(format_version=2)}, ["convert", "1", "--gates", "g.json"]),
    ({"g.json": "[1]"}, ["verify-gates", "--gates", "g.json"]),
    ({"g.json": _gates_json(move_b=None)}, ["eval", "1", "--gates", "g.json"]),
    ({"g.json": _gates_json(digit_w=[[0.0] * 3] * 10)}, ["verify-gates", "--gates", "g.json"]),
    ({"g.json": _gates_json(op_w=[[0.0] * 18] * 4 + [[0.0]])}, ["verify-gates", "--gates", "g.json"]),
    ({"g.json": _gates_json(op_b=[0.0, float("inf"), 0.0, 0.0, 0.0])},
     ["run", "1 + 1 = ?", "--gates", "g.json"]),
    ({"c.txt": "[1, 2]"}, _TRAIN),
    ({"c.txt": '{"input": "1 + 1"}'}, _TRAIN),
    ({"c.txt": b"1 2 +\xff\n"}, _TRAIN),
    ({"c.txt": "1 2 +\n"}, _TRAIN + ["--epoch-size", "0"]),
    ({"c.txt": "1 2 +\n"}, _TRAIN + ["--repeats", "0"]),
    ({"c.txt": "1 2 +\n"}, _TRAIN + ["--lr", "nan"]),
    ({"c.txt": "1.5 2 +\n"}, _TRAIN + _DIVERGING),
    ({"g.json": _gates_json(op_b=[10**400, 0, 0, 0, 0])}, ["verify-gates", "--gates", "g.json"]),
    ({"a.jsonl": "[1]"}, _MIX),
    ({"a.jsonl": _QA}, _MIX + ["--fraction", "1.5"]),
    ({"a.jsonl": _QA}, _MIX + ["--fraction", "0"]),
    ({}, ["render", "abc"]),
    ({}, ["eval", ".5"]),
    ({}, ["eval", "1 .5 +"]),
    ({}, ["to-postfix", _NESTED]),
    ({"g.json": _DEEP_JSON}, ["verify-gates", "--gates", "g.json"]),
    ({"c.txt": _DEEP_JSON}, _TRAIN),
    ({"a.jsonl": _DEEP_JSON}, _MIX),
    ({"g.json": _LONG_INT}, ["verify-gates", "--gates", "g.json"]),
    ({"c.txt": '{"swift_express": ' + _LONG_INT + "}"}, _TRAIN),
    ({}, ["to-postfix", "1" * 400]),
    ({}, ["run", "3 + 5 = ?", "--inject-len", str(10**30)]),
    ({}, ["gen", "dot-place", "--count", "-5", "--out", "d.txt"]),
    ({}, ["gen", "numbers-ops", "--count", "-5", "--out", "n.txt"]),
    ({}, ["gen", "qa", "--count", "-5", "--out", "q.jsonl"]),
    ({"c.txt": "1 2 +\n"}, _TRAIN + ["--steps-max", "-3"]),
    ({"c.txt": "1 2 +\n"}, _TRAIN + ["--steps-max", "0"]),
    ({}, ["run", "a$ ", "--inject-len", "0"]),
    ({}, ["run", "3 + 5 = ?", "--inject-len", "-2"]),
    ({}, ["eval", "9" * 400]),
    ({}, ["convert", "1." + "9" * 900 + " " + "9" * 400]),
], ids=[
    "gates-version", "gates-not-object", "gates-missing-head", "gates-shape",
    "gates-ragged", "gates-non-finite", "records-not-objects", "records-no-postfix",
    "data-not-utf8", "epoch-size-0", "repeats-0", "lr-nan", "lr-weight-overflow",
    "gates-int-past-float-range", "mix-not-objects",
    "fraction-above-1", "fraction-0", "render-junk", "leading-dot", "leading-dot-after-space",
    "deep-nesting",
    "gates-deep-json", "records-deep-json", "mix-deep-json", "gates-long-int",
    "records-long-int", "literal-past-float-range", "inject-len-huge",
    "dot-place-count-negative", "numbers-ops-count-negative", "qa-count-negative",
    "steps-max-negative", "steps-max-0", "inject-len-0", "inject-len-negative",
    "eval-number-past-float-range", "convert-number-past-float-range",
])
def test_bad_input_prints_one_error_line(capsys, tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("steps_max", ["-3", "0"])
def test_train_gates_with_no_step_budget_writes_no_gate_file(capsys, tmp_path, monkeypatch, steps_max):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("1 2 +\n")
    code, _, err = run_cli(capsys, *_TRAIN, "--steps-max", steps_max)
    assert (code, err) == (1, f"error: steps_max must be positive, got {steps_max}\n")
    assert not (tmp_path / "g.json").exists()


def test_train_gates_checks_its_config_before_reading_data(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "train-gates", "--data", "missing.txt", "--out", "g.json", "--epoch-size", "0"
    )
    assert (code, out, err) == (1, "", "error: epoch_size must be positive, got 0\n")


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the checkout's package, warnings shown."""
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [["--lr", "nan"], _DIVERGING], ids=["lr-nan", "lr-weight-overflow"])
def test_diverging_training_prints_only_its_error_line(tmp_path, argv):
    # In a fresh process nothing captures warnings, so a warning printed
    # on the way to the error would show here.
    (tmp_path / "c.txt").write_text("\n".join(gen_dot_place(20, 0)) + "\n")
    proc = run_python("-m", "gatecalc.cli", *_TRAIN, *argv, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.fullmatch(r"error: [^\n]*\n", proc.stderr), proc.stderr
    assert not (tmp_path / "g.json").exists()


def test_package_runs_without_numpy():
    # gatecalc.cli imports every module of the package.
    proc = run_python("-c", "import sys, gatecalc.cli; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_serving_loads_neither_the_trainer_nor_the_cli():
    # Every run or eval is a fresh process, so what serving imports is
    # paid on every question; the rule table lives in conversion for this,
    # and render loads decimal only for an exponent-form value.
    proc = run_python("-c", (
        "import sys; from gatecalc.pipeline import run; "
        "print(run('3 + 5 = ?').answer, [m for m in "
        "('gatecalc.gates', 'gatecalc.datagen', 'gatecalc.cli', 'decimal') if m in sys.modules])"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8 []\n", "")


def test_bare_train_gates_uses_the_library_defaults(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("1 2 +\n")
    configs = []

    def record_config(events, config, init=None):
        configs.append(config)
        return GateParams.zeros(), LossTrace(agreement=[0])

    monkeypatch.setattr(cli, "train_gates", record_config)
    code, _, _ = run_cli(capsys, *_TRAIN)
    assert code == 0
    assert configs == [TrainConfig()]


def test_run_declines_deep_nesting(capsys):
    code, out, _ = run_cli(capsys, "run", _NESTED)
    assert code == 0
    assert json.loads(out)["answer"] == _NESTED


@pytest.mark.parametrize("name, content, error", [
    ("bad.txt", "1 2 +\n3..4 * 5\n", "line 2: second decimal dot inside one number"),
    ("bad.txt", "1 2 +\n. 5\n7 8 *\n", "line 2: decimal dot with no number in progress"),
    ("bad.txt", "\n\n1 2\n4 5..5 +\n", "line 4: second decimal dot inside one number"),
    # A record file counts records from 1, as load_training_lines returns them.
    ("bad.jsonl", '{"swift_express": "1 2 +"}\n\n{"swift_express": "3..4 *"}\n',
     "record 2: second decimal dot inside one number"),
    ("bad.json", '[{"swift_express": ". 5"}]', "record 1: decimal dot with no number in progress"),
], ids=["second-dot", "leading-dot", "after-blank-lines", "jsonl-records", "json-array"])
def test_train_gates_names_the_file_and_line_it_cannot_label(
    capsys, tmp_path, monkeypatch, name, content, error
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.txt").write_text("1 2 +\n1.5 3 *\n")
    (tmp_path / name).write_text(content)
    code, out, err = run_cli(capsys, "train-gates", "--data", "good.txt", name, "--out", "g.json")
    assert (code, out, err) == (1, "", f"error: {name}: {error}\n")
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify-gates", "--gates", "bad.json"],
    ["train-gates", "--data", "bad.json", "--out", "g.json"],
])
def test_malformed_json_keeps_the_decoder_message(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{1}")
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads("{1}")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == f"error: {info.value}\n"


def test_run_has_no_draft_len_flag(capsys):
    code, out, _ = run_cli(capsys, "run", "3 + 5 = ?", "--draft-len", "32")
    assert code == 2
    assert out == ""


_ARGV_GROUPS = st.one_of(
    st.sampled_from(["--trace", "--inject-len", "--draft-len", "-h"]).map(lambda f: [f]),
    st.integers(-1000, 10**6).map(lambda n: [str(n)]),
    st.text(max_size=30).map(lambda t: [t]),
    # --gates only with a missing file: a drawn path could name a device.
    st.just(["--gates", "no-such-file.json"]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@example(["run", "3 + 5 = ?", "--inject-len", str(10**30)])
@example(["run", "3 + 5 = ?", "--draft-len", "32"])
@example(["to-postfix", "9" * 400 + " + 1 = ?"])
@given(st.builds(
    lambda verb, groups: [verb] + [token for group in groups for token in group],
    st.sampled_from(["eval", "convert", "to-postfix", "render", "run"]),
    st.lists(_ARGV_GROUPS, max_size=5),
))
def test_main_returns_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@pytest.fixture(scope="module")
def verb_files(tmp_path_factory):
    """Seeded inputs for the verbs that read files, written once."""
    root = tmp_path_factory.mktemp("verb-files")
    params = None
    for lines in (gen_dot_place(100, 0), gen_numbers_ops(500, 0)):
        params, _ = train_gates(events_from_lines(lines), init=params)
    save_params(params, root / "gates.json")
    records = [json.dumps(r.to_dict()) for r in gen_arith_qa(GenConfig(10, 0))]
    for name, content in {
        "dot.txt": "\n".join(gen_dot_place(20, 1)) + "\n",
        "ops.txt": "\n".join(gen_numbers_ops(20, 1)) + "\n",
        "empty.txt": "",
        "malformed.txt": "1 2 +\n1..5 2 *\n",
        "not-utf8.txt": b"1 2 +\xff\n",
        "qa.jsonl": "\n".join(records) + "\n",
        "no-postfix.jsonl": '{"input": "1 + 1"}\n',
        "zeros.json": _gates_json(),
        "gates-v2.json": _gates_json(format_version=2),
        "gates-shape.json": _gates_json(digit_w=[[0.0] * 3] * 10),
    }.items():
        path = root / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    return root


# Every path is one of these names in the fixture's directory, so none can
# name a device. Outputs are written there too, and later examples read them.
_OUTPUTS = ["out.txt", "out.json", "out.jsonl"]
_INPUTS = ["dot.txt", "ops.txt", "empty.txt", "malformed.txt", "not-utf8.txt", "qa.jsonl",
           "no-postfix.jsonl", "gates.json", "zeros.json", "gates-v2.json", "gates-shape.json",
           "missing.txt"] + _OUTPUTS
_INPUT = st.sampled_from(_INPUTS)
# Corpora that train, drawn more often than the rest.
_CORPUS = st.sampled_from(["dot.txt", "ops.txt", "qa.jsonl"] * 4 + _INPUTS)
_OUTPUT = st.sampled_from(_OUTPUTS)


def _flags(names, values):
    return st.lists(st.tuples(st.sampled_from(names), st.sampled_from(values)), max_size=3)


_FILE_ARGV = st.one_of(
    # --steps-max comes last, so it bounds each stage of every run.
    st.builds(
        lambda data, flags, out, steps: ["train-gates", "--data", *data, *sum(flags, ()),
                                         "--out", out, "--steps-max", steps],
        st.lists(_CORPUS, min_size=1, max_size=3),
        _flags(["--epoch-size", "--repeats", "--lr", "--dot-weight", "--op-weight"],
               ["0", "1", "7", "-1", "0.5", "nan", "inf", "1e308", "x"]),
        _OUTPUT,
        st.integers(-2, 40).map(str),
    ),
    st.builds(lambda gates: ["verify-gates", "--gates", gates], _INPUT),
    st.builds(
        lambda kind, flags, out: ["gen", kind, *sum(flags, ()), "--out", out],
        st.sampled_from(["dot-place", "numbers-ops"]),
        _flags(["--count", "--seed"], ["-5", "0", "3", "30", "x"]),
        _OUTPUT,
    ),
    st.builds(
        lambda flags, array, out: ["gen", "qa", *sum(flags, ()), *array, "--out", out],
        _flags(["--count", "--seed", "--stage"], ["-5", "0", "3", "30", "easy", "priority"]),
        st.sampled_from([[], ["--array"]]),
        _OUTPUT,
    ),
    st.builds(
        lambda arith, other, flags, out: ["gen", "mix", "--arith", arith, "--other", other,
                                          *sum(flags, ()), "--out", out],
        _INPUT, _INPUT,
        _flags(["--fraction", "--seed"], ["0", "0.5", "0.9", "1.5", "nan", "3", "x"]),
        _OUTPUT,
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@example(["train-gates", "--data", "empty.txt", "ops.txt", "--out", "out.json",
          "--steps-max", "5"])
@example(["train-gates", "--data", "dot.txt", "ops.txt", "qa.jsonl", "--out", "out.json",
          "--steps-max", "40"])
@example(["verify-gates", "--gates", "gates.json"])
@given(_FILE_ARGV)
def test_file_verbs_return_an_exit_code(verb_files, argv):
    names = set(_INPUTS)
    argv = [str(verb_files / token) if token in names else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1 and argv[0] == "verify-gates" and not err.getvalue():
        # A table that disagrees with the rule policy is reported, not an error.
        assert "MISMATCH" in out.getvalue()
    elif code == 1:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), err.getvalue()
