"""Golden sha256 digests of the machine's outputs on fixed seeded corpora.

Each digest covers one output of the package, line by line, over inputs
built here from fixed seeds: convert (program JSON or error class and
message, under the rule table and seeded random tables), evaluate_with_trace
JSON, run() JSON, the (token, flag, target) triples of label_events' case ids,
the trained params and loss trace of a seeded two-stage train_gates run, and
`gatecalc convert --trace` under the rule table and under those params.
A change that moves any output byte fails here unless it updates the
digest it moves and says so. `python tests/test_digests.py` prints the
current digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

from gatecalc import cli
from gatecalc.conversion import ConversionError, convert
from gatecalc.datagen import GenConfig, Stage, gen_dot_place, gen_numbers_ops, gen_questions
from gatecalc.evaluator import EvalError, evaluate_with_trace
from gatecalc.gates import (
    TrainConfig,
    events_from_lines,
    label_events,
    rule_gates,
    save_params,
    train_gates,
)
from gatecalc.infix import parse_infix, to_postfix
from gatecalc.pipeline import run
from gatecalc.tokenizer import encode
from helpers import decode_case, param_bits, random_gate_table

ALPHABET = "0123456789. +-*/x$"

EXPECTED = {
    "convert": "1d91961d439548e4147f30680f58ae19e9f396648332d2fe4747de4c729894cd",
    "evaluate": "aa9ed7c4970b9c1cc0571ee393eee6f8d1240229cc525610f14da6412be67303",
    "run": "0877f5388fd83ec5740fa18b040e2e84f92ac9d87de153dff1d724d466fb65d5",
    "label": "bf95fbbc1773b25779136f4e04971defff12ee7f519f1b4a11e138dd7a0632c2",
    "train": "163fd27ad1e5d58b90d093a7490daea24224aa53d2f0de3117a25e6380a164e4",
    "cli_trace": "5ea640b9037c68af73f72df099b0fc59e2456be3be42d0f7e6d9e3a061e64018",
}


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _random_text(rng: random.Random, max_len: int = 24) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def _texts() -> list[str]:
    """Corpus lines, question postfix, and random strings over the alphabet."""
    questions = gen_questions(GenConfig(150, 3, Stage.EASY))
    questions += gen_questions(GenConfig(150, 4, Stage.PRIORITY))
    rng = random.Random(5)
    return (
        gen_dot_place(200, 1)
        + gen_numbers_ops(200, 2)
        + [to_postfix(parse_infix(q)) for q in questions]
        + [_random_text(rng) for _ in range(1200)]
    )


def _programs():
    """(line, program or None) for every text under the rule table and 20
    seeded random tables, each conversion at a seeded capacity of 1-40."""
    rng = random.Random(6)
    tables = [rule_gates] + [random_gate_table(rng) for _ in range(20)]
    texts = _texts()
    for k, table in enumerate(tables):
        for text in texts:
            capacity = rng.randint(1, 40)
            try:
                program = convert(encode(text), table, capacity)
            except ConversionError as exc:
                yield f"{k}\t{capacity}\t{text!r}\t{_error(exc)}", None
            else:
                yield f"{k}\t{capacity}\t{text!r}\t{json.dumps(program.to_json_dict())}", program


def convert_lines():
    return (line for line, _ in _programs())


def evaluate_lines():
    for line, program in _programs():
        if program is None:
            continue
        try:
            out = json.dumps(evaluate_with_trace(program).to_json_dict())
        except EvalError as exc:
            out = _error(exc)
        yield f"{line}\t{out}"


def run_lines():
    rng = random.Random(7)
    prompts = gen_questions(GenConfig(300, 8, Stage.EASY))
    prompts += gen_questions(GenConfig(300, 9, Stage.PRIORITY))
    prompts += [_random_text(rng).replace("$", "(") + " = ?" for _ in range(300)]
    prompts += [
        "1 / 0 = ?", "(2 - 2) / (3 - 3) = ?", "99999999999 * 99999999999 = ?",
        "Design a logo for a food store.", "", "= ?", "1.5 + 2.25 = ?",
    ]
    return (f"{p!r}\t{json.dumps(run(p).to_json_dict())}" for p in prompts)


def label_lines():
    rng = random.Random(10)
    texts = gen_dot_place(300, 11) + gen_numbers_ops(300, 12)
    texts += [_random_text(rng) for _ in range(600)]
    for text in texts:
        try:
            events = label_events(text)
        except ConversionError as exc:
            out = _error(exc)
        else:
            cases = map(decode_case, events)
            out = json.dumps([[t, f, [int(x) for x in target]] for t, f, target in cases])
        yield f"{text!r}\t{out}"


@cache
def _train_stages():
    """A seeded two-stage train_gates run, as (params, trace) per stage.
    The first stage stops once its cases agree; the second starts from
    its params, cuts uneven chunks and runs its whole stream, five heads
    stopping on the way and the ignore head never."""
    stages = [
        (gen_dot_place(80, 13), TrainConfig()),
        (gen_numbers_ops(150, 14), TrainConfig(epoch_size=37, repeats=3, lr=0.05)),
    ]
    params, out = None, []
    for lines, config in stages:
        params, trace = train_gates(events_from_lines(lines), config, init=params)
        out.append((params, trace))
    return out


def train_lines():
    """Both stages' trace entries, pass means, agreement counts and head
    stops, then the final params, every float in hex so that a one-ulp
    move shows."""
    stages = _train_stages()
    for k, (_, trace) in enumerate(stages):
        for e in trace.events:
            yield f"{k}\t{e.step}\t{e.token_id}\t{e.weight.hex()}\t{e.raw.hex()}\t{e.weighted.hex()}"
        yield f"{k}\t" + " ".join(m.hex() for m in trace.epoch_mean)
        yield f"{k}\t" + " ".join(map(str, trace.agreement))
        yield f"{k}\t" + " ".join(f"{name}:{step}" for name, step in trace.stopped.items())
    yield from (bits.hex() for bits in param_bits(stages[-1][0]))


def cli_trace_lines():
    """Exit code, stdout and stderr of `gatecalc convert --trace` over every
    text, under the rule table and under the trained params of
    _train_stages, read back from the gate file save_params writes. main
    builds its argument parser on every call; here one parser serves all."""
    parser = cli.build_parser()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "build_parser", lambda: parser):
        path = Path(tmp) / "gates.json"
        save_params(_train_stages()[-1][0], path)
        for gates in ([], ["--gates", str(path)]):
            for text in _texts():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(["convert", "--trace", *gates, "--", text])
                yield f"{len(gates)}\t{text!r}\t{code}\t{out.getvalue()!r}\t{err.getvalue()!r}"


DIGESTS = {
    "convert": convert_lines,
    "evaluate": evaluate_lines,
    "run": run_lines,
    "label": label_lines,
    "train": train_lines,
    "cli_trace": cli_trace_lines,
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest_is_pinned(name):
    assert _digest(DIGESTS[name]()) == EXPECTED[name]


if __name__ == "__main__":
    for name, lines in DIGESTS.items():
        print(f'    "{name}": "{_digest(lines())}",')
