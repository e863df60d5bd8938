"""Corpus generators for gate training and the question pipeline.

Three corpus families, in roughly the order the gates meet them. Dot
place lines are five-digit numbers with the decimal dot cycling through
the interior positions, which isolates the decimal machinery. Numbers
and ops lines mix literals, operator characters, junk characters, and
terminators so every (token, decimal flag) case the gates can face shows
up in training. Question records pair an infix question with its answer
and the postfix expression that computes it, in the flat JSON shape a
fine-tuning set expects.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .conversion import convert, rule_gates
from .evaluator import evaluate
from .infix import parse_infix, to_postfix
from .pipeline import DEFAULT_INJECT_LEN
from .render import render
from .tokenizer import encode

INSTRUCTION_TEXT = "Please caculate this."

_OP_CHARS = "+-*/"
_JUNK_CHARS = "abcxyz#?"


class DataError(ValueError):
    """A negative count, a mixing fraction out of range, or a record file
    of the wrong shape."""


class EmptyInput(DataError):
    pass


class Stage(str, Enum):
    EASY = "easy"
    PRIORITY = "priority"


# Fewest and most operators in a question of each stage.
_STAGE_OPS = {Stage.EASY: (1, 2), Stage.PRIORITY: (2, 4)}
# Question literals lie in [0, _MAX_VALUE) with up to _MAX_DECIMALS decimals.
_MAX_VALUE = 100
_MAX_DECIMALS = 2


@dataclass
class GenConfig:
    count: int
    seed: int = 0
    stage: Stage = Stage.EASY


@dataclass
class QARecord:
    instruction: str
    input: str
    output: str
    swift_express: str

    def to_dict(self) -> dict:
        return asdict(self)


def _rng(count: int, seed: int) -> random.Random:
    """The seeded generator behind a corpus of count items."""
    if count < 0:
        raise DataError(f"count must be at least 0, got {count}")
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Dot place


def dot_place_line(digits: str, dot_pos: int) -> str:
    """Insert a decimal dot at an interior position of a digit string."""
    if not digits.isdigit():
        raise ValueError(f"not a digit string: {digits!r}")
    if not 1 <= dot_pos <= len(digits) - 1:
        raise ValueError(f"dot position {dot_pos} not interior to {digits!r}")
    return digits[:dot_pos] + "." + digits[dot_pos:]


def gen_dot_place(count: int, seed: int = 0) -> list[str]:
    """Five-digit decimal literals, the dot cycling through positions 1 to 4."""
    rng = _rng(count, seed)
    lines = []
    for i in range(count):
        digits = str(rng.randint(1, 9)) + "".join(
            str(rng.randint(0, 9)) for _ in range(4)
        )
        lines.append(dot_place_line(digits, 1 + i % 4))
    return lines


# ---------------------------------------------------------------------------
# Numbers and ops


def _mixed_literal(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return str(rng.randint(0, 999))
    whole = rng.randint(0, 99)
    frac = "".join(str(rng.randint(0, 9)) for _ in range(rng.randint(1, 4)))
    return f"{whole}.{frac}"


def gen_numbers_ops(count: int, seed: int = 0) -> list[str]:
    """Free-form lines of literals and operator characters for gate training.

    The line structure cycles deterministically so coverage does not
    depend on luck: every tenth line is operator-only, every seventh
    carries junk characters for the ignore gate, every ninth ends in a
    terminator, and operators occasionally glue straight onto a number.
    Every line converts cleanly under the reference policy.
    """
    rng = _rng(count, seed)
    lines = []
    for i in range(count):
        if i % 10 == 3:
            line = " ".join(rng.choice(_OP_CHARS) for _ in range(rng.randint(2, 5)))
        else:
            parts = []
            for _ in range(rng.randint(2, 6)):
                if rng.random() < 0.35:
                    parts.append(rng.choice(_OP_CHARS))
                else:
                    parts.append(_mixed_literal(rng))
            line = parts[0]
            for part in parts[1:]:
                glue = part in _OP_CHARS and rng.random() < 0.2
                line += part if glue else " " + part
        if i % 7 == 5:
            for _ in range(rng.randint(1, 2)):
                j = rng.randrange(len(line) + 1)
                line = line[:j] + rng.choice(_JUNK_CHARS) + line[j:]
        if i % 9 == 2:
            line += "$"
        lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# Question records


def qa_record(question: str) -> QARecord:
    """One record from question text, deriving the postfix and the answer.

    The answer comes from the machine itself, converting and reducing
    the postfix expression, so every record is self-consistent by
    construction.
    """
    swift = to_postfix(parse_infix(question))
    output = render(evaluate(convert(encode(swift), rule_gates)))
    return QARecord(INSTRUCTION_TEXT, question, output, swift)


def _qa_literal(rng: random.Random, nonzero: bool = False) -> str:
    scale = 10 ** rng.randint(0, _MAX_DECIMALS)
    while True:
        value = rng.randrange(0, _MAX_VALUE * scale) / scale
        if not nonzero or value != 0.0:
            return render(value)


def _qa_question(config: GenConfig, rng: random.Random) -> str:
    n_ops = rng.randint(*_STAGE_OPS[config.stage])
    ops = [rng.choice(_OP_CHARS) for _ in range(n_ops)]
    if config.stage == Stage.PRIORITY and n_ops >= 2:
        # Force a low-precedence operator somewhere before a high one, so
        # the question only comes out right under real precedence rules.
        j = rng.randrange(1, n_ops)
        i = rng.randrange(0, j)
        ops[i] = rng.choice("+-")
        ops[j] = rng.choice("*/")
    text = _qa_literal(rng)
    for op in ops:
        text += f" {op} {_qa_literal(rng, nonzero=(op == '/'))}"
    return text + " = ?"


def gen_questions(config: GenConfig) -> list[str]:
    """Question texts alone, for driving the pipeline directly."""
    rng = _rng(config.count, config.seed)
    return [_qa_question(config, rng) for _ in range(config.count)]


def gen_arith_qa(config: GenConfig) -> list[QARecord]:
    """Flat operator chains as question records, sized by the stage. A
    question whose answer does not fit the default injection segment is
    redrawn from the same generator, so run() injects every record."""
    rng = _rng(config.count, config.seed)
    records: list[QARecord] = []
    while len(records) < config.count:
        record = qa_record(_qa_question(config, rng))
        if len(record.output) < DEFAULT_INJECT_LEN:
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Mixing


def mix_datasets(
    arith: Sequence[dict],
    other: Sequence[dict],
    arith_fraction: float,
    seed: int = 0,
) -> list[dict]:
    """Shuffled interleave of two record lists at a target fraction.

    Takes the largest total for which both sides can supply their share,
    then shuffles. Records pass through untouched.
    """
    if not 0.0 < arith_fraction < 1.0:
        raise DataError(f"fraction must be strictly between 0 and 1, got {arith_fraction}")
    if not arith or not other:
        raise EmptyInput("both record lists must be non-empty")
    # The minimum is taken before int(), as one quotient may be infinite.
    n_total = int(
        min(len(arith) / arith_fraction, len(other) / (1.0 - arith_fraction)) + 1e-9
    )
    n_arith = round(arith_fraction * n_total)
    n_other = n_total - n_arith
    mixed = [dict(r) for r in arith[:n_arith]] + [dict(r) for r in other[:n_other]]
    random.Random(seed).shuffle(mixed)
    return mixed


# ---------------------------------------------------------------------------
# Files


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _as_dict(record: dict | QARecord) -> dict:
    return record.to_dict() if isinstance(record, QARecord) else record


def write_jsonl(path: str | Path, records: Iterable[dict | QARecord]) -> None:
    write_lines(path, (json.dumps(_as_dict(r)) for r in records))


def write_json_array(path: str | Path, records: Iterable[dict | QARecord]) -> None:
    write_lines(path, [json.dumps([_as_dict(r) for r in records], indent=2)])


def read_records(path: str | Path) -> list[dict]:
    """Records from a JSONL file or a single JSON array file."""
    return _parse_records(Path(path).read_text(encoding="utf-8"), path)


def _parse_records(text: str, path: str | Path) -> list[dict]:
    try:
        if text.lstrip().startswith("["):
            rows = json.loads(text)
        else:
            rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise DataError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # int() refuses a literal past Python's digit limit
        raise DataError(f"{path}: JSON integer has too many digits") from None
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise DataError(f"{path}: record {i} is not a JSON object")
    return rows


def load_training_lines(path: str | Path) -> list[str]:
    """Trainer input from a file: plain text lines, or the swift_express
    field when the file holds question records."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.lstrip().startswith(("[", "{")):
        return text.splitlines()
    records = _parse_records(text, path)
    for i, record in enumerate(records):
        if not isinstance(record.get("swift_express"), str):
            raise DataError(f"{path}: record {i} has no swift_express text")
    return [r["swift_express"] for r in records]
