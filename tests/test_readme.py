"""The README's CLI block runs and prints what it states, and its layout
and figures match the package.

Every `gatecalc ...` line of the block under `## CLI` runs in process
through cli.main, in order, in a fresh directory that holds a
general.jsonl of instruction records; `cat <files> > <out>` runs in
Python, and any other command fails the test. A comment states the whole
output (`# 8`), the JSON fields it names (`# {"answer": "8", ...}`), or
the lines it quotes in backquotes; a comment in parentheses only
describes it. A line holding only a comment continues the comment above.
Every line must exit 0.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from gatecalc.cli import build_parser, main
from gatecalc.conversion import _MANTISSA_CAP, ACTION_NAMES, CASES, DECISION_FIELDS, DEFAULT_CAPACITY
from gatecalc.gates import TrainConfig, train_gates
from gatecalc.infix import MAX_NESTING
from gatecalc.pipeline import DEFAULT_INJECT_LEN, MAX_INJECT_LEN
from gatecalc.render import INTEGER_SNAP, MAX_SIG_DIGITS
from gatecalc.tokenizer import (
    DOT_ID,
    OTHER_ID,
    PLUS_ID,
    SLASH_ID,
    SPACE_ID,
    TERMINATOR_ID,
    VOCAB_SIZE,
)

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def fenced_block(heading: str) -> str:
    """The first fenced block of the README section under `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)


def split_comment(line: str) -> tuple[str, str]:
    """The command and the comment after its first unquoted '#'."""
    quoted = False
    for i, char in enumerate(line):
        if char == '"':
            quoted = not quoted
        elif char == "#" and not quoted:
            return line[:i].strip(), line[i + 1:].strip()
    return line.strip(), ""


def cli_lines(block: str) -> list[tuple[str, str]]:
    """(command, comment) for each command line of a CLI block."""
    lines: list[tuple[str, str]] = []
    for line in block.splitlines():
        command, comment = split_comment(line)
        if command:
            lines.append((command, comment))
        elif comment:
            lines[-1] = (lines[-1][0], f"{lines[-1][1]} {comment}".strip())
    return lines


def check_output(command: str, comment: str, out: str) -> None:
    if "`" in comment:
        printed = out.splitlines()
        for line in re.findall(r"`([^`]*)`", comment):
            assert line in printed, f"{command}: no line {line!r} in\n{out}"
    elif comment.startswith("{"):
        stated = json.loads(comment.replace(", ...}", "}"))
        got = json.loads(out)
        assert {key: got.get(key) for key in stated} == stated, f"{command}: {out}"
    elif comment and not comment.startswith("("):
        assert out.strip() == comment, f"{command}: printed {out.strip()!r}"


def run_cli_block(block: str, capsys) -> None:
    """Run a CLI block in the current directory, checking every stated output."""
    lines = cli_lines(block)
    assert any(command.startswith("gatecalc ") for command, _ in lines), "no gatecalc line"
    for command, comment in lines:
        argv = shlex.split(command)
        if argv[0] == "cat":
            assert len(argv) >= 4 and argv[-2] == ">" and ">" not in argv[1:-2], command
            Path(argv[-1]).write_bytes(b"".join(Path(name).read_bytes() for name in argv[1:-2]))
            continue
        assert argv[0] == "gatecalc", f"not a gatecalc line: {command}"
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert code == 0, f"{command}: exit {code}: {err}"
        check_output(command, comment, out)


def test_every_line_of_the_cli_block_prints_what_it_states(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "general.jsonl").write_text("".join(
        json.dumps({"instruction": f"Describe item {i}.", "input": "", "output": f"Item {i}."})
        + "\n" for i in range(700)
    ))
    run_cli_block(fenced_block("CLI"), capsys)
    # The gen lines leave the default corpora, one line per record.
    for name, count in (("dot_place.txt", 100), ("numbers_ops.txt", 500),
                        ("arith_qa.jsonl", 1000), ("mixed.jsonl", 1666)):
        assert len((tmp_path / name).read_text().splitlines()) == count


@pytest.mark.parametrize("block", [
    'gatecalc eval "3 5 +"  # 9\n',
    'gatecalc eval "3 5 +"\n  # 9\n',
    'gatecalc run "3 + 5 = ?"  # {"answer": "9", ...}\n',
    'gatecalc run "3 + 5 = ?"  # {"score": 1, ...}\n',
    'gatecalc to-postfix "3 + 5 = ?"  # (postfix) `3 5 -`\n',
    'gatecalc eval ".5"  # (fails)\n',
    'gatecalc render 2.5\necho 2.5\n',
    'gatecalc render 2.5\ncat a.txt b.txt\n',
    'cat a.txt > b.txt\n',
    '',
], ids=["exact", "continued", "json-value", "json-field", "quoted-line", "exit-code",
        "other-command", "cat-without-redirect", "no-gatecalc-line", "empty"])
def test_a_wrong_statement_or_another_command_fails(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("a\n")
    with pytest.raises(AssertionError):
        run_cli_block(block, capsys)


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_the_cli_block_runs_every_verb_and_gen_kind():
    argvs = [shlex.split(command) for command, _ in cli_lines(fenced_block("CLI"))]
    runs = [argv[1:] for argv in argvs if argv[0] == "gatecalc"]
    verbs = subcommands(build_parser())
    assert set(verbs) - {argv[0] for argv in runs} == set()
    assert set(subcommands(verbs["gen"])) - {argv[1] for argv in runs if argv[0] == "gen"} == set()


def layout_names() -> set[str]:
    """Each file the layout block names, as a path from the repository root:
    a line that starts a directory sets it, and every *.py word names a
    file in it."""
    names, directory = set(), ""
    for line in fenced_block("Layout").splitlines():
        if line[:1].strip():
            directory = line.split()[0]
        names.update(directory + name for name in re.findall(r"\b\w+\.py\b", line))
    return names


def test_the_layout_names_every_source_and_script_file():
    files = {str(p.relative_to(ROOT)) for pattern in ("src/gatecalc/*.py", "scripts/*.py")
             for p in ROOT.glob(pattern)}
    assert files - layout_names() == set()


def test_the_layout_names_no_file_that_is_missing():
    assert {name for name in layout_names() if not (ROOT / name).is_file()} == set()


PROSE = " ".join(README.split())
TRAIN = TrainConfig()
_, TRACE = train_gates(bytes([2]), TrainConfig(lr=0.0))


@pytest.mark.parametrize("phrase, value, stated", [
    ("The alphabet has 18 ids", VOCAB_SIZE, 18),
    ("`.` is 10, `+ - * /` are 11-14, space is 15, the terminator `$` is 16, "
     "and every other character is OTHER, 17",
     (DOT_ID, PLUS_ID, SLASH_ID, SPACE_ID, TERMINATOR_ID, OTHER_ID), (10, 11, 14, 15, 16, 17)),
    ("A `GateDecision` has six fields", len(DECISION_FIELDS), 6),
    ("a `GateTable` of 36 decisions", CASES, 36),
    ("one of nine actions", len(ACTION_NAMES), 9),
    ("`convert(ids, table, capacity=64)`", DEFAULT_CAPACITY, 64),
    ("Past 800 significant digits", _MANTISSA_CAP, 10**800),
    ("within 1e-9 of an integer", INTEGER_SNAP, 1e-9),
    ("rounded to 12 significant digits", MAX_SIG_DIGITS, 12),
    ("nested at most 100 deep", MAX_NESTING, 100),
    ("16 by default and at most 1024", (DEFAULT_INJECT_LEN, MAX_INJECT_LEN), (16, 1024)),
    ("chunks of 50, each chunk repeated 5 times", (TRAIN.epoch_size, TRAIN.repeats), (50, 5)),
    ("a learning rate of 0.1", TRAIN.lr, 0.1),
    ("carry loss weight 5.0", (TRAIN.dot_weight, TRAIN.op_weight), (5.0, 5.0)),
    ("the stage's 18 token weights once", len(TRACE.weight_of), 18),
    ("the raw loss, one 8-byte double", TRACE.raws.itemsize, 8),
])
def test_each_figure_the_readme_states_is_the_packages(phrase, value, stated):
    assert phrase in PROSE
    assert value == stated
