"""Seeded input generators for the benchmark, with their expected outcomes.

Nothing here imports gatecalc: the inputs, and the values they should
produce, come from this file alone, so a change to the package (its
corpus generators included) cannot change what is measured or what
counts as correct. Each generator draws its items one after another
from a private random stream, so asking for fewer items gives a prefix
of the same sequence.
"""

from __future__ import annotations

import decimal
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

# Segment length of the default PipelineConfig: payload, terminator, padding.
INJECT_LEN = 16

QUESTION_COUNT = 20_000
CHAIN_LENGTHS = (8, 32, 128, 512)
CHAIN_SETS = 64
DOT_LINES = 100
OPS_LINES = 500
HELDOUT_LINES = 2_000

# Outcome of a question whose answer fits the segment or not by float error.
EITHER = "answer or PayloadTooLong"

_OPS = "+-*/"
_JUNK = "abcxyz#?"


@dataclass(frozen=True)
class Item:
    """One prompt and what the pipeline must do with it.

    outcome is "answer", "declined", the diagnostic class expected
    ("DivisionByZero", "PayloadTooLong"), or EITHER; value is the exact
    answer where one is expected; capacity is the slot count the prompt is run with,
    None for the default configuration.
    """

    text: str
    kind: str
    outcome: str
    value: Fraction | None = None
    capacity: int | None = None


def stream(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent expectation: exact evaluation and the payload it should render to


def evaluate(tokens: list[str], number=Fraction):
    """Value of an infix token list, precedence and left associativity:
    exact by default, in floats with number=float.

    Raises ZeroDivisionError when a divisor evaluates to zero.
    """
    pos = 0

    def factor():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            value = expr()
            pos += 1  # ")"
            return value
        return number(tok)

    def term():
        nonlocal pos
        value = factor()
        while pos < len(tokens) and tokens[pos] in "*/":
            op = tokens[pos]
            pos += 1
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def expr():
        nonlocal pos
        value = term()
        while pos < len(tokens) and tokens[pos] in "+-":
            op = tokens[pos]
            pos += 1
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    return expr()


def payload_text(x: float) -> str:
    """Answer text for x: the nearest integer when within relative 1e-9,
    otherwise 12 significant digits, positional, no trailing zeros."""
    d = decimal.Decimal(x)
    nearest = d.to_integral_value(rounding=decimal.ROUND_HALF_EVEN)
    if abs(d - nearest) <= decimal.Decimal("1e-9") * max(decimal.Decimal(1), abs(d)):
        return str(int(nearest))
    rounded = d.quantize(decimal.Decimal(1).scaleb(d.adjusted() - 11), rounding=decimal.ROUND_HALF_EVEN)
    return format(rounded.normalize(), "f")


def condition(tokens: list[str]) -> float:
    """Relative condition number of the expression in its literals: how
    much a relative error in the literals grows in the result."""
    base = evaluate(tokens, float)
    if base == 0.0:
        return 0.0
    total = 0.0
    for i, tok in enumerate(tokens):
        if tok[0].isdigit():
            nudged = tokens[:i] + [repr(float(tok) * (1 + 1e-7))] + tokens[i + 1:]
            total += abs(evaluate(nudged, float) - base)
    return total / (1e-7 * abs(base))


def expected_fit(value: Fraction, cond: float = 1.0) -> bool | None:
    """Whether the payload for an exact value fits the segment, or None when
    float error in the machine could decide it either way: the value sits
    on a rounding or snapping edge, or cancellation (a large condition
    number) magnifies the few-ulp error of the machine's literals into the
    twelfth significant digit."""
    x = float(value)
    e = 1e-12 + cond * 4e-15
    fits = {len(payload_text(x * (1 + d))) + 1 <= INJECT_LEN for d in (-e, 0.0, e)}
    return fits.pop() if len(fits) == 1 else None


# ---------------------------------------------------------------------------
# questions


def _literal(rng: random.Random, nonzero: bool = False) -> str:
    scale = 10 ** rng.randint(0, 2)
    while True:
        n = rng.randrange(0, 100 * scale)
        if n or not nonzero:
            break
    whole, frac = divmod(n, scale)
    digits = str(frac).rjust(len(str(scale)) - 1, "0").rstrip("0")
    return f"{whole}.{digits}" if digits else str(whole)


def _chain(rng: random.Random, ops: list[str]) -> list[str]:
    tokens = [_literal(rng)]
    for op in ops:
        tokens += [op, _literal(rng, nonzero=(op == "/"))]
    return tokens


def _easy(rng: random.Random) -> list[str]:
    return _chain(rng, [rng.choice(_OPS) for _ in range(rng.randint(1, 2))])


def _priority(rng: random.Random) -> list[str]:
    ops = [rng.choice(_OPS) for _ in range(rng.randint(2, 4))]
    j = rng.randrange(1, len(ops))
    ops[rng.randrange(0, j)] = rng.choice("+-")
    ops[j] = rng.choice("*/")
    return _chain(rng, ops)


def _zero_divisor(rng: random.Random) -> list[str]:
    b = _literal(rng, nonzero=True)
    zero = rng.choice([["(", b, "-", b, ")"], ["(", b, "*", "0", ")"], ["(", "0", "*", b, ")"]])
    a, c = _literal(rng), _literal(rng)
    return rng.choice([
        [a, "/"] + zero,
        [a, rng.choice("+-"), c, "/"] + zero,
        ["(", a, rng.choice("+-"), c, ")", "/"] + zero,
        [a, "*", c, "/"] + zero,
    ])


def _too_long(rng: random.Random) -> list[str]:
    if rng.random() < 0.5:
        # four five-digit factors: at least 17 integer digits
        tokens = [str(rng.randint(10_000, 99_999))]
        for _ in range(3):
            tokens += ["*", str(rng.randint(10_000, 99_999))]
        return tokens
    # small quotient with many significant digits behind leading zeros
    return [str(rng.randint(1, 9)), "/", str(rng.randint(11, 97)), "/", str(rng.choice([1000, 10000]))]


_DECLINED = (
    "I have {a} apples and {b} pears.",
    "Design a logo for a food store.",
    "What is the capital of France?",
    "Write {a} lines about the sea.",
    "Call me at {a} {b} after lunch.",
    "Chapter {a}: the return of the king",
    "Summarize this article in {a} words.",
    "Is {a} a prime number?",
    "Room {a} is on floor {b}.",
    "Translate 'good morning' into Spanish.",
    "List {a} colors that go with blue = ?",
    "{a} reasons to learn {b} languages",
)


def _declined(rng: random.Random) -> str:
    return rng.choice(_DECLINED).format(a=rng.randint(0, 999), b=rng.randint(1, 99))


def gen_questions(seed: int, count: int = QUESTION_COUNT) -> list[Item]:
    """About 35% easy and 35% priority arithmetic, 20% prose the predictor
    declines, 5% zero divisors and 5% results too long for the segment.

    Arithmetic whose result does not fit the segment is expected to fail
    with PayloadTooLong. Where float error could decide whether it fits
    (expected_fit is None), either the answer or PayloadTooLong is right:
    "79.6 - 29.7 * 2.68 = ?" is 0.004, but the machine's float result
    renders as 0.00399999999999, one character too long."""
    rng = stream("questions", seed)
    items: list[Item] = []
    while len(items) < count:
        r = rng.random()
        if r < 0.2:
            items.append(Item(_declined(rng), "declined", "declined"))
            continue
        if r < 0.25:
            tokens = _zero_divisor(rng)
            items.append(Item(" ".join(tokens) + " = ?", "div0", "DivisionByZero"))
            continue
        kind, make = (("toolong", _too_long) if r < 0.3
                      else ("easy", _easy) if r < 0.65
                      else ("priority", _priority))
        tokens = make(rng)
        value = evaluate(tokens)
        fits = expected_fit(value, condition(tokens))
        if kind == "toolong" and fits is not False:
            continue
        outcome = {True: "answer", False: "PayloadTooLong", None: EITHER}[fits]
        items.append(Item(" ".join(tokens) + " = ?", kind, outcome, value))
    return items


# ---------------------------------------------------------------------------
# long-programs


def _chain_term(rng: random.Random, operands: int) -> list[str]:
    """An integer-valued term of 1 to 3 operands, parentheses at most one deep."""
    def lit() -> str:
        return str(rng.randint(1, 99))

    if operands == 1:
        return [lit()]
    if operands == 2:
        a, b = lit(), lit()
        return rng.choice([[a, "*", b], ["(", a, "*", b, ")"], ["(", a, "-", b, ")"]])
    a, b = rng.randint(1, 99), rng.randint(1, 99)
    if rng.random() < 0.5:
        # exact division keeps every intermediate an integer, so the
        # machine's float arithmetic is exact too
        divisors = [d for d in range(1, 100) if (a * b) % d == 0]
        return [str(a), "*", str(b), "/", str(rng.choice(divisors))]
    return ["(", str(a), rng.choice("+-"), str(b), ")", "*", lit()]


def chain(rng: random.Random, operands: int) -> list[str]:
    tokens: list[str] = []
    left = operands
    while left:
        size = min(left, rng.choice((1, 1, 2, 3)))
        if tokens:
            tokens.append(rng.choice("+-"))
        tokens += _chain_term(rng, size)
        left -= size
    return tokens


def gen_chain_sets(seed: int, count: int = CHAIN_SETS) -> list[list[Item]]:
    """Sets of four programs, one per length in CHAIN_LENGTHS, each run with
    exactly the slots its postfix form needs (operands plus operators)."""
    rng = stream("long-programs", seed)
    sets = []
    for _ in range(count):
        programs = []
        for n in CHAIN_LENGTHS:
            tokens = chain(rng, n)
            value = evaluate(tokens)
            programs.append(Item(" ".join(tokens) + " = ?", f"n{n}", "answer", value, 2 * n - 1))
        sets.append(programs)
    return sets


# ---------------------------------------------------------------------------
# train-gates corpora


def gen_dot_lines(seed: int, count: int = DOT_LINES) -> list[str]:
    """Five-digit literals, the dot cycling through the interior positions."""
    rng = stream("train-gates", seed, "dot")
    lines = []
    for i in range(count):
        digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(4))
        pos = 1 + i % 4
        lines.append(digits[:pos] + "." + digits[pos:])
    return lines


def _ops_literal(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return str(rng.randint(0, 999))
    frac = "".join(str(rng.randint(0, 9)) for _ in range(rng.randint(1, 4)))
    return f"{rng.randint(0, 99)}.{frac}"


def gen_ops_lines(seed: int, count: int = OPS_LINES, part: str = "ops") -> list[str]:
    """Literals and operator characters. By position in the corpus, every
    tenth line is operators only, every seventh carries junk characters,
    every ninth ends in the '$' terminator, and some operators glue onto
    the number before them, so every gate decision case appears."""
    rng = stream("train-gates", seed, part)
    lines = []
    for i in range(count):
        if i % 10 == 3:
            line = " ".join(rng.choice(_OPS) for _ in range(rng.randint(2, 5)))
        else:
            parts = [rng.choice(_OPS) if rng.random() < 0.35 else _ops_literal(rng)
                     for _ in range(rng.randint(2, 6))]
            line = parts[0]
            for p in parts[1:]:
                line += p if p in _OPS and rng.random() < 0.2 else " " + p
        if i % 7 == 5:
            for _ in range(rng.randint(1, 2)):
                j = rng.randrange(len(line) + 1)
                line = line[:j] + rng.choice(_JUNK) + line[j:]
        if i % 9 == 2:
            line += "$"
        lines.append(line)
    return lines


def gen_heldout_lines(seed: int, count: int = HELDOUT_LINES) -> list[str]:
    return gen_ops_lines(seed, count, part="heldout")


def workload_inputs(workload: str, seed: int):
    """A workload's inputs and a digest of the text gatecalc receives:
    units of items for the serving workloads, the three corpora for
    train-gates."""
    if workload == "questions":
        items = gen_questions(seed)
        return [[item] for item in items], digest(i.text for i in items)
    if workload == "long-programs":
        sets = gen_chain_sets(seed)
        return sets, digest(f"{i.capacity}:{i.text}" for unit in sets for i in unit)
    corpora = (gen_dot_lines(seed), gen_ops_lines(seed), gen_heldout_lines(seed))
    return corpora, digest(line for lines in corpora for line in lines)
